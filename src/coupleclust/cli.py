"""Command-line interface.

Every run that writes to a file also writes a sibling run manifest
(``<out>.manifest.json``) recording the command, parameters, seed, output
paths and tool version, so any artifact can be traced back to the exact
invocation that produced it. JSON written to stdout embeds the same record
under a ``"manifest"`` key; CSV and edge-list output to stdout carries no
manifest (the formats have no place for one).

Errors of any kind are reported as a single JSON line on stderr, e.g.::

    {"error": "ConditionHViolated", "message": "..."}

and the process exits with status 1.

Subcommands
-----------
couple           build a coupling of two margins (independence or
                 indetermination)
monge-check      structure checks and theorem cross-validation on a joint
condorcet-check  residual distance of a joint from the indetermination
                 coupling of its own margins
delta            mean squared gap between the two couplings: closed form
                 and Monte Carlo
gilbert          sample a Gilbert (or binomial-weighted) random graph as an
                 edge list
bias-hist        histogram of a coupling bias over Gilbert graphs,
                 empirical or exact
cluster          greedy criterion-maximizing clustering of a graph
best-exhaustive  exact optimum partition of a small graph (<= 10 nodes)

File formats
------------
margins JSON     {"mu": [...], "nu": [...]}
joint JSON       {"p": 2, "q": 2, "cells": [[...], [...]]}
edge list        ``i<TAB>j<TAB>weight`` per line, 0-based, one line per
                 undirected edge
histogram CSV    header ``bin_low,bin_high,count``
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .coupling import (
    Margin,
    couple_independence,
    couple_indetermination,
    delta_closed_form,
    delta_monte_carlo,
    JointDistribution,
    validate_margin,
)
from .data import load_karate
from .errors import CoupleclustError
from .graph import (
    empirical_bias_difference_histogram,
    empirical_bias_histogram,
    gilbert,
    gilbert_weighted,
    load_edge_list,
    theoretical_bias_difference_distribution,
    theoretical_bias_histograms,
)
from .louvain import (
    LouvainConfig,
    criterion_by_name,
    exhaustive_best_partition,
    louvain,
)
from .monge import monge_report, verify_monge_theorems
from .relational import condorcet_residual

__all__ = ["main"]


@dataclass
class RunManifest:
    """Provenance record attached to every artifact-producing run."""

    command: str
    parameters: dict
    seed: int | None = None
    output_paths: list[str] = field(default_factory=list)
    tool_version: str = __version__

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "output_paths": self.output_paths,
            "tool_version": self.tool_version,
        }


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, default=float)


def _emit_json(payload: dict, out: str | None, manifest: RunManifest) -> None:
    if out:
        manifest.output_paths = [out, out + ".manifest.json"]
        Path(out).write_text(_dump(payload) + "\n")
        Path(out + ".manifest.json").write_text(
            _dump(manifest.to_json_dict()) + "\n"
        )
    else:
        manifest.output_paths = ["-"]
        payload = dict(payload)
        payload["manifest"] = manifest.to_json_dict()
        sys.stdout.write(_dump(payload) + "\n")


def _emit_text(text: str, out: str | None, manifest: RunManifest) -> None:
    if out:
        manifest.output_paths = [out, out + ".manifest.json"]
        Path(out).write_text(text)
        Path(out + ".manifest.json").write_text(
            _dump(manifest.to_json_dict()) + "\n"
        )
    else:
        sys.stdout.write(text)


def _load_json_file(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _read_margins(path: str) -> tuple[Margin, Margin]:
    data = _load_json_file(path)
    if "mu" not in data or "nu" not in data:
        raise ValueError("margins file must contain 'mu' and 'nu' arrays")
    return validate_margin(data["mu"]), validate_margin(data["nu"])


def _read_joint(path: str) -> JointDistribution:
    return JointDistribution.from_json_dict(_load_json_file(path))


def _input_graph(args):
    if args.karate and args.input:
        raise ValueError("give either an edge-list file or --karate, not both")
    if args.karate:
        return load_karate(), "karate"
    if not args.input:
        raise ValueError("an edge-list file (or --karate) is required")
    return load_edge_list(args.input), args.input


def cmd_couple(args) -> int:
    mu, nu = _read_margins(args.margins)
    if args.kind == "independence":
        pi = couple_independence(mu, nu)
    else:
        pi = couple_indetermination(mu, nu)
    payload = pi.to_json_dict()
    payload["kind"] = args.kind
    manifest = RunManifest(
        command="couple",
        parameters={"margins": args.margins, "kind": args.kind},
    )
    _emit_json(payload, args.out, manifest)
    return 0


def cmd_monge_check(args) -> int:
    pi = _read_joint(args.joint)
    basic = monge_report(pi.cells, tol=args.tol)
    theorems = verify_monge_theorems(pi, tol=args.tol)
    payload = {
        "tol": args.tol,
        "structure": basic.to_json_dict(),
        "theorems": theorems.to_json_dict(),
    }
    manifest = RunManifest(
        command="monge-check", parameters={"joint": args.joint, "tol": args.tol}
    )
    _emit_json(payload, args.out, manifest)
    return 0


def cmd_condorcet_check(args) -> int:
    pi = _read_joint(args.joint)
    residual = condorcet_residual(pi)
    payload = {
        "residual": residual,
        "is_indetermination_coupling": bool(residual <= args.tol),
        "tol": args.tol,
    }
    manifest = RunManifest(
        command="condorcet-check",
        parameters={"joint": args.joint, "tol": args.tol},
    )
    _emit_json(payload, args.out, manifest)
    return 0


def cmd_delta(args) -> int:
    closed = delta_closed_form(args.p, args.q)
    payload = {"p": args.p, "q": args.q, "closed_form": closed}
    if args.samples > 0:
        est = delta_monte_carlo(
            args.p, args.q, args.samples, rng=args.seed, n_streams=args.streams
        )
        payload["monte_carlo"] = est.to_json_dict()
    manifest = RunManifest(
        command="delta",
        parameters={
            "p": args.p,
            "q": args.q,
            "samples": args.samples,
            "streams": args.streams,
        },
        seed=args.seed,
    )
    _emit_json(payload, args.out, manifest)
    return 0


def cmd_gilbert(args) -> int:
    if args.max_weight is not None:
        g = gilbert_weighted(args.n, args.eps, args.max_weight, rng=args.seed)
    else:
        g = gilbert(args.n, args.eps, rng=args.seed)
    manifest = RunManifest(
        command="gilbert",
        parameters={"n": args.n, "eps": args.eps, "max_weight": args.max_weight},
        seed=args.seed,
    )
    _emit_text(g.edge_list_text(), args.out, manifest)
    return 0


def cmd_bias_hist(args) -> int:
    if args.theoretical:
        if args.which == "difference":
            hist = theoretical_bias_difference_distribution(
                args.n, args.eps, bins=args.bins
            )
        else:
            times, plus = theoretical_bias_histograms(args.n, args.eps, bins=args.bins)
            hist = times if args.which == "independence" else plus
    elif args.which == "difference":
        hist = empirical_bias_difference_histogram(
            args.n,
            args.eps,
            args.samples,
            bins=args.bins,
            rng=args.seed,
            use_realized_2m=not args.expected_2m,
            n_streams=args.streams,
        )
    else:
        times, plus = empirical_bias_histogram(
            args.n,
            args.eps,
            args.samples,
            bins=args.bins,
            rng=args.seed,
            use_realized_2m=not args.expected_2m,
            n_streams=args.streams,
        )
        hist = times if args.which == "independence" else plus
    rows = ["bin_low,bin_high,count"]
    rows += [f"{lo!r},{hi!r},{c!r}" for lo, hi, c in hist.csv_rows()]
    manifest = RunManifest(
        command="bias-hist",
        parameters={
            "n": args.n,
            "eps": args.eps,
            "which": args.which,
            "bins": args.bins,
            "samples": args.samples,
            "theoretical": args.theoretical,
            "expected_2m": args.expected_2m,
            "streams": args.streams,
        },
        seed=args.seed,
    )
    _emit_text("\n".join(rows) + "\n", args.out, manifest)
    return 0


def cmd_cluster(args) -> int:
    g, source = _input_graph(args)
    criterion = criterion_by_name(args.criterion)
    result = louvain(g, criterion, LouvainConfig(seed=args.seed))
    payload = result.to_json_dict()
    manifest = RunManifest(
        command="cluster",
        parameters={"input": source, "criterion": args.criterion},
        seed=args.seed,
    )
    _emit_json(payload, args.out, manifest)
    return 0


def cmd_best_exhaustive(args) -> int:
    g, source = _input_graph(args)
    criterion = criterion_by_name(args.criterion)
    partition, score = exhaustive_best_partition(g, criterion)
    payload = {
        "labels": [int(x) for x in partition.labels],
        "k": partition.k,
        "score": score,
        "criterion": criterion.kind,
    }
    manifest = RunManifest(
        command="best-exhaustive",
        parameters={"input": source, "criterion": args.criterion},
    )
    _emit_json(payload, args.out, manifest)
    return 0


def _count(text: str) -> int:
    """argparse type for sample counts: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_out(sub) -> None:
    sub.add_argument(
        "--out", default=None, help="output file (default: stdout)"
    )


def _add_seed(sub) -> None:
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")


def _add_streams(sub) -> None:
    sub.add_argument(
        "--streams",
        type=int,
        default=1,
        help="independent sampling substreams; results depend only on "
        "(seed, streams), and COUPLECLUST_THREADS caps the worker pool",
    )


def _add_graph_input(sub) -> None:
    sub.add_argument(
        "input", nargs="?", default=None, help="edge-list file (i<TAB>j<TAB>weight)"
    )
    sub.add_argument(
        "--karate",
        action="store_true",
        help="use the bundled 34-node karate club graph",
    )
    sub.add_argument(
        "--criterion",
        choices=("independence", "indetermination"),
        default="independence",
        help="local criterion to maximize (default independence)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupleclust",
        description="Couplings of probability margins and the graph "
        "clustering criteria they induce.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("couple", help="build a coupling of two margins")
    s.add_argument("margins", help='JSON file {"mu": [...], "nu": [...]}')
    s.add_argument(
        "--kind",
        choices=("independence", "indetermination"),
        default="independence",
    )
    _add_out(s)
    s.set_defaults(func=cmd_couple)

    s = sub.add_parser(
        "monge-check", help="structure checks and theorem cross-validation"
    )
    s.add_argument("joint", help='JSON file {"p", "q", "cells"}')
    s.add_argument("--tol", type=float, default=1e-10)
    _add_out(s)
    s.set_defaults(func=cmd_monge_check)

    s = sub.add_parser(
        "condorcet-check",
        help="residual from the indetermination coupling of its own margins",
    )
    s.add_argument("joint", help='JSON file {"p", "q", "cells"}')
    s.add_argument("--tol", type=float, default=1e-12)
    _add_out(s)
    s.set_defaults(func=cmd_condorcet_check)

    s = sub.add_parser(
        "delta", help="mean squared coupling gap: closed form and Monte Carlo"
    )
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument(
        "--samples",
        type=_count,
        default=10_000,
        help="Monte Carlo sample count; 0 skips the estimate (default 10000)",
    )
    _add_seed(s)
    _add_streams(s)
    _add_out(s)
    s.set_defaults(func=cmd_delta)

    s = sub.add_parser("gilbert", help="sample a random graph as an edge list")
    s.add_argument("n", type=int)
    s.add_argument("eps", type=float)
    s.add_argument(
        "--max-weight",
        type=int,
        default=None,
        help="draw Binomial(max_weight, eps) integer weights instead of 0/1 edges",
    )
    _add_seed(s)
    _add_out(s)
    s.set_defaults(func=cmd_gilbert)

    s = sub.add_parser(
        "bias-hist", help="bias histogram over Gilbert graphs (CSV)"
    )
    s.add_argument("n", type=int)
    s.add_argument("eps", type=float)
    s.add_argument(
        "--which",
        choices=("independence", "indetermination", "difference"),
        default="indetermination",
        help="which quantity to bin: one of the two biases, or their "
        "paired difference b_plus - b_times",
    )
    s.add_argument("--bins", type=int, default=200)
    s.add_argument("--samples", type=_count, default=100_000)
    s.add_argument(
        "--theoretical",
        action="store_true",
        help="exact masses under the idealized degree model instead of sampling",
    )
    s.add_argument(
        "--expected-2m",
        action="store_true",
        help="normalize sampled biases by n^2*eps instead of each graph's "
        "realized total weight",
    )
    _add_seed(s)
    _add_streams(s)
    _add_out(s)
    s.set_defaults(func=cmd_bias_hist)

    s = sub.add_parser("cluster", help="greedy criterion-maximizing clustering")
    _add_graph_input(s)
    _add_seed(s)
    _add_out(s)
    s.set_defaults(func=cmd_cluster)

    s = sub.add_parser(
        "best-exhaustive", help="exact optimum partition (<= 10 nodes)"
    )
    _add_graph_input(s)
    _add_out(s)
    s.set_defaults(func=cmd_best_exhaustive)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CoupleclustError, ValueError, KeyError, OSError) as exc:
        line = json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}
        )
        print(line, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
