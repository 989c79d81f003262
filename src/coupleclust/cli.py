"""Command-line interface.

Every run that writes to a file also writes a sibling run manifest
(``<out>.manifest.json``), so any artifact can be traced back to the exact
invocation that produced it. JSON written to stdout embeds the same record
under a ``"manifest"`` key; CSV and edge-list output to stdout carries no
manifest (the formats have no place for one). The manifest fields are
``command``; ``parameters``, every parsed argument except ``--seed`` and
``--out`` (``input`` reads ``"karate"`` under ``--karate``); ``seed``,
null for subcommands without one; ``output_paths``; ``tool_version``;
``environment``, the Python, numpy and scipy versions; and ``elapsed_s``,
the wall time of the command in seconds, writing the output excluded.

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
                 undirected edge; n is the largest index plus one, so a
                 graph whose last node has no edge is written with a final
                 ``n-1<TAB>n-1<TAB>0.0`` line
histogram CSV    header ``bin_low,bin_high,count``
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

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
from .errors import CoupleclustError, _json_object
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


# Parsed arguments kept out of ``parameters``: argparse plumbing, and the
# ones the manifest records as ``seed``, ``output_paths`` and ``input``.
_NOT_PARAMETERS = ("command", "func", "out", "seed", "karate")


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, default=float)


def _emit(args, result: dict | str, elapsed_s: float) -> None:
    """Write a command's result, a JSON payload or finished text, together
    with the run manifest derived from the parsed arguments."""
    parameters = {
        key: value
        for key, value in vars(args).items()
        if key not in _NOT_PARAMETERS
    }
    if getattr(args, "karate", False):
        parameters["input"] = "karate"
    manifest = {
        "command": args.command,
        "parameters": parameters,
        "seed": getattr(args, "seed", None),
        "output_paths": [args.out, args.out + ".manifest.json"] if args.out else ["-"],
        "tool_version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "elapsed_s": elapsed_s,
    }
    if isinstance(result, dict):
        if not args.out:
            result = dict(result, manifest=manifest)
        result = _dump(result) + "\n"
    if args.out:
        Path(args.out).write_text(result)
        Path(args.out + ".manifest.json").write_text(_dump(manifest) + "\n")
    else:
        sys.stdout.write(result)


def _read_margins(path: str) -> tuple[Margin, Margin]:
    data = _json_object(json.loads(Path(path).read_text()), ("mu", "nu"), path)
    return validate_margin(data["mu"]), validate_margin(data["nu"])


def _read_joint(path: str) -> JointDistribution:
    return JointDistribution.from_json(Path(path).read_text())


def _input_graph(args):
    if args.karate and args.input:
        raise ValueError("give either an edge-list file or --karate, not both")
    if args.karate:
        return load_karate()
    if not args.input:
        raise ValueError("an edge-list file (or --karate) is required")
    return load_edge_list(args.input)


def cmd_couple(args) -> dict:
    mu, nu = _read_margins(args.margins)
    if args.kind == "independence":
        pi = couple_independence(mu, nu)
    else:
        pi = couple_indetermination(mu, nu)
    payload = pi.to_json_dict()
    payload["kind"] = args.kind
    return payload


def cmd_monge_check(args) -> dict:
    pi = _read_joint(args.joint)
    basic = monge_report(pi.cells, tol=args.tol)
    theorems = verify_monge_theorems(pi, tol=args.tol)
    return {
        "tol": args.tol,
        "structure": basic.to_json_dict(),
        "theorems": theorems.to_json_dict(),
    }


def cmd_condorcet_check(args) -> dict:
    pi = _read_joint(args.joint)
    residual = condorcet_residual(pi)
    return {
        "residual": residual,
        "is_indetermination_coupling": bool(residual <= args.tol),
        "tol": args.tol,
    }


def cmd_delta(args) -> dict:
    closed = delta_closed_form(args.p, args.q)
    payload = {"p": args.p, "q": args.q, "closed_form": closed}
    if args.samples > 0:
        est = delta_monte_carlo(
            args.p, args.q, args.samples, rng=args.seed, n_streams=args.streams
        )
        payload["monte_carlo"] = est.to_json_dict()
    return payload


def cmd_gilbert(args) -> str:
    if args.max_weight is not None:
        g = gilbert_weighted(args.n, args.eps, args.max_weight, rng=args.seed)
    else:
        g = gilbert(args.n, args.eps, rng=args.seed)
    return g.edge_list_text()


def cmd_bias_hist(args) -> str:
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
    return "\n".join(rows) + "\n"


def cmd_cluster(args) -> dict:
    g = _input_graph(args)
    criterion = criterion_by_name(args.criterion)
    return louvain(g, criterion, LouvainConfig(seed=args.seed)).to_json_dict()


def cmd_best_exhaustive(args) -> dict:
    g = _input_graph(args)
    criterion = criterion_by_name(args.criterion)
    partition, score = exhaustive_best_partition(g, criterion)
    return {**partition.to_json_dict(), "score": score, "criterion": criterion.kind}


def _count(text: str) -> int:
    """argparse type for sample counts: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _tolerance(text: str) -> float:
    """argparse type for check tolerances: a finite, nonnegative float."""
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
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
        help="independent sampling substreams, run on up to one thread per "
        "usable CPU; results depend only on (seed, streams)",
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
    s.add_argument("--tol", type=_tolerance, default=1e-10)
    _add_out(s)
    s.set_defaults(func=cmd_monge_check)

    s = sub.add_parser(
        "condorcet-check",
        help="residual from the indetermination coupling of its own margins",
    )
    s.add_argument("joint", help='JSON file {"p", "q", "cells"}')
    s.add_argument("--tol", type=_tolerance, default=1e-12)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process: a build takes
    over twenty times as long as a parse, and in-process callers call
    ``main`` once per command."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        start = time.perf_counter()
        result = args.func(args)
        _emit(args, result, time.perf_counter() - start)
    except (CoupleclustError, ValueError, KeyError, OSError, MemoryError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
