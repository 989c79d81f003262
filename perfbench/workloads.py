"""The benchmark's workloads: inputs, the timed op, and its output check.

Every workload follows one protocol. ``setup()`` generates and writes the
inputs (it may be called several times and must give the same files each
time). For op ``i``, ``prepare(i)`` builds untimed per-op inputs,
``run(i, inp, tracer)`` is the timed call into the library, and
``check(i, inp, out, tracer)`` verifies the output outside the timed region,
raising :class:`CheckFailed` on a wrong result. ``check`` also records the
counts and quality figures that the report reads from ``counts`` and
``quality``.
"""

from __future__ import annotations

import json
from pathlib import Path

import networkx as nx
import numpy as np

from perfbench import inputs

CRITERIA = ("independence", "indetermination")


class CheckFailed(Exception):
    """An op returned a wrong result."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def op_seed(seed: int, i: int) -> int:
    """Per-op library seed derived from the benchmark seed and op index."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class Workload:
    name = ""
    #: In a traced run, at least this many ops run, and the exact counts
    #: (iterations, trace lengths, ...) are read from exactly these ops.
    count_window = 1

    def __init__(self, mods: dict, seed: int, workdir: Path, tiny: bool = False):
        self.mods = mods
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.counts: dict[int, dict[str, float]] = {}
        self.quality: dict[str, list[float]] = {}

    def count(self, i: int, key: str, value: float) -> None:
        ops = self.counts.setdefault(i, {})
        ops[key] = ops.get(key, 0.0) + value

    def note_quality(self, key: str, value: float) -> None:
        self.quality.setdefault(key, []).append(value)

    def wrap_targets(self) -> list[tuple[object, str, str]]:
        """``(owner, attribute, span name)`` binding sites traced runs wrap."""
        return []

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int):
        return None

    def run(self, i: int, inp, tracer):
        raise NotImplementedError

    def check(self, i: int, inp, out, tracer) -> None:
        raise NotImplementedError


class _Clustering(Workload):
    """Shared CLI driving and checks of the two clustering workloads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lib_graphs: dict[str, object] = {}
        self._nx_graphs: dict[str, nx.Graph] = {}

    def wrap_targets(self):
        cli, data, graph = self.mods["cli"], self.mods["data"], self.mods["graph"]
        return [
            (cli, "load_edge_list", "graph.load_edge_list"),
            (data, "load_edge_list", "graph.load_edge_list"),
            (graph.WeightedGraph, "from_edges", "graph.from_edges"),
            (cli, "louvain", "louvain.louvain"),
            (cli, "exhaustive_best_partition", "louvain.exhaustive"),
        ]

    def cli(self, tracer, argv: list[str]) -> int:
        return tracer.call("cli.main", self.mods["cli"].main, argv)

    def out_path(self, i: int) -> Path:
        return self.workdir / f"out-{i % 2}.json"

    def _library_graph(self, key: str, g: inputs.EdgeGraph):
        if key not in self._lib_graphs:
            edges = [(int(a), int(b), 1.0) for a, b in g.edges.tolist()]
            self._lib_graphs[key] = self.mods["graph"].WeightedGraph.from_edges(g.n, edges)
        return self._lib_graphs[key]

    def _nx_graph(self, key: str, g: inputs.EdgeGraph) -> nx.Graph:
        if key not in self._nx_graphs:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges.tolist())
            self._nx_graphs[key] = h
        return self._nx_graphs[key]

    def check_cluster(self, i, key, g, criterion, rc, tracer) -> float:
        """Check one ``cluster`` output; returns its score."""
        require(rc == 0, f"op {i}: cluster exited with {rc}")
        result = json.loads(self.out_path(i).read_text())
        score = float(result["score"])
        trace = [float(t) for t in result["trace"]]
        louvain = self.mods["louvain"]
        crit = louvain.criterion_by_name(criterion)
        lib_graph = self._library_graph(key, g)
        part = louvain.Partition.from_labels(result["labels"])
        require(part.n == g.n, f"op {i}: {part.n} labels for {g.n} nodes")
        rescored = tracer.call("louvain.score_final", louvain.global_score, lib_graph, crit, part)
        require(close(score, rescored), f"op {i}: score {score!r} != global_score {rescored!r}")
        require(
            all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:])),
            f"op {i}: trace decreases",
        )
        require(close(trace[-1], score), f"op {i}: trace ends at {trace[-1]!r}, score {score!r}")
        # Trivial partitions, scored here from degrees alone: all-in-one
        # scores 0 under both criteria (zero-sum identity), singletons keep
        # only the diagonal terms (the graphs have no self-loops).
        deg = g.degrees()
        two_m = float(deg.sum())
        if criterion == "independence":
            singletons = float(-(deg**2).sum() / two_m**2)
        else:
            singletons = -two_m / g.n
        floor = max(0.0, singletons)
        require(
            score >= floor - 1e-9 * max(1.0, abs(floor)),
            f"op {i}: score {score!r} below a trivial partition ({floor!r})",
        )
        if tracer.enabled:
            single = louvain.Partition.from_labels(np.arange(g.n))
            probe = tracer.call("louvain.score_singletons", louvain.global_score, lib_graph, crit, single)
            require(close(probe, singletons), f"op {i}: singletons score {probe!r} != {singletons!r}")
        if criterion == "independence":
            classes = [np.flatnonzero(part.labels == c).tolist() for c in range(part.k)]
            q = nx.community.modularity(self._nx_graph(key, g), classes)
            require(abs(q - score) <= 1e-9, f"op {i}: score {score!r} != networkx modularity {q!r}")
            self.note_quality("modularity", score)
        else:
            self.note_quality("indet_score_per_2m", score / two_m)
        self.count(i, "louvain_calls", 1)
        self.count(i, "trace_len", len(trace))
        self.count(i, "classes", part.k)
        return score


class ClusterLarge(_Clustering):
    """CLI ``cluster`` on planted-partition graphs above ``DENSE_CAP``.

    Ops alternate the two criteria and walk through the graphs in order:
    op ``i`` clusters graph ``(i // 2) % GRAPHS`` with criterion ``i % 2``.
    """

    name = "cluster-large"
    GRAPHS = 4

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        n, blocks, min_size = (300, 5, 20) if self.tiny else (2500, 25, 20)
        self.graphs = []
        for k in range(self.GRAPHS):
            g = inputs.planted_partition(rng, n=n, blocks=blocks, min_size=min_size)
            g.write(self.workdir / f"large-{k}.tsv")
            self.graphs.append(g)

    def _which(self, i: int) -> tuple[int, str]:
        return (i // 2) % self.GRAPHS, CRITERIA[i % 2]

    def run(self, i, inp, tracer):
        k, criterion = self._which(i)
        argv = [
            "cluster", str(self.workdir / f"large-{k}.tsv"),
            "--criterion", criterion,
            "--seed", str(op_seed(self.seed, i)),
            "--out", str(self.out_path(i)),
        ]
        return self.cli(tracer, argv)

    def check(self, i, inp, out, tracer) -> None:
        k, criterion = self._which(i)
        self.check_cluster(i, f"large-{k}", self.graphs[k], criterion, out, tracer)


class ClusterSmall(_Clustering):
    """Per-call cost on the dense storage branch.

    One cycle of ops is ``cluster --karate`` under both criteria, then for
    each small graph ``cluster`` and ``best-exhaustive`` under one criterion
    and then the other. The small graphs have ``n = 4 + k % 7`` nodes, so
    every size 4..10 appears equally often, and an edge probability drawn
    from [0.2, 0.9], stratified into four equal bands.
    """

    name = "cluster-small"
    GRAPHS = 28

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        count = 7 if self.tiny else self.GRAPHS
        self.graphs = []
        for k in range(count):
            # Size k % 7 and edge-probability stratum k // 7 each cover their
            # range evenly, so every seed asks for a similar mix of work.
            eps = 0.2 + 0.7 * (k // 7 + rng.uniform()) / (count // 7)
            g = inputs.bernoulli_graph(rng, 4 + k % 7, float(eps))
            g.write(self.workdir / f"small-{k}.tsv")
            self.graphs.append(g)
        self.karate = inputs.read_edge_list(self.mods["data"].karate_path())
        self.cycle = [("cluster", None, c) for c in CRITERIA]
        for k in range(count):
            for c in CRITERIA:
                self.cycle += [("cluster", k, c), ("best-exhaustive", k, c)]
        self.count_window = len(self.cycle)
        self._last_score: dict[tuple[int, str], float] = {}

    def run(self, i, inp, tracer):
        command, k, criterion = self.cycle[i % len(self.cycle)]
        source = ["--karate"] if k is None else [str(self.workdir / f"small-{k}.tsv")]
        argv = [command, *source, "--criterion", criterion, "--out", str(self.out_path(i))]
        if command == "cluster":
            # Karate is fixed data, and its shuffle seed follows the cycle
            # number alone: the karate ops set op_tail_ms, and their cost
            # swings with the shuffle seed, so they ask for the same work
            # whatever --seed is.
            seed = i // len(self.cycle) if k is None else op_seed(self.seed, i)
            argv += ["--seed", str(seed)]
        return self.cli(tracer, argv)

    def check(self, i, inp, out, tracer) -> None:
        command, k, criterion = self.cycle[i % len(self.cycle)]
        key, g = ("karate", self.karate) if k is None else (f"small-{k}", self.graphs[k])
        if command == "cluster":
            self._last_score[(k, criterion)] = self.check_cluster(i, key, g, criterion, out, tracer)
            return
        require(out == 0, f"op {i}: best-exhaustive exited with {out}")
        result = json.loads(self.out_path(i).read_text())
        optimum = float(result["score"])
        louvain = self.mods["louvain"]
        rescored = louvain.global_score(
            self._library_graph(key, g),
            louvain.criterion_by_name(criterion),
            louvain.Partition.from_labels(result["labels"]),
        )
        require(close(optimum, rescored), f"op {i}: optimum {optimum!r} != global_score {rescored!r}")
        greedy = self._last_score[(k, criterion)]
        require(greedy <= optimum + 1e-9 * max(1.0, abs(optimum)), f"op {i}: greedy beats the optimum")
        # The 0.95 quality target of the test suite's criterion 10 is
        # reported (score_ratio_min, shortfall count), not enforced: the
        # greedy search misses it on a few graphs for some shuffle seeds.
        if optimum > 1e-12:
            ratio = greedy / optimum
            self.note_quality("score_ratio", ratio)
            self.note_quality("score_ratio_shortfalls", float(ratio < 0.95))


class MonteCarlo(Workload):
    """One op is one round of sampler, solver and structure-check calls.

    Every round draws its own library seed and its own margins; no Louvain
    code runs.
    """

    name = "montecarlo"

    FULL = dict(
        bias_n=200, bias_samples=4096, bias_small_n=50, bias_small_samples=16384,
        theory_n=2000, gilbert_n=10_000, gilbert_eps=0.001, delta_samples=200_000,
        solver_pairs=16, structure_pairs=8, agreement_pairs=200_000,
    )
    TINY = dict(
        bias_n=30, bias_samples=64, bias_small_n=10, bias_small_samples=64,
        theory_n=50, gilbert_n=400, gilbert_eps=0.02, delta_samples=2000,
        solver_pairs=2, structure_pairs=2, agreement_pairs=1000,
    )
    EPS = 0.3

    def setup(self) -> None:
        self.size = self.TINY if self.tiny else self.FULL

    def prepare(self, i):
        rng = np.random.default_rng([self.seed, 3, i])
        z = self.size
        return {
            "seed": op_seed(self.seed, i),
            "solver": inputs.condition_h_pairs(rng, 6, 8, z["solver_pairs"]),
            "structure": inputs.condition_h_pairs(rng, 6, 8, z["structure_pairs"]),
        }

    def wrap_targets(self):
        return [(self.mods["_mc"], "run_streams", "mc.run_streams")]

    def run(self, i, inp, t):
        graph, coupling, solvers = self.mods["graph"], self.mods["coupling"], self.mods["solvers"]
        monge, relational = self.mods["monge"], self.mods["relational"]
        z, s, eps = self.size, inp["seed"], self.EPS
        out: dict = {}
        bias = graph.empirical_bias_histogram
        out["bias_s1"] = t.call("graph.bias.s1", bias, z["bias_n"], eps, z["bias_samples"], rng=s, n_streams=1)
        out["bias_s2"] = t.call("graph.bias.s2", bias, z["bias_n"], eps, z["bias_samples"], rng=s, n_streams=2)
        out["bias_small"] = t.call(
            "graph.bias.small", bias, z["bias_small_n"], eps, z["bias_small_samples"], rng=s
        )
        out["theory"] = t.call("graph.theory", graph.theoretical_bias_histograms, z["theory_n"], eps)
        out["theory_diff"] = t.call(
            "graph.theory", graph.theoretical_bias_difference_distribution, z["theory_n"], eps
        )
        out["gilbert"] = t.call("graph.gilbert", graph.gilbert, z["gilbert_n"], z["gilbert_eps"], rng=s)
        out["delta"] = [
            t.call("coupling.delta_mc", coupling.delta_monte_carlo, p, q, z["delta_samples"], rng=s)
            for p, q in ((3, 4), (10, 10))
        ]
        out["solvers"] = []
        for mu, nu in inp["solver"]:
            mu, nu = coupling.validate_margin(mu), coupling.validate_margin(nu)
            ipf = t.call("solvers.ipf", solvers.solve_entropy_projection, mu, nu)
            dyk = t.call("solvers.dykstra", solvers.solve_least_squares_projection, mu, nu)
            out["solvers"].append((mu, nu, ipf, dyk))
        out["structure"] = []
        for mu, nu in inp["structure"]:
            mu, nu = coupling.validate_margin(mu), coupling.validate_margin(nu)
            indep = t.call("coupling.couple", coupling.couple_independence, mu, nu)
            indet = t.call("coupling.couple", coupling.couple_indetermination, mu, nu)
            row = {
                "indet": indet,
                "theorems": [t.call("monge.verify", monge.verify_monge_theorems, pi) for pi in (indep, indet)],
                "condorcet": [t.call("relational.condorcet", relational.condorcet_residual, pi) for pi in (indep, indet)],
            }
            out["structure"].append(row)
        out["agreement"] = t.call(
            "relational.agreement", relational.sample_agreement_counts,
            out["structure"][-1]["indet"], z["agreement_pairs"], rng=s,
        )
        return out

    def check(self, i, inp, out, tracer) -> None:
        z, coupling = self.size, self.mods["coupling"]
        for key, samples in (("bias_s1", z["bias_samples"]), ("bias_s2", z["bias_samples"]),
                             ("bias_small", z["bias_small_samples"])):
            times, plus = out[key]
            require(plus.total == samples, f"op {i}: {key} b_+ histogram holds {plus.total} of {samples}")
            require(0 <= times.total <= samples, f"op {i}: {key} b_x histogram holds {times.total}")
            self.count(i, "bias_dropped", samples - times.total)
        self.count(i, "bias_samples", 2 * z["bias_samples"] + z["bias_small_samples"])
        for hist in (*out["theory"], out["theory_diff"]):
            require(abs(hist.total - 1.0) <= 1e-9, f"op {i}: theoretical mass {hist.total!r}")

        g = out["gilbert"]
        n, eps = z["gilbert_n"], z["gilbert_eps"]
        edges = int(g.total_weight_2m) // 2  # unit weights
        expected = eps * n * (n - 1) / 2
        require(g.n == n, f"op {i}: gilbert gave {g.n} nodes")
        require(abs(edges - expected) <= 6 * np.sqrt(expected), f"op {i}: gilbert gave {edges} edges")
        self.count(i, "gilbert_edges", edges)

        for (p, q), est in zip(((3, 4), (10, 10)), out["delta"]):
            closed = coupling.delta_closed_form(p, q)
            require(
                abs(est.mean - closed) <= 5 * est.std_error,
                f"op {i}: delta({p},{q}) {est.mean!r} vs closed form {closed!r} (se {est.std_error!r})",
            )
            self.count(i, "delta_samples", est.n_samples)

        for mu, nu, ipf, dyk in out["solvers"]:
            gap_ipf = np.abs(ipf.solution.cells - coupling.couple_independence(mu, nu).cells).max()
            gap_dyk = np.abs(dyk.solution.cells - coupling.couple_indetermination(mu, nu).cells).max()
            require(gap_ipf <= 1e-8, f"op {i}: IPF off the independence coupling by {gap_ipf!r}")
            require(gap_dyk <= 1e-8, f"op {i}: Dykstra off the indetermination coupling by {gap_dyk!r}")
            self.count(i, "ipf_calls", 1)
            self.count(i, "ipf_iters", ipf.iterations)
            self.count(i, "dykstra_calls", 1)
            self.count(i, "dykstra_iters", dyk.iterations)

        for row in out["structure"]:
            th_indep, th_indet = row["theorems"]
            require(th_indet.additive_holds, f"op {i}: indetermination coupling fails the additive group")
            require(th_indep.multiplicative_holds is True, f"op {i}: independence coupling fails the product group")
            require(row["condorcet"][1] <= 1e-12, f"op {i}: Condorcet residual {row['condorcet'][1]!r}")

        agree = out["agreement"]
        require(agree.total == z["agreement_pairs"], f"op {i}: agreement counts sum to {agree.total}")
        self.count(i, "agreement_pairs", z["agreement_pairs"])


WORKLOADS = {w.name: w for w in (ClusterLarge, ClusterSmall, MonteCarlo)}
