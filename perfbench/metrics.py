"""Metric tables and the per-layer figures computed from a traced run.

``END_TO_END`` and ``PER_LAYER`` list every metric the benchmark prints,
with its unit and the direction that is better; ``BENCHMARK.json`` declares
the same names. Every workload prints every metric. A per-layer metric of a
layer that a workload never calls reads 0 on that workload.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench.stats import median
from perfbench.tracing import Span, self_times

END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

LAYERS = ("cli", "graph", "louvain", "coupling", "solvers", "monge", "relational", "mc")

PER_LAYER = {
    **{f"{layer}.self_ms": ("ms", "lower") for layer in LAYERS},
    "graph.load_edge_list_ms": ("ms", "lower"),
    "graph.from_edges_ms": ("ms", "lower"),
    "graph.gilbert_ms": ("ms", "lower"),
    "graph.gilbert_edges_per_s": ("1/s", "higher"),
    "graph.bias_ms.s1": ("ms", "lower"),
    "graph.bias_ms.s2": ("ms", "lower"),
    "graph.bias_samples_per_s": ("1/s", "higher"),
    "graph.bias_dropped": ("count", "lower"),
    "graph.theory_ms": ("ms", "lower"),
    "mc.stream_speedup": ("ratio", "higher"),
    "louvain.louvain_ms": ("ms", "lower"),
    "louvain.trace_len": ("count", "lower"),
    "louvain.classes": ("count", "higher"),
    "louvain.score_singletons_ms": ("ms", "lower"),
    "louvain.score_final_ms": ("ms", "lower"),
    "louvain.exhaustive_ms": ("ms", "lower"),
    "coupling.delta_mc_ms": ("ms", "lower"),
    "coupling.delta_samples_per_s": ("1/s", "higher"),
    "coupling.couple_us": ("us", "lower"),
    "solvers.ipf_ms": ("ms", "lower"),
    "solvers.ipf_iters": ("count", "lower"),
    "solvers.dykstra_ms": ("ms", "lower"),
    "solvers.dykstra_iters": ("count", "lower"),
    "solvers.dykstra_us_per_iter": ("us", "lower"),
    "monge.verify_ms": ("ms", "lower"),
    "relational.condorcet_us": ("us", "lower"),
    "relational.agreement_ms": ("ms", "lower"),
    "relational.agreement_pairs_per_s": ("1/s", "higher"),
    "trace.overhead": ("ratio", "higher"),
    "modularity": ("score", "higher"),
    "indet_score_per_2m": ("score", "higher"),
    "score_ratio_min": ("ratio", "higher"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(
    spans: list[Span],
    counts: dict[int, dict[str, float]],
    window: list[int],
    quality: dict[str, list[float]],
    overhead: float,
) -> dict[str, float]:
    """Per-layer figures from the spans and counts of a traced run.

    Times are medians: per call for a named call, per op for a layer's self
    time. Rates divide work counted over all traced ops by the time of the
    spans that did it. Exact counts (iterations, trace length, classes,
    dropped samples) are averaged over the ``window`` ops only, so that they
    repeat exactly for a given seed.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    ops = sorted({s.op for s in spans if s.op is not None})

    def call_ms(name: str, self_time: bool = False) -> float:
        return 1e3 * median([own[s.id] if self_time else s.duration for s in by_name[name]])

    def op_ms(name: str) -> float:
        per_op: dict[int, float] = defaultdict(float)
        for s in by_name[name]:
            per_op[s.op] += s.duration
        return 1e3 * median(list(per_op.values()))

    def total_s(*names: str) -> float:
        return sum(s.duration for name in names for s in by_name[name])

    def counted(key: str, op_ids) -> float:
        return sum(counts.get(i, {}).get(key, 0.0) for i in op_ids)

    def per_call(key: str, calls: str) -> float:
        return _ratio(counted(key, window), counted(calls, window))

    layer_self: dict[str, dict[int, float]] = {layer: dict.fromkeys(ops, 0.0) for layer in LAYERS}
    for s in spans:
        layer = s.name.split(".")[0]
        if s.op is not None and layer in layer_self:
            layer_self[layer][s.op] += own[s.id]

    bias_s1, bias_s2 = call_ms("graph.bias.s1"), call_ms("graph.bias.s2")
    bias_names = ("graph.bias.s1", "graph.bias.s2", "graph.bias.small")
    out = {f"{layer}.self_ms": 1e3 * median(list(v.values())) for layer, v in layer_self.items()}
    out.update({
        "graph.load_edge_list_ms": call_ms("graph.load_edge_list", self_time=True),
        "graph.from_edges_ms": call_ms("graph.from_edges"),
        "graph.gilbert_ms": call_ms("graph.gilbert"),
        "graph.gilbert_edges_per_s": _ratio(counted("gilbert_edges", ops), total_s("graph.gilbert")),
        "graph.bias_ms.s1": bias_s1,
        "graph.bias_ms.s2": bias_s2,
        "graph.bias_samples_per_s": _ratio(counted("bias_samples", ops), total_s(*bias_names)),
        "graph.bias_dropped": _ratio(counted("bias_dropped", window), len(window)),
        "graph.theory_ms": op_ms("graph.theory"),
        "mc.stream_speedup": _ratio(bias_s1, bias_s2),
        "louvain.louvain_ms": call_ms("louvain.louvain"),
        "louvain.trace_len": per_call("trace_len", "louvain_calls"),
        "louvain.classes": per_call("classes", "louvain_calls"),
        "louvain.score_singletons_ms": call_ms("louvain.score_singletons"),
        "louvain.score_final_ms": call_ms("louvain.score_final"),
        "louvain.exhaustive_ms": call_ms("louvain.exhaustive"),
        "coupling.delta_mc_ms": op_ms("coupling.delta_mc"),
        "coupling.delta_samples_per_s": _ratio(counted("delta_samples", ops), total_s("coupling.delta_mc")),
        "coupling.couple_us": 1e3 * call_ms("coupling.couple"),
        "solvers.ipf_ms": call_ms("solvers.ipf"),
        "solvers.ipf_iters": per_call("ipf_iters", "ipf_calls"),
        "solvers.dykstra_ms": call_ms("solvers.dykstra"),
        "solvers.dykstra_iters": per_call("dykstra_iters", "dykstra_calls"),
        "solvers.dykstra_us_per_iter": 1e6 * _ratio(total_s("solvers.dykstra"), counted("dykstra_iters", ops)),
        "monge.verify_ms": call_ms("monge.verify"),
        "relational.condorcet_us": 1e3 * call_ms("relational.condorcet"),
        "relational.agreement_ms": call_ms("relational.agreement"),
        "relational.agreement_pairs_per_s": _ratio(
            counted("agreement_pairs", ops), total_s("relational.agreement")
        ),
        "trace.overhead": overhead,
    })
    out.update(quality_metrics(quality))
    return out


def quality_metrics(quality: dict[str, list[float]]) -> dict[str, float]:
    """Mean modularity and indetermination score per 2M of the returned
    partitions, and the worst greedy/exhaustive score ratio.

    The quality figures are deterministic for a given seed and op count;
    they are reported with the traced run's metrics because they exist on
    the clustering workloads only and carry no regression bound."""
    def mean(key: str) -> float:
        values = quality.get(key, [])
        return sum(values) / len(values) if values else 0.0

    ratios = quality.get("score_ratio", [])
    return {
        "modularity": mean("modularity"),
        "indet_score_per_2m": mean("indet_score_per_2m"),
        "score_ratio_min": min(ratios) if ratios else 0.0,
    }
