import threading
import types
from concurrent.futures import ThreadPoolExecutor

from perfbench.tracing import Span, Tracer, covered, self_times


def spans(*rows):
    return [Span(i, name, start, end, parent, 0) for i, (name, start, end, parent) in enumerate(rows)]


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == 3.0


def test_self_time_subtracts_direct_children_only():
    got = self_times(spans(
        ("cli.main", 0.0, 10.0, None),
        ("graph.load_edge_list", 1.0, 4.0, 0),
        ("graph.from_edges", 2.0, 3.0, 1),
        ("louvain.louvain", 5.0, 9.0, 0),
    ))
    assert got == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_self_time_counts_parallel_children_once_and_clips_them():
    got = self_times(spans(
        ("mc.run_streams", 0.0, 10.0, None),
        ("worker", 1.0, 6.0, 0),
        ("worker", 2.0, 7.0, 0),
        ("late", 9.0, 12.0, 0),
    ))
    assert got[0] == 10.0 - 6.0 - 1.0


def test_wrapper_records_nested_spans_and_uninstalls():
    class Owner:
        @classmethod
        def build(cls, x):
            return x + 1

    module = types.ModuleType("fake")
    module.outer = lambda x: Owner.build(x) * 2
    tracer = Tracer()
    tracer.wrap(module, "outer", "a.outer")
    tracer.wrap(Owner, "build", "a.build")
    tracer.wrap(module, "gone", "a.gone")
    tracer.op = 7
    assert tracer.call("cli.main", module.outer, 1) == 4
    tracer.uninstall()
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("cli.main", None, 7), ("a.outer", 0, 7), ("a.build", 1, 7),
    ]
    assert tracer.missing == {"fake.gone"}
    assert module.outer(1) == 4 and len(tracer.spans) == 3
    assert isinstance(Owner.__dict__["build"], classmethod)


def test_worker_thread_spans_nest_under_the_open_main_span():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work(_):
        with tracer.span("worker"):
            barrier.wait(timeout=5)

    with tracer.span("parent"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(2)))
    workers = [s for s in tracer.spans if s.name == "worker"]
    assert len(workers) == 2 and all(s.parent == 0 for s in workers)
    own = self_times(tracer.spans)
    parent = tracer.spans[0]
    assert 0.0 <= own[0] < parent.duration
