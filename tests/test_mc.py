"""The one worker cap and the one stream rule of ``coupleclust._mc``, which
every parallel path of the package follows, and the guard that keeps the
worker count out of the environment."""

import ast
import importlib
import os
import threading
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import coupleclust as cc
from coupleclust import _mc

graph_module = importlib.import_module("coupleclust.graph")


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.parametrize("value", ["1", "8", "x"])
def test_thread_cap_is_the_usable_cpu_count(monkeypatch, value):
    # the variable that once set the pool size is ignored
    monkeypatch.setenv("COUPLECLUST_THREADS", value)
    assert _mc.thread_cap() == usable_cpus()


def test_one_stream_is_the_master_and_more_are_spawned():
    master = np.random.default_rng(5)
    assert _mc._substreams(master, 1) == [master]
    spawned = _mc._substreams(np.random.default_rng(5), 3)
    expected = np.random.default_rng(5).spawn(3)
    assert [g.random() for g in spawned] == [g.random() for g in expected]


def _arrays(result):
    """The arrays a sampler returns: its three sample arrays, or the bin
    edges and counts of each histogram."""
    if isinstance(result, cc.BiasHistogram):
        result = (result,)
    if isinstance(result[0], cc.BiasHistogram):
        return [a for h in result for a in (h.bin_edges, h.counts)]
    return list(result)


SAMPLERS = {
    "empirical_bias_samples": lambda k: cc.empirical_bias_samples(
        20, 0.3, 1_000, rng=7, n_streams=k
    ),
    "empirical_bias_histogram": lambda k: cc.empirical_bias_histogram(
        20, 0.3, 1_000, bins=16, rng=7, n_streams=k
    ),
    "empirical_bias_difference_histogram": lambda k: cc.empirical_bias_difference_histogram(
        20, 0.3, 1_000, bins=16, rng=7, n_streams=k
    ),
}


@pytest.mark.parametrize("n_streams", [2, 3, 5])
@pytest.mark.parametrize("sample", SAMPLERS.values(), ids=SAMPLERS.keys())
def test_thread_count_never_changes_samples(monkeypatch, sample, n_streams):
    threads = []
    stream = graph_module._bias_stream

    def recorded(*args):
        threads.append(threading.get_ident())
        return stream(*args)

    monkeypatch.setattr(graph_module, "_bias_stream", recorded)
    runs = []
    for cap in (1, 2):
        threads.clear()
        monkeypatch.setattr(_mc, "thread_cap", lambda: cap)
        runs.append(_arrays(sample(n_streams)))
        # one stream per call, on the pool exactly when the cap allows two
        assert len(threads) == n_streams
        assert (threading.get_ident() in threads) == (cap == 1)
    sequential, pooled = runs
    assert len(sequential) == len(pooled)
    for a, b in zip(sequential, pooled):
        npt.assert_array_equal(a, b)


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    package = Path(cc.__file__).parent
    reads = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            via_os = (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ENVIRONMENT_READS
            )
            imported = isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ENVIRONMENT_READS for alias in node.names
            )
            if via_os or imported:
                reads.append(f"{path.relative_to(package)}:{node.lineno}")
    assert not reads, f"environment read at {reads}"
