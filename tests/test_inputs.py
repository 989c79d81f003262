"""Input rules, each written once in ``coupleclust.errors`` and applied where
input enters: counts are integers at or above a minimum, seeds are
generators, None or integers at least 0, tolerances are finite and
nonnegative, class labels are integers, and records keep read-only copies
of the arrays they are given."""

import dataclasses
import inspect

import numpy as np
import numpy.testing as npt
import pytest

import coupleclust as cc

PI = cc.couple_indetermination(cc.validate_margin([0.5, 0.5]), cc.validate_margin([0.4, 0.6]))
REL = cc.relational_encode([0, 1, 0])

# Every public count parameter: the callable, keyword arguments of one valid
# call, and each count parameter with its minimum.
COUNTS = [
    (cc.uniform_margin, dict(p=3), {"p": 1}),
    (cc.sample_dirichlet, dict(p=3, rng=0), {"p": 1}),
    (cc.delta_closed_form, dict(p=3, q=4), {"p": 1, "q": 1}),
    (
        cc.delta_monte_carlo,
        dict(p=3, q=4, n_samples=10, rng=0, n_streams=2),
        {"p": 1, "q": 1, "n_samples": 1, "n_streams": 1},
    ),
    (cc.DeltaEstimate, dict(mean=0.1, std_error=0.01, n_samples=10), {"n_samples": 1}),
    (cc.SolverConfig, dict(max_iterations=5), {"max_iterations": 1}),
    (cc.LouvainConfig, dict(seed=0, restarts=2), {"seed": 0, "restarts": 1}),
    (cc.WeightedGraph.from_edges, dict(n=3, edges=[(0, 1, 1.0)]), {"n": 0}),
    (cc.gilbert, dict(n=5, eps=0.3, rng=0), {"n": 1}),
    (
        cc.gilbert_weighted,
        dict(n=5, eps=0.3, max_weight=2, rng=0),
        {"n": 1, "max_weight": 1},
    ),
    (cc.bias_bounds, dict(eps=0.3, n=5), {"n": 1}),
    (cc.bias_bin_edges, dict(eps=0.3, bins=4, which="plus"), {"bins": 1}),
    (cc.theoretical_joint_pmf, dict(n=5, eps=0.3), {"n": 1}),
    (cc.theoretical_bias_histograms, dict(n=5, eps=0.3, bins=4), {"n": 2, "bins": 1}),
    (
        cc.theoretical_bias_difference_distribution,
        dict(n=5, eps=0.3, bins=4),
        {"n": 2, "bins": 1},
    ),
    (
        cc.empirical_bias_samples,
        dict(n=5, eps=0.3, samples=10, rng=0, n_streams=2),
        {"n": 2, "samples": 1, "n_streams": 1},
    ),
    (
        cc.empirical_bias_histogram,
        dict(n=5, eps=0.3, samples=10, bins=4, rng=0, n_streams=2),
        {"n": 2, "samples": 1, "bins": 1, "n_streams": 1},
    ),
    # eps = 0 bins on its own grid
    (cc.empirical_bias_histogram, dict(n=5, eps=0.0, samples=10, bins=4, rng=0), {"bins": 1}),
    (
        cc.empirical_bias_difference_histogram,
        dict(n=5, eps=0.3, samples=10, bins=4, rng=0, n_streams=2),
        {"n": 2, "samples": 1, "bins": 1, "n_streams": 1},
    ),
    (cc.weighted_balance_residual, dict(x=REL, y=REL, p=2, q=3), {"p": 1, "q": 1}),
    (cc.sample_agreement_counts, dict(pi=PI, n_pairs=10, rng=0), {"n_pairs": 1}),
]
ROWS = [(f, kwargs, name, low) for f, kwargs, lows in COUNTS for name, low in lows.items()]
IDS = [
    f"{f.__qualname__}-{name}" + ("-eps0" if kwargs.get("eps") == 0.0 else "")
    for f, kwargs, name, _ in ROWS
]

# Parameter names that hold a count wherever they appear in the public API.
COUNT_NAMES = {
    "n", "p", "q", "bins", "samples", "n_samples", "n_pairs", "max_weight",
    "n_streams", "max_iterations", "restarts", "seed",
}


@pytest.mark.parametrize("func, kwargs, name, low", ROWS, ids=IDS)
def test_counts_are_integers_at_or_above_their_minimum(func, kwargs, name, low):
    func(**kwargs)
    func(**{**kwargs, name: np.int64(kwargs[name])})
    for bad in (2.5, float(kwargs[name]), "3", None, low - 1):
        with pytest.raises(cc.NonPositiveDimension, match=f"^{name} must be an integer"):
            func(**{**kwargs, name: bad})


def _public_callables():
    """Every public function and class, and every public method of a public
    class, with the names of its parameters (a dataclass's init fields)."""
    for name in cc.__all__:
        obj = getattr(cc, name)
        candidates = [obj]
        if inspect.isclass(obj):
            candidates += [
                getattr(obj, attr) for attr in dir(obj)
                if not attr.startswith("_") and callable(getattr(obj, attr))
            ]
        for c in candidates:
            if dataclasses.is_dataclass(c):
                yield c, {f.name for f in dataclasses.fields(c) if f.init}
                continue
            try:
                yield c, set(inspect.signature(c).parameters)
            except (TypeError, ValueError):  # builtins without a signature
                continue


def test_every_public_count_parameter_has_a_row():
    covered = {(f, name) for f, _, name, _ in ROWS}
    missing = sorted(
        f"{getattr(f, '__qualname__', f)}({name})"
        for f, params in _public_callables()
        for name in params & COUNT_NAMES
        if (f, name) not in covered
    )
    assert not missing, f"count parameters without a rejection row: {missing}"
    # the walk reaches classmethods and dataclass fields too
    walked = {f for f, _ in _public_callables()}
    assert cc.WeightedGraph.from_edges in walked and cc.LouvainConfig in walked


MATRIX = np.array([[0.4, 0.1], [0.2, 0.3]])
TOLERANCE_CHECKS = {
    "is_monge": lambda tol: cc.is_monge(MATRIX, tol),
    "is_anti_monge": lambda tol: cc.is_anti_monge(MATRIX, tol),
    "is_full_monge": lambda tol: cc.is_full_monge(MATRIX, tol),
    "is_full_monge-one-row": lambda tol: cc.is_full_monge(MATRIX[:1], tol),
    "is_full_log_monge": lambda tol: cc.is_full_log_monge(MATRIX, tol),
    "monge_report": lambda tol: cc.monge_report(MATRIX, tol=tol),
    "verify_monge_theorems": lambda tol: cc.verify_monge_theorems(
        cc.JointDistribution.from_cells(MATRIX), tol=tol
    ),
}


@pytest.mark.parametrize("check", TOLERANCE_CHECKS.values(), ids=TOLERANCE_CHECKS.keys())
def test_tolerances_are_finite_and_nonnegative(check):
    check(0)
    check(np.float32(1e-3))
    for bad in (float("nan"), float("inf"), -1, -1e-12, "1e-3", None):
        with pytest.raises(ValueError, match="tol"):
            check(bad)


# Every public eps parameter, from the count table's valid calls (less its
# eps = 0 row, a second call of empirical_bias_histogram).
EPS_ROWS = [(f, kwargs) for f, kwargs, _ in COUNTS if kwargs.get("eps")]


@pytest.mark.parametrize(
    "func, kwargs", EPS_ROWS, ids=[f.__qualname__ for f, _ in EPS_ROWS]
)
def test_eps_is_a_real_number_in_the_unit_interval(func, kwargs):
    func(**{**kwargs, "eps": np.float64(0.5)})
    for bad in ("0.3", None, float("nan"), float("inf"), -0.1, 1.5):
        with pytest.raises(ValueError, match="^eps must be a real number in"):
            func(**{**kwargs, "eps": bad})


# Every public sampler, from the count table's valid calls (less its eps = 0
# row, a second call of empirical_bias_histogram).
SEED_ROWS = [
    (f, kwargs) for f, kwargs, _ in COUNTS if "rng" in kwargs and kwargs.get("eps") != 0.0
]


@pytest.mark.parametrize(
    "func, kwargs", SEED_ROWS, ids=[f.__qualname__ for f, _ in SEED_ROWS]
)
def test_seeds_are_generators_or_integers_at_least_zero(func, kwargs):
    # None (fresh entropy) is valid here, unlike for a count
    for good in (None, np.int64(3), np.random.default_rng(3)):
        func(**{**kwargs, "rng": good})
    for bad in (-1, 2.5, "3"):
        with pytest.raises(cc.NonPositiveDimension, match="^rng must be an integer >= 0"):
            func(**{**kwargs, "rng": bad})


def test_every_public_seed_parameter_has_a_row():
    covered = {f for f, _ in SEED_ROWS}
    missing = sorted(
        getattr(f, "__qualname__", str(f))
        for f, params in _public_callables()
        if "rng" in params and f not in covered
    )
    assert not missing, f"rng parameters without a rejection row: {missing}"


@pytest.mark.parametrize("make", [cc.Partition, cc.Partition.from_labels])
def test_class_labels_are_integers(make):
    for labels in ([1.5, 2.7, 1.2], [0.0, 1.0, 0.0], np.array([0, 1], dtype=np.float32)):
        with pytest.raises(ValueError, match="integers"):
            make(labels)
    for labels in ([0, 1, 0], np.array([0, 1, 0], dtype=np.uint8)):
        assert make(labels).labels.tolist() == [0, 1, 0]


def _joint(cells):
    return cc.JointDistribution(cells, cc.Margin(cells.sum(axis=1)), cc.Margin(cells.sum(axis=0)))


RECORD_ARRAYS = {
    "Margin.probs": (cc.Margin, np.array([0.25, 0.75]), "probs"),
    "JointDistribution.cells": (_joint, np.array([[0.1, 0.2], [0.3, 0.4]]), "cells"),
    "Partition.labels": (cc.Partition, np.array([0, 1, 0]), "labels"),
    "BiasHistogram.bin_edges": (
        lambda a: cc.BiasHistogram(a, np.ones(2), "plus"), np.array([0.0, 0.5, 1.0]), "bin_edges"
    ),
    "BiasHistogram.counts": (
        lambda a: cc.BiasHistogram(np.arange(3.0), a, "plus"), np.array([2.0, 3.0]), "counts"
    ),
}


@pytest.mark.parametrize("make, given, field", RECORD_ARRAYS.values(), ids=RECORD_ARRAYS.keys())
def test_records_keep_read_only_copies(make, given, field):
    given = given.copy()
    view = given[:]
    record = make(given)
    kept = getattr(record, field)
    before = kept.copy()
    assert given.flags.writeable
    assert not kept.flags.writeable
    given[0] = 1
    view[-1] = 1
    npt.assert_array_equal(kept, before)
