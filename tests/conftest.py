"""Shared test helpers."""

import multiprocessing

import numpy as np
import pytest

from coupleclust import check_condition_h, sample_dirichlet


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, as a search whose
    worker pool is not joined would."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes left running: {left}"


def h_valid_margin_pair(p, q, rng, max_tries=1_000_000):
    """Rejection-sample flat Dirichlet margins until the additive coupling
    is guaranteed nonnegative (p*min(mu) + q*min(nu) >= 1)."""
    for _ in range(max_tries):
        mu = sample_dirichlet(p, rng)
        nu = sample_dirichlet(q, rng)
        if check_condition_h(mu, nu):
            return mu, nu
    raise RuntimeError(f"no H-valid pair found for p={p}, q={q}")


def brute_force_score(g, criterion, labels) -> float:
    """The O(n**2) oracle: the pair criterion summed over all ordered
    same-class pairs."""
    return sum(
        criterion.evaluator(g, i, j)
        for i in range(g.n)
        for j in range(g.n)
        if labels[i] == labels[j]
    )


def skewed_margin(p, rng, min_gap=0.02):
    """A margin noticeably away from uniform."""
    while True:
        mu = sample_dirichlet(p, rng)
        if np.max(np.abs(mu.probs - 1.0 / p)) >= min_gap:
            return mu
