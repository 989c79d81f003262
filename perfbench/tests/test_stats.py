import pytest

from perfbench.stats import tail


def test_tail_falls_back_to_maximum_below_eleven_ops():
    assert tail([3.0]) == (3.0, 100.0, 1)
    assert tail([5.0, 1.0, 9.0, 2.0]) == (9.0, 100.0, 4)
    assert tail([float(x) for x in range(10)]) == (9.0, 100.0, 10)


def test_tail_leaves_exactly_ten_ops_beyond():
    values = [float(x) for x in range(11)]
    assert tail(values) == (0.0, pytest.approx(100.0 / 11), 11)
    values = [float(x) for x in range(1000)]
    value, percentile, count = tail(values[::-1])
    assert value == 989.0
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(99.0)
    assert count == 1000


def test_tail_rejects_empty_run():
    with pytest.raises(ValueError):
        tail([])
