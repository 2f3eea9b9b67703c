"""The one budget test of a power, against the power itself."""

import time

import pytest

from lhca.errors import bounded_power

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CAPS = [0, 1] + [(1 << j) + d for j in range(1, 70) for d in (-1, 0, 1)]


def exact(base, exp, cap):
    return base**exp if base**exp <= cap else None


@hypothesis.settings(max_examples=500, deadline=None, database=None)
@hypothesis.given(base=st.integers(0, 64), exp=st.integers(0, 200),
                  cap=st.sampled_from(CAPS))
def test_power_exceeds_is_the_exact_comparison(base, exp, cap):
    assert bounded_power(base, exp, cap) == exact(base, exp, cap)


@pytest.mark.parametrize("base,exp,cap", [
    (0, 0, 0), (1, 0, 0), (0, 5, 0), (1, 10**9, 1), (2, 20, (1 << 20) - 1),
    (2, 20, 1 << 20), (3, 12, 531440), (3, 12, 531441), (4, 3, 63)])
def test_power_exceeds_at_the_edges(base, exp, cap):
    power = bounded_power(base, exp, cap)
    assert power == exact(base, exp, cap)
    assert power is None or type(power) is int


def test_power_exceeds_builds_no_huge_power():
    start = time.perf_counter()
    assert bounded_power(3, 10**12, 1 << 24) is None
    assert bounded_power(65536, 10**15, (1 << (1 << 20)) - 1) is None
    assert bounded_power(1, 10**15, 1) == 1
    assert time.perf_counter() - start < 1
