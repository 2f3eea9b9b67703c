"""The one budget test of a power, against the power itself."""

import time

import pytest

from lhca.errors import power_exceeds

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CAPS = [0, 1] + [(1 << j) + d for j in range(1, 70) for d in (-1, 0, 1)]


@hypothesis.settings(max_examples=500, deadline=None, database=None)
@hypothesis.given(base=st.integers(0, 64), exp=st.integers(0, 200),
                  cap=st.sampled_from(CAPS))
def test_power_exceeds_is_the_exact_comparison(base, exp, cap):
    assert power_exceeds(base, exp, cap) == (base**exp > cap)


@pytest.mark.parametrize("base,exp,cap", [
    (0, 0, 0), (1, 0, 0), (0, 5, 0), (1, 10**9, 1), (2, 20, (1 << 20) - 1),
    (2, 20, 1 << 20), (3, 12, 531440), (3, 12, 531441), (4, 3, 63)])
def test_power_exceeds_at_the_edges(base, exp, cap):
    assert power_exceeds(base, exp, cap) == (base**exp > cap)


def test_power_exceeds_builds_no_huge_power():
    start = time.perf_counter()
    assert power_exceeds(3, 10**12, 1 << 24)
    assert power_exceeds(65536, 10**15, (1 << (1 << 20)) - 1)
    assert not power_exceeds(1, 10**15, 1)
    assert time.perf_counter() - start < 1
