"""The CLI's JSON writer against json.dumps(indent=2), leaf by leaf."""

import json

import numpy as np
import pytest

from lhca.cli import _json

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=250, deadline=None, database=None)

INTS = st.integers() | st.integers(-2**80, 2**80) | st.sampled_from(
    [0, -1, 2**63, 2**64, -2**64 - 1])
TEXT = st.text() | st.text(alphabet='"\\/\n\t\x00\x1f\x7fé€😀ab ')
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
LEAVES = INTS | st.booleans() | st.none() | FLOATS | TEXT
# rows of one width, so the one-join path is taken; a bool in a row must
# still print true or false
EQUAL_ROWS = st.integers(1, 4).flatmap(lambda w: st.lists(
    st.lists(INTS | st.booleans(), min_size=w, max_size=w), max_size=6))
RAGGED_ROWS = st.lists(st.lists(INTS, max_size=4), max_size=6)
PAYLOADS = st.recursive(
    LEAVES | EQUAL_ROWS | RAGGED_ROWS | st.lists(INTS),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.tuples(inner, inner)
                   | st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=40)


def dumps(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


@SETTINGS
@hypothesis.given(PAYLOADS)
def test_the_writer_is_json_dumps_indent_2(payload):
    assert _json(payload) == dumps(payload)


@pytest.mark.parametrize("payload", [{(1, 2): 3}, {1, 2}, [object()],
                                     {"a": b"bytes"}, [np.arange(3)]])
def test_what_json_refuses_is_refused(payload):
    with pytest.raises(TypeError):
        json.dumps(payload)
    with pytest.raises(TypeError):
        _json(payload)


@pytest.mark.parametrize("key", [1, None, True, 2.5])
def test_a_key_that_is_not_a_string_is_refused(key):
    # json.dumps converts these; no payload has one, so the writer refuses
    # them rather than carry a second key path
    with pytest.raises(TypeError):
        _json({"a": [{key: 1}]})
