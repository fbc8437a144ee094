"""The JSON decoder: missing fields, the power tail's max_index, and the decoder's memory."""

import json
import tracemalloc

import pytest

from llt_lab.lattice import LatticePmf, power_tail


@pytest.mark.parametrize("text, field", [('{"v0": 0, "D": 1}', '"pmf"'),
                                         ('{"pmf": [[0, 1.0]]}', '"v0"'),
                                         ('{"pmf": [[0, 1.0]], "v0": 0}', '"D"'),
                                         ('{"family": "gauss"}', "'gauss'"),
                                         ('{"family": "gauss", "alpha": 1}', "'gauss'")])
def test_a_missing_field_is_a_value_error_naming_it(text, field):
    with pytest.raises(ValueError, match=field):
        LatticePmf.from_json(text)


def test_an_explicit_spec_with_a_family_key_still_loads():
    p = LatticePmf.from_json('{"family": "explicit", "v0": 0, "D": 1, "pmf": [[0, 0.5], [1, 0.5]]}')
    assert (p.family, dict(p.weights)) == (None, {0: 0.5, 1: 0.5})


def test_a_max_index_truncated_power_tail_round_trips():
    p = power_tail(1.5, max_index=20000)
    assert json.loads(p.to_json())["max_index"] == 20000
    q = LatticePmf.from_json(p.to_json())
    assert q.family == p.family
    assert (q.offset, q.dense.tobytes()) == (p.offset, p.dense.tobytes())
    # below the floor of 8 atoms the kept index is 8, and that is what is written
    assert json.loads(power_tail(0.5, max_index=3).to_json())["max_index"] == 8


def test_a_max_index_that_does_not_bind_is_not_written():
    for p in (power_tail(1.5), power_tail(2.0, max_index=10**9), power_tail(1.5, tail_mass=1e-4)):
        assert "max_index" not in json.loads(p.to_json())
    assert power_tail(0.7, c=0.5).to_json() == json.dumps(
        {"family": "power_tail", "alpha": 0.7, "c": 0.5, "truncation_mass": 1e-10})


@pytest.mark.parametrize("value", ["true", "0", "-3", "2.5", '"20"', "[20]"])
def test_max_index_must_be_a_positive_json_integer(value):
    with pytest.raises(ValueError, match="max_index"):
        LatticePmf.from_json(f'{{"family": "power_tail", "alpha": 1.5, "max_index": {value}}}')


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_decoder_needs_little_more_memory_than_json_loads():
    p = power_tail(1.5, max_index=200_000)
    explicit = LatticePmf(p.v0, p.D, dict(p.weights))
    text = explicit.to_json()
    loads = _traced_peak(lambda: json.loads(text))
    decode = _traced_peak(lambda: LatticePmf.from_json(text))
    assert decode <= 1.35 * loads, (decode, loads)
    back = LatticePmf.from_json(text)
    assert (back.v0, back.D, back.offset, back.family) == (p.v0, p.D, p.offset, None)
    assert back.dense.tobytes() == explicit.dense.tobytes() == p.dense.tobytes()
