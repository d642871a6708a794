import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorspectra import hosvd, random_odeco
from tensorspectra.serialize import (
    _fmt_floats,
    dump_odeco,
    dump_tensor,
    dumps_hosvd,
    dumps_json,
    dumps_odeco,
    dumps_tensor,
    load_dense,
    load_odeco,
    load_tensor,
    loads_hosvd,
    loads_matrices,
    loads_odeco,
    loads_tensor,
)


def test_tensor_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ndim = int(rng.integers(2, 5))
        dims = tuple(int(n) for n in rng.integers(1, 5, size=ndim))
        x = rng.standard_normal(dims)
        back = loads_tensor(dumps_tensor(x))
        assert back.shape == x.shape
        assert back.tobytes() == x.tobytes()


def test_seventeen_digit_floats():
    text = dumps_tensor(np.array([[0.1, 1.0 / 3.0]]))
    assert "0.10000000000000001" in text
    assert "0.33333333333333331" in text


def test_file_round_trip(tmp_path):
    x = np.random.default_rng(1).standard_normal((3, 2, 2))
    path = tmp_path / "tensor.json"
    dump_tensor(x, path)
    assert load_tensor(path).tobytes() == x.tobytes()


def test_tensor_errors_name_fields():
    with pytest.raises(ValueError, match="shape"):
        loads_tensor('{"data": [1.0, 2.0]}')
    with pytest.raises(ValueError, match="data"):
        loads_tensor('{"shape": [2, 2], "data": [1.0, 2.0, 3.0]}')
    with pytest.raises(ValueError, match="shape"):
        loads_tensor('{"shape": [2, 0], "data": []}')
    with pytest.raises(ValueError, match="data"):
        loads_tensor('{"shape": [1, 2], "data": [1.0, "x"]}')
    with pytest.raises(ValueError, match="JSON"):
        loads_tensor("{not json")
    with pytest.raises(ValueError, match="data"):
        loads_tensor('{"shape": [1, 2], "data": [1.0, 1%s]}' % ("0" * 400))


# too deep for the parser, and past the interpreter's integer digit limit
MALFORMED = {
    "deep": "[" * 200_000 + "]" * 200_000,
    "long-int": '{"shape": [1, 1], "data": [1%s]}' % ("0" * 4999),
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_documents_get_the_document_error(text):
    with pytest.raises(ValueError) as caught:
        loads_tensor(text)
    assert str(caught.value).startswith("document: invalid JSON")


@pytest.mark.parametrize(
    "alphas", ['"a"', "true", "1" + "0" * 400], ids=["string", "bool", "huge-int"]
)
def test_odeco_alphas_errors_name_the_field(alphas):
    factor = '{"shape": [2, 1], "data": [1.0, 0.0]}'
    text = f'{{"shape": [2, 2], "alphas": [{alphas}], "factors": [{factor}, {factor}]}}'
    with pytest.raises(ValueError, match="alphas"):
        loads_odeco(text)


def test_odeco_round_trip(tmp_path):
    rep = random_odeco((3, 4, 3), 2, 2)
    back = loads_odeco(dumps_odeco(rep))
    assert back.shape == rep.shape
    assert back.alphas.tobytes() == rep.alphas.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(back.factors, rep.factors))
    path = tmp_path / "rep.json"
    dump_odeco(rep, path)
    assert load_odeco(path).alphas.tobytes() == rep.alphas.tobytes()


def test_odeco_validation_propagates():
    bad = {
        "shape": [2, 2],
        "alphas": [1.0, 1.0],
        "factors": [
            {"shape": [2, 2], "data": [1.0, 1.0, 1.0, 1.0]},
            {"shape": [2, 2], "data": [1.0, 0.0, 0.0, 1.0]},
        ],
    }
    with pytest.raises(ValueError, match="orthonormal"):
        loads_odeco(json.dumps(bad))


def test_hosvd_round_trip():
    x = np.random.default_rng(3).standard_normal((2, 3, 4))
    h = hosvd(x)
    back = loads_hosvd(dumps_hosvd(h))
    assert back.core.tobytes() == h.core.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(back.factors, h.factors))
    with pytest.raises(ValueError, match="factors"):
        loads_hosvd('{"core": {"shape": [2, 2], "data": [1, 0, 0, 1]}, "factors": []}')


def test_load_dense_densifies_odeco(tmp_path, monkeypatch):
    from tensorspectra import serialize, to_dense

    rep = random_odeco((3, 3, 3), 2, 4)
    path = tmp_path / "rep.json"
    dump_odeco(rep, path)
    decoded = []
    original = serialize._loads_json

    def counted(text):
        decoded.append(text)
        return original(text)

    monkeypatch.setattr(serialize, "_loads_json", counted)
    assert np.allclose(load_dense(path), to_dense(rep), atol=1e-15)
    assert len(decoded) == 1


def test_non_finite_and_negative_zero_spellings():
    # dumps_tensor takes finite entries only, so the null spelling is pinned
    # through dumps_json, which shares the number formatter
    assert dumps_tensor(np.array([[-0.0, 0.0]])) == '{"shape": [1, 2], "data": [-0, 0]}'
    assert dumps_json([np.nan, np.inf, -np.inf, -0.0]) == "[null, null, null, -0]"
    with pytest.raises(ValueError, match="finite"):
        dumps_tensor(np.array([[np.nan, 1.0]]))


def test_loads_matrices():
    text = '[{"shape": [2, 2], "data": [1, 0, 0, 1]}]'
    (m,) = loads_matrices(text)
    assert np.array_equal(m, np.eye(2))
    with pytest.raises(ValueError, match="matrices"):
        loads_matrices('[{"shape": [2, 2, 2], "data": [0,0,0,0,0,0,0,0]}]')


def test_dumps_json_report_shapes():
    payload = {
        "ok": True,
        "values": np.array([1.0, 0.5]),
        "count": 3,
        "label": "x",
        "missing": None,
        "nan": float("nan"),
    }
    text = dumps_json(payload)
    parsed = json.loads(text)
    assert parsed["ok"] is True
    assert parsed["values"] == [1.0, 0.5]
    assert parsed["nan"] is None


# the binary64 values whose spelling is easiest to get wrong: the smallest
# subnormal and normal, the largest value, signed zeros, integral values
SPECIAL_FLOATS = [
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    2.225073858507201e-308,
    sys.float_info.max,
    -sys.float_info.max,
    0.0,
    -0.0,
    1.0,
    -3.0,
    2.0**53,
    1e16,
    1e22,
    123456789.0,
]

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_floats, max_size=40))
@example(SPECIAL_FLOATS)
@example([])
def test_one_format_call_spells_each_float_as_format_does(values):
    assert _fmt_floats(values) == ", ".join(format(v, ".17g") for v in values)
    assert _fmt_floats(np.array(values)) == _fmt_floats(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=40))
@example(SPECIAL_FLOATS)
def test_tensor_round_trip_is_bit_exact_at_every_finite_value(values):
    x = np.array(values).reshape(-1, 1)
    back = loads_tensor(dumps_tensor(x))
    assert back.shape == x.shape
    assert back.tobytes() == x.tobytes()


def _spelled(v):
    return format(v, ".17g") if math.isfinite(v) else "null"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(), max_size=40))
@example([0.5, math.nan, -0.0, math.inf, -math.inf, 1.0])
def test_dumps_json_spells_float_lists_value_by_value(values):
    assert dumps_json(values) == "[" + ", ".join(_spelled(v) for v in values) + "]"
    assert dumps_json(tuple(values)) == dumps_json(values)


def test_dumps_json_keeps_the_spelling_of_mixed_lists():
    payload = [1, True, None, math.nan, math.inf, -math.inf, -0.0, 0.5, False, np.int64(3), 2**70]
    assert dumps_json(payload) == (
        "[1, true, null, null, null, null, -0, 0.5, false, 3, 1180591620717411303424]"
    )
    assert dumps_json([[1.0, -0.0], [math.nan, 2]]) == "[[1, -0], [null, 2]]"
    assert dumps_json(np.array([0.1, -0.0, np.inf])) == "[0.10000000000000001, -0, null]"


_BAD_ENTRIES = [
    ("true", "True"),
    ('"a"', "'a'"),
    ("null", "None"),
    ("[1.0]", "[1.0]"),
]


def _odeco_text(alphas="1.0", factor_data="1.0, 0.0"):
    factor = f'{{"shape": [2, 1], "data": [{factor_data}]}}'
    return f'{{"shape": [2, 2], "alphas": [{alphas}], "factors": [{factor}, {factor}]}}'


@pytest.mark.parametrize("entry, shown", _BAD_ENTRIES, ids=["bool", "str", "none", "list"])
def test_number_lists_name_their_first_bad_entry(entry, shown):
    # a later bad entry of another kind must not be the one reported
    data = f'1.0, {entry}, 2.0, "later"'
    with pytest.raises(ValueError) as caught:
        loads_tensor(f'{{"shape": [2, 2], "data": [{data}]}}')
    assert str(caught.value) == f"data: entries must be numbers, got {shown}"
    with pytest.raises(ValueError) as caught:
        loads_odeco(_odeco_text(alphas=data))
    assert str(caught.value) == f"alphas: entries must be numbers, got {shown}"
    with pytest.raises(ValueError) as caught:
        loads_odeco(_odeco_text(factor_data=f"1.0, {entry}"))
    assert str(caught.value) == f"data: entries must be numbers, got {shown}"


def test_number_lists_reject_integers_beyond_binary64():
    huge = "1" + "0" * 400
    with pytest.raises(ValueError) as caught:
        loads_tensor(f'{{"shape": [1, 2], "data": [1.0, {huge}]}}')
    assert str(caught.value) == "data: entries must fit in binary64"
    with pytest.raises(ValueError) as caught:
        loads_odeco(_odeco_text(alphas=f"1.0, {huge}"))
    assert str(caught.value) == "alphas: entries must fit in binary64"
    with pytest.raises(ValueError) as caught:
        loads_odeco(_odeco_text(factor_data=f"1.0, {huge}"))
    assert str(caught.value) == "data: entries must fit in binary64"
