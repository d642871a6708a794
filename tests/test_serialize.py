import json

import numpy as np
import pytest

from tensorspectra import hosvd, random_odeco
from tensorspectra.serialize import (
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
