"""JSON interchange for tensors, decompositions and reports.

Numbers are written with 17 significant decimal digits, which round-trips
binary64 values exactly (``-0`` reads back as -0.0); arrays are flattened
row-major (last index fastest). Every document is a dict written by
:func:`dumps_json`, each tensor in it one ``{"shape", "data"}`` dict, and
every file goes through one writer and one reader. Every float array and
list goes through one formatter that spells the whole list in a single
format call, byte for byte as ``format(v, ".17g")`` spells each value;
non-finite values in reports are written as null. Parse errors name the
offending field.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .odeco import OdecoRep, make_odeco, to_dense
from .spectral import Hosvd
from .tensor import _dims, as_tensor

__all__ = [
    "dumps_json",
    "dumps_tensor",
    "loads_tensor",
    "dump_tensor",
    "load_tensor",
    "dumps_odeco",
    "loads_odeco",
    "dump_odeco",
    "load_odeco",
    "dumps_hosvd",
    "loads_hosvd",
    "load_dense",
]


def _fmt_float(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        return "null"
    return format(value, ".17g")


def _fmt_floats(values) -> str:
    """``", ".join(_fmt_float(v) for v in values)`` in one format call.

    ``"%.17g" % v`` spells a float as ``format(v, ".17g")`` does. Only the
    spellings of inf and nan hold an "n", so any "n" sends the list down
    the per-value path, which writes them as null.
    """
    values = tuple(values)
    text = ", ".join(("%.17g",) * len(values)) % values
    if "n" in text:
        return ", ".join(_fmt_float(v) for v in values)
    return text


def dumps_json(payload: Any) -> str:
    """Serialize nested dicts/lists/arrays with 17-significant-digit floats."""
    if payload is None:
        return "null"
    if isinstance(payload, (bool, np.bool_)):
        return "true" if payload else "false"
    if isinstance(payload, (int, np.integer)):
        return str(int(payload))
    if isinstance(payload, (float, np.floating)):
        return _fmt_float(payload)
    if isinstance(payload, str):
        return json.dumps(payload)
    if isinstance(payload, np.ndarray):
        if payload.ndim == 1 and payload.dtype == np.float64:
            return "[" + _fmt_floats(payload.tolist()) + "]"
        return dumps_json(payload.tolist())
    if isinstance(payload, (list, tuple)):
        if set(map(type, payload)) <= {float}:
            return "[" + _fmt_floats(payload) + "]"
        return "[" + ", ".join(dumps_json(item) for item in payload) + "]"
    if isinstance(payload, dict):
        parts = (f"{json.dumps(str(k))}: {dumps_json(v)}" for k, v in payload.items())
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(payload).__name__}")


def _require_field(doc: dict, field: str, context: str):
    if not isinstance(doc, dict):
        raise ValueError(f"{context}: expected a JSON object")
    if field not in doc:
        raise ValueError(f"{field}: missing in {context}")
    return doc[field]


def _json_int(text: str):
    # the writer spells -0.0 as "-0", which json would read as the int 0
    return -0.0 if text == "-0" else int(text)


def _loads_json(text: str):
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ValueError(f"document: invalid JSON ({exc})") from exc


def _number_list(raw, field: str, context: str) -> np.ndarray:
    # a nonempty JSON list of numbers, booleans excluded, as float64
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{field}: expected a nonempty list in {context}")
    # one type scan accepts the usual list (JSON gives bool its own type);
    # any other list is walked so the error names its first bad entry
    if not set(map(type, raw)) <= {int, float}:
        for v in raw:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{field}: entries must be numbers, got {v!r}")
    try:
        return np.array(raw, dtype=float)
    except OverflowError:
        raise ValueError(f"{field}: entries must fit in binary64") from None


def _parse_shape(raw, context: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"shape: expected a nonempty list in {context}")
    return _dims(raw)


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")


def _read(path) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _tensor_doc(x) -> dict:
    x = as_tensor(x)
    return {"shape": x.shape, "data": x.ravel()}


def dumps_tensor(x) -> str:
    return dumps_json(_tensor_doc(x))


def loads_tensor(text: str) -> np.ndarray:
    return _tensor_from_doc(_loads_json(text), "tensor document")


def _tensor_from_doc(doc, context: str) -> np.ndarray:
    shape = _parse_shape(_require_field(doc, "shape", context), context)
    data = _number_list(_require_field(doc, "data", context), "data", context)
    return as_tensor(data, shape)


def dump_tensor(x, path) -> None:
    _write(path, dumps_tensor(x))


def load_tensor(path) -> np.ndarray:
    return loads_tensor(_read(path))


def dumps_odeco(rep: OdecoRep) -> str:
    factors = [_tensor_doc(f) for f in rep.factors]
    return dumps_json({"shape": rep.shape, "alphas": rep.alphas, "factors": factors})


def loads_odeco(text: str) -> OdecoRep:
    return _odeco_from_doc(_loads_json(text))


def _odeco_from_doc(doc) -> OdecoRep:
    context = "odeco document"
    shape = _parse_shape(_require_field(doc, "shape", context), context)
    alphas = _number_list(_require_field(doc, "alphas", context), "alphas", context)
    raw_factors = _require_field(doc, "factors", context)
    if not isinstance(raw_factors, list) or not raw_factors:
        raise ValueError("factors: expected a nonempty list")
    factors = [_tensor_from_doc(f, f"factors[{i}]") for i, f in enumerate(raw_factors)]
    return make_odeco(alphas, factors, shape)


def dump_odeco(rep: OdecoRep, path) -> None:
    _write(path, dumps_odeco(rep))


def load_odeco(path) -> OdecoRep:
    return loads_odeco(_read(path))


def dumps_hosvd(h: Hosvd) -> str:
    factors = [_tensor_doc(f) for f in h.factors]
    return dumps_json({"core": _tensor_doc(h.core), "factors": factors})


def loads_hosvd(text: str) -> Hosvd:
    doc = _loads_json(text)
    context = "hosvd document"
    core = _tensor_from_doc(_require_field(doc, "core", context), "core")
    raw_factors = _require_field(doc, "factors", context)
    if not isinstance(raw_factors, list) or len(raw_factors) != core.ndim:
        raise ValueError("factors: expected one matrix per mode")
    factors = tuple(
        _tensor_from_doc(f, f"factors[{i}]") for i, f in enumerate(raw_factors)
    )
    for i, f in enumerate(factors):
        if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] != core.shape[i]:
            raise ValueError(f"factors[{i}]: expected a {core.shape[i]}-square matrix")
    return Hosvd(core=core, factors=factors)


def load_dense(path) -> np.ndarray:
    """Load a tensor document; odeco documents are densified transparently."""
    doc = _loads_json(_read(path))
    if isinstance(doc, dict) and "alphas" in doc:
        return to_dense(_odeco_from_doc(doc))
    return _tensor_from_doc(doc, "tensor document")


def loads_matrices(text: str) -> list[np.ndarray]:
    """Parse a JSON list of matrix documents (tensor format with D = 2)."""
    doc = _loads_json(text)
    if not isinstance(doc, list) or not doc:
        raise ValueError("document: expected a nonempty list of matrices")
    matrices = []
    for i, entry in enumerate(doc):
        m = _tensor_from_doc(entry, f"matrices[{i}]")
        if m.ndim != 2:
            raise ValueError(f"matrices[{i}]: expected 2 modes, got {m.ndim}")
        matrices.append(m)
    return matrices
