"""Exact values: one way to write a result down, compare it and digest it.

Every fast path in this package is accepted because it is *bit-identical*
to its reference twin, and every checkpoint resumes because its state
round-trips exactly.  This module owns that rule once:

- :func:`encode` writes a value as canonical-JSON-safe data.  It walks
  dataclass fields, lists/tuples, str-keyed dicts, frozensets (sorted) and
  ndarrays.  Floats are written as ``float.hex()``, so NaN, ±inf, signed
  zeros and denormals survive; whether a dataclass field is a float or an
  int is taken from its declared type.
- :func:`decode` inverts :func:`encode`, driven by the dataclass field
  types (``Optional``, ``List``, ``Tuple``, ``Dict``, ``FrozenSet``,
  nested dataclasses, ``np.ndarray``).
- :func:`identical` compares two values by the same walk: floats match
  only when both are NaN or their bits are equal (so ``-0.0 != 0.0``);
  ndarrays must agree in dtype, shape and bits, NaN matching NaN.
- :func:`digest` is :func:`stable_digest` of :func:`encode`, so
  ``identical(a, b)`` holds exactly when ``digest(a) == digest(b)``.

Values typed ``Any`` are written by their runtime type and come back from
:func:`decode` as the JSON data they were written as, so they round-trip
only when they hold no floats (RNG states, counters, strings).  Types are
not written down: ``1.5`` and ``np.float64(1.5)`` are identical, and so
is the string ``"0x1.8000000000000p+0"``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing
from typing import Any, Dict

import numpy as np

__all__ = [
    "canonical_json",
    "decode",
    "digest",
    "encode",
    "identical",
    "stable_digest",
]


def canonical_json(obj: Any) -> str:
    """Canonical JSON text of a JSON-safe object.

    Keys are sorted, separators are minimal and NaN/Infinity are rejected,
    so equal objects always serialise to equal bytes.  Python floats are
    rendered by ``repr`` (shortest round-trip form), which re-parses to
    the identical IEEE-754 value — canonical text is therefore bit-exact
    for float payloads too.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def stable_digest(obj: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json`.

    The only sanctioned way to derive persisted identifiers: Python's
    builtin ``hash()`` is salted per interpreter run and must never leak
    into them.
    """
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> Dict[str, Any]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints.get(f.name, Any) for f in dataclasses.fields(cls)}


def _strip_optional(hint: Any) -> Any:
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union and type(None) in args:
        rest = [a for a in args if a is not type(None)]
        return rest[0] if len(rest) == 1 else Any
    return hint


def _item_types(hint: Any, n: int) -> list:
    """Declared type of each of ``n`` items of a ``List``/``Tuple``/``FrozenSet``."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and args and args[-1] is not Ellipsis:
        return list(args) if len(args) == n else [Any] * n
    return [args[0] if args else Any] * n


def _canonical_bytes(array: np.ndarray) -> bytes:
    """Raw bytes of ``array`` with every NaN replaced by one quiet NaN."""
    if array.dtype.kind == "f":
        array = np.where(np.isnan(array), np.nan, array).astype(array.dtype)
    return np.ascontiguousarray(array).tobytes()


class _Array:
    """ndarray leaf of :func:`identical`'s walk: compared without hex-encoding."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Array):
            return False
        a, b = self.array, other.array
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and _canonical_bytes(a) == _canonical_bytes(b)
        )


def _walk(value: Any, hint: Any, array_leaf) -> Any:
    if value is None:
        return None
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        types = _field_types(type(value))
        return {
            name: _walk(getattr(value, name), field_type, array_leaf)
            for name, field_type in types.items()
        }
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "biuf":
            raise TypeError(f"cannot encode an ndarray of dtype {value.dtype}")
        return array_leaf(value)
    hint = _strip_optional(hint)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if hint is float or isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        types = _item_types(hint, len(value))
        return [_walk(v, t, array_leaf) for v, t in zip(value, types)]
    if isinstance(value, (set, frozenset)):
        (item_type,) = _item_types(hint, 1)
        items = [_walk(v, item_type, array_leaf) for v in value]
        return sorted(items, key=canonical_json)
    if isinstance(value, dict):
        args = typing.get_args(hint)
        value_type = args[1] if len(args) == 2 else Any
        if not all(isinstance(k, str) for k in value):
            raise TypeError("only str-keyed dicts can be encoded")
        return {k: _walk(v, value_type, array_leaf) for k, v in value.items()}
    raise TypeError(f"cannot encode a value of type {type(value).__name__}")


def _encode_array(array: np.ndarray) -> Dict[str, Any]:
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "hex": _canonical_bytes(array).hex(),
    }


def encode(obj: Any) -> Any:
    """Canonical-JSON-safe data that writes ``obj`` down exactly."""
    return _walk(obj, Any, _encode_array)


def decode(cls: Any, data: Any) -> Any:
    """Rebuild a value of declared type ``cls`` from :func:`encode` output."""
    if data is None:
        return None
    cls = _strip_optional(cls)
    if dataclasses.is_dataclass(cls):
        return cls(
            **{
                name: decode(field_type, data[name])
                for name, field_type in _field_types(cls).items()
            }
        )
    if cls is np.ndarray:
        flat = np.frombuffer(bytes.fromhex(data["hex"]), dtype=data["dtype"])
        return flat.reshape(data["shape"]).copy()
    if cls in (float, int, bool, str):
        return float.fromhex(data) if cls is float else cls(data)
    origin = typing.get_origin(cls)
    args = typing.get_args(cls)
    if origin in (list, tuple, set, frozenset):
        items = [decode(t, v) for t, v in zip(_item_types(cls, len(data)), data)]
        return origin(items)
    if origin is dict:
        return {k: decode(args[1], v) for k, v in data.items()}
    return data


def identical(a: Any, b: Any) -> bool:
    """Whether ``a`` and ``b`` hold exactly the same value.

    The same walk as :func:`encode`: floats match when both are NaN or
    their bits are equal (``-0.0 != 0.0``), ndarrays when dtype, shape and
    bits agree with NaN matching NaN, frozensets regardless of iteration
    order.  Holds exactly when ``digest(a) == digest(b)``.
    """
    return _walk(a, Any, _Array) == _walk(b, Any, _Array)


def digest(obj: Any) -> str:
    """SHA-256 digest of :func:`encode` — equal exactly when values are identical."""
    return stable_digest(encode(obj))
