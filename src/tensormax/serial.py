"""The one JSON codec behind every report and config.

A dataclass that inherits :class:`JsonRecord` is written as an object of
its fields in declaration order: tuples become lists, numpy scalars
Python numbers, and dict keys strings (floats as ``f"{k:.2f}"``, the level
tables).  It is read back by each field's annotation, so
``dict[float, bool]`` turns ``{"0.05": true}`` into ``{0.05: True}``.  A
scalar field takes only its own JSON type: a ``str`` a JSON string, a
``bool`` true or false, and an ``int`` or ``float`` a JSON number, an
``int`` only an integral one.  So 30.0 reads as 30, while 30.9, a bool
for a number, a string for a number or a bool, or a number for a string
raises ValueError naming the class and the field, rather than being
truncated, parsed or converted.  So does a tuple field given no JSON
list, a dict field or nested record given no JSON object, or a dict key
that does not read as its type.  A missing key takes the field's default
(TypeError naming the field if it has none) and unknown keys are
ignored.  Field metadata :data:`WRITE_IF_SET` omits a None value.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing

import numpy as np

WRITE_IF_SET = {"json": "if_set"}
# the JSON scalar types, and what a field of each type takes
_SCALARS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


@functools.cache
def _fields(cls) -> tuple:
    """(name, annotation, written only if set) of each field."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata == WRITE_IF_SET) for f in dataclasses.fields(cls))


def _encode(value):
    if value is None or type(value) in _SCALARS:
        return value
    if isinstance(value, JsonRecord):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {(f"{k:.2f}" if isinstance(k, float) else str(k)): _encode(v)
                for k, v in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    return value


def _decode(tp, value, where: str):
    """``value`` read as annotation ``tp``; ``where`` names the field in errors."""
    if tp in _SCALARS:
        if tp in (bool, str):
            ok = isinstance(value, tp)
        else:
            ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and (tp is float or not isinstance(value, float) or value.is_integer()))
        if not ok:
            raise ValueError(f"{where} must be {_SCALARS[tp]}, got {value!r}")
        return tp(value)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # an optional field, spelled X | None
        return None if value is None else _decode(args[0], value, where)
    shape = list if origin is tuple else dict  # a tuple is a JSON list, a dict or a nested record an object
    if not isinstance(value, shape):
        raise ValueError(f"{where} must be a JSON {'list' if shape is list else 'object'}, got {value!r}")
    if origin is tuple:
        return tuple(_decode(args[0], v, where) for v in value)
    if origin is dict:
        try:
            keys = [args[0](k) for k in value]
        except ValueError:
            raise ValueError(f"{where} keys must read as {_SCALARS[args[0]]}, got {list(value)}") from None
        return {k: _decode(args[1], v, where) for k, v in zip(keys, value.values())}
    return tp.from_json(value)  # a nested JsonRecord


class JsonRecord:
    """Mixin that gives a dataclass ``to_json`` and ``from_json``."""

    def to_json(self) -> dict:
        out = {}
        for name, _, if_set in _fields(type(self)):
            value = getattr(self, name)
            if value is not None or not if_set:
                out[name] = _encode(value)
        return out

    @classmethod
    def from_json(cls, obj: dict):
        return cls(**{name: _decode(tp, obj[name], f"{cls.__name__}.{name}")
                      for name, tp, _ in _fields(cls) if name in obj})
