"""The one JSON codec behind every report and config.

A dataclass that inherits :class:`JsonRecord` is written as an object of
its init fields in declaration order: tuples become lists, numpy scalars
Python numbers, and dict keys strings (floats as ``f"{k:.2f}"``, the level
tables).  It is read back by each field's annotation, so
``dict[float, bool]`` turns ``{"0.05": true}`` into ``{0.05: True}``.  An
``int`` or ``float`` field takes only a JSON number, and an ``int`` only
an integral one: 30.0 reads as 30, while 30.9, a bool or a string
raises ValueError naming the class and the field, rather than being
truncated or parsed.  A missing key takes the field's default
(TypeError naming the field if it has none) and unknown keys are
ignored.  Field metadata :data:`WRITE_IF_SET` omits a None value;
:data:`NEVER_WRITE` skips the field both ways.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing

import numpy as np

WRITE_IF_SET = {"json": "if_set"}
NEVER_WRITE = {"json": "never"}
_SCALARS = (bool, int, float, str)


@functools.cache
def _fields(cls) -> tuple:
    """(name, annotation, written only if set) of each field the codec handles."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.metadata == WRITE_IF_SET)
        for f in dataclasses.fields(cls)
        if f.init and f.metadata != NEVER_WRITE
    )


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
    if tp in (int, float) and (isinstance(value, bool) or not isinstance(value, (int, float))
                               or (tp is int and isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{where} must be {'an integer' if tp is int else 'a number'}, got {value!r}")
    if tp in _SCALARS:
        return tp(value)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # an optional field, spelled X | None
        return None if value is None else _decode(args[0], value, where)
    if origin is tuple:
        return tuple(_decode(args[0], v, where) for v in value)
    if origin is dict:
        return {args[0](k): _decode(args[1], v, where) for k, v in value.items()}
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
