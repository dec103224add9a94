"""The one JSON codec of the package's records, driven by dataclass fields.

A record is a dataclass; ``Record`` gives one its ``to_dict`` and
``from_dict``.  Its JSON form is a flat object with one key per field, and
each field's annotation picks one rule:

* ``int``, ``float``, ``bool``, ``str``: a value of the matching JSON type
  only.  A float field also takes a JSON integer; a boolean is never taken
  as a number.
* a record type: the record's fields are inlined into the enclosing object
  (``FlockProfile`` and ``QuasiMorse`` carry ``ModelParams`` so).
* a ``Union`` of records: a nested object tagged by ``kind``, the record's
  class name in snake case (``QuasiMorse`` -> ``quasi_morse``).
* ``np.ndarray``: a list of floats; no record with one is read back.

A missing key takes the field's default.  A key with no default, or a value
of the wrong type, raises DomainError naming the class and the key.  Ranges
and finiteness are each record's own ``__post_init__`` checks, which every
decoded record passes.  The rules of a class are resolved once and cached.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import typing

import numpy as np

from .errors import DomainError


class Record:
    """Base of the dataclasses read from and written to JSON."""

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, d: dict):
        return decode(cls, d)


@functools.cache
def tag_table(union) -> dict:
    """``kind`` tag -> record class, for a Union of records."""
    snake = lambda name: re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()
    return {snake(cls.__name__): cls for cls in typing.get_args(union)}


@functools.cache
def _fields(cls: type) -> tuple:
    """(name, rule, has default) per field; a rule is a record type, the
    tag table of a Union, ``np.ndarray`` or a scalar type."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        rule = hints[f.name]
        if typing.get_origin(rule) is typing.Union:
            rule = tag_table(rule)
        out.append((f.name, rule, f.default is not dataclasses.MISSING))
    return tuple(out)


def encode(obj) -> dict:
    out = {}
    for name, rule, _ in _fields(type(obj)):
        value = getattr(obj, name)
        if dataclasses.is_dataclass(rule):
            out.update(encode(value))
        elif isinstance(rule, dict):
            out[name] = encode_tagged(rule, value)
        elif rule is np.ndarray:
            out[name] = [float(v) for v in value]
        else:
            out[name] = value
    return out


def encode_tagged(tags: dict, obj) -> dict:
    """``obj`` as an object tagged by its ``kind``, one of ``tags``."""
    for kind, cls in tags.items():
        if type(obj) is cls:
            return {"kind": kind, **encode(obj)}
    raise TypeError(f"not one of {sorted(tags)}: {obj!r}")


def decode(cls: type, d: dict):
    if not isinstance(d, dict):
        raise DomainError(f"{cls.__name__} must be a JSON object, got {d!r}")
    kwargs = {}
    for name, rule, has_default in _fields(cls):
        if dataclasses.is_dataclass(rule):
            kwargs[name] = decode(rule, d)
        elif name in d:
            kwargs[name] = _value(cls, name, rule, d[name])
        elif not has_default:
            raise DomainError(f"{cls.__name__}: no {name!r} entry")
    return cls(**kwargs)


def decode_tagged(tags: dict, value, where: str):
    """The record a ``kind``-tagged object encodes; ``where`` names the
    object in messages."""
    kind = value.get("kind") if isinstance(value, dict) else None
    if not isinstance(kind, str) or kind not in tags:
        raise DomainError(
            f"{where} must be an object whose 'kind' is one of {sorted(tags)}, "
            f"got {value!r}"
        )
    return decode(tags[kind], value)


def _value(cls: type, name: str, rule, value):
    if isinstance(rule, dict):
        return decode_tagged(rule, value, f"{cls.__name__}: {name!r}")
    # bool is a subclass of int, so it is told apart explicitly
    if isinstance(value, (int, float) if rule is float else rule) and (
        isinstance(value, bool) == (rule is bool)
    ):
        return float(value) if rule is float else value
    raise DomainError(f"{cls.__name__}: {name!r} must be {rule.__name__}, got {value!r}")
