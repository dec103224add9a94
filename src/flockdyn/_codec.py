"""The one JSON codec of the package's records, driven by dataclass fields,
and the one writer of its JSON documents and of its float tables.

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
of the wrong type, raises DomainError naming the class and the key.  A field
may declare its domain in its annotation (``Positive``, ``Annotated[int,
at_least(1)]``), which every construction of the record, decoding included,
checks.  The rules of a class are resolved once and cached.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import typing
from typing import Annotated, Callable

import numpy as np

from .errors import DomainError


@dataclasses.dataclass(frozen=True)
class Domain:
    """The values a field allows: ``test`` decides, ``text`` says which."""

    text: str
    test: Callable[[object], bool]


FINITE = Domain("finite", math.isfinite)
POSITIVE = Domain("positive and finite", lambda v: 0.0 < v < math.inf)
NON_NEGATIVE = Domain("non-negative and finite", lambda v: 0.0 <= v < math.inf)
Finite = Annotated[float, FINITE]
Positive = Annotated[float, POSITIVE]


def at_least(low: int) -> Domain:
    return Domain(f"at least {low}", lambda v: v >= low)


def one_of(*values) -> Domain:
    return Domain(" or ".join(map(repr, values)), lambda v: v in values)


def check(cls: type, name: str, value, domain: Domain = None) -> None:
    """Raise DomainError, "{Class}: {field!r} must be {text}, got {value!r}",
    unless ``value`` lies in ``domain``, by default the one that the field
    ``name`` of ``cls`` declares; the error carries the field, the domain
    and the value."""
    domain = domain or domains(cls)[name]
    if not domain.test(value):
        raise DomainError(f"{cls.__name__}: {name!r} must be {domain.text}, got {value!r}",
                          (cls, name), domain, value)


class Record:
    """Base of the dataclasses read from and written to JSON."""

    def __post_init__(self):
        cls = type(self)
        for name, domain in domains(cls).items():
            check(cls, name, getattr(self, name), domain)

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
    """(name, rule, has default, domain or None) per field; a rule is a
    record type, the tag table of a Union, ``np.ndarray`` or a scalar type,
    and a domain the one the field's annotation declares."""
    hints = typing.get_type_hints(cls, include_extras=True)
    out = []
    for f in dataclasses.fields(cls):
        rule, domain = hints[f.name], None
        if typing.get_origin(rule) is Annotated:
            rule, domain = typing.get_args(rule)
        if typing.get_origin(rule) is typing.Union:
            rule = tag_table(rule)
        out.append((f.name, rule, f.default is not dataclasses.MISSING, domain))
    return tuple(out)


@functools.cache
def domains(cls: type) -> dict:
    """Field name -> domain, in field order, of the fields that declare one."""
    return {name: domain for name, _, _, domain in _fields(cls) if domain is not None}


def encode(obj) -> dict:
    out = {}
    for name, rule, _, _ in _fields(type(obj)):
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
    for name, rule, has_default, _ in _fields(cls):
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


#: rows of a table formatted by one ``%``: small blocks bound the text held
#: at once, and of 256 to 4096 rows, 512 gave the benchmark's profile_pipeline
#: its lowest peak RSS, through the allocator (the README lists the sizes)
_TABLE_BLOCK_ROWS = 512


def table_lines(values, newline: str = "\n"):
    """The text of the 2-D float array ``values``, a line per row of its
    fields as ``%.17g`` (which reads back as the same double) joined by
    commas and ended by ``newline``, in blocks of ``_TABLE_BLOCK_ROWS``
    rows, each filled by one ``%``."""
    values = np.asarray(values, dtype=np.float64)
    row = ",".join(["%.17g"] * values.shape[1]) + newline
    for start in range(0, len(values), _TABLE_BLOCK_ROWS):
        block = values[start : start + _TABLE_BLOCK_ROWS]
        yield row * len(block) % tuple(block.ravel().tolist())


def write_json(path: str, doc: dict) -> None:
    """Write ``doc`` as every JSON document of the package is written: keys
    sorted, an indent of 2 and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
