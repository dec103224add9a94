"""The one JSON codec of the package's records, driven by dataclass fields,
and the one writer of its JSON documents and of its float tables, whose
fields ``g17_rows`` writes as ``"%.17g" % x`` writes them, a whole array at
once (see the notes above ``_K_MIN``).

A record is a dataclass; ``Record`` gives one its ``to_dict`` and
``from_dict``.  Its JSON form is a flat object with one key per field, and
each field's annotation picks one rule:

* ``int``, ``float``, ``bool``, ``str``: a value of the matching JSON type
  only.  A float field also takes a JSON integer inside the double range; a
  boolean is never taken as a number.
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

import collections
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
        try:
            return float(value) if rule is float else value
        except OverflowError:  # an integer past the double range
            pass
    raise DomainError(f"{cls.__name__}: {name!r} must be {rule.__name__}, got {value!r}")


# The float text of the package: every float of a table is written as
# ``"%.17g" % x``, which reads back as the same double, and ``g17_rows``
# writes those bytes for a whole array at once.  An element's 17
# significant digits are the integer N = round(|x| 10^(16-k)), with
# k = floor(log10 |x|).  The product y = |x| 10^(16-k) is taken as
# (|x| 2^-s) (hi + lo), where 2^-s is exact and hi + lo is 10^(16-k) 2^s to
# about 2^-106; the product of two doubles split in halves is exact
# (Dekker), so y < 10^17 is known to about 2^-48, far better than 2^-40.
# An element goes through Python's own ``%`` instead, and so has its bytes
# by definition, when it is zero, subnormal, inf or nan, when y lies within
# 2^-40 of a rounding tie, or when N falls outside [10^16, 10^17) (k one
# off, next to a power of ten).

#: the decimal exponents the tables cover: those of every normal double
_K_MIN, _K_MAX = -310, 310
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter


def _pow10_table():
    """Per k: 2^-s and 10^(16-k) 2^s as hi + lo, with hi split in halves;
    s ~ k log2(10) keeps every factor and product normal.  The powers come
    from 128-bit mantissas stepped by 10 from 10^0 in integer arithmetic,
    which truncation leaves within 2^-118; lo's rounding gives 2^-106.
    The tables are built with Python numbers: the first run of a numpy
    loop raises a process's resident memory (about 0.12 MB for several),
    and numpy builds would run loops that nothing else does."""
    up, down = [(1 << 127, -127)], [(1 << 127, -127)]
    for powers, count in ((up, 16 - _K_MIN), (down, _K_MAX - 16)):
        m, e = powers[0]
        for _ in range(count):
            m, e = (m * 10, e) if powers is up else ((m << 4) // 10, e - 4)
            cut = m.bit_length() - 128
            m, e = m >> cut, e + cut
            powers.append((m, e))
    # 10^a for a = 16 - k, k from _K_MIN up
    powers = up[::-1] + down[1:]
    s = [min(max((k * 1701) >> 9, -1023), 1023) for k in range(_K_MIN, _K_MAX + 1)]
    # hi: the top 53 bits, exactly; lo: the 75 below them, rounded
    hi = np.array([(m >> 75) * 2.0 ** (e + t + 75) for (m, e), t in zip(powers, s)])
    lo = np.array([(m & ((1 << 75) - 1)) * 2.0 ** (e + t) for (m, e), t in zip(powers, s)])
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    return np.array([2.0**-t for t in s]), hi, hi_h, hi - hi_h, lo


def _digit_tables():
    """The text of 0..9999 as four ASCII digits in one uint32 each, and per
    place j of a 4-digit chunk among N's last 16 digits, the count of N's
    significant digits when that chunk is the last nonzero one (0 for a
    zero chunk; 1 at place 0, which stands for N = d 10^16)."""
    ascii4 = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for place in range(4):
        ascii4[..., place] = np.frombuffer(b"0123456789", dtype=np.uint8).reshape(
            (1,) * place + (10,) + (1,) * (3 - place))
    sig = np.empty((4, 10, 10, 10, 10), dtype=np.uint8)
    for j in range(4):
        # 1 + 4j digits before the chunk, then its digits up to the last nonzero one
        sig[j] = 5 + 4 * j
        sig[j, ..., 0], sig[j, ..., 0, 0], sig[j, ..., 0, 0, 0] = 4 + 4 * j, 3 + 4 * j, 2 + 4 * j
        sig[j, 0, 0, 0, 0] = 0
    sig[0, 0, 0, 0, 0] = 1
    return ascii4.view(np.uint32).ravel(), sig.reshape(4, -1)


_DIGIT_BYTES = 24  # 17 digits and the point, in three words


def _layout_masks():
    """Per pattern ``point * 18 + shown - 1``: the masks of three words that
    put the point after ``point`` digits (18: no point) and keep ``shown``
    digits, with the point if a digit follows it.  Of the digits D and the
    digits one byte on, D', the text is (D & A) | P | (D' & B)."""
    low = [(1 << (8 * n)) - 1 for n in range(20)]
    a, p, b = [], [], []
    for point in range(19):
        for shown in range(1, 19):
            length = shown + (shown > point)
            a.append(low[min(point, length)])
            p.append(0x2E << (8 * point) if point < length else 0)
            b.append(low[length] & ~low[point + 1] if length > point + 1 else 0)
    return [np.frombuffer(b"".join(v.to_bytes(_DIGIT_BYTES, "little") for v in masks),
                          dtype=np.uint64).reshape(-1, 3) for masks in (a, p, b)]


def _words(texts) -> np.ndarray:
    """Each text as the uint64 of its bytes, little-endian, NUL padded."""
    return np.array([int.from_bytes(t.encode(), "little") for t in texts], dtype=np.uint64)


def _notation_tables():
    """Per k, as ``%g`` writes 17 digits (fixed form for k in -4..16): where
    the point goes (after 1 digit in scientific form, 18 for "0.000ddd",
    whose point the prefix holds), how many digits stay however many are
    zero, the prefix word for either sign (sign, "0." and zeros, right-
    aligned, so that it meets the digits), and the exponent word ("e+dd",
    "e-ddd") with its length in bits."""
    ks = range(_K_MIN, _K_MAX + 1)
    before = [max(k + 1, 0) if -4 <= k <= 16 else 1 for k in ks]
    exponent = ["" if -4 <= k <= 16 else "e%+03d" % k for k in ks]
    prefix = np.zeros(2 * len(ks), dtype=np.uint64)
    prefix[len(ks):] = ord("-") << 56
    for k in range(-4, 0):
        fill = "0." + "0" * (-k - 1)
        prefix[[k - _K_MIN, len(ks) + k - _K_MIN]] = _words([fill.rjust(8, "\0"),
                                                             ("-" + fill).rjust(8, "\0")])
    return (np.array([b or 18 for b in before]), np.array(before), prefix, _words(exponent),
            np.array([8 * len(t) for t in exponent], dtype=np.uint64))


_Tables = collections.namedtuple("_Tables", "inv hi hi_h hi_l lo chunks sig mask_a mask_p mask_b "
                                 "point before prefix exponent exponent_bits")


@functools.cache
def _tables() -> _Tables:
    """The tables of ``g17_rows``, built at its first call (about 1.5 ms):
    a process that writes no table never builds them, and built after
    import they raised the benchmark workers' peak RSS by 0.1-0.2 MB less."""
    return _Tables(*_pow10_table(), *_digit_tables(), *_layout_masks(), *_notation_tables())


#: bytes of a field's row: a prefix word, the digit words and one word for
#: the exponent and the end
FIELD_BYTES = 8 + _DIGIT_BYTES + 8


def g17_rows(values, ends) -> np.ndarray:
    """Each element of the float array ``values`` as the bytes of
    ``"%.17g" % x`` followed by its end, in a row of FIELD_BYTES NUL-padded
    uint8; the result has the shape of ``values`` and a last axis of rows.
    ``ends`` is a string of at most 3 characters, or one per element of the
    last axis.  ``text`` of the rows is the text.  The elements the notes
    above leave to Python's ``%`` are written by it, one at a time."""
    t = _tables()
    x = np.asarray(values, dtype=np.float64)
    shape = x.shape
    x = x.ravel()
    n = x.size
    ends = np.broadcast_to(_words([ends] if isinstance(ends, str) else ends), shape).ravel()
    f = np.abs(x)
    slow = ~((f >= 2.2250738585072014e-308) & (f <= 1.7976931348623157e308))
    f[slow] = 1.0
    # k, as the row of the tables
    k = np.floor(np.log10(f)).astype(np.intp) - _K_MIN
    g = f * t.inv.take(k)
    c = _SPLIT * g
    g_h = c - (c - g)
    g_l = g - g_h
    hi_h, hi_l = t.hi_h.take(k), t.hi_l.take(k)
    # y = yh + r; yh >= 2^53 is an integer
    yh = g * t.hi.take(k)
    r = (((g_h * hi_h - yh) + g_h * hi_l + g_l * hi_h) + g_l * hi_l) + g * t.lo.take(k)
    r_int = np.floor(r + 0.5)
    # floor(y) < 10^16 or N >= 10^17, compared in floats: yh - 10^m is exact
    # next to 10^m, and of the right sign far from it
    slow |= ((np.abs(r - r_int) > 0.5 - 2.0**-40) | ((yh - 1e16) + r < 0.0)
             | ((yh - 1e17) + r_int >= 0.0))
    N = yh.astype(np.int64) + r_int.astype(np.int64)
    N[slow] = 10**16
    # N's first digit, then its last 16 in four 4-digit chunks
    high = N // 10**8
    first = high // 10**8
    halves = np.empty((n, 2), dtype=np.int64)
    halves[:, 0] = high - first * 10**8
    halves[:, 1] = N - high * 10**8
    chunks = np.empty((n, 2, 2), dtype=np.intp)
    chunks[..., 0] = halves // 10**4
    chunks[..., 1] = halves - chunks[..., 0] * 10**4
    chunks = chunks.reshape(n, 4)
    sig = t.sig[3].take(chunks[:, 3])
    for j in (2, 1, 0):
        sig = np.where(sig, sig, t.sig[j].take(chunks[:, j]))
    digits = np.zeros((n, _DIGIT_BYTES), dtype=np.uint8)
    digits[:, 0] = first + 48
    digits[:, 1:17] = t.chunks.take(chunks).view(np.uint8).reshape(n, 16)
    D = digits.view(np.uint64)
    # parts that share no byte are joined by +, a numpy loop the package
    # runs anyway, where | would be a first (see _pow10_table)
    D1 = D << 8
    # the top byte of a word moves into the next; the last word's is NUL
    D1.ravel()[1:] += (D >> 56).ravel()[:-1]
    # the digits shown: every significant one and every one before the point
    pattern = t.point.take(k) * 18 + np.maximum(sig, t.before.take(k)) - 1
    out = np.empty((n, FIELD_BYTES // 8), dtype=np.uint64)
    out[:, 0] = t.prefix.take(np.signbit(x) * (_K_MAX - _K_MIN + 1) + k)
    out[:, 1:4] = ((D & t.mask_a.take(pattern, axis=0)) + t.mask_p.take(pattern, axis=0)
                   + (D1 & t.mask_b.take(pattern, axis=0)))
    out[:, 4] = t.exponent.take(k) + (ends << t.exponent_bits.take(k))
    rows = out.view(np.uint8)
    for i in np.flatnonzero(slow).tolist():
        field = ("%.17g" % x[i]).encode() + int(ends[i]).to_bytes(8, "little").rstrip(b"\0")
        rows[i] = 0
        rows[i, : len(field)] = np.frombuffer(field, dtype=np.uint8)
    return rows.reshape(*shape, FIELD_BYTES)


def text(rows) -> str:
    """The bytes of the uint8 array ``rows``, in order, without their NULs."""
    rows = rows.ravel()
    return rows[rows != 0].tobytes().decode("ascii")


#: fields written per block of a table: each temporary of ``g17_rows`` is
#: then a few dozen kB.  A 256 x 256 ``phase`` peaked at the same RSS with
#: blocks of 1024, 2048 and 4096 fields and 0.7 MB higher with 8192; below
#: 4096 the fixed cost of a block's numpy calls grows
BLOCK_FIELDS = 4096


def table_lines(values, newline: str = "\n"):
    """The text of the 2-D float array ``values``, a line per row of its
    fields as ``%.17g`` joined by commas and ended by ``newline``, in
    blocks of about ``BLOCK_FIELDS`` fields."""
    values = np.asarray(values, dtype=np.float64)
    ends = [","] * (values.shape[1] - 1) + [newline]
    rows = max(1, BLOCK_FIELDS // values.shape[1])
    for start in range(0, len(values), rows):
        yield text(g17_rows(values[start : start + rows], ends))


def read_json(path) -> object:
    """The JSON document in the file ``path``; a file that holds none, or
    one nested deeper than the decoder recurses, raises DomainError,
    "{path}: not JSON: ..."."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"{path}: not JSON: {exc}") from None


def write_json(path: str, doc: dict) -> None:
    """Write ``doc`` as every JSON document of the package is written: keys
    sorted, an indent of 2 and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
