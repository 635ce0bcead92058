"""Vectorized lexical validators + facet evaluation.

Parity target: the reference's scalar validator battery
(/root/reference/.../checks/Check.php:87-554 — dateTime, base64Binary,
anyURI, boolean, the signed/unsigned integer family, decimal/double/float
incl. NaN/INF, hexBinary, language/Name/NCName/NMTOKEN,
string/token/normalizedString, XMLLiteral/PlainLiteral) and its XSP
custom-datatype facet evaluator (checks/Check.php:559-953).

These are NOT ports of the PHP code: each validator is written from the
public XSD 1.1 datatype definitions (https://www.w3.org/TR/xmlschema11-2/).
A lexical check is one Python loop over the column's values calling a
compiled regex's own ``match`` / ``fullmatch`` / ``search`` on each str
(the calls pandas' ``.str`` methods make, without building a Series);
integer lexicals with bounds are compared as exact Python ints.  Nulls,
numeric bounds of numeric columns and byte lengths are one numpy or
Arrow compute pass over the whole column.

All validators:  sequence of Python values (str|None|any)  ->  np.ndarray[bool]
(a non-str is invalid at this layer; nullability is a separate facet).
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import Callable, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..spec import Facets

# ---------------------------------------------------------------------------
# regexes (XSD 1.1 lexical spaces).  The numeric, date and time patterns
# are ASCII: their lexical spaces allow only the digits 0-9, and without
# re.ASCII ``\d`` matches every Unicode decimal digit ("١٢").  The XML
# Name patterns stay Unicode, as XML Names allow.
# ---------------------------------------------------------------------------

_TZ = r"(Z|[+-](0\d|1[0-4]):[0-5]\d)"
_DATE = r"-?\d{4,}-(0[1-9]|1[0-2])-(0[1-9]|[12]\d|3[01])"
_TIME = r"([01]\d|2[0-3]):[0-5]\d:[0-5]\d(\.\d+)?|24:00:00(\.0+)?"
RE_DATETIME = re.compile(rf"{_DATE}T({_TIME}){_TZ}?$", re.ASCII)
RE_DATETIMESTAMP = re.compile(rf"{_DATE}T({_TIME}){_TZ}$", re.ASCII)
RE_DATE_ONLY = re.compile(rf"{_DATE}{_TZ}?$", re.ASCII)
RE_TIME_ONLY = re.compile(rf"({_TIME}){_TZ}?$", re.ASCII)

RE_BASE64 = re.compile(r"(?:[A-Za-z0-9+/]\s?)*(?:[A-Za-z0-9+/](\s?=\s?=|\s?=)?)?$")
RE_HEX = re.compile(r"(?:[0-9a-fA-F]{2})*$")
RE_BOOLEAN = re.compile(r"(true|false|1|0)$")
RE_INTEGER = re.compile(r"[+-]?\d+$", re.ASCII)
RE_DECIMAL = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)$", re.ASCII)
RE_FLOATING = re.compile(r"([+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?|[+-]?INF|NaN)$", re.ASCII)
# RFC 3986-shaped URI: scheme ':' hier-part [? query] [# fragment]
RE_ANYURI = re.compile(
    r"[A-Za-z][A-Za-z0-9+.\-]*:"          # scheme
    r"[^\s<>\"{}|\\^`]*$"                  # no chars excluded by RFC 3986 §2
)
RE_LANGUAGE = re.compile(r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*$")
# XML Name productions (pragmatic: Unicode letters via \w minus leading digit)
_NAME_START = r"[^\W\d]|[_:]"
_NCNAME_START = r"[^\W\d]|_"
RE_NAME = re.compile(rf"({_NAME_START})[\w.\-:]*$", re.UNICODE)
RE_NCNAME = re.compile(rf"({_NCNAME_START})[\w.\-]*$", re.UNICODE)
RE_NMTOKEN = re.compile(r"[\w.\-:]+$", re.UNICODE)
RE_HAS_WS_CHARS = re.compile(r"[\n\r\t]")
RE_TOKEN_BAD = re.compile(r"(^\s)|(\s$)|(\s\s)|[\n\r\t]")
RE_PLAINLITERAL = re.compile(r"[\s\S]*@([a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*)?$")

_INT_BOUNDS = {
    "byte": (-128, 127),
    "short": (-32768, 32767),
    "int": (-2147483648, 2147483647),
    "long": (-9223372036854775808, 9223372036854775807),
    "integer": (None, None),
    "nonNegativeInteger": (0, None),
    "positiveInteger": (1, None),
    "nonPositiveInteger": (None, 0),
    "negativeInteger": (None, -1),
    "unsignedByte": (0, 255),
    "unsignedShort": (0, 65535),
    "unsignedInt": (0, 4294967295),
    "unsignedLong": (0, 18446744073709551615),
}


def _str_test(test: Callable[[str], object], values) -> np.ndarray:
    """True where the value is a str that passes ``test`` (a compiled
    regex's ``match`` / ``search``: a match object is truthy)."""
    return np.array([isinstance(v, str) and bool(test(v)) for v in values], dtype=bool)


def _as_float(v) -> float:
    """One value as a number the way ``pandas.to_numeric(errors="coerce")``
    reads it: ``float(v)``, NaN where that fails.  Text must be ASCII
    without "_", and a finite number beyond the float range is NaN.
    Bytes are never a number, as in a binary Arrow column (``float``
    would read b"10" as 10)."""
    if isinstance(v, (bytes, bytearray)) or (
            isinstance(v, str) and (not v.isascii() or "_" in v)):
        return np.nan
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError):
        return np.nan
    return np.nan if isinstance(v, str) and np.isinf(x) and "inf" not in v.lower() else x


def _int_family(values, lo, hi) -> np.ndarray:
    """Integer lexicals within [lo, hi], compared as exact Python ints."""
    def ok(v: str) -> bool:
        if RE_INTEGER.match(v) is None:
            return False
        n = int(v)
        return (lo is None or n >= lo) and (hi is None or n <= hi)
    return _str_test(ok, values)


def _valid_string(values) -> np.ndarray:
    """xsd:string — any well-formed character data.  The reference
    validates by round-tripping through an XML parser
    (checks/Check.php:469-538); here any str is valid (Arrow strings are
    guaranteed valid UTF-8)."""
    return np.array([isinstance(v, str) for v in values], dtype=bool)


def _valid_xmlliteral(values) -> np.ndarray:
    """rdf:XMLLiteral — value must parse as an XML fragment (only used
    for explicitly XML-typed columns, never in the hot default path)."""
    def ok(v: str) -> bool:
        try:
            ET.fromstring(f"<r>{v}</r>")
            return True
        except ET.ParseError:
            return False
    return _str_test(ok, values)


VALIDATORS: dict[str, Callable[..., np.ndarray]] = {
    "dateTime": lambda v: _str_test(RE_DATETIME.match, v),
    "dateTimeStamp": lambda v: _str_test(RE_DATETIMESTAMP.match, v),
    "date": lambda v: _str_test(RE_DATE_ONLY.match, v),
    "time": lambda v: _str_test(RE_TIME_ONLY.match, v),
    "base64Binary": lambda v: _str_test(RE_BASE64.match, v),
    "hexBinary": lambda v: _str_test(RE_HEX.match, v),
    "anyURI": lambda v: _str_test(RE_ANYURI.match, v),
    "boolean": lambda v: _str_test(RE_BOOLEAN.match, v),
    "decimal": lambda v: _str_test(RE_DECIMAL.match, v),
    "double": lambda v: _str_test(RE_FLOATING.match, v),
    "float": lambda v: _str_test(RE_FLOATING.match, v),
    "language": lambda v: _str_test(RE_LANGUAGE.match, v),
    "Name": lambda v: _str_test(RE_NAME.match, v),
    "NCName": lambda v: _str_test(RE_NCNAME.match, v),
    "NMTOKEN": lambda v: _str_test(RE_NMTOKEN.match, v),
    "string": _valid_string,
    "normalizedString": lambda v: _valid_string(v) & ~_str_test(RE_HAS_WS_CHARS.search, v),
    "token": lambda v: _valid_string(v) & ~_str_test(RE_TOKEN_BAD.search, v),
    "XMLLiteral": _valid_xmlliteral,
    "PlainLiteral": lambda v: _str_test(RE_PLAINLITERAL.match, v),
}
for _name, (_lo, _hi) in _INT_BOUNDS.items():
    VALIDATORS[_name] = (lambda lo, hi: lambda v: _int_family(v, lo, hi))(_lo, _hi)


def validate(datatype: str, value: Optional[str]) -> bool:
    """Scalar convenience wrapper (test/parity surface, mirrors the
    reference's per-value validateXXX calls)."""
    if datatype not in VALIDATORS:
        raise KeyError(f"unknown datatype {datatype!r}")
    if value is None:
        return False
    return bool(VALIDATORS[datatype](np.array([value], dtype=object))[0])


# ---------------------------------------------------------------------------
# Facet evaluation over a batch column
# ---------------------------------------------------------------------------

def column_values(col) -> np.ndarray:
    """An Arrow column as numpy values (str/None objects for text).  A
    dictionary column is decoded first: numpy conversion of a chunked
    dictionary array fills its null slots with values."""
    if pa.types.is_dictionary(col.type):
        col = col.cast(col.type.value_type)
    return col.to_numpy(zero_copy_only=False)


def facet_violations(values, facets: Facets) -> dict[str, np.ndarray]:
    """Evaluate all declared facets conjunctively over one column.

    ``values`` is an Arrow (Chunked)Array or a sequence of Python values
    (an object ndarray may mix types).  Returns {facet_name: boolean
    violation mask}.  Null handling: nulls only violate ``not_null``;
    every other facet treats null as pass (absence is the cardinality
    checks' concern, mirroring how the reference only validates values
    that exist).  Text facets only ever judge str values, byte facets
    bytes values.
    """
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        isnull = pc.is_null(values, nan_is_null=True).to_numpy(zero_copy_only=False)
        is_bytes = pa.types.is_binary(values.type) or pa.types.is_large_binary(values.type)
        # payloads are measured in Arrow, never copied out
        py = None if is_bytes else column_values(values)
    else:
        py = np.asarray(values, dtype=object)
        # missing: None, or a float NaN (a float column's null in numpy)
        isnull = np.array([v is None or (isinstance(v, float) and v != v) for v in py],
                          dtype=bool)
        first = next((v for v, null in zip(py, isnull) if not null), None)
        is_bytes = isinstance(first, (bytes, bytearray))
    notnull = ~isnull
    # str values only live in object arrays; numeric columns hold none
    texts = py if py is not None and py.dtype == object else None
    none = np.zeros(len(isnull), dtype=bool)
    out: dict[str, np.ndarray] = {}

    if facets.not_null:
        out["not_null"] = isnull

    if facets.not_empty:
        if is_bytes:
            out["not_empty"] = (_lengths(values, py, is_bytes) == 0) & notnull
        else:
            out["not_empty"] = none if texts is None else _str_test(lambda v: v == "", texts)

    if facets.pattern is not None:
        fullmatch = _compiled(facets.pattern).fullmatch
        out["pattern"] = (none if texts is None else
                          _str_test(lambda v: fullmatch(v) is None, texts))

    numeric_needed = any(
        x is not None
        for x in (facets.min_inclusive, facets.max_inclusive,
                  facets.min_exclusive, facets.max_exclusive)
    )
    if numeric_needed:
        if py is None:
            nums = np.full(len(isnull), np.nan)
        elif py.dtype.kind in "biuf":
            nums = py
        else:
            nums = np.array([_as_float(v) for v in py], dtype=np.float64)
        bad = none.copy()
        if facets.min_inclusive is not None:
            bad |= nums < facets.min_inclusive
        if facets.max_inclusive is not None:
            bad |= nums > facets.max_inclusive
        if facets.min_exclusive is not None:
            bad |= nums <= facets.min_exclusive
        if facets.max_exclusive is not None:
            bad |= nums >= facets.max_exclusive
        out["bounds"] = bad & notnull

    length_needed = any(x is not None for x in (facets.min_length, facets.max_length, facets.length))
    if length_needed:
        lens = _lengths(values, py, is_bytes)
        bad = none.copy()
        if facets.min_length is not None:
            bad |= lens < facets.min_length
        if facets.max_length is not None:
            bad |= lens > facets.max_length
        if facets.length is not None:
            bad |= lens != facets.length
        out["length"] = bad & notnull

    # lexical datatype validation only applies to str values; numeric
    # columns arrive as Arrow ints/floats whose type conformance is the
    # schema check's concern
    if (facets.dtype in VALIDATORS and facets.dtype != "string" and not is_bytes
            and texts is not None and notnull.any()):
        mask = ~VALIDATORS[facets.dtype](texts) & _valid_string(texts)
        if mask.any():
            out["datatype"] = mask
    return out


def _lengths(values, py, is_bytes: bool) -> np.ndarray:
    """Each value's length; NaN where the value is not of the column's
    kind (bytes-like in a binary column, else str)."""
    if py is None:
        return pc.binary_length(values).to_numpy(zero_copy_only=False)
    kind = (bytes, bytearray) if is_bytes else str
    return np.array([len(v) if isinstance(v, kind) else np.nan for v in py],
                    dtype=np.float64)


_RX_CACHE: dict[str, re.Pattern] = {}


def _compiled(pattern: str) -> re.Pattern:
    rx = _RX_CACHE.get(pattern)
    if rx is None:
        rx = _RX_CACHE[pattern] = re.compile(pattern)
    return rx
