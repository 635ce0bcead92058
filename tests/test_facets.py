"""Scalar validator vectors — parity corpus in the spirit of the
reference's inline self-test (checks/Check.php:955-1227): positive and
negative lexical vectors per datatype, asserted against the vectorized
kernels' scalar wrapper."""

import numpy as np
import pytest

from osf_data_validator_tool_ray.functions.facets import VALIDATORS, facet_violations, validate
from osf_data_validator_tool_ray.spec import Facets

# Arabic-Indic digits: Unicode decimal digits, which the numeric, date and
# time lexical spaces (ASCII 0-9 only) reject
AR_12 = "\u0661\u0662"
AR_YEAR = "\u0662\u0660\u0660\u0662"

VECTORS = {
    "dateTime": {
        True: ["2002-10-10T12:00:00-05:00", "2002-10-10T17:00:00Z",
               "2002-10-10T12:00:00", "2002-10-10T12:00:00.345",
               "-0400-01-01T00:00:00"],
        False: ["2002-10-10", "12:00:00", "2002-13-10T12:00:00",
                "2002-10-32T12:00:00", "2002-10-10T25:00:00",
                "2002-10-10T12:61:00", "not a date", "",
                AR_YEAR + "-10-10T12:00:00"],
    },
    "date": {
        True: ["2002-10-10", "2002-10-10Z", "-0400-01-01+05:00"],
        False: ["2002-10-10T12:00:00", "2002-13-10", AR_YEAR + "-10-10"],
    },
    "dateTimeStamp": {
        True: ["2002-10-10T12:00:00-05:00", "2002-10-10T17:00:00Z"],
        False: ["2002-10-10T12:00:00", "2002-10-10"],
    },
    "boolean": {
        True: ["true", "false", "1", "0"],
        False: ["TRUE", "True", "yes", "2", ""],
    },
    "base64Binary": {
        True: ["TWFu", "TWE=", "TQ==", "", "TWFu TWFu"],
        False: ["TWFu!", "=TWFu", "T(.)"],
    },
    "hexBinary": {
        True: ["0FB8", "0fb8", ""],
        False: ["0FB", "0G", "xx"],
    },
    "anyURI": {
        True: ["http://example.com/a?b=c#d", "urn:isbn:0451450523",
               "ftp://ftp.is.co.za/rfc/rfc1808.txt", "mailto:a@b.org"],
        False: ["http://exa mple.org", "not a uri", ""],
    },
    "byte": {True: ["-128", "127", "0", "+100"], False: ["128", "-129", "1.0", "a", ""]},
    "short": {True: ["-32768", "32767"], False: ["32768", "-32769", "3.5"]},
    "int": {True: ["-2147483648", "2147483647"], False: ["2147483648", "abc", AR_12]},
    "long": {True: ["-9223372036854775808", "9223372036854775807"],
             False: ["9223372036854775808", "1e4"]},
    "integer": {True: ["-1", "0", "123456789012345678901234567890"],
                False: ["1.5", "", "a", AR_12, "-" + AR_12 * 10]},
    "nonNegativeInteger": {True: ["0", "12"], False: ["-1"]},
    "nonPositiveInteger": {True: ["0", "-12"], False: ["1"]},
    "negativeInteger": {True: ["-1"], False: ["0", "1"]},
    "positiveInteger": {True: ["1"], False: ["0", "-1"]},
    "unsignedByte": {True: ["0", "255"], False: ["256", "-1"]},
    "unsignedShort": {True: ["65535"], False: ["65536", "-1"]},
    "unsignedInt": {True: ["4294967295"], False: ["4294967296", "-1"]},
    "unsignedLong": {True: ["18446744073709551615"], False: ["18446744073709551616", "-1"]},
    "decimal": {True: ["3.14", "-.5", "+12", "210."],
                False: ["1e10", "NaN", "", "1,5", AR_12, AR_12 + "." + AR_12]},
    "double": {True: ["1e10", "-1E-10", "NaN", "INF", "-INF", "3.14"],
               False: ["1e", "inf", "", AR_12, "1e" + AR_12]},
    "float": {True: ["1e10", "NaN", "INF"], False: ["1d10", ""]},
    "language": {True: ["en", "en-US", "fr-CA", "x-klingon"], False: ["123", "en_US", "toolonglang1", ""]},
    "Name": {True: ["name", "_name", ":name", "na-me.1"], False: ["1name", "-name", "", "na me"]},
    "NCName": {True: ["name", "_name", "na-me.1"], False: [":name", "1name", "na:me", ""]},
    "NMTOKEN": {True: ["name", "1name", ":a", "-b"], False: ["", "a b"]},
    "token": {True: ["a b c", "abc", ""], False: [" a", "a ", "a  b", "a\tb", "a\nb"]},
    "normalizedString": {True: ["a  b", " a ", ""], False: ["a\tb", "a\nb", "a\rb"]},
    "XMLLiteral": {True: ["<a>x</a>", "plain text", ""], False: ["<a>x", "<a></b>"]},
    "PlainLiteral": {True: ["hello@en", "hello@", "a@en-US"], False: ["hello", "x@123"]},
}


@pytest.mark.parametrize(
    "datatype,value,expected",
    [(dt, v, exp) for dt, cases in VECTORS.items() for exp, vals in cases.items() for v in vals],
)
def test_validator_vectors(datatype, value, expected):
    assert validate(datatype, value) is expected, (datatype, value)


def test_validators_vectorized_match_scalar():
    for dt, cases in VECTORS.items():
        vals = cases[True] + cases[False] + [None]
        arr = np.array(vals, dtype=object)
        got = VALIDATORS[dt](arr)
        want = [True] * len(cases[True]) + [False] * len(cases[False]) + [False]
        assert got.tolist() == want, dt


def test_null_is_invalid_for_all():
    for dt in VECTORS:
        assert validate(dt, None) is False


def test_facet_bounds_and_lengths():
    f = Facets(dtype="int", min_inclusive=10, max_inclusive=20, not_null=True)
    v = facet_violations(np.array([5, 10, 20, 25, None], dtype=object), f)
    assert v["bounds"].tolist() == [True, False, False, True, False]
    assert v["not_null"].tolist() == [False, False, False, False, True]

    f2 = Facets(dtype="string", min_length=2, max_length=4, not_empty=True)
    v2 = facet_violations(np.array(["a", "ab", "abcd", "abcde", "", None], dtype=object), f2)
    assert v2["length"].tolist() == [True, False, False, True, True, False]
    assert v2["not_empty"].tolist() == [False, False, False, False, True, False]

    f3 = Facets(dtype="string", pattern=r"clip:[0-9]{4}:[0-9]{8}")
    v3 = facet_violations(np.array(["clip:0001:00000001", "CLIP_9", None], dtype=object), f3)
    assert v3["pattern"].tolist() == [False, True, False]


def test_facet_conjunctive_not_early_return():
    # divergence from the reference's early-return facet evaluator
    # (checks/Check.php:849-911): pattern AND bounds both evaluated
    f = Facets(dtype="int", pattern=r"[0-9]+", min_inclusive=10)
    v = facet_violations(np.array(["5"], dtype=object), f)
    assert v["pattern"].tolist() == [False]
    assert v["bounds"].tolist() == [True]
