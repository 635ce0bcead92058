"""Violation-row contract + check registry.

The reference accumulates per-check error arrays with stable IDs
(`$this->errors[] = {id, type, ...}` — checks/Check.php:17; e.g.
`PROPERTIES-DEFINED-100` at checks/CheckPropertiesDefined.php:65-69) and
serializes them into XML/JSON reports.  Here every check *emits Arrow
violation rows* with the same stable-ID discipline; severities mirror the
reference's error (-10x) / warning (-5x) split.

Stable check-ID map (reference analog -> engine ID):
  CheckPropertiesDefined        -> SCHEMA-COLUMN-100 / -101
  CheckClassesDefined           -> ENUM-DOMAIN-100
  CheckObjectPropertiesRange    -> ENUM-DOMAIN-100 (hierarchy closure path)
  CheckObjectDatatypePropertiesDomain -> CROSS-DOMAIN-100
  CheckDatatypePropertiesDatatype -> DATATYPE-FACET-100 (strict type),
                                     DATATYPE-FACET-101 (lexical/facet)
  CheckFieldTypeDefined         -> SPEC-COMPLETENESS-100
  CheckURIExistence             -> REF-EXISTENCE-100
  CheckOwlRestrictionMax        -> CARD-MAX-100
  CheckOwlRestrictionMin        -> CARD-MIN-100, CARD-MIN-102 (zero-edge)
  CheckOwlRestrictionExact      -> CARD-EXACT-100
  CheckOwlRestrictionSome       -> SOME-100
  CheckOwlRestrictionOnly       -> ONLY-100
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
import pyarrow as pa

VIOLATION_SCHEMA = pa.schema(
    [
        ("check_id", pa.string()),
        ("severity", pa.string()),
        ("key", pa.string()),
        ("column", pa.string()),
        ("observed", pa.string()),
        ("expected", pa.string()),
    ]
)


def empty_violations() -> pa.Table:
    return VIOLATION_SCHEMA.empty_table()


def union_all(parts: list) -> "ray.data.Dataset":
    """One Dataset of all ``parts``; no parts is an empty violations
    Dataset (``Dataset.union`` needs at least one other Dataset)."""
    if not parts:
        import ray.data
        return ray.data.from_arrow(empty_violations())
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


def make_violations(
    check_id: str,
    keys: Iterable,
    column: str,
    observed: Iterable,
    expected: str,
    severity: str = "error",
) -> pa.Table:
    keys = [None if k is None else str(k) for k in keys]
    observed = [None if o is None else str(o) for o in observed]
    n = len(keys)
    return pa.table(
        {
            "check_id": pa.array([check_id] * n, type=pa.string()),
            "severity": pa.array([severity] * n, type=pa.string()),
            "key": pa.array(keys, type=pa.string()),
            "column": pa.array([column] * n, type=pa.string()),
            "observed": pa.array(observed, type=pa.string()),
            "expected": pa.array([expected] * n, type=pa.string()),
        },
        schema=VIOLATION_SCHEMA,
    )


def mask_violations(
    batch: pa.Table,
    mask: np.ndarray,
    check_id: str,
    key_column: Optional[str],
    column: str,
    expected: str,
    severity: str = "error",
) -> Optional[pa.Table]:
    """Build violation rows for masked rows of a batch (vectorized)."""
    if not mask.any():
        return None
    idx = np.flatnonzero(mask)
    sub = batch.take(pa.array(idx))
    keys = sub.column(key_column).to_pylist() if key_column and key_column in batch.column_names else [None] * len(idx)
    if column in batch.column_names:
        col = sub.column(column)
        if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
            observed = [f"<binary:{len(v) if v is not None else 0}B>" for v in col.to_pylist()]
        else:
            observed = col.to_pylist()
    else:
        observed = [None] * len(idx)
    return make_violations(check_id, keys, column, observed, expected, severity)
