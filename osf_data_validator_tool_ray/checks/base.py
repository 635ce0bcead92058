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
import pyarrow.compute as pc

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


_EMPTY_VIOLATIONS = VIOLATION_SCHEMA.empty_table()


def empty_violations() -> pa.Table:
    """The one empty violations table (Arrow tables are immutable)."""
    return _EMPTY_VIOLATIONS


def make_violations(
    check_id: str,
    keys: Iterable,
    column: str,
    observed: Iterable,
    expected: str,
    severity: str = "error",
    part: Optional[np.ndarray] = None,
) -> pa.Table:
    """Violation rows; with ``part`` (each row's partition position, as
    ``runner.SuitePass.scan`` tags its batches) they carry an int32
    ``_part`` column too."""
    keys = [None if k is None else str(k) for k in keys]
    observed = [None if o is None else str(o) for o in observed]
    n = len(keys)
    t = pa.table(
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
    return t if part is None else t.append_column("_part", pa.array(part, pa.int32()))


def mask_violations(
    batch: pa.Table,
    mask: np.ndarray,
    check_id: str,
    key_column: Optional[str],
    column: str,
    expected: str,
    severity: str = "error",
) -> Optional[pa.Table]:
    """Build violation rows for masked rows of a batch (vectorized).
    Only the key, the reported column and a ``_part`` tag are taken from
    the batch; a binary column reports each value's length, not its
    bytes."""
    if not mask.any():
        return None
    idx = pa.array(np.flatnonzero(mask))
    names = batch.column_names
    keys = (batch.column(key_column).take(idx).to_pylist()
            if key_column and key_column in names else [None] * len(idx))
    if column in names:
        col = batch.column(column).take(idx)
        if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
            lengths = pc.fill_null(pc.binary_length(col), 0).to_pylist()
            observed = [f"<binary:{n}B>" for n in lengths]
        else:
            observed = col.to_pylist()
    else:
        observed = [None] * len(idx)
    part = batch.column("_part").to_numpy()[mask] if "_part" in names else None
    return make_violations(check_id, keys, column, observed, expected, severity, part)
