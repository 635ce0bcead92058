"""The fused stateless validation pass.

ALL per-row checks (datatype facets, enum-domain closure, cross-column
domain, universal predicates) run in ONE ``map_batches`` over zero-copy
Arrow batches — the engine's equivalent of the reference's per-value
scalar loops in CheckDatatypePropertiesDatatype.php:142-480,
CheckClassesDefined.php:40-51, CheckObjectDatatypePropertiesDomain.php and
CheckOwlRestrictionOnly.php:119-163, but evaluated columnar and fused so
the table is scanned once, not once per check.  Columns reach the facet
kernel as Arrow arrays; enum and cross-column domains are ``pc.is_in``
over value sets built once.

The stage is a callable CLASS: spec compilation (facet regexes, enum
closures, per-type allowed sets) happens once per actor/worker in
``__init__`` (or once per task via closure serialization when used as a
plain function), never per batch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import audio
from ..functions.facets import facet_violations
from ..spec import ConstraintSpec
from .base_ids import (
    CROSS_DOMAIN_100,
    DATATYPE_FACET_101,
    ENUM_DOMAIN_100,
    ONLY_100,
)
from ..checks.base import empty_violations, mask_violations
from ..checks.predicates import PREDICATE_COLUMNS, PREDICATES


class StatelessValidator:
    """map_batches(StatelessValidator(spec), batch_format="pyarrow") ->
    Dataset of violation rows."""

    def __init__(self, spec: ConstraintSpec, skip_columns: tuple = (),
                 include_universals: bool = True):
        # skip_columns: used by the decode-fused suite, where everything
        # bytes-derived comes from the payload decode in the same scan
        # (stages/decode_stage.BytesSuitePass) instead.  Universals whose
        # predicate reads a skipped column are excluded HERE; universals
        # over metadata-only predicates stay enforced even in decode mode.
        self.spec = spec
        self.key = spec.key_column
        self.skip_columns = set(skip_columns)
        self.enum_closures = [(e.column, pa.array(sorted(e.closure()))) for e in spec.enums]
        self.cross_domains = [
            (cd, pa.array(list(cd.allowed)),
             [(pa.array([t]), pa.array(list(allowed))) for t, allowed in cd.allowed.items()])
            for cd in spec.cross_domains]
        # unknown predicate ids are skipped here and reported by the
        # driver's unevaluable_warnings sweep (ONLY-50)
        self.universals = ([(u.predicate, PREDICATES[u.predicate])
                            for u in spec.universals
                            if u.predicate in PREDICATES
                            and not (PREDICATE_COLUMNS[u.predicate] & self.skip_columns)]
                           if include_universals else [])
        # restriction-lexical combos (the dataRange analogs): values a
        # restriction matches must ALSO pass its declared facet set —
        # CheckOwlRestrictionMax.php:535-549 MAX-102, Min:599 MIN-104,
        # Some:517 SOME-102, Only:536 ONLY-102
        self.restriction_lexical: list = []
        for c in spec.cardinalities:
            if c.value_facets is not None:
                cid = ("CARD-MAX-102" if c.max_count is not None
                       else "CARD-EXACT-104" if c.exact_count is not None
                       else "CARD-MIN-104")
                self.restriction_lexical.append(
                    (cid, c.column, c.value_facets, c.qualifier))
        for e in spec.existentials:
            if e.value_facets is not None and e.column:
                self.restriction_lexical.append(
                    ("SOME-102", e.column, e.value_facets, e.predicate))
        for u in spec.universals:
            if u.value_facets is not None and u.column:
                self.restriction_lexical.append(
                    ("ONLY-102", u.column, u.value_facets, None))

    def __call__(self, batch: pa.Table) -> pa.Table:
        with audio.one_parse_per_column():     # the sniff predicates share it
            return self._violations(batch)

    def _violations(self, batch: pa.Table) -> pa.Table:
        spec = self.spec
        out: list[pa.Table] = []

        # 1. datatype facets (the workhorse — DATATYPE-FACET-101)
        for column, facets in spec.facets.items():
            if column not in batch.column_names or column in self.skip_columns:
                continue
            for facet_name, mask in facet_violations(batch.column(column), facets).items():
                v = mask_violations(
                    batch, mask, DATATYPE_FACET_101, self.key, column,
                    expected=f"{facets.dtype}:{facet_name}",
                )
                if v is not None:
                    out.append(v)

        # 2. enum domains with hierarchy closure (ENUM-DOMAIN-100)
        for column, members in self.enum_closures:
            if column not in batch.column_names:
                continue
            vals = batch.column(column)
            bad = ~_is_in(vals, members) & _notnull(vals)
            v = mask_violations(batch, bad, ENUM_DOMAIN_100, self.key, column,
                                expected=f"in closure of {members.to_pylist()[:8]}")
            if v is not None:
                out.append(v)

        # 3. cross-column domains (CROSS-DOMAIN-100)
        for cd, type_values, domains in self.cross_domains:
            if cd.type_column not in batch.column_names or cd.column not in batch.column_names:
                continue
            types = batch.column(cd.type_column)
            vals = batch.column(cd.column)
            bad = np.zeros(batch.num_rows, dtype=bool)
            vals_notnull = _notnull(vals)
            for tval, allowed in domains:
                sel = _is_in(types, tval)
                if sel.any():
                    bad |= sel & ~_is_in(vals, allowed) & vals_notnull
            unknown = ~_is_in(types, type_values) & _notnull(types)
            if not cd.unknown_type_ok:
                bad |= unknown
            elif unknown.any():
                # warning tier (the reference's -50 id discipline): a type
                # value with no domain entry can't be validated
                w = mask_violations(batch, unknown, "CROSS-DOMAIN-50", self.key,
                                    cd.type_column,
                                    expected=f"domain entry for {cd.type_column} value",
                                    severity="warning")
                if w is not None:
                    out.append(w)
            v = mask_violations(batch, bad, CROSS_DOMAIN_100, self.key, cd.column,
                                expected=f"allowed per {cd.type_column}")
            if v is not None:
                out.append(v)

        # 4. universal predicates — emit counterexample rows (ONLY-100);
        # skipped when their columns are absent (SCHEMA-COLUMN-101's finding)
        for pred_name, pred in self.universals:
            if not PREDICATE_COLUMNS[pred_name] <= set(batch.column_names):
                continue
            ok = pred(batch)
            v = mask_violations(batch, ~ok, ONLY_100, self.key,
                                column=pred_name, expected=f"all rows satisfy {pred_name}")
            if v is not None:
                out.append(v)

        # 5. restriction-lexical combos: facet-validate the values the
        # restriction ranges over (qualifier-scoped when one is declared)
        for cid, column, vf, qname in self.restriction_lexical:
            if column not in batch.column_names or column in self.skip_columns:
                continue
            if qname is not None:
                if (qname not in PREDICATES
                        or not PREDICATE_COLUMNS[qname] <= set(batch.column_names)):
                    continue
                scope = PREDICATES[qname](batch)
            else:
                scope = np.ones(batch.num_rows, dtype=bool)
            for facet_name, mask in facet_violations(batch.column(column), vf).items():
                v = mask_violations(
                    batch, mask & scope, cid, self.key, column,
                    expected=f"{vf.dtype}:{facet_name} within restriction"
                             + (f" where {qname}" if qname else ""),
                )
                if v is not None:
                    out.append(v)

        if not out:
            return empty_violations()
        return pa.concat_tables(out).combine_chunks()


def _notnull(col) -> np.ndarray:
    return ~pc.is_null(col, nan_is_null=True).to_numpy(zero_copy_only=False)


def _is_in(col, members: pa.Array) -> np.ndarray:
    """Rows of ``col`` whose value is one of ``members`` (never a null).
    As in Python, text is never equal to a non-text value (Arrow would
    cast "8000" to a member of an integer column); a column typed null
    has no values."""
    if pa.types.is_null(col.type) or _is_text(col.type) != _is_text(members.type):
        return np.zeros(len(col), dtype=bool)
    return pc.is_in(col, value_set=members).to_numpy(zero_copy_only=False)


def _is_text(t: pa.DataType) -> bool:
    t = t.value_type if pa.types.is_dictionary(t) else t
    return pa.types.is_string(t) or pa.types.is_large_string(t)


def stateless_columns(spec: ConstraintSpec, skip_columns: tuple = (),
                      include_universals: bool = True) -> list[str]:
    """Columns the fused pass actually needs — used for projection pushdown
    at the read so unrelated (esp. wide binary) columns never leave disk."""
    cols = set(spec.facets.keys())
    if spec.key_column:
        cols.add(spec.key_column)
    for e in spec.enums:
        cols.add(e.column)
    for cd in spec.cross_domains:
        cols.update({cd.type_column, cd.column})
    if include_universals:
        from ..checks.predicates import PREDICATE_COLUMNS as _PC
        for u in spec.universals:
            pc_cols = _PC.get(u.predicate)
            if pc_cols is not None and not (pc_cols & set(skip_columns)):
                cols |= pc_cols
    # restriction-lexical combos ride this pass too
    from ..checks.predicates import PREDICATE_COLUMNS as _PC2
    for c in spec.cardinalities:
        if c.value_facets is not None:
            cols.add(c.column)
            if c.qualifier:
                cols |= _PC2.get(c.qualifier, frozenset())
    for e in spec.existentials:
        if e.value_facets is not None and e.column:
            cols.add(e.column)
            cols |= _PC2.get(e.predicate, frozenset())
    for u in spec.universals:
        if u.value_facets is not None and u.column:
            cols.add(u.column)
    cols -= set(skip_columns)
    if spec.key_column:
        cols.add(spec.key_column)
    return sorted(cols)
