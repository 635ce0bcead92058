"""Suite runner — the engine's analog of the reference CLI driver loop
(`dvt:139-192`: instantiate each configured check, inject context, run,
merge report fragments), re-expressed as ONE scan of the input:

  1. driver-side metadata checks (schema conformance, spec completeness)
     from the table's schema alone
  2. ONE ``map_batches`` of ``SuitePass`` over a column-pruned ``ds``
     (256-row batches): per batch, the stateless facets (facets, enums,
     cross-domain, universal predicates — header-sniffed, or with
     decode=True fully decoded by BytesSuitePass along with DECODE-100/101)
     and the combiner partials of ALL keyed constraints, the decodable
     count included
  3. the small tagged output is materialized once and split into
     violation rows and partials
  4. ONE merge for ALL keyed constraints (cardinality, referential
     existence, existential, zero-edge) over those partials
     (checks/unified_keyed.keyed_violations, shared with the partitioned
     runner, which calls the same ``SuitePass`` in its per-partition loop)

Trade-off: the keyed merge follows the scan instead of overlapping it.
Below the driver-merge gate (``relational.fits_driver_merge``) the merge
runs in process, so what it adds is an Arrow group_by, not a Ray
execution; above it, one hash exchange.  In return each input row is
read and scheduled once.

Violation Datasets are unioned; the verdict counts (per-block counts per
check id, merged on the driver) are the only driver materialization of
consequence.

``SuiteResult`` is the one result type of every executor (this suite,
the partitioned runner, the check registry) and ``SuiteResult.report``
the one report builder: its ``checks`` cover ``ALL_CHECK_IDS`` plus
every id a run actually emitted, and a run passes only with no
ERROR-severity row of any id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..checks.base import VIOLATION_SCHEMA, empty_violations, union_all
from ..checks.schema import (
    schema_violations,
    spec_completeness_violations,
    unevaluable_warnings,
)
from ..checks.unified_keyed import KeyedPlan, keyed_plan, keyed_violations
from ..sources.io import arrow_schema
from ..spec import ConstraintSpec
from ..stages.decode_stage import BYTES_COLUMNS, BytesSuitePass
from ..stages.facet_stage import StatelessValidator, stateless_columns

ALL_CHECK_IDS = [
    "SCHEMA-COLUMN-100", "SCHEMA-COLUMN-101", "SPEC-COMPLETENESS-100",
    "DATATYPE-FACET-101", "ENUM-DOMAIN-100", "CROSS-DOMAIN-100",
    "ONLY-100", "CARD-MAX-100", "CARD-MIN-100", "CARD-MIN-102",
    "CARD-EXACT-100", "SOME-100", "REF-EXISTENCE-100",
    "DECODE-100", "DECODE-101", "DRIFT-100", "DRIFT-101", "DRIFT-50",
    # restriction-lexical combos (dataRange analogs)
    "CARD-MAX-102", "CARD-MIN-104", "CARD-EXACT-104", "SOME-102", "ONLY-102",
    # warning tier (-5x): constraint declared but unevaluable / not
    # decidable — mirrors the reference's systematic warning ids
    "CROSS-DOMAIN-50", "CROSS-DOMAIN-51", "DATATYPE-FACET-50",
    "DATATYPE-FACET-51", "ENUM-DOMAIN-50", "CARD-MAX-50", "CARD-MIN-50",
    "CARD-EXACT-50", "SOME-50", "ONLY-50", "REF-EXISTENCE-50",
]


@dataclass
class SuiteResult:
    violations: "ray.data.Dataset"
    # driver-side checks (already materialized)
    driver_violations: pa.Table = field(default_factory=empty_violations)
    # executor facts merged into the report (e.g. partition counts)
    summary: dict = field(default_factory=dict)

    _counts: Optional[tuple] = field(default=None, repr=False)

    def severity_counts(self) -> tuple[dict[str, int], dict[str, int]]:
        """(errors, warnings): violation count per check id — warnings
        and errors are structurally separated like the reference's -5x /
        -10x id split.  Each block is counted where it lives and the
        per-block counts merge on the driver (tiny), so the count takes
        no hash exchange."""
        if self._counts is None:
            def count(t: pa.Table) -> pa.Table:
                return t.group_by(["check_id", "severity"]).aggregate([([], "count_all")])

            blocks = self.violations.map_batches(count, batch_format="pyarrow",
                                                 batch_size=None)
            total = pa.concat_tables(
                [count(self.driver_violations),
                 *blocks.iter_batches(batch_format="pyarrow", batch_size=None)]
            ).group_by(["check_id", "severity"]).aggregate([("count_all", "sum")]) \
                .to_pydict()
            self._counts = ({}, {})
            for cid, sev, n in zip(total["check_id"], total["severity"],
                                   total["count_all_sum"]):
                self._counts[sev == "warning"][cid] = n
        return self._counts

    def report_xml(self, sample: int = 20) -> str:
        """XML report — mirrors the reference's dual XML/JSON report
        surface (dvt:174-191): a <checks> document, one <check> element
        per check id with status + violation sample."""
        import xml.etree.ElementTree as ET

        rep = self.report(sample=sample)
        root = ET.Element("checks")
        for cid, info in rep["checks"].items():
            el = ET.SubElement(root, "check", id=cid,
                               status="pass" if info["pass"] else "fail",
                               violations=str(info["n_violations"]))
            for row in (r for r in rep["violations_sample"] if r["check_id"] == cid):
                ET.SubElement(el, "violation", severity=str(row["severity"]),
                              key=str(row["key"]), column=str(row["column"]),
                              observed=str(row["observed"]),
                              expected=str(row["expected"]))
        return ET.tostring(root, encoding="unicode")

    def report(self, sample: int = 20) -> dict:
        """pass/fail is decided by ERROR-severity violations only (of
        any check id, built-in or registry); warnings are reported but
        non-fatal (the reference's warning rows never fail a check
        either).  ``violations``/``warnings`` map each id with rows to
        its count; ``sample=0`` reads no violation rows."""
        errors, warns = self.severity_counts()
        checks = {
            cid: {"pass": errors.get(cid, 0) == 0,
                  "n_violations": errors.get(cid, 0),
                  "n_warnings": warns.get(cid, 0)}
            for cid in [*ALL_CHECK_IDS,
                        *sorted((errors.keys() | warns.keys()) - set(ALL_CHECK_IDS))]
        }
        sample_rows = (self.driver_violations.slice(0, sample).to_pylist()
                       + self.violations.limit(sample).to_pandas().to_dict("records")
                       )[:sample] if sample else []
        return {
            **self.summary,
            "pass": not errors,
            "checks": checks,
            "violations": errors,
            "warnings": warns,
            "violations_sample": sample_rows,
        }


def driver_checks(schema: pa.Schema, spec: ConstraintSpec,
                  refs: Optional[dict] = None) -> pa.Table:
    """The checks decided by the table's schema alone: schema
    conformance, spec completeness and the -50 warning tier (every
    constraint skipped as unevaluable — absent column, unknown
    dtype/predicate, missing refs table — is reported, never silently
    dropped)."""
    return pa.concat_tables([
        schema_violations(schema, spec),
        spec_completeness_violations(schema, spec),
        unevaluable_warnings(schema, spec,
                             ref_tables=set(refs) if refs is not None else None),
    ])


def metadata_columns(spec: ConstraintSpec) -> list[str]:
    """Every non-payload column the suite's checks read.  The suite
    itself needs no second Dataset (it scans ``ds`` once); a read
    pruned to these columns serves a metadata check run on its own
    without the wide binary column (Ray's optimizer does not push a
    later select_columns into the parquet scan)."""
    cols = set(stateless_columns(spec, skip_columns=("bytes",),
                                 include_universals=True))
    cols |= set(keyed_plan(spec, None, decode=True).columns)
    cols.discard("bytes")
    return sorted(cols)


class SuitePass:
    """The suite's one per-batch body: everything computed from a row.

      * the stateless facets (``StatelessValidator``);
      * with ``decode`` (and a payload column), the payload findings of
        ``BytesSuitePass``, which then own the payload-derived universals;
      * the keyed combiner partials (``plan.aggregator()``), whose
        ``dext{j}_n`` counts the rows the payload decode accepted.

    ``findings`` returns ``(violations, partials)`` (partials None when
    the table lacks the plan's key).  Calling the instance returns both
    as ONE tagged table for ``map_batches``: partial rows carry their key
    in ``_pkey``, violation rows leave it null; ``tagged_violations`` and
    ``tagged_partials`` split it."""

    def __init__(self, spec: ConstraintSpec, names: set, plan: KeyedPlan,
                 decode: bool, universal_predicates: frozenset):
        self.decode = decode and "bytes" in names
        skip = ("bytes",) if self.decode else ()
        self.stateless_columns = [
            c for c in stateless_columns(spec, skip_columns=skip,
                                         include_universals=True) if c in names]
        self.stateless = StatelessValidator(spec, skip_columns=skip,
                                            include_universals=True)
        self.bytes_columns = ([c for c in BYTES_COLUMNS if c in names]
                              if self.decode else [])
        self.payload = (BytesSuitePass(universal_predicates=universal_predicates)
                        if self.decode else None)
        self.agg = plan.aggregator() if plan.key in names else None
        self.columns = sorted(set(self.stateless_columns) | set(self.bytes_columns)
                              | set(plan.columns if self.agg else ()))

    def findings(self, batch: pa.Table) -> tuple[pa.Table, Optional[pa.Table]]:
        violations = [self.stateless(batch.select(self.stateless_columns))]
        decoded = None
        if self.payload is not None:
            v, decoded = self.payload.findings(batch.select(self.bytes_columns))
            violations.append(v)
        partials = self.agg(batch, decoded) if self.agg is not None else None
        return pa.concat_tables(violations), partials

    def __call__(self, batch: pa.Table) -> pa.Table:
        violations, partials = self.findings(batch)
        if partials is None:
            return violations
        partials = partials.rename_columns(["_pkey", *partials.column_names[1:]])
        return pa.concat_tables([violations, partials], promote_options="default")


def tagged_violations(t: pa.Table) -> pa.Table:
    """The violation rows of ``SuitePass`` output."""
    return t.filter(pc.is_null(t.column("_pkey"))).select(VIOLATION_SCHEMA.names)


def tagged_partials(t: pa.Table) -> pa.Table:
    """The keyed partial rows of ``SuitePass`` output, key restored."""
    p = t.filter(pc.is_valid(t.column("_pkey"))).drop_columns(VIOLATION_SCHEMA.names)
    return p.rename_columns(["key", *p.column_names[1:]])


def run_suite(
    ds: "ray.data.Dataset",
    spec: ConstraintSpec,
    refs: Optional[dict[str, "ray.data.Dataset"]] = None,
    expected_keys: Optional["ray.data.Dataset"] = None,
    expected_key_column: str = "key",
    batch_size: Optional[int] = None,
    decode: bool = False,
    metadata_ds: Optional["ray.data.Dataset"] = None,
    decode_profile: str = "light",
) -> SuiteResult:
    """Run every check of ``spec`` against ``ds``: ONE scan of ``ds``
    (``SuitePass`` per batch of ``batch_size``, default 256 rows) whose
    small output is materialized here, then the keyed merge.  The
    returned violations Dataset stays lazy over that output.

    decode=True fully decodes every payload in the same scan (universal
    predicates, bytes facets, DECODE-100/101 and the decodable
    existential come from the decode); decode=False sniffs payload
    headers in the stateless pass instead.

    ``metadata_ds`` is accepted and unused: the one scan of ``ds`` reads
    every column the checks need.  ``decode_profile`` is accepted and
    unused: the decode kernel computes no QA features.
    """
    actual_schema = arrow_schema(ds)
    names = set(actual_schema.names)
    driver_v = driver_checks(actual_schema, spec, refs)

    plan = keyed_plan(spec, names, decode)
    body = SuitePass(spec, names, plan, decode,
                     frozenset(u.predicate for u in spec.universals))
    out = ds.select_columns(body.columns).map_batches(
        body, batch_format="pyarrow", batch_size=batch_size or 256).materialize()
    if body.agg is None:
        return SuiteResult(violations=out, driver_violations=driver_v)

    violations = out.map_batches(tagged_violations, batch_format="pyarrow",
                                 batch_size=None)
    partials = out.map_batches(tagged_partials, batch_format="pyarrow",
                               batch_size=None)
    keyed = keyed_violations(partials, plan, spec, refs=refs,
                             expected_keys=expected_keys,
                             expected_key_column=expected_key_column)
    return SuiteResult(violations=union_all([violations, keyed]),
                       driver_violations=driver_v)
