"""Suite runner — the engine's analog of the reference CLI driver loop
(`dvt:139-192`: instantiate each configured check, inject context, run,
merge report fragments), re-expressed as a handful of streaming Ray Data
pipelines that share one source:

  1. driver-side metadata checks (schema conformance, spec completeness)
  2. ONE fused stateless map_batches pass (facets, enums, cross-domain,
     and — in sniff mode — universal predicates) over a column-pruned scan
  3. ONE merge for ALL keyed constraints (cardinality, referential
     existence, existential, zero-edge) over tagged combiner partials
     (checks/unified_keyed.py, shared with the partitioned runner)
  4. decode=True: ONE scan of the payload column (bytes_suite_pass)
     yielding every bytes-derived finding, overlapped with 2-3 via a
     driver thread so the exchange never sits on the critical path

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

import ray.data

from ..checks.base import empty_violations, union_all
from ..checks.schema import (
    schema_violations,
    spec_completeness_violations,
    unevaluable_warnings,
)
from ..checks.unified_keyed import keyed_plan, keyed_violations
from ..sources.io import arrow_schema
from ..spec import ConstraintSpec
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
    """Every non-payload column the metadata branches touch — callers
    should build ``metadata_ds`` with read_parquet(columns=these) so the
    wide binary column is pruned AT THE READ (Ray's optimizer does not
    push a later select_columns into the parquet scan)."""
    cols = set(stateless_columns(spec, skip_columns=("bytes",),
                                 include_universals=True))
    cols |= set(keyed_plan(spec, None, decode=True).columns)
    cols.discard("bytes")
    return sorted(cols)


def run_suite(
    ds: "ray.data.Dataset",
    spec: ConstraintSpec,
    refs: Optional[dict[str, "ray.data.Dataset"]] = None,
    expected_keys: Optional["ray.data.Dataset"] = None,
    expected_key_column: str = "key",
    batch_size: Optional[int] = None,
    decode: bool = False,
    decode_concurrency: "int | tuple[int, int]" = (1, 16),
    metadata_ds: Optional["ray.data.Dataset"] = None,
    decode_profile: str = "light",
) -> SuiteResult:
    """Plan every check of ``spec`` against ``ds``; everything stays lazy
    until the caller consumes the violations Dataset / report.

    decode=True fuses ALL payload-derived checks (universal predicates,
    bytes facets, DECODE-100/101, the decodable existential) into ONE
    actor-pool scan of the `bytes` column (bytes_suite_pass) — the wide
    binary column is then never read by any other stage.  decode=False
    keeps the cheap header-sniff predicates inside the stateless pass.
    """
    actual_schema = arrow_schema(ds)
    driver_v = driver_checks(actual_schema, spec, refs)

    parts: list["ray.data.Dataset"] = []
    meta_ds = metadata_ds if (metadata_ds is not None and decode) else ds

    # decode mode skips bytes-derived universals here (the fused decode
    # scan owns them) but keeps metadata-only universals enforced — the
    # skip_columns filter inside StatelessValidator handles the split
    skip = ("bytes",) if decode else ()
    cols = [c for c in stateless_columns(spec, skip_columns=skip,
                                         include_universals=True)
            if c in actual_schema.names]
    stateless = meta_ds.select_columns(cols).map_batches(
        StatelessValidator(spec, skip_columns=skip, include_universals=True),
        batch_format="pyarrow",
        **({"batch_size": batch_size} if batch_size else {}),
    )
    parts.append(stateless)

    plan = keyed_plan(spec, set(actual_schema.names), decode)

    def keyed_pass() -> Optional["ray.data.Dataset"]:
        if plan.key is None:
            return None
        return keyed_violations(plan.partials(meta_ds), plan, spec, refs=refs,
                                expected_keys=expected_keys,
                                expected_key_column=expected_key_column)

    if decode and "bytes" in actual_schema.names:
        # Overlap: the decode scan (bytes_suite_pass materializes its
        # small combined output) runs in a driver thread WHILE the
        # metadata branches (stateless + keyed exchange) materialize —
        # otherwise the keyed exchange serializes behind the decode
        # barrier and its fixed latency lands on the critical path.
        import threading

        from ..stages.decode_stage import (
            bytes_suite_pass, existential_violations_from_partials)

        box: dict = {}
        declared_universals = {u.predicate for u in spec.universals}

        def _run_bytes():
            try:
                box["v"], box["p"] = bytes_suite_pass(
                    ds, concurrency=decode_concurrency, profile=decode_profile,
                    universal_predicates=declared_universals)
            except BaseException as e:      # noqa: BLE001 — rethrown below
                box["err"] = e

        th = threading.Thread(target=_run_bytes, daemon=True)
        th.start()

        # metadata-only existentials (e.g. over transcript) stay in the
        # keyed pass; bytes-derived ones come from the decode partials
        keyed = keyed_pass()
        keyed_m = keyed.materialize() if keyed is not None else None
        stateless_m = stateless.materialize()
        parts = [stateless_m] + ([keyed_m] if keyed_m is not None else [])

        th.join()
        if "err" in box:
            raise box["err"]
        parts.append(box["v"])
        if any(e.predicate == "decodable_bytes" for e in plan.decode_exts):
            parts.append(existential_violations_from_partials(box["p"]))
    else:
        keyed = keyed_pass()
        if keyed is not None:
            parts.append(keyed)

    return SuiteResult(violations=union_all(parts), driver_violations=driver_v)
