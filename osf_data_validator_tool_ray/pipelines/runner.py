"""The one scan executor; the built-in suite as a registry entry list.

The reference's built-in suite is its default ``tests/checks[]`` list
(`dvt.ini:21-33`), run by one driver loop (`dvt:139-192`).  Here it is
``SUITE``, and ``run_suite`` is the check registry's run of it (plus
``decode``).  The registry's row-level entries (``ROW_CHECKS``) share
ONE scan of the input, ``scan_checks``:

  1. ONE pass of ``SuitePass`` over the rows, column-pruned: per batch,
     whichever entries are selected — the ``stateless`` facets (enums,
     cross-domain, universal predicates, payload headers sniffed), the
     ``decode`` findings (BytesSuitePass, which then owns the payload
     universals, DECODE-100/101) and the combiner partials of ALL
     ``keyed`` constraints.  A plain parquet read
     (``sources.io.parquet_read_files``: what the CLI and the benchmarks
     pass) takes the file route, ``scan_partitions``: one plain Ray task
     per contiguous share of its files (``relational.shares``), each
     scanning its share as one stream (``SuitePass.scan``) in reads of
     about ``READ_BYTES``, checked in runs of up to ``BATCH_BYTES`` that
     cross file boundaries, and returning ONE tagged Arrow table
     (violation rows and keyed partial rows, the partials' key in
     ``_pkey``) plus its rows and bytes.  Given a checkpoint store, the
     same route scans only the files the store has not recorded, each
     into a stored artifact, and merges every stored artifact
     (``partitioned.stored_findings``).  Any other Dataset runs as ONE
     ``map_batches`` in ``SuitePass.batch_size`` rows (its row width is
     unknown until it runs), whose tagged output is materialized once
  2. ``merge_scan``, the one merge of every route's tagged output: the
     driver gate (``relational.fits_driver_merge``) on its rows and
     bytes; below it the output is pulled to the driver ONCE and split
     in process (``tagged_violations`` / ``tagged_partials``), above it
     it stays on the cluster (``ray.data.from_arrow_refs``) and is split
     by two maps, each run once into the result's object refs
  3. ONE merge for ALL keyed constraints (cardinality, referential
     existence, existential, zero-edge) over those partials
     (checks/unified_keyed.keyed_violations), inside ``merge_scan``

Trade-off: the keyed merge follows the scan instead of overlapping it.
Below the driver gate everything after the scan (split, keyed merge,
report counts and sample) runs in process on Arrow tables: the
rows are few, and a Ray execution per step would cost ~25 ms of
scheduling for ~4 ms of work.  For the same reason a refs / expected-key
side that is a plain parquet read under the gate is read by its files
(key column only).  The file route skips Ray Data's fixed cost per run
and submits one task per CPU slot (unless the files are large), not one
per file: a task's scheduling costs about a small file's scan.  Other
Datasets stay on ``map_batches``: streaming their block refs into plain
tasks measured slower.

``SuiteResult`` is the one result type, its rows computed once (a
driver table and object refs), and ``SuiteResult.report`` the one
report builder (``render_xml`` renders one as XML): its ``checks`` cover
``ALL_CHECK_IDS`` plus every id a run actually emitted, and a run passes
only with no ERROR-severity row of any id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .. import audio
from ..checks.base import VIOLATION_SCHEMA, empty_violations
from ..checks.schema import (
    schema_violations,
    spec_completeness_violations,
    unevaluable_warnings,
)
from ..checks.unified_keyed import KeyedPlan, keyed_plan, keyed_violations
from ..sources.io import MAX_BATCH_ROWS, Partition, arrow_schema, parquet_read_files
from ..spec import ConstraintSpec
from ..stages.decode_stage import BYTES_COLUMNS, BytesSuitePass
from ..stages.facet_stage import StatelessValidator, stateless_columns
from ..state.checkpoint import CheckpointStore
from . import relational

# the registry entries that read rows: all planned into one scan
ROW_CHECKS = frozenset({"stateless", "keyed", "decode"})
# the built-in suite, as a registry entry list (dvt.ini's tests/checks[])
SUITE = ("schema", "spec_completeness", "stateless", "keyed")
# ``SuitePass.scan`` reads record batches of about READ_BYTES and checks
# runs of them of up to BATCH_BYTES (or MAX_BATCH_ROWS rows) per call
READ_BYTES = 4 << 20
BATCH_BYTES = 64 << 20

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


# the report sample's order: errors before warnings, then by check id,
# key, column, observed, expected, so equal results give equal samples
SAMPLE_ORDER = [(c, "ascending") for c in ("severity", "check_id", "key",
                                           "column", "observed", "expected")]


def _first(t: pa.Table, n: int) -> pa.Table:
    """The first ``n`` rows of ``t`` in ``SAMPLE_ORDER``."""
    k = min(n, t.num_rows)
    return t.take(pc.select_k_unstable(t, k, SAMPLE_ORDER)) if k else t.slice(0, 0)


def _digest(t: pa.Table, n: int) -> tuple[pa.Table, pa.Table]:
    """One violations table's count per (check id, severity) and its
    ``_first`` ``n`` rows (none when Ray lost an empty block's columns)."""
    if not t.num_columns:
        t = empty_violations()
    return t.group_by(["check_id", "severity"]).aggregate([([], "count_all")]), _first(t, n)


_digest_task = ray.remote(_digest)


@dataclass
class SuiteResult:
    """The violation rows of a run, where they live: ``violations`` on
    the driver (driver-side checks plus every small scan result, one
    ``pa.Table``), ``cluster_violations`` on the cluster (object refs to
    Arrow tables, each computed once: rows over the driver gate and the
    output of Dataset-returning registry entries; empty when there are
    none).  ``summary`` carries executor facts merged into the report
    (partition counts, ``result_tier``)."""

    violations: pa.Table = field(default_factory=empty_violations)
    cluster_violations: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @classmethod
    def of(cls, parts: list, summary: Optional[dict] = None) -> "SuiteResult":
        """One result from violation parts: ``pa.Table`` parts concatenate
        on the driver, object refs are kept, and a Dataset part runs once
        here into its blocks' refs (``to_arrow_refs``)."""
        tables = [p for p in parts if isinstance(p, pa.Table)]
        refs = [r for p in parts if not isinstance(p, pa.Table)
                for r in ([p] if isinstance(p, ray.ObjectRef) else p.to_arrow_refs())]
        return cls(pa.concat_tables([empty_violations(), *tables]), refs, summary or {})

    def to_arrow(self) -> pa.Table:
        """Every violation row as one table (pulls the cluster part)."""
        return pa.concat_tables([self.violations, *ray.get(self.cluster_violations)],
                                promote_options="default")

    def to_pandas(self):
        """``to_arrow()`` as a DataFrame."""
        return self.to_arrow().to_pandas()

    def to_dataset(self) -> "ray.data.Dataset":
        """Every violation row as one Dataset over the computed tables, for
        Dataset consumers (the CLI's parquet sink)."""
        return ray.data.from_arrow_refs([ray.put(self.violations),
                                         *self.cluster_violations])

    def report_xml(self, sample: int = 20) -> str:
        """``render_xml`` of ``report(sample)``."""
        return render_xml(self.report(sample=sample))

    def report(self, sample: int = 20) -> dict:
        """pass/fail is decided by ERROR-severity violations only (of
        any check id, built-in or registry); warnings are reported but
        non-fatal (the reference's warning rows never fail a check
        either).  ``violations``/``warnings`` map each id with rows to
        its count.  Each table is digested once per call (``_digest``:
        the driver table in process, each cluster ref in one plain Ray
        task) and the digests merge on the driver, so the sample is the
        first ``sample`` rows of all of them on either tier."""
        digests = [_digest(self.violations, sample), *ray.get(
            [_digest_task.remote(r, sample) for r in self.cluster_violations])]
        total = pa.concat_tables([c for c, _ in digests]).group_by(
            ["check_id", "severity"]).aggregate([("count_all", "sum")]).to_pydict()
        errors, warns = {}, {}
        for cid, sev, n in zip(total["check_id"], total["severity"],
                               total["count_all_sum"]):
            (warns if sev == "warning" else errors)[cid] = n
        checks = {
            cid: {"pass": errors.get(cid, 0) == 0,
                  "n_violations": errors.get(cid, 0),
                  "n_warnings": warns.get(cid, 0)}
            for cid in [*ALL_CHECK_IDS,
                        *sorted((errors.keys() | warns.keys()) - set(ALL_CHECK_IDS))]
        }
        return {
            **self.summary,
            "pass": not errors,
            "checks": checks,
            "violations": errors,
            "warnings": warns,
            "violations_sample": _first(pa.concat_tables(
                [f for _, f in digests], promote_options="default"), sample).to_pylist(),
        }


def render_xml(report: dict) -> str:
    """An XML report from a ``SuiteResult.report`` dict — mirrors the
    reference's dual XML/JSON report surface (dvt:174-191): a <checks>
    document, one <check> element per check id with status + violation
    sample.  It reads no rows, so a caller holding the report renders it
    without counting the violations again."""
    import xml.etree.ElementTree as ET

    root = ET.Element("checks")
    for cid, info in report["checks"].items():
        el = ET.SubElement(root, "check", id=cid,
                           status="pass" if info["pass"] else "fail",
                           violations=str(info["n_violations"]))
        for row in (r for r in report["violations_sample"] if r["check_id"] == cid):
            ET.SubElement(el, "violation", severity=str(row["severity"]),
                          key=str(row["key"]), column=str(row["column"]),
                          observed=str(row["observed"]),
                          expected=str(row["expected"]))
    return ET.tostring(root, encoding="unicode")


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


class Scanned(NamedTuple):
    """One run of ``SuitePass.scan``: its tagged table, every row with the
    ``_part`` of the partition it came from (no rows when its call
    failed); the positions of the partitions ``done`` with it (read to
    the end, their last batch in this run, if they had any); and the
    partitions ``failed`` since the last run, each position with its
    error."""

    tagged: pa.Table
    done: list
    failed: dict


class SuitePass:
    """The one per-batch body of the selected row-level ``checks`` (a
    subset of ``ROW_CHECKS``): everything computed from a row.

      * ``stateless``: the stateless facets (``StatelessValidator``);
      * ``decode`` (with a payload column): the payload findings of
        ``BytesSuitePass``, which then own the payload-derived universals;
      * ``keyed``: the combiner partials (``plan.aggregator()``), whose
        ``dext{j}_n`` counts the rows the payload decode accepted; without
        ``keyed`` the caller passes ``KeyedPlan(None)``.

    ``findings`` returns ``(violations, partials)`` (partials None when
    the table lacks the plan's key).  Calling the instance returns both
    as ONE tagged table, the one format every route hands on: partial
    rows carry their key in ``_pkey``, violation rows leave it null (no
    ``_pkey`` without partials).  ``map_batches`` calls the instance.
    ``merge_scan`` splits the output with ``tagged_violations`` and
    ``tagged_partials``.

    ``scan`` reads a list of partitions as one stream, the loop of the
    file route's tasks and of the partitioned runner's share tasks.  It
    tags every batch with an int32 ``_part`` column, the partition's
    position in the list, and every emitter carries it through: the
    stateless and payload violation rows (``checks.base.
    mask_violations`` / ``make_violations``) and the partials, grouped
    per ``(key, _part)``.  So one call may check rows of many partitions
    and the partitioned runner still splits each run's table back by
    partition; the file route drops the column.  A batch without
    ``_part`` (the ``map_batches`` route) gives rows without it.  Along
    with each run's table ``scan`` reports which partitions are complete
    and which failed (a ``Scanned``), and goes on past a failure.

    ``scan`` sizes its batches in bytes from the parquet footers: small
    reads of ``READ_BYTES`` keep the decoded payloads within the task
    heap, and runs of up to ``BATCH_BYTES`` per call pay a call's fixed
    cost, most of a small batch's, once.  ``batch_size`` is the rule
    where no footer gives the row width, the ``map_batches`` route (Ray
    batches by rows) and a Lance fragment: 256 rows when the pass decodes
    payloads, else ``MAX_BATCH_ROWS``."""

    def __init__(self, spec: ConstraintSpec, names: set, plan: KeyedPlan,
                 checks: frozenset, universal_predicates: frozenset):
        self.decode = "decode" in checks and "bytes" in names
        self.batch_size = 256 if self.decode else MAX_BATCH_ROWS
        skip = ("bytes",) if self.decode else ()
        self.stateless = (StatelessValidator(spec, skip_columns=skip, include_universals=True)
                          if "stateless" in checks else None)
        self.stateless_columns = [
            c for c in stateless_columns(spec, skip_columns=skip, include_universals=True)
            if c in names and self.stateless is not None]
        self.bytes_columns = ([c for c in BYTES_COLUMNS if c in names]
                              if self.decode else [])
        self.payload = (BytesSuitePass(universal_predicates=universal_predicates)
                        if self.decode else None)
        self.plan = plan
        self.agg = plan.aggregator() if plan.key in names else None
        self.columns = sorted(set(self.stateless_columns) | set(self.bytes_columns)
                              | set(plan.columns if self.agg else ()))

    def findings(self, batch: pa.Table) -> tuple[pa.Table, Optional[pa.Table]]:
        violations = []
        tag = ["_part"] if "_part" in batch.column_names else []
        with audio.one_parse_per_column():     # the sniff predicates share it
            if self.stateless is not None:
                violations.append(self.stateless(
                    batch.select([*self.stateless_columns, *tag])))
            decoded = None
            if self.payload is not None:
                v, decoded = self.payload.findings(batch.select([*self.bytes_columns, *tag]))
                violations.append(v)
            partials = self.agg(batch, decoded) if self.agg is not None else None
        # an empty violations table has no _part column
        return (pa.concat_tables(violations, promote_options="default") if violations
                else empty_violations(), partials)

    def scan(self, partitions: "Iterable[str | Partition]") -> Iterator[Scanned]:
        """The tagged findings of ``partitions`` (parquet files or Lance
        fragment ids, or those already opened; opened one at a time, in
        order) read as ONE stream, with only ``columns``: each partition
        in record batches of about ``READ_BYTES`` (``Partition.
        read_rows``; ``batch_size`` rows for a Lance fragment), each
        batch tagged with an int32 ``_part`` column, the partition's
        position in ``partitions``; one call per run of batches of up to
        ``BATCH_BYTES`` or ``MAX_BATCH_ROWS`` rows across partition
        boundaries, cut early where the next batch's schema differs (a
        file with a dictionary-encoded column).

        Each run comes as a ``Scanned``: its tagged table, the partitions
        complete with it and the partitions failed since the last run.  A
        partition whose open or read raises leaves the run (its batches
        in it are dropped); a ``findings`` call that raises fails every
        partition with a batch in its run, and the rest of such a
        partition is not read.  Either way the stream goes on."""
        run, done, failed, dead = [], [], {}, set()

        def batches() -> Iterator[tuple]:
            """(position, tagged batch), then (position, None) once the
            partition is read, or (position, error) when it fails."""
            for pos, part in enumerate(partitions):
                try:
                    if not isinstance(part, Partition):
                        part = Partition(part)
                    read = part.read_rows(self.columns, READ_BYTES) or self.batch_size
                    for rb in part.iter_batches(read, self.columns):
                        if pos in dead:
                            break
                        yield pos, rb.append_column(
                            "_part", pa.array(np.full(rb.num_rows, pos, np.int32)))
                except Exception as e:
                    yield pos, e
                else:
                    yield pos, None

        def flush() -> Scanned:
            nonlocal run, done, failed
            tagged = empty_violations()
            if run:
                try:
                    tagged = self(pa.Table.from_batches([rb for _, rb in run]))
                except Exception as e:
                    failed.update((pos, e) for pos, _ in run)
            dead.update(failed)
            out = Scanned(tagged, [pos for pos in done if pos not in failed], failed)
            run, done, failed = [], [], {}
            return out

        rows = size = 0
        for pos, rb in batches():
            if pos in dead:
                continue
            if rb is None:
                done.append(pos)
            elif isinstance(rb, Exception):
                failed[pos] = rb
                run = [(p, b) for p, b in run if p != pos]
                rows, size = sum(b.num_rows for _, b in run), sum(b.nbytes for _, b in run)
            else:
                if run and (rows + rb.num_rows > MAX_BATCH_ROWS
                            or size + rb.nbytes > BATCH_BYTES
                            or not rb.schema.equals(run[0][1].schema)):
                    yield flush()
                    rows = size = 0
                    if pos in dead:     # the call just flushed failed it
                        continue
                run.append((pos, rb))
                rows, size = rows + rb.num_rows, size + rb.nbytes
        if run or done or failed:
            yield flush()

    def __call__(self, batch: pa.Table) -> pa.Table:
        violations, partials = self.findings(batch)
        if partials is None:
            return violations
        partials = partials.rename_columns(["_pkey", *partials.column_names[1:]])
        return pa.concat_tables([violations, partials], promote_options="default")


def tagged_violations(t: pa.Table) -> pa.Table:
    """The violation rows of ``SuitePass`` output (every row when it
    holds no partials; none when Ray lost an empty output's columns)."""
    if "_pkey" in t.column_names:
        t = t.filter(pc.is_null(t.column("_pkey")))
    return t.select(VIOLATION_SCHEMA.names) if t.num_columns else empty_violations()


def tagged_partials(t: pa.Table) -> pa.Table:
    """The keyed partial rows of ``SuitePass`` output, key restored (no
    columns when it holds none)."""
    if "_pkey" not in t.column_names:
        return pa.table({})
    p = t.filter(pc.is_valid(t.column("_pkey"))).drop_columns(VIOLATION_SCHEMA.names)
    return p.rename_columns(["key", *p.column_names[1:]])


def _share_findings(paths: list[str], body: SuitePass) -> tuple[pa.Table, tuple[int, int]]:
    """The file route's task: ``body.scan`` of one share's files
    (``relational.shares``) as one stream, returned through the object
    store as one tagged table, without ``_part``, and its (rows, bytes);
    a file that fails raises.  The table is made contiguous: a chunk that
    ``promote_options`` padded with nulls pickles at about twice its
    bytes, which can push a small share's output past Ray's 100 KiB
    inline-return limit into the object store."""
    runs = []
    for run in body.scan(paths):
        if run.failed:
            raise next(iter(run.failed.values()))
        runs.append(run.tagged)
    tagged = pa.concat_tables([empty_violations(), *runs], promote_options="default")
    tagged = tagged.select([c for c in tagged.column_names if c != "_part"]).combine_chunks()
    return tagged, (tagged.num_rows, tagged.nbytes)


_share_task = ray.remote(num_returns=2)(_share_findings)


def _refs_on_tier(refs: list, on_driver: bool) -> "pa.Table | ray.data.Dataset":
    """Either route's tagged tables (object refs): pulled, or left on the
    cluster."""
    if on_driver:
        return pa.concat_tables(ray.get(refs), promote_options="default")
    return ray.data.from_arrow_refs(refs)


def merge_scan(
    size: tuple[int, int], read: Callable[[list, bool], "pa.Table | ray.data.Dataset"],
    pieces: list, plan: KeyedPlan, spec: ConstraintSpec,
    refs: Optional[dict[str, "ray.data.Dataset"]] = None,
    expected_keys: Optional["ray.data.Dataset"] = None,
    summary: Optional[dict] = None,
) -> SuiteResult:
    """The one gate-and-merge of every scan's output: pieces of
    ``SuitePass``'s tagged table, ``size`` (rows, bytes) in total (the
    file route's non-empty task tables, the blocks of the ``map_batches``
    route's materialized output, the partitioned runner's stored
    artifacts).  ``relational.
    fits_driver_merge`` picks the tier, ``read(pieces, on_driver)`` reads
    them on it once (a ``pa.Table`` on the driver, a Dataset of blocks on
    the cluster), ``tagged_violations`` / ``tagged_partials`` split
    them (on the cluster by one map each, run once into the result's
    refs), and the keyed pass merges the partials when ``plan`` has a
    key; ``summary["result_tier"]`` records the decision."""
    on_driver = relational.fits_driver_merge(size)
    gate = {"tier": "driver" if on_driver else "exchange",
            "rows": size[0], "bytes": size[1]}
    tagged = read(pieces, on_driver) if pieces else pa.table({})

    def split(fn: Callable[[pa.Table], pa.Table]) -> "pa.Table | ray.data.Dataset":
        if isinstance(tagged, pa.Table):
            return fn(tagged)
        return tagged.map_batches(fn, batch_format="pyarrow", batch_size=None)

    parts = [split(tagged_violations)]
    if plan.key is not None:
        parts.append(keyed_violations(split(tagged_partials), plan, spec, refs=refs,
                                      expected_keys=expected_keys))
    return SuiteResult.of(parts, {**(summary or {}), "result_tier": gate})


def _suite_pass(spec: ConstraintSpec, names: set, checks: frozenset) -> SuitePass:
    """The ``SuitePass`` of the row-level ``checks`` over columns ``names``."""
    plan = (keyed_plan(spec, names, "decode" in checks) if "keyed" in checks
            else KeyedPlan(None))
    return SuitePass(spec, names, plan, checks,
                     frozenset(u.predicate for u in spec.universals))


def scan_partitions(
    partitions: list[str],
    names: set,
    spec: ConstraintSpec,
    checks: frozenset,
    refs: Optional[dict[str, "ray.data.Dataset"]] = None,
    expected_keys: Optional["ray.data.Dataset"] = None,
    store: Optional[CheckpointStore] = None,
) -> SuiteResult:
    """The file route of the row-level ``checks`` over ``partitions``
    (parquet files or Lance fragment ids with columns ``names``): one
    task per ``relational.shares`` cut, then ``merge_scan`` of the tasks'
    tables, or with a ``store`` of its artifacts
    (``partitioned.stored_findings``; ``summary`` adds partition counts)."""
    body = _suite_pass(spec, names, checks)
    if store is not None:
        from .partitioned import stored_findings    # partitioned imports us
        size, read, pieces, summary = stored_findings(partitions, spec, checks,
                                                      body.plan, store)
    elif not body.columns:      # no selected check reads a column the files have
        return SuiteResult()
    else:
        outs = [_share_task.remote(share, body) for share in relational.shares(partitions)]
        sizes = ray.get([size for _, size in outs])
        size = (sum(n for n, _ in sizes), sum(b for _, b in sizes))
        pieces = [t for (t, _), (n, _) in zip(outs, sizes) if n]
        read, summary = _refs_on_tier, None
    return merge_scan(size, read, pieces, body.plan, spec, refs=refs,
                      expected_keys=expected_keys, summary=summary)


def scan_checks(
    ds: "ray.data.Dataset",
    spec: ConstraintSpec,
    checks: frozenset,
    refs: Optional[dict[str, "ray.data.Dataset"]] = None,
    expected_keys: Optional["ray.data.Dataset"] = None,
    store: Optional[CheckpointStore] = None,
) -> SuiteResult:
    """The violations of the row-level ``checks`` (a subset of
    ``ROW_CHECKS``) from ONE scan of ``ds`` (``SuitePass`` per batch),
    then the keyed merge.  Expected keys are read from their ``key``
    column.

    A plain parquet read takes the file route (``scan_partitions``, with
    ``store``); any other Dataset runs as one ``map_batches`` whose
    tagged output is materialized, and refuses a ``store``.  Either way
    ``merge_scan`` gates, splits and merges the output."""
    names = set(arrow_schema(ds).names)
    files = parquet_read_files(ds)
    if files is not None:
        return scan_partitions(files, names, spec, checks, refs=refs,
                               expected_keys=expected_keys, store=store)
    if store is not None:
        raise ValueError(f"checkpoint store {store.root}: its resume unit is a file, so it "
                         "needs a plain parquet read (local files, no filter= or partition "
                         "columns); this Dataset is not one")
    body = _suite_pass(spec, names, checks)
    if not body.columns:        # no selected check reads a column ds has
        return SuiteResult()
    mat = ds.select_columns(body.columns).map_batches(
        body, batch_format="pyarrow", batch_size=body.batch_size).materialize()
    return merge_scan((mat.count(), mat.size_bytes() or 0), _refs_on_tier,
                      mat.to_arrow_refs(), body.plan, spec, refs=refs,
                      expected_keys=expected_keys)


def run_suite(
    ds: "ray.data.Dataset",
    spec: ConstraintSpec,
    refs: Optional[dict[str, "ray.data.Dataset"]] = None,
    expected_keys: Optional["ray.data.Dataset"] = None,
    decode: bool = False,
    metadata_ds: Optional["ray.data.Dataset"] = None,
    decode_profile: str = "light",
) -> SuiteResult:
    """Run every check of ``spec`` against ``ds``: the registry's run of
    ``SUITE``, so the driver-side checks plus ONE scan of ``ds``.

    decode=True adds the ``decode`` entry: every payload goes through the
    decode check in the same scan (its header and data chunk: everything
    ``audio.decode_ints`` can reject; universal predicates, bytes facets,
    DECODE-100/101 and the decodable existential come from it); without
    it the stateless pass sniffs payload headers instead.

    ``metadata_ds`` is accepted and unused: the one scan of ``ds`` reads
    every column the checks need.  ``decode_profile`` is accepted and
    unused: the decode kernel computes no QA features.
    """
    from ..checks.registry import RunContext, plan_checks   # registry imports us
    return plan_checks(RunContext(ds, spec, refs=refs, expected_keys=expected_keys),
                       [*SUITE, *(["decode"] if decode else [])])
