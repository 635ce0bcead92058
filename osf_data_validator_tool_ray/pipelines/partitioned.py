"""Resumable partitioned validation — the production entry path.

Input layout: a directory of parquet files (Lance fragments when Lance
is available); ONE FILE = ONE PARTITION = the resume/lineage unit.

Per share of incomplete partitions (a partition whose checkpoint record
is done is skipped):
  1. ONE streamed scan of the share's partitions through the suite's own
     body: ``runner.SuitePass.scan``, the loop the suite's file route
     runs over a share of a plain parquet read (stateless facets, decode
     findings with decode=True, keyed combiner partials).  It opens the
     partitions one at a time (the footer that gives a partition's
     schema and row count is the one it reads), reads record batches of
     about ``runner.READ_BYTES`` and checks runs of up to
     ``runner.BATCH_BYTES`` across partition boundaries: a share of
     small files is one ``findings`` call per run, not one per file.  A
     new scan starts wherever the column set changes.  Every batch
     carries its partition's position (``_part``), and so does every
     violation and partial row (partials are grouped per key AND
     partition), so the findings stay each partition's own
  2. each run's tagged table (its violation rows and its grouped-
     constraint PARTIAL aggregates per key, decodable count included:
     the combiner half of the two-phase aggregate, stored so the global
     merge never needs the raw rows again) is split by ``_part`` into
     its partitions' artifacts, ``artifacts/<pid>/findings.arrow``
     (``_part`` dropped): one uncompressed Arrow IPC file writer per
     partition on a temp file in that directory, one record batch per
     run, renamed once (no file when the partition found nothing).  The
     artifacts are internal tables written once and read whole, so
     Parquet's encodings and decoder would cost more than their rows.
     Task memory holds one run of findings, never a partition's whole
     set
  3. once the run holding a partition's last batch is written and the
     file closed: its metrics + lineage record, naming the artifact ->
     checkpoint store (atomic)

Execution model: ONE Ray task per contiguous SHARE of the incomplete
partitions (``relational.shares``, as in the suite's file route: one per
CPU slot unless the files are large, one per Lance fragment).  The share
is the unit of work and the partition stays the unit of resume: a share
task scans its partitions as one stream and records each partition as
soon as its findings are written, so a task's scheduling (a no-op
task's round trip measured 1.8-4.6 ms on a 1-vCPU host) and a
``findings`` call's fixed cost are paid once per share and once per
run, not once per small partition.  A record's
``runtime_s`` runs from the partition's open to its record, so a run
shared with neighbours counts in each of them.  Failure rules: a
partition whose open, read or artifact write fails fails alone (its
batches leave their run and its temp file is removed; the others are
recorded); a ``findings`` call that raises fails every partition in its
run; the share re-raises its first error after its last partition, and
skips partitions already recorded when Ray retries it; the driver waits
for every share before it re-raises.  Reads are pruned AT THE SCAN and
streamed (iter_batches(columns=...) reads only the columns the body
touches).  The store root must be on a filesystem all workers share —
same contract as the artifact sinks.

Final merge (cheap, always re-run; reads only the artifacts the
records name, their IPC metadata and the first partition's footer):
  * it fails closed: a record without an ``artifact`` field (a store of
    the old two-artifact layout), a record naming an artifact that is
    not a ``findings.arrow`` (a store of the old Parquet-artifact
    layout), a named artifact that is missing, and partials stored under
    another spec or decode setting (an artifact holding ``_pkey`` lacks
    a planned count column, read off its schema) each raise a
    ``ValueError``
  * each artifact's IPC metadata, read through a memory map unmapped at
    once (``artifact_meta``: no data page read, and no map outlives the
    merge), gives its schema, rows and bytes, and the suite's one
    gate-and-merge (``runner.merge_scan``, which ``runner.scan_checks``
    runs on either route's tagged output) does the rest: below the
    driver gate (``relational.fits_driver_merge``) the artifacts are
    read into owned memory (``read_artifacts``), split and merged in
    process, else read by one plain Ray task per share of them
    (``relational.shares``, as in the suite's file route), handed to
    ``ray.data.from_arrow_refs`` and split and merged on the cluster;
    ``summary["result_tier"]`` records the decision
  * all partitions' partials go through the suite's own keyed pass
    (checks/unified_keyed.keyed_violations): ONE merge per key yields
    cardinality, existential (the decodable count included) and
    referential-existence verdicts (these hold GLOBALLY across
    partitions — duplicate clip_ids in different partitions are caught
    here, which a purely per-partition design would miss)
  * with the suite's driver checks (runner.driver_checks: schema
    conformance, spec completeness, -50 unevaluable warnings, over the
    first partition's Arrow schema) and the stored per-partition
    violations -> a SuiteResult (``run_partitioned``) whose ``summary``
    carries the partition counts; ``validate_partitioned`` returns its
    report, built by SuiteResult.report as the suite's is (without a
    violation sample; below the gate the merge runs no Ray Data
    execution, and a refs table that is a plain parquet read is read by
    its files)

Pass/fail is decided by ERROR-severity violations only; warnings are
counted separately (the reference's -5x warning / -10x error id split).

This mirrors the reference's accumulate-then-report lifecycle (dvt:167,
174-191) with crash-resume added (the reference restarts from scratch —
SURVEY.md §4).
"""

from __future__ import annotations

import itertools
import os
import time
import uuid
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..checks.unified_keyed import KeyedPlan, keyed_plan
from ..sources.io import Partition
from ..spec import ConstraintSpec
from ..state.checkpoint import CheckpointStore
from . import relational
from .runner import ROW_CHECKS, SuitePass, SuiteResult, driver_checks, merge_scan

# the one artifact file a partition with findings leaves in its directory
ARTIFACT = "findings.arrow"


def _partition_id(partition: str) -> str:
    """Checkpoint-record id of a partition.  Lance ``<path>#<frag>`` ids
    map to ``<stem>_frag<frag>`` so every fragment gets its own record
    (a bare splitext would collapse all fragments of one table)."""
    if "#" in partition and partition.rsplit("#", 1)[0].endswith(".lance"):
        path, frag = partition.rsplit("#", 1)
        stem = os.path.splitext(os.path.basename(path))[0]
        return f"{stem}_frag{frag}"
    return os.path.splitext(os.path.basename(partition))[0]


class _Findings:
    """One partition's artifact in the making: the tagged rows split out
    of its share's runs stream into ONE uncompressed Arrow IPC file
    writer on a temp file in its artifact directory, one record batch per
    run (opened at its first row, so a partition where every row violates
    holds one run of findings in task memory, never its whole set),
    renamed to ``ARTIFACT`` once when the partition is recorded."""

    def __init__(self, store: CheckpointStore, path: str):
        self.t0, self.store, self.path = time.time(), store, path
        self.part = Partition(path)     # the open: its footer is the one scanned
        self.pid = _partition_id(path)
        os.makedirs(store.artifact_dir(self.pid), exist_ok=True)
        self.tmp = os.path.join(store.artifact_dir(self.pid),
                                f"_tmp_{uuid.uuid4().hex}.arrow")
        self.writer, self.schema, self.n_err, self.n_warn = None, None, 0, 0

    def write(self, tagged: pa.Table) -> None:
        sev = tagged.column("severity")
        self.n_err += pc.sum(pc.equal(sev, "error")).as_py() or 0
        self.n_warn += pc.sum(pc.equal(sev, "warning")).as_py() or 0
        if self.writer is None:
            self.schema = tagged.schema
            self.writer = pa.ipc.new_file(self.tmp, self.schema)
        elif tagged.schema != self.schema:
            tagged = tagged.select(self.schema.names).cast(self.schema)
        self.writer.write_table(tagged.combine_chunks())

    def record(self) -> dict:
        """Rename the artifact into place and record the partition."""
        final = None
        if self.writer is not None:
            self.writer.close()
            self.writer = None
            final = os.path.join(self.store.artifact_dir(self.pid), ARTIFACT)
            os.replace(self.tmp, final)
        return self.store.record(self.pid, {
            "n_rows": self.part.num_rows, "lineage": self.path,
            "n_violations": self.n_err, "n_warnings": self.n_warn,
            "pass": self.n_err == 0, "runtime_s": time.time() - self.t0,
            "artifact": None if final is None else os.path.relpath(final, self.store.root)})

    def discard(self) -> None:
        """Close and remove the temp file: no writer or file is left."""
        if self.writer is not None:
            self.writer.close()
            self.writer = None
        if os.path.exists(self.tmp):
            os.remove(self.tmp)


class ArtifactMeta(NamedTuple):
    """What an artifact's IPC metadata says, no data page read."""
    schema: pa.Schema
    num_record_batches: int
    num_rows: int
    nbytes: int


def artifact_meta(path: str) -> ArtifactMeta:
    """An artifact's schema, batch count, rows and buffer bytes, read
    through a memory map that is unmapped before this returns: no batch
    read here outlives the call, so the merge holds no map of the store
    (a store can hold more partitions than ``vm.max_map_count``)."""
    with pa.memory_map(path) as source:
        reader = pa.ipc.open_file(source)
        batches = [reader.get_batch(i) for i in range(reader.num_record_batches)]
        return ArtifactMeta(reader.schema, len(batches),
                            sum(b.num_rows for b in batches),
                            sum(b.get_total_buffer_size() for b in batches))


def read_artifacts(paths: list[str]) -> pa.Table:
    """Artifacts' rows as ONE table in owned memory (no memory map, so a
    result built from it outlives the store)."""
    tables = []
    for path in paths:
        with pa.OSFile(path) as source:
            tables.append(pa.ipc.open_file(source).read_all())
    return pa.concat_tables(tables, promote_options="default")


def _by_partition(tagged: pa.Table) -> Iterator[tuple[int, pa.Table]]:
    """A run's tagged table split by ``_part``: (position, its rows
    without ``_part``) per position present, every row given to exactly
    one.  A row without a position is an emitter's fault and raises."""
    if not tagged.num_rows:
        return
    if "_part" not in tagged.column_names or tagged.column("_part").null_count:
        raise ValueError("a scan's tagged row has no _part: an emitter dropped it")
    pos = tagged.column("_part").to_numpy()
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    rows = tagged.drop_columns(["_part"]).combine_chunks()
    firsts = np.flatnonzero(np.r_[True, pos[1:] != pos[:-1]])
    for a, b in zip(firsts, [*firsts[1:], len(pos)]):
        # a take per partition, not slices of one take: the IPC writer
        # keeps the whole validity bitmap of a slice at offset 0, so an
        # artifact's bytes (and the merge gate's) would depend on the run
        # it shared
        yield int(pos[a]), rows.take(order[a:b])


def _run_share(paths: list[str], spec: ConstraintSpec, store_root: str, decode: bool,
               plan: KeyedPlan, declared_universals: frozenset) -> list[dict]:
    """Validate one contiguous share of partitions (``relational.shares``,
    parquet files or Lance fragment ids) in one Ray task, with no nested
    Ray Data execution; returns their records, in order.  The partitions
    not yet recorded (an earlier attempt may have recorded some) are
    opened one at a time and scanned as ONE stream per stretch with one
    column set (steps 1-3 above); each run's table is split by ``_part``
    into its partitions' ``_Findings``, and a partition is recorded once
    the run holding its last batch is written.  Failures follow the
    module's rules; a tagged row without ``_part`` is an emitter's fault,
    which the split raises at once, its share's temp files removed."""
    store = CheckpointStore(store_root)
    recs = {i: r for i, r in enumerate(store.completed_record(_partition_id(p))
                                       for p in paths) if r is not None}
    checks = ROW_CHECKS if decode else ROW_CHECKS - {"decode"}
    inflight: dict[int, _Findings] = {}
    errors: list[Exception] = []

    def fail(i: int, e: Exception) -> None:
        errors.append(e)
        f = inflight.pop(i, None)
        if f is not None:
            f.discard()

    def step(i: int, fn: Callable[[_Findings], object]) -> object:
        """``fn`` of partition ``i``'s findings unless it failed; a raise
        fails it."""
        if i in inflight:
            try:
                return fn(inflight[i])
            except Exception as e:
                fail(i, e)
        return None

    def opened() -> Iterator[tuple[int, Partition]]:
        for i, path in enumerate(paths):
            if i not in recs:
                try:
                    inflight[i] = _Findings(store, path)
                except Exception as e:
                    fail(i, e)
                    continue
                yield i, inflight[i].part

    try:
        for names, group in itertools.groupby(
                opened(), key=lambda ip: frozenset(ip[1].schema.names)):
            body = SuitePass(spec, names, plan, checks, declared_universals)
            share = []      # the share index of each position the scan reads
            for run in body.scan(share.append(i) or part for i, part in group):
                for pos, e in run.failed.items():
                    fail(share[pos], e)
                for pos, rows in _by_partition(run.tagged):
                    step(share[pos], lambda f: f.write(rows))
                for i in map(share.__getitem__, run.done):
                    rec = step(i, _Findings.record)
                    if rec is not None:
                        recs[i] = rec
                        del inflight[i]
    finally:
        for f in inflight.values():
            f.discard()
    if errors:
        raise errors[0]
    return [recs[i] for i in sorted(recs)]


# one Ray task per share; _run_share stays directly callable so the
# share wiring is testable in-process (e.g. with a stub Lance backend
# that exists only in the driver's module table)
_share_task = ray.remote(_run_share)
_read_task = ray.remote(read_artifacts)


def run_partitioned(
    input_glob: str,
    spec: ConstraintSpec,
    store: CheckpointStore,
    decode: bool = False,
    refs: Optional[dict[str, "ray.data.Dataset"]] = None,
) -> SuiteResult:
    """Run/resume the partitioned validation; returns the merged result.

    The partitions without a complete record run in contiguous shares
    (``relational.shares``), one Ray task each, which record their
    partitions one by one: resume granularity stays one partition.
    Every share finishes before the first failure is re-raised.

    ``input_glob`` may be a parquet glob/dir or a Lance table path
    (``*.lance``): Lance tables list one partition per FRAGMENT via
    ``sources.io.partition_files``, and each fragment gets a task and a
    record of its own — the fragment is the resume/lineage unit
    end-to-end.
    """
    from ..sources.io import partition_files

    files = partition_files(input_glob)
    if not files:
        raise FileNotFoundError(f"no input files match {input_glob}")
    # every complete record, read once: the done set, the summary and the
    # artifact files come from it
    done = {r["partition_id"]: r for r in store.records()}

    # the keyed plan is made against the FIRST partition's schema (all
    # partitions of one table share it) so the partials' positional
    # card{i}_n / ext{j}_n / dext{j}_n columns stay consistent across
    # partitions.  NOTE: one store assumes one spec and decode setting
    # across its lifetime (those positions follow the plan); the merge
    # refuses stored partials that lack a planned column.
    schema0 = Partition(files[0]).schema
    plan = keyed_plan(spec, set(schema0.names), decode)
    declared_universals = frozenset(u.predicate for u in spec.universals)

    todo = [p for p in files if _partition_id(p) not in done]
    n_skipped = len(files) - len(todo)
    if todo:
        outs = [_share_task.remote(share, spec, store.root, decode, plan,
                                   declared_universals)
                for share in relational.shares(todo)]
        ray.wait(outs, num_returns=len(outs))   # every share ends first
        done.update((r["partition_id"], r)
                    for share in ray.get(outs) for r in share)   # re-raises
    recs = [done[pid] for pid in sorted(done)]

    # ---- global merge (always re-run; reads only stored artifacts) -------
    metas = {}
    for r in recs:
        if "artifact" not in r:
            raise ValueError(
                f"checkpoint store {store.root}: the record of partition "
                f"{r['partition_id']} has no artifact field, so it was written by "
                "the old two-artifact layout (violations/ and partials/ dirs); "
                "validate into a new store")
        if r["artifact"] is None:
            continue
        path = os.path.join(store.root, r["artifact"])
        if os.path.basename(path) != ARTIFACT:
            raise ValueError(
                f"checkpoint store {store.root}: the record of partition "
                f"{r['partition_id']} names the artifact {r['artifact']}, not a "
                f"{ARTIFACT}, so it was written by the old Parquet-artifact layout; "
                "validate into a new store")
        try:
            metas[path] = artifact_meta(path)
        except FileNotFoundError:
            raise ValueError(
                f"checkpoint store {store.root}: partition {r['partition_id']} "
                f"is recorded done but its artifact {path} is missing; "
                "remove its record to validate it again") from None
    missing = set().union(*(set(plan.sum_columns) - set(m.schema.names)
                            for m in metas.values() if "_pkey" in m.schema.names))
    if missing:
        raise ValueError(
            f"checkpoint store {store.root} holds partials without "
            f"{sorted(missing)}: written under another spec or decode setting")

    def read(files: list[str], on_driver: bool) -> "pa.Table | ray.data.Dataset":
        """Stored artifacts: read in process, or by one task per share of
        them (``relational.shares``) left on the cluster as a Dataset."""
        if on_driver:
            return read_artifacts(files)
        return ray.data.from_arrow_refs([_read_task.remote(share)
                                         for share in relational.shares(files)])

    summary = {
        "partitions_total": len(files), "partitions_skipped": n_skipped,
        "partitions_ran": len(todo),
        "n_rows": sum(r.get("n_rows", 0) for r in recs),
        "partitions": {
            r["partition_id"]: {"pass": r.get("pass", True),
                                "n_violations": r.get("n_violations", 0),
                                "n_warnings": r.get("n_warnings", 0),
                                "n_rows": r.get("n_rows", 0),
                                "lineage": r.get("lineage")}
            for r in recs
        },
    }
    size = (sum(m.num_rows for m in metas.values()), sum(m.nbytes for m in metas.values()))
    return merge_scan(size, read, list(metas),
                      plan, spec, refs=refs,
                      checks=(driver_checks(schema0, spec, refs),), summary=summary)


def validate_partitioned(
    input_glob: str,
    spec: ConstraintSpec,
    store: CheckpointStore,
    decode: bool = False,
    refs: Optional[dict[str, "ray.data.Dataset"]] = None,
) -> dict:
    """``run_partitioned``'s report, without a violation sample."""
    return run_partitioned(input_glob, spec, store, decode, refs).report(sample=0)
