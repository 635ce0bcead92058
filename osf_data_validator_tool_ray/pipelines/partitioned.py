"""The checkpoint store half of the one file route: resumable validation.

Who calls what: ``runner.scan_partitions`` is the file route of every
scan.  Given a ``CheckpointStore`` (``RunContext.store``, the CLI's
``--checkpoint-dir``) it hands the partitions to ``stored_findings``
here instead of submitting its store-less share tasks, and runs the same
``runner.merge_scan`` on what comes back.  ``run_partitioned`` /
``validate_partitioned`` are that route for the built-in suite over a
parquet glob/dir or a Lance table, with no Ray Dataset built: a
partition's footer gives the column names, and the suite's driver checks
(``runner.driver_checks``) run over its schema.  ONE FILE (or Lance
FRAGMENT) = ONE PARTITION = the resume/lineage unit.

``stored_findings`` fails closed before any task runs (two partitions
with one record id; a stored record of an older layout, or scanned with
another row-check set, its decode setting included), then runs ONE Ray
task per contiguous SHARE of the partitions without a complete record
(``relational.shares``: one per CPU slot unless the files are large, one
per Lance fragment).  A share task (``_run_share``):
  1. scans its partitions as ONE stream through the suite's own body
     (``runner.SuitePass.scan``, the loop of the store-less share task):
     record batches of about ``runner.READ_BYTES``, checked in runs of up
     to ``runner.BATCH_BYTES`` across partition boundaries (a new scan
     where the column set changes), every row tagged with its
     partition's position (``_part``; partials are grouped per key AND
     partition), so the findings stay each partition's own
  2. splits each run's tagged table (violation rows and keyed PARTIAL
     aggregates, the combiner half of the two-phase aggregate, so the
     merge never needs the raw rows again) by ``_part`` into one
     artifact per partition, ``artifacts/<pid>/findings.arrow``: an
     uncompressed Arrow IPC file (internal tables written once and read
     whole; Parquet's encodings would cost more than their rows), one
     record batch per run, written to a temp file and renamed once (no
     file when the partition found nothing).  Task memory holds one run
     of findings, never a partition's whole set
  3. records each partition (metrics, lineage, its row-check set and the
     artifact's name) atomically once the run holding its last batch is
     written; ``runtime_s`` runs from its open, so a shared run counts in
     each of its partitions.
Failure rules: a partition whose open, read or artifact write fails
fails alone (its temp file removed; the others are recorded); a
``findings`` call that raises fails every partition in its run; the
share re-raises its first error after its last partition and skips
partitions already recorded when Ray retries it; the driver waits for
every share before it re-raises.  The store root must be on a
filesystem all workers share.

The merge (always re-run) reads only the artifacts the run's records name.
Each one's IPC metadata, read through a memory map unmapped at once
(``artifact_meta``: no map outlives the merge), gives its schema, rows
and bytes; a named artifact that is missing, or partials without a
planned count column (another spec), raise a ``ValueError``.
``merge_scan`` gates them: below ``relational.fits_driver_merge``
``read_artifacts`` reads them into owned memory, else one plain task per
share of them does and the refs go to ``ray.data.from_arrow_refs``.  The
keyed pass merges every partition's partials, so cardinality,
existential and referential verdicts hold GLOBALLY (duplicate clip_ids
in different partitions are caught).  The summary carries the partition
counts; ``validate_partitioned`` returns the report without a violation
sample.

This mirrors the reference's accumulate-then-report lifecycle (dvt:167,
174-191) with crash-resume added (the reference restarts from scratch —
SURVEY.md §4).
"""

from __future__ import annotations

import itertools
import os
import time
import uuid
from dataclasses import replace
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..checks.unified_keyed import KeyedPlan
from ..sources.io import Partition
from ..spec import ConstraintSpec
from ..state.checkpoint import CheckpointStore
from . import relational
from .runner import (ROW_CHECKS, SUITE, SuitePass, SuiteResult, driver_checks,
                     scan_partitions)

# the one artifact file a partition with findings leaves in its directory
ARTIFACT = "findings.arrow"
# the record fields the summary reports per partition
_SUMMARY_FIELDS = ("pass", "n_violations", "n_warnings", "n_rows", "lineage")


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

    def __init__(self, store: CheckpointStore, path: str, checks: frozenset):
        self.t0, self.store, self.path, self.checks = time.time(), store, path, checks
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
            "checks": sorted(self.checks),
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


def _run_share(paths: list[str], spec: ConstraintSpec, store_root: str, checks: frozenset,
               plan: KeyedPlan, declared_universals: frozenset) -> list[dict]:
    """Validate one contiguous share of partitions (``relational.shares``,
    parquet files or Lance fragment ids) for the row-level ``checks`` in
    one Ray task, with no nested Ray Data execution; returns their
    records, in order: steps 1-3 above over the partitions not yet
    recorded (an earlier attempt may have recorded some).  Failures
    follow the module's rules; a tagged row without ``_part`` is an
    emitter's fault, which the split raises at once, its share's temp
    files removed."""
    store = CheckpointStore(store_root)
    recs = {i: r for i, r in enumerate(store.completed_record(_partition_id(p))
                                       for p in paths) if r is not None}
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
                    inflight[i] = _Findings(store, path, checks)
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


def _artifact(store: CheckpointStore, rec: dict, checks: frozenset) -> Optional[str]:
    """The path of the artifact a complete record names (None when it
    found nothing).  A record of an older layout, or one scanned with
    another row-check set (decode included) or none recorded, raises."""
    where = f"checkpoint store {store.root}: the record of partition {rec['partition_id']}"
    if "artifact" not in rec:
        raise ValueError(
            f"{where} has no artifact field, so it was written by the old "
            "two-artifact layout (violations/ and partials/ dirs); validate into a new store")
    if rec["artifact"] is not None and os.path.basename(rec["artifact"]) != ARTIFACT:
        raise ValueError(
            f"{where} names the artifact {rec['artifact']}, not a {ARTIFACT}, so it was "
            "written by the old Parquet-artifact layout; validate into a new store")
    if rec.get("checks") != sorted(checks):
        raise ValueError(
            f"{where} was scanned with the row checks {rec.get('checks')}, not this "
            f"run's {sorted(checks)} (another check set or decode setting); validate "
            "into a new store")
    return None if rec["artifact"] is None else os.path.join(store.root, rec["artifact"])


def _read_stored(files: list[str], on_driver: bool) -> "pa.Table | ray.data.Dataset":
    """Stored artifacts, read in process or by one task per ``shares`` cut."""
    if on_driver:
        return read_artifacts(files)
    return ray.data.from_arrow_refs([_read_task.remote(share)
                                     for share in relational.shares(files)])


def stored_findings(partitions: list[str], spec: ConstraintSpec, checks: frozenset,
                    plan: KeyedPlan, store: CheckpointStore) -> tuple:
    """The store half of ``runner.scan_partitions``: checks the partitions
    and the stored records, runs one share task per ``relational.shares``
    cut of the partitions ``store`` has not recorded (every share ends
    before the first failure is re-raised), and returns ``merge_scan``'s
    (size, read, pieces) over the artifacts its partitions' records name
    (no other record's), with their summary (see the module's rules)."""
    seen: dict[str, str] = {}
    for p in partitions:
        pid = _partition_id(p)
        if pid in seen:
            raise ValueError(
                f"checkpoint store {store.root}: the partitions {seen[pid]} and {p} map "
                f"to one record id {pid!r}, so one would replace the other's findings; "
                "give each input file its own base name")
        seen[pid] = p
    # the run's complete records, read once: the done set, the summary and
    # the artifact files come from them
    done = {pid: r for pid in seen if (r := store.completed_record(pid)) is not None}
    for r in done.values():     # fail closed before any task runs
        _artifact(store, r, checks)
    todo = [p for pid, p in seen.items() if pid not in done]
    if todo:
        universals = frozenset(u.predicate for u in spec.universals)
        outs = [_share_task.remote(share, spec, store.root, checks, plan, universals)
                for share in relational.shares(todo)]
        ray.wait(outs, num_returns=len(outs))   # every share ends first
        done.update((r["partition_id"], r)
                    for share in ray.get(outs) for r in share)   # re-raises
    recs = [done[pid] for pid in sorted(done)]

    metas = {}
    for r in recs:
        path = _artifact(store, r, checks)
        try:
            if path is not None:
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

    summary = {"partitions_total": len(partitions), "partitions_ran": len(todo),
               "partitions_skipped": len(partitions) - len(todo),
               "n_rows": sum(r["n_rows"] for r in recs),
               "partitions": {r["partition_id"]: {k: r[k] for k in _SUMMARY_FIELDS}
                              for r in recs}}
    size = (sum(m.num_rows for m in metas.values()), sum(m.nbytes for m in metas.values()))
    return size, _read_stored, list(metas), summary


def run_partitioned(
    input_glob: str,
    spec: ConstraintSpec,
    store: CheckpointStore,
    decode: bool = False,
    refs: Optional[dict[str, "ray.data.Dataset"]] = None,
) -> SuiteResult:
    """Run/resume the built-in suite (``runner.SUITE``, plus ``decode``)
    over the partitions of ``input_glob`` (a parquet glob/dir, or a Lance
    table path whose FRAGMENTS are its partitions: ``sources.io.
    partition_files``) with ``store``; returns the merged result."""
    from ..sources.io import partition_files

    files = partition_files(input_glob)
    if not files:
        raise FileNotFoundError(f"no input files match {input_glob}")
    # the FIRST partition's columns plan the keyed partials of all (one
    # table's partitions share them): positional count columns agree
    schema0 = Partition(files[0]).schema
    checks = ROW_CHECKS & frozenset([*SUITE, *(["decode"] if decode else [])])
    res = scan_partitions(files, set(schema0.names), spec, checks, refs=refs, store=store)
    return replace(res, violations=pa.concat_tables(
        [driver_checks(schema0, spec, refs), res.violations]))


def validate_partitioned(
    input_glob: str,
    spec: ConstraintSpec,
    store: CheckpointStore,
    decode: bool = False,
    refs: Optional[dict[str, "ray.data.Dataset"]] = None,
) -> dict:
    """``run_partitioned``'s report, without a violation sample."""
    return run_partitioned(input_glob, spec, store, decode, refs).report(sample=0)
