"""Resumable partitioned validation — the production entry path.

Input layout: a directory of parquet files (Lance fragments when Lance
is available); ONE FILE = ONE PARTITION = the resume/lineage unit.

Per incomplete partition (skipped when its checkpoint record is done):
  1. ONE streamed scan of the partition through the suite's own body:
     ``runner.SuitePass.scan``, the loop the suite's file route runs over
     a share of a plain parquet read (stateless facets, decode findings
     with decode=True, keyed combiner partials), here over one partition
     so that its artifacts and counts stay its own.  The scan reads
     record batches of about ``runner.READ_BYTES`` (rows from the footer
     the partition was opened with) and checks runs of up to
     ``runner.BATCH_BYTES``: a small file is one ``findings`` call
  2. the scan's tagged tables (its violation rows and its grouped-
     constraint PARTIAL aggregates per key, decodable count included:
     the combiner half of the two-phase aggregate, stored so the global
     merge never needs the raw rows again) stream into ONE artifact,
     ``artifacts/<pid>/findings.parquet``: one ParquetWriter on a temp
     file in that directory, renamed once (no file when the partition
     found nothing)
  3. metrics + lineage record, naming the artifact -> checkpoint store
     (atomic)

Execution model: ONE Ray task per contiguous SHARE of the incomplete
partitions (``relational.shares``, as in the suite's file route: one per
CPU slot unless the files are large, one per Lance fragment).  The share
is the unit of parallelism and the partition stays the unit of resume:
a share task runs the steps above for each of its partitions in turn,
recording each as it finishes, so a task's ~10 ms of scheduling is paid
once per slot rather than once per small partition.  A share records
every healthy partition before it re-raises the first failure, skips
partitions already recorded when Ray retries it, and the driver waits
for every share before it re-raises.  Reads are pruned AT THE SCAN and
streamed (iter_batches(columns=...) reads only the columns the body
touches).  The store root must be on a filesystem all workers share —
same contract as the artifact sinks.

Final merge (cheap, always re-run; reads only the artifacts the
records name, their parquet footers and the first partition's footer):
  * it fails closed: a record without an ``artifact`` field (a store of
    the old two-artifact layout), a named artifact that is missing, and
    partials stored under another spec or decode setting (an artifact
    holding ``_pkey`` lacks a planned count column, read off the
    footers) each raise a ``ValueError``
  * the artifacts' footers give their rows and bytes, and the suite's
    one gate-and-merge (``runner.merge_scan``, which ``runner.
    scan_checks`` runs on either route's tagged output) does the rest:
    below the driver gate (``relational.fits_driver_merge``) the
    artifacts are read with pyarrow through those footers, split and
    merged in process, else read once as a materialized Ray Dataset and
    split and merged on the cluster; ``summary["result_tier"]`` records
    the decision
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

import os
import time
import uuid
from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ..checks.unified_keyed import KeyedPlan, keyed_plan
from ..sources.io import Partition, footer_size
from ..spec import ConstraintSpec
from ..state.checkpoint import CheckpointStore
from . import relational
from .runner import ROW_CHECKS, SuitePass, SuiteResult, driver_checks, merge_scan


def _partition_id(partition: str) -> str:
    """Checkpoint-record id of a partition.  Lance ``<path>#<frag>`` ids
    map to ``<stem>_frag<frag>`` so every fragment gets its own record
    (a bare splitext would collapse all fragments of one table)."""
    if "#" in partition and partition.rsplit("#", 1)[0].endswith(".lance"):
        path, frag = partition.rsplit("#", 1)
        stem = os.path.splitext(os.path.basename(path))[0]
        return f"{stem}_frag{frag}"
    return os.path.splitext(os.path.basename(partition))[0]


def _run_partition(
    path: str,
    spec: ConstraintSpec,
    store_root: str,
    decode: bool,
    plan: KeyedPlan,
    declared_universals: frozenset,
    bodies: Optional[dict] = None,
) -> dict:
    """Process ONE partition inside a share's Ray task: stream its
    batches through the vectorized kernels, write artifacts, record the
    checkpoint.  No nested Ray Data execution — at fleet scale the outer
    task fan-out IS the parallelism.  ``path`` is a partition id in
    either form ``sources.io.Partition`` accepts (parquet file path or
    Lance ``<path>#<fragment_id>``), so Lance fragments are first-class
    resume units here, not just in the listing.  The partition is opened
    once: the footer that gives its schema and row count is the one the
    scan reads.  ``bodies`` keeps the share's ``SuitePass`` per column
    set, built once for the partitions that share one.  A partition that
    fails leaves no temp artifact file or open writer behind."""
    store = CheckpointStore(store_root)
    pid = _partition_id(path)
    t0 = time.time()
    part = Partition(path)
    names = frozenset(part.schema.names)
    bodies = {} if bodies is None else bodies
    if names not in bodies:
        bodies[names] = SuitePass(spec, names, plan,
                                  ROW_CHECKS if decode else ROW_CHECKS - {"decode"},
                                  declared_universals)
    body = bodies[names]

    # one artifact: every tagged table streams into one ParquetWriter, so
    # a partition where every row violates holds one run of findings in
    # task memory, never its whole set; a temp file, renamed once
    art_dir = store.artifact_dir(pid)
    os.makedirs(art_dir, exist_ok=True)
    tmp = os.path.join(art_dir, f"_tmp_{uuid.uuid4().hex}.parquet")
    final = os.path.join(art_dir, "findings.parquet")
    writer, n_err, n_warn = None, 0, 0
    try:
        for tagged in body.scan([part]):
            sev = tagged.column("severity")
            n_err += pc.sum(pc.equal(sev, "error")).as_py() or 0
            n_warn += pc.sum(pc.equal(sev, "warning")).as_py() or 0
            if not tagged.num_rows:
                continue
            if writer is None:
                writer = pq.ParquetWriter(tmp, tagged.schema)
            elif tagged.schema != writer.schema:
                tagged = tagged.select(writer.schema.names).cast(writer.schema)
            writer.write_table(tagged)
    except BaseException:
        if writer is not None:
            writer.close()
            os.remove(tmp)
        raise
    if writer is not None:
        writer.close()
        os.replace(tmp, final)

    metrics = {"n_rows": part.num_rows, "lineage": path,
               "n_violations": n_err, "n_warnings": n_warn,
               "pass": n_err == 0, "runtime_s": time.time() - t0,
               "artifact": None if writer is None else os.path.relpath(final, store.root)}
    return store.record(pid, metrics)


def _run_share(paths: list[str], spec: ConstraintSpec, store_root: str,
               *args) -> list[dict]:
    """``_run_partition(path, spec, store_root, *args)`` for each partition
    of one contiguous share (``relational.shares``), in one Ray task;
    returns their records.  The partitions with one column set share one
    ``SuitePass``.  A partition already recorded (by an earlier attempt
    of this task) is skipped.  A partition that raises does not stop the
    share: every healthy one is recorded first, then the first error is
    re-raised."""
    store = CheckpointStore(store_root)
    bodies: dict = {}
    recs, error = [], None
    for path in paths:
        rec = store.completed_record(_partition_id(path))
        if rec is None:
            try:
                rec = _run_partition(path, spec, store_root, *args, bodies)
            except Exception as e:
                error = error or e
                continue
        recs.append(rec)
    if error is not None:
        raise error
    return recs


# one Ray task per share; _run_partition and _run_share stay directly
# callable so the per-partition wiring is testable in-process (e.g. with
# a stub Lance backend that exists only in the driver's module table)
_share_task = ray.remote(_run_share)


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
    footers = {}
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
        try:
            footers[path] = pq.read_metadata(path)
        except FileNotFoundError:
            raise ValueError(
                f"checkpoint store {store.root}: partition {r['partition_id']} "
                f"is recorded done but its artifact {path} is missing; "
                "remove its record to validate it again") from None
    missing = set().union(*(set(plan.sum_columns) - set(m.schema.names)
                            for m in footers.values() if "_pkey" in m.schema.names))
    if missing:
        raise ValueError(
            f"checkpoint store {store.root} holds partials without "
            f"{sorted(missing)}: written under another spec or decode setting")

    def read(files: list[str], on_driver: bool) -> "pa.Table | ray.data.Dataset":
        """Stored artifacts: read with pyarrow through the footers already
        read, or read once as a materialized Dataset on the cluster."""
        if not on_driver:
            return ray.data.read_parquet(files).materialize()
        return pa.concat_tables([pq.ParquetFile(f, metadata=footers[f]).read()
                                 for f in files], promote_options="default")

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
    return merge_scan(footer_size(list(footers.values())), read, list(footers),
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
