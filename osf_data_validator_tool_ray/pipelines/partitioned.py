"""Resumable partitioned validation — the production entry path.

Input layout: a directory of parquet files (Lance fragments when Lance
is available); ONE FILE = ONE PARTITION = the resume/lineage unit.

Per incomplete partition (skipped when its checkpoint record is done):
  1. fused stateless pass -> violations parquet artifact
  2. decode actor-pool pass -> decode violations artifact (optional)
  3. grouped-constraint PARTIAL aggregates per key -> partials artifact
     (the combiner half of the two-phase aggregate: stored, so the
     global merge never needs the raw rows again)
  4. metrics + lineage record -> checkpoint store (atomic)

Execution model: ONE Ray task per partition.  The partition is the unit
of parallelism — a fleet processes thousands of fragments concurrently,
each task streaming its file batch-by-batch through the same vectorized
kernels the Dataset path uses (StatelessValidator, _PartialAggregator,
BytesSuitePass).  This avoids paying a full Ray Dataset execution's
fixed cost (planning + scheduling + barrier) several times per
partition, which dominates when fragments are small; for large
fragments the in-task loop is memory-bounded (iter_batches streams).
Reads are branch-pruned AT THE SCAN: iter_batches(columns=...) reads
only what each branch touches, so the wide `bytes` column is never
decompressed unless the decode branch runs.  The checkpoint store's
atomic per-partition records keep resume semantics unchanged (store
root must be on a filesystem all workers share — same contract as the
artifact sinks).

Final merge (cheap, always re-run; reads only stored artifacts and the
first partition's footer):
  * the suite's driver checks (runner.driver_checks: schema
    conformance, spec completeness, -50 unevaluable warnings) over the
    first partition's Arrow schema
  * all partitions' partials go through the suite's own keyed pass
    (checks/unified_keyed.keyed_violations): ONE merge per key yields
    cardinality, existential and referential-existence verdicts
    (these hold GLOBALLY across partitions — duplicate clip_ids in
    different partitions are caught here, which a purely per-partition
    design would miss)
  * decode runs merge the stored decodable counts the same way
    (stages.decode_stage.existential_violations_from_partials)
  * union with stored per-partition violations -> a SuiteResult
    (``run_partitioned``) whose ``summary`` carries the partition
    counts; ``validate_partitioned`` returns its report, built by
    SuiteResult.report as the suite's is (without a violation sample,
    so the merge runs one Ray Data execution: the count)

Pass/fail is decided by ERROR-severity violations only; warnings are
counted separately (the reference's -5x warning / -10x error id split).

This mirrors the reference's accumulate-then-report lifecycle (dvt:167,
174-191) with crash-resume added (the reference restarts from scratch —
SURVEY.md §4).
"""

from __future__ import annotations

import glob
import os
import time
import uuid
from typing import Optional

import pyarrow as pa

import ray.data

from ..checks.base import union_all
from ..checks.unified_keyed import KeyedPlan, keyed_plan, keyed_violations
from ..sources.io import _cache_fsspec_http_import
from ..spec import ConstraintSpec
from ..stages.facet_stage import StatelessValidator, stateless_columns
from ..state.checkpoint import CheckpointStore
from .runner import SuiteResult, driver_checks

# concurrent partition threads issue Ray IO in parallel; make the
# path-resolver's per-call fsspec import race-free first
_cache_fsspec_http_import()

_BYTES_COLS = ("clip_id", "bytes", "transcript", "sr_hz", "dur_ms", "codec")


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
    batch_size: Optional[int],
    plan: KeyedPlan,
    declared_universals: frozenset,
) -> dict:
    """Process ONE partition inside one Ray task: stream the partition's
    batches through the vectorized kernels, write artifacts, record the
    checkpoint.  No nested Ray Data execution — at fleet scale the outer
    task fan-out IS the parallelism.  ``path`` is a partition id in
    either form ``sources.io.iter_partition_batches`` accepts (parquet
    file path or Lance ``<path>#<fragment_id>``), so Lance fragments are
    first-class resume units here, not just in the listing."""
    import pyarrow.parquet as pq

    from ..sources.io import iter_partition_batches, partition_schema_and_rows
    from ..stages.decode_stage import (
        BytesSuitePass, combined_ext_partials, combined_violations)

    store = CheckpointStore(store_root)
    pid = _partition_id(path)
    t0 = time.time()
    schema, n_rows = partition_schema_and_rows(path)   # metadata, no scan
    names = set(schema.names)
    have_bytes = decode and "bytes" in names

    tmp_base = os.path.join(store.root, f"_tmp_{pid}_{uuid.uuid4().hex[:6]}")

    # ---- branch-pruned column sets -------------------------------------
    skip = ("bytes",) if have_bytes else ()
    sl_cols = [c for c in stateless_columns(spec, skip_columns=skip,
                                            include_universals=True)
               if c in names]
    meta_cols = sorted((set(sl_cols) | set(plan.columns)) & names)

    sl = StatelessValidator(spec, skip_columns=skip, include_universals=True)
    agg = plan.aggregator() if plan.key in names else None

    class _ArtifactStream:
        """Incremental artifact writer: each appended table flushes
        straight into an open ParquetWriter, so a pathological
        partition (every row violating) holds at most one BATCH of
        violations in task memory, never the partition's whole
        violation set (round-2 verdict item #8)."""

        def __init__(self, suffix: str):
            self.dir = tmp_base + suffix
            os.makedirs(self.dir, exist_ok=True)
            self.writer = None
            self.schema = None
            self.n = 0

        def append(self, tbl: pa.Table) -> None:
            if tbl.num_rows == 0:
                return
            if self.writer is None:
                self.schema = tbl.schema
                self.writer = pq.ParquetWriter(
                    os.path.join(self.dir, "part-0.parquet"), self.schema)
            if tbl.schema != self.schema:
                tbl = tbl.select(self.schema.names).cast(self.schema)
            self.writer.write_table(tbl)
            self.n += tbl.num_rows

        def publish(self, kind: str) -> None:
            if self.writer is not None:
                self.writer.close()
            store.publish_artifact(pid, kind, self.dir)

    import pyarrow.compute as pc

    viol_stream = _ArtifactStream("_violations")
    part_stream = _ArtifactStream("_partials") if agg is not None else None
    n_err = n_warn = 0

    def _add_viol(tbl: pa.Table) -> None:
        nonlocal n_err, n_warn
        if tbl.num_rows:
            sev = tbl.column("severity")
            n_err += pc.sum(pc.cast(pc.equal(sev, "error"),
                                    pa.int64())).as_py() or 0
            n_warn += pc.sum(pc.cast(pc.equal(sev, "warning"),
                                     pa.int64())).as_py() or 0
        viol_stream.append(tbl)

    if meta_cols:
        for rb in iter_partition_batches(path, batch_size=batch_size or 65536,
                                         columns=meta_cols):
            t = pa.Table.from_batches([rb])
            _add_viol(sl(t.select([c for c in sl_cols if c in t.column_names])))
            if agg is not None:
                part_stream.append(agg(t))

    if have_bytes:
        # decode=True: ONE streamed scan of the payload column; small
        # batches keep the wide bytes rows within the task heap
        bp = BytesSuitePass(universal_predicates=declared_universals)
        bytes_cols = [c for c in _BYTES_COLS if c in names]
        ext_stream = _ArtifactStream("_extpartials")
        for rb in iter_partition_batches(path, batch_size=256,
                                         columns=bytes_cols):
            comb = bp(pa.Table.from_batches([rb]))
            _add_viol(combined_violations(comb))
            ext_stream.append(combined_ext_partials(comb))
        ext_stream.publish("ext_partials")

    viol_stream.publish("violations")
    if part_stream is not None:
        part_stream.publish("partials")

    metrics = {"n_rows": n_rows, "lineage": path,
               "n_violations": n_err, "n_warnings": n_warn,
               "pass": n_err == 0, "runtime_s": time.time() - t0}
    store.record(pid, metrics)
    return metrics


# one Ray task per partition; _run_partition stays directly callable so
# the per-partition wiring is testable in-process (e.g. with a stub
# Lance backend that exists only in the driver's module table)
_partition_task = ray.remote(_run_partition)


def run_partitioned(
    input_glob: str,
    spec: ConstraintSpec,
    store: CheckpointStore,
    decode: bool = False,
    batch_size: Optional[int] = None,
    refs: Optional[dict[str, "ray.data.Dataset"]] = None,
    max_inflight: Optional[int] = None,
    task_num_cpus: float = 1,
) -> SuiteResult:
    """Run/resume the partitioned validation; returns the merged result.

    One Ray task per partition; the cluster scheduler runs as many as
    CPU slots allow.  ``max_inflight`` optionally caps submitted-but-
    unfinished tasks (for memory-constrained artifact stores); resume
    granularity stays one partition (atomic checkpoint records).

    ``input_glob`` may be a parquet glob/dir or a Lance table path
    (``*.lance``): Lance tables list one partition per FRAGMENT via
    ``sources.io.partition_files`` and each task scans exactly its
    fragment — the fragment is the resume/lineage unit end-to-end.
    """
    from ..sources.io import partition_files, partition_schema_and_rows

    files = partition_files(input_glob)
    if not files:
        raise FileNotFoundError(f"no input files match {input_glob}")
    done = store.completed()

    # the keyed plan is made against the FIRST partition's schema (all
    # partitions of one table share it) so the partials' positional
    # card{i}_n / ext{j}_n columns stay consistent across partitions.
    # NOTE: one store assumes one spec and decode setting across its
    # lifetime (those positions follow the plan); the merge refuses
    # stored partials that lack a planned column.
    schema0, _ = partition_schema_and_rows(files[0])
    plan = keyed_plan(spec, set(schema0.names), decode)
    declared_universals = {u.predicate for u in spec.universals}

    todo = [p for p in files if _partition_id(p) not in done]
    n_skipped = len(files) - len(todo)
    if todo:
        task = _partition_task.options(num_cpus=task_num_cpus)
        pending: list = []
        finished: list = []
        for path in todo:
            if max_inflight and len(pending) >= max_inflight:
                ready, pending = ray.wait(pending, num_returns=1)
                finished.extend(ready)
            pending.append(task.remote(path, spec, store.root, decode,
                                       batch_size, plan,
                                       frozenset(declared_universals)))
        ray.get(finished + pending)     # re-raises the first task failure

    # ---- global merge (always re-run; reads only stored artifacts) -------
    def _files(kind: str) -> list[str]:
        return [f for d in store.artifact_dirs(kind)
                for f in sorted(glob.glob(os.path.join(d, "*.parquet")))]

    parts = []
    viol_files = _files("violations")
    if viol_files:
        parts.append(ray.data.read_parquet(viol_files))
    partial_files = _files("partials")
    if plan.key and partial_files:
        partials = ray.data.read_parquet(partial_files)
        missing = set(plan.sum_columns) - set(partials.schema().names)
        if missing:
            raise ValueError(
                f"checkpoint store {store.root} holds partials without "
                f"{sorted(missing)}: written under another spec or decode setting")
        parts.append(keyed_violations(partials, plan, spec, refs=refs))
    ext_files = _files("ext_partials")
    if ext_files and any(e.predicate == "decodable_bytes" for e in plan.decode_exts):
        from ..stages.decode_stage import existential_violations_from_partials
        parts.append(existential_violations_from_partials(
            ray.data.read_parquet(ext_files)))

    recs = store.records()
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
    return SuiteResult(union_all(parts), driver_checks(schema0, spec, refs), summary)


def validate_partitioned(
    input_glob: str,
    spec: ConstraintSpec,
    store: CheckpointStore,
    decode: bool = False,
    batch_size: Optional[int] = None,
    refs: Optional[dict[str, "ray.data.Dataset"]] = None,
    max_inflight: Optional[int] = None,
    task_num_cpus: float = 1,
) -> dict:
    """``run_partitioned``'s report, without a violation sample."""
    return run_partitioned(input_glob, spec, store, decode, batch_size, refs,
                           max_inflight, task_num_cpus).report(sample=0)

