"""The traced per-layer run: each layer's public entry point is called on
its own, inside a span, on the seeded inputs, plus a single-process
kernel table.

Clips layers run on the workload's clips table; text, dedup, embed and
corpus layers run on its document set.  A workload that has only one of
the two gets the other from the same seed at the standard size, so every
traced run reports every layer.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq

from .measure import median, timed

KERNEL_MIN_S = 0.5


def _clock(fn, *args, **kwargs):
    """(result, wall seconds) of one call."""
    out, sample = timed(fn, *args, **kwargs)
    return out, sample.wall


def kernel_rate(fn, batches: list, rows: int) -> float:
    """Single-process rows/s of ``fn`` over ``batches`` (``rows`` in
    total), repeated until at least KERNEL_MIN_S has been measured;
    the median pass rate is reported."""
    rates, spent = [], 0.0
    while spent < KERNEL_MIN_S or len(rates) < 3:
        t0 = time.perf_counter()
        for b in batches:
            fn(b)
        dt = time.perf_counter() - t0
        spent += dt
        rates.append(rows / dt)
    return median(rates)


def _dir_usage(root: str) -> tuple[int, int]:
    n_bytes = n_files = 0
    for dirpath, _, filenames in os.walk(root):
        for f in filenames:
            n_files += 1
            n_bytes += os.path.getsize(os.path.join(dirpath, f))
    return n_bytes, n_files


def clips_layers(meta: dict, decode: bool, kept: list[str], work_dir: str,
                 tracer, m: dict) -> list[str]:
    """io, facet_stage, unified_keyed, decode_stage, runner, partitioned
    and checkpoint layers.  Returns output-check failures."""
    import ray.data

    from osf_data_validator_tool_ray.checks.unified_keyed import unified_keyed_violations
    from osf_data_validator_tool_ray.pipelines.partitioned import validate_partitioned
    from osf_data_validator_tool_ray.pipelines.runner import metadata_columns, run_suite
    from osf_data_validator_tool_ray.sources.io import read_table
    from osf_data_validator_tool_ray.spec import clips_spec
    from osf_data_validator_tool_ray.stages.decode_stage import BytesSuitePass, bytes_suite_pass
    from osf_data_validator_tool_ray.stages.facet_stage import (
        StatelessValidator, stateless_columns)
    from osf_data_validator_tool_ray.state.checkpoint import CheckpointStore

    from . import inputs
    from .workloads import check_counts, check_resume, drop_partitions

    spec = clips_spec()
    clips_dir, files = meta["clips_dir"], meta["files"]
    rows = meta["n_rows"]
    skip = ("bytes",) if decode else ()
    meta_cols = metadata_columns(spec)
    declared = frozenset(u.predicate for u in spec.universals)
    errors: list[str] = []

    def meta_src():
        # decode mode reads a payload-pruned table for the metadata
        # branches, sniff mode reads the whole table (as run_suite does)
        return read_table(clips_dir, columns=meta_cols) if decode else read_table(clips_dir)

    with tracer.span("io"):
        with tracer.span("io.read_meta"):
            ds, m["io.read_meta_s"] = _clock(lambda: read_table(clips_dir, columns=meta_cols).materialize())
            m["io.bytes_meta"] = ds.size_bytes()
        with tracer.span("io.read_full"):
            ds, m["io.read_full_s"] = _clock(lambda: read_table(clips_dir).materialize())
            m["io.bytes_full"] = ds.size_bytes()
        del ds

    full = pa.concat_tables([pq.read_table(f) for f in files])
    sl_cols = [c for c in stateless_columns(spec, skip_columns=skip, include_universals=True)
               if c in full.column_names]

    with tracer.span("facet_stage"):
        # both kernel modes, whichever the workload runs: decode mode
        # checks metadata columns only, sniff mode also sniffs payload headers
        rates = {}
        for mode, mode_skip in (("kernel", ("bytes",)), ("sniff_kernel", ())):
            with tracer.span(f"facet_stage.{mode}"):
                cols = [c for c in stateless_columns(spec, skip_columns=mode_skip,
                                                     include_universals=True)
                        if c in full.column_names]
                sv = StatelessValidator(spec, skip_columns=mode_skip, include_universals=True)
                rates[mode_skip] = kernel_rate(sv, [full.select(cols)], rows)
                m[f"facet_stage.{mode}_rows_per_s"] = rates[mode_skip]
        rate = rates[skip]
        with tracer.span("facet_stage.stage"):
            out, wall = _clock(lambda: meta_src().select_columns(sl_cols).map_batches(
                StatelessValidator(spec, skip_columns=skip, include_universals=True),
                batch_format="pyarrow").materialize())
        m["facet_stage.wall_s"] = wall
        m["facet_stage.overhead_s"] = wall - rows / rate
        m["facet_stage.violation_rows"] = out.count()

    with tracer.span("unified_keyed"):
        out, wall = _clock(lambda: unified_keyed_violations(
            meta_src(), spec, refs={"refs": ray.data.read_parquet(meta["refs_path"])},
            include_existentials_from_meta=True, skip_ext_columns=skip).materialize())
        m["unified_keyed.wall_s"] = wall
        m["unified_keyed.violation_rows"] = out.count()

    with tracer.span("decode_stage"):
        with tracer.span("decode_stage.kernel"):
            bp = BytesSuitePass(profile="light", universal_predicates=declared)
            batches = [full.slice(i, 256) for i in range(0, rows, 256)]
            rate = kernel_rate(bp, batches, rows)
            m["decode_stage.kernel_rows_per_s"] = rate
        with tracer.span("decode_stage.bytes_suite_pass"):
            (v, _), wall = _clock(lambda: bytes_suite_pass(
                ray.data.read_parquet(clips_dir), profile="light",
                universal_predicates=set(declared)))
            m["decode_stage.wall_s"] = wall
            m["decode_stage.overhead_s"] = wall - rows / rate
            m["decode_stage.violation_rows"] = v.count()
    del full

    with tracer.span("runner"):
        t0 = time.perf_counter()
        with tracer.span("runner.run_suite"):
            res = run_suite(ray.data.read_parquet(clips_dir), spec,
                            refs={"refs": ray.data.read_parquet(meta["refs_path"])},
                            decode=decode, metadata_ds=read_table(clips_dir, columns=meta_cols),
                            decode_profile="light")
        with tracer.span("runner.report"):
            report, m["runner.report_s"] = _clock(res.report)
        m["runner.wall_s"] = time.perf_counter() - t0
        branches = m["facet_stage.wall_s"] + m["unified_keyed.wall_s"] \
            + (m["decode_stage.wall_s"] if decode else 0.0)
        m["runner.overlap_s"] = branches - m["runner.wall_s"]
        errors += check_counts({c: v["n_violations"] for c, v in report["checks"].items()},
                               inputs.expected_errors(meta, decode=decode), "runner ")

    glob = os.path.join(clips_dir, "*.parquet")
    root = os.path.join(work_dir, "store-layers")
    shutil.rmtree(root, ignore_errors=True)
    store = CheckpointStore(root)
    with tracer.span("partitioned"):
        with tracer.span("partitioned.fresh"):
            fresh, m["partitioned.wall_s"] = _clock(
                validate_partitioned, glob, spec, store, decode=True)
        with tracer.span("checkpoint.scan"):
            (_, recs), m["checkpoint.scan_s"] = _clock(lambda: (store.completed(), store.records()))
        task_s = [r["runtime_s"] for r in recs]
        m["partitioned.task_s_p50"] = median(task_s)
        m["partitioned.task_s_max"] = max(task_s)
        m["checkpoint.bytes_written"], m["checkpoint.files_written"] = _dir_usage(root)
        with tracer.span("partitioned.merge"):
            _, m["partitioned.merge_s"] = _clock(validate_partitioned, glob, spec, store, decode=True)
        drop_partitions(root, sorted(set(r["partition_id"] for r in recs) - set(kept)))
        before = len(store.completed())
        with tracer.span("partitioned.resume"):
            resumed, _ = _clock(validate_partitioned, glob, spec, store, decode=True)
        m["partitioned.skipped"] = resumed["partitions_skipped"]
        m["partitioned.reuse_ratio"] = resumed["partitions_skipped"] / max(before, 1)
        errors += check_resume(fresh, resumed, len(kept),
                               inputs.expected_errors(meta, decode=True, refs=False))
    shutil.rmtree(root)
    return errors


def corpus_layers(docs_dir: str, table: pa.Table, plan: dict, tracer, m: dict) -> list[str]:
    """text, dedup, embed_stage and corpus layers."""
    import ray.data

    from osf_data_validator_tool_ray.checks.dedup import (
        _MinHashStage, exact_dedup_groups, minhash_near_dup_pairs, near_dup_clusters)
    from osf_data_validator_tool_ray.functions.text import normalize_text, quality_features
    from osf_data_validator_tool_ray.pipelines.corpus import curate_corpus
    from osf_data_validator_tool_ray.stages.embed_stage import embed_text

    from .workloads import check_corpus

    def docs():
        return ray.data.read_parquet(docs_dir, columns=["doc_id", "text"])

    rows = table.num_rows
    with tracer.span("text.kernel"):
        texts = table.column("text").to_pandas()
        m["text.kernel_rows_per_s"] = kernel_rate(
            lambda s: quality_features(normalize_text(s)), [texts], rows)

    with tracer.span("dedup"):
        with tracer.span("dedup.minhash_kernel"):
            # the signature + LSH band stage that minhash_near_dup_pairs maps
            stage = _MinHashStage("text", "doc_id", 64, 16, 5)
            batches = [table.slice(i, 1024) for i in range(0, rows, 1024)]
            m["dedup.minhash_kernel_rows_per_s"] = kernel_rate(stage, batches, rows)
        with tracer.span("dedup.exact"):
            _, m["dedup.exact_s"] = _clock(
                lambda: exact_dedup_groups(docs(), "text", "doc_id").materialize())
        with tracer.span("dedup.minhash"):
            pairs, m["dedup.minhash_s"] = _clock(
                lambda: minhash_near_dup_pairs(docs(), "text", "doc_id", threshold=0.7).materialize())
            m["dedup.pairs"] = pairs.count()
        with tracer.span("dedup.clusters"):
            _, m["dedup.clusters_s"] = _clock(lambda: near_dup_clusters(pairs).materialize())

    with tracer.span("embed_stage"):
        _, m["embed_stage.wall_s"] = _clock(
            lambda: embed_text(docs(), "text", "doc_id", dim=32).materialize())

    with tracer.span("corpus"):
        def curate():
            res = curate_corpus(docs(), sample_permille=900, embed_dim=32)
            return dict(res["stats"], n_embedded=res["embeddings"].count())
        stats, m["corpus.wall_s"] = _clock(curate)
    for k in ("n_after_quality", "n_exact_dup_rows", "n_near_dup_rows"):
        m[f"corpus.{k}"] = stats[k]
    return check_corpus(stats, stats, stats, plan)
