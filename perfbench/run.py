"""Seeded benchmark of the validator, timed from outside through the
package's public entry points.

    python3 perfbench/run.py --workload suite-decode --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  It builds the workload's inputs from
``--seed``, starts Ray with ``num_cpus`` equal to ``nproc``, sets up
(``ray.init`` plus an untimed warm-up pass) several times, then runs
timed iterations from one driver thread for ``--seconds`` seconds and
checks every iteration's output.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
layer on its own inside spans, writes the span file, and reports the
per-layer metrics plus the tracing overhead.  A human-readable summary
goes to stdout first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full artifact,
with the host and provenance block, is written under ``.perfbench/``.
The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not __package__:
    sys.path[0] = ROOT     # run as a script: import perfbench as a package

from perfbench import inputs, layers, measure  # noqa: E402
from perfbench.workloads import NUM_SHARDS, SIZES, WORKLOADS, CorpusCurate  # noqa: E402

SETUPS = 2            # set-ups per untraced run; setup_s is their median
MIN_ITERATIONS = 3    # timed operations per run, however long they take
OP_TIMEOUT_S = 60.0   # an operation slower than this counts as failed

E2E_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "cpu_s_per_krow": "core-s/krow",
    "resume_s": "s",
    "driver_peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "io.read_meta_s": "s", "io.read_full_s": "s",
    "io.bytes_meta": "bytes", "io.bytes_full": "bytes",
    "facet_stage.kernel_rows_per_s": "rows/s", "facet_stage.sniff_kernel_rows_per_s": "rows/s",
    "facet_stage.wall_s": "s",
    "facet_stage.overhead_s": "s", "facet_stage.violation_rows": "count",
    "unified_keyed.wall_s": "s", "unified_keyed.violation_rows": "count",
    "decode_stage.kernel_rows_per_s": "rows/s", "decode_stage.wall_s": "s",
    "decode_stage.overhead_s": "s", "decode_stage.violation_rows": "count",
    "runner.wall_s": "s", "runner.report_s": "s", "runner.overlap_s": "s",
    "partitioned.wall_s": "s", "partitioned.task_s_p50": "s",
    "partitioned.task_s_max": "s", "partitioned.merge_s": "s",
    "partitioned.skipped": "count", "partitioned.reuse_ratio": "ratio",
    "checkpoint.bytes_written": "bytes", "checkpoint.files_written": "count",
    "checkpoint.scan_s": "s",
    "text.kernel_rows_per_s": "rows/s",
    "dedup.minhash_kernel_rows_per_s": "rows/s", "dedup.exact_s": "s",
    "dedup.minhash_s": "s", "dedup.pairs": "count", "dedup.clusters_s": "s",
    "embed_stage.wall_s": "s",
    "corpus.wall_s": "s", "corpus.n_after_quality": "count",
    "corpus.n_exact_dup_rows": "count", "corpus.n_near_dup_rows": "count",
    "trace.overhead_s": "s",
}


def init_ray(num_cpus: int, ray_dir: str) -> None:
    import ray
    from ray.data import DataContext

    # Ray's socket paths must stay under 108 bytes; reaching the checkout
    # through this process's /proc cwd link keeps them short wherever the
    # checkout lives, and keeps every Ray file inside it
    os.makedirs(ray_dir, exist_ok=True)
    short = f"/proc/{os.getpid()}/cwd/{os.path.relpath(ray_dir, ROOT)}"
    ray.init(num_cpus=num_cpus, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=512 * 2**20, _temp_dir=short)
    signal.signal(signal.SIGTERM, _on_sigterm)     # ray.init installs its own
    DataContext.get_current().enable_progress_bars = False


def _on_sigterm(signum, frame) -> None:
    """Stop every process the run started, remove its work directory, exit."""
    measure.stop_descendants(grace_s=2.0)
    shutil.rmtree(os.path.join(ROOT, ".perfbench", str(os.getpid())), ignore_errors=True)
    os._exit(128 + signum)


def shutdown_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    if ray.is_initialized():
        ray.shutdown()
    left = measure.stop_descendants()
    if left:
        print(f"processes still running after shutdown: {left}", file=sys.stderr)


def run_iteration(wl, ops: dict) -> dict | None:
    """One timed operation with its output check, counted in ``ops``."""
    ops["attempted"] += 1
    measure.reset_peak_rss()
    t0 = time.perf_counter()
    try:
        it = wl.iteration()
    except Exception as e:  # an operation failure is a measured outcome
        traceback.print_exc(file=sys.stderr)
        ops["failed"] += 1
        ops["failures"].append(f"{type(e).__name__}: {e}"[:500])
        return None
    it["elapsed_s"] = time.perf_counter() - t0
    it["driver_peak_rss_mib"] = measure.peak_rss_mib()
    if it["elapsed_s"] > OP_TIMEOUT_S:
        it["errors"].append(f"timeout: {it['elapsed_s']:.1f}s > {OP_TIMEOUT_S}s")
    if it["errors"]:
        ops["failed"] += 1
        ops["failures"].extend(it["errors"])
    return it


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="input size; 'smoke' is the smallest, for the benchmark's tests")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    # every process Ray starts is stopped before exit, also on SIGTERM
    measure.adopt_orphans()
    signal.signal(signal.SIGTERM, _on_sigterm)
    import osf_data_validator_tool_ray  # noqa: F401  (fail before any result without it)
    # Ray workers import the package by name
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    base = os.path.join(ROOT, ".perfbench")
    work = os.path.join(base, str(os.getpid()))
    results = os.path.join(base, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    os.makedirs(results, exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    try:
        return _run(args, WORKLOADS[args.workload], work, results)
    finally:
        shutdown_ray()
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload_cls, work: str, results: str) -> int:
    num_cpus = measure.nproc()
    host = {"loadavg_start": measure.loadavg()}
    t0 = time.perf_counter()
    wl = workload_cls(os.path.join(work, "in"), args.seed, args.size)
    if args.trace:
        # the traced run covers every layer: add the input family this
        # workload lacks, from the same seed
        if isinstance(wl, CorpusCurate):
            clips_meta = inputs.clips(os.path.join(work, "companion-clips"), args.seed,
                                      SIZES[args.size]["clips"], 0.01, NUM_SHARDS)
            docs_dir, docs_table, docs_plan = wl.docs_dir, wl.table, wl.plan
        else:
            clips_meta = wl.meta
            docs_dir = os.path.join(work, "companion-docs")
            docs_table, docs_plan = inputs.write_documents(
                docs_dir, args.seed, SIZES[args.size]["docs"], NUM_SHARDS)
    host["input_gen_s"] = time.perf_counter() - t0

    def set_up():
        init_ray(num_cpus, os.path.join(work, "ray"))
        wl.warm_up()

    setups = []
    for k in range(1 if args.trace else SETUPS):
        if k:
            shutdown_ray()
        setups.append(measure.timed(set_up)[1])

    ops = {"attempted": 0, "failed": 0, "failures": []}
    samples: list[dict] = []
    metrics: dict[str, dict] = {}
    tracer = measure.Tracer()
    spans_path = None

    s0, c0, m0 = measure.steal_seconds(), measure.cpu_seconds(), measure.machine_cpu_seconds()
    t_start = time.perf_counter()
    if not args.trace:
        while True:
            it = run_iteration(wl, ops)
            if it is not None:
                samples.append(it)
            if (time.perf_counter() - t_start >= args.seconds
                    and ops["attempted"] >= MIN_ITERATIONS):
                break
        # times and CPU are steal-free (Sample.unstolen, unstolen_cpu);
        # the raw median is kept beside each one
        med = measure.median
        e2e = {
            "setup_s": ([s.unstolen for s in setups], [s.wall for s in setups]),
            "rows_per_s": ([s["rows"] / s["main"].unstolen for s in samples],
                           [s["rows"] / s["main"].wall for s in samples]),
            "cpu_s_per_krow": ([1000 * s["main"].unstolen_cpu / s["rows"] for s in samples],
                               [1000 * s["main"].cpu / s["rows"] for s in samples]),
            "resume_s": ([s["resume"].unstolen for s in samples],
                         [s["resume"].wall for s in samples]),
            # the first operations only: the driver's RSS creeps up from
            # one operation to the next, and a faster host runs more of them
            "driver_peak_rss_mb": ([s["driver_peak_rss_mib"] for s in samples[:MIN_ITERATIONS]],
                                   None),
        }
        for name, (values, raw) in e2e.items():
            metrics[name] = {"value": med(values), "unit": E2E_UNITS[name], "n": len(values)}
            if raw is not None:
                metrics[name]["raw_value"] = med(raw)
    else:
        layer_values: dict = {}
        decode = getattr(wl, "decode", True)
        ops["attempted"] += 1
        try:
            with tracer.span("layers"):
                errs = layers.clips_layers(clips_meta, decode,
                                           inputs.kept_partitions(clips_meta["files"], args.seed),
                                           work, tracer, layer_values)
                errs += layers.corpus_layers(docs_dir, docs_table, docs_plan, tracer, layer_values)
        except Exception as e:
            traceback.print_exc(file=sys.stderr)
            errs = [f"{type(e).__name__}: {e}"[:500]]
        if errs:
            ops["failed"] += 1
            ops["failures"].extend(errs)
        # tracing overhead: untraced and traced iterations alternate over
        # the same inputs, so drift in the host hits both sides alike
        walls = {False: [], True: []}
        t_e2e = time.perf_counter()
        while True:
            for traced in (False, True):
                wl.tracer = tracer if traced else None
                if traced:
                    with tracer.span("e2e.iteration", workload=wl.name):
                        it = run_iteration(wl, ops)
                else:
                    it = run_iteration(wl, ops)
                if it is not None:
                    walls[traced].append(it["elapsed_s"])
                    samples.append(dict(it, traced=traced))
            if time.perf_counter() - t_e2e >= args.seconds:
                break
        wl.tracer = None
        layer_values["trace.overhead_s"] = (measure.median(walls[True])
                                            - measure.median(walls[False]))
        for name, unit in LAYER_UNITS.items():
            metrics[name] = {"value": layer_values.get(name, float("nan")), "unit": unit,
                             "n": len(walls[True]) if name == "trace.overhead_s" else 1}
    host["timed_s"] = time.perf_counter() - t_start
    host["steal_s"] = {"setup": [s.steal for s in setups],
                       "timed": measure.steal_seconds() - s0}
    host["cpu_s_timed"] = {"bench": measure.cpu_seconds() - c0,
                           "machine": measure.machine_cpu_seconds() - m0}
    shutdown_ray()
    host["loadavg_end"] = measure.loadavg()
    host.update(measure.provenance(ROOT, num_cpus))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans_path = os.path.join(results, f"{tag}-spans.jsonl")
        tracer.dump(spans_path)
    correct = ops["failed"] == 0 and all(
        m["value"] == m["value"] for m in metrics.values())   # no NaN
    artifact = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "host": host,
        "ops": dict(ops, failed_share=ops["failed"] / max(ops["attempted"], 1)),
        "metrics": metrics, "setups": [s.as_dict() for s in setups],
        "iterations": [dict(it, main=it["main"].as_dict(), resume=it["resume"].as_dict())
                       for it in samples],
        "spans_file": spans_path,
    }
    artifact_path = os.path.join(results, f"{tag}.json")
    with open(artifact_path, "w") as fh:
        json.dump(artifact, fh, indent=1, default=str)

    _summary(artifact, tracer if args.trace else None, artifact_path)
    print(json.dumps({
        "correct": correct, "attempted": ops["attempted"], "failed": ops["failed"],
        "metrics": {k: {"value": (v["value"] if v["value"] == v["value"] else 0.0),
                        "unit": v["unit"]} for k, v in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def _summary(artifact: dict, tracer, artifact_path: str) -> None:
    h, ops = artifact["host"], artifact["ops"]
    print(f"# {artifact['workload']} seed={artifact['seed']} trace={artifact['trace']} "
          f"nproc={h['nproc']} ray_num_cpus={h['ray_num_cpus']} "
          f"steal_timed={h['steal_s']['timed']:.1f}s input_gen={h['input_gen_s']:.2f}s")
    for name, m in artifact["metrics"].items():
        raw = f"  (raw: {m['raw_value']:.4f})" if "raw_value" in m else ""
        print(f"{name:34s} {m['value']:14.4f} {m['unit']:12s} n={m['n']}{raw}")
    print(f"{'ops_failed_share':34s} {ops['failed_share']:14.4f} {'ratio':12s} "
          f"n={ops['attempted']}")
    for f in ops["failures"][:20]:
        print(f"FAILED: {f}")
    if tracer is not None:
        selfs = tracer.self_times()
        totals: dict[str, list[float]] = {}
        for s in tracer.spans:
            t = totals.setdefault(s["name"], [0.0, 0.0, 0])
            t[0] += s["end"] - s["start"]
            t[1] += selfs[s["id"]]
            t[2] += 1
        print(f"# spans ({artifact['spans_file']}): name, total s, self s, count")
        for name, (tot, slf, cnt) in totals.items():
            print(f"span {name:32s} {tot:10.4f} {slf:10.4f} {cnt:4d}")
    print(f"# artifact: {artifact_path}")


if __name__ == "__main__":
    sys.exit(main())
