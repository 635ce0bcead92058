"""CLI driver — the engine's analog of the reference `dvt` script
(/root/reference/.../dvt: parse ini -> instantiate configured checks ->
inject context -> run() -> optional fix() -> append XML/JSON report).

    python -m osf_data_validator_tool_ray.cli \
        --input '/data/clips/*.parquet' [--refs /data/refs.parquet] \
        [--checkpoint-dir /ckpt] [--decode] [--fix --fix-dir /out] \
        [--baseline-profile profile.json] [--output-json report.json] \
        [--output-xml report.xml] [--mode strict|loose] [--num-cpus N]

Differences from the reference, by design:
  * checks run as streaming Ray Data pipelines, not sequential SPARQL
  * every run writes a JSON report and can also write the reference's
    XML report (--output-xml); violations also land as a parquet sink
    for downstream use (--violations-dir)
  * three executors — the built-in suite, the resumable partitioned
    run (--checkpoint-dir) and a configured check list (--checks) —
    return one SuiteResult, so the report, violation sink, drift and
    --fix are one code path
  * --fix quarantines rows instead of mutating the source (see
    pipelines/fix.py)

This script OWNS the Ray session (init guarded / shutdown at exit);
library code never calls ray.init.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="osf-dvt-ray")
    ap.add_argument("--input", required=True, help="parquet glob of the clips table")
    ap.add_argument("--refs", help="parquet path of the refs side table")
    ap.add_argument("--checkpoint-dir", help="enable resumable partitioned run")
    ap.add_argument("--decode", action="store_true", help="run the decode actor stage")
    ap.add_argument("--fix", action="store_true", help="quarantine violating rows")
    ap.add_argument("--fix-dir", default="/tmp/osfdvt_fix")
    ap.add_argument("--baseline-profile", help="drift baseline JSON path")
    ap.add_argument("--drift-slice-column",
                    help="also compare drift per slice of this column "
                         "(DRIFT-101 per segment; e.g. codec)")
    ap.add_argument("--write-profile", help="write the current profile JSON here")
    ap.add_argument("--output-json", help="report file (default: stdout)")
    ap.add_argument("--output-xml", help="XML report file (reference dual-format analog)")
    ap.add_argument("--violations-dir", help="violations parquet sink")
    ap.add_argument("--mode", default="strict", choices=["strict", "loose"])
    ap.add_argument("--spec", help="JSON constraint-spec file (spec_to_dict "
                    "format) — validates ANY table, not just clips")
    ap.add_argument("--checks", help="comma-separated check entries (dvt.ini "
                    "analog), e.g. 'schema,stateless,decode?profile=full,keyed'; "
                    "default: the full built-in suite")
    ap.add_argument("--num-cpus", type=int,
                    help="Ray CPU slots (default: the host's CPU count)")
    ap.add_argument("--stats", action="store_true",
                    help="print ray Dataset per-stage stats to stderr")
    args = ap.parse_args(argv)

    import ray.data
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False

    from .checks.base import union_all
    from .pipelines.runner import SuiteResult
    from .spec import clips_spec, spec_from_dict

    if args.spec:
        with open(args.spec) as f:
            spec = spec_from_dict(json.load(f))
        spec.params.setdefault("mode", args.mode)
    else:
        spec = clips_spec(mode=args.mode)
    files = sorted(glob.glob(args.input))
    refs = {"refs": ray.data.read_parquet(args.refs)} if args.refs else None

    # ---- the executor choice: everything after it is shared ------------
    if args.checks:
        from .checks.registry import RunContext, plan_checks
        ctx = RunContext(ds=ray.data.read_parquet(files), spec=spec, refs=refs,
                         baseline_profile_path=args.baseline_profile)
        res = plan_checks(ctx, args.checks.split(","))
    elif args.checkpoint_dir:
        from .pipelines.partitioned import run_partitioned
        from .state.checkpoint import CheckpointStore
        res = run_partitioned(args.input, spec, CheckpointStore(args.checkpoint_dir),
                              decode=args.decode, refs=refs)
    else:
        from .pipelines.runner import metadata_columns, run_suite
        meta_ds = (ray.data.read_parquet(files, columns=metadata_columns(spec))
                   if args.decode else None)
        res = run_suite(ray.data.read_parquet(files), spec, refs=refs,
                        decode=args.decode, metadata_ds=meta_ds)

    if args.violations_dir:
        # every violation row, driver-side ones included, in a
        # deterministic order: reproducible violation files for parity
        # diffs (SURVEY §7.4); the report then reads the sink, not the
        # pipeline again
        union_all([res.violations, ray.data.from_arrow(res.driver_violations)]) \
            .sort(["check_id", "key", "column"]).write_parquet(args.violations_dir)
        written = glob.glob(os.path.join(args.violations_dir, "*.parquet"))
        res = SuiteResult(ray.data.read_parquet(written) if written else union_all([]),
                          summary={**res.summary, "violations_dir": args.violations_dir})
    report = res.report()
    if args.stats:
        try:
            print(res.violations.stats(), file=sys.stderr)
        except Exception:   # stats() availability varies by plan shape
            pass
    if args.output_xml:
        with open(args.output_xml, "w") as f:
            f.write(res.report_xml())

    if args.baseline_profile or args.write_profile:
        from .checks.drift import TableProfile, build_profile, drift_violations
        ds = ray.data.read_parquet(files)
        prof = build_profile(ds, numeric_cols=["dur_ms"],
                             cat_cols=["codec", "sr_hz"], key_cols=["clip_id"])
        if args.write_profile:
            with open(args.write_profile, "w") as f:
                f.write(prof.to_json())
        if args.baseline_profile:
            with open(args.baseline_profile) as f:
                base = TableProfile.from_json(f.read())
            dv = drift_violations(prof, base).to_pandas()
            report["drift"] = {"n_violations": len(dv),
                               "columns": sorted(set(dv["column"]))}
        if args.drift_slice_column:
            from .checks.drift import (build_profiles_by_group,
                                       grouped_drift_violations)
            slices = build_profiles_by_group(
                ds, args.drift_slice_column, numeric_cols=["dur_ms"],
                cat_cols=["sr_hz"])
            slice_base_path = (args.baseline_profile or "") + ".slices"
            if args.write_profile:
                with open(args.write_profile + ".slices", "w") as f:
                    json.dump({g: p.to_json() for g, p in slices.items()}, f)
            if args.baseline_profile and os.path.exists(slice_base_path):
                with open(slice_base_path) as f:
                    base_slices = {g: TableProfile.from_json(s)
                                   for g, s in json.load(f).items()}
                gdv = grouped_drift_violations(slices, base_slices).to_pandas()
                report["slice_drift"] = {
                    "n_violations": int((gdv.check_id == "DRIFT-101").sum()),
                    "n_warnings": int((gdv.check_id == "DRIFT-50").sum()),
                    "slices": sorted(set(gdv["key"])),
                }

    if args.fix:
        from .pipelines.fix import quarantine
        # only the distinct keys reach the driver, never the violation rows
        bad = {k for k in res.violations.unique("key") or () if k is not None}
        # a CLI re-run owns its --fix-dir: clear stale parts rather than
        # refuse (the library default refuses so programmatic callers
        # can't silently mix runs)
        report["fix"] = quarantine(ray.data.read_parquet(files), sorted(bad),
                                   spec.key_column or "clip_id",
                                   os.path.join(args.fix_dir, "clean"),
                                   os.path.join(args.fix_dir, "quarantine"),
                                   overwrite=True)

    out = json.dumps(report, indent=1, default=str)
    if args.output_json:
        with open(args.output_json, "w") as f:
            f.write(out)
    else:
        print(out)
    ray.shutdown()
    return 0 if report.get("pass") else 1


if __name__ == "__main__":
    sys.exit(main())
