"""CLI driver — the engine's analog of the reference `dvt` script
(/root/reference/.../dvt: parse ini -> instantiate configured checks ->
inject context -> run() -> optional fix() -> append XML/JSON report).

    python -m osf_data_validator_tool_ray.cli \
        --input '/data/clips/*.parquet' [--refs /data/refs.parquet] \
        [--checkpoint-dir /ckpt] [--decode] [--fix --fix-dir /out] \
        [--baseline-profile profile.json] [--output-json report.json] \
        [--output-xml report.xml] [--mode strict|loose] [--num-cpus N]

Differences from the reference, by design:
  * checks run as Ray tasks, not sequential SPARQL: the row-level
    checks scan the input once, one task per contiguous share of the
    parquet files (one per CPU slot unless the files are large), and the
    per-key checks merge on the driver or, over the driver gate, on the
    cluster
  * every run writes a JSON report and can also write the reference's
    XML report (--output-xml); violations also land as a parquet sink
    for downstream use (--violations-dir)
  * one executor, the registry's run of an entry list (--checks, default
    the built-in suite; --decode adds `decode`), returns one SuiteResult,
    so the report, violation sink, drift and --fix are one code path;
    its rows are computed once, and the sink and report read them;
    --checkpoint-dir makes its scan persist each file's findings there
    and resume from them (a re-run scans only the files not recorded)
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
    ap.add_argument("--checkpoint-dir", help="persist each input file's findings here "
                    "and resume from them: a re-run scans only the files not yet recorded")
    ap.add_argument("--decode", action="store_true", help="add the full payload decode")
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
                    "analog), e.g. 'schema?mode=strict,stateless,keyed'; "
                    "default: the built-in suite; --decode adds 'decode'")
    ap.add_argument("--num-cpus", type=int,
                    help="Ray CPU slots (default: the host's CPU count)")
    args = ap.parse_args(argv)

    import ray.data
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False

    from .pipelines.runner import SUITE, render_xml
    from .spec import clips_spec, spec_from_dict

    if args.spec:
        with open(args.spec) as f:
            spec = spec_from_dict(json.load(f))
        spec.params.setdefault("mode", args.mode)
    else:
        spec = clips_spec(mode=args.mode)
    files = sorted(glob.glob(args.input))
    refs = {"refs": ray.data.read_parquet(args.refs)} if args.refs else None

    from .checks.registry import RunContext, plan_checks
    from .state.checkpoint import CheckpointStore
    entries = args.checks.split(",") if args.checks else list(SUITE)
    ctx = RunContext(ds=ray.data.read_parquet(files), spec=spec, refs=refs,
                     baseline_profile_path=args.baseline_profile,
                     store=CheckpointStore(args.checkpoint_dir) if args.checkpoint_dir else None)
    res = plan_checks(ctx, entries + (["decode"] if args.decode else []))

    if args.violations_dir:
        # every violation row, driver-side ones included, in a
        # deterministic order: reproducible violation files for parity
        # diffs (SURVEY §7.4)
        res.to_dataset().sort(["check_id", "key", "column"]) \
            .write_parquet(args.violations_dir)
        res.summary["violations_dir"] = args.violations_dir
    report = res.report()
    if args.output_xml:
        with open(args.output_xml, "w") as f:
            f.write(render_xml(report))

    if args.baseline_profile or args.write_profile:
        from .checks.drift import (TableProfile, build_profile, drift_columns,
                                   drift_violations)
        ds = ray.data.read_parquet(files)
        numeric, categorical, keys = drift_columns(ds.schema().names, spec.key_column)
        prof = build_profile(ds, numeric, categorical, keys)
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
                ds, args.drift_slice_column, numeric,
                [c for c in categorical if c != args.drift_slice_column])
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
        import pyarrow.compute as pc

        from .pipelines.fix import quarantine
        # rows on the cluster send only their distinct keys to the driver
        keys = (res.to_dataset().unique("key") if res.cluster_violations
                else pc.unique(res.violations.column("key")).to_pylist())
        bad = {k for k in keys or () if k is not None}
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
