"""The CLI end to end in a subprocess: its runs (the built-in suite,
--checkpoint-dir, --checks, and --checks with --checkpoint-dir) share one
report, violation sink and --fix path."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pyarrow.parquet as pq
import pytest

from osf_data_validator_tool_ray.synth import write_clips_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BRANCHES = {"suite": [],
            "partitioned": ["--checkpoint-dir", "ckpt"],
            "checks": ["--checks", "schema,spec_completeness,stateless,keyed"],
            "checks_stored": ["--checks", "schema,spec_completeness,stateless,keyed",
                              "--checkpoint-dir", "ckpt"]}
SUMMARY_KEYS = {"partitions_total", "partitions_skipped", "partitions_ran",
                "n_rows", "partitions"}


def _cli(*args):
    env = {**os.environ, "PYTHONPATH": ROOT}
    return subprocess.run(
        [sys.executable, "-m", "osf_data_validator_tool_ray.cli", "--num-cpus", "2",
         *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    return write_clips_dataset(str(tmp_path_factory.mktemp("cli")), n_rows=240,
                               seed=4, defect_rate=0.05, num_shards=3)


def _base(clips):
    return ["--input", clips["clips_dir"] + "/*.parquet", "--refs", clips["refs_path"]]


@pytest.fixture(scope="module")
def runs(clips, tmp_path_factory):
    """Each branch once, writing the JSON report, the XML report and the
    violation sink: {branch: (report, output dir)}."""
    out = {}
    for name, extra in BRANCHES.items():
        d = tmp_path_factory.mktemp(name)
        extra = [str(d / a) if a == "ckpt" else a for a in extra]
        proc = _cli(*_base(clips), *extra, "--output-json", str(d / "r.json"),
                    "--output-xml", str(d / "r.xml"),
                    "--violations-dir", str(d / "violations"))
        assert proc.returncode == 1, proc.stderr[-2000:]
        out[name] = (json.loads((d / "r.json").read_text()), d)
    return out


def test_cli_branches_agree(runs):
    reports = {name: rep for name, (rep, _) in runs.items()}
    assert reports["suite"]["violations"]["CARD-MAX-100"] > 0
    for key in ("violations", "warnings"):
        assert reports["suite"][key] == reports["partitioned"][key] \
            == reports["checks"][key] == reports["checks_stored"][key]
    assert set(reports["suite"]) == set(reports["checks"]) \
        == set(reports["partitioned"]) - SUMMARY_KEYS \
        == set(reports["checks_stored"]) - SUMMARY_KEYS
    assert reports["partitioned"]["partitions_total"] == 3
    assert reports["checks_stored"]["partitions_ran"] == 3


def test_cli_rerun_with_checks_skips_every_stored_partition(runs, clips):
    """--checks with the --checkpoint-dir of an earlier run scans nothing
    and reports what that run reported."""
    first, d = runs["checks_stored"]
    proc = _cli(*_base(clips), *BRANCHES["checks_stored"][:-1], str(d / "ckpt"),
                "--output-json", str(d / "again.json"))
    assert proc.returncode == 1, proc.stderr[-2000:]
    again = json.loads((d / "again.json").read_text())
    assert again["partitions_skipped"] == 3 and again["partitions_ran"] == 0
    for key in ("violations", "warnings", "n_rows"):
        assert again[key] == first[key], key


@pytest.mark.parametrize("branch", list(BRANCHES))
def test_cli_writes_xml_for_every_branch(runs, branch):
    report, d = runs[branch]
    root = ET.parse(d / "r.xml").getroot()
    failing = {el.get("id"): int(el.get("violations"))
               for el in root if el.get("status") == "fail"}
    assert failing == report["violations"]


@pytest.mark.parametrize("branch", list(BRANCHES))
def test_cli_writes_violations_dir_for_every_branch(runs, branch):
    report, d = runs[branch]
    assert report["violations_dir"] == str(d / "violations")
    sink = pq.read_table(str(d / "violations")).to_pandas()
    errors = sink[sink.severity == "error"].groupby("check_id").size().to_dict()
    assert errors == report["violations"]


def test_cli_fix_under_checkpoint_dir_quarantines_merge_time_keys(clips, tmp_path):
    """The planted duplicate clip_ids are CARD-MAX-100 verdicts of the
    partitioned merge, not of any partition; --fix quarantines them."""
    fix_dir = tmp_path / "fix"
    proc = _cli(*_base(clips), "--checkpoint-dir", str(tmp_path / "ckpt"), "--fix",
                "--fix-dir", str(fix_dir), "--output-json", str(tmp_path / "r.json"))
    assert proc.returncode == 1, proc.stderr[-2000:]
    quarantined = set(pq.read_table(str(fix_dir / "quarantine"),
                                    columns=["clip_id"]).column("clip_id").to_pylist())
    assert clips["ledger"]["dup_clip_id"]
    assert set(clips["ledger"]["dup_clip_id"]) <= quarantined
    fix = json.loads((tmp_path / "r.json").read_text())["fix"]
    assert fix["n_quarantined"] == len(
        pq.read_table(str(fix_dir / "quarantine"), columns=["clip_id"]))


def test_cli_drift_profiles_a_table_of_any_spec(tmp_path):
    """--write-profile / --baseline-profile with --spec for a table with
    none of the clips columns: the profile keeps the drift columns the
    table has (here only its key) and the comparison runs."""
    import pyarrow as pa

    (tmp_path / "spec.json").write_text(json.dumps({
        "table": "users", "key_column": "uid",
        "facets": {"uid": {"dtype": "string", "not_null": True},
                   "age": {"dtype": "int", "min_inclusive": 0, "max_inclusive": 130}}}))
    pq.write_table(pa.table({"uid": [f"u{i}" for i in range(300)],
                             "age": [i % 90 for i in range(300)]}),
                   str(tmp_path / "users.parquet"))
    base = ["--input", str(tmp_path / "users.parquet"), "--spec", str(tmp_path / "spec.json")]
    profile = tmp_path / "profile.json"
    for extra in (["--write-profile", str(profile)], ["--baseline-profile", str(profile)]):
        proc = _cli(*base, *extra, "--output-json", str(tmp_path / "r.json"))
        assert proc.returncode == 0, proc.stderr[-2000:]
    written = json.loads(profile.read_text())
    assert (written["numeric"], written["categorical"], set(written["distinct"])) \
        == ({}, {}, {"uid"})
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["drift"] == {"n_violations": 0, "columns": []}
