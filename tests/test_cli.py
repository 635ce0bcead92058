"""The CLI end to end in a subprocess: its three executors (the suite,
--checkpoint-dir, --checks) share one report, violation sink and --fix
path."""

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
            "checks": ["--checks", "schema,spec_completeness,stateless,keyed"]}
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
    assert reports["suite"]["violations"] == reports["partitioned"]["violations"] \
        == reports["checks"]["violations"]
    assert set(reports["suite"]) == set(reports["checks"]) \
        == set(reports["partitioned"]) - SUMMARY_KEYS
    assert reports["partitioned"]["partitions_total"] == 3


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
