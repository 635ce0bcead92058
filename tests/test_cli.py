"""The CLI end to end in a subprocess: its three execution branches
report the same per-check error counts for the checks each one runs."""

import json
import os
import subprocess
import sys

import pytest

from osf_data_validator_tool_ray.synth import write_clips_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli(*args):
    env = {**os.environ, "PYTHONPATH": ROOT}
    return subprocess.run(
        [sys.executable, "-m", "osf_data_validator_tool_ray.cli", "--num-cpus", "2",
         *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    return write_clips_dataset(str(tmp_path_factory.mktemp("cli")), n_rows=240,
                               seed=4, defect_rate=0.05, num_shards=3)


def test_cli_branches_agree(clips, tmp_path):
    base = ["--input", clips["clips_dir"] + "/*.parquet", "--refs", clips["refs_path"]]
    counts = {}
    for name, extra in (
            ("suite", []),
            ("partitioned", ["--checkpoint-dir", str(tmp_path / "ckpt")]),
            ("checks", ["--checks", "schema,spec_completeness,stateless,keyed"])):
        out = tmp_path / f"{name}.json"
        proc = _cli(*base, *extra, "--output-json", str(out))
        assert proc.returncode == 1, proc.stderr[-2000:]
        report = json.loads(out.read_text())
        counts[name] = ({c: v["n_violations"] for c, v in report["checks"].items()
                         if v["n_violations"]}
                        if name == "suite" else report["violations"])
    assert counts["suite"]["CARD-MAX-100"] > 0
    assert counts["suite"] == counts["partitioned"] == counts["checks"]


@pytest.mark.parametrize("branch", [["--checks", "schema"],
                                    ["--checkpoint-dir", "ckpt"]])
def test_cli_rejects_xml_outside_the_suite_run(clips, tmp_path, branch):
    proc = _cli("--input", clips["clips_dir"] + "/*.parquet",
                "--output-xml", str(tmp_path / "r.xml"), *branch)
    assert proc.returncode == 2
    assert "--output-xml" in proc.stderr
    assert not (tmp_path / "r.xml").exists()
