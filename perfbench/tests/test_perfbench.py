"""The benchmark's own tests.

Run from the repository root:  python3 -m pytest perfbench/tests -q

Every workload runs end to end at its smallest size, traced and untraced,
and must print every named metric with its unit; the output gates must
reject a wrong expected count.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import inputs  # noqa: E402
from perfbench.run import E2E_UNITS, LAYER_UNITS  # noqa: E402
from perfbench.workloads import (WORKLOADS, check_corpus, check_counts,  # noqa: E402
                                 check_resume)


def _bench(workload: str, trace: int, seed: int = 5):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    res, _ = _bench(workload, trace=0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == E2E_UNITS
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_metrics_and_spans(workload):
    res, out = _bench(workload, trace=1)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == LAYER_UNITS
    spans_file = os.path.join(ROOT, ".perfbench", "results",
                              f"{workload}-seed5-trace1-spans.jsonl")
    spans = [json.loads(line) for line in open(spans_file)]
    names = {s["name"] for s in spans}
    assert {"io.read_meta", "runner.report", "partitioned.resume", "dedup.minhash",
            "corpus", "e2e.iteration"} <= names
    assert all(s["self_time"] <= s["duration"] + 1e-9 for s in spans)
    assert "ops_failed_share" in out


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


def test_count_gate_rejects_wrong_expected_count():
    assert check_counts({"CARD-MAX-100": 3, "ONLY-100": 2},
                        {"CARD-MAX-100": 3, "ONLY-100": 2}) == []
    errs = check_counts({"CARD-MAX-100": 3, "ONLY-100": 2}, {"CARD-MAX-100": 4, "ONLY-100": 2})
    assert errs == ["CARD-MAX-100: got 3, expected 4"]
    # a check the ledger does not expect must report nothing
    assert check_counts({"DECODE-100": 1}, {}) != []


def test_resume_gate_rejects_wrong_planted_count():
    rep = {"violations": {"ONLY-100": 2}, "warnings": {}, "n_rows": 10,
           "partitions_skipped": 4}
    assert check_resume(rep, rep, 4, {"ONLY-100": 2}) == []
    assert check_resume(rep, rep, 3, {"ONLY-100": 2}) != []
    assert check_resume(rep, rep, 4, {"ONLY-100": 3}) != []
    assert check_resume(rep, dict(rep, n_rows=9), 4, {"ONLY-100": 2}) != []


def test_corpus_gate_rejects_wrong_planted_count():
    stats = {"n_input": 10, "n_after_quality": 9, "n_exact_dup_rows": 2,
             "n_near_dup_rows": 1, "n_output": 5, "n_embedded": 5}
    plan = {"n_docs": 10, "n_short": 1, "n_exact_copies": 2}
    assert check_corpus(stats, stats, stats, plan) == []
    assert check_corpus(stats, stats, stats, dict(plan, n_exact_copies=3)) != []
    assert check_corpus(stats, dict(stats, n_output=4), stats, plan) != []


def test_expected_errors_follow_the_ledger(tmp_path):
    meta = inputs.clips(str(tmp_path), seed=3, n_rows=400, defect_rate=0.1)
    exp = inputs.expected_errors(meta, decode=True)
    assert exp["REF-EXISTENCE-100"] == len(meta["dangling_refs"])
    assert exp["DECODE-100"] == len(meta["ledger"]["truncated_bytes"])
    assert "DECODE-100" not in inputs.expected_errors(meta, decode=False)
    assert "REF-EXISTENCE-100" not in inputs.expected_errors(meta, decode=True, refs=False)


def test_inputs_repeat_for_a_seed():
    a, plan_a = inputs.documents(7, 500)
    b, plan_b = inputs.documents(7, 500)
    assert a.equals(b) and plan_a == plan_b
    assert not a.equals(inputs.documents(8, 500)[0])
