"""Small results stay on the driver: below the driver gate the suite's
tagged scan output and the partitioned runner's stored artifacts are
pulled once and split, merged, counted and sampled in process; above it
(forced with ``test_keyed_tiers._tier``) they stay on the cluster as
object refs, computed once.  Both tiers give the same report, and the
report records the tier it took."""

from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from osf_data_validator_tool_ray.checks.base import mask_violations
from osf_data_validator_tool_ray.pipelines.partitioned import validate_partitioned
from osf_data_validator_tool_ray.pipelines.runner import run_suite
from osf_data_validator_tool_ray.spec import clips_spec
from osf_data_validator_tool_ray.state.checkpoint import CheckpointStore
from osf_data_validator_tool_ray.synth import write_clips_dataset
from tests.test_keyed_tiers import _tier


@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    return write_clips_dataset(str(tmp_path_factory.mktemp("clips")), n_rows=300,
                               seed=11, defect_rate=0.05, num_shards=3)


def _suite(meta, decode=True):
    return run_suite(ray.data.read_parquet(meta["clips_dir"]), clips_spec(),
                     refs={"refs": ray.data.read_parquet(meta["refs_path"])},
                     decode=decode)


def _partitioned(meta, root, decode=True):
    return validate_partitioned(meta["clips_dir"] + "/*.parquet", clips_spec(),
                                CheckpointStore(str(root)), decode=decode,
                                refs={"refs": ray.data.read_parquet(meta["refs_path"])})


@pytest.fixture(scope="module")
def reports(clips, tmp_path_factory):
    out = {}
    for tier in ("driver", "exchange"):
        with _tier(tier):
            res = _suite(clips)
            out[tier] = (res, res.report(),
                         _partitioned(clips, tmp_path_factory.mktemp(tier)))
    return out


@pytest.mark.parametrize("tier", ["driver", "exchange"])
def test_reports_record_the_result_tier(reports, tier):
    res, suite, part = reports[tier]
    for rep in (suite, part):
        gate = rep["result_tier"]
        assert gate["tier"] == tier
        assert gate["rows"] > 0 and gate["bytes"] > 0
    # the driver tier leaves nothing on the cluster
    assert (not res.cluster_violations) == (tier == "driver")


def test_tiers_report_the_same_verdicts(reports, clips):
    (_, s_drv, p_drv), (_, s_exc, p_exc) = reports["driver"], reports["exchange"]
    for key in ("violations", "warnings", "pass"):
        assert s_drv[key] == s_exc[key] == p_drv[key] == p_exc[key], key
    assert s_drv["violations"]["REF-EXISTENCE-100"] == len(clips["dangling_refs"])


def test_tiers_give_equal_reports_with_driver_rows(clips):
    """Without ``codec`` the driver table holds a SCHEMA-COLUMN-101 row
    beside the cluster's rows; both tiers still give the whole report
    equal, its sample included."""
    names = ray.data.read_parquet(clips["clips_dir"]).schema().names
    cols = [c for c in names if c != "codec"]
    got = {}
    for tier in ("driver", "exchange"):
        with _tier(tier):
            res = run_suite(ray.data.read_parquet(clips["clips_dir"], columns=cols),
                            clips_spec(), decode=True,
                            refs={"refs": ray.data.read_parquet(clips["refs_path"])})
        assert (not res.cluster_violations) == (tier == "driver")
        got[tier] = {k: v for k, v in res.report().items() if k != "result_tier"}
    assert got["driver"]["violations"]["SCHEMA-COLUMN-101"] == 1
    assert got["driver"] == got["exchange"]


def test_a_result_is_computed_once(clips):
    """Above the gate a result's cluster rows are computed once, in the
    run: with Ray Data's maps and batch reads made to raise, its reports
    (equal, however often asked), XML, rows and Dataset still come."""
    import pandas as pd

    from osf_data_validator_tool_ray.checks.registry import RunContext, plan_checks

    fact = pd.DataFrame({"k": [1, 1, 2], "seq": [1, 2, 1],
                         "ts": pd.to_datetime([20, 10, 30], unit="s")})
    with _tier("exchange"):
        results = [_suite(clips), plan_checks(
            RunContext(ray.data.from_pandas(fact), clips_spec()),
            ["sequence_order?key=k&ts=ts&seq=seq"])]

    def rerun(*args, **kwargs):
        raise AssertionError("a Ray Data execution ran again")

    with mock.patch.object(ray.data.Dataset, "map_batches", rerun), \
            mock.patch.object(ray.data.Dataset, "iter_batches", rerun):
        for res in results:
            assert res.cluster_violations
            rep = res.report()
            assert res.report() == rep
            assert res.report_xml()
            n = sum(rep["violations"].values()) + sum(rep["warnings"].values())
            assert res.to_arrow().num_rows == res.to_dataset().count() == n > 0


def test_tiers_hold_the_same_rows(reports):
    def rows(res):
        return sorted(map(tuple, res.to_pandas().astype(str).values))

    assert rows(reports["driver"][0]) == rows(reports["exchange"][0])


def test_equal_runs_give_equal_samples(clips):
    first = _suite(clips).report(sample=15)["violations_sample"]
    second = _suite(clips).report(sample=15)["violations_sample"]
    assert len(first) == 15
    assert first == second
    # errors come before warnings
    sev = [r["severity"] for r in first]
    assert sev == sorted(sev)


def test_report_xml_lists_the_sampled_rows(clips):
    import xml.etree.ElementTree as ET

    res = _suite(clips, decode=False)
    sample = res.report(sample=10)["violations_sample"]
    root = ET.fromstring(res.report_xml(sample=10))
    listed = sorted((el.get("id"), v.get("key"), v.get("column"), v.get("observed"))
                    for el in root for v in el)
    assert listed == sorted((r["check_id"], str(r["key"]), str(r["column"]),
                             str(r["observed"])) for r in sample)


@pytest.mark.parametrize("tier", ["driver", "exchange"])
@pytest.mark.parametrize("stored,merged", [(True, False), (False, True)])
def test_partitioned_refuses_partials_of_another_decode_setting_on_both_tiers(
        clips, tmp_path, tier, stored, merged):
    """A store written under one decode setting lacks the other's keyed
    count column; the global merge refuses it whichever tier reads the
    stored artifacts."""
    store = CheckpointStore(str(tmp_path / "ckpt"))
    pattern = clips["clips_dir"] + "/*.parquet"
    validate_partitioned(pattern, clips_spec(), store, decode=stored)
    with _tier(tier), pytest.raises(ValueError, match="decode setting"):
        validate_partitioned(pattern, clips_spec(), store, decode=merged)


def test_mask_violations_reports_binary_lengths():
    t = pa.table({"id": ["a", "b", "c", "d"],
                  "bytes": pa.array([b"abc", None, b"", b"x" * 70], pa.binary()),
                  "n": [1, 2, 3, 4]})
    v = mask_violations(t, np.array([True, True, False, True]), "X-100", "id",
                        "bytes", "ok")
    assert v.column("key").to_pylist() == ["a", "b", "d"]
    assert v.column("observed").to_pylist() == ["<binary:3B>", "<binary:0B>",
                                                "<binary:70B>"]
    v = mask_violations(t, np.array([False, True, False, False]), "X-100", None, "n", "ok")
    assert v.column("key").to_pylist() == [None]
    assert v.column("observed").to_pylist() == ["2"]


def test_cli_counts_the_violations_once_above_the_gate(clips, tmp_path):
    """With --output-xml the CLI renders the XML from the report it
    already built, so the cluster part (the keyed exchange, above the
    gate) is counted once, not once per report."""
    import xml.etree.ElementTree as ET

    from osf_data_validator_tool_ray import cli
    from osf_data_validator_tool_ray.pipelines.runner import SuiteResult

    xml = tmp_path / "r.xml"
    with _tier("exchange"), mock.patch("ray.shutdown"), mock.patch.object(
            SuiteResult, "report", autospec=True,
            side_effect=SuiteResult.report) as reports:
        code = cli.main(["--input", clips["clips_dir"] + "/*.parquet",
                         "--refs", clips["refs_path"],
                         "--output-json", str(tmp_path / "r.json"),
                         "--output-xml", str(xml)])
    assert code == 1
    assert reports.call_count == 1
    checks = {el.get("id"): el.get("violations") for el in ET.parse(xml).getroot()}
    assert checks["REF-EXISTENCE-100"] == str(len(clips["dangling_refs"]))
