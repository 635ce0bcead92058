"""The one keyed pass and the one partial merge: the driver and exchange
merge tiers agree (null keys included), and the suite and the
partitioned runner report the same per-check counts."""

import contextlib
from unittest import mock

import pyarrow as pa
import pytest
import ray.data

from osf_data_validator_tool_ray.pipelines import relational as rel
from osf_data_validator_tool_ray.pipelines.partitioned import validate_partitioned
from osf_data_validator_tool_ray.pipelines.runner import run_suite, scan_checks
from osf_data_validator_tool_ray.spec import Cardinality, ConstraintSpec, clips_spec
from osf_data_validator_tool_ray.state.checkpoint import CheckpointStore
from osf_data_validator_tool_ray.synth import write_clips_dataset


def _tier(tier: str):
    if tier == "driver":
        return contextlib.nullcontext()
    return mock.patch.object(rel, "fits_driver_merge",
                             lambda ds, threshold=None: False)


def _rows(ds, cols):
    df = ds.to_pandas()
    return sorted((tuple(None if v is None or v != v else v for v in r)
                   for r in df[cols].itertuples(index=False)), key=repr)


def test_null_keys_same_answer_on_both_tiers():
    t = pa.table({"k": pa.array(["a", None, "a", None, "b"], type=pa.string())})
    spec = ConstraintSpec(table="t", key_column="k", cardinalities=[
        Cardinality(key="k", column="k", max_count=1)])
    got = {}
    for tier in ("driver", "exchange"):
        ds = ray.data.from_arrow(t).repartition(3)
        with _tier(tier):
            got[tier] = _rows(scan_checks(ds, spec, frozenset({"keyed"})),
                              ["check_id", "key", "observed"])
    # the keyed pass drops null keys in its combiner
    assert got["driver"] == got["exchange"] == [("CARD-MAX-100", "a", "2")]


@pytest.mark.parametrize("tier", ["driver", "exchange"])
@pytest.mark.parametrize("decode", [False, True])
def test_suite_and_partitioned_report_same_counts(tmp_path, decode, tier):
    meta = write_clips_dataset(str(tmp_path / "clips"), n_rows=300, seed=9,
                               defect_rate=0.05, num_shards=3)
    spec = clips_spec()
    refs = {"refs": ray.data.read_parquet(meta["refs_path"])}
    with _tier(tier):
        suite = run_suite(ray.data.read_parquet(meta["clips_dir"]), spec,
                          refs=refs, decode=decode).report()
        rep = validate_partitioned(meta["clips_dir"] + "/*.parquet", spec,
                                   CheckpointStore(str(tmp_path / "ckpt")),
                                   decode=decode, refs=refs)
    assert rep["violations"] == suite["violations"]
    assert rep["warnings"] == suite["warnings"]
    assert suite["violations"].get("REF-EXISTENCE-100") == len(meta["dangling_refs"])


def test_partitioned_runs_the_suite_schema_checks(tmp_path):
    """Parquet files without the ``codec`` column: the partitioned runner
    reports the missing column and the -50 unevaluable warnings exactly
    as the suite does, instead of passing."""
    import glob

    import pyarrow.parquet as pq

    meta = write_clips_dataset(str(tmp_path / "clips"), n_rows=60, seed=5,
                               defect_rate=0.0, num_shards=2)
    for f in glob.glob(meta["clips_dir"] + "/*.parquet"):
        pq.write_table(pq.read_table(f).drop_columns(["codec"]), f)
    spec = clips_spec()
    errors, warnings = run_suite(ray.data.read_parquet(meta["clips_dir"]), spec,
                                 decode=True).severity_counts()
    rep = validate_partitioned(meta["clips_dir"] + "/*.parquet", spec,
                               CheckpointStore(str(tmp_path / "ckpt")), decode=True)
    assert errors.get("SCHEMA-COLUMN-101") == 1
    assert {"CROSS-DOMAIN-51", "DATATYPE-FACET-50", "ENUM-DOMAIN-50",
            "ONLY-50"} <= set(warnings)
    assert rep["violations"] == errors
    assert rep["warnings"] == warnings
    assert rep["pass"] is False
