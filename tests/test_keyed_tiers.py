"""The one keyed pass and the one partial merge: the driver and exchange
merge tiers agree (null keys included), and the suite and the
partitioned runner report the same per-check counts.  The exchange
primitive (``relational.by_partition``) hashes a key by its value alone,
calls its function at most once per partition and keeps empty results
typed."""

import contextlib
import logging
import uuid
from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
import ray
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


@contextlib.contextmanager
def _schema_warnings():
    """Ray Data's warnings about a block whose schema differs from the
    blocks before it, as a column-less empty block's does."""
    got = []

    class Collect(logging.Handler):
        def emit(self, record):
            if "different schema" in record.getMessage():
                got.append(record.getMessage())

    handler = Collect()
    logging.getLogger("ray.data").addHandler(handler)
    try:
        yield got
    finally:
        logging.getLogger("ray.data").removeHandler(handler)


def _blocks(ds) -> list:
    return [ray.get(r) for r in ds.to_arrow_refs()]


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
    suite = run_suite(ray.data.read_parquet(meta["clips_dir"]), spec,
                      decode=True).report()
    errors, warnings = suite["violations"], suite["warnings"]
    rep = validate_partitioned(meta["clips_dir"] + "/*.parquet", spec,
                               CheckpointStore(str(tmp_path / "ckpt")), decode=True)
    assert errors.get("SCHEMA-COLUMN-101") == 1
    assert {"CROSS-DOMAIN-51", "DATATYPE-FACET-50", "ENUM-DOMAIN-50",
            "ONLY-50"} <= set(warnings)
    assert rep["violations"] == errors
    assert rep["warnings"] == warnings
    assert rep["pass"] is False


# keys 0..49 sit in both blocks; the second block also holds null keys,
# so pandas would convert it to float64 and hash its key 1 apart from the
# first block's
KEY_CASES = {
    "int64_null_in_one_block": (["k"], [
        pa.table({"k": pa.array(range(50), pa.int64()), "v": np.arange(50)}),
        pa.table({"k": pa.array([*range(50), None, None], pa.int64()),
                  "v": np.arange(52)})]),
    "string": (["k"], [
        pa.table({"k": [f"key{i}" for i in range(50)], "v": np.arange(50)}),
        pa.table({"k": [f"key{i}" for i in range(50, 0, -1)], "v": np.arange(50)})]),
    "two_columns_with_nulls": (["a", "b"], [
        pa.table({"a": pa.array([i % 7 for i in range(60)], pa.int64()),
                  "b": [f"b{i % 5}" for i in range(60)], "v": np.arange(60)}),
        pa.table({"a": pa.array([None if i % 9 == 0 else i % 7 for i in range(60)],
                                pa.int64()),
                  "b": [None if i % 4 == 0 else f"b{i % 5}" for i in range(60)],
                  "v": np.arange(60)})]),
}


@pytest.mark.parametrize("case", sorted(KEY_CASES))
def test_exchange_tier_hashes_the_key_value_alone(case):
    keys, blocks = KEY_CASES[case]
    specs = {"n": ("v", "count"), "s": ("v", "sum"), "lo": ("v", "min")}
    got = {}
    for tier in ("driver", "exchange"):
        with _tier(tier):
            out = rel.grouped_agg(ray.data.from_arrow(blocks), keys, specs)
            got[tier] = sorted(
                (tuple(r.values()) for b in _blocks(out)
                 for r in b.select(keys + list(specs)).to_pylist()), key=repr)
    distinct = pa.concat_tables(blocks).group_by(keys).aggregate([]).num_rows
    assert len(got["driver"]) == distinct
    assert got["exchange"] == got["driver"]


def _by_partition_calls(tier: str, tmp_path) -> list:
    """One row per ``by_partition`` call over 5,000 keys of two rows each
    in 8 blocks: the call's row count and its sorted keys.  Each call
    also leaves a marker file, and the output is consumed three times:
    one marker per call shows it was computed once."""
    keys = np.arange(5000)
    ds = ray.data.from_arrow(pa.table({"k": np.concatenate([keys, keys[::-1]])})) \
        .repartition(8)

    def fn(t: pa.Table) -> pa.Table:
        (tmp_path / uuid.uuid4().hex).touch()
        return pa.table({"n": [t.num_rows], "keys": [sorted(set(t.column("k").to_pylist()))]})

    with _tier(tier), _schema_warnings() as warned:
        out = rel.by_partition(ds, ["k"], fn)
        n = out.count()
        calls = [r for b in _blocks(out) for r in b.to_pylist()]
        assert len(out.take_all()) == n == len(calls)
    assert len(list(tmp_path.iterdir())) == len(calls)
    assert sum(c["n"] for c in calls) == 10_000
    # every key meets all its rows in exactly one call
    assert sorted(k for c in calls for k in c["keys"]) == keys.tolist()
    assert not warned
    return calls


def test_by_partition_calls_fn_at_most_once_per_partition(tmp_path):
    assert 1 < len(_by_partition_calls("exchange", tmp_path)) <= 4   # P = the session's 4 CPUs


def test_by_partition_driver_tier_calls_fn_once(tmp_path):
    assert len(_by_partition_calls("driver", tmp_path)) == 1


@pytest.mark.parametrize("empty", ["zero_rows", "zero_blocks"])
def test_empty_input_gives_a_typed_result_on_the_exchange_tier(empty):
    t = pa.table({"k": pa.array([], pa.string()), "v": pa.array([], pa.int64())})
    if empty == "zero_rows":
        ds, want = ray.data.from_arrow(t), t.schema
    else:
        # Ray knows no types for a zero-block Dataset: int64 columns
        ds = ray.data.from_arrow(pa.table({"k": ["a"], "v": [1]})).limit(0)
        want = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    with _tier("exchange"), _schema_warnings() as warned:
        out = rel.merge_partials(ds, "k", {"v": "sum"}, lambda t: t)
        blocks = _blocks(out)
    assert sum(b.num_rows for b in blocks) == 0
    assert blocks and all(b.schema == want for b in blocks)
    assert not warned
