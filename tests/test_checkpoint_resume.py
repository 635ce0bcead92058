"""Resume contract: an interrupted partitioned run resumes without
recomputing validated partitions; cross-partition grouped constraints
still hold globally; the fix path quarantines violating rows."""

import glob
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest
import ray.data

from osf_data_validator_tool_ray.pipelines.fix import quarantine
from osf_data_validator_tool_ray.pipelines.partitioned import validate_partitioned
from osf_data_validator_tool_ray.spec import clips_spec
from osf_data_validator_tool_ray.state.checkpoint import CheckpointStore
from osf_data_validator_tool_ray.synth import write_clips_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("clipsds"))
    meta = write_clips_dataset(out, n_rows=400, seed=42, defect_rate=0.03,
                               num_shards=4, max_dur_ms=600)
    return meta


def test_full_run_then_resume_skips_everything(dataset, tmp_path):
    store = CheckpointStore(str(tmp_path / "ckpt"))
    pattern = dataset["clips_dir"] + "/*.parquet"
    rep1 = validate_partitioned(pattern, clips_spec(), store)
    assert rep1["partitions_ran"] == 4 and rep1["partitions_skipped"] == 0
    assert rep1["n_rows"] == 400
    assert rep1["violations"]  # seeded defects present

    rep2 = validate_partitioned(pattern, clips_spec(), store)
    assert rep2["partitions_ran"] == 0 and rep2["partitions_skipped"] == 4
    # merged results identical on resume
    assert rep2["violations"] == rep1["violations"]


def test_partial_run_resumes_only_missing(dataset, tmp_path):
    store = CheckpointStore(str(tmp_path / "ckpt2"))
    files = sorted(glob.glob(dataset["clips_dir"] + "/*.parquet"))
    # simulate an interrupted run: validate only the first two partitions
    for f in files[:2]:
        validate_partitioned(f, clips_spec(), store)
    assert len(store.completed()) == 2

    rep = validate_partitioned(dataset["clips_dir"] + "/*.parquet", clips_spec(), store)
    assert rep["partitions_skipped"] == 2 and rep["partitions_ran"] == 2
    assert rep["n_rows"] == 400


def test_cross_partition_duplicates_caught(dataset, tmp_path):
    """A duplicate clip_id split across two partitions must be caught by
    the global merge of stored partials."""
    src = sorted(glob.glob(dataset["clips_dir"] + "/*.parquet"))
    dup_dir = tmp_path / "dup"
    dup_dir.mkdir()
    t0 = pq.read_table(src[0])
    t1 = pq.read_table(src[1])
    # copy a row from partition 0 into partition 1 (same clip_id)
    dup_row = t0.slice(5, 1)
    dup_key = dup_row.column("clip_id")[0].as_py()
    import pyarrow as pa
    t1b = pa.concat_tables([t1, dup_row])
    pq.write_table(t0, str(dup_dir / "part-0.parquet"))
    pq.write_table(t1b, str(dup_dir / "part-1.parquet"))

    store = CheckpointStore(str(tmp_path / "ckpt3"))
    rep = validate_partitioned(str(dup_dir) + "/*.parquet", clips_spec(), store)
    assert rep["violations"].get("CARD-MAX-100", 0) >= 1

    # the duplicate key appears via the partials merge: check the stored partials
    pfiles = []
    for d in store.artifact_dirs("partials"):
        pfiles.extend(glob.glob(os.path.join(d, "*.parquet")))
    parts = ray.data.read_parquet(pfiles).to_pandas()
    merged = parts.groupby("key")["card0_n"].sum()
    assert merged[dup_key] == 2


def test_records_have_lineage_and_metrics(dataset, tmp_path):
    store = CheckpointStore(str(tmp_path / "ckpt4"))
    validate_partitioned(dataset["clips_dir"] + "/*.parquet", clips_spec(), store)
    recs = store.records()
    assert len(recs) == 4
    for r in recs:
        assert r["lineage"].endswith(".parquet")
        assert r["n_rows"] > 0 and r["runtime_s"] > 0 and r["status"] == "done"
        assert "pass" in r and "n_violations" in r
    # per-partition verdicts surface in the merged report
    rep = validate_partitioned(dataset["clips_dir"] + "/*.parquet", clips_spec(), store)
    assert len(rep["partitions"]) == 4
    assert any(not p["pass"] for p in rep["partitions"].values())


def test_partitioned_referential_integrity(dataset, tmp_path):
    """RI across partitions resolves against the stored key partials —
    and still works on resume (no raw-row recompute)."""
    from osf_data_validator_tool_ray.spec import clips_spec
    store = CheckpointStore(str(tmp_path / "ckpt_ri"))
    pattern = dataset["clips_dir"] + "/*.parquet"
    refs = {"refs": ray.data.read_parquet(dataset["refs_path"])}
    rep = validate_partitioned(pattern, clips_spec(), store, refs=refs)
    assert rep["violations"].get("REF-EXISTENCE-100", 0) == len(dataset["dangling_refs"])
    rep2 = validate_partitioned(pattern, clips_spec(), store, refs=refs)
    assert rep2["partitions_ran"] == 0
    assert rep2["violations"].get("REF-EXISTENCE-100", 0) == len(dataset["dangling_refs"])


def test_corrupt_record_revalidates(dataset, tmp_path):
    """A half-written (crashed) record is not 'complete': the partition
    re-runs and its artifacts are atomically overwritten, not duplicated."""
    store = CheckpointStore(str(tmp_path / "ckpt_corrupt"))
    pattern = dataset["clips_dir"] + "/*.parquet"
    rep1 = validate_partitioned(pattern, clips_spec(), store)
    pid = sorted(store.completed())[0]
    # simulate a crash mid-write: truncate the record
    with open(store._record_path(pid), "w") as f:
        f.write('{"partition_id": "x", "n_ro')
    assert pid not in store.completed()
    rep2 = validate_partitioned(pattern, clips_spec(), store)
    assert rep2["partitions_ran"] == 1 and rep2["partitions_skipped"] == 3
    # merged violation counts identical after the overwrite (no dupes)
    assert rep2["violations"] == rep1["violations"]


def test_quarantine_fix_path(dataset, tmp_path):
    meta = dataset
    ds = ray.data.read_parquet(meta["clips_dir"])
    bad_keys = meta["ledger"]["unknown_codec"]
    res = quarantine(ds, bad_keys, "clip_id",
                     str(tmp_path / "clean"), str(tmp_path / "quarantine"))
    assert res["n_quarantined"] == len(bad_keys)
    assert res["n_clean"] == 400 - len(bad_keys)
    q = ray.data.read_parquet(str(tmp_path / "quarantine")).to_pandas()
    assert set(q["clip_id"]) == set(bad_keys)


def test_partitioned_corrupt_partition_heals_on_rerun(tmp_path):
    """A failing partition (corrupt parquet) raises, but completed
    partitions keep their records; after repairing the file, a rerun
    validates only what is missing and the merged report is whole."""
    import pytest as _pytest

    from osf_data_validator_tool_ray.spec import clips_spec
    from osf_data_validator_tool_ray.synth import write_clips_dataset

    meta = write_clips_dataset(str(tmp_path / "clips"), n_rows=600, seed=5,
                               defect_rate=0.02, num_shards=3)
    import glob as _glob
    shards = sorted(_glob.glob(meta["clips_dir"] + "/*.parquet"))
    victim = shards[1]
    good_bytes = open(victim, "rb").read()
    with open(victim, "wb") as fh:          # corrupt: truncated footer
        fh.write(good_bytes[: len(good_bytes) // 3])

    store = CheckpointStore(str(tmp_path / "ckpt"))
    with _pytest.raises(Exception):
        validate_partitioned(meta["clips_dir"] + "/*.parquet", clips_spec(),
                             store, decode=True)
    done_after_crash = store.completed()
    assert _partition_basename(victim) not in done_after_crash

    with open(victim, "wb") as fh:          # repair
        fh.write(good_bytes)
    rep = validate_partitioned(meta["clips_dir"] + "/*.parquet", clips_spec(),
                               store, decode=True)
    assert rep["partitions_skipped"] == len(done_after_crash)
    assert rep["partitions_ran"] == 3 - len(done_after_crash)
    assert set(rep["partitions"]) == {_partition_basename(p) for p in shards}
    assert rep["n_rows"] == 600


def test_partitioned_refuses_partials_of_another_decode_setting(dataset, tmp_path):
    """A decode=True store keeps no decodable counts in its keyed
    partials; merging it under decode=False must fail loudly instead of
    reading the missing counts as zero (a SOME-100 for every clip)."""
    store = CheckpointStore(str(tmp_path / "ckpt"))
    pattern = dataset["clips_dir"] + "/*.parquet"
    validate_partitioned(pattern, clips_spec(), store, decode=True)
    with pytest.raises(ValueError, match="decode setting"):
        validate_partitioned(pattern, clips_spec(), store)


def test_partitioned_clean_input_passes(tmp_path):
    """Clean input stores no violation files, so the merge has a single
    part to union (the keyed verdicts)."""
    meta = write_clips_dataset(str(tmp_path / "clips"), n_rows=300, seed=3,
                               defect_rate=0.0, num_shards=3)
    rep = validate_partitioned(meta["clips_dir"] + "/*.parquet", clips_spec(),
                               CheckpointStore(str(tmp_path / "ckpt")), decode=False)
    assert rep["pass"] is True
    assert rep["violations"] == {} and rep["n_rows"] == 300


def _partition_basename(path):
    import os
    return os.path.splitext(os.path.basename(path))[0]
