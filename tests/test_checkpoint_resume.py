"""Resume contract: an interrupted partitioned run resumes without
recomputing validated partitions; cross-partition grouped constraints
still hold globally; the fix path quarantines violating rows."""

import dataclasses
import glob
import json
import os
import shutil

from unittest import mock

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from osf_data_validator_tool_ray.checks.registry import RunContext, plan_checks
from osf_data_validator_tool_ray.pipelines.fix import quarantine
from osf_data_validator_tool_ray.pipelines.partitioned import (
    read_artifacts, run_partitioned, validate_partitioned)
from osf_data_validator_tool_ray.pipelines.runner import SUITE, ROW_CHECKS, tagged_partials
from osf_data_validator_tool_ray.spec import clips_spec
from osf_data_validator_tool_ray.state.checkpoint import CheckpointStore
from osf_data_validator_tool_ray.synth import synth_clips, write_clips_dataset
from tests.test_keyed_tiers import _tier


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


def test_run_merges_only_its_own_partitions(dataset, tmp_path):
    """A store holding four partitions, validated again for one of them,
    reports that one partition's rows and findings, not the store's."""
    store = CheckpointStore(str(tmp_path / "ckpt"))
    files = sorted(glob.glob(dataset["clips_dir"] + "/*.parquet"))
    validate_partitioned(dataset["clips_dir"] + "/*.parquet", clips_spec(), store)
    alone = validate_partitioned(files[0], clips_spec(), CheckpointStore(str(tmp_path / "one")))
    rep = validate_partitioned(files[0], clips_spec(), store)
    assert rep["partitions_skipped"] == 1 and list(rep["partitions"]) == list(alone["partitions"])
    for key in ("n_rows", "violations", "warnings"):
        assert rep[key] == alone[key], key


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
    t1b = pa.concat_tables([t1, dup_row])
    pq.write_table(t0, str(dup_dir / "part-0.parquet"))
    pq.write_table(t1b, str(dup_dir / "part-1.parquet"))

    store = CheckpointStore(str(tmp_path / "ckpt3"))
    rep = validate_partitioned(str(dup_dir) + "/*.parquet", clips_spec(), store)
    assert rep["violations"].get("CARD-MAX-100", 0) >= 1

    # the duplicate key appears via the partials merge: check the stored partials
    pfiles = [os.path.join(store.artifact_dir(pid), "findings.arrow")
              for pid in sorted(store.completed())]
    parts = tagged_partials(read_artifacts(pfiles)).to_pandas()
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


def test_store_layout_survives_dropped_partitions(dataset, tmp_path):
    """Each partition leaves one record and one artifact file in a
    directory of its own, and no temp file; removing two partitions'
    records and directories (as the benchmark's resume workload does)
    makes the next run validate exactly those two and report what the
    fresh run reported."""
    from perfbench.workloads import drop_partitions

    store = CheckpointStore(str(tmp_path / "ckpt"))
    pattern = dataset["clips_dir"] + "/*.parquet"
    fresh = validate_partitioned(pattern, clips_spec(), store)
    pids = sorted(store.completed())
    assert len(pids) == 4
    assert sorted(os.listdir(os.path.join(store.root, "records"))) == \
        [f"{pid}.json" for pid in pids]
    for pid in pids:
        assert os.listdir(store.artifact_dir(pid)) == ["findings.arrow"]
    assert sorted(os.listdir(os.path.join(store.root, "artifacts"))) == pids
    assert not glob.glob(os.path.join(store.root, "**", "_tmp_*"), recursive=True)

    drop_partitions(store.root, pids[1:3])
    resumed = validate_partitioned(pattern, clips_spec(), store)
    assert resumed["partitions_ran"] == 2 and resumed["partitions_skipped"] == 2
    assert sorted(store.completed()) == pids
    for key in ("violations", "warnings", "pass", "n_rows", "checks"):
        assert resumed[key] == fresh[key], key


def test_lost_artifact_fails_closed(dataset, tmp_path):
    """A done partition whose artifact is gone must not drop its
    violations from the merged report: the merge refuses the store,
    naming the partition and the missing file."""
    store = CheckpointStore(str(tmp_path / "ckpt"))
    pattern = dataset["clips_dir"] + "/*.parquet"
    fresh = validate_partitioned(pattern, clips_spec(), store)
    rec = next(r for r in store.records() if r["n_violations"])
    path = os.path.join(store.root, rec["artifact"])
    os.remove(path)
    with pytest.raises(ValueError, match="is missing") as err:
        validate_partitioned(pattern, clips_spec(), store)
    assert rec["partition_id"] in str(err.value) and path in str(err.value)
    assert sum(fresh["violations"].values()) > rec["n_violations"]


def test_store_of_the_old_layout_fails_closed(dataset, tmp_path):
    """Two older layouts this merge cannot read: a complete record without
    the ``artifact`` field (the two-artifact layout's ``violations/`` and
    ``partials/`` dirs), and a record naming a ``findings.parquet``
    artifact.  It refuses either store, naming it, instead of reporting
    it as holding no findings or reading it as another format."""
    pattern = dataset["clips_dir"] + "/*.parquet"
    files = sorted(glob.glob(pattern))
    store = CheckpointStore(str(tmp_path / "two"))
    for f in files:
        pid = os.path.splitext(os.path.basename(f))[0]
        os.makedirs(store.artifact_dir(pid, "violations"))
        os.makedirs(store.artifact_dir(pid, "partials"))
        store.record(pid, {"n_rows": 100, "lineage": f, "n_violations": 0,
                           "n_warnings": 0, "pass": True, "runtime_s": 0.1})
    with pytest.raises(ValueError, match="two-artifact layout") as err:
        validate_partitioned(pattern, clips_spec(), store)
    assert store.root in str(err.value) and "new store" in str(err.value)

    store = CheckpointStore(str(tmp_path / "parquet"))
    for f in files:
        pid = os.path.splitext(os.path.basename(f))[0]
        os.makedirs(store.artifact_dir(pid))
        pq.write_table(pq.read_table(f).slice(0, 0),
                       os.path.join(store.artifact_dir(pid), "findings.parquet"))
        store.record(pid, {"n_rows": 100, "lineage": f, "n_violations": 0,
                           "n_warnings": 0, "pass": True, "runtime_s": 0.1,
                           "artifact": os.path.join("artifacts", pid, "findings.parquet")})
    with pytest.raises(ValueError, match="Parquet-artifact layout") as err:
        validate_partitioned(pattern, clips_spec(), store)
    assert store.root in str(err.value) and "new store" in str(err.value)


@pytest.mark.parametrize("tier", ["driver", "exchange"])
def test_merge_leaves_no_map_of_the_store(dataset, tmp_path, tier):
    """The merge sizes artifacts through memory maps and reads their rows
    into owned memory: once it returns, no map names a file under the
    store root (a store can hold more partitions than the kernel allows
    maps), and a held result gives the same rows after the store is
    removed.  The spec has no key column, so ``tagged_violations``
    selects the stored rows without filtering and copies nothing."""
    spec = dataclasses.replace(clips_spec(), key_column=None)
    root = str(tmp_path / "ckpt")
    pattern = dataset["clips_dir"] + "/*.parquet"

    def mapped() -> list[str]:
        with open("/proc/self/maps") as fh:
            return [line for line in fh if root in line]

    with _tier(tier):
        rep = validate_partitioned(pattern, spec, CheckpointStore(root))
        assert not mapped()
        res = run_partitioned(pattern, spec, CheckpointStore(root))
        assert not mapped()
        rows = res.to_arrow()
    assert rep["partitions_ran"] == 4 and res.summary["partitions_skipped"] == 4
    assert rep["result_tier"]["tier"] == tier and rows.num_rows > 0
    assert glob.glob(os.path.join(root, "artifacts", "*", "findings.arrow"))
    shutil.rmtree(root)
    assert res.to_arrow().equals(rows)


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
    from osf_data_validator_tool_ray.synth import synth_clips, write_clips_dataset

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
    """A decode=True store keeps decoded counts (``dext0_n``), not
    sniffed ones (``ext0_n``), in its keyed partials; merging it under
    decode=False must fail loudly instead of reading the missing counts
    as zero (a SOME-100 for every clip)."""
    store = CheckpointStore(str(tmp_path / "ckpt"))
    pattern = dataset["clips_dir"] + "/*.parquet"
    validate_partitioned(pattern, clips_spec(), store, decode=True)
    with pytest.raises(ValueError, match="decode setting"):
        validate_partitioned(pattern, clips_spec(), store)


def test_partitioned_refuses_sniffed_partials_under_decode(dataset, tmp_path):
    """The reverse: a decode=False store holds no decoded counts, and its
    violations lack every DECODE finding; merging it under decode=True
    must fail loudly instead of reporting the store as decoded."""
    store = CheckpointStore(str(tmp_path / "ckpt"))
    pattern = dataset["clips_dir"] + "/*.parquet"
    validate_partitioned(pattern, clips_spec(), store)
    with pytest.raises(ValueError, match="decode setting"):
        validate_partitioned(pattern, clips_spec(), store, decode=True)


def test_partitioned_clean_input_passes(tmp_path):
    """Clean input stores no violation files, so the merge has a single
    part to union (the keyed verdicts)."""
    meta = write_clips_dataset(str(tmp_path / "clips"), n_rows=300, seed=3,
                               defect_rate=0.0, num_shards=3)
    rep = validate_partitioned(meta["clips_dir"] + "/*.parquet", clips_spec(),
                               CheckpointStore(str(tmp_path / "ckpt")), decode=False)
    assert rep["pass"] is True
    assert rep["violations"] == {} and rep["n_rows"] == 300


def test_partition_without_findings_writes_no_artifact(tmp_path):
    """Without a key column a clean partition has no findings: its record
    names no artifact, its directory holds no file, and the merge reads
    no rows."""
    meta = write_clips_dataset(str(tmp_path / "clips"), n_rows=100, seed=3,
                               defect_rate=0.0, num_shards=2)
    store = CheckpointStore(str(tmp_path / "ckpt"))
    rep = validate_partitioned(meta["clips_dir"] + "/*.parquet",
                               dataclasses.replace(clips_spec(), key_column=None), store)
    assert rep["partitions_ran"] == 2 and rep["violations"] == {}
    assert [r["artifact"] for r in store.records()] == [None, None]
    assert not glob.glob(os.path.join(store.root, "artifacts", "*", "*"))
    assert rep["result_tier"]["rows"] == 0


def _partition_basename(path):
    import os
    return os.path.splitext(os.path.basename(path))[0]


def test_bad_partition_fails_no_other_partition(tmp_path, monkeypatch):
    """9 partitions in 2 shares (4 + 5), the middle file of the second
    truncated: the run raises only after both shares end, every other
    partition is recorded, and after the repair the rerun runs just the
    one partition."""
    from osf_data_validator_tool_ray.pipelines import relational

    monkeypatch.setattr(relational, "cpu_slots", lambda: 2)
    meta = write_clips_dataset(str(tmp_path / "clips"), n_rows=270, seed=9,
                               defect_rate=0.03, num_shards=9, max_dur_ms=600)
    shards = sorted(glob.glob(meta["clips_dir"] + "/*.parquet"))
    assert [len(s) for s in relational.shares(shards)] == [4, 5]
    victim = shards[6]
    good_bytes = open(victim, "rb").read()
    with open(victim, "wb") as fh:
        fh.write(good_bytes[: len(good_bytes) // 3])

    store = CheckpointStore(str(tmp_path / "ckpt"))
    pattern = meta["clips_dir"] + "/*.parquet"
    with pytest.raises(Exception):
        validate_partitioned(pattern, clips_spec(), store, decode=True)
    assert store.completed() == {_partition_basename(p) for p in shards} \
        - {_partition_basename(victim)}

    with open(victim, "wb") as fh:
        fh.write(good_bytes)
    rep = validate_partitioned(pattern, clips_spec(), store, decode=True)
    assert rep["partitions_ran"] == 1 and rep["partitions_skipped"] == 8
    assert rep["n_rows"] == 270


def test_retried_share_skips_recorded_partitions(dataset, tmp_path):
    """A share run again (as Ray retries a task) leaves a partition that is
    already recorded as it is: its record's ``ts`` and its artifacts."""
    from osf_data_validator_tool_ray.checks.unified_keyed import keyed_plan
    from osf_data_validator_tool_ray.pipelines.partitioned import _run_share

    files = sorted(glob.glob(dataset["clips_dir"] + "/*.parquet"))
    spec = clips_spec()
    plan = keyed_plan(spec, set(pq.read_schema(files[0]).names), False)
    universals = frozenset(u.predicate for u in spec.universals)
    store = CheckpointStore(str(tmp_path / "ckpt"))
    checks = ROW_CHECKS - {"decode"}
    [first] = _run_share([files[0]], spec, store.root, checks, plan, universals)
    pid = first["partition_id"]

    def artifacts():
        return {f: (os.stat(f).st_ino, os.stat(f).st_mtime_ns)
                for f in glob.glob(os.path.join(store.artifact_dir(pid), "*"))}

    before = artifacts()
    assert before
    recs = _run_share(files, spec, store.root, checks, plan, universals)
    assert [r["partition_id"] for r in recs] == \
        [_partition_basename(f) for f in files]
    assert recs[0] == first == store.completed_record(pid)
    assert artifacts() == before
    assert store.completed() == {_partition_basename(f) for f in files}


def test_failed_partition_leaves_no_temp_artifacts(tmp_path):
    """A partition whose scan fails mid-file (its footer reads, a page
    header does not) closes its artifact writers and removes their temp
    dirs, on every attempt; the healthy partition is recorded, and after
    the repair the rerun runs just the failed one and reports what a
    clean run reports."""
    meta = write_clips_dataset(str(tmp_path / "clips"), n_rows=120, seed=7,
                               defect_rate=0.05, num_shards=2, max_dur_ms=600)
    shards = sorted(glob.glob(meta["clips_dir"] + "/*.parquet"))
    victim = shards[1]
    good_bytes = open(victim, "rb").read()
    with open(victim, "r+b") as fh:
        fh.seek(4)
        fh.write(b"\xff" * 396)
    pq.read_metadata(victim)   # the footer still reads

    store = CheckpointStore(str(tmp_path / "ckpt"))
    pattern = meta["clips_dir"] + "/*.parquet"
    for _ in range(2):
        with pytest.raises(Exception):
            validate_partitioned(pattern, clips_spec(), store, decode=True)
        assert store.completed() == {_partition_basename(shards[0])}
        assert not glob.glob(os.path.join(store.root, "**", "_tmp_*"), recursive=True)

    with open(victim, "wb") as fh:
        fh.write(good_bytes)
    rep = validate_partitioned(pattern, clips_spec(), store, decode=True)
    assert rep["partitions_ran"] == 1 and rep["partitions_skipped"] == 1
    clean = validate_partitioned(pattern, clips_spec(),
                                 CheckpointStore(str(tmp_path / "clean")), decode=True)
    runs = ("partitions_ran", "partitions_skipped")
    assert {k: v for k, v in rep.items() if k not in runs} \
        == {k: v for k, v in clean.items() if k not in runs}


@pytest.mark.parametrize("tier", ["driver", "exchange"])
def test_store_is_an_input_of_the_one_scan(dataset, tmp_path, tier):
    """``plan_checks`` with a store reports what it reports without one,
    and a second run with the store scans no partition."""
    files = sorted(glob.glob(dataset["clips_dir"] + "/*.parquet"))
    refs = {"refs": ray.data.read_parquet(dataset["refs_path"])}
    root = str(tmp_path / "ckpt")

    def run(store=None) -> dict:
        ctx = RunContext(ray.data.read_parquet(files), clips_spec(), refs=refs, store=store)
        return plan_checks(ctx, [*SUITE, "decode"]).report()

    with _tier(tier):
        plain, stored, again = run(), run(CheckpointStore(root)), run(CheckpointStore(root))
    assert plain["violations"]["CARD-MAX-100"] and plain["warnings"]
    for key in ("violations", "warnings"):
        assert plain[key] == stored[key] == again[key], key
    assert stored["partitions_ran"] == 4 and stored["partitions_skipped"] == 0
    assert again["partitions_ran"] == 0 and again["partitions_skipped"] == 4
    assert again["result_tier"]["tier"] == tier


def test_store_of_another_check_set_fails_closed(dataset, tmp_path):
    """A store scanned with ``stateless`` alone holds no keyed partials:
    resumed with ``stateless,keyed`` it would give no keyed verdicts, so
    it is refused, as is a record that names no check set."""
    files = sorted(glob.glob(dataset["clips_dir"] + "/*.parquet"))
    store = CheckpointStore(str(tmp_path / "ckpt"))

    def run(entries):
        return plan_checks(RunContext(ray.data.read_parquet(files), clips_spec(),
                                      store=store), entries)

    run(["stateless"])
    assert all(r["checks"] == ["stateless"] for r in store.records())
    with pytest.raises(ValueError, match="new store") as err:
        run(["stateless", "keyed"])
    assert store.root in str(err.value)
    assert all(r["checks"] == ["stateless"] for r in store.records())

    rec = store.records()[0]
    store.record(rec["partition_id"], {k: v for k, v in rec.items() if k != "checks"})
    with pytest.raises(ValueError, match="new store") as err:
        run(["stateless"])
    assert rec["partition_id"] in str(err.value)


def test_colliding_partition_ids_fail_closed(tmp_path):
    """Two files with one base name, or one file read twice, would share
    one record and artifact: the run names both paths and raises before
    any partition is scanned."""
    t = synth_clips(200, seed=7, defect_rate=0.1)[0]
    files = []
    for i in range(2):
        os.makedirs(tmp_path / f"d{i}")
        files.append(str(tmp_path / f"d{i}" / "clips.parquet"))
        pq.write_table(t.slice(100 * i, 100), files[-1])
    store = CheckpointStore(str(tmp_path / "ckpt"))
    with pytest.raises(ValueError, match="one record id") as err:
        validate_partitioned(str(tmp_path / "d*" / "clips.parquet"), clips_spec(), store)
    assert files[0] in str(err.value) and files[1] in str(err.value)
    with pytest.raises(ValueError, match="one record id"):
        plan_checks(RunContext(ray.data.read_parquet([files[0], files[0]]), clips_spec(),
                               store=store), list(SUITE))
    assert store.records() == []
    assert not os.listdir(os.path.join(store.root, "artifacts"))


def test_store_needs_a_plain_parquet_read(dataset, tmp_path):
    """A store given with a Dataset the file route cannot scan (here
    ``from_arrow``) raises before any check runs."""
    t = pq.read_table(sorted(glob.glob(dataset["clips_dir"] + "/*.parquet"))[0])
    store = CheckpointStore(str(tmp_path / "ckpt"))
    with pytest.raises(ValueError, match="plain parquet read"):
        plan_checks(RunContext(ray.data.from_arrow(t), clips_spec(), store=store),
                    list(SUITE))
    assert store.records() == []


def test_resume_below_the_gate_builds_no_dataset(dataset, tmp_path):
    """Below the driver gate the partitioned run and its resume build no
    Ray Dataset (each would cost more than the resume's merge): with the
    constructors patched to raise, they report what an unpatched run
    reports."""
    pattern = dataset["clips_dir"] + "/*.parquet"
    want = validate_partitioned(pattern, clips_spec(), CheckpointStore(str(tmp_path / "a")),
                                decode=True)

    def refuse(*args, **kwargs):
        raise AssertionError("a Ray Dataset was built")

    store = CheckpointStore(str(tmp_path / "b"))
    with mock.patch.object(ray.data, "read_parquet", refuse), \
            mock.patch.object(ray.data, "from_arrow_refs", refuse), \
            mock.patch.object(ray.data, "from_arrow", refuse):
        fresh = validate_partitioned(pattern, clips_spec(), store, decode=True)
        resumed = validate_partitioned(pattern, clips_spec(), store, decode=True)
    assert fresh == want
    runs = ("partitions_ran", "partitions_skipped")
    assert resumed["partitions_skipped"] == 4
    assert {k: v for k, v in resumed.items() if k not in runs} \
        == {k: v for k, v in want.items() if k not in runs}
