"""The scan's two routes: a plain parquet read runs as one task per
contiguous share of its files (``relational.shares``), any other Dataset
as one ``map_batches``.  Both routes give the same rows, counts and
sample on both merge tiers (the exchange tier forced with
``test_keyed_tiers._tier``), and the file route's rows do not depend on
how its files are shared out."""

import glob
import os

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray.data

from osf_data_validator_tool_ray.checks.registry import RunContext, plan_checks
from osf_data_validator_tool_ray.pipelines import partitioned, relational, runner
from osf_data_validator_tool_ray.pipelines.partitioned import validate_partitioned
from osf_data_validator_tool_ray.pipelines.runner import SUITE, run_suite, scan_checks
from osf_data_validator_tool_ray.sources.io import parquet_read_files
from osf_data_validator_tool_ray.spec import clips_spec
from osf_data_validator_tool_ray.state.checkpoint import CheckpointStore
from osf_data_validator_tool_ray.synth import write_clips_dataset
from tests.test_keyed_tiers import _tier


@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    return write_clips_dataset(str(tmp_path_factory.mktemp("route")), n_rows=240,
                               seed=21, defect_rate=0.05, num_shards=3)


def _files(meta):
    return sorted(glob.glob(os.path.join(meta["clips_dir"], "*.parquet")))


def _rows(res):
    return sorted(map(tuple, res.to_pandas().astype(str).values))


def _same(a, b):
    ra, rb = a.report(sample=12), b.report(sample=12)
    assert _rows(a) == _rows(b)
    for key in ("checks", "violations", "warnings", "pass", "violations_sample"):
        assert ra[key] == rb[key], key


@pytest.mark.parametrize("tier", ["driver", "exchange"])
@pytest.mark.parametrize("decode", [False, True])
def test_file_and_dataset_routes_agree(clips, tier, decode):
    files = _files(clips)
    plain = ray.data.read_parquet(clips["clips_dir"])
    assert parquet_read_files(plain) == files
    refs = pq.read_table(clips["refs_path"])
    with _tier(tier):
        by_file = run_suite(plain, clips_spec(), decode=decode,
                            refs={"refs": ray.data.read_parquet(clips["refs_path"])})
        by_map = run_suite(ray.data.from_arrow(pq.read_table(clips["clips_dir"])),
                           clips_spec(), decode=decode,
                           refs={"refs": ray.data.from_arrow(refs)})
    assert by_file.summary["result_tier"]["tier"] == tier
    assert (not by_file.cluster_violations) == (tier == "driver")
    _same(by_file, by_map)
    assert by_file.report()["violations"]["REF-EXISTENCE-100"] == \
        len(clips["dangling_refs"])


@pytest.mark.parametrize("tier", ["driver", "exchange"])
def test_refs_read_by_file_or_by_dataset_agree(clips, tier):
    def dangling(refs_ds):
        t = scan_checks(ray.data.read_parquet(clips["clips_dir"]), clips_spec(),
                        frozenset({"keyed"}), refs={"refs": refs_ds}).to_arrow()
        return sorted(t.filter(pa.compute.equal(t.column("check_id"),
                                                "REF-EXISTENCE-100"))
                      .column("key").to_pylist())

    with _tier(tier):
        by_file = dangling(ray.data.read_parquet(clips["refs_path"]))
        by_map = dangling(ray.data.from_arrow(pq.read_table(clips["refs_path"])))
    assert by_file == by_map
    assert len(by_file) == len(clips["dangling_refs"])


def test_a_file_read_twice_counts_twice(clips):
    f = _files(clips)[0]
    ds = ray.data.read_parquet([f, f])
    assert parquet_read_files(ds) == [f, f]
    t = scan_checks(ds, clips_spec(), frozenset({"keyed"})).to_arrow()
    dup = set(t.filter(pa.compute.equal(t.column("check_id"), "CARD-MAX-100"))
              .column("key").to_pylist())
    keys = set(pq.read_table(f, columns=["clip_id"]).column("clip_id").to_pylist())
    assert dup == keys


def test_only_plain_parquet_reads_go_by_file(clips, tmp_path):
    d = clips["clips_dir"]
    hive = tmp_path / "hive"
    pq.write_to_dataset(pq.read_table(d), str(hive), partition_cols=["codec"])
    for ds in (ray.data.read_parquet(d, filter=pads.field("dur_ms") > 0),
               ray.data.read_parquet(str(hive)),    # hive partitioning: the default
               ray.data.read_parquet(d, include_paths=True),
               ray.data.read_parquet(d).map_batches(lambda t: t, batch_format="pyarrow"),
               ray.data.read_parquet(d).limit(10),
               ray.data.from_arrow(pq.read_table(d))):
        assert parquet_read_files(ds) is None
    assert parquet_read_files(ray.data.read_parquet(d, columns=["clip_id"])) == \
        _files(clips)


def test_projected_read_reports_unread_columns_absent(clips):
    cols = ["clip_id", "sr_hz", "dur_ms"]
    spec = clips_spec()

    def run(ds):
        return plan_checks(RunContext(ds, spec), list(SUITE))

    by_file = run(ray.data.read_parquet(clips["clips_dir"], columns=cols))
    by_map = run(ray.data.from_arrow(pq.read_table(clips["clips_dir"], columns=cols)))
    _same(by_file, by_map)
    rep = by_file.report()
    assert rep["violations"]["SCHEMA-COLUMN-101"] > 0 and rep["warnings"]


@pytest.mark.parametrize("tier", ["driver", "exchange"])
def test_zero_row_file_same_on_both_routes(clips, tmp_path, tier):
    empty = str(tmp_path / "empty.parquet")
    pq.write_table(pq.read_table(_files(clips)[0]).slice(0, 0), empty)
    with _tier(tier):
        by_file = run_suite(ray.data.read_parquet(empty), clips_spec(), decode=True)
        by_map = run_suite(ray.data.from_arrow(pq.read_table(empty)), clips_spec(),
                           decode=True)
    _same(by_file, by_map)


class _Submissions:
    """A share task stand-in that records the share of each submission."""

    def __init__(self, task):
        self.task, self.shares = task, []

    def remote(self, share, *args):
        self.shares.append(share)
        return self.task.remote(share, *args)


def _sharing(monkeypatch, module, slots: int) -> _Submissions:
    """Force ``slots`` CPU slots on the share helper and count the share
    tasks ``module`` submits."""
    monkeypatch.setattr(relational, "cpu_slots", lambda: slots)
    sub = _Submissions(module._share_task)
    monkeypatch.setattr(module, "_share_task", sub)
    return sub


@pytest.fixture(scope="module")
def five(tmp_path_factory):
    return write_clips_dataset(str(tmp_path_factory.mktemp("five")), n_rows=200,
                               seed=23, defect_rate=0.05, num_shards=5, max_dur_ms=600)


@pytest.mark.parametrize("decode", [False, True])
def test_shares_keep_file_order(five, monkeypatch, decode):
    """2 slots share 5 files as 2 + 3 in 2 tasks; the violations are those
    of one file per task (the same rows and report: row order follows
    the scan's batches, which cross file boundaries)."""
    files = _files(five)

    def run(slots):
        sub = _sharing(monkeypatch, runner, slots)
        res = run_suite(ray.data.read_parquet(files), clips_spec(), decode=decode,
                        refs={"refs": ray.data.read_parquet(five["refs_path"])})
        return res, sub.shares

    shared, shares = run(2)
    assert shares == [files[:2], files[2:]]
    by_file, shares = run(5)
    assert shares == [[f] for f in files]
    assert shared.violations.num_rows
    _same(shared, by_file)


def test_shares_never_exceed_the_partitions(clips, monkeypatch):
    sub = _sharing(monkeypatch, runner, 4)
    scan_checks(ray.data.read_parquet(clips["clips_dir"]), clips_spec(),
                frozenset({"stateless", "keyed"}))
    assert sub.shares == [[f] for f in _files(clips)]


def test_partitioned_shares_record_every_partition(five, tmp_path, monkeypatch):
    pattern = five["clips_dir"] + "/*.parquet"

    def run(slots, tag):
        sub = _sharing(monkeypatch, partitioned, slots)
        store = CheckpointStore(str(tmp_path / tag))
        rep = validate_partitioned(pattern, clips_spec(), store, decode=True)
        return rep, store, sub.shares

    shared, store, shares = run(2, "two")
    assert len(shares) == 2 and sum(shares, []) == _files(five)
    assert len(store.records()) == 5 and shared["partitions_ran"] == 5
    by_file, _, shares = run(5, "five")
    assert len(shares) == 5
    assert shared == by_file
