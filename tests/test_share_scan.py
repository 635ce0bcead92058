"""The partitioned runner scans a share's partitions as ONE stream
(``SuitePass.scan``, every batch tagged with its partition's ``_part``)
and splits each run's findings back by partition.  Every partition's
artifact and record counts equal those of the partition validated alone
(``_run_share([path])``); a partition whose read fails fails alone; a
``findings`` call that raises fails every partition in its run; no
``_tmp_*`` file is left either way.

At these sizes no run cuts inside a partition, so even the keyed partial
rows (one per key, partition and run) match the one-partition share's."""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from osf_data_validator_tool_ray.checks.unified_keyed import keyed_plan
from osf_data_validator_tool_ray.pipelines import runner
from osf_data_validator_tool_ray.pipelines.partitioned import (
    _partition_id, _run_share, read_artifacts, run_partitioned, validate_partitioned)
from osf_data_validator_tool_ray.pipelines.runner import SuitePass
from osf_data_validator_tool_ray.spec import clips_spec
from osf_data_validator_tool_ray.state.checkpoint import CheckpointStore
from osf_data_validator_tool_ray.synth import synth_clips

ROWS = 40
COUNTS = ("n_rows", "n_violations", "n_warnings", "pass", "lineage", "partition_id")


def _write_share(d, n: int, seed: int, dict_at: int = None) -> list[str]:
    """``n`` files of ``ROWS`` seeded clips; file 1 repeats file 0's first
    clip_id, and file ``dict_at`` stores ``codec`` dictionary-encoded."""
    t = synth_clips(n * ROWS, seed=seed, defect_rate=0.05, max_dur_ms=600)[0]
    parts = [t.slice(i * ROWS, ROWS) for i in range(n)]
    k = t.schema.get_field_index("clip_id")
    ids = parts[1].column(k).to_pylist()
    ids[0] = parts[0].column(k)[0].as_py()
    parts[1] = parts[1].set_column(k, "clip_id", pa.array(ids, t.schema.field(k).type))
    if dict_at is not None:
        j = t.schema.get_field_index("codec")
        parts[dict_at] = parts[dict_at].set_column(
            j, "codec", pc.dictionary_encode(parts[dict_at].column(j)))
    os.makedirs(d, exist_ok=True)
    files = []
    for i, part in enumerate(parts):
        files.append(os.path.join(str(d), f"part-{i}.parquet"))
        pq.write_table(part, files[-1])
    return files


def _args(files: list[str], decode: bool) -> tuple:
    spec = clips_spec()
    return (spec, keyed_plan(spec, set(pq.read_schema(files[0]).names), decode),
            frozenset(u.predicate for u in spec.universals))


def _share(files, root, decode) -> list[dict]:
    spec, plan, universals = _args(files, decode)
    checks = runner.ROW_CHECKS if decode else runner.ROW_CHECKS - {"decode"}
    return _run_share(files, spec, root, checks, plan, universals)


def _artifact(rec: dict, root: str) -> "pa.Table | None":
    return (None if rec["artifact"] is None
            else read_artifacts([os.path.join(root, rec["artifact"])]))


def _rows(t: pa.Table) -> list:
    return sorted(map(str, t.to_pylist()))


def _calls(monkeypatch) -> list[list[int]]:
    """The ``_part`` positions of each ``findings`` call's rows."""
    calls, findings = [], SuitePass.findings

    def counted(self, batch):
        calls.append(sorted(set(batch.column("_part").to_pylist())))
        return findings(self, batch)
    monkeypatch.setattr(SuitePass, "findings", counted)
    return calls


def _no_temp_files(root: str) -> bool:
    return not glob.glob(os.path.join(root, "**", "_tmp_*"), recursive=True)


@pytest.mark.parametrize("decode", [False, True])
def test_share_artifacts_match_one_partition_shares(tmp_path, monkeypatch, decode):
    """Four partitions in one share: file 1 repeats a clip_id of file 0 in
    the same run, file 2 (dictionary-encoded ``codec``) cuts the run.
    Each artifact's rows (as a multiset), schema and record counts equal
    its one-partition share's; both holders of the repeated clip_id keep
    their own partial row, and the merge still reports CARD-MAX-100."""
    files = _write_share(tmp_path / "clips", 4, seed=44, dict_at=2)
    dup = pq.read_table(files[0], columns=["clip_id"]).column(0)[0].as_py()
    calls = _calls(monkeypatch)
    together = CheckpointStore(str(tmp_path / "together"))
    recs = _share(files, together.root, decode)
    assert calls == [[0, 1], [2], [3]]
    assert [r["partition_id"] for r in recs] == [_partition_id(f) for f in files]

    for path, rec in zip(files, recs):
        alone = CheckpointStore(str(tmp_path / f"alone-{_partition_id(path)}"))
        [one] = _share([path], alone.root, decode)
        assert {k: rec[k] for k in COUNTS} == {k: one[k] for k in COUNTS}
        mine, its = _artifact(rec, together.root), _artifact(one, alone.root)
        assert mine is not None and its is not None
        assert "_part" not in mine.column_names
        assert mine.schema == its.schema
        assert _rows(mine) == _rows(its)

    for rec in recs[:2]:
        t = _artifact(rec, together.root)
        assert pc.sum(pc.equal(t.column("_pkey"), dup)).as_py() == 1

    res = run_partitioned(os.path.join(str(tmp_path / "clips"), "*.parquet"),
                          clips_spec(), together, decode=decode)
    assert res.summary["partitions_skipped"] == 4 and res.summary["partitions_ran"] == 0
    found = res.to_arrow()
    assert "_part" not in found.column_names
    card = found.filter(pc.and_(pc.equal(found.column("check_id"), "CARD-MAX-100"),
                                pc.equal(found.column("key"), dup)))
    assert card.num_rows == 1


def test_partition_whose_read_fails_mid_run_fails_alone(tmp_path, monkeypatch):
    """Three partitions in one run; the middle one's third row group has
    a broken page header (its footer still reads), so its first batches
    join the run before its read raises.  Those batches leave the run:
    the first and third partitions are recorded with a clean run's
    artifacts, no temp file is left, the share re-raises, and after the
    repair the rerun runs just the middle partition."""
    d = tmp_path / "clips"
    files = _write_share(d, 3, seed=45)
    victim = files[1]
    pq.write_table(pq.read_table(victim), victim, row_group_size=8)
    good = open(victim, "rb").read()
    with open(victim, "r+b") as fh:
        fh.seek(pq.read_metadata(victim).row_group(2).column(0).data_page_offset)
        fh.write(b"\xff" * 64)
    pq.read_metadata(victim)   # the footer still reads

    monkeypatch.setattr(runner, "READ_BYTES", 1)    # one row per read
    calls = _calls(monkeypatch)
    store = CheckpointStore(str(tmp_path / "ckpt"))
    with pytest.raises(Exception):
        _share(files, store.root, True)
    assert calls == [[0, 2]]
    assert store.completed() == {_partition_id(files[0]), _partition_id(files[2])}
    assert _no_temp_files(store.root)

    with open(victim, "wb") as fh:
        fh.write(good)
    clean = CheckpointStore(str(tmp_path / "clean"))
    for rec, one in zip(store.records(), [r for r in _share(files, clean.root, True)
                                          if r["partition_id"] != _partition_id(victim)]):
        assert {k: rec[k] for k in COUNTS} == {k: one[k] for k in COUNTS}
        assert _rows(_artifact(rec, store.root)) == _rows(_artifact(one, clean.root))

    monkeypatch.undo()
    rep = validate_partitioned(os.path.join(str(d), "*.parquet"), clips_spec(), store,
                               decode=True)
    assert rep["partitions_ran"] == 1 and rep["partitions_skipped"] == 2


class _KernelFault(RuntimeError):
    pass


@pytest.mark.parametrize("decode", [False, True])
def test_findings_failure_fails_its_run(tmp_path, monkeypatch, decode):
    """Five partitions; file 2 (dictionary-encoded) cuts them into the
    runs {0, 1}, {2}, {3, 4}.  A kernel that raises on the first run
    leaves partitions 0 and 1 unrecorded and no temp file; 2, 3 and 4 are
    recorded, and the share re-raises the kernel's error."""
    files = _write_share(tmp_path / "clips", 5, seed=46, dict_at=2)
    findings = SuitePass.findings

    def faulty(self, batch):
        if 0 in batch.column("_part").to_pylist():
            raise _KernelFault("kernel fault")
        return findings(self, batch)
    monkeypatch.setattr(SuitePass, "findings", faulty)
    store = CheckpointStore(str(tmp_path / "ckpt"))
    with pytest.raises(_KernelFault):
        _share(files, store.root, decode)
    assert store.completed() == {_partition_id(f) for f in files[2:]}
    assert _no_temp_files(store.root)


def test_findings_failure_discards_a_partition_already_written(tmp_path, monkeypatch):
    """One call per one-row batch (``READ_BYTES`` and ``BATCH_BYTES``
    patched to 1): partition
    1's first batch is written to its temp artifact before the call on its
    second batch raises.  Partition 1 is left unrecorded with no temp
    file, its neighbours are recorded."""
    files = _write_share(tmp_path / "clips", 3, seed=47)
    monkeypatch.setattr(runner, "READ_BYTES", 1)
    monkeypatch.setattr(runner, "BATCH_BYTES", 1)
    seen, findings = [], SuitePass.findings

    def faulty(self, batch):
        seen.append(batch.column("_part")[0].as_py())
        if seen[-1] == 1 and seen.count(1) == 2:
            raise _KernelFault("kernel fault")
        return findings(self, batch)
    monkeypatch.setattr(SuitePass, "findings", faulty)
    store = CheckpointStore(str(tmp_path / "ckpt"))
    with pytest.raises(_KernelFault):
        _share(files, store.root, True)
    assert seen.count(1) == 2          # the rest of partition 1 is not checked
    assert store.completed() == {_partition_id(files[0]), _partition_id(files[2])}
    assert _no_temp_files(store.root)


def test_split_refuses_a_row_without_its_partition():
    """The split gives every row to the partition its ``_part`` names and
    raises on a row that has none, never dropping it."""
    from osf_data_validator_tool_ray.pipelines.partitioned import _by_partition

    t = pa.table({"severity": ["error", "warning", None, "error"],
                  "_part": pa.array([1, 0, 1, 3], pa.int32())})
    split = {pos: rows.column("severity").to_pylist() for pos, rows in _by_partition(t)}
    assert split == {0: ["warning"], 1: ["error", None], 3: ["error"]}
    bad = t.set_column(1, "_part", pa.array([1, None, 1, 3], pa.int32()))
    with pytest.raises(ValueError):
        list(_by_partition(bad))


def test_scan_reading_no_column_reads_no_column(tmp_path, monkeypatch):
    """A share whose checks read no column of its files (``keyed`` with
    a keyless spec) asks the file for an empty column list and gets
    batches of no column, not every column; its records still count
    the files' rows."""
    from osf_data_validator_tool_ray.pipelines.partitioned import KeyedPlan
    from osf_data_validator_tool_ray.sources.io import Partition
    from osf_data_validator_tool_ray.spec import ConstraintSpec

    files = _write_share(tmp_path / "in", 2, seed=3)
    asked, read, real = [], [], Partition.iter_batches

    def spy(self, batch_size, columns=None):
        asked.append(columns)
        for rb in real(self, batch_size, columns):
            read.append(rb.num_columns)
            yield rb

    monkeypatch.setattr(Partition, "iter_batches", spy)
    recs = _run_share(files, ConstraintSpec(table="t"), str(tmp_path / "store"),
                      frozenset({"keyed"}), KeyedPlan(None), frozenset())
    assert asked == [[], []] and read and set(read) == {0}
    assert [r["n_rows"] for r in recs] == [ROWS, ROWS]
