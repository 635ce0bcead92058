import pyarrow as pa
import pytest
import ray.data

from osf_data_validator_tool_ray.sources.io import (
    HAVE_LANCE, Partition, partition_files, read_table)
from osf_data_validator_tool_ray.synth import write_clips_dataset


def test_read_table_and_partitions(tmp_path):
    meta = write_clips_dataset(str(tmp_path), n_rows=60, seed=5,
                               defect_rate=0.0, num_shards=3)
    files = partition_files(meta["clips_dir"])
    assert len(files) == 3
    ds = read_table(meta["clips_dir"], columns=["clip_id", "codec"])
    assert ds.count() == 60
    assert set(ds.schema().names) == {"clip_id", "codec"}
    ds2 = read_table(meta["clips_dir"] + "/*.parquet")
    assert ds2.count() == 60


def test_iter_partition_batches_parquet(tmp_path):
    meta = write_clips_dataset(str(tmp_path), n_rows=60, seed=5,
                               defect_rate=0.0, num_shards=3)
    [f0, _, _] = partition_files(meta["clips_dir"])
    batches = list(Partition(f0).iter_batches(batch_size=8, columns=["clip_id"]))
    assert sum(b.num_rows for b in batches) == 20
    assert batches[0].schema.names == ["clip_id"]


@pytest.mark.skipif(not HAVE_LANCE, reason="pylance not in this sandbox")
def test_lance_round_trip_fragment_lineage(tmp_path):
    """Write a Lance table in several fragments; prove the
    fragment -> partition lineage mapping: partition_files lists one id
    per fragment, each id streams exactly its own fragment's rows with
    projection pushdown, and read_table sees the whole table."""
    import lance

    tbl = pa.table({"clip_id": [f"c{i:04d}" for i in range(100)],
                    "dur_ms": pa.array(range(100), type=pa.int32())})
    path = str(tmp_path / "clips.lance")
    lance.write_dataset(tbl, path, max_rows_per_file=30)

    parts = partition_files(path)
    assert len(parts) == 4                      # ceil(100 / 30) fragments
    seen = []
    for p in parts:
        rows = [r for b in Partition(p).iter_batches(columns=["clip_id"])
                for r in b.column("clip_id").to_pylist()]
        assert rows                              # each fragment non-empty
        seen.extend(rows)
    assert sorted(seen) == sorted(tbl.column("clip_id").to_pylist())
    assert read_table(path).count() == 100


def test_read_table_filter_pushdown(tmp_path):
    import pandas as pd
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_

    df = pd.DataFrame({"k": range(1000), "v": [i % 50 for i in range(1000)]})
    p = str(tmp_path / "t.parquet")
    pq_.write_table(pa.Table.from_pandas(df), p, row_group_size=100)
    ds = read_table(p, columns=["k", "v"], filter=pads.field("v") > 47)
    got = ds.to_pandas()
    assert len(got) == (df["v"] > 47).sum()
    assert (got["v"] > 47).all()
