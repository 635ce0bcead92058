"""Hot-key skew (north_rule: clip_id/codec skew handled explicitly).

The two-phase combiner is the salting mechanism: a hot key is
pre-reduced inside every block before the exchange, so the shuffle moves
O(#blocks) rows for that key, not O(#rows) — verified here by planting a
key that covers 50% of the table."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from osf_data_validator_tool_ray.checks.cardinality import _PartialAggregator
from osf_data_validator_tool_ray.pipelines.runner import run_suite, scan_checks
from osf_data_validator_tool_ray.spec import Cardinality, ConstraintSpec, clips_spec
from osf_data_validator_tool_ray.synth import synth_clips


def test_combiner_reduces_hot_key_before_exchange():
    n = 20_000
    keys = np.where(np.arange(n) % 2 == 0, "HOT", [f"k{i}" for i in range(n)])
    df = pd.DataFrame({"k": keys})
    ds = ray.data.from_pandas(df).repartition(8)

    # the partial stage output (pre-exchange) must carry the hot key as
    # ~one row per block, not 10k rows
    partials = ds.map_batches(
        _PartialAggregator("k", [Cardinality(key="k", column="k", max_count=1)], []),
        batch_format="pyarrow", batch_size=None).to_pandas()
    hot_rows = (partials.key == "HOT").sum()
    assert hot_rows <= 8, hot_rows          # one per block
    assert partials[partials.key == "HOT"]["card0_n"].sum() == n // 2


def test_group_count_correct_under_skew():
    n = 20_000
    keys = np.where(np.arange(n) % 2 == 0, 0, np.arange(n))
    ds = ray.data.from_pandas(pd.DataFrame({"k": keys})).repartition(8)
    spec = ConstraintSpec(table="t", key_column="k", cardinalities=[
        Cardinality(key="k", column="k", max_count=100)])
    out = scan_checks(ds, spec, frozenset({"keyed"})).to_pandas()
    assert len(out) == 1 and out.iloc[0]["check_id"] == "CARD-MAX-100"
    assert out.iloc[0]["key"] == "0" and int(out.iloc[0]["observed"]) == n // 2


def test_suite_with_duplicated_hot_clip_id():
    table, _ = synth_clips(600, seed=21, defect_rate=0.0)
    hot = pa.array(["clip:0001:00000001"] * 300 + table.column("clip_id").to_pylist()[300:],
                   type=pa.string())
    table = table.set_column(table.schema.get_field_index("clip_id"), "clip_id", hot)
    res = run_suite(ray.data.from_arrow(table).repartition(4), clips_spec())
    v = res.violations.to_pandas()
    dup = v[(v.check_id == "CARD-MAX-100")]
    assert set(dup.key) == {"clip:0001:00000001"}
    assert dup.iloc[0]["observed"] == "300"
