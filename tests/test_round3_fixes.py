"""Regression tests for the round-2 verdict / advice items fixed in
round 3 (distinct_counts gating, hash_join sparse-right guard,
deterministic_sample uint64, quarantine retry-safe sinks, bucket-pair
memory budget, as-of int64 composite keys, partition streaming writes)."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from tests.test_keyed_tiers import _tier


# ---------------------------------------------------------------------------
# verdict #3 — distinct_counts adaptive gating
# ---------------------------------------------------------------------------

def _dc_frame(n=4000):
    rng = np.random.default_rng(7)
    return pd.DataFrame({
        "a": rng.integers(0, 700, n),                   # 700 distinct
        "b": [f"v{int(x)}" for x in rng.integers(0, 150, n)],  # 150 distinct
    })


def test_distinct_counts_overflow_path_matches_exact():
    from osf_data_validator_tool_ray.pipelines.relational import (
        distinct_counts)

    df = _dc_frame()
    ds = ray.data.from_pandas(df).repartition(5)
    exact = distinct_counts(ds, ["a", "b"])
    # failing the driver gate forces the overflow (exchange) path on the
    # same input
    with _tier("exchange"):
        forced = distinct_counts(ray.data.from_pandas(df).repartition(5),
                                 ["a", "b"])
    assert exact.to_pydict() == forced.to_pydict()
    assert exact.column("n_a")[0].as_py() == df["a"].nunique()
    assert exact.column("n_b")[0].as_py() == df["b"].nunique()


def test_distinct_counts_hll_tier_within_tolerance():
    from osf_data_validator_tool_ray.pipelines.relational import (
        distinct_counts)

    df = _dc_frame(20_000)
    ds = ray.data.from_pandas(df).repartition(6)
    est = distinct_counts(ds, ["a", "b"], approx=True)
    for col, true in (("n_a", df["a"].nunique()), ("n_b", df["b"].nunique())):
        got = est.column(col)[0].as_py()
        assert abs(got - true) / true < 0.05   # p=14 => ~0.8% typical


# ---------------------------------------------------------------------------
# verdict #4 — hash_join sparse/small right side must not crash
# ---------------------------------------------------------------------------

def test_hash_join_sparse_right_side():
    from osf_data_validator_tool_ray.pipelines.relational import hash_join

    left = pd.DataFrame({"k": np.arange(2000) % 40,
                         "x": np.arange(2000)})
    right = pd.DataFrame({"k": [0, 1, 2, 3, 39], "y": [10, 11, 12, 13, 14]})
    lds = ray.data.from_pandas(left).repartition(16)
    rds = ray.data.from_pandas(right)        # 5-row sparse right side
    got = hash_join(lds, rds, "k").to_pandas() \
        .sort_values(["k", "x"]).reset_index(drop=True)
    want = left.merge(right, on="k").sort_values(["k", "x"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["k", "x", "y"]].astype({"k": "int64", "x": "int64", "y": "int64"}),
        want.astype({"k": "int64", "x": "int64", "y": "int64"}))


def test_hash_join_big_right_still_works():
    from osf_data_validator_tool_ray.pipelines.relational import hash_join

    left = pd.DataFrame({"k": np.arange(300) % 50, "x": np.arange(300)})
    right = pd.DataFrame({"k": np.arange(50), "y": np.arange(50) * 2})
    got = hash_join(ray.data.from_pandas(left).repartition(4),
                    ray.data.from_pandas(right).repartition(4),
                    "k", broadcast_threshold=0).to_pandas()
    want = left.merge(right, on="k")
    assert len(got) == len(want)
    assert got["y"].sum() == want["y"].sum()


# ---------------------------------------------------------------------------
# verdict #8 — partition artifacts stream through their file writer
# ---------------------------------------------------------------------------

def test_partitioned_all_violating_streams_incrementally(tmp_path, monkeypatch):
    """A pathological partition where EVERY row violates must flush
    violations batch-by-batch (multiple record batches), not
    accumulate the whole violation set in a task-heap list.  With reads of
    1 MiB checked in runs of 4 MiB (``runner.READ_BYTES``/``BATCH_BYTES``
    patched small; the partition's task body runs in process so the
    patch holds), 1,100 rows of ~15 KB flush in at least four runs."""
    import pyarrow.parquet as pq

    from osf_data_validator_tool_ray.checks.unified_keyed import keyed_plan
    from osf_data_validator_tool_ray.pipelines import runner
    from osf_data_validator_tool_ray.pipelines.partitioned import (
        _run_share, artifact_meta, validate_partitioned)
    from osf_data_validator_tool_ray.spec import clips_spec
    from osf_data_validator_tool_ray.state.checkpoint import CheckpointStore
    from osf_data_validator_tool_ray.synth import write_clips_dataset

    meta = write_clips_dataset(str(tmp_path / "clips"), n_rows=1100, seed=1,
                               defect_rate=0.0, num_shards=1)
    # corrupt every row: negative duration violates the facet bound
    src = pq.read_table(meta["clips_dir"] + "/part-00000.parquet")
    bad = src.set_column(src.schema.get_field_index("dur_ms"), "dur_ms",
                         pa.array([-5] * src.num_rows, type=pa.int32()))
    part_dir = tmp_path / "badclips"
    part_dir.mkdir()
    path = str(part_dir / "part-00000.parquet")
    pq.write_table(bad, path)

    spec = clips_spec()
    store = CheckpointStore(str(tmp_path / "store"))
    monkeypatch.setattr(runner, "READ_BYTES", 1 << 20)
    monkeypatch.setattr(runner, "BATCH_BYTES", 4 << 20)
    _run_share([path], spec, store.root, runner.ROW_CHECKS,
               keyed_plan(spec, set(bad.column_names), True),
               frozenset(u.predicate for u in spec.universals))
    rep = validate_partitioned(str(part_dir / "*.parquet"), spec, store, decode=True)
    assert rep["partitions_skipped"] == 1
    assert sum(rep["violations"].values()) >= 1100
    [rec] = store.records()
    [f] = os.listdir(store.artifact_dir(rec["partition_id"]))
    assert os.path.join("artifacts", rec["partition_id"], f) == rec["artifact"]
    meta = artifact_meta(os.path.join(store.root, rec["artifact"]))
    assert meta.num_record_batches >= 4    # one record batch per flushed run
    assert meta.num_rows >= 1100


# ---------------------------------------------------------------------------
# advice — sliding-window oracle must floor-divide for negative epochs
# ---------------------------------------------------------------------------

def test_sliding_windows_negative_epoch_matches_oracle():
    import duckdb

    from osf_data_validator_tool_ray.pipelines.streaming import (
        sliding_windows)

    # pre-1970 plus around-zero timestamps: truncation vs floor differ
    ts = pd.to_datetime([-130_000_000, -90_000_001, -1, 0, 1,
                         29_999_999, 30_000_000, 95_000_000], unit="us")
    events = pd.DataFrame({"user_id": [1] * len(ts), "ts": ts,
                           "value": np.arange(len(ts), dtype=np.float64)})
    got = sliding_windows(ray.data.from_pandas(events).repartition(2),
                          "user_id", "ts", window_s=90, slide_s=30,
                          value_col="value").to_pandas()
    want = duckdb.sql("""
        SELECT user_id, window_id, COUNT(*) AS n, SUM(value) AS sum_value
        FROM (SELECT user_id, value,
                     UNNEST(generate_series(
                        CAST(floor((epoch_us(ts) - 90000000)/30000000.0) AS BIGINT) + 1,
                        CAST(floor(epoch_us(ts)/30000000.0) AS BIGINT))) AS window_id
              FROM events)
        GROUP BY user_id, window_id
    """).df()
    g = got.sort_values("window_id").reset_index(drop=True)
    w = want.sort_values("window_id").reset_index(drop=True)
    assert g["window_id"].tolist() == w["window_id"].tolist()
    assert g["n"].astype(int).tolist() == w["n"].astype(int).tolist()
    assert np.allclose(g["sum_value"], w["sum_value"])


# ---------------------------------------------------------------------------
# advice — fsspec import stubs must not linger in sys.modules
# ---------------------------------------------------------------------------

def test_fsspec_stub_modules_not_left_behind():
    import importlib
    import sys

    from osf_data_validator_tool_ray.sources.io import (
        _cache_fsspec_http_import)

    _cache_fsspec_http_import()
    # the cached fsspec entry is the whole point...
    assert "fsspec.implementations.http" in sys.modules
    # ...but absent deps must NOT be masked by empty stubs: a genuine
    # import should raise ImportError, not yield an attribute-less module
    for name in ("aiohttp", "yarl"):
        if name in sys.modules and not hasattr(sys.modules[name], "__file__"):
            raise AssertionError(f"stub module {name} left in sys.modules")
        try:
            importlib.import_module(name)
        except ImportError:
            pass            # clean failure is the correct outcome
        else:
            assert hasattr(sys.modules[name], "__file__")   # real package


# ---------------------------------------------------------------------------
# advice — _vector_bucket_pairs transient memory bounded by a byte budget
# ---------------------------------------------------------------------------

def test_vector_bucket_pairs_chunked_matches_unchunked():
    from osf_data_validator_tool_ray.checks.dedup import _vector_bucket_pairs

    rng = np.random.default_rng(3)
    # many equal-size buckets (the advice scenario: G unbounded)
    n_buckets, bucket_size, d = 60, 7, 16
    n = n_buckets * bucket_size
    df = pd.DataFrame({
        "band_id": np.repeat(np.arange(n_buckets) % 4, bucket_size),
        "band_key": np.repeat(np.arange(n_buckets), bucket_size),
        "doc_id": rng.permutation(n),
    })
    sig = rng.integers(0, 4, size=(n, d)).astype(np.uint64)
    args = (df, ["band_id", "band_key"], "doc_id", sig,
            lambda sa, sb: (sa == sb).mean(axis=-1),
            lambda s: s >= 0.3, 10_000, "test")
    ia1, ib1, sc1 = _vector_bucket_pairs(*args)
    # 1-byte budget forces one bucket-group per chunk
    ia2, ib2, sc2 = _vector_bucket_pairs(*args, pair_budget_bytes=1)
    key = lambda ia, ib, sc: sorted(zip(ia.tolist(), ib.tolist(),
                                        np.round(sc, 9).tolist()))
    assert key(ia1, ib1, sc1) == key(ia2, ib2, sc2)
    assert len(ia1) > 0


# ---------------------------------------------------------------------------
# advice — quarantine sinks: deterministic part names, stale-dir refusal
# ---------------------------------------------------------------------------

def test_quarantine_parts_deterministic_and_stale_refused(tmp_path):
    import glob
    import os

    from osf_data_validator_tool_ray.pipelines.fix import (
        quarantine, quarantine_counts_from_footers)

    df = pd.DataFrame({"k": [f"id{i}" for i in range(500)],
                       "v": np.arange(500)})
    bad = [f"id{i}" for i in range(0, 500, 7)]
    c, q = str(tmp_path / "c"), str(tmp_path / "q")
    ds = ray.data.from_pandas(df).repartition(4)
    res1 = quarantine(ds, bad, "k", c, q)
    names1 = sorted(os.path.basename(f) for f in glob.glob(c + "/*.parquet"))

    # rerun into the same dirs without overwrite => refused (no mixing)
    with pytest.raises(FileExistsError):
        quarantine(ray.data.from_pandas(df).repartition(4), bad, "k", c, q)

    # overwrite rerun: identical task-idx-derived part names, same counts,
    # sink row counts == returned counts (a retry overwrites, never adds)
    res2 = quarantine(ray.data.from_pandas(df).repartition(4), bad, "k",
                      c, q, overwrite=True)
    names2 = sorted(os.path.basename(f) for f in glob.glob(c + "/*.parquet"))
    assert names1 == names2
    assert res1["n_clean"] == res2["n_clean"] == 500 - len(bad)
    assert quarantine_counts_from_footers(c) == res2["n_clean"]
    assert quarantine_counts_from_footers(q) == res2["n_quarantined"]


# ---------------------------------------------------------------------------
# new validation ops: aggregate reconciliation + sequence integrity
# ---------------------------------------------------------------------------

def test_reconcile_sum_flags_only_mismatches():
    from osf_data_validator_tool_ray.pipelines.relational import (
        reconcile_sum)

    fact = pd.DataFrame({"k": [1, 1, 2, 2, 3, 4],
                         "v": [10.0, 5.0, 7.0, 3.0, 9.0, 2.0]})
    dim = pd.DataFrame({"k": [1, 2, 3, 5],
                        "total": [15.0, 11.0, 9.0, 4.0]})   # k=2 off by 10%
    out = reconcile_sum(ray.data.from_pandas(fact).repartition(3), "k", "v",
                        ray.data.from_pandas(dim), "k", "total",
                        rel_tol=0.05).to_pandas()
    assert out["k"].tolist() == [2]
    assert out["rel_diff"].iloc[0] == pytest.approx(1.0 / 11.0)
    # k=4 (missing dim) and k=5 (missing fact) are excluded by design


def test_sequence_regressions_detects_backward_ts():
    from osf_data_validator_tool_ray.pipelines.streaming import (
        sequence_regressions)

    ts = pd.to_datetime([100, 200, 150, 300,     # key a: seq 3 regresses
                         50, 60, 70], unit="s")  # key b: clean
    df = pd.DataFrame({"k": ["a"] * 4 + ["b"] * 3,
                       "seq": [1, 2, 3, 4, 1, 2, 3],
                       "ts": ts})
    out = sequence_regressions(ray.data.from_pandas(df).repartition(3),
                               "k", "ts", "seq").to_pandas()
    assert len(out) == 1
    assert out["k"].iloc[0] == "a" and out["seq"].iloc[0] == 3
    assert out["prev_ts"].iloc[0] == pd.Timestamp("1970-01-01 00:03:20")


# ---------------------------------------------------------------------------
# fix round-trip: validate -> quarantine -> re-validate clean
# ---------------------------------------------------------------------------

def test_fix_round_trip_clean_revalidates(tmp_path):
    """The reference's run() -> fix() -> rerun lifecycle: quarantining
    every error-keyed row leaves a dataset whose re-validation reports
    zero errors (dvt re-runs after CRUD fixes; here the fixed dataset is
    the clean sink)."""
    import ray.data

    from osf_data_validator_tool_ray.pipelines.fix import quarantine
    from osf_data_validator_tool_ray.pipelines.runner import run_suite
    from osf_data_validator_tool_ray.spec import clips_spec
    from osf_data_validator_tool_ray.synth import write_clips_dataset

    meta = write_clips_dataset(str(tmp_path / "clips"), n_rows=1500,
                               seed=27, defect_rate=0.02)
    ds = ray.data.read_parquet(meta["clips_dir"])
    res = run_suite(ds, clips_spec(), decode=True)
    v = res.violations.to_pandas()
    bad = v.loc[(v["severity"] == "error") & v["key"].notna(), "key"].unique()
    assert len(bad) > 0

    out = quarantine(ray.data.read_parquet(meta["clips_dir"]), list(bad),
                     "clip_id", str(tmp_path / "clean"),
                     str(tmp_path / "quar"))
    assert out["n_quarantined"] >= len(bad)

    clean = ray.data.read_parquet(str(tmp_path / "clean"))
    res2 = run_suite(clean, clips_spec(), decode=True)
    v2 = res2.violations.to_pandas()
    # a fully-empty violations Dataset drops its columns in to_pandas
    n_errs = 0 if "severity" not in v2.columns \
        else (v2["severity"] == "error").sum()
    assert n_errs == 0, v2.head()


# ---------------------------------------------------------------------------
# exact KS (SQL-checkable drift tier)
# ---------------------------------------------------------------------------

def test_exact_ks_matches_reference_ecdf():
    from osf_data_validator_tool_ray.checks.drift import exact_ks

    rng = np.random.default_rng(11)
    a = rng.integers(0, 20, 3000)
    b = rng.integers(3, 23, 2000)          # shifted -> real drift
    df = pd.DataFrame({"v": np.concatenate([a, b]),
                       "side": ["a"] * len(a) + ["b"] * len(b)})
    got = exact_ks(ray.data.from_pandas(df).repartition(6),
                   "v", "side", "a", "b")
    # reference: ECDF max-diff over the pooled support
    support = np.unique(df["v"])
    fa = np.searchsorted(np.sort(a), support, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), support, side="right") / len(b)
    want = np.abs(fa - fb).max()
    assert got == pytest.approx(want, abs=1e-12)
    assert got > 0.1                        # the shift is detected
    # partitioning-invariant
    got2 = exact_ks(ray.data.from_pandas(df).repartition(2),
                    "v", "side", "a", "b")
    assert got2 == pytest.approx(got, abs=1e-12)


# ---------------------------------------------------------------------------
# advice — deterministic_sample must not wrap for ids >= 2^31
# ---------------------------------------------------------------------------

def test_deterministic_sample_large_ids_match_sql():
    import duckdb

    from osf_data_validator_tool_ray.pipelines.relational import (
        deterministic_sample)

    ids = np.array([1, 2**31 - 1, 2**31, 2**33 + 7, 2**40 + 123,
                    3_470_000_000, 2**62 + 5], dtype=np.int64)
    df = pd.DataFrame({"doc_id": ids})
    got = deterministic_sample(ray.data.from_pandas(df), "doc_id",
                               permille=500).to_pandas()
    want = duckdb.sql(
        "SELECT doc_id FROM df WHERE "
        "((doc_id::HUGEINT * 2654435761) % 4294967296) % 1000 < 500"
    ).df()
    assert sorted(got["doc_id"]) == sorted(want["doc_id"])


def test_sequence_regressions_paths_agree():
    """Driver vectorized path == distributed map_groups path."""
    from osf_data_validator_tool_ray.pipelines.streaming import (
        sequence_regressions)

    rng = np.random.default_rng(17)
    n = 4000
    df = pd.DataFrame({
        "k": rng.integers(0, 300, n),
        "seq": np.arange(n),
        "ts": pd.to_datetime(rng.integers(0, 10_000, n), unit="s"),
    })
    a = sequence_regressions(ray.data.from_pandas(df).repartition(5),
                             "k", "ts", "seq").to_pandas() \
        .sort_values(["k", "seq"]).reset_index(drop=True)
    with _tier("exchange"):
        b = sequence_regressions(ray.data.from_pandas(df).repartition(5),
                                 "k", "ts", "seq") \
            .to_pandas().sort_values(["k", "seq"]).reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(
        a[["k", "seq"]], b[["k", "seq"]])
    assert (a["ts"].to_numpy() == b["ts"].to_numpy()).all()


@pytest.mark.parametrize("tier", ["driver", "exchange"])
def test_sequence_regressions_ignore_a_stored_pandas_index(tier):
    """A table converted from a sliced frame stores a RangeIndex that does
    not start at 0 in its pandas metadata; the flagged rows must still be
    the rows that regress, on both tiers."""
    from osf_data_validator_tool_ray.pipelines.streaming import (
        sequence_regressions)

    rng = np.random.default_rng(23)
    n = 4000
    df = pd.DataFrame({
        "k": rng.integers(0, 300, n),
        "seq": np.arange(n),
        "ts": pd.to_datetime(rng.integers(0, 10_000, n), unit="s"),
    }).iloc[1000:]
    ref = df.sort_values(["k", "seq", "ts"], kind="stable")
    prev = ref.groupby("k")["ts"].shift()
    ref = ref.assign(prev_ts=prev)[ref["ts"] < prev] \
        .sort_values(["k", "seq"]).reset_index(drop=True)
    with _tier(tier):
        got = sequence_regressions(
            ray.data.from_arrow(pa.Table.from_pandas(df)), "k", "ts", "seq") \
            .to_pandas().sort_values(["k", "seq"]).reset_index(drop=True)
    assert len(ref) > 0
    pd.testing.assert_frame_equal(got[["k", "seq"]], ref[["k", "seq"]])
    assert (got["ts"].to_numpy() == ref["ts"].to_numpy()).all()
    assert (got["prev_ts"].to_numpy() == ref["prev_ts"].to_numpy()).all()


# ---------------------------------------------------------------------------
# review follow-ups: batch-content part names, NaT sequences, audio decode
# failures, heavy-hitter candidate enumeration
# ---------------------------------------------------------------------------

def test_quarantine_identical_key_batches_do_not_collide(tmp_path):
    """Two batches whose KEY contents are identical but whose payloads
    differ must write distinct parts (part names carry the write task's
    stable task_idx, so distinct tasks can never collide)."""
    from osf_data_validator_tool_ray.pipelines.fix import (
        quarantine, quarantine_counts_from_footers)

    # constant key column; payload differs per row
    df = pd.DataFrame({"k": ["same"] * 400, "v": np.arange(400)})
    c, q = str(tmp_path / "c"), str(tmp_path / "q")
    res = quarantine(ray.data.from_pandas(df).repartition(4), [], "k", c, q)
    assert res["n_clean"] == 400
    assert quarantine_counts_from_footers(c) == 400   # nothing clobbered
    got = ray.data.read_parquet(c).to_pandas()
    assert sorted(got["v"]) == list(range(400))


def test_sequence_regressions_null_ts_not_flagged():
    from osf_data_validator_tool_ray.pipelines.streaming import (
        sequence_regressions)

    df = pd.DataFrame({
        "k": ["a"] * 4,
        "seq": [1, 2, 3, 4],
        "ts": pd.to_datetime([100, None, 150, 120], unit="s"),
    })
    out = sequence_regressions(ray.data.from_pandas(df), "k", "ts", "seq") \
        .to_pandas()
    # seq2 (NULL ts) not flagged; seq3 (prev is NULL) not flagged;
    # seq4 (120 < 150) IS a real regression
    assert out["seq"].tolist() == [4]


def test_audio_near_dup_corrupt_payloads_do_not_pair():
    from osf_data_validator_tool_ray.audio import encode
    from osf_data_validator_tool_ray.checks.dedup import audio_near_dup_pairs

    sr = 8000
    t = np.arange(sr, dtype=np.float32) / sr
    good = (0.5 * np.sin(2 * np.pi * 440 * t)).astype(np.float32)
    rows = [{"clip_id": 0, "bytes": encode(good, sr, "pcm_s16le")},
            {"clip_id": 1, "bytes": b"not audio at all"},
            {"clip_id": 2, "bytes": b"\x00" * 64},
            {"clip_id": 3, "bytes": encode(good[:8], sr, "pcm_s16le")}]
    pairs = audio_near_dup_pairs(
        ray.data.from_pandas(pd.DataFrame(rows)).repartition(2),
        "bytes", "clip_id").to_pandas()
    assert len(pairs) == 0        # corrupt/short clips never pair


def test_hash_join_overlapping_nonkey_column_dropped():
    from osf_data_validator_tool_ray.pipelines.relational import hash_join

    left = pd.DataFrame({"k": [1, 2], "v": [10, 20]})
    right = pd.DataFrame({"k": [1, 2], "v": [99, 98], "w": [7, 8]})
    out = hash_join(ray.data.from_pandas(left),
                    ray.data.from_pandas(right), "k").to_pandas()
    assert sorted(out.columns) == ["k", "v", "w"]
    assert sorted(out["v"]) == [10, 20]       # left side wins
