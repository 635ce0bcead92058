"""Round-4 regression tests: verdict + advice items.

Covers: quarantine loss on byte-identical batches (advice, medium),
exact_ks driver-merge gating (advice), spectral fingerprints across
clip lengths (advice), hash_join laziness (advice), Lance partition-id
wiring (advice), LSH bucket re-banding (verdict #4), distributed-CC
hot-node combiner (verdict #5), interval-join pre-split (verdict #6),
pyarrow-native combiner partials (verdict #7).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data


# ---------------------------------------------------------------------------
# advice (medium) — byte-identical WHOLE batches must not clobber each other
# ---------------------------------------------------------------------------

def test_quarantine_identical_whole_batches_keep_all_rows(tmp_path):
    """Duplicated input blocks (identical in EVERY column — exactly the
    dirty data a validator targets) must both land in the sink: part
    names derive from the stable write-task identity, not batch content,
    and the footer cross-check guards the counts."""
    from osf_data_validator_tool_ray.pipelines.fix import (
        quarantine, quarantine_counts_from_footers)

    tbl = pa.table({"k": [f"id{i}" for i in range(100)],
                    "v": list(range(100))})
    # two byte-identical blocks
    ds = ray.data.from_arrow([tbl, tbl])
    bad = [f"id{i}" for i in range(0, 100, 5)]
    c, q = str(tmp_path / "c"), str(tmp_path / "q")
    res = quarantine(ds, bad, "k", c, q)
    assert res["n_clean"] == 2 * (100 - len(bad))
    assert res["n_quarantined"] == 2 * len(bad)
    # ground truth from footers: nothing overwritten
    assert quarantine_counts_from_footers(c) == res["n_clean"]
    assert quarantine_counts_from_footers(q) == res["n_quarantined"]
    got = ray.data.read_parquet(c).to_pandas()
    # every clean row appears exactly twice
    assert got.groupby("k").size().eq(2).all()

# ---------------------------------------------------------------------------
# advice — exact_ks driver merge must be gated; overflow tiers stay correct
# ---------------------------------------------------------------------------

def _pandas_ks(df, value, side, a, b):
    va = np.sort(df.loc[df[side] == a, value].to_numpy(dtype=float))
    vb = np.sort(df.loc[df[side] == b, value].to_numpy(dtype=float))
    allv = np.sort(np.unique(np.concatenate([va, vb])))
    ca = np.searchsorted(va, allv, side="right") / len(va)
    cb = np.searchsorted(vb, allv, side="right") / len(vb)
    return float(np.abs(ca - cb).max())


@pytest.fixture()
def ks_df():
    rng = np.random.default_rng(7)
    return pd.DataFrame({
        "v": np.concatenate([rng.normal(0, 1, 4000),
                             rng.normal(0.3, 1.1, 4000)]),
        "side": ["a"] * 4000 + ["b"] * 4000,
    })


def test_exact_ks_exchange_tier_matches_exact(ks_df, monkeypatch):
    """When the raw partials exceed the driver gate, the grouped-count
    hash exchange must produce the identical exact statistic."""
    import osf_data_validator_tool_ray.pipelines.relational as rel
    from osf_data_validator_tool_ray.checks.drift import exact_ks

    calls = {"n": 0}
    real = rel.fits_driver_merge

    def fake(ds, threshold=rel.DRIVER_MERGE_THRESHOLD):
        calls["n"] += 1
        return False if calls["n"] == 1 else real(ds, threshold)

    monkeypatch.setattr(rel, "fits_driver_merge", fake)
    ds = ray.data.from_pandas(ks_df).repartition(8)
    got = exact_ks(ds, "v", "side", "a", "b")
    assert calls["n"] >= 2          # overflow path actually taken
    assert got == pytest.approx(_pandas_ks(ks_df, "v", "side", "a", "b"))


def test_exact_ks_sketch_tier_bounded_and_close(ks_df, monkeypatch):
    """When even the exchanged distinct-value table exceeds the gate
    (continuous column), the StreamHist tier runs: bounded driver state,
    answer within sketch tolerance of exact."""
    import osf_data_validator_tool_ray.pipelines.relational as rel
    from osf_data_validator_tool_ray.checks.drift import exact_ks

    monkeypatch.setattr(rel, "fits_driver_merge",
                        lambda ds, threshold=None: False)
    ds = ray.data.from_pandas(ks_df).repartition(8)
    got = exact_ks(ds, "v", "side", "a", "b")
    exact = _pandas_ks(ks_df, "v", "side", "a", "b")
    assert abs(got - exact) < 0.05  # sketch tolerance

# ---------------------------------------------------------------------------
# advice — Lance fragment partition ids wired end-to-end through
# validate_partitioned (stub Lance backend; same id contract as pylance)
# ---------------------------------------------------------------------------

def _install_fake_lance(monkeypatch):
    """Minimal lance module backed by a dir of parquet files: exposes the
    exact surface sources/io.py consumes (dataset().schema /
    get_fragments / get_fragment / count_rows / to_batches)."""
    import glob as _glob
    import os
    import sys
    import types

    import pyarrow.parquet as pq

    class _Frag:
        def __init__(self, path, fid):
            self.path, self.fragment_id = path, fid

        def count_rows(self):
            return pq.ParquetFile(self.path).metadata.num_rows

        def to_batches(self, columns=None, batch_size=65536):
            yield from pq.ParquetFile(self.path).iter_batches(
                batch_size=batch_size,
                columns=list(columns) if columns else None)

    class _DS:
        def __init__(self, path):
            self.files = sorted(_glob.glob(os.path.join(path, "*.parquet")))

        @property
        def schema(self):
            return pq.read_schema(self.files[0])

        def get_fragments(self):
            return [_Frag(f, i) for i, f in enumerate(self.files)]

        def get_fragment(self, i):
            return _Frag(self.files[int(i)], int(i))

    mod = types.ModuleType("lance")
    mod.dataset = _DS
    monkeypatch.setitem(sys.modules, "lance", mod)
    import osf_data_validator_tool_ray.sources.io as io
    monkeypatch.setattr(io, "HAVE_LANCE", True)


def test_lance_fragment_partitions_end_to_end(tmp_path, monkeypatch):
    import os
    import shutil

    from osf_data_validator_tool_ray.checks.unified_keyed import keyed_plan
    from osf_data_validator_tool_ray.pipelines.partitioned import (
        _run_partition, validate_partitioned)
    from osf_data_validator_tool_ray.sources.io import (
        partition_files, partition_schema_and_rows)
    from osf_data_validator_tool_ray.spec import clips_spec
    from osf_data_validator_tool_ray.state.checkpoint import CheckpointStore
    from osf_data_validator_tool_ray.synth import write_clips_dataset

    meta = write_clips_dataset(str(tmp_path / "src"), n_rows=90, seed=11,
                               defect_rate=0.05, num_shards=3)
    lance_dir = str(tmp_path / "clips.lance")
    os.makedirs(lance_dir)
    for f in sorted(os.listdir(meta["clips_dir"])):
        if f.endswith(".parquet"):
            shutil.copy(os.path.join(meta["clips_dir"], f),
                        os.path.join(lance_dir, f))
    _install_fake_lance(monkeypatch)

    parts = partition_files(lance_dir)
    assert len(parts) == 3 and all("#" in p for p in parts)
    schema0, n0 = partition_schema_and_rows(parts[0])
    names0 = set(schema0.names)
    assert "clip_id" in names0 and n0 == 30

    spec = clips_spec()
    plan = keyed_plan(spec, names0, False)
    universals = frozenset(u.predicate for u in spec.universals)

    # run each fragment's task body in-process (the stub lance module
    # only exists in this driver), then let validate_partitioned resume:
    # it must SKIP all fragments and run only the merge
    store = CheckpointStore(str(tmp_path / "store"))
    for p in parts:
        m = _run_partition(p, spec, store.root, False, None, plan, universals)
        assert m["lineage"] == p and m["n_rows"] == 30
    rep = validate_partitioned(lance_dir, spec, store)
    assert rep["partitions_total"] == 3
    assert rep["partitions_skipped"] == 3 and rep["partitions_ran"] == 0
    assert all("#" in v["lineage"] for v in rep["partitions"].values())
    assert len(rep["partitions"]) == 3   # one checkpoint record PER fragment

    # parity: same table validated via the plain parquet path
    store2 = CheckpointStore(str(tmp_path / "store2"))
    rep2 = validate_partitioned(meta["clips_dir"] + "/*.parquet",
                                clips_spec(), store2)
    assert rep["violations"] == rep2["violations"]
    assert rep["n_rows"] == rep2["n_rows"] == 90

# ---------------------------------------------------------------------------
# advice — hash_join must not materialize a big right side for the gate
# ---------------------------------------------------------------------------

def test_hash_join_big_right_probe_is_bounded(monkeypatch):
    """The size gate probes right.limit(threshold+1); a big right side
    must reach the shuffle path having materialized at most that many
    rows, and use_native=True must skip the probe entirely."""
    from osf_data_validator_tool_ray.pipelines import relational as rel

    left = ray.data.from_pandas(pd.DataFrame(
        {"k": np.arange(2000) % 50, "lv": np.arange(2000)}))
    right_df = pd.DataFrame({"k": np.arange(5000) % 50,
                             "rv": np.arange(5000)})
    right = ray.data.from_pandas(right_df).repartition(4)

    seen = {}
    real_fits = rel.fits_driver_merge

    def spy(ds, threshold=rel.DRIVER_MERGE_THRESHOLD):
        seen["probe_rows"] = ds.count()
        return real_fits(ds, threshold)

    monkeypatch.setattr(rel, "fits_driver_merge", spy)
    out = rel.hash_join(left, right, "k", broadcast_threshold=100).to_pandas()
    # probe stopped at threshold+1 rows, not the right side's 5000
    assert seen["probe_rows"] == 101
    oracle = left.to_pandas().merge(right_df, on="k")
    assert len(out) == len(oracle)
    assert int(out["rv"].sum()) == int(oracle["rv"].sum())

    # use_native=True: no probe at all (fits_driver_merge never called)
    seen.clear()
    out2 = rel.hash_join(left, right, "k", broadcast_threshold=100,
                         use_native=True).to_pandas()
    assert "probe_rows" not in seen
    assert len(out2) == len(oracle)


def test_hash_join_small_right_reuses_probe():
    """A right side under the threshold broadcasts (probe == whole
    side) and results stay correct."""
    from osf_data_validator_tool_ray.pipelines.relational import hash_join

    left = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 2, 3, 4], "lv": [10, 20, 30, 40]}))
    right = ray.data.from_pandas(pd.DataFrame(
        {"k": [2, 3, 5], "rv": ["b", "c", "e"]}))
    out = hash_join(left, right, "k").to_pandas().sort_values("k")
    assert out["k"].tolist() == [2, 3]
    assert out["rv"].tolist() == ["b", "c"]

# ---------------------------------------------------------------------------
# verdict #4 — oversized LSH buckets re-band instead of truncating
# ---------------------------------------------------------------------------

def test_minhash_mass_duplicate_corpus_recovers_full_cluster(caplog):
    """A planted 10k-identical-doc corpus (the pathological LSH bucket)
    must keep EVERY member connected through near_dup_clusters — the
    old per-bucket truncation dropped pairs and split the cluster."""
    import logging

    from osf_data_validator_tool_ray.checks.dedup import (
        minhash_near_dup_pairs, near_dup_clusters)

    n = 10_000
    base = "the quick brown fox jumps over the lazy dog again and again "
    texts = [base * 2] * n + ["a completely different standalone text payload"]
    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(n + 1, dtype=np.int64), "text": texts}))
    with caplog.at_level(
            logging.WARNING, logger="osf_data_validator_tool_ray.dedup"):
        pairs = minhash_near_dup_pairs(
            ds, "text", "doc_id", threshold=0.5, max_bucket_pairs=10_000)
        clusters = near_dup_clusters(pairs).to_pandas()
    assert "truncated" not in caplog.text          # no dropped-pair warning
    assert "re-banded" in caplog.text              # the loud re-band event
    members = set(clusters.loc[clusters["cluster_id"] == 0, "doc_id"])
    assert members == set(range(n))                # all 10k members kept
    assert n not in set(clusters["doc_id"])        # outlier not clustered


def test_pairs_rebanded_identical_groups_connectivity():
    """Unit: a bucket of several identical-signature groups over the pair
    cap emits a connectivity-preserving set — union-find over the output
    reconstructs exactly the planted groups, at linear pair volume."""
    from osf_data_validator_tool_ray.checks.dedup import _bucket_pair_arrays

    rng = np.random.default_rng(7)
    d, groups, per = 8, 5, 60
    sigs = np.repeat(rng.integers(0, 2**63, (groups, d), dtype=np.uint64),
                     per, axis=0)
    ids = rng.permutation(groups * per).astype(np.int64)
    ia, ib, sc = _bucket_pair_arrays(
        ids, sigs, lambda a, b: (a == b).mean(axis=-1),
        lambda s: s >= 0.5, max_bucket_pairs=100, op_name="unit")
    # linear volume: per-group chains, not the 44,850-pair complete set
    assert len(ia) == groups * (per - 1)
    assert (sc == 1.0).all()
    planted = {}
    for idx in range(groups * per):
        planted.setdefault(idx // per, set()).add(int(ids[idx]))
    found = {frozenset(v)
             for v in _union_find_components(zip(ia, ib), ids).values()}
    assert found == {frozenset(v) for v in planted.values()}


def _union_find_components(pairs, members):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comps = {}
    for x in members:
        comps.setdefault(find(int(x)), set()).add(int(x))
    return comps


def test_pairs_rebanded_distinct_sigs_extends_band():
    """Unit: an oversized bucket of fully DISTINCT signatures recurses by
    extending the band (doubling signature-row prefix); pairs agreeing on
    the extended prefix — the highest-similarity candidates — survive."""
    from osf_data_validator_tool_ray.checks.dedup import _bucket_pair_arrays

    rng = np.random.default_rng(11)
    d, n = 8, 120
    sigs = rng.integers(0, 2**63, (n, d), dtype=np.uint64)
    # plant 10 high-agreement pairs: rows 2i/2i+1 share the first 6 rows
    for i in range(10):
        sigs[2 * i + 1, :6] = sigs[2 * i, :6]
    ids = np.arange(n, dtype=np.int64)
    ia, ib, sc = _bucket_pair_arrays(
        ids, sigs, lambda a, b: (a == b).mean(axis=-1),
        lambda s: s >= 0.5, max_bucket_pairs=500, op_name="unit")
    got = {(int(a), int(b)) for a, b in zip(ia, ib)}
    for i in range(10):
        assert (2 * i, 2 * i + 1) in got
    # and nothing below the keep threshold leaked through
    assert (sc >= 0.5).all()


def test_simhash_mass_duplicate_bucket_rebands():
    """SimHash's driver fast path hits the same re-band code with 1-wide
    signatures: a 500-identical-hash bucket over the cap keeps every
    member connected."""
    from osf_data_validator_tool_ray.checks.dedup import (
        _vector_bucket_pairs)

    n = 500
    df = pd.DataFrame({
        "band_id": np.zeros(n, dtype=np.int32),
        "band_val": np.zeros(n, dtype=np.uint32),
        "doc_id": np.arange(n, dtype=np.int64),
    })
    sig_mat = np.full((n, 1), 12345, dtype=np.uint64)
    from osf_data_validator_tool_ray.functions import text as T
    ia, ib, sc = _vector_bucket_pairs(
        df, ["band_id", "band_val"], "doc_id", sig_mat,
        lambda sa, sb: T.hamming64(sa.ravel(), sb.ravel())
        .astype(np.float64).reshape(sa.shape[:-1]),
        lambda s: s <= 3, 1_000, "unit-simhash")
    comps = _union_find_components(zip(ia, ib), range(n))
    # chain pairs: every doc connected into one component
    assert len(ia) == n - 1
    assert len(comps) == 1
    assert len(next(iter(comps.values()))) == n
