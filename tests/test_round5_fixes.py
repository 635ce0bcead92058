"""Round-5 regression tests: the four ADVICE.md fixes.

1. ``_pairs_rebanded`` width-1 (simhash-path) oversized buckets of
   DISTINCT signatures must emit a bounded connectivity-preserving pair
   set — not nothing (the extended-band recursion is a no-op at d=1).
2. ``spectral_fingerprint`` requires the clip's sample rate — omitting
   it would silently skip the canonical-rate resample and break the
   absolute-time frame-grid semantics fingerprint_hamming relies on.
3. A retried quarantine write task that replays with DIFFERENT block
   partitioning must not leave orphan part files from its first attempt
   (they'd inflate the footer cross-check and fail the whole run).
4. ``exact_cosine_for_pairs`` (one einsum per ``by_partition`` call, no
   per-group pandas) stays exact on both tiers across multi-block
   inputs, duplicate corpus ids, and missing endpoints.
"""

import glob
import os
import types

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data


def _one_bucket(ids: np.ndarray) -> pd.DataFrame:
    """A banded frame whose rows all share one bucket."""
    return pd.DataFrame({"band": np.zeros(len(ids), dtype=np.int64),
                         "doc_id": ids})


def test_pairs_rebanded_width1_distinct_sigs_emit_pairs():
    """d=1 oversized bucket, ALL-distinct signatures: the old extended-
    band recursion split on the single column -> every sub-bucket a
    singleton -> zero pairs.  The chunk-rotation re-band emits a
    bounded (far sub-quadratic) pair set that keeps every member
    connected."""
    from osf_data_validator_tool_ray.checks.dedup import _vector_bucket_pairs

    n = 120
    sigs = (np.arange(n, dtype=np.uint64) * np.uint64(7919)).reshape(-1, 1)
    ids = np.arange(n, dtype=np.int64)
    ia, ib, sc = _vector_bucket_pairs(
        _one_bucket(ids), ["band"], "doc_id", sigs,
        lambda a, b: np.ones(a.shape[:-1], dtype=np.float64),
        lambda s: s >= 0.0, max_bucket_pairs=100, op_name="unit")
    uniq = set(zip(ia.tolist(), ib.tolist()))
    assert n - 1 <= len(uniq) <= 8 * n            # bounded, not quadratic
    # the emitted graph connects every id
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in uniq:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    assert len({find(int(i)) for i in ids}) == 1


def test_pairs_rebanded_width1_nonadjacent_close_pair_recovered():
    """Round-5 review fix: a hamming-2 pair whose differing bits sit in
    the HIGH chunk sorts far apart (the old neighbor-chain-only
    fallback never paired it), but shares chunks 1-3 — the chunk
    passes must emit it with its true score."""
    from osf_data_validator_tool_ray.checks.dedup import _vector_bucket_pairs
    from osf_data_validator_tool_ray.functions.text import hamming64

    rng = np.random.default_rng(11)
    a_val = np.uint64(0x0000AAAABBBBCCCC)
    b_val = np.uint64(0xC000AAAABBBBCCCC)          # 2 high bits differ
    filler = rng.integers(1, 1 << 62, size=150, dtype=np.uint64)
    vals = np.concatenate([[a_val, b_val], filler]).astype(np.uint64)
    sigs = vals.reshape(-1, 1)
    ids = np.arange(len(vals), dtype=np.int64)

    def score(sa, sb):
        return hamming64(sa.ravel(), sb.ravel()).astype(np.float64)

    ia, ib, sc = _vector_bucket_pairs(
        _one_bucket(ids), ["band"], "doc_id", sigs,
        score, lambda s: s <= 3.0,
        max_bucket_pairs=1000, op_name="unit")
    got = {(int(x), int(y)): s for x, y, s in zip(ia, ib, sc)}
    assert (0, 1) in got and got[(0, 1)] == 2.0


def test_pairs_rebanded_width1_mixed_dups_and_distinct():
    """d=1 bucket mixing duplicate chains with distinct representatives:
    dup chains emit as before AND the distinct reps emit the neighbor
    chain instead of vanishing."""
    from osf_data_validator_tool_ray.checks.dedup import _vector_bucket_pairs

    vals = np.concatenate([np.full(50, 5, dtype=np.uint64),
                           np.arange(100, 160, dtype=np.uint64)])
    ids = np.arange(len(vals), dtype=np.int64)
    ia, ib, _ = _vector_bucket_pairs(
        _one_bucket(ids), ["band"], "doc_id", vals.reshape(-1, 1),
        lambda a, b: np.ones(a.shape[:-1], dtype=np.float64),
        lambda s: s >= 0.0, max_bucket_pairs=200, op_name="unit")
    got = set(zip(ia.tolist(), ib.tolist()))
    # the 50-dup chain survives (49 pairs); the distinct reps emit a
    # connected pair set via the varying-bits passes — not nothing,
    # and under the complete 61*60/2 set even on this DENSE value
    # range (worst case for the pass scheme: per-pass volume is
    # budget-capped per sub-bucket, ~n*sqrt(2*budget) overall)
    chain = {(i, i + 1) for i in range(49)}
    assert chain <= got
    rep_pairs = {p for p in got if p[0] >= 50 or p[1] >= 50}
    assert 60 <= len(rep_pairs) < 61 * 60 // 2


def test_spectral_fingerprint_requires_sr():
    from osf_data_validator_tool_ray import audio as A

    pcm = np.sin(np.linspace(0, 440 * 2 * np.pi, 8000)).astype(np.float32)
    with pytest.raises(TypeError):
        A.spectral_fingerprint(pcm)                     # sr now required
    with pytest.raises(ValueError, match="sample\\s?rate|sr"):
        A.spectral_fingerprint(pcm, None)               # explicit None too
    codes = A.spectral_fingerprint(pcm, 8000)
    assert codes.dtype == np.uint32 and len(codes) > 0


def test_quarantine_retry_with_different_blocking_cleans_orphans(tmp_path):
    """Simulate Ray retrying a write task: first attempt sees 3 blocks,
    the replay sees the same rows as 2 blocks.  Orphan part-000000-0002
    from attempt 1 must be removed so parquet footers equal the reported
    counts."""
    from osf_data_validator_tool_ray.pipelines.fix import (
        _QuarantineSink, quarantine_counts_from_footers)

    c, q = str(tmp_path / "clean"), str(tmp_path / "quar")
    os.makedirs(c), os.makedirs(q)
    rows = pa.table({"k": pa.array(list(range(12)), type=pa.int64())})
    sink = _QuarantineSink(ray.put(frozenset({1, 7})), None, "k", c, q)
    ctx = types.SimpleNamespace(task_idx=0)

    blocks_attempt1 = [rows.slice(0, 4), rows.slice(4, 4), rows.slice(8, 4)]
    r1 = sink.write(blocks_attempt1, ctx)
    assert len(glob.glob(os.path.join(c, "*.parquet"))) == 3

    blocks_attempt2 = [rows.slice(0, 6), rows.slice(6, 6)]
    r2 = sink.write(blocks_attempt2, ctx)
    assert r2 == r1 == {"n_clean": 10, "n_quarantined": 2}
    # attempt-1's part-000000-0002 is gone; footers match the counts
    assert sorted(os.path.basename(f)
                  for f in glob.glob(os.path.join(c, "*.parquet"))) == [
        "part-000000-0000.parquet", "part-000000-0001.parquet"]
    assert quarantine_counts_from_footers(c) == 10
    assert quarantine_counts_from_footers(q) == 2


def test_quarantine_retry_cleanup_scoped_to_own_task(tmp_path):
    """The orphan sweep must only touch the retrying task's own parts —
    another task's files in the same sink dir stay untouched."""
    from osf_data_validator_tool_ray.pipelines.fix import _QuarantineSink

    c, q = str(tmp_path / "clean"), str(tmp_path / "quar")
    os.makedirs(c), os.makedirs(q)
    rows = pa.table({"k": pa.array([100, 101], type=pa.int64())})
    sink = _QuarantineSink(ray.put(frozenset()), None, "k", c, q)
    sink.write([rows], types.SimpleNamespace(task_idx=3))
    sink.write([rows.slice(0, 1), rows.slice(1, 1)],
               types.SimpleNamespace(task_idx=0))
    names = sorted(os.path.basename(f)
                   for f in glob.glob(os.path.join(c, "*.parquet")))
    assert names == ["part-000000-0000.parquet", "part-000000-0001.parquet",
                     "part-000003-0000.parquet"]


def _cosine(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return float(a @ b / ((na or 1.0) * (nb or 1.0)))


def test_exact_cosine_for_pairs_multiblock_exact(ray_session=None):
    """The by_partition scorer vs direct numpy over a multi-block input,
    on both tiers: every pair value exact, missing endpoint -> NaN,
    duplicate corpus id tolerated."""
    from osf_data_validator_tool_ray.checks.similarity import (
        exact_cosine_for_pairs)
    from tests.test_keyed_tiers import _tier

    rng = np.random.default_rng(42)
    n, d = 240, 12
    embs = rng.standard_normal((n, d)).astype(np.float64)
    ids = np.arange(n, dtype=np.int64)
    df = pd.DataFrame({"doc_id": ids, "emb": list(embs)})
    # duplicate corpus id (same id, different block after repartition)
    df = pd.concat([df, df.iloc[[5]]], ignore_index=True)
    ds = ray.data.from_pandas(df).repartition(9)

    pairs = pd.DataFrame({
        "id_a": np.arange(0, 200, 2, dtype=np.int64),
        "id_b": np.arange(1, 200, 2, dtype=np.int64),
    })
    # a pair with a missing endpoint
    pairs = pd.concat([pairs, pd.DataFrame(
        {"id_a": [3], "id_b": [99999]})], ignore_index=True)
    for tier in ("driver", "exchange"):
        with _tier(tier):
            out = exact_cosine_for_pairs(ds, pairs, "emb", "doc_id")
        assert list(out.columns) == ["id_a", "id_b", "cosine"]
        assert len(out) == len(pairs)
        for _, r in out.iloc[:-1].iterrows():
            want = _cosine(embs[int(r["id_a"])], embs[int(r["id_b"])])
            assert abs(r["cosine"] - want) < 1e-12, (r["id_a"], r["id_b"])
        assert np.isnan(out["cosine"].iloc[-1])


def test_exact_cosine_for_pairs_single_tiny_block():
    """Degenerate single-block case: two pairs over a three-row corpus
    in one block, on both tiers."""
    from osf_data_validator_tool_ray.checks.similarity import (
        exact_cosine_for_pairs)
    from tests.test_keyed_tiers import _tier

    embs = np.eye(3, dtype=np.float64)
    df = pd.DataFrame({"doc_id": [10, 11, 12], "emb": list(embs)})
    ds = ray.data.from_pandas(df)
    pairs = pd.DataFrame({"id_a": [10, 10], "id_b": [11, 12]})
    for tier in ("driver", "exchange"):
        with _tier(tier):
            out = exact_cosine_for_pairs(ds, pairs, "emb", "doc_id")
        assert np.allclose(out["cosine"].to_numpy(), [0.0, 0.0])


def test_pairs_rebanded_width1_shared_band_close_pair_recovered():
    """Review follow-up: a REAL band-b LSH bucket shares 16 fixed bits,
    so a fixed-position chunking burns its equal chunk on the shared
    band (whole-set sub-bucket, skipped) — the varying-bits grouping
    must still recover a hamming-3 pair whose 3 differing bits sit in
    3 different 16-bit regions."""
    from osf_data_validator_tool_ray.checks.dedup import _vector_bucket_pairs
    from osf_data_validator_tool_ray.functions.text import hamming64

    rng = np.random.default_rng(23)
    shared_band = np.uint64(0xBEEF)            # bits 0-15 fixed bucket-wide
    base = np.uint64(0x123456789ABC0000) | shared_band
    a_val = base
    # 3 differing bits: one each in bits 16-31, 32-47, 48-63
    b_val = base ^ (np.uint64(1) << np.uint64(20)) \
        ^ (np.uint64(1) << np.uint64(40)) ^ (np.uint64(1) << np.uint64(60))
    filler = (rng.integers(0, 1 << 48, size=150, dtype=np.uint64)
              << np.uint64(16)) | shared_band
    vals = np.concatenate([[a_val, b_val], filler]).astype(np.uint64)
    assert int(hamming64(a_val, b_val)[0]) == 3
    sigs = vals.reshape(-1, 1)
    ids = np.arange(len(vals), dtype=np.int64)

    def score(sa, sb):
        return hamming64(sa.ravel(), sb.ravel()).astype(np.float64)

    ia, ib, sc = _vector_bucket_pairs(
        _one_bucket(ids), ["band"], "doc_id", sigs,
        score, lambda s: s <= 3.0,
        max_bucket_pairs=1000, op_name="unit")
    got = {(int(x), int(y)): s for x, y, s in zip(ia, ib, sc)}
    assert (0, 1) in got and got[(0, 1)] == 3.0


def test_simhash_pairs_empty_input():
    """Zero-row corpus: the banded exchange materializes zero blocks and
    to_pandas drops all columns — the pairs call must return empty, not
    KeyError 'simhash'."""
    from osf_data_validator_tool_ray.checks.dedup import (
        simhash_near_dup_pairs)

    empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "text": pa.array([], type=pa.string())}))
    out = simhash_near_dup_pairs(empty, "text", "doc_id").to_pandas()
    assert len(out) == 0


def test_grouped_agg_zero_block_keeps_arrow_types():
    """Zero-block input keyed on a STRING column: the empty result must
    keep string/int64 Arrow types (an object->null column would break
    downstream Arrow kernels)."""
    import pyarrow.parquet as pq

    from osf_data_validator_tool_ray.pipelines.relational import grouped_agg

    d = "/tmp/ga_empty_test"
    os.makedirs(d, exist_ok=True)
    pq.write_table(pa.table({
        "k": pa.array([], type=pa.string()),
        "v": pa.array([], type=pa.int32())}), f"{d}/part-0.parquet")
    ds = ray.data.read_parquet(d)
    out = grouped_agg(ds, "k", {"n": ("k", "count"), "s": ("v", "sum"),
                                "mx": ("v", "max")})
    # assert on the Dataset schema (to_pandas drops columns of any
    # all-empty dataset — the very wart these guards absorb)
    s = out.schema()
    types = dict(zip(s.names, s.types))
    assert out.count() == 0
    assert types["k"] == pa.string()
    assert types["n"] == pa.int64()
    assert types["s"] == pa.int64()
    assert types["mx"] == pa.int32()
