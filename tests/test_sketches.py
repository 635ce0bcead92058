import numpy as np
import pandas as pd
import pytest

from osf_data_validator_tool_ray.functions.sketches import (
    BloomFilter,
    CountMin,
    KLL,
    HyperLogLog,
    freq_table_psi,
    ks_statistic,
    psi,
)


def test_hll_accuracy_and_merge():
    rng = np.random.default_rng(1)
    a = HyperLogLog()
    b = HyperLogLog()
    va = pd.Series([f"k{i}" for i in rng.integers(0, 50_000, 80_000)])
    vb = pd.Series([f"k{i}" for i in rng.integers(25_000, 75_000, 80_000)])
    a.update(va)
    b.update(vb)
    merged = HyperLogLog.from_bytes(a.to_bytes()).merge(b)
    true = len(set(va) | set(vb))
    assert abs(merged.estimate() - true) / true < 0.05


def test_hll_small_range():
    h = HyperLogLog()
    h.update(pd.Series([f"x{i}" for i in range(100)]))
    assert abs(h.estimate() - 100) < 5


def test_countmin_heavy_hitters():
    rng = np.random.default_rng(2)
    vals = pd.Series(["hot"] * 5000 + [f"cold{i}" for i in rng.integers(0, 10_000, 5000)])
    a, b = CountMin(), CountMin()
    a.update(vals[:5000])
    b.update(vals[5000:])
    m = CountMin.from_bytes(a.to_bytes()).merge(b)
    est = m.query(pd.Series(["hot"]))[0]
    assert 5000 <= est <= 5200   # overestimates only, tightly


def test_bloom_no_false_negatives():
    keys = pd.Series([f"key{i}" for i in range(20_000)])
    bf = BloomFilter(n_bits=1 << 18)
    bf.update(keys)
    assert bf.contains(keys).all()
    absent = pd.Series([f"zzz{i}" for i in range(5000)])
    fp_rate = bf.contains(absent).mean()
    assert fp_rate < 0.05
    m = BloomFilter.from_bytes(bf.to_bytes())
    assert m.contains(keys).all()


def test_bloom_positions_pinned_and_warning_free():
    """The k probe positions of a fixed input stay bit-identical, and
    computing them raises no numpy overflow warning (each probe's
    offset wraps as a Python int, not as a numpy scalar product)."""
    import warnings

    bf = BloomFilter(n_bits=1 << 18, k=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pos = bf._positions(pd.Series(["a", "key7", "zzz"]))
        bf.update(pd.Series(["a"]))
    assert pos.tolist() == [[195962, 114015, 93321], [238757, 33024, 211917],
                            [40065, 218943, 217725], [204509, 73510, 28484],
                            [186843, 137714, 37039]]


def test_kll_quantiles_and_merge():
    rng = np.random.default_rng(3)
    x = rng.lognormal(3.0, 0.6, 200_000)
    a, b = KLL(), KLL()
    a.update(x[:100_000])
    b.update(x[100_000:])
    m = KLL.from_bytes(a.to_bytes()).merge(b)
    for q in (0.1, 0.5, 0.9):
        true = np.quantile(x, q)
        got = m.quantile(q)[0]
        assert abs(got - true) / true < 0.05, (q, got, true)
    assert m.n == 200_000


def test_ks_detects_shift():
    rng = np.random.default_rng(4)
    base = KLL().update(rng.normal(0, 1, 50_000))
    same = KLL().update(rng.normal(0, 1, 50_000))
    shifted = KLL().update(rng.normal(0.8, 1, 50_000))
    assert ks_statistic(base, same) < 0.05
    assert ks_statistic(base, shifted) > 0.2


def test_psi():
    assert psi(np.array([50, 50]), np.array([50, 50])) < 1e-9
    assert psi(np.array([90, 10]), np.array([10, 90])) > 1.0
    assert freq_table_psi({"a": 100, "b": 100}, {"a": 100, "b": 100}) < 1e-9
    assert freq_table_psi({"a": 200}, {"a": 100, "b": 100}) > 0.2


def test_kll_accuracy_merge_and_determinism():
    rng = np.random.default_rng(3)
    data = np.concatenate([rng.normal(0, 1, 120_000),
                           rng.exponential(4, 40_000)])
    qs = [0.01, 0.1, 0.5, 0.9, 0.99]
    true = np.quantile(data, qs)

    s = KLL(200)
    for chunk in np.array_split(data, 32):
        s.update(chunk)
    # KLL rank error ~ O(1/k); assert a comfortable 3x bound
    for q, t in zip(qs, true):
        assert abs(s.rank(t) - q) < 3.0 / 200, (q, s.rank(t))

    # mergeable: shard sketches merged match the bound too
    shards = [KLL(200).update(c) for c in np.array_split(data, 8)]
    m = shards[0]
    for sh in shards[1:]:
        m.merge(sh)
    assert m.n == len(data)
    for q, t in zip(qs, true):
        assert abs(m.rank(t) - q) < 3.0 / 200

    # deterministic: same input stream -> identical serialized sketch
    a = KLL(100).update(data[:50_000]).to_bytes()
    b = KLL(100).update(data[:50_000]).to_bytes()
    assert a == b
    # round-trip
    r = KLL.from_bytes(a)
    assert np.allclose(r.quantile(qs), KLL.from_bytes(b).quantile(qs))

    # NaN and empty handling
    e = KLL(50)
    assert np.isnan(e.quantile([0.5])[0]) and e.rank(0.0) == 0.0
    e.update([np.nan, 1.0, np.nan])
    assert e.n == 1 and e.quantile([0.5])[0] == 1.0
