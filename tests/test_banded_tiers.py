"""The one banded-pair path (``dedup.banded_pairs``): every LSH near-dup
operator gives the same pair set on the driver and the exchange merge
tier, and an oversized bucket re-bands on both tiers instead of emitting
its complete pair set."""

import functools

import numpy as np
import pandas as pd
import pytest
import ray.data

import __ray_entry__ as entrymod
from osf_data_validator_tool_ray.audio import encode
from osf_data_validator_tool_ray.checks.dedup import (
    audio_near_dup_pairs, near_dup_clusters, simhash_near_dup_pairs)
from tests.test_keyed_oracles import SF_DIR
from tests.test_keyed_tiers import _tier
from tools.check_correctness import to_pandas

TIERS = ["driver", "exchange"]
# minhash, simhash, embedding with 1 and with 16 tables, audio; each
# query asserts its own recall, soundness or planted pairs as it runs
QUERIES = ["minhash_pairs", "simhash_pairs", "embedding_neardup",
           "embedding_neardup_verified", "audio_near_dup"]


def _pair_set(pairs) -> set:
    df = to_pandas(pairs)
    return set(zip(df["id_a"].tolist(), df["id_b"].tolist()))


def _hot_docs() -> "ray.data.Dataset":
    """300 identical docs: every simhash band is one 300-member bucket."""
    return ray.data.from_pandas(pd.DataFrame({
        "doc_id": np.arange(300, dtype=np.int64),
        "text": ["one document, copied three hundred times over"] * 300,
    })).repartition(3)


def _hot_clips() -> "ray.data.Dataset":
    """200 identical clips plus 20 copies trimmed to their first 75%: the
    trimmed fingerprint is a prefix of the full one, so all 220 clips
    share every LSH band."""
    sr = 4000
    t = np.arange(sr, dtype=np.float32) / sr
    rng = np.random.default_rng(5)
    env = rng.uniform(0.05, 1.0, (4, 32))
    fidx = (np.arange(sr) * 32) // sr
    pcm = np.sum([a * env[j, fidx] * np.sin(2 * np.pi * f * t)
                  for j, (f, a) in enumerate(zip(rng.uniform(100, 1900, 4),
                                                 rng.uniform(0.1, 0.4, 4)))],
                 axis=0).astype(np.float32)
    full = encode(pcm, sr, "pcm_s16le")
    trimmed = encode(pcm[:3 * sr // 4], sr, "pcm_s16le")
    return ray.data.from_pandas(pd.DataFrame({
        "clip_id": np.arange(220, dtype=np.int64),
        "bytes": [full] * 200 + [trimmed] * 20,
    })).repartition(4)


@functools.lru_cache(maxsize=None)
def _pairs(case: str, tier: str):
    with _tier(tier):
        if case == "queries":
            queries = entrymod.queries()
            return {name: _pair_set(queries[name](SF_DIR)) for name in QUERIES}
        if case == "hot_simhash":
            return _pair_set(simhash_near_dup_pairs(_hot_docs(), "text", "doc_id",
                                                    max_hamming=3))
        return _pair_set(audio_near_dup_pairs(_hot_clips(), "bytes", "clip_id"))


@pytest.mark.parametrize("tier", TIERS)
def test_near_dup_queries_same_pairs_on_both_tiers(tier):
    got = _pairs("queries", tier)
    assert all(got[name] for name in QUERIES), got
    assert got == _pairs("queries", "driver")


@pytest.mark.parametrize("tier", TIERS)
def test_simhash_hot_bucket_rebands(tier):
    # a duplicate chain, not the 44,850-pair complete set
    got = _pairs("hot_simhash", tier)
    assert len(got) == 299
    assert got == _pairs("hot_simhash", "driver")


@pytest.mark.parametrize("tier", TIERS)
def test_audio_hot_bucket_rebands_into_one_cluster(tier):
    got = _pairs("hot_audio", tier)
    assert len(got) < 24_090            # the complete set of 220 clips
    assert got == _pairs("hot_audio", "driver")
    clusters = near_dup_clusters(ray.data.from_pandas(pd.DataFrame(
        sorted(got), columns=["id_a", "id_b"]))).to_pandas()
    assert sorted(clusters["doc_id"]) == list(range(220))
    assert set(clusters["cluster_id"]) == {0}
