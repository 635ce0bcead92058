"""Sequence packing + stratified sampling (pipelines/training.py)."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from osf_data_validator_tool_ray.pipelines.training import (
    pack_sequences, stratified_sample)
from tests.test_keyed_tiers import _tier


def _greedy_reference(tokens, budget):
    packs, acc, pid = [], 0, 0
    for t in tokens:
        if packs and acc + t <= budget:
            acc += t
        else:
            if packs:
                pid += 1
            acc = t
        packs.append(pid)
    # first row fix: loop starts pid=0 with empty packs
    return packs


def test_pack_sequences_matches_greedy_reference():
    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "shard": np.repeat([0, 1, 2], 40),
        "doc_id": np.arange(120),
        "n_tokens": rng.integers(10, 900, 120),
    })
    # plant an oversized doc: must get its own pack, unsplit
    df.loc[7, "n_tokens"] = 5000
    out = pack_sequences(ray.data.from_pandas(df).repartition(4),
                         "shard", "doc_id", "n_tokens", budget=1000) \
        .to_pandas().sort_values(["shard", "doc_id"]).reset_index(drop=True)

    for shard, sub in out.groupby("shard"):
        sub = sub.sort_values("doc_id")
        want = _greedy_reference(sub["n_tokens"].tolist(), 1000)
        assert sub["pack_id"].tolist() == want, shard
        # invariants: packs contiguous from 0; totals respect the budget
        # except single-doc overflow packs
        totals = sub.groupby("pack_id")["n_tokens"].sum()
        sizes = sub.groupby("pack_id").size()
        over = totals[totals > 1000]
        assert all(sizes[p] == 1 for p in over.index)
        assert (sub.groupby("pack_id")["pack_tokens"].first() == totals).all()

    # deterministic across partitionings
    out2 = pack_sequences(ray.data.from_pandas(df).repartition(9),
                          "shard", "doc_id", "n_tokens", budget=1000) \
        .to_pandas().sort_values(["shard", "doc_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(out, out2)


def test_split_by_group_no_leakage_and_rates():
    from osf_data_validator_tool_ray.pipelines.training import split_by_group

    n = 40_000
    rng = np.random.default_rng(3)
    df = pd.DataFrame({"row_id": np.arange(n),
                       "user_id": rng.integers(0, 4000, n)})
    out = split_by_group(ray.data.from_pandas(df).repartition(6),
                         "user_id", "row_id").to_pandas()
    # every group lives in exactly ONE split (no leakage)
    assert (out.groupby("user_id")["split"].nunique() == 1).all()
    # realized group-level rates near 80/10/10
    per_group = out.groupby("user_id")["split"].first()
    frac = per_group.value_counts(normalize=True)
    assert frac["train"] == pytest.approx(0.8, abs=0.03)
    assert frac["val"] == pytest.approx(0.1, abs=0.02)
    assert frac["test"] == pytest.approx(0.1, abs=0.02)


def test_chunk_documents_windows():
    from osf_data_validator_tool_ray.pipelines.training import chunk_documents

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["abcdefghij",          # 10 chars -> 3 chunks @ size4/stride3
                 "ab",                  # short -> 1 chunk
                 "",                    # empty -> 1 empty chunk
                 "abcdefg"],            # 7 -> 2 chunks
    })
    out = chunk_documents(ray.data.from_pandas(df).repartition(2),
                          "text", "doc_id", size=4, stride=3) \
        .to_pandas().sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    got = out.groupby("doc_id")["chunk"].apply(list).to_dict()
    assert got[1] == ["abcd", "defg", "ghij"]
    assert got[2] == ["ab"]
    assert got[3] == [""]
    assert got[4] == ["abcd", "defg"]
    # reconstruction: stripping the overlap re-yields the document
    for doc, chunks in got.items():
        text = df.set_index("doc_id").loc[doc, "text"]
        rebuilt = chunks[0] + "".join(c[4 - 3:] for c in chunks[1:])
        # overlapping windows cover the doc; rebuilt may pad nothing
        assert rebuilt == text or rebuilt.startswith(text)


def test_unigram_logprob_paths_agree_and_floor_ooc():
    from osf_data_validator_tool_ray.pipelines.training import (
        unigram_logprob_scores)

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["the cat sat on the mat",
                 "the the the",            # high-prob tokens only
                 "zyzzyva qwertyuiop",     # rare -> OOV under tiny vocab
                 ""],                      # no tokens -> omitted
    })
    ds = ray.data.from_pandas(df).repartition(2)
    a = unigram_logprob_scores(ds, "text", "doc_id", max_vocab=3) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    # failing the driver gate forces the distributed sort-limit vocab path
    with _tier("exchange"):
        b = unigram_logprob_scores(ray.data.from_pandas(df).repartition(2),
                                   "text", "doc_id", max_vocab=3) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a["doc_id"].tolist() == [1, 2, 3] == b["doc_id"].tolist()
    assert np.allclose(a["logprob"], b["logprob"])
    # common-token doc scores higher than the OOV doc
    s = a.set_index("doc_id")["logprob"]
    assert s[2] > s[3]
    # OOV tokens hit the 1/total floor exactly
    total = 11                                # tokens across the corpus
    assert s[3] == pytest.approx(np.log(1.0 / total))


def test_stratified_sample_rates_and_determinism():
    import duckdb

    n = 30_000
    rng = np.random.default_rng(9)
    df = pd.DataFrame({
        "doc_id": np.arange(n),
        "lang": rng.choice(["en", "es", "de"], n, p=[0.6, 0.3, 0.1]),
    })
    rates = {"en": 800, "es": 300}
    got = stratified_sample(ray.data.from_pandas(df).repartition(5),
                            "lang", "doc_id", rates, default_permille=100) \
        .to_pandas()
    want = duckdb.sql("""
        SELECT doc_id, lang FROM df
        WHERE ((doc_id::HUGEINT * 2654435761) % 4294967296) % 1000 <
              CASE lang WHEN 'en' THEN 800 WHEN 'es' THEN 300 ELSE 100 END
    """).df()
    assert sorted(got["doc_id"]) == sorted(want["doc_id"])
    # realized rates near the configured ones
    frac_en = (got["lang"] == "en").sum() / (df["lang"] == "en").sum()
    assert frac_en == pytest.approx(0.8, abs=0.02)
    frac_de = (got["lang"] == "de").sum() / (df["lang"] == "de").sum()
    assert frac_de == pytest.approx(0.1, abs=0.02)


def test_decontaminate_flags_and_drops_planted_overlap():
    """Planted contamination: train docs embedding a benchmark 5-gram
    are flagged with the exact position count; clean docs survive
    mode='drop'; results are partitioning-invariant."""
    from osf_data_validator_tool_ray.pipelines.training import decontaminate

    bench = ray.data.from_pandas(pd.DataFrame({
        "doc_id": [1000, 1001],
        "text": ["alpha bravo charlie delta echo foxtrot",
                 "one two three four five six seven"]}))
    train_df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            # contains "alpha bravo charlie delta echo" at 2 positions
            "x alpha bravo charlie delta echo y alpha bravo charlie delta echo",
            "totally clean text with none of those words present today",
            # punctuation/case variations still tokenize to a hit
            "say: ONE, two! three? four five... and more",
            "four five six but never a full window of matching tokens",
        ]})
    for parts in (1, 3):
        train = ray.data.from_pandas(train_df).repartition(parts)
        out = decontaminate(train, bench, n=5).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        # doc 1: grams at positions 1..3 hit ("alpha..echo", "bravo..y"?
        # no — hits are exactly the windows fully inside the benchmark
        # gram set: positions starting at 'alpha' (x2) and the window
        # 'bravo charlie delta echo y' is NOT a benchmark gram
        assert out["doc_id"].tolist() == [1, 3]
        assert out[out["doc_id"] == 1]["n_hits"].iloc[0] == 2
        assert out[out["doc_id"] == 3]["n_hits"].iloc[0] == 1
        kept = decontaminate(train, bench, n=5, mode="drop").to_pandas()
        assert sorted(kept["doc_id"]) == [2, 4]


def test_decontaminate_empty_benchmark_is_noop():
    from osf_data_validator_tool_ray.pipelines.training import decontaminate

    bench = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": pd.Series(dtype="int64"),
         "text": pd.Series(dtype="object")}))
    train = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": [1], "text": ["anything at all goes here now"]}))
    assert decontaminate(train, bench, n=5).to_pandas().empty
    assert len(decontaminate(train, bench, n=5, mode="drop")
               .to_pandas()) == 1
