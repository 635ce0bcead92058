"""Property-based robustness (hypothesis): codecs round-trip arbitrary
PCM; validators and facet kernels never crash on arbitrary inputs;
sketches merge associatively."""

import numpy as np
import pandas as pd
from hypothesis import given, settings, strategies as st

from osf_data_validator_tool_ray import audio
from osf_data_validator_tool_ray.functions.facets import VALIDATORS, facet_violations
from osf_data_validator_tool_ray.functions.sketches import KLL, HyperLogLog
from osf_data_validator_tool_ray.functions import text as T
from osf_data_validator_tool_ray.spec import Facets


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 4000),
    st.sampled_from([8000, 16000, 22050]),
    st.sampled_from(["pcm_s16le", "pcm_u8", "ulaw"]),
    st.integers(0, 2**31),
)
def test_codec_roundtrip_any_signal(n, sr, codec, seed):
    rng = np.random.default_rng(seed)
    pcm = np.clip(rng.standard_normal(n) * 0.5, -1, 1).astype(np.float32)
    buf = audio.encode(pcm, sr, codec)
    dec, got_sr = audio.decode(buf)
    assert got_sr == sr and len(dec) == n
    assert audio.sniff_codec(buf) == codec
    if n > 16:
        rms = float(np.sqrt(np.mean(pcm.astype(np.float64) ** 2)))
        if rms > 0.05:
            assert audio.snr_db(pcm, dec) >= 25.0


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=0, max_size=300))
def test_decode_never_crashes_on_garbage(buf):
    try:
        audio.decode(buf)
    except audio.DecodeError:
        pass
    assert audio.sniff_codec(buf) in (None, "pcm_s16le", "pcm_u8", "ulaw")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=40), st.none(),
                          st.integers(), st.floats(allow_nan=True)), max_size=20))
def test_validators_total_on_mixed_columns(values):
    arr = np.array(values, dtype=object)
    for name, fn in VALIDATORS.items():
        out = fn(arr)
        assert len(out) == len(values) and out.dtype == bool


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=30), st.none()), max_size=15))
def test_facets_total(values):
    f = Facets(dtype="token", pattern=r"[a-z]+", min_length=1, max_length=10,
               not_null=True, not_empty=True)
    masks = facet_violations(np.array(values, dtype=object), f)
    for m in masks.values():
        assert len(m) == len(values)


@settings(max_examples=20, deadline=None)
@given(st.text(max_size=200))
def test_text_kernels_total(s):
    T.char_shingle_hashes(s, 5)
    T.simhash64(s)
    T.winnow_fingerprints(s)
    T.lang_id(pd.Series([s]))
    T.token_counts(pd.Series([s]))


@settings(max_examples=10, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=200),
       st.integers(1, 3))
def test_hll_merge_associative(values, splits):
    parts = np.array_split(np.array(values, dtype=object), splits)
    merged = HyperLogLog()
    for p in parts:
        if len(p):
            h = HyperLogLog()
            h.update(pd.Series(p))
            merged.merge(h)
    whole = HyperLogLog()
    whole.update(pd.Series(values))
    assert merged.estimate() == whole.estimate()


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=500), st.integers(1, 4))
def test_kll_merge_n_preserved(values, splits):
    parts = np.array_split(np.asarray(values), splits)
    merged = KLL()
    for p in parts:
        h = KLL()
        h.update(p)
        merged.merge(h)
    assert merged.n == len(values)
    q = merged.quantile(0.5)[0]
    assert min(values) <= q <= max(values)


@given(st.lists(st.integers(min_value=0, max_value=3000),
                min_size=1, max_size=60),
       st.integers(min_value=1, max_value=2000))
@settings(max_examples=40, deadline=None)
def test_pack_sequences_greedy_property(tokens, budget):
    """Arbitrary token lists + budgets: the distributed packer equals a
    pure-Python greedy fold, packs are contiguous 0..P-1, and no pack
    exceeds the budget except single-oversized-doc packs."""
    import ray.data

    from osf_data_validator_tool_ray.pipelines.training import pack_sequences

    df = pd.DataFrame({"g": 0, "doc_id": range(len(tokens)),
                       "n": tokens})
    out = pack_sequences(ray.data.from_pandas(df).repartition(2),
                         "g", "doc_id", "n", budget=budget) \
        .to_pandas().sort_values("doc_id")

    ref, acc, pid, started = [], 0, 0, False
    for t in tokens:
        if started and acc + t <= budget:
            acc += t
        else:
            if started:
                pid += 1
            acc = t
            started = True
        ref.append(pid)
    assert out["pack_id"].tolist() == ref
    totals = out.groupby("pack_id")["n"].sum()
    sizes = out.groupby("pack_id").size()
    assert list(totals.index) == list(range(len(totals)))
    for p, tot in totals.items():
        assert tot <= budget or sizes[p] == 1


@given(st.text(max_size=200), st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=40, deadline=None)
def test_chunk_documents_property(text, size, stride):
    """Windows reconstruct the document: chunk 0 + the non-overlap tail
    of each later chunk == the original text; counts match the formula."""
    import ray.data

    from osf_data_validator_tool_ray.pipelines.training import (
        chunk_documents)

    df = pd.DataFrame({"doc_id": [1], "text": [text]})
    out = chunk_documents(ray.data.from_pandas(df), "text", "doc_id",
                          size=size, stride=stride) \
        .to_pandas().sort_values("chunk_id")
    chunks = out["chunk"].tolist()
    L = len(text)
    want_n = 1 if L <= size else -(-(L - size) // stride) + 1
    assert len(chunks) == want_n
    if stride <= size:                       # overlapping windows cover
        rebuilt = chunks[0] + "".join(c[size - stride:] for c in chunks[1:])
        assert rebuilt == text
    for c in chunks:
        assert len(c) <= size
