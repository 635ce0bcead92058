"""Training-data preparation operators: sequence packing and
stratified sampling.

These extend the corpus-curation family (pipelines/corpus.py) with the
two ops a pre-training data pipeline runs after dedup/quality: packing
documents into fixed token-budget sequences, and drawing reproducible
per-stratum samples.  Both are streaming Ray-Data-first; neither holds
corpus-sized state anywhere.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data


def pack_sequences(
    ds: "ray.data.Dataset",
    group_col: str,
    id_col: str,
    tokens_col: str,
    budget: int,
) -> "ray.data.Dataset":
    """Greedy sequence packing: within each ``group_col`` value (the
    shard / source file — the standard packing unit, so packing is
    deterministic and resumable per shard), documents are taken in
    ``id_col`` order and appended to the current pack until adding the
    next would exceed ``budget`` tokens; then a new pack starts.  A
    single document larger than the budget gets its own (overflowing)
    pack — it is never split here (truncation is a separate policy).

    Returns (group, doc id, n_tokens, pack_id, pack_tokens) where
    ``pack_id`` is the 0-based pack index within the group and
    ``pack_tokens`` the pack's total.  One frame-wide kernel through
    ``relational.by_partition`` on the shard key (one sort by id, then
    a loop over the frame's groups); per group the greedy fold
    is a searchsorted on the running cumsum (numpy loop over PACK
    BOUNDARIES only, not rows-per-pack).

    Partitioning assumption (SURVEY §2.2 custom-operator contract): one
    group's rows fit in a worker heap — groups are shards by
    construction, already sized for that.
    """
    from . import relational

    cols = [group_col, id_col, tokens_col]

    def pack(t: pa.Table) -> pa.Table:
        df = t.select(cols).to_pandas().reset_index(drop=True) \
            .sort_values(id_col, kind="stable")
        t = t.select(cols).take(pa.array(df.index.to_numpy(), pa.int64()))
        toks = df[tokens_col].to_numpy(dtype=np.int64)
        pack_ids = np.empty(len(toks), dtype=np.int64)
        totals = np.empty(len(toks), dtype=np.int64)
        groups = df.reset_index(drop=True).groupby(group_col, sort=False, dropna=False)
        for pos in groups.indices.values():
            # greedy reset-on-overflow over the group's docs in id order:
            # iterate pack boundaries via searchsorted on the running cumsum
            csum = np.concatenate([[0], np.cumsum(toks[pos])])
            start, pid = 0, 0
            while start < len(pos):
                # furthest end with total <= budget; always take >= 1 doc
                end = max(int(np.searchsorted(csum, csum[start] + budget,
                                              side="right")) - 1, start + 1)
                pack_ids[pos[start:end]] = pid
                totals[pos[start:end]] = csum[end] - csum[start]
                start, pid = end, pid + 1
        return t.append_column("pack_id", pa.array(pack_ids)) \
            .append_column("pack_tokens", pa.array(totals))

    return relational.by_partition(ds.select_columns(cols), [group_col], pack)


def split_by_group(
    ds: "ray.data.Dataset",
    group_col: str,
    id_col: str,
    train_permille: int = 800,
    val_permille: int = 100,
    knuth: int = 2654435761,
    mod: int = 1 << 32,
) -> "ray.data.Dataset":
    """Group-aware train/val/test assignment: the SPLIT is keyed on
    ``group_col``'s hash (not the row id), so all rows of one group —
    one user, one source document — land in the same split and never
    leak across the train/eval boundary.  Adds a ``split`` column
    ('train' | 'val' | 'test'); deterministic, SQL-expressible, no
    shuffle.  Non-integer group keys hash via their int64 cast."""

    def fn(t: pa.Table) -> pa.Table:
        g = t.column(group_col).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        h = (g.astype(np.uint64) * np.uint64(knuth)) % np.uint64(mod)
        b = (h % np.uint64(1000)).astype(np.int64)
        split = np.where(b < train_permille, "train",
                         np.where(b < train_permille + val_permille,
                                  "val", "test")).astype(object)
        return t.append_column("split", pa.array(split, type=pa.string()))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def chunk_documents(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    size: int,
    stride: int,
) -> "ray.data.Dataset":
    """Context-window chunking: split each document into windows of
    ``size`` characters starting every ``stride`` characters (overlap =
    size - stride).  A document of length L yields
    ``1 if L <= size else ceil((L - size) / stride) + 1`` chunks — the
    last window is the final ``<= size`` tail; empty/null texts yield
    one empty chunk (the row is preserved).

    Returns (id, chunk_id, chunk).  Vectorized bookkeeping (lengths,
    chunk counts, start offsets via repeat/arange); the string slices
    themselves are one Python slice per OUTPUT chunk — that copy IS the
    operator's work (proportional to emitted bytes), not avoidable
    per-row overhead."""
    if stride <= 0 or size <= 0:
        raise ValueError("size and stride must be positive")

    def fn(t: pa.Table) -> pa.Table:
        texts = t.column(text_col).to_pandas().fillna("").to_numpy(dtype=object)
        ids = t.column(id_col)
        lens = np.fromiter((len(x) for x in texts), dtype=np.int64,
                           count=len(texts))
        n_chunks = np.where(
            lens <= size, 1,
            ((lens - size + stride - 1) // stride) + 1).astype(np.int64)
        row_idx = np.repeat(np.arange(len(texts)), n_chunks)
        chunk_id = np.concatenate([np.arange(n) for n in n_chunks]) \
            if len(texts) else np.array([], dtype=np.int64)
        starts = chunk_id * stride
        chunks = [texts[r][s:s + size]
                  for r, s in zip(row_idx, starts)]
        return pa.table({
            id_col: ids.take(pa.array(row_idx, type=pa.int64())),
            "chunk_id": pa.array(chunk_id, type=pa.int64()),
            "chunk": pa.array(chunks, type=pa.string()),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow", batch_size=None)


def unigram_logprob_scores(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    max_vocab: int = 65536,
) -> "ray.data.Dataset":
    """Unigram language-model quality score per document: mean
    ``ln p(token)`` under the corpus's OWN unigram distribution (the
    KenLM-style perplexity stand-in used to rank crawl text).

    Pass 1 trains the LM: per-batch token-count partials -> one grouped
    count -> top ``max_vocab`` tokens by (count desc, token asc), with
    ``p(w) = count(w) / total_tokens`` and out-of-vocab floored at
    ``ln(1 / total_tokens)``.  Pass 2 broadcasts the (token, logprob)
    table once via ray.put and scores every document vectorized
    (RE2 split + ``pc.index_in`` + int64-offset segment means).
    Documents with zero tokens are omitted (no defined mean).

    Tokens are lowercase [a-z0-9]+ runs — the same tokenizer as
    repetition_scores, replicated exactly by the SQL oracle."""
    import pyarrow.compute as pc

    import ray as _ray

    from . import relational
    from .relational import fits_driver_merge, grouped_agg

    from ..functions.text import segment_sums, tokenize_flat

    def tok_partial(batch: pa.Table) -> pa.Table:
        flat, _offsets, nonempty = tokenize_flat(
            batch.column(text_col).combine_chunks(), "[^a-z0-9]+")
        return pa.table({"token": flat.filter(pa.array(nonempty.astype(bool)))})

    tokens = ds.select_columns([text_col]).map_batches(
        tok_partial, batch_format="pyarrow", batch_size=65536)
    counts_ds = grouped_agg(tokens, "token", {"c": ("token", "count")}) \
        .materialize()
    if fits_driver_merge(counts_ds):
        counts = counts_ds.to_pandas()
        total = int(counts["c"].sum())
        vocab = counts.sort_values(["c", "token"],
                                   ascending=[False, True]).head(max_vocab)
    else:
        # unbounded vocab: the driver sees ONLY the top-k slice (one
        # distributed sort-limit) and a scalar total, never the full
        # distinct-token table
        from ray.data.aggregate import Sum as _Sum
        total = int(counts_ds.aggregate(_Sum("c"))["sum(c)"])
        vocab = counts_ds.sort(["c", "token"],
                               descending=[True, False]) \
            .limit(max_vocab).to_pandas()
    floor_lp = float(np.log(1.0 / max(total, 1)))
    lp = np.log(vocab["c"].to_numpy(dtype=np.float64) / max(total, 1))
    vocab_ref = _ray.put((vocab["token"].to_numpy(dtype=object), lp))

    class Score:
        def __init__(self):
            toks, lps = _ray.get(vocab_ref)
            self.vocab = pa.array(toks, type=pa.string())
            self.lps = lps

        def __call__(self, t: pa.Table) -> pa.Table:
            from ..functions.text import segment_sums, tokenize_flat
            flat, offsets, nonempty = tokenize_flat(
                t.column(text_col).combine_chunks(), "[^a-z0-9]+")
            idx = pc.fill_null(pc.index_in(flat, value_set=self.vocab), -1) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            tok_lp = np.where(idx >= 0, self.lps[np.maximum(idx, 0)],
                              floor_lp)
            tok_lp = np.where(nonempty.astype(bool), tok_lp, 0.0)
            sums = segment_sums(tok_lp, offsets)
            ns = segment_sums(nonempty, offsets)
            keep = ns > 0
            return pa.table({
                id_col: t.column(id_col).filter(pa.array(keep)),
                "logprob": pa.array(sums[keep] / np.maximum(ns[keep], 1),
                                    type=pa.float64()),
            })

    return ds.select_columns([id_col, text_col]).map_batches(
        Score, batch_format="pyarrow", batch_size=65536,
        concurrency=(1, max(2, relational.cpu_slots())))


def stratified_sample(
    ds: "ray.data.Dataset",
    strata_col: str,
    id_col: str,
    permille: Mapping,
    default_permille: int = 0,
    knuth: int = 2654435761,
    mod: int = 1 << 32,
) -> "ray.data.Dataset":
    """Reproducible per-stratum sampling: row kept iff
    ``((id * knuth) % mod) % 1000 < permille[stratum]`` — the
    deterministic_sample hash applied with a per-stratum rate (domain
    rebalancing: e.g. keep 100% of code, 5% of crawl).  The rate map is
    tiny and ships inside the task closure; per-batch fully vectorized;
    no shuffle; SQL-expressible for the oracle."""
    rates = dict(permille)

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        h = (ids.astype(np.uint64) * np.uint64(knuth)) % np.uint64(mod)
        bucket = (h % np.uint64(1000)).astype(np.int64)
        strata = t.column(strata_col).to_pandas()
        limit = strata.map(rates).fillna(default_permille) \
            .to_numpy(dtype=np.int64)
        return t.filter(pa.array(bucket < limit))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def benchmark_ngram_set(
    bench_ds: "ray.data.Dataset",
    text_col: str = "text",
    n: int = 5,
) -> set:
    """The DISTINCT word-``n``-gram set of a benchmark/eval corpus,
    reduced to the driver: per-batch distinct partials (combiner), one
    driver union.  Bounded by the BENCHMARK's size — eval sets are
    orders of magnitude smaller than training corpora, the premise of
    every published decontamination setup; for a pathologically large
    benchmark, swap the exact set for a Bloom filter
    (functions/sketches.py) at the cost of a false-positive drop
    rate."""
    from ..functions.text import word_ngrams_flat

    def partial(t: pa.Table) -> pa.Table:
        g, _ = word_ngrams_flat(t.column(text_col).to_pandas(), n)
        return pa.table({"gram": pa.array(pd.unique(g), type=pa.string())})

    out: set = set()
    parts = bench_ds.select_columns([text_col]).map_batches(
        partial, batch_format="pyarrow", batch_size=None)
    for batch in parts.iter_batches(batch_size=None,
                                    batch_format="pyarrow"):
        out.update(batch.column("gram").to_pylist())
    return out


def decontaminate(
    train_ds: "ray.data.Dataset",
    bench_ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 5,
    mode: str = "flag",
) -> "ray.data.Dataset":
    """Benchmark decontamination (the GPT-3/C4-style n-gram overlap
    rule): a training document is CONTAMINATED when any of its word
    ``n``-grams appears in the benchmark corpus.

    The benchmark gram set broadcasts ONCE via ``ray.put`` (plasma-
    cached per worker); training data streams through one vectorized
    ``map_batches`` pass — shifted-concat gram construction + one
    hashed ``isin`` membership test + a bincount per-doc reduction.  No
    shuffle, no driver materialization of training data.

    mode="flag": returns (id_col, n_hits) rows for contaminated docs
    (n_hits = number of GRAM POSITIONS that hit, the quantity a SQL
    gram join reproduces).  mode="drop": returns the clean training
    rows with original columns."""
    import ray as _ray

    if mode not in ("flag", "drop"):
        raise ValueError(f"unknown mode {mode!r}")
    from ..functions.text import word_ngrams_flat

    bench_ref = _ray.put(benchmark_ngram_set(bench_ds, text_col, n))
    id_type = None
    for name, typ in zip(train_ds.schema().names, train_ds.schema().types):
        if name == id_col and isinstance(typ, pa.DataType):
            id_type = typ

    def flag(t: pa.Table) -> pa.Table:
        bench = _ray.get(bench_ref)
        grams, doc_of = word_ngrams_flat(t.column(text_col).to_pandas(), n)
        hits = pd.Series(grams, dtype="object").isin(bench).to_numpy()
        per_doc = np.bincount(doc_of[hits], minlength=t.num_rows) \
            .astype(np.int64)
        m = per_doc > 0
        return pa.table({
            id_col: t.column(id_col).filter(pa.array(m)),
            "n_hits": pa.array(per_doc[m], type=pa.int64())})

    def drop(t: pa.Table) -> pa.Table:
        bench = _ray.get(bench_ref)
        grams, doc_of = word_ngrams_flat(t.column(text_col).to_pandas(), n)
        hits = pd.Series(grams, dtype="object").isin(bench).to_numpy()
        per_doc = np.bincount(doc_of[hits], minlength=t.num_rows)
        return t.filter(pa.array(per_doc == 0))

    fn = flag if mode == "flag" else drop
    return train_ds.map_batches(fn, batch_format="pyarrow",
                                batch_size=None)
