"""Deduplication pipelines — exact, MinHash+LSH, SimHash, n-gram Jaccard.

Large-scale training-data dedup expressed Ray-Data-first:

  * exact: content-hash per batch (vectorized) -> ONE
    groupby(hash) over per-batch partials (keep min id + count) — the
    max-cardinality-1 check generalized to content identity.
  * MinHash+LSH: shingle -> signature per row (map_batches) -> explode
    to (band_id, band_key, id, sig) rows -> groupby((band_id, band_key))
    -> pairwise candidates within buckets -> verify by signature
    similarity (and optionally exact shingle Jaccard).  The band
    explosion is the partitioning assumption: bucket sizes stay small
    when bands*rows are sized for the target threshold (b=16, r=4 ~
    t≈(1/b)^(1/r)≈0.5); a pathological bucket (all-identical docs) is
    bounded by per-bucket pair caps.
  * SimHash: 64-bit signature per row; exact-match groupby, or
    hamming<=k via 16-bit band tables (4 bands catch all pairs with
    hamming<=3 by pigeonhole).
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions import text as T


def _md5_col(texts: pd.Series) -> list[str]:
    return [hashlib.md5(t.encode() if isinstance(t, str) else b"").hexdigest() for t in texts]


def exact_dedup_groups(
    ds: "ray.data.Dataset", text_col: str, id_col: str
) -> "ray.data.Dataset":
    """One row per distinct content hash: (text_hash, keep_id, n).
    keep-first = min id; rows with n>1 are duplicate groups."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "text_hash": _md5_col(batch.column(text_col).to_pandas()),
            "_id": batch.column(id_col).to_pandas(),
        })
        agg = df.groupby("text_hash", sort=False).agg(
            keep_id=("_id", "min"), n=("_id", "size")).reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False).replace_schema_metadata(None)

    from ..pipelines.relational import merge_partials

    def typed(t: pa.Table) -> pa.Table:
        # an empty input still yields the result's column types
        return t if t.num_rows else pa.table(
            {"text_hash": pa.array([], type=pa.string()),
             "keep_id": pa.array([], type=pa.int64()),
             "n": pa.array([], type=pa.int64())})

    partials = ds.select_columns([text_col, id_col]).map_batches(
        partial, batch_format="pyarrow", batch_size=None)
    # the per-batch hash partials are one row per distinct content per
    # block, so small sets merge in process; at corpus scale they shuffle
    return merge_partials(partials, "text_hash", {"keep_id": "min", "n": "sum"},
                          typed)


class _MinHashStage:
    """Actor-pool stage: shingle + MinHash signature + LSH band rows per
    document.  Permutation params are built once per actor in __init__
    (stateful setup amortized across batches)."""

    def __init__(self, text_col: str, id_col: str, num_perm: int, bands: int,
                 shingle_k: int, seed: int = 1):
        self.text_col, self.id_col = text_col, id_col
        self.num_perm, self.bands, self.k = num_perm, bands, shingle_k
        self.a, self.b = T._perm_params(num_perm, seed)

    def _signature(self, sh: np.ndarray) -> np.ndarray:
        if len(sh) == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        return T._minhash_from_salts(sh.astype(np.uint64), self.a)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        ids = batch.column(self.id_col).to_pylist()
        band_ids, band_keys, out_ids, sigs = [], [], [], []
        for i, txt in enumerate(texts):
            sh = T.char_shingle_hashes(txt, self.k)
            sig = self._signature(sh)
            keys = T.lsh_band_keys(sig, self.bands)
            for bidx, bkey in enumerate(keys):
                band_ids.append(bidx)
                band_keys.append(bkey)
                out_ids.append(ids[i])
                sigs.append(sig.tobytes())
        return pa.table({
            "band_id": pa.array(band_ids, type=pa.int32()),
            "band_key": pa.array(band_keys, type=pa.uint64()),
            "doc_id": pa.array(out_ids),
            "sig": pa.array(sigs, type=pa.binary()),
        })


def minhash_near_dup_pairs(
    ds: "ray.data.Dataset",
    text_col: str,
    id_col: str,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    threshold: float = 0.5,
    max_bucket_pairs: int = 10_000,
    concurrency: Optional[int] = None,
) -> "ray.data.Dataset":
    """Candidate near-duplicate pairs with estimated Jaccard >= threshold.

    Returns Dataset (id_a, id_b, est_jaccard) with id_a < id_b, deduped
    across buckets.  Wall-clock shape: one map_batches (signatures,
    bands=16x duplication of 8B*num_perm sig per doc), one groupby
    exchange on (band_id, band_key), one dedup groupby on the pair key.
    """
    stage_kwargs = dict(batch_format="pyarrow")
    if concurrency:
        stage_kwargs["concurrency"] = concurrency
    banded = ds.map_batches(
        _MinHashStage(text_col, id_col, num_perm, bands, shingle_k),
        **stage_kwargs,
    )

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        n = len(group)
        if n < 2:
            idt = group["doc_id"].dtype
            return pd.DataFrame({"id_a": pd.Series(dtype=idt),
                                 "id_b": pd.Series(dtype=idt),
                                 "est_jaccard": pd.Series(dtype="float64")})
        sigs = np.stack([np.frombuffer(s, dtype=np.uint64) for s in group["sig"]])
        ids = group["doc_id"].to_numpy()
        # oversized buckets re-band instead of truncating (duplicate
        # chains + extended-band recursion; see _pairs_rebanded)
        ia, ib, js = _bucket_pair_arrays(
            ids, sigs,
            lambda sa, sb: (sa == sb).mean(axis=-1),
            lambda s: s >= threshold, max_bucket_pairs,
            "minhash_near_dup_pairs")
        return pd.DataFrame({"id_a": ia, "id_b": ib,
                             "est_jaccard": js.astype(np.float64)})

    from ..pipelines.relational import fits_driver_merge
    mat = banded.materialize()
    if fits_driver_merge(mat):
        # driver fast path: numpy bucket slices, no per-bucket pandas
        df = mat.to_pandas()
        sig_mat = (np.frombuffer(b"".join(df["sig"]), dtype=np.uint64)
                   .reshape(len(df), num_perm) if len(df) else
                   np.empty((0, num_perm), dtype=np.uint64))
        ia, ib, sc = _vector_bucket_pairs(
            df, ["band_id", "band_key"], "doc_id", sig_mat,
            lambda sa, sb: (sa == sb).mean(axis=-1),
            lambda s: s >= threshold, max_bucket_pairs,
            "minhash_near_dup_pairs")
        pairs = pd.DataFrame({"id_a": ia, "id_b": ib, "est_jaccard": sc})
        if len(pairs):
            pairs = pairs.groupby(["id_a", "id_b"], sort=False)["est_jaccard"] \
                .max().reset_index()
        return ray.data.from_pandas(pairs)
    return _bucket_pairs_adaptive(mat, ["band_id", "band_key"],
                                  bucket_pairs, "est_jaccard", "max")


def _pairs_rebanded(ids: np.ndarray, sigs: np.ndarray, pair_score, emit,
                    max_bucket_pairs: int, op_name: str,
                    _depth: int = 0) -> None:
    """Pair generation for one LSH bucket with RE-BANDING instead of
    truncation (round-3 verdict item #4).

    Small buckets emit the complete pair set.  A bucket whose pair
    count exceeds ``max_bucket_pairs`` is split instead of truncated:

    1. identical-signature groups (mass duplicates — the pathological
       case) emit a sorted CHAIN of n-1 pairs each: every member stays
       connected to its cluster (near_dup_clusters recovers the full
       clique) at linear, not quadratic, pair volume;
    2. the distinct-signature representatives form a reduced bucket
       that recurses; if still oversized, the band is EXTENDED with a
       doubling prefix of signature rows (the standard LSH precision
       knob — more rows per band) and each sub-bucket recurses, so the
       highest-similarity pairs survive and only low-agreement
       cross-sub-bucket candidates are pruned.

    The emitted set is connectivity-preserving rather than the
    quadratic complete set; the re-band event is logged once per
    bucket."""
    import logging

    n = len(ids)
    if n < 2:
        return
    if n * (n - 1) // 2 <= max_bucket_pairs:
        iu0, iu1 = np.triu_indices(n, 1)
        emit(ids[iu0], ids[iu1], pair_score(sigs[iu0], sigs[iu1]))
        return
    if _depth == 0:
        logging.getLogger("osf_data_validator_tool_ray.dedup").warning(
            "%s: bucket of %d docs re-banded (emitting a "
            "connectivity-preserving pair set: duplicate chains + "
            "extended-band sub-buckets, not the %d-pair complete set)",
            op_name, n, n * (n - 1) // 2)
    sigs = np.ascontiguousarray(sigs)
    order = np.lexsort(sigs.T[::-1])
    ids_s, sig_s = ids[order], sigs[order]
    change = np.flatnonzero((sig_s[1:] != sig_s[:-1]).any(axis=1)) + 1
    starts = np.concatenate([[0], change]).astype(np.int64)
    ends = np.concatenate([change, [n]]).astype(np.int64)
    for s, e in zip(starts, ends):
        if e - s >= 2:
            # identical signatures: a sorted chain keeps every member
            # connected (deterministic across the bands that see this
            # group, so cross-band dedup collapses the repeats)
            gids = np.sort(ids_s[s:e])
            emit(gids[:-1], gids[1:], pair_score(sig_s[s:e - 1],
                                                 sig_s[s + 1:e]))
    reps = starts
    if len(reps) < n:
        _pairs_rebanded(ids_s[reps], sig_s[reps], pair_score, emit,
                        max_bucket_pairs, op_name, _depth + 1)
        return
    # all signatures distinct: extend the band with a doubling prefix
    # of signature rows and recurse per sub-bucket (terminates: at the
    # full width every sub-bucket is a singleton)
    d = sigs.shape[1]
    if d == 1:
        # Width-1 signatures (simhash/fingerprint path) can't extend
        # the band.  Re-band WITHIN the value instead: split the bit
        # positions that actually VARY across this bucket into 4
        # groups and sub-bucket once per group (key = the group's own
        # bits) — a pair with <= 3 differing bits has >= 1 group
        # containing NONE of them (pigeonhole over 4 groups), so it
        # shares that pass's sub-bucket and is eventually all-pairs
        # scored; the argument re-applies at every recursion level.
        # Splitting only VARYING bits matters: a real band-b LSH
        # bucket shares 16 fixed bits, and a fixed-position chunking
        # would burn its "equal chunk" on the shared band, whose
        # sub-bucket is the whole set (round-5 review follow-up — the
        # first fix failed exactly that shape).  Group keys are built
        # from varying bits only, so every pass genuinely splits;
        # whole-set groups (possible only when < 4 varying bits
        # remain) are skipped, making recursion strictly shrink.
        # Duplicate emissions across passes are collapsed by the
        # callers' per-pair groupby-min.  A value-sorted neighbor
        # chain is kept as the connectivity floor, and a depth cap
        # bounds the 4x-per-level pass fan-out on adversarial data.
        emit(ids_s[:-1], ids_s[1:], pair_score(sig_s[:-1], sig_s[1:]))
        if _depth > 12:
            return
        v = sig_s[:, 0].astype(np.uint64)
        varying = np.uint64(np.bitwise_or.reduce(v ^ v[0]))
        bit_pos = np.flatnonzero(
            (varying >> np.arange(64, dtype=np.uint64)) & np.uint64(1))
        if len(bit_pos) == 0:
            return              # identical values: dup chains covered it
        for gbits in np.array_split(bit_pos, min(4, len(bit_pos))):
            if len(gbits) == 0:
                continue
            mask = np.uint64(0)
            for b in gbits:
                mask |= np.uint64(1) << np.uint64(b)
            key = v & mask
            order2 = np.argsort(key, kind="stable")
            k_s = key[order2]
            bnd2 = np.flatnonzero(k_s[1:] != k_s[:-1]) + 1
            st = np.concatenate([[0], bnd2]).astype(np.int64)
            en = np.concatenate([bnd2, [n]]).astype(np.int64)
            for s3, e3 in zip(st, en):
                if e3 - s3 >= 2 and e3 - s3 < n:
                    idx = order2[s3:e3]
                    _pairs_rebanded(ids_s[idx], sig_s[idx], pair_score,
                                    emit, max_bucket_pairs, op_name,
                                    _depth + 1)
        return
    cols = min(d, 1 << (_depth + 1))
    sub = sig_s[:, :cols]
    bnd = np.flatnonzero((sub[1:] != sub[:-1]).any(axis=1)) + 1
    s2 = np.concatenate([[0], bnd]).astype(np.int64)
    e2 = np.concatenate([bnd, [n]]).astype(np.int64)
    if len(s2) == 1 and cols == d:
        return      # unreachable (distinct sigs split at full width)
    for s, e in zip(s2, e2):
        if e - s >= 2:
            _pairs_rebanded(ids_s[s:e], sig_s[s:e], pair_score, emit,
                            max_bucket_pairs, op_name, _depth + 1)


def _bucket_pair_arrays(ids: np.ndarray, sigs: np.ndarray, pair_score, keep,
                        max_bucket_pairs: int, op_name: str):
    """(id_a, id_b, score) arrays for one bucket via ``_pairs_rebanded``
    with the keep-filter and id ordering applied."""
    out_a, out_b, out_s = [], [], []

    def emit(a: np.ndarray, b: np.ndarray, sc: np.ndarray) -> None:
        m = keep(sc)
        if m.any():
            a, b, sc = a[m], b[m], sc[m]
            swap = b < a
            out_a.append(np.where(swap, b, a))
            out_b.append(np.where(swap, a, b))
            out_s.append(sc)

    _pairs_rebanded(ids, sigs, pair_score, emit, max_bucket_pairs, op_name)
    if not out_a:
        return (np.array([], dtype=ids.dtype), np.array([], dtype=ids.dtype),
                np.array([], dtype=np.float64))
    return (np.concatenate(out_a), np.concatenate(out_b),
            np.concatenate(out_s))


# transient-memory budget for the vectorized same-size bucket pairing:
# each chunk materializes ~3 (G, P, d) float/uint64 temporaries (two
# operand gathers + the score), so G is capped such that
# G * P * d * 8 * 3 stays under this — max_bucket_pairs bounds P per
# bucket but NOT the bucket-group count G (round-2 advice: many
# moderate equal-size buckets could demand tens of GB transient)
PAIR_CHUNK_BUDGET_BYTES = 256 * 1024 * 1024


def _vector_bucket_pairs(
    df: "pd.DataFrame",
    key_cols: list[str],
    id_col: str,
    sig_mat: np.ndarray,
    pair_score,
    keep,
    max_bucket_pairs: int,
    op_name: str,
    pair_budget_bytes: int = PAIR_CHUNK_BUDGET_BYTES,
):
    """Driver fast path for banded candidate generation: one lexsort,
    bucket boundaries from key changes, per-bucket numpy slice pairing —
    no per-bucket pandas frames (10k+ tiny buckets would pay ~0.3ms of
    pandas overhead each).  pair_score((P,d),(P,d))->scores;
    keep(scores)->mask.  Returns (id_a, id_b, score) arrays, id_a<id_b.
    Same-size bucket groups are processed in chunks bounded by
    ``pair_budget_bytes`` of temporaries."""
    import logging

    if len(df) == 0 or not set(key_cols) <= set(df.columns):
        # zero-block inputs (e.g. an empty checkpoint artifact) yield a
        # column-less empty frame from Dataset.to_pandas
        e = np.array([], dtype=np.int64)
        return e, e, np.array([], dtype=np.float64)

    arrs = [df[c].to_numpy() for c in key_cols]
    order = np.lexsort(arrs[::-1])
    ids = df[id_col].to_numpy()[order]
    sig = sig_mat[order]
    karrs = [a[order] for a in arrs]
    if len(ids) > 1:
        change = np.zeros(len(ids) - 1, dtype=bool)
        for a in karrs:
            change |= a[1:] != a[:-1]
        bnd = np.flatnonzero(change) + 1
    else:
        bnd = np.array([], dtype=np.int64)
    starts = np.concatenate([[0], bnd]).astype(np.int64)
    ends = np.concatenate([bnd, [len(ids)]]).astype(np.int64)
    sizes = ends - starts
    big = sizes * (sizes - 1) // 2 > max_bucket_pairs
    ia_all, ib_all, sc_all = [], [], []

    def emit(a: np.ndarray, b: np.ndarray, sc: np.ndarray) -> None:
        m = keep(sc)
        if m.any():
            a, b, sc = a[m], b[m], sc[m]
            swap = b < a
            ia_all.append(np.where(swap, b, a))
            ib_all.append(np.where(swap, a, b))
            sc_all.append(sc)

    # all same-size buckets at once: (G, s, d) signature blocks, one
    # vectorized score over every pair of every bucket of that size,
    # with the G axis chunked to bound the (G, P, d) temporaries
    d_width = int(sig_mat.shape[1]) if sig_mat.ndim > 1 else 1
    for s_val in np.unique(sizes[(sizes >= 2) & ~big]):
        sel = np.flatnonzero((sizes == s_val) & ~big)
        iu0, iu1 = np.triu_indices(int(s_val), 1)
        n_pairs = len(iu0)
        g_max = max(1, int(pair_budget_bytes
                           // max(1, n_pairs * d_width * 8 * 3)))
        for c0 in range(0, len(sel), g_max):
            sub = sel[c0:c0 + g_max]
            idx = starts[sub][:, None] + np.arange(s_val)[None, :]
            sig_g = sig[idx]                       # (G, s, d)
            sc = pair_score(sig_g[:, iu0, :], sig_g[:, iu1, :])   # (G, P)
            ids_g = ids[idx]
            emit(ids_g[:, iu0].ravel(), ids_g[:, iu1].ravel(), sc.ravel())

    # pathological buckets: re-band instead of truncating (duplicate
    # chains + extended-band recursion; see _pairs_rebanded)
    for gi in np.flatnonzero(big):
        s, e = int(starts[gi]), int(ends[gi])
        sig_b = sig[s:e]
        if sig_b.ndim == 1:
            sig_b = sig_b.reshape(-1, 1)
        _pairs_rebanded(ids[s:e], sig_b, pair_score, emit,
                        max_bucket_pairs, op_name)

    if not ia_all:
        return (np.array([], dtype=ids.dtype), np.array([], dtype=ids.dtype),
                np.array([], dtype=np.float64))
    return (np.concatenate(ia_all), np.concatenate(ib_all),
            np.concatenate(sc_all))


def _bucket_pairs_adaptive(
    banded: "ray.data.Dataset",
    group_keys: list[str],
    bucket_fn,
    val_col: str,
    how: str,
) -> "ray.data.Dataset":
    """Bucket → candidate pairs → cross-bucket pair dedup.

    Small banded tables (row+byte-gated) run the whole chain in ONE
    driver pass (no object-store round trips between the bucket stage
    and the dedup aggregate); large ones take the distributed
    groupby(bucket).map_groups + pair-dedup exchange."""
    from ..pipelines.relational import (_adaptive_dedup_agg,
                                        adaptive_groupby_apply,
                                        fits_driver_merge)

    mat = banded.materialize()
    if fits_driver_merge(mat):
        df = mat.to_pandas()
        probe = bucket_fn(df.iloc[:0]) if len(df) else pd.DataFrame()
        if len(df):
            df = df[df.groupby(group_keys, sort=False)[group_keys[0]]
                    .transform("size") > 1]
        out = ([bucket_fn(g) for _, g in df.groupby(group_keys, sort=False)]
               if len(df) else [])
        out = [o for o in out if len(o)]
        if not out:
            return ray.data.from_pandas(probe)
        pairs = pd.concat(out, ignore_index=True)
        agg = pairs.groupby(["id_a", "id_b"], sort=False)[val_col] \
            .agg(how).reset_index()
        return ray.data.from_pandas(agg)
    pairs = adaptive_groupby_apply(mat, group_keys, bucket_fn,
                                   skip_singletons=True)
    return _adaptive_dedup_agg(pairs, ["id_a", "id_b"], val_col, how)


def near_dup_clusters(
    pairs: "ray.data.Dataset",
    id_a: str = "id_a",
    id_b: str = "id_b",
    max_rounds: int = 10,
    driver_threshold: int = 5_000_000,
    hot_degree_threshold: int = 65_536,
    max_hot_keys: int = 65_536,
    _stats: Optional[dict] = None,
) -> "ray.data.Dataset":
    """Connected components over near-dup pairs -> (doc_id, cluster_id)
    with cluster_id = min doc id of the component (keep-first dedup keeps
    the row whose id == cluster_id).

    Small pair sets (the common case — near-dups are rare) resolve with
    a driver-side union-find; large ones run distributed min-label
    propagation: explode pairs to (node, neighbor_min) rows, groupby-min
    per node, join labels back through the pair list, iterate until no
    label changes (converges in O(diameter) rounds; ray_guide.md dedup
    pattern).

    Skew posture (round-3 verdict item #5): a celebrity node's label
    pushes (degree >= ``hot_degree_threshold``) never enter the lookup
    exchange — its label is pulled to the driver each round (one row per
    hot key, <= ``max_hot_keys`` total) and pushed to its neighbors with
    a block-local ``map_batches`` over the statically-split hot edge
    partition.  The celebrity's RECEIVE side is already bounded: Ray's
    ``groupby(node).aggregate(Min)`` partial-aggregates map-side, so a
    hot node gets one combined row per block, not one per edge.  The
    cold-side label lookup is a ``sort(key)`` exchange consumed
    block-at-a-time with ONE Arrow hash join per block (keys touching a
    block's min/max spill to a small second pass), replacing the
    per-group pandas ``map_groups`` whose fixed cost (~0.3 ms/group)
    dominated at one group per graph node.

    ``_stats`` (tests): filled with per-run driver-observable counters
    (n_hot, hot_edge_rows, spill_rows, rounds)."""
    import pandas as pd

    mat = pairs.materialize()
    n_pairs = mat.count()
    if n_pairs == 0:
        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "cluster_id": pa.array([], type=pa.int64())}))
    if n_pairs <= driver_threshold:
        df = mat.to_pandas()
        parent: dict = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(df[id_a], df[id_b]):
            ra, rb = find(a), find(b)
            if ra != rb:
                lo, hi = (ra, rb) if ra <= rb else (rb, ra)
                parent[hi] = lo
        nodes = sorted(parent)
        out = pd.DataFrame({"doc_id": nodes,
                            "cluster_id": [find(n) for n in nodes]})
        return ray.data.from_pandas(out) if len(out) else ray.data.from_arrow(
            pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "cluster_id": pa.array([], type=pa.int64())}))

    # distributed min-label propagation.  Per round: ONE tagged-union
    # hash exchange (edge rows keyed by their neighbor endpoint, label
    # rows keyed by node) + ONE groupby-min.  The label table is
    # exchanged as ordinary blocks, never re-materialized per batch, so
    # a round is O(|edges|/cluster) regardless of label-table size.
    # (Ray's native Dataset.join is avoided here: its hash-shuffle
    # aggregator builds a schemaless empty table for partitions that
    # receive zero right-side blocks and crashes pyarrow's join — easy
    # to hit with a small label table.)  Convergence is detected from a
    # changed-label count carried through the same aggregate — the
    # driver never pulls the label table.
    from ray.data.aggregate import Min as _Min

    _s = mat.schema()
    id_type = dict(zip(_s.names, _s.types))[id_a]
    if not isinstance(id_type, pa.DataType):
        try:
            id_type = pa.from_numpy_dtype(id_type)
        except pa.ArrowNotImplementedError:
            id_type = pa.string()

    def explode(t: pa.Table) -> pa.Table:
        a = t.column(id_a).cast(id_type)
        b = t.column(id_b).cast(id_type)
        return pa.table({"node": pa.concat_arrays([a.combine_chunks(), b.combine_chunks()]),
                         "nbr": pa.concat_arrays([b.combine_chunks(), a.combine_chunks()])})

    edges = mat.map_batches(explode, batch_format="pyarrow", batch_size=None).materialize()
    # labels are re-derived from a union+groupby every round, whose output
    # block count otherwise grows by O(blocks) per round (quadratic task
    # overhead over the propagation rounds) — pin it to the edge block
    # count, the data-proportional figure
    n_lbl_blocks = max(1, edges.num_blocks())
    labels = edges.groupby("node").aggregate(_Min("nbr", alias_name="label")) \
        .map_batches(lambda t: pa.table({
            "node": t.column("node"),
            "label": pa.compute.min_element_wise(t.column("node"), t.column("label"))}),
            batch_format="pyarrow").repartition(n_lbl_blocks).materialize()

    def tag_edges(t: pa.Table) -> pa.Table:
        return pa.table({"key": t.column("nbr"), "node": t.column("node"),
                         "label": pa.nulls(t.num_rows, type=id_type)})

    def tag_labels(t: pa.Table) -> pa.Table:
        return pa.table({"key": t.column("node"),
                         "node": pa.nulls(t.num_rows, type=id_type),
                         "label": t.column("label").cast(id_type)})

    def prop(g: pa.Table) -> pa.Table:
        # one label row per key (its current label) + the edges whose
        # neighbor is this key: push the label to each edge's node, and
        # keep the key's own label (boundary-spill pass only).  Pure
        # Arrow: a pandas round-trip here would NaN-promote int64 ids
        # through the null-tagged columns and corrupt ids > 2^53 —
        # and this pass fires EVERY round (each non-empty sorted block
        # spills its min/max keys).
        key0 = g.column("key")[0]
        lbls = pc.drop_null(g.column("label"))
        lbl = pc.min(lbls) if len(lbls) else key0
        nodes = pc.drop_null(g.column("node")).combine_chunks()
        out_nodes = pa.concat_arrays(
            [nodes, pa.array([key0.as_py()], type=id_type)])
        return pa.table({
            "node": out_nodes,
            "label": pa.array([lbl.as_py()] * len(out_nodes),
                              type=id_type)})

    def block_join(t: pa.Table) -> pa.Table:
        """One sorted block of the tagged union: Arrow hash-join label
        push for every key fully contained in the block (a key strictly
        between the block's min and max key cannot appear in any other
        block of a globally sorted dataset); rows of the two boundary
        keys spill to the small second pass.  Pure-Arrow so int64 ids
        never round-trip through float64-with-NaN pandas columns.

        Executor invariants (Ray 2.49): (1) ``sort('key')`` yields
        globally range-partitioned blocks — REQUIRED for correctness;
        (2) ``map_batches(batch_size=None)`` passes each sorted block
        whole — NOT required: min/max are computed from the BATCH
        itself, so even if a future Ray split a block mid-key, the
        straddling key would sit at one sub-batch's max and the next's
        min and both sides spill to the boundary pass.  Only (1) is a
        hard assumption."""
        empty = pa.table({"flag": pa.array([], type=pa.string()),
                          "key": pa.array([], type=id_type),
                          "node": pa.array([], type=id_type),
                          "label": pa.array([], type=id_type)})
        if t.num_rows == 0:
            return empty
        keys = t.column("key")
        kmin, kmax = pc.min(keys), pc.max(keys)
        bmask = pc.or_(pc.equal(keys, kmin), pc.equal(keys, kmax))
        core = t.filter(pc.invert(bmask))
        spill = t.filter(bmask)
        lb = core.filter(pc.is_valid(core.column("label"))) \
                 .select(["key", "label"]).combine_chunks()
        ed = core.filter(pc.is_valid(core.column("node"))) \
                 .select(["key", "node"]).combine_chunks()
        push = ed.join(lb, keys="key", join_type="inner")
        done_node = pa.concat_arrays([
            push.column("node").combine_chunks(),
            lb.column("key").combine_chunks()])
        done_label = pa.concat_arrays([
            push.column("label").combine_chunks(),
            lb.column("label").combine_chunks()])
        n_done = len(done_node)
        return pa.table({
            "flag": pa.array(["d"] * n_done + ["s"] * spill.num_rows,
                             type=pa.string()),
            "key": pa.concat_arrays([
                pa.nulls(n_done, type=id_type),
                spill.column("key").combine_chunks()]),
            "node": pa.concat_arrays([
                done_node, spill.column("node").combine_chunks()]),
            "label": pa.concat_arrays([
                done_label, spill.column("label").combine_chunks()]),
        })

    def _checksum(lbl_ds: "ray.data.Dataset") -> int:
        """Order-independent fingerprint of the (node, label) map: XOR of
        per-row hashes, reduced per block — the driver pulls one uint64
        per block, never the table.  Used only for fixed-point early
        exit; a (astronomically unlikely) collision merely costs/saves a
        round within the max_rounds bound."""
        def part(t: pa.Table) -> pa.Table:
            h = pd.util.hash_pandas_object(t.to_pandas(), index=False).to_numpy()
            x = int(np.bitwise_xor.reduce(h)) if len(h) else 0
            return pa.table({"h": pa.array([x & 0xFFFFFFFFFFFFFFFF],
                                           type=pa.uint64())})
        acc = 0
        for b in lbl_ds.map_batches(part, batch_format="pyarrow",
                                    batch_size=None).iter_batches(
                                        batch_format="pyarrow",
                                        batch_size=None):
            for v in b.column("h").to_pylist():
                acc ^= v
        return acc

    tagged_edges = edges.map_batches(tag_edges, batch_format="pyarrow",
                                     batch_size=None).materialize()

    # hot-key split: exchange keys (= neighbor endpoints) whose degree
    # crosses the threshold leave the exchange for a broadcast push.
    # The degree groupby partial-aggregates map-side, so the hot node's
    # own count rows are one-per-block, never one-per-edge.
    from ray.data.aggregate import Count as _Count
    # a graph with fewer exploded edge rows than the threshold cannot
    # contain a hot key — skip the degree exchange entirely (edges is
    # materialized, so count() is block metadata, not a scan)
    if edges.count() >= hot_degree_threshold:
        deg = edges.groupby("nbr").aggregate(
            _Count(alias_name="deg")).map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("deg"),
                                                hot_degree_threshold)),
            batch_format="pyarrow", batch_size=None)
        hot_rows = deg.sort("deg", descending=True).limit(max_hot_keys) \
            .select_columns(["nbr"]).take_all()
        hot_keys = pa.array([r["nbr"] for r in hot_rows], type=id_type)
    else:
        hot_keys = pa.array([], type=id_type)
    n_hot = len(hot_keys)

    hot_edges = None
    cold_edges = tagged_edges
    hot_edge_rows = 0
    if n_hot:
        hot_ref = ray.put(hot_keys)

        def _split(want_hot: bool):
            def f(t: pa.Table) -> pa.Table:
                m = pc.is_in(t.column("key"), value_set=ray.get(hot_ref))
                return t.filter(m if want_hot else pc.invert(m))
            return f

        hot_edges = tagged_edges.map_batches(
            _split(True), batch_format="pyarrow",
            batch_size=None).materialize()
        cold_edges = tagged_edges.map_batches(
            _split(False), batch_format="pyarrow",
            batch_size=None).materialize()
        hot_edge_rows = hot_edges.count()

    prev_sum = _checksum(labels)
    rounds = 0
    spill_rows_total = 0
    for _ in range(max_rounds):
        rounds += 1
        cand_parts = []
        if n_hot:
            # pull the <=max_hot_keys hot labels to the driver (one
            # bounded filter scan over the label table) and push them
            # to the statically-split hot edge partition block-locally
            # — the celebrity key never enters the sort exchange.
            hot_lbl = labels.map_batches(
                lambda t: t.filter(pc.is_in(t.column("node"),
                                            value_set=ray.get(hot_ref))),
                batch_format="pyarrow", batch_size=None).to_pandas()
            hot_lbl_ref = ray.put(
                (pa.array(hot_lbl["node"], type=id_type),
                 pa.array(hot_lbl["label"], type=id_type)))

            def hot_push(t: pa.Table) -> pa.Table:
                hk, hl = ray.get(hot_lbl_ref)
                idx = pc.index_in(t.column("key"), value_set=hk)
                return pa.table({"node": t.column("node"),
                                 "label": pc.take(hl, idx)})

            cand_parts.append(hot_edges.map_batches(
                hot_push, batch_format="pyarrow", batch_size=None))

        tagged = cold_edges.union(labels.map_batches(
            tag_labels, batch_format="pyarrow", batch_size=None))
        joined = tagged.sort("key").map_batches(
            block_join, batch_format="pyarrow",
            batch_size=None).materialize()
        done = joined.map_batches(
            lambda t: t.filter(pc.equal(t.column("flag"), "d"))
                       .select(["node", "label"]),
            batch_format="pyarrow", batch_size=None)
        spill = joined.map_batches(
            lambda t: t.filter(pc.equal(t.column("flag"), "s"))
                       .select(["key", "node", "label"]),
            batch_format="pyarrow", batch_size=None)
        # every non-empty sorted block spills its min/max keys, so the
        # spill pass effectively always runs — union it unconditionally
        # (an empty spill arm costs nothing) instead of paying a
        # driver-blocking count() per round just to skip it; the Arrow
        # `prop` keeps int64 ids exact through the null-tagged columns
        cand = done.union(
            spill.groupby("key").map_groups(prop, batch_format="pyarrow"))
        if _stats is not None:
            spill_rows_total += spill.count()
        for p in cand_parts:
            cand = cand.union(p)
        new_labels = cand.groupby("node").aggregate(
            _Min("label", alias_name="label")).map_batches(
            lambda t: pa.table({"node": t.column("node").cast(id_type),
                                "label": t.column("label").cast(id_type)}),
            batch_format="pyarrow", batch_size=None) \
            .repartition(n_lbl_blocks).materialize()
        # HARD lineage cut: a MaterializedDataset still carries its
        # logical plan, so each round's plan tree embedded the previous
        # rounds' plans and driver-side planning grew ~1.6x PER ROUND
        # (a 15-round chain graph went from seconds of execution to
        # minutes of planning).  Rebuilding from the materialized block
        # refs makes every round's plan depth constant.
        labels = ray.data.from_arrow_refs(new_labels.to_arrow_refs())
        new_sum = _checksum(labels)
        if new_sum == prev_sum:
            break
        prev_sum = new_sum
    if _stats is not None:
        _stats.update({"n_hot": n_hot, "hot_edge_rows": hot_edge_rows,
                       "spill_rows": spill_rows_total, "rounds": rounds})
    return labels.map_batches(
        lambda t: t.rename_columns(["doc_id", "cluster_id"]), batch_format="pyarrow")


def exact_jaccard_for_pairs(
    ds: "ray.data.Dataset",
    pairs: "pd.DataFrame",
    text_col: str,
    id_col: str,
    shingle_k: int = 5,
) -> "pd.DataFrame":
    """Exact character-k-gram Jaccard for candidate pairs, computed
    DISTRIBUTED (the MAX-102-style "verify what the candidate generator
    matched" step for near-dup dedup):

      1. broadcast the candidate-id set once via ray.put (read per
         worker process from the object store, not re-shipped per batch)
      2. semi-join filter the corpus inside map_batches; shingle only
         surviving docs (the full text column never reaches the driver)
      3. route each doc's shingle set to its pairs with a tagged-union
         groupby on doc id, then compute Jaccard per pair with a second
         small groupby on pair id

    ``pairs`` (id_a, id_b, ...) is the candidate list — tiny relative to
    the corpus (near-dup rate bounds it), so it lives on the driver.
    Returns pairs + an exact ``jaccard`` column.
    """
    import ray as _ray

    if len(pairs) == 0:
        out = pairs.copy()
        out["jaccard"] = pd.Series(dtype="float64")
        return out
    ids = set(pairs["id_a"]) | set(pairs["id_b"])
    ids_ref = _ray.put(ids)

    sh_type = pa.list_(pa.uint64())

    def shingle_stage(t: pa.Table) -> pa.Table:
        wanted = _ray.get(ids_ref)          # plasma-cached per worker
        idvals = t.column(id_col).to_pandas()
        m = idvals.isin(wanted).to_numpy(dtype=bool)
        if not m.any():
            return pa.table({"key": pa.array([], type=t.schema.field(id_col).type),
                             "pair_id": pa.array([], type=pa.int64()),
                             "role": pa.array([], type=pa.int8()),
                             "sh": pa.array([], type=sh_type)})
        sub = t.filter(pa.array(m))
        sh = [T.char_shingle_hashes(x, shingle_k).tolist()
              for x in sub.column(text_col).to_pylist()]
        n = sub.num_rows
        return pa.table({"key": sub.column(id_col),
                         "pair_id": pa.nulls(n, type=pa.int64()),
                         "role": pa.nulls(n, type=pa.int8()),
                         "sh": pa.array(sh, type=sh_type)})

    shingles = ds.select_columns([id_col, text_col]).map_batches(
        shingle_stage, batch_format="pyarrow", batch_size=None)

    key_type = None
    for name, typ in zip(ds.schema().names, ds.schema().types):
        if name == id_col:
            key_type = typ if isinstance(typ, pa.DataType) else None
    pair_rows = pd.DataFrame({
        "key": pd.concat([pairs["id_a"], pairs["id_b"]], ignore_index=True),
        "pair_id": np.concatenate([np.arange(len(pairs), dtype=np.int64)] * 2),
        "role": np.concatenate([np.zeros(len(pairs), dtype=np.int8),
                                np.ones(len(pairs), dtype=np.int8)]),
    })
    pr = pa.Table.from_pandas(pair_rows, preserve_index=False)
    if key_type is not None:
        pr = pr.set_column(0, "key", pr.column("key").cast(key_type))
    pr = pr.append_column("sh", pa.nulls(pr.num_rows, type=sh_type))
    pair_ds = ray.data.from_arrow(pr.replace_schema_metadata(None))

    def route(g: pd.DataFrame) -> pd.DataFrame:
        # one shingle row per key + its pair slots
        sh_rows = g[g["sh"].notna()]
        slots = g[g["pair_id"].notna()]
        if sh_rows.empty or slots.empty:
            return pd.DataFrame({"pair_id": pd.Series(dtype="int64"),
                                 "role": pd.Series(dtype="int8"),
                                 "sh": pd.Series(dtype="object")})
        sh = sh_rows["sh"].iloc[0]
        return pd.DataFrame({"pair_id": slots["pair_id"].astype("int64"),
                             "role": slots["role"].astype("int8"),
                             "sh": [sh] * len(slots)})

    def score(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) != 2:
            return pd.DataFrame({"pair_id": pd.Series(dtype="int64"),
                                 "jaccard": pd.Series(dtype="float64")})
        a, b = g["sh"].iloc[0], g["sh"].iloc[1]
        j = T.exact_jaccard(np.asarray(a, dtype=np.uint64),
                            np.asarray(b, dtype=np.uint64))
        return pd.DataFrame({"pair_id": [int(g["pair_id"].iloc[0])],
                             "jaccard": [j]})

    routed = shingles.union(pair_ds).groupby("key").map_groups(
        route, batch_format="pandas")
    scored = routed.groupby("pair_id").map_groups(
        score, batch_format="pandas").to_pandas()

    out = pairs.reset_index(drop=True).copy()
    out["pair_id"] = np.arange(len(out), dtype=np.int64)
    out = out.merge(scored, on="pair_id", how="left").drop(columns=["pair_id"])
    return out


class _SimHashStage:
    def __init__(self, text_col: str, id_col: str):
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        sims = np.array([T.simhash64(t) for t in texts], dtype=np.uint64)
        return pa.table({
            self.id_col: batch.column(self.id_col),
            "simhash": pa.array(sims, type=pa.uint64()),
        })


def simhash_signatures(ds: "ray.data.Dataset", text_col: str, id_col: str) -> "ray.data.Dataset":
    return ds.select_columns([text_col, id_col]).map_batches(
        _SimHashStage(text_col, id_col), batch_format="pyarrow")


def simhash_near_dup_pairs(
    ds: "ray.data.Dataset", text_col: str, id_col: str, max_hamming: int = 3
) -> "ray.data.Dataset":
    """Near-dup pairs with SimHash hamming distance <= max_hamming.
    4x16-bit band tables: any pair with hamming<=3 collides in >=1 band
    (pigeonhole), so one groupby per... all four bands in ONE exchange by
    exploding each doc to 4 (band_id, band_val) rows."""
    sigs = simhash_signatures(ds, text_col, id_col)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        s = batch.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        bands_ids, band_vals, out_ids, out_sigs = [], [], [], []
        for b in range(4):
            band = ((s >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.uint32)
            bands_ids.append(np.full(len(s), b, dtype=np.int32))
            band_vals.append(band)
            out_ids.append(ids)
            out_sigs.append(s)
        return pa.table({
            "band_id": pa.array(np.concatenate(bands_ids)),
            "band_val": pa.array(np.concatenate(band_vals)),
            "doc_id": pa.array(np.concatenate(out_ids)),
            "simhash": pa.array(np.concatenate(out_sigs), type=pa.uint64()),
        })

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        n = len(group)
        if n < 2:
            idt = group["doc_id"].dtype
            return pd.DataFrame({"id_a": pd.Series(dtype=idt),
                                 "id_b": pd.Series(dtype=idt),
                                 "hamming": pd.Series(dtype="int64")})
        ids = group["doc_id"].to_numpy()
        s = group["simhash"].to_numpy().astype(np.uint64)
        ia, ib, hs = [], [], []
        for i in range(n):
            ham = T.hamming64(s[i], s[i + 1:])
            hit = np.flatnonzero(np.asarray(ham) <= max_hamming)
            for j in np.atleast_1d(hit):
                a, b = ids[i], ids[i + 1 + j]
                if b < a:
                    a, b = b, a
                ia.append(a); ib.append(b); hs.append(int(np.atleast_1d(ham)[j]))
        return pd.DataFrame({"id_a": ia, "id_b": ib, "hamming": hs})

    from ..pipelines.relational import fits_driver_merge
    mat = sigs.map_batches(explode, batch_format="pyarrow").materialize()
    if fits_driver_merge(mat):
        df = mat.to_pandas()
        # zero-block band tables come back column-less (same wart as
        # _vector_bucket_pairs' guard) — feed it an empty sig matrix
        sig_mat = (df["simhash"].to_numpy().astype(np.uint64)
                   .reshape(-1, 1) if "simhash" in df.columns else
                   np.empty((0, 1), dtype=np.uint64))
        ia, ib, sc = _vector_bucket_pairs(
            df, ["band_id", "band_val"], "doc_id", sig_mat,
            lambda sa, sb: T.hamming64(sa.ravel(), sb.ravel())
            .astype(np.float64).reshape(sa.shape[:-1]),
            lambda s: s <= max_hamming, 10_000, "simhash_near_dup_pairs")
        pairs = pd.DataFrame({"id_a": ia, "id_b": ib,
                              "hamming": sc.astype(np.int64)})
        if len(pairs):
            pairs = pairs.groupby(["id_a", "id_b"], sort=False)["hamming"] \
                .min().reset_index()
        return ray.data.from_pandas(pairs)
    return _bucket_pairs_adaptive(
        mat, ["band_id", "band_val"], bucket_pairs, "hamming", "min")


def _md5_8(b: bytes) -> bytes:
    import hashlib
    return hashlib.md5(b).digest()[:8]


def audio_near_dup_pairs(
    ds: "ray.data.Dataset",
    bytes_col: str,
    id_col: str,
    max_hamming: int = 16,
    n_bands_fp: int = 16,
    lsh_bands: int = 8,
    frames_per_band: int = 2,
    min_overlap: float = 0.5,
) -> "ray.data.Dataset":
    """Acoustic near-duplicate pairs over an encoded-audio payload
    column: decode -> spectral fingerprint (audio.spectral_fingerprint,
    amplitude/transcode/LENGTH-invariant: fixed absolute-time frame
    grid at a canonical rate) -> LSH banding over the fingerprint's
    frame codes -> exact common-prefix Hamming verification inside
    buckets.

    Same wall-clock shape as the text dedup family: ONE decode+sign
    map_batches pass (the decode is the work, like the DECODE checks),
    ONE bucket exchange on (band_id, band_key), one pair-dedup agg.
    Band b covers frame codes [b*frames_per_band, (b+1)*frames_per_band)
    and is emitted only by clips long enough to fill it, so short clips
    simply participate in fewer bands (no shared padding buckets).  A
    pair colliding in any band is a candidate; it is emitted as
    (id_a, id_b, hamming) when the Hamming distance over the common
    code prefix is <= ``max_hamming`` AND the common prefix covers at
    least ``min_overlap`` of the LONGER clip's codes (a 1-second
    snippet does not near-dup a 10-minute clip, but a trailing
    25%-trimmed or transcoded re-encode does)."""
    from .. import audio as A

    def sign_stage(batch: pa.Table) -> pa.Table:
        all_ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        ids, fps = [], []
        for rid, buf in zip(all_ids, batch.column(bytes_col).to_pylist()):
            # undecodable or too-short payloads are EXCLUDED, not
            # fingerprinted: every failure would otherwise share the
            # all-zeros fingerprint and pairwise "match" at Hamming 0
            # (decode failures are the DECODE checks' finding, not dedup's)
            try:
                pcm, _sr = A.decode(buf)
            except Exception:
                continue
            fp = A.spectral_fingerprint(pcm, sr=_sr, n_bands=n_bands_fp)
            if not fp.any():
                continue
            ids.append(rid)
            fps.append(fp)
        ids = np.asarray(ids, dtype=all_ids.dtype if len(ids) else np.int64)
        bands_ids, band_keys, out_ids, out_fps = [], [], [], []
        if not len(fps):
            return pa.table({
                "band_id": pa.array([], type=pa.int32()),
                "band_key": pa.array([], type=pa.int64()),
                "doc_id": pa.array([], type=pa.from_numpy_dtype(all_ids.dtype)
                                   if all_ids.dtype != object else pa.string()),
                "fp": pa.array([], type=pa.binary()),
            })
        for b in range(lsh_bands):
            lo, hi = b * frames_per_band, (b + 1) * frames_per_band
            # only clips whose fingerprint FILLS this band emit it
            sel = [i for i, fp in enumerate(fps) if len(fp) >= hi]
            if not sel:
                continue
            keys = np.array([int.from_bytes(
                _md5_8(fps[i][lo:hi].tobytes()), "little") & ((1 << 62) - 1)
                for i in sel], dtype=np.int64)
            bands_ids.append(np.full(len(sel), b, dtype=np.int32))
            band_keys.append(keys)
            out_ids.append(ids[sel])
            out_fps.append([fps[i].tobytes() for i in sel])
        if not bands_ids:
            return pa.table({
                "band_id": pa.array([], type=pa.int32()),
                "band_key": pa.array([], type=pa.int64()),
                "doc_id": pa.array([], type=pa.from_numpy_dtype(all_ids.dtype)
                                   if all_ids.dtype != object else pa.string()),
                "fp": pa.array([], type=pa.binary()),
            })
        return pa.table({
            "band_id": pa.array(np.concatenate(bands_ids)),
            "band_key": pa.array(np.concatenate(band_keys)),
            "doc_id": pa.array(np.concatenate(out_ids)),
            "fp": pa.array(sum(out_fps, []), type=pa.binary()),
        })

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        n = len(group)
        if n < 2:
            idt = group["doc_id"].dtype
            return pd.DataFrame({"id_a": pd.Series(dtype=idt),
                                 "id_b": pd.Series(dtype=idt),
                                 "hamming": pd.Series(dtype="int64")})
        ids = group["doc_id"].to_numpy()
        arrs = [np.frombuffer(b, dtype=np.uint32) for b in group["fp"]]
        lens = np.array([len(a) for a in arrs], dtype=np.int64)
        width = int(lens.max())
        mats = np.zeros((n, width), dtype=np.uint32)
        for i, a in enumerate(arrs):
            mats[i, :len(a)] = a
        ia, ib, hs = [], [], []
        for i in range(n - 1):
            rest = slice(i + 1, n)
            common = np.minimum(lens[rest], lens[i])
            overlap_ok = common >= min_overlap * np.maximum(lens[rest], lens[i])
            x = np.bitwise_xor(mats[rest], mats[i])
            # per-code popcounts -> prefix sums -> Hamming over the
            # common prefix (code grids are absolute-time comparable)
            pc_codes = np.unpackbits(
                x.view(np.uint8).reshape(x.shape[0], -1),
                axis=1).reshape(x.shape[0], width, 32).sum(axis=2)
            cum = np.cumsum(pc_codes, axis=1)
            ham = np.where(common > 0,
                           np.take_along_axis(
                               cum, np.maximum(common - 1, 0)[:, None],
                               axis=1)[:, 0],
                           0)
            hit = np.flatnonzero((ham <= max_hamming) & overlap_ok
                                 & (common > 0))
            for j in hit:
                a, b = ids[i], ids[i + 1 + j]
                if b < a:
                    a, b = b, a
                ia.append(a); ib.append(b); hs.append(int(ham[j]))
        return pd.DataFrame({"id_a": ia, "id_b": ib, "hamming": hs})

    mat = ds.select_columns([id_col, bytes_col]).map_batches(
        sign_stage, batch_format="pyarrow", batch_size=256).materialize()
    return _bucket_pairs_adaptive(mat, ["band_id", "band_key"],
                                  bucket_pairs, "hamming", "min")
