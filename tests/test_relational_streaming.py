"""Direct unit coverage for the generic relational + streaming operators
(the DuckDB cross-check harness also exercises them at sf0.01)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from osf_data_validator_tool_ray.checks.referential import anti_join_missing
from osf_data_validator_tool_ray.pipelines.relational import (
    distinct_counts,
    distinct_values,
    existential_missing,
    filter_rows,
    group_count_having,
)
from osf_data_validator_tool_ray.pipelines.streaming import (
    asof_join,
    session_windows,
    topk_per_group,
    tumbling_window,
)


def _tbl():
    return ray.data.from_pandas(pd.DataFrame({
        "k": [1, 1, 1, 2, 2, 3, 4, 4, 4, 4],
        "v": [5, 6, 7, 1, 2, 9, 1, 1, 1, 1],
        "flag": ["a", "b", "a", "a", "a", "b", "b", "b", "b", "b"],
    })).repartition(3)


def test_filter_rows():
    out = filter_rows(_tbl(), lambda t: pc.greater(t["v"], 4)).to_pandas()
    assert sorted(out.v) == [5, 6, 7, 9]


def test_group_count_having_ops():
    got = group_count_having(_tbl(), "k", "gt", 2).to_pandas()
    assert set(got.k) == {1, 4}
    got = group_count_having(_tbl(), "k", "eq", 1).to_pandas()
    assert set(got.k) == {3}
    # qualified: count only flag=='a' rows
    got = group_count_having(
        _tbl(), "k", "ge", 2,
        qualifier=lambda t: pc.equal(t["flag"], "a").to_numpy(zero_copy_only=False),
    ).to_pandas()
    assert set(got.k) == {1, 2}


def test_existential_missing():
    got = existential_missing(
        _tbl(), "k",
        lambda t: pc.equal(t["flag"], "a").to_numpy(zero_copy_only=False),
    ).to_pandas()
    assert set(got.k) == {3, 4}


def test_distinct_ops():
    assert set(distinct_values(_tbl(), "flag").to_pandas()["flag"]) == {"a", "b"}
    t = distinct_counts(_tbl(), ["k", "flag"])
    assert t.column("n_k")[0].as_py() == 4
    assert t.column("n_flag")[0].as_py() == 2


def test_anti_join_and_broadcast_paths_agree():
    refs = ray.data.from_pandas(pd.DataFrame({"r": [1, 2, 3, 99, 100, 100]})).repartition(2)
    keys = _tbl()
    miss = anti_join_missing(refs, "r", keys, "k").to_pandas()
    assert set(miss.key) == {99, 100}


def _events():
    base = pd.Timestamp("2024-01-01")
    rows = []
    for u, offsets in [(1, [0, 10, 20, 4000, 4010]), (2, [0, 7200])]:
        for o in offsets:
            rows.append({"user_id": u, "ts": base + pd.Timedelta(seconds=o),
                         "value": float(o)})
    return ray.data.from_pandas(pd.DataFrame(rows)).repartition(2)


def test_tumbling_window():
    out = tumbling_window(_events(), "user_id", "ts", window_s=3600).to_pandas()
    got = {(r.user_id, r.window_id): r.n for r in out.itertuples()}
    base_win = int(pd.Timestamp("2024-01-01").timestamp() // 3600)
    assert got[(1, base_win)] == 3          # 0,10,20s
    assert got[(1, base_win + 1)] == 2      # 4000,4010s
    assert got[(2, base_win)] == 1 and got[(2, base_win + 2)] == 1


def test_session_windows():
    out = session_windows(_events(), "user_id", "ts", gap_s=1800).to_pandas()
    u1 = out[out.user_id == 1].sort_values("session_id")
    assert list(u1.n) == [3, 2]             # gap of 3980s splits sessions
    u2 = out[out.user_id == 2]
    assert list(sorted(u2.n)) == [1, 1]


def test_asof_join_backward():
    left = ray.data.from_pandas(pd.DataFrame({
        "id": [1, 2, 3], "k": [7, 7, 7],
        "lts": pd.to_datetime(["2024-01-05", "2024-01-10", "2024-01-01"]),
    })).repartition(2)
    right = ray.data.from_pandas(pd.DataFrame({
        "k": [7, 7], "rts": pd.to_datetime(["2024-01-02", "2024-01-08"]),
        "price": [10.0, 20.0],
    })).repartition(2)
    out = asof_join(left, right, key="k", left_ts="lts", right_ts="rts",
                    right_cols=["rts", "price"]).to_pandas().sort_values("id")
    assert out.price.tolist()[:2] == [10.0, 20.0]
    assert np.isnan(out.price.tolist()[2])   # event before any right row


def test_topk_per_group():
    out = topk_per_group(_tbl(), "k", ["v"], k=2, ascending=False).to_pandas()
    top1 = out[(out.k == 1)].sort_values("rank")
    assert top1.v.tolist() == [7, 6]
    assert (out.groupby("k").size() <= 2).all()


def test_hash_join():
    from osf_data_validator_tool_ray.pipelines.relational import hash_join
    left = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 1, 2, 3], "lv": [10, 11, 20, 30]})).repartition(2)
    right = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 2, 4], "rv": ["a", "b", "d"]})).repartition(2)
    out = hash_join(left, right, key="k", how="inner").to_pandas() \
        .sort_values(["k", "lv"]).reset_index(drop=True)
    assert out[["k", "lv", "rv"]].values.tolist() == [
        [1, 10, "a"], [1, 11, "a"], [2, 20, "b"]]


def test_sliding_windows_vs_naive():
    """Hopping windows (w=50s, s=30s — variable events-per-window counts)
    match a naive per-row expansion."""
    from osf_data_validator_tool_ray.pipelines.streaming import sliding_windows

    ts = pd.to_datetime(["2024-01-01 00:00:05", "2024-01-01 00:00:20",
                         "2024-01-01 00:00:35", "2024-01-01 00:01:40"])
    df = pd.DataFrame({"k": ["a", "a", "a", "a"], "ts": ts,
                       "v": [1.0, 2.0, 3.0, 4.0]})
    got = sliding_windows(ray.data.from_pandas(df), "k", "ts", 50, 30,
                          value_col="v").to_pandas()
    # naive: window w covers [w*30, w*30+50)
    rows = []
    for _, r in df.iterrows():
        e = r.ts.value // 1000  # us
        w = -(10**9)
        for w in range(int((e - 50_000_000) // 30_000_000) + 1,
                       int(e // 30_000_000) + 1):
            rows.append((r.k, w, r.v))
    want = pd.DataFrame(rows, columns=["k", "window_id", "v"]) \
        .groupby(["k", "window_id"]).agg(n=("v", "size"), sum_value=("v", "sum")) \
        .reset_index()
    key = lambda d: sorted(map(tuple, d[["k", "window_id", "n", "sum_value"]]
                               .astype(float, errors="ignore").to_numpy().tolist()))
    g = got[["k", "window_id", "n", "sum_value"]]
    assert sorted(map(tuple, g.to_numpy().tolist())) == \
        sorted(map(tuple, want.to_numpy().tolist()))


def test_deterministic_sample_stable_across_partitionings():
    from osf_data_validator_tool_ray.pipelines.relational import (
        deterministic_sample)

    df = pd.DataFrame({"id": np.arange(1000), "v": np.arange(1000) * 2})
    a = deterministic_sample(ray.data.from_pandas(df).repartition(2),
                             "id", 100).to_pandas()
    b = deterministic_sample(ray.data.from_pandas(df).repartition(7),
                             "id", 100).to_pandas()
    assert sorted(a["id"]) == sorted(b["id"])
    assert 50 <= len(a) <= 150   # ~10%
    want = {i for i in range(1000) if ((i * 2654435761) % (1 << 32)) % 1000 < 100}
    assert set(a["id"]) == want


def test_normalize_and_pattern_counts():
    from osf_data_validator_tool_ray.functions.text import (
        normalize_text, pattern_counts)

    s = pd.Series(["  Hello\t WORLD \n x ", "data table  DATA", None])
    n = normalize_text(s)
    assert n[0] == "hello world x"
    assert n[1] == "data table data"
    c = pattern_counts(s, r"\b(?:data|table)\b")
    assert list(c) == [0, 2, 0]


def test_broadcast_join_matches_pandas():
    from osf_data_validator_tool_ray.pipelines.relational import broadcast_join

    left = pd.DataFrame({"k": [1, 2, 2, 3, 9], "lv": list("abcde")})
    right = pd.DataFrame({"k": [1, 2, 3, 4], "rv": [10, 20, 30, 40]})
    got = broadcast_join(ray.data.from_pandas(left).repartition(3),
                         ray.data.from_pandas(right), "k").to_pandas()
    want = left.merge(right, on="k")
    key = lambda d: sorted(map(tuple, d[["k", "lv", "rv"]].to_numpy()))
    assert key(got) == key(want)
    # left join keeps unmatched left rows
    got_l = broadcast_join(ray.data.from_pandas(left),
                           ray.data.from_pandas(right), "k",
                           how="left").to_pandas()
    assert len(got_l) == len(left)


def test_interval_join_containment():
    from osf_data_validator_tool_ray.pipelines.relational import interval_join

    left = pd.DataFrame({"k": ["a", "a", "a", "b", "b"],
                         "ts": [5, 15, 40, 7, 100],
                         "eid": [0, 1, 2, 3, 4]})
    right = pd.DataFrame({"k": ["a", "a", "b"],
                          "start": [0, 30, 0],
                          "end": [20, 50, 10],
                          "iv": ["a1", "a2", "b1"]})
    got = interval_join(ray.data.from_pandas(left).repartition(2),
                        ray.data.from_pandas(right), "k", "ts",
                        "start", "end", ["iv"]).to_pandas()
    want = {0: "a1", 1: "a1", 2: "a2", 3: "b1"}   # eid 4 (ts=100) no match
    assert dict(zip(got["eid"].astype(int), got["iv"])) == want
    # left join: unmatched row kept with null interval
    got_l = interval_join(ray.data.from_pandas(left),
                          ray.data.from_pandas(right), "k", "ts",
                          "start", "end", ["iv"], how="left").to_pandas()
    assert len(got_l) == 5
    assert got_l[got_l["eid"] == 4]["iv"].isna().all()


def test_group_quantiles_vs_numpy():
    from osf_data_validator_tool_ray.pipelines.relational import group_quantiles

    rng = np.random.default_rng(4)
    df = pd.DataFrame({"k": rng.choice(["x", "y"], 200),
                       "v": rng.uniform(0, 100, 200)})
    got = group_quantiles(ray.data.from_pandas(df).repartition(3), "k", "v",
                          [0.25, 0.5], aliases=["q25", "q50"]).to_pandas() \
        .set_index("k")
    for k in ("x", "y"):
        vals = df[df.k == k]["v"].to_numpy()
        assert abs(got.loc[k, "q25"] - np.quantile(vals, 0.25)) < 1e-12
        assert abs(got.loc[k, "q50"] - np.quantile(vals, 0.5)) < 1e-12


def test_lag_deltas():
    from osf_data_validator_tool_ray.pipelines.streaming import lag_deltas

    ts = pd.to_datetime(["2024-01-01 00:00:00", "2024-01-01 00:00:10",
                         "2024-01-01 00:01:00", "2024-01-01 00:00:05"])
    df = pd.DataFrame({"k": [1, 1, 1, 2], "ts": ts,
                       "id": [10, 11, 12, 13],
                       "v": [1.0, 3.0, 2.0, 9.0]})
    got = lag_deltas(ray.data.from_pandas(df), "k", "ts", "id",
                     value_col="v").to_pandas().set_index("id")
    assert np.isnan(got.loc[10, "delta_us"])
    assert got.loc[11, "delta_us"] == 10_000_000
    assert got.loc[12, "delta_us"] == 50_000_000
    assert got.loc[11, "delta_value"] == 2.0
    assert got.loc[12, "delta_value"] == -1.0
    assert np.isnan(got.loc[13, "delta_us"])   # first of its key


def test_session_presplit_parity_with_plain_path():
    """Two-level sessionization (hot-key time-chunk pre-split) ==
    the plain per-key path, including sessions crossing chunk
    boundaries."""
    from osf_data_validator_tool_ray.pipelines.streaming import session_windows

    rng = np.random.default_rng(33)
    base = pd.Timestamp("2024-01-01").value // 1000
    rows = []
    for k in (1, 2, 3):
        t = base
        for _ in range(200):
            # mixture of small gaps (same session) and large (new session),
            # with some gaps straddling chunk boundaries
            t += int(rng.choice([5, 30, 90, 400]) * 1_000_000)
            rows.append((k, t))
    df = pd.DataFrame(rows, columns=["k", "ts_us"])
    df["ts"] = pd.to_datetime(df["ts_us"], unit="us")
    ds = ray.data.from_pandas(df[["k", "ts"]]).repartition(4)

    plain = session_windows(ds, "k", "ts", gap_s=60).to_pandas()
    split = session_windows(ds, "k", "ts", gap_s=60,
                            presplit_chunk_s=120).to_pandas()
    cols = ["k", "session_id", "session_start", "session_end", "n"]
    a = plain[cols].sort_values(cols).reset_index(drop=True).astype("int64")
    b = split[cols].sort_values(cols).reset_index(drop=True).astype("int64")
    assert a.equals(b)


def test_topk_presplit_parity():
    """Salted two-phase top-k == plain per-group top-k (hot-key path)."""
    from osf_data_validator_tool_ray.pipelines.streaming import topk_per_group

    rng = np.random.default_rng(12)
    df = pd.DataFrame({
        "k": np.concatenate([np.zeros(500, dtype=int),       # hot key
                             rng.integers(1, 6, 100)]),
        "v": rng.permutation(600),                           # unique order col
    })
    ds = ray.data.from_pandas(df).repartition(4)
    plain = topk_per_group(ds, "k", "v", 5).to_pandas()
    split = topk_per_group(ds, "k", "v", 5, presplit_salts=8).to_pandas()
    cols = ["k", "v", "rank"]
    a = plain[cols].sort_values(cols).reset_index(drop=True)
    b = split[cols].sort_values(cols).reset_index(drop=True)
    assert a.astype("int64").equals(b.astype("int64"))


def test_group_quantiles_approx_close_to_exact():
    """Sketch-tier grouped quantiles (hot-key safe: the exchange moves
    per-block sketches, not rows) track the exact values."""
    from osf_data_validator_tool_ray.pipelines.relational import group_quantiles

    rng = np.random.default_rng(6)
    df = pd.DataFrame({"k": np.concatenate([np.zeros(5000, dtype=int),  # hot
                                            rng.integers(1, 4, 500)]),
                       "v": rng.normal(100, 25, 5500)})
    ds = ray.data.from_pandas(df).repartition(6)
    exact = group_quantiles(ds, "k", "v", [0.5, 0.9]).to_pandas() \
        .set_index("k").sort_index()
    approx = group_quantiles(ds, "k", "v", [0.5, 0.9], approx=True) \
        .to_pandas().set_index("k").sort_index()
    assert list(exact.index) == list(approx.index)
    for kk in exact.index:
        spread = df[df.k == kk]["v"].std() + 1e-9
        assert abs(exact.loc[kk, "q50"] - approx.loc[kk, "q50"]) < 0.25 * spread
        assert abs(exact.loc[kk, "q90"] - approx.loc[kk, "q90"]) < 0.25 * spread
    # the KLL tier tracks exact too (provable rank error)
    kll = group_quantiles(ds, "k", "v", [0.5, 0.9], approx=True,
                          sketch="kll", max_bins=200) \
        .to_pandas().set_index("k").sort_index()
    for kk in exact.index:
        spread = df[df.k == kk]["v"].std() + 1e-9
        assert abs(exact.loc[kk, "q50"] - kll.loc[kk, "q50"]) < 0.25 * spread
        assert abs(exact.loc[kk, "q90"] - kll.loc[kk, "q90"]) < 0.25 * spread


def test_asof_presplit_parity():
    """Time-chunked as-of join (hot-key path) == plain as-of join,
    including carry-ins across empty chunks."""
    from osf_data_validator_tool_ray.pipelines.streaming import asof_join

    rng = np.random.default_rng(8)
    base = pd.Timestamp("2024-01-01").value // 1000
    lrows, rrows = [], []
    for k in (1, 2):
        for i in range(120):
            lrows.append((k, base + int(rng.integers(0, 3600)) * 1_000_000, i))
        for j in range(20):
            rrows.append((k, base + int(rng.integers(0, 3600)) * 1_000_000,
                          float(j)))
    # key 3: left events long after the only right row (carry across many
    # empty chunks)
    lrows.append((3, base + 3500 * 1_000_000, 999))
    rrows.append((3, base + 10 * 1_000_000, 77.0))
    ldf = pd.DataFrame(lrows, columns=["k", "ts_us", "eid"])
    rdf = pd.DataFrame(rrows, columns=["k", "rts_us", "val"])
    ldf["lts"] = pd.to_datetime(ldf.pop("ts_us"), unit="us")
    rdf["rts"] = pd.to_datetime(rdf.pop("rts_us"), unit="us")
    lds = ray.data.from_pandas(ldf).repartition(3)
    rds = ray.data.from_pandas(rdf).repartition(2)

    plain = asof_join(lds, rds, "k", "lts", "rts", ["val"]).to_pandas()
    split = asof_join(lds, rds, "k", "lts", "rts", ["val"],
                      presplit_chunk_s=300).to_pandas()
    cols = ["k", "eid", "val"]
    a = plain[cols].fillna(-1).sort_values(["k", "eid"]).reset_index(drop=True)
    b = split[cols].fillna(-1).sort_values(["k", "eid"]).reset_index(drop=True)
    assert a.astype(float).round(6).equals(b.astype(float).round(6))
    # the long-gap carry-in resolved
    assert split[split.eid == 999]["val"].iloc[0] == 77.0


def test_interval_presplit_parity():
    """Time-chunked interval join (hot-key path) == plain path,
    including carry-ins for intervals spanning many empty chunks."""
    from osf_data_validator_tool_ray.pipelines.relational import interval_join

    rng = np.random.default_rng(11)
    base = pd.Timestamp("2024-01-01").value // 1000
    lrows, rrows = [], []
    for k in (1, 2):
        # disjoint intervals [i*600, i*600+550]s, each spanning several
        # 120 s chunks
        for i in range(6):
            s = base + i * 600 * 1_000_000
            rrows.append((k, s, s + 550 * 1_000_000, f"iv{k}_{i}"))
        for _ in range(150):
            lrows.append((k, base + int(rng.integers(0, 3600)) * 1_000_000,
                          len(lrows)))
    # key 3: event deep inside an interval that started many empty
    # chunks earlier (pure carry-in match)
    rrows.append((3, base, base + 3_000 * 1_000_000, "long"))
    lrows.append((3, base + 2_900 * 1_000_000, 999))
    ldf = pd.DataFrame(lrows, columns=["k", "ts", "eid"])
    rdf = pd.DataFrame(rrows, columns=["k", "start", "end", "iv"])
    ldf["ts"] = pd.to_datetime(ldf["ts"], unit="us")
    rdf["start"] = pd.to_datetime(rdf["start"], unit="us")
    rdf["end"] = pd.to_datetime(rdf["end"], unit="us")
    lds = ray.data.from_pandas(ldf).repartition(3)
    rds = ray.data.from_pandas(rdf).repartition(2)

    plain = interval_join(lds, rds, "k", "ts", "start", "end",
                          ["iv"]).to_pandas()
    split = interval_join(lds, rds, "k", "ts", "start", "end", ["iv"],
                          presplit_chunk_s=120).to_pandas()
    cols = ["k", "eid", "iv"]
    a = plain[cols].sort_values(["k", "eid"]).reset_index(drop=True)
    b = split[cols].sort_values(["k", "eid"]).reset_index(drop=True)
    assert a.equals(b)
    assert split[split.eid == 999]["iv"].iloc[0] == "long"
    # left-join parity: every event kept exactly once
    split_l = interval_join(lds, rds, "k", "ts", "start", "end", ["iv"],
                            how="left", presplit_chunk_s=120).to_pandas()
    assert len(split_l) == len(ldf)
    assert split_l[split_l.eid == 999]["iv"].iloc[0] == "long"
