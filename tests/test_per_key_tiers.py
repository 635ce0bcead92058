"""Every per-key operator runs one frame-wide kernel through
``relational.by_partition``: on the driver tier (one call over the whole
input) and on the forced exchange tier (one call per hash partition) it
returns the rows of a plain pandas reference, and neither tier logs Ray
Data's "different schema" warning.  A guard keeps ``map_groups`` out of
the package and Dataset sorts and Ray aggregates to the kept sites."""

import ast
import collections
import pathlib
from unittest import mock

import numpy as np
import pandas as pd
import pytest
import ray.data

from osf_data_validator_tool_ray.checks.dedup import exact_jaccard_for_pairs
from osf_data_validator_tool_ray.functions import text as T
from osf_data_validator_tool_ray.pipelines import relational as rel
from osf_data_validator_tool_ray.pipelines.streaming import (
    asof_join, lag_deltas, session_windows, topk_per_group)
from osf_data_validator_tool_ray.pipelines.training import pack_sequences
from tests.test_keyed_tiers import _blocks, _schema_warnings, _tier

TIERS = ["driver", "exchange"]
BASE_US = pd.Timestamp("2024-01-01").value // 1000


def _run(tier, op):
    """``op()``'s rows as a pandas frame, run on ``tier`` with Ray's
    schema warnings collected; asserts there were none."""
    with _tier(tier), _schema_warnings() as warned:
        out = op()
        df = out.to_pandas() if hasattr(out, "to_pandas") else out
    assert not warned, warned
    return df


def _same(got: pd.DataFrame, want: pd.DataFrame, cols, float_cols=()):
    def canon(df):
        df = df[list(cols)].copy()
        for c in cols:
            if c in float_cols:
                df[c] = df[c].astype("float64")
            elif pd.api.types.is_datetime64_any_dtype(df[c]):
                df[c] = df[c].astype("datetime64[us]")
        return df.sort_values(list(cols)).reset_index(drop=True)
    pd.testing.assert_frame_equal(canon(got), canon(want), check_dtype=False,
                                  check_exact=True)


def _events(n=3000, keys=50, seed=3):
    """``n`` events over ``keys`` users across three days."""
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "k": rng.integers(0, keys, n),
        "ts": pd.to_datetime(BASE_US + rng.integers(0, 3 * 86400, n) * 1_000_000,
                             unit="us"),
        "id": np.arange(n),
        "v": rng.normal(size=n).round(3),
    })


def _hot_topk():
    """One hot key of 500 rows plus 100 rows over five cold keys."""
    rng = np.random.default_rng(12)
    return pd.DataFrame({
        "k": np.concatenate([np.zeros(500, dtype=int), rng.integers(1, 6, 100)]),
        "v": rng.permutation(600),
    })


def _topk_reference(df, key, order, k, ascending):
    out = df.sort_values(order, ascending=ascending, kind="stable")
    out = out[out.groupby(key).cumcount() < k].copy()
    out["rank"] = out.groupby(key).cumcount() + 1
    return out


@pytest.mark.parametrize("tier", TIERS)
def test_topk_per_group(tier):
    ev = _events()
    got = _run(tier, lambda: topk_per_group(
        ray.data.from_pandas(ev).repartition(4), "k", ["v", "id"], 3,
        ascending=[True, False]))
    _same(got, _topk_reference(ev, "k", ["v", "id"], 3, [True, False]),
          ["k", "id", "v", "rank"])


def test_topk_hot_key_sends_at_most_k_rows_per_block():
    """The combiner bounds the exchange: ``by_partition``'s input holds
    at most k rows of any key in any block, however hot the key."""
    seen = []
    real = rel.by_partition

    def spy(ds, keys, fn):
        mat = ds.materialize()
        seen.extend(max(collections.Counter(b.column("k").to_pylist()).values(), default=0)
                    for b in _blocks(mat))
        return real(mat, keys, fn)

    ds = ray.data.from_pandas(_hot_topk()).repartition(4)
    with _tier("exchange"), mock.patch.object(rel, "by_partition", spy):
        assert len(topk_per_group(ds, "k", "v", 5).to_pandas()) == 30
    assert seen and max(seen) <= 5


def _sessions_reference(df, key, ts, gap_s):
    df = df.sort_values([key, ts], kind="stable").copy()
    us = df[ts].astype("datetime64[us]").astype("int64")
    new = (us.groupby(df[key]).diff().fillna(gap_s * 1_000_000 + 1)
           > gap_s * 1_000_000)
    df["session_id"] = new.astype("int64").groupby(df[key]).cumsum()
    df["_us"] = us
    return df.groupby([key, "session_id"]).agg(
        session_start=("_us", "min"), session_end=("_us", "max"),
        n=("_us", "size")).reset_index()


@pytest.mark.parametrize("tier", TIERS)
def test_session_windows(tier):
    df = _events()
    got = _run(tier, lambda: session_windows(
        ray.data.from_pandas(df).repartition(4), "k", "ts", gap_s=1800))
    _same(got, _sessions_reference(df, "k", "ts", 1800),
          ["k", "session_id", "session_start", "session_end", "n"])


@pytest.mark.parametrize("tier", TIERS)
def test_lag_deltas(tier):
    df = _events()
    got = _run(tier, lambda: lag_deltas(ray.data.from_pandas(df).repartition(4),
                                        "k", "ts", "id", value_col="v"))
    want = df.sort_values(["k", "ts", "id"], kind="stable").copy()
    g = want.groupby("k")
    want["delta_us"] = g["ts"].diff().dt.total_seconds() * 1e6
    want["delta_value"] = g["v"].diff()
    _same(got, want, ["id", "k", "delta_us", "delta_value"],
          float_cols={"delta_us", "delta_value"})


def _asof_sides():
    ev = _events()
    rng = np.random.default_rng(8)
    right = pd.DataFrame({
        "k": rng.integers(0, 60, 400),
        "rts": pd.to_datetime(BASE_US + rng.permutation(3 * 86400)[:400] * 1_000_000,
                              unit="us"),
        "val": rng.normal(size=400).round(3),
    })
    return ev, right


@pytest.mark.parametrize("tier", TIERS)
def test_asof_join(tier):
    left, right = _asof_sides()
    got = _run(tier, lambda: asof_join(
        ray.data.from_pandas(left).repartition(3), ray.data.from_pandas(right).repartition(2),
        "k", "ts", "rts", ["val"]))
    want = pd.merge_asof(left.sort_values("ts"), right.sort_values("rts"),
                         left_on="ts", right_on="rts", by="k", direction="backward")
    assert got["val"].notna().sum() > 1000
    _same(got.fillna({"val": -99.0}), want.fillna({"val": -99.0}),
          ["k", "id", "ts", "val"], float_cols={"val"})


def _interval_sides():
    """Two keys of six disjoint 550 s intervals and events over the hour;
    a third key's event lies deep inside one long interval."""
    rng = np.random.default_rng(11)
    lrows, rrows = [], []
    for k in (1, 2):
        for i in range(6):
            s = BASE_US + i * 600 * 1_000_000
            rrows.append((k, s, s + 550 * 1_000_000, f"iv{k}_{i}"))
        for _ in range(150):
            lrows.append((k, BASE_US + int(rng.integers(0, 3600)) * 1_000_000, len(lrows)))
    rrows.append((3, BASE_US, BASE_US + 3_000 * 1_000_000, "long"))
    lrows.append((3, BASE_US + 2_900 * 1_000_000, 999))
    lrows.append((4, BASE_US, 1000))                     # a key with no intervals
    left = pd.DataFrame(lrows, columns=["k", "ts", "eid"])
    right = pd.DataFrame(rrows, columns=["k", "start", "end", "iv"])
    for df, c in ((left, "ts"), (right, "start"), (right, "end")):
        df[c] = pd.to_datetime(df[c], unit="us")
    return left, right


@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("tier", TIERS)
def test_interval_join(tier, how):
    left, right = _interval_sides()
    got = _run(tier, lambda: rel.interval_join(
        ray.data.from_pandas(left).repartition(3), ray.data.from_pandas(right).repartition(2),
        "k", "ts", "start", "end", ["iv"], how=how))
    m = left.merge(right, on="k", how="left")
    m = m[(m["start"] <= m["ts"]) & (m["ts"] <= m["end"])]
    want = left.merge(m[["eid", "iv"]], on="eid", how=how)
    assert len(got) == (len(left) if how == "left" else len(m))
    _same(got.fillna({"iv": ""}), want.fillna({"iv": ""}), ["k", "eid", "ts", "iv"])


@pytest.mark.parametrize("how", ["inner", "outer"])
@pytest.mark.parametrize("tier", TIERS)
def test_hash_join_fallback(tier, how):
    """A right side over ``broadcast_threshold``: the tagged-union
    ``by_partition`` join on both tiers."""
    rng = np.random.default_rng(2)
    left = pd.DataFrame({"k": rng.integers(0, 40, 300), "lv": np.arange(300)})
    right = pd.DataFrame({"k": rng.integers(20, 60, 200), "rv": np.arange(200) * 10})
    got = _run(tier, lambda: rel.hash_join(
        ray.data.from_pandas(left).repartition(3), ray.data.from_pandas(right).repartition(2),
        "k", how=how, broadcast_threshold=50))
    want = left.merge(right, on="k", how=how)
    _same(got.fillna(-1), want.fillna(-1), ["k", "lv", "rv"], float_cols={"lv", "rv"})


def _quantile_input():
    rng = np.random.default_rng(6)
    df = pd.DataFrame({"k": np.concatenate([np.zeros(3000, dtype=int),   # hot
                                            rng.integers(1, 40, 1000)]),
                       "v": rng.normal(100, 25, 4000)})
    df.loc[::97, "v"] = np.nan
    return df


@pytest.mark.parametrize("tier", TIERS)
def test_group_quantiles_exact(tier):
    df = _quantile_input()
    got = _run(tier, lambda: rel.group_quantiles(
        ray.data.from_pandas(df).repartition(4), "k", "v", [0.0, 0.25, 0.5, 0.9, 1.0]))
    want = pd.DataFrame([
        {"k": k, **{f"q{int(q * 100)}": np.quantile(g["v"].dropna().to_numpy(), q)
                    for q in (0.0, 0.25, 0.5, 0.9, 1.0)}}
        for k, g in df.groupby("k")])
    # numpy's own linear method, bit for bit
    _same(got, want, ["k", "q0", "q25", "q50", "q90", "q100"])


@pytest.mark.parametrize("tier", TIERS)
def test_group_quantiles_approx(tier):
    df = _quantile_input()
    got = _run(tier, lambda: rel.group_quantiles(
        ray.data.from_pandas(df).repartition(6), "k", "v", [0.5, 0.9], approx=True)) \
        .set_index("k").sort_index()
    assert list(got.index) == sorted(df["k"].unique())
    for k, g in df.groupby("k"):
        vals = np.sort(g["v"].dropna().to_numpy())
        for q in (0.5, 0.9):
            # the estimate's rank is within the sketch's rank error
            rank = np.searchsorted(vals, got.loc[k, f"q{int(q * 100)}"], side="right")
            assert abs(rank / len(vals) - q) <= 0.05, (k, q)


@pytest.mark.parametrize("tier", TIERS)
def test_pack_sequences(tier):
    rng = np.random.default_rng(5)
    # two shards over eight blocks: a groupby sort into eight ranges
    # leaves six of them empty, which Ray logs as a "different schema"
    df = pd.DataFrame({"shard": np.arange(500) % 2, "doc_id": np.arange(500),
                       "n_tokens": rng.integers(10, 900, 500)})
    df.loc[7, "n_tokens"] = 5000
    got = _run(tier, lambda: pack_sequences(
        ray.data.from_pandas(df).repartition(8), "shard", "doc_id", "n_tokens", budget=1000))
    rows = []
    for shard, g in df.sort_values("doc_id").groupby("shard"):
        pid, acc = 0, 0
        for d, n in zip(g["doc_id"], g["n_tokens"]):
            if acc and acc + n > 1000:
                pid, acc = pid + 1, 0
            acc += n
            rows.append((shard, d, n, pid))
    want = pd.DataFrame(rows, columns=["shard", "doc_id", "n_tokens", "pack_id"])
    want["pack_tokens"] = want.groupby(["shard", "pack_id"])["n_tokens"].transform("sum")
    _same(got, want, ["shard", "doc_id", "n_tokens", "pack_id", "pack_tokens"])


@pytest.mark.parametrize("tier", TIERS)
def test_exact_jaccard_for_pairs(tier):
    rng = np.random.default_rng(13)
    texts = [" ".join(str(rng.integers(0, 300)) for _ in range(60)) for _ in range(40)]
    texts[20] = texts[2]
    texts[21] = texts[3][:-15] + " small edit"
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(40), "text": texts})) \
        .repartition(3)
    # id 99 is in no document: its pair has no score
    pairs = pd.DataFrame({"id_a": [2, 3, 0, 5, 5, 7], "id_b": [20, 21, 24, 6, 99, 7]})
    got = _run(tier, lambda: exact_jaccard_for_pairs(ds, pairs, "text", "doc_id",
                                                     shingle_k=5))
    want = pairs.copy()
    want["jaccard"] = [T.exact_jaccard(T.char_shingle_hashes(texts[a], 5),
                                       T.char_shingle_hashes(texts[b], 5))
                       if b < 40 else np.nan for a, b in zip(pairs.id_a, pairs.id_b)]
    _same(got.fillna(-1.0), want.fillna(-1.0), ["id_a", "id_b", "jaccard"])
    assert got.loc[got.id_a == 2, "jaccard"].iloc[0] == 1.0


def test_no_hand_rolled_exchange_outside_the_kept_sites():
    """``by_partition`` is the one per-key primitive: the package and
    ``__ray_entry__.py`` hold no ``map_groups(``, and a Dataset
    ``.sort(`` (any ``.sort(`` not on numpy) or a ``ray.data.aggregate``
    import only at the kept sites: the sort tier of ``drift``'s exact KS,
    ``unigram_logprob_scores``' sort-limit and total, and the CLI's
    sorted violation sink."""
    root = pathlib.Path(rel.__file__).resolve().parents[1]
    files = sorted(root.rglob("*.py")) + [root.parent / "__ray_entry__.py"]
    sites = set()
    for path in files:
        src = path.read_text()
        tree = ast.parse(src)
        defs = [n for n in tree.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]

        def site(no, kind):
            outer = next((d.name for d in defs if d.lineno <= no <= d.end_lineno), None)
            sites.add((path.relative_to(root.parent).as_posix(), outer, kind))

        for no, line in enumerate(src.splitlines(), 1):
            if "map_groups(" in line:
                site(no, "map_groups")
        for n in ast.walk(tree):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "sort"
                    and not (isinstance(n.func.value, ast.Name)
                             and n.func.value.id in ("np", "numpy"))):
                site(n.lineno, "sort")
            if isinstance(n, ast.ImportFrom) and n.module == "ray.data.aggregate":
                site(n.lineno, "ray.data.aggregate")
    pkg = root.name
    assert sites == {
        (f"{pkg}/checks/drift.py", "_sorted_exchange_ks", "sort"),
        (f"{pkg}/checks/drift.py", "_sorted_exchange_ks", "ray.data.aggregate"),
        (f"{pkg}/pipelines/training.py", "unigram_logprob_scores", "sort"),
        (f"{pkg}/pipelines/training.py", "unigram_logprob_scores", "ray.data.aggregate"),
        (f"{pkg}/cli.py", "main", "sort"),
    }
