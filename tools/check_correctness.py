"""Local stand-in for the driver's correctness gate: run every
__ray_entry__.queries() entry at sf0.01 and compare against its
oracle_sql() via DuckDB (row count + schema-insensitive, order-insensitive
value hash).  Usage:  python tools/check_correctness.py [sf_dir] [names...]
"""

from __future__ import annotations

import hashlib
import os
import sys

import duckdb
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa
    try:
        import ray.data
        if isinstance(obj, ray.data.Dataset):
            return obj.to_pandas()
    except ImportError:
        pass
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(9)
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    return hashlib.md5(canon(df).to_csv(index=False).encode()).hexdigest()


def main():
    args = list(sys.argv[1:])
    json_out = None
    if "--json" in args:
        i = args.index("--json")
        json_out = args[i + 1]
        del args[i:i + 2]
    sf_dir = args[0] if args else "/root/testdata/sf0.01"
    only = set(args[1:])
    results: dict[str, dict] = {}

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    # the checkout this tool lives in, not whatever is installed or on
    # the path: a copy of the repository checks its own __ray_entry__
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs, oracles = entrymod.queries(), entrymod.oracle_sql()
    n_pass = n_fail = n_weak = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            results[name] = {"rows_match": False, "schema_match": False,
                             "hash_match": False, "spark_rows": None,
                             "oracle_rows": None,
                             "err": f"{type(e).__name__}: {e}"}
            n_fail += 1
            continue
        if name not in oracles:
            print(f"weak  {name}: rows={len(got)} cols={sorted(got.columns)} (no oracle)")
            results[name] = {"rows_match": None, "schema_match": None,
                             "hash_match": None, "spark_rows": len(got),
                             "oracle_rows": None, "err": None,
                             "weak": "no SQL oracle (rows-only)"}
            n_weak += 1
            continue
        want = con.execute(oracles[name]).df()
        ok_rows = len(got) == len(want)
        ok_cols = sorted(got.columns) == sorted(want.columns)
        ok_hash = ok_rows and ok_cols and value_hash(got) == value_hash(want)
        results[name] = {"rows_match": ok_rows, "schema_match": ok_cols,
                         "hash_match": ok_hash, "spark_rows": len(got),
                         "oracle_rows": len(want), "err": None}
        if ok_hash:
            print(f"PASS  {name}: rows={len(got)}")
            n_pass += 1
        else:
            print(f"FAIL  {name}: rows {len(got)} vs {len(want)}; cols {sorted(got.columns)} vs "
                  f"{sorted(want.columns)}; hash_match={ok_hash}")
            if ok_rows and ok_cols:
                g, w = canon(got), canon(want)
                neq = (g != w).any(axis=1)
                print("   first diffs:\n", g[neq].head(3), "\n  vs\n", w[neq].head(3))
            n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail, {n_weak} weak (rows-only)")
    if json_out:
        import json
        with open(json_out, "w") as f:
            json.dump(results, f, indent=2)
        print(f"wrote {json_out} ({len(results)} entries)")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
