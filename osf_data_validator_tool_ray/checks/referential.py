"""Referential-integrity / existence checks (anti-joins at scale).

Reference analog: CheckURIExistence — every referenced URI must exist
somewhere in datasets ∪ ontologies, evaluated as a SPARQL
`filter not exists` anti-join (CheckURIExistence.php:42-55); its fix()
deletes dangling triples (ibid.:392-480) — here the fix path quarantines
dangling rows to a sink instead of mutating the source.

The suite's REF-EXISTENCE-100 runs inside the one keyed pass
(checks/unified_keyed.py); this module holds the generic anti-join
primitive over any two tables: a union-groupby anti-join.  Per-batch
distinct partials on both sides are tagged {is_ref, is_key}, one
adaptive max-merge (pipelines.relational.merge_partials) keeps rows with
is_ref=1, is_key=0.  The per-batch distinct is the combiner that keeps
the merge proportional to distinct keys, not rows; small key sets stay
on the driver tier, large ones take the hash exchange.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data


def _distinct_partial(col: str, tag: str):
    def fn(batch: pa.Table) -> pa.Table:
        # per-batch distinct = the combiner that keeps the exchange
        # proportional to distinct keys; key dtype is preserved so int
        # keys stay ints (both sides of the union must share the dtype)
        vals = pa.array(pd.unique(batch.column(col).to_pandas().dropna()),
                        type=batch.schema.field(col).type)
        return pa.table({
            "key": vals,
            "is_ref": pa.array(np.full(len(vals), 1 if tag == "ref" else 0, dtype=np.int8)),
            "is_key": pa.array(np.full(len(vals), 1 if tag == "key" else 0, dtype=np.int8)),
        })
    return fn


def anti_join_missing(
    refs: "ray.data.Dataset",
    ref_column: str,
    keys: "ray.data.Dataset",
    key_column: str,
) -> "ray.data.Dataset":
    """Distinct ref values with no matching key value.

    One hash exchange over per-batch-distinct partials; returns a Dataset
    with a single `key` column of missing values.
    """
    from ..pipelines.relational import merge_partials

    r = refs.select_columns([ref_column]).map_batches(
        _distinct_partial(ref_column, "ref"), batch_format="pyarrow", batch_size=None)
    k = keys.select_columns([key_column]).map_batches(
        _distinct_partial(key_column, "key"), batch_format="pyarrow", batch_size=None)

    def missing(t: pa.Table) -> pa.Table:
        m = (t.column("is_ref").to_numpy(zero_copy_only=False) == 1) & (
            t.column("is_key").to_numpy(zero_copy_only=False) == 0)
        return t.filter(pa.array(m)).select(["key"])

    # the per-batch-distinct partials are bounded by distinct keys, so
    # small sets skip the hash exchange's fixed latency; at 10^12-key
    # scale the shuffle path runs
    return merge_partials(r.union(k), "key", {"is_ref": "max", "is_key": "max"},
                          missing)

