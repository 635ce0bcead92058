"""Referential-integrity / existence checks (anti-joins at scale).

Reference analog: CheckURIExistence — every referenced URI must exist
somewhere in datasets ∪ ontologies, evaluated as a SPARQL
`filter not exists` anti-join (CheckURIExistence.php:42-55); its fix()
deletes dangling triples (ibid.:392-480) — here the fix path quarantines
dangling rows to a sink instead of mutating the source.

The suite's REF-EXISTENCE-100 runs inside the one keyed pass
(checks/unified_keyed.py); this module holds the generic anti-join
primitives over any two tables.  Two scale regimes:

  * small key side  -> broadcast: collect the distinct key set (or a
    Bloom filter of it) on the driver via partial-distinct map_batches,
    ``ray.put`` once, filter the ref side per batch.  No shuffle.
  * both sides large -> union-groupby anti-join: per-batch distinct
    partials on both sides tagged {is_ref, is_key}, one adaptive
    max-merge (pipelines.relational.merge_partials), keep rows with
    is_ref=1, is_key=0.  The per-batch distinct is the combiner that
    keeps the shuffle proportional to distinct keys, not rows.
    An optional Bloom prefilter (functions.sketches.BloomFilter) built
    from the key side splits refs into definite-miss (immediate
    violations, no shuffle) and maybe-present (small exact anti-join).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
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
    """Distinct ref values with no matching key value (big-big regime).

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


def broadcast_membership_filter(
    refs: "ray.data.Dataset",
    ref_column: str,
    key_set_ref: "ray.ObjectRef",
) -> "ray.data.Dataset":
    """Broadcast regime: ``key_set_ref`` is ray.put(frozenset_of_keys) —
    shipped to each task once via the object store, never per batch.
    Returns distinct missing ref values per batch (caller unions)."""

    class Probe:
        def __init__(self):
            # once per actor: resolve the broadcast and pre-build the
            # Arrow value_set for vectorized pc.is_in probes
            keys = ray.get(key_set_ref)
            self.key_arr = pa.array(list(keys)) if keys else None

        def __call__(self, batch: pa.Table) -> pa.Table:
            vals = pa.array(pd.unique(batch.column(ref_column).to_pandas().dropna()),
                            type=batch.schema.field(ref_column).type)
            if self.key_arr is None:
                return pa.table({"key": vals})
            import pyarrow.compute as pc
            present = pc.is_in(vals, value_set=self.key_arr.cast(vals.type))
            return pa.table({"key": vals.filter(pc.invert(present))})

    cpus = max(2, int(ray.cluster_resources().get("CPU", 8)))
    return refs.select_columns([ref_column]).map_batches(
        Probe, batch_format="pyarrow", concurrency=(1, cpus))
