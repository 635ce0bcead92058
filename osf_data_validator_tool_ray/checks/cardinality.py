"""Grouped checks: cardinality min/max/exact + per-group existential.

Reference analog: owl:max/min/qualifiedCardinality restrictions evaluated
as `group by ?s having(count(...) <op> n)` pushed to the SPARQL store
(CheckOwlRestrictionMax.php:152-165, Min:157-169, Exact:163) and
owl:someValuesFrom existential anti-joins (CheckOwlRestrictionSome.php:149-163).

This module holds stage 1 of the two-phase aggregate, the combiner: per
batch, aggregate per key -> one tiny row per (key, batch): total count,
per-qualifier counts, per-existential satisfied counts.  This is the
salted pattern: hot keys (clip_id runs, codec skew) are pre-reduced
inside every block before the exchange, so the shuffle moves O(distinct
keys per block), not O(rows).  The suite's one per-batch body
(pipelines.runner.SuitePass) runs it on every batch of every route: a
``map_batches`` block, or a run of ``SuitePass.scan``, which tags each
row with its partition's position (``_part``).  On a tagged batch the
combiner groups on ``(key, _part)``, so a run that holds several
partitions of a partitioned share still gives each partition its own
partial rows, and the partitioned runner splits them back into that
partition's stored artifact.  Every route hands the partials to
checks/unified_keyed.py, which merges them
(pipelines.relational.merge_partials) and evaluates every cardinality,
existential, referential-existence and zero-occurrence (CARD-MIN-102)
constraint in one vectorized pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..spec import Cardinality, Existential
from ..checks.predicates import PREDICATES


class _PartialAggregator:
    """Stage-1 combiner: batch -> one row per key with partial counts
    (per ``(key, _part)`` when the batch carries ``runner.SuitePass.
    scan``'s partition tag, so each partition keeps its own rows).  Rows
    with a null key belong to no group and are dropped here.

    ``decode_existentials`` are counted from the caller's per-row
    ``decoded`` flags (a full payload decode) instead of a predicate."""

    def __init__(self, key: str, cardinalities: list[Cardinality],
                 existentials: list[Existential],
                 decode_existentials: list[Existential] = ()):
        self.key = key
        self.cards = cardinalities
        self.exts = existentials
        self.decode_exts = decode_existentials

    def __call__(self, batch: pa.Table,
                 decoded: "np.ndarray | None" = None) -> pa.Table:
        # Arrow-native combiner (round-3 verdict item #7): key keeps its
        # Arrow type (no object-dtype pandas copy), count columns group
        # with Table.group_by.  Arrow bool -> int8 cast happens
        # Arrow-side (bool->numpy is a slow path).
        import pyarrow.compute as pc
        if batch.column(self.key).null_count:
            valid = pc.is_valid(batch.column(self.key))
            batch = batch.filter(valid)
            if decoded is not None:
                decoded = decoded[valid.to_numpy(zero_copy_only=False)]
        data: dict = {"key": batch.column(self.key)}
        groups = ["key"]
        if "_part" in batch.column_names:
            data["_part"] = batch.column("_part")
            groups.append("_part")
        sum_cols: list[str] = []
        for i, c in enumerate(self.cards):
            counted = pc.cast(pc.is_valid(batch.column(c.column)),
                              pa.int8()).to_numpy(zero_copy_only=False)
            if c.qualifier is not None:
                counted = counted & PREDICATES[c.qualifier](batch) \
                    .astype(np.int8)
            data[f"card{i}_n"] = pa.array(counted.astype(np.int64))
            sum_cols.append(f"card{i}_n")
        for j, e in enumerate(self.exts):
            data[f"ext{j}_n"] = pa.array(
                PREDICATES[e.predicate](batch).astype(np.int64))
            sum_cols.append(f"ext{j}_n")
        for j, _ in enumerate(self.decode_exts):
            data[f"dext{j}_n"] = pa.array(decoded.astype(np.int64))
            sum_cols.append(f"dext{j}_n")
        data["n_rows"] = pa.array(np.ones(batch.num_rows, dtype=np.int64))
        sum_cols.append("n_rows")
        g = pa.table(data).group_by(groups, use_threads=False) \
            .aggregate([(c, "sum") for c in sum_cols])
        return g.rename_columns(
            [c[:-4] if c.endswith("_sum") else c for c in g.column_names])
