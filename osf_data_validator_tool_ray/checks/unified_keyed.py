"""Unified keyed-check pass — ALL per-key constraints in ONE exchange.

The clips suite has four families of keyed checks, all grouping on the
same primary key (clip_id):

  * cardinality min/max/exact (qualified counts per key)
  * per-group existential (predicate-true count per key)
  * referential existence (refs side must hit an existing key)
  * zero-occurrence edge (an expected key must have >= 1 row)

Running them as separate groupbys costs one all-to-all exchange each,
and their fixed cost dominates.  This module is the one planner and
emitter for all of them, shared by both executors:

  * ``keyed_plan`` derives, from (spec, available columns, decode), the
    constraints the keyed pass evaluates, the existentials the decode
    scan owns, and the columns the keyed pass reads;
  * the suite (pipelines/runner.py) feeds ``keyed_violations`` the
    combiner partials of its metadata scan, and the partitioned runner
    (pipelines/partitioned.py) feeds it the partials each partition task
    stored — the same ``_PartialAggregator`` rows either way.

``keyed_violations`` unions the metadata partials with tagged refs /
expected-key partials and resolves every constraint from ONE merge
(pipelines.relational.merge_partials):

  merged row per key:
    card{i}_n    — Sum of qualified counts        (metadata partials)
    ext{j}_n     — Sum of predicate-true counts   (metadata partials)
    n_rows       — Sum of row counts              (metadata partials)
    is_ref       — Max marker                     (refs partials)
    is_expected  — Max marker                     (expected-key partials)

  verdicts:
    CARD-*        n_rows > 0 and count comparison fails
    SOME-100      n_rows > 0 and ext_n == 0
    REF-EXISTENCE n_rows == 0 and is_ref == 1      (ref key never seen)
    CARD-MIN-102  n_rows == 0 and is_expected == 1 (zero-occurrence edge)

Existentials over the payload in decode mode are counted by the decode
scan instead (stages.decode_stage.existential_violations_from_partials),
which keeps this exchange off the decode barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pyarrow as pa

import ray.data

from ..spec import Cardinality, ConstraintSpec, Existential
from .base import empty_violations, make_violations, union_all
from .cardinality import _PartialAggregator
from .predicates import PREDICATE_COLUMNS
from ..stages.base_ids import (
    CARD_EXACT_100,
    CARD_MAX_100,
    CARD_MIN_100,
    CARD_MIN_102,
    REF_EXISTENCE_100,
    SOME_100,
)

_MARKERS = ("is_ref", "is_expected")


@dataclass(frozen=True)
class KeyedPlan:
    key: Optional[str]                      # None: no keyed pass
    cards: tuple[Cardinality, ...] = ()     # evaluated by the keyed pass
    exts: tuple[Existential, ...] = ()      # counted by the keyed pass
    decode_exts: tuple[Existential, ...] = ()   # counted by the decode scan
    columns: tuple[str, ...] = ()           # read by the keyed pass

    @property
    def sum_columns(self) -> list[str]:
        """The partials' count columns, positional in cards / exts."""
        return ([f"card{i}_n" for i in range(len(self.cards))]
                + [f"ext{j}_n" for j in range(len(self.exts))] + ["n_rows"])

    def aggregator(self) -> _PartialAggregator:
        """The combiner: batch -> one row per key with the sum columns."""
        return _PartialAggregator(self.key, list(self.cards), list(self.exts))

    def partials(self, ds: "ray.data.Dataset") -> "ray.data.Dataset":
        """The combiner over a Dataset holding ``columns``."""
        return ds.select_columns(list(self.columns)).map_batches(
            self.aggregator(), batch_format="pyarrow", batch_size=None)


def _reads(column: Optional[str], predicate: Optional[str]) -> Optional[set]:
    """Columns a constraint reads; None when its predicate is unknown."""
    if predicate is not None and predicate not in PREDICATE_COLUMNS:
        return None
    return ({column} if column else set()) | PREDICATE_COLUMNS.get(predicate, set())


def keyed_plan(spec: ConstraintSpec, names: Optional[set],
               decode: bool) -> KeyedPlan:
    """Plan the keyed pass for a table with columns ``names`` (None: every
    column the spec names is present).

    Constraints on absent columns or unknown predicates are skipped; the
    driver's unevaluable_warnings sweep reports them.  With ``decode``
    the payload column belongs to the decode scan: existentials that
    read it move to ``decode_exts`` and the keyed pass never reads it."""
    key = spec.key_column
    if not key or (names is not None and key not in names):
        return KeyedPlan(None)

    def evaluable(cols: Optional[set]) -> bool:
        return cols is not None and (names is None or cols <= names)

    cards = [(c, _reads(c.column, c.qualifier)) for c in spec.cardinalities
             if c.key == key]
    cards = [(c, r) for c, r in cards
             if evaluable(r) and not (decode and "bytes" in r)]
    exts = [(e, _reads(None, e.predicate)) for e in spec.existentials
            if e.key == key]
    exts = [(e, r) for e, r in exts if evaluable(r)]
    decode_exts = tuple(e for e, r in exts if decode and "bytes" in r)
    exts = [(e, r) for e, r in exts if not (decode and "bytes" in r)]
    columns = {key}.union(*(r for _, r in cards + exts))
    return KeyedPlan(key, tuple(c for c, _ in cards), tuple(e for e, _ in exts),
                     decode_exts, tuple(sorted(columns)))


def _pad(t: pa.Table, all_cols: list[str]) -> pa.Table:
    n = t.num_rows
    for c in all_cols:
        if c not in t.column_names:
            t = t.append_column(c, pa.array(np.zeros(n, dtype=np.int64)))
    return t.select(all_cols)


def _marker_partial(ds: "ray.data.Dataset", col: str, marker: str,
                    all_cols: list[str]) -> "ray.data.Dataset":
    """Distinct non-null values of ``col`` tagged with ``marker``; the key
    dtype is preserved so it matches the metadata partials' key type for
    the union (ints stay ints)."""
    def fn(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        u = pc.unique(pc.drop_null(t.column(col).combine_chunks()))
        base = pa.table({"key": u,
                         marker: pa.array(np.ones(len(u), dtype=np.int64))})
        return _pad(base, all_cols)

    return ds.select_columns([col]).map_batches(
        fn, batch_format="pyarrow", batch_size=None)


def keyed_violations(
    partials: "ray.data.Dataset",
    plan: KeyedPlan,
    spec: ConstraintSpec,
    refs: Optional[dict[str, "ray.data.Dataset"]] = None,
    expected_keys: Optional["ray.data.Dataset"] = None,
    expected_key_column: str = "key",
) -> "ray.data.Dataset":
    """Every keyed verdict from ``partials`` (``plan.aggregator()`` rows:
    key, card{i}_n, ext{j}_n, n_rows) plus the refs / expected-key sides,
    in one merge."""
    all_cols = ["key"] + plan.sum_columns + list(_MARKERS)
    parts = [partials.map_batches(lambda t: _pad(t, all_cols),
                                  batch_format="pyarrow", batch_size=None)]
    ref_tables = [ri for ri in spec.ref_integrity if refs and ri.ref_table in refs]
    for ri in ref_tables:
        parts.append(_marker_partial(refs[ri.ref_table], ri.ref_column,
                                     "is_ref", all_cols))
    if expected_keys is not None:
        parts.append(_marker_partial(expected_keys, expected_key_column,
                                     "is_expected", all_cols))

    ref_col = spec.ref_integrity[0].ref_column if spec.ref_integrity else "key"
    have_expected = expected_keys is not None   # emit must not capture a Dataset

    def emit(t: pa.Table) -> pa.Table:
        out = []
        keys = np.asarray(t.column("key").to_pylist(), dtype=object)
        present = t.column("n_rows").to_numpy(zero_copy_only=False) > 0
        for i, c in enumerate(plan.cards):
            n = t.column(f"card{i}_n").to_numpy(zero_copy_only=False)
            q = f" where {c.qualifier}" if c.qualifier else ""
            for cid, bound, bad, op in (
                    (CARD_MAX_100, c.max_count, np.greater, "<="),
                    (CARD_MIN_100, c.min_count, np.less, ">="),
                    (CARD_EXACT_100, c.exact_count, np.not_equal, "==")):
                if bound is None:
                    continue
                m = present & bad(n, bound)
                if m.any():
                    out.append(make_violations(cid, keys[m], c.column, n[m],
                                               expected=f"count{op}{bound}{q}"))
        for j, e in enumerate(plan.exts):
            n = t.column(f"ext{j}_n").to_numpy(zero_copy_only=False)
            m = present & (n == 0)
            if m.any():
                out.append(make_violations(SOME_100, keys[m], e.predicate, n[m],
                                           expected=f"some row satisfies {e.predicate}"))
        if ref_tables:
            m = (t.column("is_ref").to_numpy(zero_copy_only=False) > 0) & ~present
            if m.any():
                out.append(make_violations(REF_EXISTENCE_100, keys[m], ref_col,
                                           keys[m], expected=f"exists in {plan.key}"))
        if have_expected:
            m = (t.column("is_expected").to_numpy(zero_copy_only=False) > 0) & ~present
            if m.any():
                out.append(make_violations(CARD_MIN_102, keys[m], plan.key,
                                           [0] * int(m.sum()),
                                           expected="key has >=1 row"))
        return pa.concat_tables(out).combine_chunks() if out else empty_violations()

    from ..pipelines.relational import merge_partials
    return merge_partials(
        union_all(parts), "key",
        {**{c: "sum" for c in plan.sum_columns}, **{m: "max" for m in _MARKERS}},
        emit)


def unified_keyed_violations(
    meta_ds: "ray.data.Dataset",
    spec: ConstraintSpec,
    refs: Optional[dict[str, "ray.data.Dataset"]] = None,
    expected_keys: Optional["ray.data.Dataset"] = None,
    expected_key_column: str = "key",
    include_existentials_from_meta: bool = False,
    skip_ext_columns: tuple = (),
) -> Optional["ray.data.Dataset"]:
    """The keyed pass over a metadata Dataset; None when it lacks the key.

    ``skip_ext_columns=("bytes",)`` plans for decode mode: existentials
    over the payload are left to the fused bytes scan, while
    metadata-only existentials remain enforced here."""
    plan = keyed_plan(spec, set(meta_ds.schema().names),
                      decode="bytes" in skip_ext_columns)
    if plan.key is None:
        return None
    if not include_existentials_from_meta:
        plan = replace(plan, exts=())
    return keyed_violations(plan.partials(meta_ds), plan, spec, refs=refs,
                            expected_keys=expected_keys,
                            expected_key_column=expected_key_column)
