"""Distribution-drift checks (KS / PSI) against a baseline profile.

The "ontology" analog here is a *baseline profile* artifact: per-column
KLL quantile sketches (numeric), frequency tables (categorical) and HLL
sketches (cardinality), built once from a reference run and stored as a
small versioned JSON file (the sketches in their fixed binary layouts,
base64).  A validation run rebuilds the same profile from the current
table — per-block partials in ONE map_batches, merged driver-side
(sketches are monoids; no shuffle) — and compares:

  * numeric columns: KS statistic between the merged KLL sketches -> DRIFT-100
  * categorical columns: PSI over frequency tables -> DRIFT-100
  * key columns: HLL distinct-count ratio (dedup-rate drift)
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.sketches import (
    KLL,
    HyperLogLog,
    freq_table_psi,
    ks_statistic,
)
from ..checks.base import empty_violations, make_violations
from ..stages.base_ids import DRIFT_100

# ``TableProfile.to_json`` writes this; ``from_json`` reads nothing else
PROFILE_FORMAT = "drift-profile/2 (kll)"


def exact_ks(
    ds: "ray.data.Dataset",
    value_col: str,
    side_col: str,
    side_a,
    side_b,
) -> float:
    """EXACT two-sample Kolmogorov-Smirnov statistic between the rows
    where ``side_col == side_a`` and ``side_col == side_b`` — the
    SQL-checkable tier of the drift family (the sketch tier above is
    the baseline-profile path).

    ONE map_batches pass emits per-batch (value, n_a, n_b) count
    partials — bounded by the column's distinct-value count per batch,
    never its row count.  Below the row+byte gate (``fits_driver_merge``,
    same contract as distinct_counts) a tiny driver merge sorts the
    distinct values and takes max |ECDF_a - ECDF_b|.

    Above it the answer stays exact: the partials take a grouped-count
    hash exchange (one row per GLOBAL distinct value, so no tie spans
    two blocks) and one ``sort("v")``; each sorted block emits its side
    totals and the min/max of its local ECDF difference, and the driver
    prefix-sums those O(blocks) rows."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "v": batch.column(value_col).to_pandas(),
            "a": (batch.column(side_col).to_pandas() == side_a)
            .astype("int64"),
            "b": (batch.column(side_col).to_pandas() == side_b)
            .astype("int64"),
        }).dropna(subset=["v"])
        agg = df.groupby("v", sort=False)[["a", "b"]].sum().reset_index()
        return pa.Table.from_pandas(agg[(agg.a > 0) | (agg.b > 0)],
                                    preserve_index=False) \
            .replace_schema_metadata(None)

    from ..pipelines.relational import fits_driver_merge

    parts = ds.select_columns([value_col, side_col]).map_batches(
        partial, batch_format="pyarrow", batch_size=None).materialize()
    if not fits_driver_merge(parts):
        return _sorted_exchange_ks(parts)
    frames = [t.to_pandas()
              for t in parts.iter_batches(batch_format="pyarrow",
                                          batch_size=None)]
    if not frames:
        return 0.0
    agg = pd.concat(frames, ignore_index=True) \
        .groupby("v", sort=True)[["a", "b"]].sum()
    if len(agg) == 0:
        return 0.0
    na = agg["a"].to_numpy(dtype=np.float64)
    nb = agg["b"].to_numpy(dtype=np.float64)
    ta, tb = na.sum(), nb.sum()
    if ta == 0 or tb == 0:
        return 0.0
    return float(np.abs(np.cumsum(na) / ta - np.cumsum(nb) / tb).max())


def _sorted_exchange_ks(parts: "ray.data.Dataset") -> float:
    """``exact_ks``'s exchange tier over its (v, a, b) count partials."""
    from ray.data.aggregate import Sum

    totals = parts.sum(["a", "b"]) or {}
    ta, tb = totals.get("sum(a)", 0), totals.get("sum(b)", 0)
    if not ta or not tb:
        return 0.0

    def block_extremes(t: pa.Table) -> pa.Table:
        # sort() leaves each block one sorted range of values: the rank
        # difference is local to it here, and the driver adds what the
        # blocks below ``lo`` hold (every column is empty for an empty block)
        ca = np.cumsum(t.column("a").to_numpy(zero_copy_only=False))
        cb = np.cumsum(t.column("b").to_numpy(zero_copy_only=False))
        d = ca / ta - cb / tb
        return pa.table({"lo": t.column("v").slice(0, 1), "a": ca[-1:], "b": cb[-1:],
                         "dmin": np.minimum.accumulate(d)[-1:],
                         "dmax": np.maximum.accumulate(d)[-1:]})

    blocks = parts.groupby("v").aggregate(
        Sum("a", alias_name="a"), Sum("b", alias_name="b")).sort("v") \
        .map_batches(block_extremes, batch_format="pyarrow", batch_size=None) \
        .to_pandas().sort_values("lo")
    below = (blocks["a"].cumsum() - blocks["a"]) / ta \
        - (blocks["b"].cumsum() - blocks["b"]) / tb
    return float(max((below + blocks["dmin"]).abs().max(),
                     (below + blocks["dmax"]).abs().max()))


@dataclass
class TableProfile:
    n_rows: int = 0
    numeric: dict[str, KLL] = field(default_factory=dict)
    categorical: dict[str, dict] = field(default_factory=dict)
    distinct: dict[str, HyperLogLog] = field(default_factory=dict)

    def merge(self, other: "TableProfile") -> "TableProfile":
        self.n_rows += other.n_rows
        for mine, theirs in ((self.numeric, other.numeric),
                             (self.distinct, other.distinct)):
            for c, sk in theirs.items():
                mine[c] = mine[c].merge(sk) if c in mine else sk
        for c, t in other.categorical.items():
            acc = self.categorical.setdefault(c, {})
            for k, v in t.items():
                acc[k] = acc.get(k, 0) + v
        return self

    def to_json(self) -> str:
        return json.dumps({
            "format": PROFILE_FORMAT,
            "n_rows": self.n_rows,
            "numeric": {c: base64.b64encode(h.to_bytes()).decode()
                        for c, h in self.numeric.items()},
            "categorical": self.categorical,
            "distinct": {c: base64.b64encode(h.to_bytes()).decode()
                         for c, h in self.distinct.items()},
        })

    @classmethod
    def from_json(cls, s: str) -> "TableProfile":
        """A profile ``to_json`` wrote.  Anything else — an unversioned
        profile of StreamHist sketches, another format, a malformed
        file — raises ``ValueError`` rather than being misread."""
        d = json.loads(s)
        fmt = d.get("format") if isinstance(d, dict) else None
        if fmt != PROFILE_FORMAT:
            raise ValueError(
                f"drift profile format {fmt!r} is not {PROFILE_FORMAT!r}"
                + ("; an unversioned (StreamHist) profile must be rebuilt"
                   if fmt is None else ""))
        try:
            return cls(
                n_rows=int(d["n_rows"]),
                numeric={c: KLL.from_bytes(base64.b64decode(v, validate=True))
                         for c, v in d["numeric"].items()},
                categorical={c: {str(k): int(n) for k, n in t.items()}
                             for c, t in d["categorical"].items()},
                distinct={c: HyperLogLog.from_bytes(base64.b64decode(v, validate=True))
                          for c, v in d["distinct"].items()},
            )
        except (KeyError, TypeError, AttributeError) as e:
            raise ValueError(f"malformed {PROFILE_FORMAT} profile: {e!r}") from e


def _profiles(
    ds: "ray.data.Dataset",
    group_col: Optional[str],
    numeric_cols: list[str],
    cat_cols: list[str],
    key_cols: list[str],
) -> "dict[Optional[str], TableProfile]":
    """One streaming pass: per-(block, group) profile partials, merged on
    the driver into one profile per ``str(group value)`` (nulls dropped),
    or into one profile under ``None`` when ``group_col`` is None.
    Categories are counted by Arrow, so they keep the column's type (an
    int column's 16000 is "16000" in every block, null or not)."""
    cols = sorted(set(numeric_cols) | set(cat_cols) | set(key_cols)
                  | ({group_col} if group_col else set()))

    def partial(batch: pa.Table) -> pa.Table:
        if group_col is None:
            slices = [(None, batch)]
        else:
            g = batch.column(group_col)
            slices = [(str(v), batch.filter(pc.equal(g, v)))
                      for v in pc.unique(g.drop_null()).to_pylist()]
        profiles = []
        for _, t in slices:
            prof = TableProfile(n_rows=t.num_rows)
            for c in numeric_cols:
                prof.numeric[c] = KLL().update(
                    t.column(c).to_numpy(zero_copy_only=False))
            for c in cat_cols:
                vc = pc.value_counts(t.column(c).drop_null())
                prof.categorical[c] = dict(zip(
                    map(str, vc.field("values").to_pylist()),
                    vc.field("counts").to_pylist()))
            for c in key_cols:
                prof.distinct[c] = HyperLogLog().update(t.column(c).to_pandas())
            profiles.append(prof.to_json())
        return pa.table({"group": pa.array([k for k, _ in slices], type=pa.string()),
                         "profile": pa.array(profiles, type=pa.string())})

    merged: dict[Optional[str], TableProfile] = {}
    parts = ds.select_columns(cols).map_batches(partial, batch_format="pyarrow")
    for b in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        for g, s in zip(b.column("group").to_pylist(),
                        b.column("profile").to_pylist()):
            merged.setdefault(g, TableProfile()).merge(TableProfile.from_json(s))
    return merged


def build_profile(
    ds: "ray.data.Dataset",
    numeric_cols: list[str],
    cat_cols: list[str],
    key_cols: Optional[list[str]] = None,
) -> TableProfile:
    """One streaming pass; per-block sketch partials merged on the driver.
    Partial size ~ KB/block regardless of block rows."""
    return _profiles(ds, None, numeric_cols, cat_cols, key_cols or []) \
        .get(None, TableProfile())


def build_profiles_by_group(
    ds: "ray.data.Dataset",
    group_col: str,
    numeric_cols: list[str],
    cat_cols: Optional[list[str]] = None,
) -> dict[str, TableProfile]:
    """Per-slice profiles (TFDV-style segment drift): one TableProfile
    per distinct ``group_col`` value, built in ONE streaming pass —
    per-(block, group) sketch partials merged driver-side.  Partial
    volume is O(blocks x groups x KB); assumes low group cardinality
    (codec, language, source — the slicing columns validation cares
    about)."""
    return _profiles(ds, group_col, numeric_cols, cat_cols or [], [])


def drift_columns(names, key_column: Optional[str]) -> tuple[list[str], list[str], list[str]]:
    """The (numeric, categorical, key) columns a validation run profiles
    for drift: ``dur_ms`` (KS), ``codec`` and ``sr_hz`` (PSI) and the
    spec's key column (distinct ratio), each only where the table, whose
    column ``names`` are given, has it."""
    return ([c for c in ("dur_ms",) if c in names],
            [c for c in ("codec", "sr_hz") if c in names],
            [key_column] if key_column in names else [])


def _column_drift(
    current: TableProfile,
    baseline: TableProfile,
    ks_threshold: float,
    psi_threshold: float,
) -> list[tuple[str, str, str]]:
    """(column, observed, expected) for each numeric column both profiles
    hold whose KS, and each categorical one whose PSI, is over its
    threshold."""
    out = []
    for c, sk in current.numeric.items():
        if c in baseline.numeric:
            ks = ks_statistic(sk, baseline.numeric[c])
            if ks > ks_threshold:
                out.append((c, f"ks={ks:.4f}", f"ks<={ks_threshold}"))
    for c, table in current.categorical.items():
        if c in baseline.categorical:
            v = freq_table_psi(baseline.categorical[c], table)
            if v > psi_threshold:
                out.append((c, f"psi={v:.4f}", f"psi<={psi_threshold}"))
    return out


def grouped_drift_violations(
    current: dict[str, TableProfile],
    baseline: dict[str, TableProfile],
    ks_threshold: float = 0.1,
    psi_threshold: float = 0.2,
) -> pa.Table:
    """DRIFT-101 per slice: compare each group's profile against the
    same group's baseline; slices present on only one side get a
    warning (DRIFT-50 — unevaluable, mirroring the -5x tier)."""
    out = []
    for g in sorted(set(current) | set(baseline)):
        if g not in current or g not in baseline:
            out.append(make_violations("DRIFT-50", [g], "slice",
                                       ["missing" if g not in current
                                        else "new slice"],
                                       expected="slice present in both profiles",
                                       severity="warning"))
            continue
        out += [make_violations("DRIFT-101", [g], c, [obs], expected=exp)
                for c, obs, exp in _column_drift(current[g], baseline[g],
                                                 ks_threshold, psi_threshold)]
    return pa.concat_tables(out) if out else empty_violations()


def drift_violations(
    current: TableProfile,
    baseline: TableProfile,
    ks_threshold: float = 0.1,
    psi_threshold: float = 0.2,
    distinct_ratio_band: tuple[float, float] = (0.5, 2.0),
) -> pa.Table:
    out = [make_violations(DRIFT_100, [None], c, [obs], expected=exp)
           for c, obs, exp in _column_drift(current, baseline,
                                            ks_threshold, psi_threshold)]
    for c, hll in current.distinct.items():
        if c not in baseline.distinct:
            continue
        cur, base = hll.estimate(), baseline.distinct[c].estimate()
        # normalize by row counts: distinct-per-row ratio drift
        cur_r = cur / max(current.n_rows, 1)
        base_r = base / max(baseline.n_rows, 1)
        ratio = cur_r / max(base_r, 1e-12)
        lo, hi = distinct_ratio_band
        if not (lo <= ratio <= hi):
            out.append(make_violations(DRIFT_100, [None], c,
                                       [f"distinct_ratio={ratio:.3f}"],
                                       expected=f"in [{lo},{hi}]"))
    return pa.concat_tables(out) if out else empty_violations()
