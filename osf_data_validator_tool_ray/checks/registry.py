"""Config-driven check registry — the reference's plugin surface.

The reference registers checks by class name in `dvt.ini`
(tests/checks[] — dvt.ini:21-33) with optional query-string parameters
(`CheckDatatypePropertiesDatatype?mode=strict`, parsed at dvt:142-155),
instantiates each, injects context, and runs them in order.

Here a check plugin is a named planner function over a RunContext; a run
config lists `"<name>"` or `"<name>?k=v&k2=v2"` entries.  Each planner
returns a violations Dataset (or a pyarrow Table for driver-side checks,
or None when not applicable).  New checks register with @register.
``plan_checks`` gathers a run's planners into one ``SuiteResult`` (the
suite runner's result type), so its report is the suite's report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional
from urllib.parse import parse_qsl

import pyarrow as pa

import ray.data

from ..pipelines.runner import SuiteResult
from ..sources.io import arrow_schema
from ..spec import ConstraintSpec
from .base import empty_violations, make_violations, union_all
from .schema import schema_violations, spec_completeness_violations


@dataclass
class RunContext:
    ds: "ray.data.Dataset"
    spec: ConstraintSpec
    metadata_ds: Optional["ray.data.Dataset"] = None
    refs: Optional[dict[str, "ray.data.Dataset"]] = None
    expected_keys: Optional["ray.data.Dataset"] = None
    baseline_profile_path: Optional[str] = None

    @property
    def meta_ds(self):
        return self.metadata_ds if self.metadata_ds is not None else self.ds


CHECKS: dict[str, Callable[..., Any]] = {}


def register(name: str):
    def deco(fn):
        CHECKS[name] = fn
        return fn
    return deco


def parse_check_entry(entry: str) -> tuple[str, dict[str, str]]:
    """`"name?k=v&k2=v2"` -> (name, params) — dvt:142-155 analog."""
    if "?" in entry:
        name, qs = entry.split("?", 1)
        return name, dict(parse_qsl(qs))
    return entry, {}


def plan_checks(ctx: RunContext, entries: list[str]) -> SuiteResult:
    """Plan every configured check into one SuiteResult: violation
    Datasets go into ``violations``, driver-side pyarrow Tables into
    ``driver_violations`` (unknown names raise, like an unloadable
    class)."""
    datasets, tables = [], [empty_violations()]
    for entry in entries:
        name, params = parse_check_entry(entry)
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
        res = CHECKS[name](ctx, **params)
        if res is not None:
            (tables if isinstance(res, pa.Table) else datasets).append(res)
    return SuiteResult(union_all(datasets), pa.concat_tables(tables))


# ---------------------------------------------------------------------------
# built-in check plugins (compose the engine's existing planners)
# ---------------------------------------------------------------------------

@register("schema")
def check_schema(ctx: RunContext, mode: str = ""):
    spec = replace(ctx.spec, params={**ctx.spec.params, "mode": mode}) if mode else ctx.spec
    return schema_violations(arrow_schema(ctx.ds), spec)


@register("spec_completeness")
def check_spec_completeness(ctx: RunContext):
    return spec_completeness_violations(arrow_schema(ctx.ds), ctx.spec)


@register("stateless")
def check_stateless(ctx: RunContext, include_universals: str = "true",
                    skip_bytes: str = "false"):
    from ..stages.facet_stage import StatelessValidator, stateless_columns
    skip = ("bytes",) if skip_bytes == "true" else ()
    inc = include_universals == "true"
    have = set(ctx.meta_ds.schema().names)
    cols = [c for c in stateless_columns(ctx.spec, skip_columns=skip,
                                         include_universals=inc) if c in have]
    return ctx.meta_ds.select_columns(cols).map_batches(
        StatelessValidator(ctx.spec, skip_columns=skip, include_universals=inc),
        batch_format="pyarrow")


@register("keyed")
def check_keyed(ctx: RunContext, include_existentials: str = "true"):
    from .unified_keyed import unified_keyed_violations
    return unified_keyed_violations(
        ctx.meta_ds, ctx.spec, refs=ctx.refs,
        expected_keys=ctx.expected_keys,
        include_existentials_from_meta=(include_existentials == "true"))


@register("decode")
def check_decode(ctx: RunContext, profile: str = "light", batch_size: str = "256"):
    from ..stages.decode_stage import bytes_suite_pass
    if "bytes" not in ctx.ds.schema().names:
        return None
    return bytes_suite_pass(ctx.ds, profile=profile, batch_size=int(batch_size))[0]


@register("vad")
def check_vad(ctx: RunContext, min_speech_ratio: str = "0.2",
              min_cps: str = "0.2", max_cps: str = "40",
              energy_thresh: str = "0.01", batch_size: str = "256"):
    from ..stages.vad_stage import vad_stats, vad_violations
    if "bytes" not in ctx.ds.schema().names:
        return None
    stats = vad_stats(ctx.ds, batch_size=int(batch_size),
                      energy_thresh=float(energy_thresh))
    return vad_violations(stats,
                          min_speech_ratio=float(min_speech_ratio),
                          min_cps=float(min_cps), max_cps=float(max_cps))


@register("image")
def check_image(ctx: RunContext, backend: str = "png",
                batch_size: str = "32"):
    """IMG-DECODE-100 (undecodable payload) / IMG-DECODE-101 (decoded
    dims contradict metadata) over an image-payload table
    (image_id: string, bytes: binary).  backend="png" is the real
    pure-numpy PNG/BMP decoder (..imaging); "fake" keeps the
    header-parser stand-in; "pil"/"ffmpeg" are the full-format swap
    points (NotImplementedError without the library)."""
    from ..stages.multimodal import (image_decode_stats,
                                     image_decode_violations)
    names = ctx.ds.schema().names
    if "bytes" not in names or "image_id" not in names:
        return None
    stats = image_decode_stats(ctx.ds, backend=backend,
                               batch_size=int(batch_size))
    return image_decode_violations(stats)


@register("drift")
def check_drift(ctx: RunContext, ks_threshold: str = "0.1", psi_threshold: str = "0.2"):
    from .drift import TableProfile, build_profile, drift_violations
    if not ctx.baseline_profile_path:
        return None
    with open(ctx.baseline_profile_path) as f:
        base = TableProfile.from_json(f.read())
    prof = build_profile(ctx.meta_ds,
                         numeric_cols=[c for c in ("dur_ms",) if c in ctx.meta_ds.schema().names],
                         cat_cols=[c for c in ("codec", "sr_hz") if c in ctx.meta_ds.schema().names],
                         key_cols=[ctx.spec.key_column] if ctx.spec.key_column else [])
    return drift_violations(prof, base,
                            ks_threshold=float(ks_threshold),
                            psi_threshold=float(psi_threshold))


@register("reconcile")
def check_reconcile(ctx: RunContext, ref: str = "", key: str = "",
                    value: str = "", ref_key: str = "", target: str = "",
                    tol: str = "0.05"):
    """Cross-table aggregate reconciliation (RECONCILE-100): the data's
    per-key SUM(value) must match the refs table's recorded target
    within ``tol`` relative tolerance."""
    from ..pipelines.relational import reconcile_sum
    from ..stages.base_ids import RECONCILE_100

    if not (ref and ctx.refs and ref in ctx.refs and key and value
            and ref_key and target):
        return None
    out = reconcile_sum(ctx.meta_ds, key, value, ctx.refs[ref],
                        ref_key, target, rel_tol=float(tol))

    def emit(t: pa.Table) -> pa.Table:
        return make_violations(
            RECONCILE_100, t.column(key).to_pylist(), value,
            t.column("fact_sum").to_pylist(),
            expected=f"sum({value}) within {tol} of {ref}.{target}")

    return out.map_batches(emit, batch_format="pyarrow", batch_size=None)


@register("sequence_order")
def check_sequence_order(ctx: RunContext, key: str = "", ts: str = "",
                         seq: str = ""):
    """Sequence-integrity check (SEQ-ORDER-100): per-key timestamps must
    not regress in (seq, ts) order."""
    from ..pipelines.streaming import sequence_regressions
    from ..stages.base_ids import SEQ_ORDER_100

    names = set(ctx.meta_ds.schema().names)
    if not (key and ts and seq and {key, ts, seq} <= names):
        return None
    out = sequence_regressions(ctx.meta_ds, key, ts, seq)

    def emit(t: pa.Table) -> pa.Table:
        return make_violations(
            SEQ_ORDER_100, t.column(key).to_pylist(), ts,
            t.column(ts).to_pylist(),
            expected=f"{ts} non-decreasing in {seq} order")

    return out.map_batches(emit, batch_format="pyarrow", batch_size=None)


@register("drift_exact")
def check_drift_exact(ctx: RunContext, value: str = "", side: str = "",
                      a: str = "", b: str = "", ks_threshold: str = "0.1"):
    """Exact two-slice KS drift (DRIFT-102): the SQL-checkable tier —
    compares ``value``'s distribution between rows where side==a and
    side==b (codec cohorts, time buckets, sources).  Use the sketch
    `drift` check for continuous columns / baseline profiles."""
    from ..stages.base_ids import DRIFT_102
    from .drift import exact_ks

    names = set(ctx.meta_ds.schema().names)
    if not (value and side and {value, side} <= names):
        return None
    ks = exact_ks(ctx.meta_ds, value, side, a, b)
    if ks <= float(ks_threshold):
        return empty_violations()
    return make_violations(
        DRIFT_102, [f"{side}={a} vs {side}={b}"], value, [f"ks={ks:.4f}"],
        expected=f"exact KS <= {ks_threshold}")
