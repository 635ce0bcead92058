"""Config-driven check selection (dvt.ini analog): named checks with
query-string params, planned over a RunContext."""

import pyarrow as pa
import pytest
import ray.data

from osf_data_validator_tool_ray.checks.registry import (
    CHECKS,
    RunContext,
    parse_check_entry,
    plan_checks,
)
from osf_data_validator_tool_ray.spec import clips_spec
from osf_data_validator_tool_ray.synth import synth_clips, synth_refs


def _rows(res):
    """Every violation row of a plan_checks result, driver-side ones
    included, as one DataFrame."""
    import pandas as pd
    return pd.concat([res.driver_violations.to_pandas(), res.violations.to_pandas()],
                     ignore_index=True)


def test_parse_check_entry():
    assert parse_check_entry("decode?profile=full&batch_size=64") == (
        "decode", {"profile": "full", "batch_size": "64"})
    assert parse_check_entry("stateless") == ("stateless", {})


def test_unknown_check_raises():
    t, _ = synth_clips(20, seed=1, defect_rate=0.0)
    ctx = RunContext(ds=ray.data.from_arrow(t), spec=clips_spec())
    with pytest.raises(KeyError):
        plan_checks(ctx, ["no_such_check"])


def test_configured_run_matches_ledger():
    t, ledger = synth_clips(300, seed=42, defect_rate=0.03)
    refs, dangling = synth_refs(t, seed=42)
    ctx = RunContext(ds=ray.data.from_arrow(t).repartition(3), spec=clips_spec(),
                     refs={"refs": ray.data.from_arrow(refs)})
    v = _rows(plan_checks(ctx, [
        "schema", "spec_completeness",
        "stateless?include_universals=false&skip_bytes=true",
        "decode?profile=light",
        "keyed?include_existentials=false",
    ]))
    assert set(ledger["unknown_codec"]) <= set(v[v.check_id == "ENUM-DOMAIN-100"]["key"])
    assert set(ledger["dup_clip_id"]) <= set(v[v.check_id == "CARD-MAX-100"]["key"])
    assert set(ledger["truncated_bytes"]) <= set(v[v.check_id == "DECODE-100"]["key"])
    assert set(dangling) == set(v[v.check_id == "REF-EXISTENCE-100"]["key"])


def test_registry_contains_core_checks():
    assert {"schema", "spec_completeness", "stateless", "keyed",
            "decode", "drift"} <= set(CHECKS)


def test_registry_reconcile_and_sequence_order():
    import pandas as pd
    import ray.data

    from osf_data_validator_tool_ray.checks.registry import (
        RunContext, plan_checks)
    from osf_data_validator_tool_ray.spec import clips_spec

    fact = pd.DataFrame({"k": [1, 1, 2], "v": [5.0, 5.0, 9.0],
                         "seq": [1, 2, 1],
                         "ts": pd.to_datetime([20, 10, 30], unit="s")})
    refs = {"totals": ray.data.from_pandas(
        pd.DataFrame({"rk": [1, 2], "total": [10.0, 20.0]}))}
    ctx = RunContext(ds=ray.data.from_pandas(fact), spec=clips_spec(),
                     refs=refs)
    v = _rows(plan_checks(ctx, [
        "reconcile?ref=totals&key=k&value=v&ref_key=rk&target=total&tol=0.1",
        "sequence_order?key=k&ts=ts&seq=seq",
    ]))
    got = sorted(zip(v["check_id"], v["key"]))
    # k=2: 9 vs 20; k=1: seq2 ts10 < ts20
    assert got == [("RECONCILE-100", "2"), ("SEQ-ORDER-100", "1")]


def test_registry_report_covers_registry_ids():
    """A registry-only id fails the shared report: it is listed under
    ``checks`` and flips ``pass``."""
    import pandas as pd

    fact = pd.DataFrame({"k": [1, 1], "seq": [1, 2],
                         "ts": pd.to_datetime([20, 10], unit="s")})
    ctx = RunContext(ds=ray.data.from_pandas(fact), spec=clips_spec())
    rep = plan_checks(ctx, ["sequence_order?key=k&ts=ts&seq=seq"]).report()
    assert rep["checks"]["SEQ-ORDER-100"] == {
        "pass": False, "n_violations": 1, "n_warnings": 0}
    assert rep["violations"] == {"SEQ-ORDER-100": 1}
    assert rep["pass"] is False


def test_registry_drift_exact():
    import numpy as np
    import pandas as pd
    import ray.data

    from osf_data_validator_tool_ray.checks.registry import (
        RunContext, plan_checks)
    from osf_data_validator_tool_ray.spec import clips_spec

    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "v": np.concatenate([rng.integers(0, 10, 2000),      # cohort A
                             rng.integers(5, 15, 2000)]),    # shifted B
        "cohort": ["a"] * 2000 + ["b"] * 2000,
    })
    ctx = RunContext(ds=ray.data.from_pandas(df).repartition(3),
                     spec=clips_spec())
    v = _rows(plan_checks(ctx, ["drift_exact?value=v&side=cohort&a=a&b=b"
                                "&ks_threshold=0.1"]))
    assert v["check_id"].tolist() == ["DRIFT-102"]
    # identical cohorts: below threshold -> no violation
    df2 = pd.DataFrame({"v": np.tile(rng.integers(0, 10, 2000), 2),
                        "cohort": ["a"] * 2000 + ["b"] * 2000})
    ctx2 = RunContext(ds=ray.data.from_pandas(df2), spec=clips_spec())
    assert len(_rows(plan_checks(ctx2, ["drift_exact?value=v&side=cohort&a=a&b=b"]))) == 0


def test_registry_image_check():
    """`image?backend=png` plugs the real PNG/BMP decode stage into the
    reference-style check registry: corrupted payloads -> IMG-DECODE-100,
    clean payloads -> no violations, absent columns -> inapplicable."""
    import numpy as np
    import pandas as pd
    import ray.data

    from osf_data_validator_tool_ray.checks.registry import (
        RunContext, plan_checks)
    from osf_data_validator_tool_ray.imaging import encode_bmp, encode_png
    from osf_data_validator_tool_ray.spec import clips_spec

    y, x = np.mgrid[0:12, 0:16]
    px = np.stack([(x * 3) % 256, (y * 5) % 256, (x + y) % 256],
                  axis=2).astype(np.uint8)
    rows = []
    for i in range(20):
        buf = encode_bmp(px) if i % 2 else encode_png(px, i % 5)
        if i % 7 == 0:
            buf = buf[: len(buf) // 2]
        rows.append({"image_id": f"img{i:03d}", "bytes": buf})
    ctx = RunContext(ds=ray.data.from_pandas(pd.DataFrame(rows)),
                     spec=clips_spec())
    v = _rows(plan_checks(ctx, ["image?backend=png&batch_size=8"]))
    bad = sorted(v[v["check_id"] == "IMG-DECODE-100"]["key"])
    assert bad == [f"img{i:03d}" for i in range(20) if i % 7 == 0]
    # table without image columns -> check not applicable
    ctx2 = RunContext(ds=ray.data.from_pandas(
        pd.DataFrame({"a": [1]})), spec=clips_spec())
    assert len(_rows(plan_checks(ctx2, ["image"]))) == 0
