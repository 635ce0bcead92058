"""FIXTURES.md F3: drift baseline — a shifted dur_ms distribution must
trip the KS drift check; same-distribution data must not."""

import base64
import json
import pickle

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from osf_data_validator_tool_ray.checks.drift import (
    TableProfile,
    build_profile,
    drift_violations,
)
from osf_data_validator_tool_ray.functions.sketches import KLL
from osf_data_validator_tool_ray.synth import synth_clips


def _profile(table):
    ds = ray.data.from_arrow(table.select(["clip_id", "sr_hz", "dur_ms", "codec"])).repartition(3)
    return build_profile(ds, numeric_cols=["dur_ms"], cat_cols=["codec", "sr_hz"],
                        key_cols=["clip_id"])


def test_no_drift_same_distribution():
    base, _ = synth_clips(800, seed=43, defect_rate=0.0)
    cur, _ = synth_clips(800, seed=42, defect_rate=0.0)
    v = drift_violations(_profile(cur), _profile(base)).to_pandas()
    assert len(v) == 0, v


def test_drift_detected_on_shifted_durations():
    base, _ = synth_clips(800, seed=43, defect_rate=0.0)
    shifted, _ = synth_clips(800, seed=44, defect_rate=0.0)
    # scale dur_ms by 1.3 (distribution shift)
    dur = (shifted.column("dur_ms").to_numpy() * 1.3).astype(np.int32)
    shifted = shifted.set_column(shifted.schema.get_field_index("dur_ms"),
                                 "dur_ms", pa.array(dur, type=pa.int32()))
    v = drift_violations(_profile(shifted), _profile(base)).to_pandas()
    assert "DRIFT-100" in set(v.check_id)
    assert "dur_ms" in set(v["column"])


def test_categorical_psi_drift():
    base, _ = synth_clips(600, seed=43, defect_rate=0.0)
    skewed, _ = synth_clips(600, seed=44, defect_rate=0.0)
    codecs = pa.array(["ulaw"] * skewed.num_rows, type=pa.string())
    skewed = skewed.set_column(skewed.schema.get_field_index("codec"), "codec", codecs)
    v = drift_violations(_profile(skewed), _profile(base)).to_pandas()
    assert any((v.check_id == "DRIFT-100") & (v["column"] == "codec"))


def test_profile_roundtrip():
    base, _ = synth_clips(300, seed=43, defect_rate=0.0)
    p = _profile(base)
    p2 = TableProfile.from_json(p.to_json())
    assert p2.n_rows == p.n_rows
    assert abs(p2.distinct["clip_id"].estimate() - p.distinct["clip_id"].estimate()) < 1
    qs = [0.01, 0.1, 0.5, 0.9, 0.99]
    assert isinstance(p2.numeric["dur_ms"], KLL)
    assert (p2.numeric["dur_ms"].quantile(qs) == p.numeric["dur_ms"].quantile(qs)).all()
    assert p2.numeric["dur_ms"].to_bytes() == p.numeric["dur_ms"].to_bytes()
    assert p2.categorical == p.categorical


class _OpensAFile:
    """Unpickling this opens (creates) ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def test_profile_load_runs_no_pickle(tmp_path):
    """A baseline profile is outside input: a sketch blob that is a
    pickle raises ValueError and its payload never runs, with or without
    the format field."""
    target = tmp_path / "pwned"
    blob = base64.b64encode(pickle.dumps(_OpensAFile(str(target)))).decode()
    docs = [{"n_rows": 1, "numeric": {}, "categorical": {}, "distinct": {},
             kind: {"x": blob}} for kind in ("numeric", "distinct")]
    for doc in docs:
        with pytest.raises(ValueError):
            TableProfile.from_json(json.dumps(doc))
        assert not target.exists()
    from osf_data_validator_tool_ray.checks.drift import PROFILE_FORMAT

    for doc in docs:
        with pytest.raises(ValueError, match="not a"):
            TableProfile.from_json(json.dumps({**doc, "format": PROFILE_FORMAT}))
        assert not target.exists()


def test_old_or_malformed_profile_is_refused():
    """A profile without the format field (the StreamHist one), of
    another format, or with a bad sketch raises ValueError naming the
    format; none is misread."""
    from osf_data_validator_tool_ray.checks.drift import PROFILE_FORMAT

    base, _ = synth_clips(300, seed=43, defect_rate=0.0)
    good = json.loads(_profile(base).to_json())
    old = {k: v for k, v in good.items() if k != "format"}
    with pytest.raises(ValueError, match="StreamHist"):
        TableProfile.from_json(json.dumps(old))
    with pytest.raises(ValueError, match="'drift-profile/1'"):
        TableProfile.from_json(json.dumps({**good, "format": "drift-profile/1"}))
    sketch = base64.b64decode(good["numeric"]["dur_ms"])
    for bad in ({**good, "numeric": {"dur_ms": base64.b64encode(sketch[:-8]).decode()}},
                {**good, "numeric": {"dur_ms": "not base64!"}},
                {k: v for k, v in good.items() if k != "distinct"},
                [PROFILE_FORMAT]):
        with pytest.raises(ValueError):
            TableProfile.from_json(json.dumps(bad))


def test_int_categories_keep_their_type_when_a_batch_holds_nulls():
    """An int column with nulls in the current batches only is counted
    under the same keys as the baseline's ("16000", not "16000.0"), so
    the same distribution shows no PSI drift."""
    rng = np.random.default_rng(5)
    rates = rng.choice([8000, 16000, 44100], size=20_000, p=[0.2, 0.5, 0.3])
    nulls = rng.random(20_000) < 0.01
    base = pa.table({"sr_hz": pa.array(rates, type=pa.int32())})
    cur = pa.table({"sr_hz": pa.array(rates, type=pa.int32(), mask=nulls)})
    prof = [build_profile(ray.data.from_arrow(t).repartition(4), [], ["sr_hz"])
            for t in (cur, base)]
    assert set(prof[0].categorical["sr_hz"]) == {"8000", "16000", "44100"}
    assert sum(prof[0].categorical["sr_hz"].values()) == 20_000 - nulls.sum()
    assert len(drift_violations(*prof)) == 0


def test_grouped_drift_flags_only_shifted_slice():
    """Per-slice drift: shift ONE group's distribution; only that slice
    gets DRIFT-101, and a slice missing from current gets DRIFT-50."""
    import numpy as np
    import pandas as pd
    import ray.data

    from osf_data_validator_tool_ray.checks.drift import (
        build_profiles_by_group,
        grouped_drift_violations,
    )

    rng = np.random.default_rng(17)
    base_df = pd.DataFrame({
        "codec": ["a"] * 2000 + ["b"] * 2000 + ["c"] * 500,
        "dur": np.concatenate([rng.normal(100, 10, 2000),
                               rng.normal(200, 20, 2000),
                               rng.normal(50, 5, 500)]),
    })
    cur_df = pd.DataFrame({
        "codec": ["a"] * 2000 + ["b"] * 2000,
        "dur": np.concatenate([rng.normal(100, 10, 2000),     # unchanged
                               rng.normal(400, 20, 2000)]),   # shifted
    })
    base = build_profiles_by_group(
        ray.data.from_pandas(base_df).repartition(3), "codec", ["dur"])
    cur = build_profiles_by_group(
        ray.data.from_pandas(cur_df).repartition(4), "codec", ["dur"])
    v = grouped_drift_violations(cur, base).to_pandas()
    drifted = set(v[v.check_id == "DRIFT-101"]["key"])
    assert drifted == {"b"}
    warned = set(v[v.check_id == "DRIFT-50"]["key"])
    assert warned == {"c"}          # slice vanished from current
