"""Voice-activity (VAD) stage: kernel, stage, violations, registry."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from osf_data_validator_tool_ray.audio import (
    encode,
    speech_stats,
    vad_segments,
)


SR = 8000
FLEN = 160          # 20 ms frames


def _pcm(frames: int) -> np.ndarray:
    return np.zeros(frames * FLEN, dtype=np.float32)


def _burst(pcm: np.ndarray, start_fr: int, len_fr: int,
           freq: float = 440.0, amp: float = 0.5) -> None:
    t = np.arange(len_fr * FLEN, dtype=np.float32) / SR
    pcm[start_fr * FLEN:(start_fr + len_fr) * FLEN] = \
        amp * np.sin(2 * np.pi * freq * t)


def test_vad_segments_exact_grid():
    pcm = _pcm(60)
    _burst(pcm, 5, 8)
    _burst(pcm, 30, 10)
    segs = vad_segments(pcm, SR)
    assert segs.tolist() == [[100, 260], [600, 800]]


def test_vad_gap_closing_and_min_speech():
    pcm = _pcm(60)
    # two bursts separated by a 2-frame (40 ms <= max_gap 60 ms) gap:
    # closed into ONE segment
    _burst(pcm, 5, 4)
    _burst(pcm, 11, 4)
    # an isolated 2-frame (40 ms < min_speech 60 ms) blip: dropped
    _burst(pcm, 40, 2)
    segs = vad_segments(pcm, SR)
    assert segs.tolist() == [[100, 300]]
    # with gap closing off, the two bursts stay separate
    segs2 = vad_segments(pcm, SR, max_gap_ms=0)
    assert segs2.tolist() == [[100, 180], [220, 300]]


def test_speech_stats_fields():
    pcm = _pcm(60)
    _burst(pcm, 5, 8)
    _burst(pcm, 30, 10)
    s = speech_stats(pcm, SR)
    assert s == {"n_segments": 2, "speech_ms": 360, "total_ms": 1200,
                 "lead_silence_ms": 100, "trail_silence_ms": 400,
                 "longest_silence_ms": 400}
    silent = speech_stats(_pcm(50), SR)
    assert silent["n_segments"] == 0
    assert silent["speech_ms"] == 0
    assert silent["longest_silence_ms"] == 1000


def test_vad_stage_and_violations():
    from osf_data_validator_tool_ray.stages.vad_stage import (
        vad_stats,
        vad_violations,
    )

    rows = []
    # c0: normal speech + plausible transcript
    pcm = _pcm(60)
    _burst(pcm, 2, 40)
    rows.append({"clip_id": "c0", "bytes": encode(pcm, SR, "pcm_s16le"),
                 "transcript": "hello there this is fine"})
    # c1: silent but transcribed -> VAD-100 + VAD-101
    rows.append({"clip_id": "c1", "bytes": encode(_pcm(60), SR, "pcm_s16le"),
                 "transcript": "ghost words"})
    # c2: tiny speech (2 frames kept off by min_speech? use 4 frames =
    # 80ms over 1200ms -> ratio 0.067 < 0.2) -> VAD-100; and a huge
    # transcript over 80ms speech -> VAD-102 (cps = 400/0.08 = 5000)
    pcm2 = _pcm(60)
    _burst(pcm2, 10, 4)
    rows.append({"clip_id": "c2", "bytes": encode(pcm2, SR, "pcm_s16le"),
                 "transcript": "x" * 400})
    # c3: undecodable -> carried, no VAD violations
    rows.append({"clip_id": "c3", "bytes": b"not audio",
                 "transcript": "whatever"})
    ds = ray.data.from_items(rows).repartition(2)
    stats = vad_stats(ds).to_pandas().set_index("clip_id")
    assert bool(stats.loc["c0", "decoded_ok"])
    assert stats.loc["c0", "n_segments"] == 1
    assert stats.loc["c1", "speech_ms"] == 0
    assert not bool(stats.loc["c3", "decoded_ok"])
    assert stats.loc["c3", "error"]

    viol = vad_violations(
        vad_stats(ds), min_speech_ratio=0.2).to_pandas()
    got = set(map(tuple, viol[["check_id", "key"]].to_numpy()))
    assert ("VAD-100", "c1") in got
    assert ("VAD-101", "c1") in got
    assert ("VAD-100", "c2") in got
    assert ("VAD-102", "c2") in got
    assert not any(k == "c0" or k == "c3" for _, k in got)


def test_vad_registry_entry():
    from osf_data_validator_tool_ray.checks.registry import (
        CHECKS,
        RunContext,
        plan_checks,
    )
    from osf_data_validator_tool_ray.spec import clips_spec

    assert "vad" in CHECKS
    pcm = _pcm(60)
    _burst(pcm, 2, 10)      # 200ms / 1200ms = 0.167 speech ratio
    ds = ray.data.from_items([
        {"clip_id": "a", "bytes": encode(pcm, SR, "pcm_s16le"),
         "transcript": "short"}])
    ctx = RunContext(ds=ds, spec=clips_spec())
    rep = plan_checks(ctx, ["vad?min_speech_ratio=0.5"]).report()
    assert rep["violations"].get("VAD-100") == 1 and rep["pass"] is False
    # with the default 0.2 threshold raised away, a permissive config
    # passes the same clip
    rep2 = plan_checks(ctx, ["vad?min_speech_ratio=0.1"]).report()
    assert "VAD-100" not in rep2["violations"]


def test_trim_silence_roundtrip_exact():
    """Trimmed payload decodes to EXACTLY the sliced PCM (sample-
    boundary slice + same-codec re-encode), silence accounting adds
    up, and silent/undecodable clips pass through untouched."""
    from osf_data_validator_tool_ray.audio import decode
    from osf_data_validator_tool_ray.stages.vad_stage import trim_silence

    pcm = _pcm(60)
    _burst(pcm, 5, 8)
    _burst(pcm, 30, 10)
    enc = encode(pcm, SR, "pcm_s16le")
    silent = encode(_pcm(60), SR, "pcm_s16le")
    ds = ray.data.from_items([
        {"clip_id": "t0", "bytes": enc},
        {"clip_id": "t1", "bytes": silent},
        {"clip_id": "t2", "bytes": b"junk"},
    ])
    out = trim_silence(ds).to_pandas().set_index("clip_id")
    assert bool(out.loc["t0", "trimmed"])
    assert out.loc["t0", "trimmed_lead_ms"] == 100
    assert out.loc["t0", "trimmed_trail_ms"] == 400
    assert out.loc["t0", "out_ms"] == 700
    got, sr2 = decode(out.loc["t0", "bytes"])
    ref, _ = decode(enc)
    lo, hi = int(0.1 * SR), int(0.8 * SR)
    assert sr2 == SR and np.array_equal(got, ref[lo:hi])
    # keep_ms pads the slice
    out2 = trim_silence(ds, keep_ms=40).to_pandas().set_index("clip_id")
    assert out2.loc["t0", "trimmed_lead_ms"] == 60
    assert out2.loc["t0", "out_ms"] == 780
    # silent + undecodable pass through byte-identical
    assert not bool(out.loc["t1", "trimmed"])
    assert bytes(out.loc["t1", "bytes"]) == silent
    assert not bool(out.loc["t2", "trimmed"])
    assert bytes(out.loc["t2", "bytes"]) == b"junk"


def test_vad_stage_partitioning_invariant():
    from osf_data_validator_tool_ray.stages.vad_stage import vad_stats

    rng = np.random.default_rng(3)
    rows = []
    for i in range(24):
        pcm = _pcm(60)
        for b in range(rng.integers(0, 3)):
            _burst(pcm, int(rng.integers(0, 25)) + b * 25,
                   int(rng.integers(4, 10)), freq=300.0 + 20 * b)
        rows.append({"clip_id": f"r{i:02d}",
                     "bytes": encode(pcm, SR, "pcm_s16le")})
    a = vad_stats(ray.data.from_items(rows).repartition(1),
                  batch_size=64).to_pandas() \
        .sort_values("clip_id").reset_index(drop=True)
    b = vad_stats(ray.data.from_items(rows).repartition(6),
                  batch_size=4).to_pandas() \
        .sort_values("clip_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
