"""End-to-end golden test: the validation suite must reproduce the
seeded-defect ledger of the synthetic clips table exactly
(FIXTURES.md F1/F2 — pass/fail + violation rows)."""

import numpy as np
import pytest
import ray.data

from osf_data_validator_tool_ray.pipelines.runner import run_suite
from osf_data_validator_tool_ray.spec import clips_spec
from osf_data_validator_tool_ray.synth import synth_clips, synth_refs


@pytest.fixture(scope="module")
def suite_result():
    table, ledger = synth_clips(600, seed=42, defect_rate=0.03)
    refs, dangling = synth_refs(table, seed=42)
    ds = ray.data.from_arrow(table).repartition(4)
    refs_ds = ray.data.from_arrow(refs).repartition(2)
    res = run_suite(ds, clips_spec(), refs={"refs": refs_ds})
    violations = res.violations.to_pandas()
    return table, ledger, dangling, res, violations


def _keys(violations, check_id, column=None):
    v = violations[violations.check_id == check_id]
    if column is not None:
        v = v[v["column"] == column]
    return set(v["key"].dropna())


def test_ledger_reproduced(suite_result):
    table, ledger, dangling, res, v = suite_result

    # facet violations
    assert set(ledger["bad_clip_id"]) <= _keys(v, "DATATYPE-FACET-101", "clip_id")
    assert set(ledger["dur_out_of_bounds"]) <= _keys(v, "DATATYPE-FACET-101", "dur_ms")
    assert set(ledger["empty_transcript"]) <= _keys(v, "DATATYPE-FACET-101", "transcript")
    assert set(ledger["ws_transcript"]) <= _keys(v, "DATATYPE-FACET-101", "transcript")

    # enum / cross-column domains
    assert set(ledger["unknown_codec"]) == _keys(v, "ENUM-DOMAIN-100", "codec")
    assert set(ledger["bad_sr_for_codec"]) == _keys(v, "CROSS-DOMAIN-100", "sr_hz")

    # cardinality: duplicate primary keys
    assert set(ledger["dup_clip_id"]) == _keys(v, "CARD-MAX-100", "clip_id")

    # min-cardinality on non-empty transcript (null + empty both count 0)
    missing_t = set(ledger["null_transcript"]) | set(ledger["empty_transcript"])
    assert missing_t <= _keys(v, "CARD-MIN-100", "transcript")

    # universal payload checks
    only = _keys(v, "ONLY-100", "bytes_matches_codec")
    assert set(ledger["truncated_bytes"]) <= only
    assert set(ledger["wrong_container"]) <= only
    assert set(ledger["len_mismatch"]) <= _keys(v, "ONLY-100", "frames_match_dur")

    # existential: truncated payloads have zero decodable rows
    assert set(ledger["truncated_bytes"]) <= _keys(v, "SOME-100", "decodable_bytes")

    # referential integrity: exactly the seeded dangling keys
    assert set(dangling) == _keys(v, "REF-EXISTENCE-100", "clip_id")


def test_no_false_positives_on_clean_rows(suite_result):
    table, ledger, dangling, res, v = suite_result
    planted = set().union(*ledger.values()) | set(dangling)
    flagged = set(v["key"].dropna())
    unexplained = flagged - planted
    # duplicate keys flag the *kept* id which equals the dup target already
    # in the ledger; everything flagged must be planted
    assert unexplained == set(), unexplained


def test_report_shape(suite_result):
    _, _, _, res, _ = suite_result
    rep = res.report()
    assert rep["pass"] is False
    assert rep["checks"]["CARD-MAX-100"]["n_violations"] >= 1
    assert rep["checks"]["SCHEMA-COLUMN-100"]["pass"] is True


def test_decode_fused_suite_matches_sniff_suite(suite_result):
    """decode=True (the payload decoded in the suite's one scan) must reproduce
    every check outcome of the sniff-based path, plus DECODE-10x."""
    table, ledger, dangling, res, v_sniff = suite_result
    refs, _ = synth_refs(table, seed=42)
    ds = ray.data.from_arrow(table).repartition(4)
    res2 = run_suite(ds, clips_spec(), refs={"refs": ray.data.from_arrow(refs)},
                     decode=True)
    v = res2.violations.to_pandas()

    for check in ("DATATYPE-FACET-101", "ENUM-DOMAIN-100", "CROSS-DOMAIN-100",
                  "CARD-MAX-100", "CARD-MIN-100", "REF-EXISTENCE-100"):
        assert _keys(v, check) == _keys(v_sniff, check), check
    # universal + existential outcomes identical (decode subsumes sniff)
    assert _keys(v, "ONLY-100", "bytes_matches_codec") == \
        _keys(v_sniff, "ONLY-100", "bytes_matches_codec")
    assert _keys(v, "ONLY-100", "frames_match_dur") == \
        _keys(v_sniff, "ONLY-100", "frames_match_dur")
    assert _keys(v, "SOME-100", "decodable_bytes") == \
        _keys(v_sniff, "SOME-100", "decodable_bytes")
    # and the decode-only findings appear
    assert set(ledger["truncated_bytes"]) <= _keys(v, "DECODE-100")
    assert set(ledger["wrong_container"]) <= _keys(v, "DECODE-101", "codec")


@pytest.mark.parametrize("decode", [False, True])
def test_suite_reads_each_input_row_once(tmp_path, decode):
    """run_suite plus its report scan the input once: every row passes
    the counting map exactly once.  The schema (which read_parquet knows
    from file footers) is fetched and cached before counting starts."""
    table, _ = synth_clips(300, seed=5, defect_rate=0.05)
    refs, _ = synth_refs(table, seed=5)

    def count(t, seen=str(tmp_path)):
        import os
        import uuid
        with open(os.path.join(seen, uuid.uuid4().hex), "w") as f:
            f.write(str(t.num_rows))
        return t

    ds = ray.data.from_arrow(table).repartition(3).map_batches(
        count, batch_format="pyarrow")
    ds.schema()
    for f in tmp_path.iterdir():
        f.unlink()
    run_suite(ds, clips_spec(), refs={"refs": ray.data.from_arrow(refs)},
              decode=decode).report()
    assert sum(int(f.read_text()) for f in tmp_path.iterdir()) == table.num_rows


def test_clean_table_passes():
    table, _ = synth_clips(200, seed=7, defect_rate=0.0)
    ds = ray.data.from_arrow(table).repartition(2)
    res = run_suite(ds, clips_spec())
    assert res.violations.num_rows == 0
    assert res.report()["pass"] is True


def test_speaking_rate_universal():
    """Cross-modal (audio ↔ transcript) consistency: a spec declaring
    the speaking_rate_ok universal flags rows whose transcript length
    is implausible for the clip duration, and nothing else."""
    import pandas as pd
    import ray.data

    from osf_data_validator_tool_ray.pipelines.runner import run_suite
    from osf_data_validator_tool_ray.spec import ConstraintSpec, Universal

    df = pd.DataFrame({
        "clip_id": ["a", "b", "c", "d", "e"],
        "dur_ms": [1000, 1000, 2000, 500, 1000],
        "transcript": ["twenty chars of text",     # 20 cps: fine
                       "x" * 900,                  # 900 cps: absurd
                       "",                         # empty: not evaluable
                       "hi",                       # 4 cps: fine
                       "y" * 30],                  # 30 cps: fine
    })
    spec = ConstraintSpec(table="clips", key_column="clip_id",
                          universals=[Universal(predicate="speaking_rate_ok")])
    res = run_suite(ray.data.from_pandas(df).repartition(2), spec)
    v = res.violations.to_pandas()
    only = v[(v["check_id"] == "ONLY-100") & (v["severity"] == "error")]
    assert only["key"].tolist() == ["b"]


@pytest.mark.parametrize("decode", [False, True])
def test_odd_length_16bit_payload_fails_closed(decode):
    """A 16-bit data chunk of odd length is one undecodable row, not a
    crashed run: decode reports DECODE-100, the sniff ONLY-100
    bytes_matches_codec, and every other row's findings are unchanged."""
    import pyarrow as pa

    from osf_data_validator_tool_ray import audio

    table, ledger = synth_clips(80, seed=3, defect_rate=0.1)
    planted = {k for keys in ledger.values() for k in keys}
    codecs = table.column("codec").to_pylist()
    ids = table.column("clip_id").to_pylist()
    i = next(j for j in range(table.num_rows)
             if codecs[j] == "pcm_s16le" and ids[j] not in planted)
    sr = table.column("sr_hz")[i].as_py()
    payloads = table.column("bytes").to_pylist()
    payloads[i] = audio._wav_header(audio.WAVE_FORMAT_PCM, 1, sr, 16, 3) + b"\0\1\2"
    hostile = table.set_column(table.schema.get_field_index("bytes"), "bytes",
                               pa.array(payloads, type=pa.binary()))

    def run(t):
        res = run_suite(ray.data.from_arrow(t).repartition(2), clips_spec(),
                        decode=decode)
        v = res.violations.to_pandas()
        return v, sorted(map(tuple, v[v.key != ids[i]][["check_id", "column", "key"]]
                             .astype(str).values))

    v, others = run(hostile)
    if decode:
        assert ids[i] in _keys(v, "DECODE-100")
    else:
        assert ids[i] in _keys(v, "ONLY-100", "bytes_matches_codec")
    assert others == run(table)[1]
