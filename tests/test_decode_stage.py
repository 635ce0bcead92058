"""The per-row parity invariant (BASELINE.json input_hint): the Ray
decode path's per-row output must match a naive independent oracle
decoder row by row — decoded-PCM allclose (SNR >= 30 dB; bit-exact here)
plus transcript equality."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from osf_data_validator_tool_ray import audio
from osf_data_validator_tool_ray.checks.predicates import decodable_bytes
from osf_data_validator_tool_ray.stages.decode_stage import (
    AudioDecodeValidator, BytesSuitePass, bytes_suite_pass)
from osf_data_validator_tool_ray.synth import synth_clips
from tests.test_audio import naive_decode, _naive_ulaw
import struct


def naive_decode_ints(buf: bytes):
    """Independent scalar integer-domain oracle decoder."""
    assert buf[:4] == b"RIFF" and buf[8:12] == b"WAVE"
    pos = 12
    fmt = None
    while pos + 8 <= len(buf):
        cid = buf[pos:pos + 4]
        (clen,) = struct.unpack_from("<I", buf, pos + 4)
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", buf, pos + 8)
        elif cid == b"data":
            raw = buf[pos + 8: pos + 8 + clen]
            if len(raw) < clen:
                raise ValueError("truncated data chunk")
            tag, _ch, sr, _br, _ba, bits = fmt
            if tag == 1 and bits == 16:
                vals = np.array([struct.unpack_from("<h", raw, i)[0]
                                 for i in range(0, len(raw) - 1, 2)], dtype=np.int16)
            elif tag == 1 and bits == 8:
                vals = np.frombuffer(raw, dtype=np.uint8)
            elif tag == 7 and bits == 8:
                vals = np.array([_naive_ulaw(b) for b in raw], dtype=np.int16)
            else:
                raise ValueError("unsupported")
            return vals, sr
        pos += 8 + clen + (clen & 1)
    raise ValueError("no data")


@pytest.fixture(scope="module")
def stats_and_table():
    table, ledger = synth_clips(120, seed=11, defect_rate=0.05, max_dur_ms=600)
    ds = ray.data.from_arrow(table).repartition(3)
    stats = ds.select_columns(["clip_id", "bytes"]).map_batches(
        AudioDecodeValidator(), batch_format="pyarrow", batch_size=32).to_pandas()
    transcripts = ds.select_columns(["clip_id", "transcript"]).to_pandas()
    return table, ledger, stats, transcripts


def test_per_row_parity_vs_naive_oracle(stats_and_table):
    table, _, stats, transcripts = stats_and_table
    assert list(stats.columns) == ["clip_id", "decoded_ok", "frames",
                                   "payload_sr_hz", "payload_codec", "error"]
    by_id = {}
    for _, r in stats.iterrows():
        by_id.setdefault(r["clip_id"], []).append(r)
    n_checked = 0
    for i in range(table.num_rows):
        cid = table.column("clip_id")[i].as_py()
        buf = table.column("bytes")[i].as_py()
        try:
            ints, sr = naive_decode_ints(buf)
            oracle = (True, len(ints), sr)
        except Exception:
            oracle = (False,)
        if oracle[0]:
            # bit-exact integer PCM => allclose with SNR = inf >= 30 dB
            eng = audio.decode_ints(buf)[0]
            assert np.array_equal(eng, ints)
            snr = audio.snr_db(ints.astype(np.float64), eng.astype(np.float64))
            assert snr >= 30.0 or np.isinf(snr)
        # the stats row of this payload (dup clip_ids -> several rows)
        got = [(True, r["frames"], r["payload_sr_hz"]) if r["decoded_ok"]
               else (False,) for r in by_id[cid]]
        assert oracle in got, cid
        n_checked += 1
    assert n_checked == table.num_rows
    # transcript equality: the Dataset's rows against the source table's
    source = sorted(zip(table.column("clip_id").to_pylist(),
                        table.column("transcript").to_pylist()), key=repr)
    got = sorted(((r.clip_id, None if pd.isna(r.transcript) else r.transcript)
                  for r in transcripts.itertuples()), key=repr)
    assert got == source


def test_decode_violations_catch_ledger(stats_and_table):
    table, ledger, _, _ = stats_and_table
    ds = ray.data.from_arrow(table).repartition(3)
    v = bytes_suite_pass(ds)[0].to_pandas()
    k = lambda cid_list, check, col=None: set(cid_list) <= set(
        v[(v.check_id == check) & ((v["column"] == col) if col else True)]["key"])
    assert k(ledger["truncated_bytes"], "DECODE-100")
    assert k(ledger["wrong_container"], "DECODE-101", "codec")
    assert k(ledger["len_mismatch"], "DECODE-101", "dur_ms")


def test_decode_stats_frames_sane(stats_and_table):
    _, _, stats, _ = stats_and_table
    ok = stats[stats.decoded_ok]
    assert (ok["frames"] > 0).all()


def test_large_binary_payloads_match_binary():
    """The same payloads as binary and as large_binary give identical
    findings: the views read each type's own offset width."""
    table, _ = synth_clips(40, seed=4, defect_rate=0.1, max_dur_ms=400)
    large = table.set_column(table.schema.get_field_index("bytes"), "bytes",
                             table.column("bytes").cast(pa.large_binary()))
    body = BytesSuitePass()
    v, ok = body.findings(table)
    v_large, ok_large = body.findings(large)
    assert v_large.equals(v) and np.array_equal(ok_large, ok)
    assert np.array_equal(decodable_bytes(large), decodable_bytes(table))
    with pytest.raises(TypeError):
        audio.binary_views(pa.array(["not a payload"]))
