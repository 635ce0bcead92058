"""The per-row parity invariant (BASELINE.json input_hint): the Ray
decode path's per-row output must match a naive independent oracle
decoder row by row — decoded-PCM allclose (SNR >= 30 dB; bit-exact here)
plus transcript equality."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from osf_data_validator_tool_ray import audio
from osf_data_validator_tool_ray.stages.decode_stage import (
    AudioDecodeValidator, bytes_suite_pass)
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
    stats = ds.select_columns(["clip_id", "bytes", "transcript"]).map_batches(
        AudioDecodeValidator(), batch_format="pyarrow", batch_size=32).to_pandas()
    return table, ledger, stats


def test_per_row_parity_vs_naive_oracle(stats_and_table):
    table, ledger, stats = stats_and_table
    stats = stats.set_index(stats.index)
    by_id = {}
    for _, r in stats.iterrows():
        by_id.setdefault(r["clip_id"], []).append(r)
    n_checked = 0
    for i in range(table.num_rows):
        cid = table.column("clip_id")[i].as_py()
        buf = table.column("bytes")[i].as_py()
        transcript = table.column("transcript")[i].as_py()
        rows = by_id[cid]
        try:
            ints, sr = naive_decode_ints(buf)
            oracle_md5 = hashlib.md5(ints.tobytes()).hexdigest()
            oracle_ok = True
        except Exception:
            oracle_ok = False
        # find the matching stats row (dup clip_ids -> several rows)
        matched = False
        for r in rows:
            if oracle_ok and r["decoded_ok"] and r["pcm_md5"] == oracle_md5:
                # identical integer PCM => allclose with SNR = inf >= 30 dB
                eng = audio.decode_ints(buf)[0]
                assert np.array_equal(eng, ints)
                snr = audio.snr_db(ints.astype(np.float64), eng.astype(np.float64))
                assert snr >= 30.0 or np.isinf(snr)
                assert (r["transcript"] == transcript) or (
                    r["transcript"] is None and transcript is None) or (
                    isinstance(r["transcript"], float) and transcript is None)
                matched = True
                break
            if not oracle_ok and not r["decoded_ok"]:
                matched = True
                break
        assert matched, cid
        n_checked += 1
    assert n_checked == table.num_rows


def test_decode_violations_catch_ledger(stats_and_table):
    table, ledger, _ = stats_and_table
    ds = ray.data.from_arrow(table).repartition(3)
    v = bytes_suite_pass(ds, concurrency=(1, 2))[0].to_pandas()
    k = lambda cid_list, check, col=None: set(cid_list) <= set(
        v[(v.check_id == check) & ((v["column"] == col) if col else True)]["key"])
    assert k(ledger["truncated_bytes"], "DECODE-100")
    assert k(ledger["wrong_container"], "DECODE-101", "codec")
    assert k(ledger["len_mismatch"], "DECODE-101", "dur_ms")


def test_decode_stats_rms_sane(stats_and_table):
    _, _, stats = stats_and_table
    ok = stats[stats.decoded_ok]
    assert (ok["rms"] > 0.1).all() and (ok["rms"] < 1.0).all()
    assert (ok["frames"] > 0).all()
