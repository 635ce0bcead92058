"""Audio codec round-trip + independent naive-decoder parity.

The naive decoder here is a deliberately separate scalar implementation
(stdlib struct, per-sample Python) acting as the reference oracle for the
per-row parity invariant: decoded-PCM allclose / SNR >= 30 dB
(BASELINE.json input_hint)."""

import struct

import numpy as np
import pytest

from osf_data_validator_tool_ray import audio


def naive_decode(buf: bytes):
    """Independent scalar WAV decoder (oracle)."""
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
            tag, _ch, sr, _br, _ba, bits = fmt
            if tag == 1 and bits == 16:
                vals = [struct.unpack_from("<h", raw, i)[0] / 32767.0
                        for i in range(0, len(raw) - 1, 2)]
            elif tag == 1 and bits == 8:
                vals = [(b - 128) / 127.0 for b in raw]
            elif tag == 7 and bits == 8:
                vals = [_naive_ulaw(b) / 32767.0 for b in raw]
            else:
                raise ValueError("unsupported")
            return np.array(vals, dtype=np.float32), sr
        pos += 8 + clen + (clen & 1)
    raise ValueError("no data chunk")


def _naive_ulaw(code: int) -> int:
    c = ~code & 0xFF
    sign = c & 0x80
    exp = (c >> 4) & 0x07
    mant = c & 0x0F
    mag = (((mant << 3) + 0x84) << exp) - 0x84
    return -mag if sign else mag


@pytest.mark.parametrize("codec,sr", [("pcm_s16le", 16000), ("pcm_u8", 8000), ("ulaw", 8000)])
def test_roundtrip_snr(codec, sr):
    rng = np.random.default_rng(1)
    t = np.arange(sr // 2, dtype=np.float32) / sr
    pcm = (0.6 * np.sin(2 * np.pi * 440 * t) + 0.05 * rng.standard_normal(len(t))).astype(np.float32)
    buf = audio.encode(pcm, sr, codec)
    dec, got_sr = audio.decode(buf)
    assert got_sr == sr
    assert len(dec) == len(pcm)
    assert audio.snr_db(pcm, dec) >= 30.0, codec
    assert audio.sniff_codec(buf) == codec


@pytest.mark.parametrize("codec,sr", [("pcm_s16le", 22050), ("pcm_u8", 16000), ("ulaw", 16000)])
def test_engine_decode_matches_naive_oracle(codec, sr):
    t = np.arange(sr // 4, dtype=np.float32) / sr
    pcm = (0.5 * np.sin(2 * np.pi * 330 * t)).astype(np.float32)
    buf = audio.encode(pcm, sr, codec)
    eng, sr1 = audio.decode(buf)
    ora, sr2 = naive_decode(buf)
    assert sr1 == sr2 == sr
    np.testing.assert_allclose(eng, ora, atol=1e-6)
    assert audio.snr_db(ora, eng) > 80.0


def test_truncated_and_garbage_payloads():
    buf = audio.encode(np.zeros(1000, dtype=np.float32), 8000, "pcm_s16le")
    with pytest.raises(audio.DecodeError):
        audio.decode(buf[:30])
    with pytest.raises(audio.DecodeError):
        audio.decode(b"not audio at all" * 10)
    assert audio.sniff_codec(buf[: len(buf) // 2]) is None


def test_mulaw_inverse_is_exactish():
    x = np.linspace(-32000, 32000, 2048).astype(np.int16)
    rt = audio.mulaw_decode(audio.mulaw_encode(x))
    # mu-law is lossy but monotone; max quantization error bounded
    assert np.max(np.abs(rt.astype(np.int32) - x.astype(np.int32))) < 1024


def test_mulaw_table_is_g711_for_every_codeword():
    codes = np.arange(256, dtype=np.uint8)
    got = audio.mulaw_decode(codes)
    assert got.dtype == np.int16
    assert got.tolist() == [_naive_ulaw(int(c)) for c in codes]


def _chunk(cid: bytes, body: bytes) -> bytes:
    return cid + struct.pack("<I", len(body)) + body + b"\0" * (len(body) & 1)


def _riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


_FMT16 = _chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16))
_FMT_ULAW = _chunk(b"fmt ", struct.pack("<HHIIHH", 7, 1, 8000, 8000, 1, 8))

# (payload, the header dict parse_header returns or its DecodeError message)
PARSE_CASES = {
    "canonical 44-byte header": (
        _riff(_FMT16, _chunk(b"data", b"\1\0\2\0")),
        {"format_tag": 1, "channels": 1, "sr_hz": 16000, "bits": 16,
         "data_offset": 44, "data_len": 4}),
    "LIST chunk before fmt": (
        _riff(_chunk(b"LIST", b"INFOISFT\4\0\0\0abc\0"), _FMT16, _chunk(b"data", b"\0" * 6)),
        {"format_tag": 1, "channels": 1, "sr_hz": 16000, "bits": 16,
         "data_offset": 68, "data_len": 6}),
    "odd-length chunk and its pad byte": (
        _riff(_chunk(b"junk", b"xyz"), _FMT_ULAW, _chunk(b"data", b"\xff" * 9)),
        {"format_tag": 7, "channels": 1, "sr_hz": 8000, "bits": 8,
         "data_offset": 56, "data_len": 9}),
    "truncated fmt": (
        _riff(_chunk(b"fmt ", b"\1\0\1\0"), _chunk(b"data", b"\0" * 20)),
        "truncated fmt chunk"),
    "data before fmt": (
        _riff(_chunk(b"data", b"\0" * 4), _FMT16),
        "data chunk before fmt chunk"),
    "odd-length 16-bit data": (
        _riff(_FMT16, _chunk(b"data", b"\0" * 5)),
        "data chunk is not a whole number of samples"),
    "data longer than the payload": (
        _riff(_FMT16, _chunk(b"data", b"\0" * 8))[:-2],
        "truncated data chunk"),
    "no data chunk": (
        _riff(_FMT16, _chunk(b"LIST", b"\0" * 8)),
        "missing data chunk"),
    "under 44 bytes": (
        _riff(_FMT16, _chunk(b"data", b""))[:43],
        "not a RIFF/WAVE payload"),
    "wrong magic": (
        b"RIFX" + _riff(_FMT16, _chunk(b"data", b"\0\0"))[4:],
        "not a RIFF/WAVE payload"),
}


@pytest.mark.parametrize("case", sorted(PARSE_CASES))
def test_parse_header_table_bytes_and_views(case):
    """parse_header gives the same answer on bytes and on the memoryview
    ``binary_views`` hands the kernels."""
    import pyarrow as pa

    buf, want = PARSE_CASES[case]
    (view,) = audio.binary_views(pa.array([buf], type=pa.binary()))
    assert isinstance(view, memoryview)
    for payload in (buf, view):
        if isinstance(want, dict):
            assert audio.parse_header(payload) == want
        else:
            with pytest.raises(audio.DecodeError) as err:
                audio.parse_header(payload)
            assert str(err.value) == want
