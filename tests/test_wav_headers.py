"""``audio.wav_headers`` is the batch form of the per-row header API.

Its columns, error strings included, equal ``parse_header`` /
``decode_ints`` / ``sniff_codec`` of each row, for every payload shape
and every Arrow layout of the column; ``AudioDecodeValidator.stats`` and
the three sniff predicates equal the per-row loops they replaced (kept
here as oracles); and the suite's one scan parses no canonical header
row by row."""

import struct

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from osf_data_validator_tool_ray import audio
from osf_data_validator_tool_ray.checks import predicates
from osf_data_validator_tool_ray.checks.unified_keyed import keyed_plan
from osf_data_validator_tool_ray.pipelines.runner import ROW_CHECKS, SuitePass
from osf_data_validator_tool_ray.spec import clips_spec
from osf_data_validator_tool_ray.stages.decode_stage import AudioDecodeValidator
from osf_data_validator_tool_ray.synth import synth_clips
from tests.test_audio import _chunk, _riff


def _fmt(tag: int, sr: int, bits: int) -> bytes:
    return _chunk(b"fmt ", struct.pack("<HHIIHH", tag, 1, sr, sr * bits // 8,
                                       bits // 8, bits))


def _sr(wav: bytes) -> int:
    """The sample rate of an ``audio.encode`` output."""
    return struct.unpack_from("<I", wav, 24)[0]


# each mutation of an ``audio.encode`` output (whose fmt chunk is bytes
# 12-36 and whose samples start at 44), as fn(wav, draw_int) -> payload
MUTATIONS = {
    "none": lambda w, r: w,
    "truncated": lambda w, r: w[:r(0, len(w))],
    "byte flipped": lambda w, r: _flip(w, r(0, min(48, len(w)) - 1), r(1, 255)),
    "18-byte fmt (cbSize)": lambda w, r: _riff(
        b"fmt " + struct.pack("<I", 18) + w[20:36] + b"\0\0", _chunk(b"data", w[44:])),
    "LIST before data": lambda w, r: _riff(
        w[12:36], _chunk(b"LIST", b"INFOISFT\4\0\0\0abc\0"), _chunk(b"data", w[44:])),
    "odd chunk and pad byte": lambda w, r: _riff(
        w[12:36], _chunk(b"junk", b"x" * (2 * r(0, 3) + 1)), _chunk(b"data", w[44:])),
    "data before fmt": lambda w, r: _riff(_chunk(b"data", w[44:]), w[12:36]),
    "odd-length data": lambda w, r: _riff(w[12:36], _chunk(b"data", w[44:] + b"\1")),
    "tag 3 / 32-bit": lambda w, r: _riff(
        _fmt(3, _sr(w), 32), _chunk(b"data", b"\0" * 4 * r(0, 5))),
    "tag 1 / 24-bit": lambda w, r: _riff(
        _fmt(1, _sr(w), 24), _chunk(b"data", b"\0" * 3 * r(0, 5))),
    "empty": lambda w, r: b"",
    "null": lambda w, r: None,
}


def _flip(w: bytes, i: int, mask: int) -> bytes:
    return w[:i] + bytes([w[i] ^ mask]) + w[i + 1:]


@st.composite
def payloads(draw) -> list:
    out = []
    for _ in range(draw(st.integers(1, 12))):
        codec = draw(st.sampled_from(["pcm_s16le", "pcm_u8", "ulaw"]))
        n = draw(st.integers(0, 40))
        pcm = np.linspace(-1.0, 1.0, n, dtype=np.float32)
        wav = audio.encode(pcm, draw(st.integers(1, 96_000)), codec)
        mutate = MUTATIONS[draw(st.sampled_from(sorted(MUTATIONS)))]
        out.append(mutate(wav, lambda lo, hi: draw(st.integers(lo, max(lo, hi)))))
    return out


@st.composite
def layouts(draw):
    """(the payloads, their column as binary, large_binary, a slice with a
    non-zero offset, or a multi-chunk ChunkedArray)."""
    values = draw(payloads())
    type_ = draw(st.sampled_from([pa.binary(), pa.large_binary()]))
    layout = draw(st.sampled_from(["array", "slice", "chunked"]))
    if layout == "array":
        return values, pa.array(values, type=type_)
    if layout == "slice":
        pad = draw(st.integers(1, 3))
        return values, pa.array([b"RIFF"] * pad + values + [None], type=type_) \
            .slice(pad, len(values))
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), min_size=1, max_size=3)))
    bounds = [0, *cuts, len(values)]
    return values, pa.chunked_array(
        [pa.array(values[a:b], type=type_) for a, b in zip(bounds, bounds[1:])],
        type=type_)


def _row(buf) -> dict:
    """The kernel's columns of one row, from the per-row API."""
    row = dict(valid=buf is not None, parsed=False, sr_hz=0, data_len=0, ok=False,
               codec=None, frames=0, error=None)
    if buf is None:
        return dict(row, error="null payload")
    try:
        h = audio.parse_header(buf)
        row.update(parsed=True, sr_hz=h["sr_hz"], data_len=h["data_len"])
    except audio.DecodeError:
        pass
    try:
        ints, _sr, codec = audio.decode_ints(buf)
        row.update(ok=True, codec=codec, frames=len(ints))
    except audio.DecodeError as e:
        row.update(error=str(e))
    assert audio.sniff_codec(buf) == row["codec"]
    return row


def _old_stats(batch: pa.Table) -> tuple:
    """``AudioDecodeValidator.stats`` as the per-row decode loop it was."""
    payloads = audio.binary_views(batch.column("bytes"))
    n = len(payloads)
    ok = np.zeros(n, dtype=bool)
    frames = np.zeros(n, dtype=np.int64)
    srs = np.zeros(n, dtype=np.int32)
    codecs = np.full(n, None, dtype=object)
    errs = np.full(n, None, dtype=object)
    for i, buf in enumerate(payloads):
        if buf is None:
            errs[i] = "null payload"
            continue
        try:
            ints, sr, codec = audio.decode_ints(buf)
        except audio.DecodeError as e:
            errs[i] = str(e)
            continue
        ok[i], frames[i], srs[i], codecs[i] = True, len(ints), sr, codec
    return ok, frames, srs, codecs, errs


def _old_predicates(batch: pa.Table, tolerance: float = 0.02) -> tuple:
    """decodable_bytes, bytes_matches_codec and frames_match_dur as the
    per-row sniff loops they were."""
    views = audio.binary_views(batch.column("bytes"))
    codecs = batch.column("codec").to_pylist()
    srs, durs = batch.column("sr_hz").to_pylist(), batch.column("dur_ms").to_pylist()
    decodable, matches, frames_ok = [], [], []
    for buf, codec, sr, dur in zip(views, codecs, srs, durs):
        decodable.append(buf is not None and audio.sniff_codec(buf) is not None)
        matches.append(buf is not None and audio.sniff_codec(buf) == codec)
        try:
            h = audio.parse_header(buf) if buf is not None else None
        except audio.DecodeError:
            h = None
        if h is None:
            frames_ok.append(True)
            continue
        bps = 2 if (h["format_tag"] == audio.WAVE_FORMAT_PCM and h["bits"] == 16) else 1
        frames = h["data_len"] // bps
        expect = int(sr) * int(dur) / 1000.0
        frames_ok.append(frames == 0 if expect <= 0
                         else abs(frames - expect) <= max(1.0, tolerance * expect))
    return decodable, matches, frames_ok


@settings(max_examples=250, deadline=None)
@given(layouts())
def test_kernel_columns_equal_the_per_row_api(case):
    values, column = case
    h = audio.wav_headers(column)
    assert all(len(col) == len(values) for col in h)
    for i, buf in enumerate(values):
        got = {name: getattr(h, name)[i] for name in audio.Headers._fields}
        got = {k: (v.item() if isinstance(v, np.generic) else v) for k, v in got.items()}
        assert got == _row(buf), i


@settings(max_examples=150, deadline=None)
@given(layouts(), st.data())
def test_stats_and_sniff_predicates_equal_the_per_row_loops(case, data):
    values, column = case
    n = len(values)
    batch = pa.table({
        "bytes": column,
        "codec": data.draw(st.lists(st.sampled_from([None, "pcm_s16le", "pcm_u8", "ulaw",
                                                     "opus"]), min_size=n, max_size=n)),
        "sr_hz": pa.array(data.draw(st.lists(st.integers(0, 96_000), min_size=n,
                                             max_size=n)), type=pa.int32()),
        "dur_ms": pa.array(data.draw(st.lists(st.integers(-5, 30), min_size=n,
                                              max_size=n)), type=pa.int32()),
    })
    new, old = AudioDecodeValidator().stats(batch), _old_stats(batch)
    for got, want in zip(new, old):
        assert got.tolist() == want.tolist()
    assert new[2].dtype == old[2].dtype
    assert [p(batch).tolist() for p in (predicates.decodable_bytes,
                                        predicates.bytes_matches_codec,
                                        predicates.frames_match_dur)] \
        == [list(c) for c in _old_predicates(batch)]


def test_one_parse_per_column_inside_a_block_and_read_only():
    table, _ = synth_clips(50, seed=3, defect_rate=0.2)
    with audio.one_parse_per_column():
        first = audio.wav_headers(table.column("bytes"))
        with audio.one_parse_per_column():
            # the same buffers reached through another table: the kept answer
            assert audio.wav_headers(table.select(["bytes"]).column("bytes")) is first
        # the same values in other buffers: parsed again, same answer
        again = audio.wav_headers(pa.array(table.column("bytes").to_pylist(),
                                           type=pa.binary()))
        assert again is not first
        assert all(a.tolist() == b.tolist() for a, b in zip(again, first))
    # outside the block nothing is kept
    assert audio.wav_headers(table.column("bytes")) is not first
    with pytest.raises(ValueError):
        first.ok[0] = not first.ok[0]


def _canonical(buf) -> bool:
    """The canonical 44-byte layout with a supported codec whose data
    chunk ``parse_header`` accepts: the rows the kernel reads by its
    vectorized pass."""
    if buf is None or len(buf) < 44:
        return False
    riff, _, wave, fmt, fmt_len, tag, _ch, _sr, _br, _ba, bits, data, data_len = \
        struct.unpack_from("<4sI4s4sIHHIIHH4sI", buf)
    return (riff, wave, fmt, fmt_len, data) == (b"RIFF", b"WAVE", b"fmt ", 16, b"data") \
        and (tag, bits) in {(1, 16), (1, 8), (7, 8)} \
        and 44 + data_len <= len(buf) and data_len % (bits // 8) == 0


@pytest.mark.parametrize("decode", [True, False], ids=["decode", "sniff"])
def test_suite_pass_parses_only_non_canonical_rows(monkeypatch, decode):
    """The suite's one scan calls ``parse_header`` at most once per
    non-canonical row; before the batch kernel it called it once per row
    in decode mode and three times per row in sniff mode."""
    table, _ = synth_clips(1000, seed=41, defect_rate=0.01)
    non_canonical = sum(not _canonical(b) for b in table.column("bytes").to_pylist())
    assert 0 < non_canonical < 20
    spec = clips_spec()
    names = set(table.column_names)
    body = SuitePass(spec, names, keyed_plan(spec, names, decode),
                     ROW_CHECKS if decode else ROW_CHECKS - {"decode"},
                     frozenset(u.predicate for u in spec.universals))
    calls = []
    parse = audio.parse_header
    monkeypatch.setattr(audio, "parse_header", lambda buf: calls.append(1) or parse(buf))
    n_violations = 0
    for batch in table.to_batches(max_chunksize=body.batch_size):
        n_violations += body.findings(pa.Table.from_batches([batch]))[0].num_rows
    assert n_violations > 0
    assert 0 < len(calls) <= non_canonical


def test_frames_match_dur_counts_a_null_duration_or_rate_against_the_row():
    """A parseable payload whose sr_hz or dur_ms is null is a
    counterexample (the per-row loop raised on it)."""
    wav = audio.encode(np.zeros(80, dtype=np.float32), 8000, "pcm_s16le")
    batch = pa.table({"bytes": pa.array([wav, wav, wav, None], type=pa.binary()),
                      "sr_hz": pa.array([8000, None, 8000, None], type=pa.int32()),
                      "dur_ms": pa.array([10, 10, None, None], type=pa.int32())})
    assert predicates.frames_match_dur(batch).tolist() == [True, False, False, True]
