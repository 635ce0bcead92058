"""Named row-predicates used by qualified-cardinality, existential (SOME)
and universal (ONLY) checks.

Each predicate:  pa.Table batch -> np.ndarray[bool]  (True = satisfies).
Registered by id so constraint specs stay declarative/serializable —
the analog of the reference's owl:onDataRange / owl:someValuesFrom /
owl:allValuesFrom value-filters (e.g. CheckOwlRestrictionSome.php:149-163).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import audio
from ..functions.facets import column_values


def nonempty_transcript(batch: pa.Table) -> np.ndarray:
    col = batch.column("transcript")
    ok = pc.and_(pc.is_valid(col), pc.not_equal(pc.coalesce(col, ""), ""))
    return ok.to_numpy(zero_copy_only=False)


def decodable_bytes(batch: pa.Table) -> np.ndarray:
    """Payload header parses as a supported container (the header sniff:
    ``audio.sniff_codec`` of each row, read from ``audio.wav_headers``;
    the decode check lives in the decode stage)."""
    return audio.wav_headers(batch.column("bytes")).ok


def bytes_matches_codec(batch: pa.Table) -> np.ndarray:
    """Universal: the container header's codec (``audio.sniff_codec``,
    read from ``audio.wav_headers``) equals the declared codec column
    (magic-byte facet; ONLY-100 flagship).  A null payload never
    matches."""
    h = audio.wav_headers(batch.column("bytes"))
    return h.valid & (h.codec == column_values(batch.column("codec")))


def frames_match_dur(batch: pa.Table, tolerance: float = 0.02) -> np.ndarray:
    """Universal cross-column: encoded frame count from the container
    header (``audio.wav_headers``; an unsupported codec counts one byte
    per frame) must match dur_ms * sr_hz / 1000 within ``tolerance``.
    Unparseable payloads pass here (bytes_matches_codec owns those)."""
    h = audio.wav_headers(batch.column("bytes"))
    frames = np.where(h.ok, h.frames, h.data_len)
    sr = batch.column("sr_hz").to_numpy(zero_copy_only=False)
    dur = batch.column("dur_ms").to_numpy(zero_copy_only=False)
    expect = sr.astype(np.float64) * dur.astype(np.float64) / 1000.0
    match = np.where(expect <= 0, frames == 0,
                     np.abs(frames - expect) <= np.maximum(1.0, tolerance * expect))
    return ~h.parsed | match


def lang_en(batch: pa.Table) -> np.ndarray:
    """Example qualifier over the documents table: row's lang == 'en'
    (the owl:onDataRange 'only count values of this type' analog)."""
    return pc.equal(pc.coalesce(batch.column("lang"), ""), "en") \
        .to_numpy(zero_copy_only=False)


def returnflag_r(batch: pa.Table) -> np.ndarray:
    """Example qualifier over the lineitem table: l_returnflag == 'R'
    (the qualified-count and someValuesFrom filter of the driver's
    keyed queries)."""
    return pc.equal(pc.coalesce(batch.column("l_returnflag"), ""), "R") \
        .to_numpy(zero_copy_only=False)


def speaking_rate_ok(batch: pa.Table, min_cps: float = 0.2,
                     max_cps: float = 60.0) -> np.ndarray:
    """Universal cross-modal consistency: transcript characters per
    second of audio within plausible speech bounds — a transcript far
    too long or short for its clip duration signals a mispaired
    (audio, transcript) row.  Rows with an empty transcript or
    non-positive duration pass here (nonempty_transcript / the dur_ms
    facet own those findings)."""
    tr = pc.utf8_length(pc.coalesce(batch.column("transcript"), "")) \
        .to_numpy(zero_copy_only=False).astype(np.float64)
    dur_s = batch.column("dur_ms").to_numpy(zero_copy_only=False) \
        .astype(np.float64) / 1000.0
    evaluable = (tr > 0) & (dur_s > 0)
    cps = np.divide(tr, dur_s, out=np.zeros_like(tr), where=dur_s > 0)
    ok = (cps >= min_cps) & (cps <= max_cps)
    return np.where(evaluable, ok, True)


PREDICATES: dict[str, Callable[[pa.Table], np.ndarray]] = {
    "nonempty_transcript": nonempty_transcript,
    "decodable_bytes": decodable_bytes,
    "bytes_matches_codec": bytes_matches_codec,
    "frames_match_dur": frames_match_dur,
    "lang_en": lang_en,
    "returnflag_r": returnflag_r,
    "speaking_rate_ok": speaking_rate_ok,
}

# columns each predicate reads — lets planners skip predicates whose
# columns are absent (the absence itself is SCHEMA-COLUMN-101's finding)
# and lets scans project only what is needed
PREDICATE_COLUMNS: dict[str, frozenset[str]] = {
    "nonempty_transcript": frozenset({"transcript"}),
    "decodable_bytes": frozenset({"bytes"}),
    "bytes_matches_codec": frozenset({"bytes", "codec"}),
    "frames_match_dur": frozenset({"bytes", "sr_hz", "dur_ms"}),
    "lang_en": frozenset({"lang"}),
    "returnflag_r": frozenset({"l_returnflag"}),
    "speaking_rate_ok": frozenset({"transcript", "dur_ms"}),
}
