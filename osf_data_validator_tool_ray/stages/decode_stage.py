"""Audio-decode stage — the engine's flagship payload stage.

``AudioDecodeValidator`` is the per-batch decode kernel.
``BytesSuitePass`` turns its stats into every payload finding (decode
findings, universal predicates, bytes facets) plus the per-row decoded
flags that the keyed partials count for the ``decodable_bytes``
existential; the suite's one per-batch body
(``pipelines.runner.SuitePass``) calls it, and ``bytes_suite_pass`` runs
it alone over a Dataset.

``AudioDecodeValidator.stats`` checks every payload of the batch for
everything ``audio.decode_ints`` can reject (the container header and
the data chunk's length: once a payload passes them, its samples are a
``np.frombuffer`` view and a table gather that cannot fail) with one
``audio.wav_headers`` pass over the column, and returns, as numpy arrays
that ``BytesSuitePass.findings`` reads directly, only what the findings
read; ``__call__`` packs them into a table:

  clip_id, decoded_ok, frames, payload_sr_hz, payload_codec, error.

Batch sizing: `bytes` dominates row width (sr*dur*2 bytes/row), so the
suite's scan sizes batches in bytes, not rows (SURVEY.md §4:
memory-aware decode stage): ``runner.SuitePass.scan`` reads record
batches of about ``runner.READ_BYTES`` (4 MiB; rows from the parquet
footer's column sizes), so a read's decoded rows stay within the worker
heap, and checks runs of them of up to ``runner.BATCH_BYTES`` (64 MiB)
per call, as a call's fixed cost is most of a small batch's.  Where no
footer gives the row width (``map_batches``, which Ray batches by rows;
a Lance fragment) a decoding pass reads 256 rows per batch
(``SuitePass.batch_size``).

Violations derived from the stats:
  DECODE-100  payload fails decode
  DECODE-101  decoded stats contradict metadata (frames vs dur_ms*sr_hz,
              header sr vs sr_hz column, header codec vs codec column)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import audio
from ..checks.base import empty_violations, make_violations
from ..functions.facets import column_values
from ..stages.base_ids import DECODE_100, DECODE_101

# the columns the payload findings read
BYTES_COLUMNS = ("clip_id", "bytes", "sr_hz", "dur_ms", "codec")

STATS_SCHEMA = pa.schema(
    [
        ("clip_id", pa.string()),
        ("decoded_ok", pa.bool_()),
        ("frames", pa.int64()),
        ("payload_sr_hz", pa.int32()),
        ("payload_codec", pa.string()),
        ("error", pa.string()),
    ]
)


class AudioDecodeValidator:
    def stats(self, batch: pa.Table) -> tuple[np.ndarray, ...]:
        """(decoded_ok, frames, payload_sr_hz, payload_codec, error) of
        each row, as read-only numpy arrays (the last two of objects):
        what ``audio.decode_ints`` of each payload returns or raises
        (frames: its sample count; "null payload" for a null)."""
        h = audio.wav_headers(batch.column("bytes"))
        return (h.ok, h.frames, np.where(h.ok, h.sr_hz, 0).astype(np.int32),
                h.codec, h.error)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ok, frames, srs, codecs, errs = self.stats(batch)
        return pa.table({
            "clip_id": batch.column("clip_id").cast(pa.string()),
            "decoded_ok": pa.array(ok),
            "frames": pa.array(frames),
            "payload_sr_hz": pa.array(srs),
            "payload_codec": pa.array(codecs, type=pa.string()),
            "error": pa.array(errs, type=pa.string()),
        }, schema=STATS_SCHEMA)


def bytes_suite_pass(
    ds: "ray.data.Dataset",
    frame_tolerance: float = 0.02,
    batch_size: int = 256,
    profile: str = "light",
    universal_predicates: "set[str] | None" = None,
):
    """``BytesSuitePass`` alone over a Dataset: one scan of the payload
    column yielding everything any check derives from `bytes` (the suite
    runs the same body inside its one ``SuitePass`` scan).

    Returns ``(violations, n_violations)``: the materialized violation
    rows and their count, read from block metadata.

    ``universal_predicates``: the set of universal predicate ids the
    caller's spec actually declares; ONLY-100 rows are emitted only for
    declared predicates (None = emit both, legacy behavior).  Without
    this, custom specs that never declare bytes_matches_codec /
    frames_match_dur would see spurious ONLY-100 errors.

    ``profile`` is accepted and unused: the kernel computes no QA
    features.
    """
    if universal_predicates is None:
        universal_predicates = {"bytes_matches_codec", "frames_match_dur"}
    cols = [c for c in BYTES_COLUMNS if c in ds.schema().names]
    # an instance, not the class, makes map_batches schedule tasks:
    # decode state is cheap and Ray's warm workers serve every execution
    violations = ds.select_columns(cols).map_batches(
        BytesSuitePass(frame_tolerance,
                       universal_predicates=frozenset(universal_predicates)),
        batch_format="pyarrow", batch_size=batch_size).materialize()
    return violations, violations.count()


class BytesSuitePass:
    """Per-batch body of the payload scan: every finding derived from
    `bytes` (the Dataset path above, and ``pipelines.runner.SuitePass``
    inside the suite's one scan and each partitioned share task):

      * DECODE-100/-101 violations (undecodable; stats contradict metadata)
      * ONLY-100 counterexamples for bytes_matches_codec / frames_match_dur
        (universal checks — the decode check subsumes the header sniff)
      * DATATYPE-FACET-101 for the bytes not_null / not_empty facets

    ``findings`` also returns the per-row decoded flags, which the keyed
    partials count for the ``decodable_bytes`` existential.

    ``profile`` is accepted and unused: the kernel computes no QA
    features."""

    def __init__(self, frame_tolerance: float = 0.02, profile: str = "light",
                 universal_predicates: frozenset = frozenset(
                     {"bytes_matches_codec", "frames_match_dur"})):
        self.validator = AudioDecodeValidator()
        self.frame_tolerance = frame_tolerance
        self.universal_predicates = universal_predicates

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.findings(batch)[0]

    def findings(self, batch: pa.Table) -> tuple[pa.Table, np.ndarray]:
        """(violation rows, per-row decoded_ok) of one batch; the rows
        carry the batch's ``_part`` tag when it has one."""
        universal_predicates = self.universal_predicates
        ok, frames, psr, pcodec, errs = self.validator.stats(batch)
        keys = column_values(batch.column("clip_id"))
        parts = (batch.column("_part").to_numpy() if "_part" in batch.column_names
                 else None)
        out = []

        def emit(check_id, m, column, observed, expected):
            out.append(make_violations(check_id, keys[m], column, observed, expected,
                                       part=None if parts is None else parts[m]))

        if (~ok).any():
            m = ~ok
            emit(DECODE_100, m, "bytes", errs[m], "payload decodes")
            null_m = errs == "null payload"
            if null_m.any():
                emit("DATATYPE-FACET-101", null_m, "bytes",
                     [None] * int(null_m.sum()), "binary:not_null")
        if "codec" in batch.column_names:
            dec = column_values(batch.column("codec"))
            m = ok & (pcodec != dec)
            if m.any():
                emit(DECODE_101, m, "codec", pcodec[m], "header codec == codec column")
            # universal ONLY-100: every payload container matches codec
            # (only when the spec declares this universal)
            if "bytes_matches_codec" in universal_predicates:
                only_m = ~(ok & (pcodec == dec))
                if only_m.any():
                    emit("ONLY-100", only_m, "bytes_matches_codec", pcodec[only_m],
                         "all rows satisfy bytes_matches_codec")
        if "sr_hz" in batch.column_names:
            sr = batch.column("sr_hz").to_numpy(zero_copy_only=False)
            m = ok & (psr != sr)
            if m.any():
                emit(DECODE_101, m, "sr_hz", psr[m], "header sr == sr_hz column")
            if "dur_ms" in batch.column_names:
                dur = batch.column("dur_ms").to_numpy(zero_copy_only=False)
                expect = sr.astype(np.float64) * dur.astype(np.float64) / 1000.0
                tol = np.maximum(1.0, self.frame_tolerance * expect)
                m = ok & (np.abs(frames - expect) > tol)
                if m.any():
                    emit(DECODE_101, m, "dur_ms", frames[m],
                         "frames ~= dur_ms*sr_hz/1000")
                    if "frames_match_dur" in universal_predicates:
                        emit("ONLY-100", m, "frames_match_dur", frames[m],
                             "all rows satisfy frames_match_dur")
        v = (pa.concat_tables(out).combine_chunks() if out
             else empty_violations())
        return v, ok
