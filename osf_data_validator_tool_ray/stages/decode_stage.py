"""Audio-decode stage — the engine's flagship payload stage.

``AudioDecodeValidator`` is the per-batch decode kernel;
``bytes_suite_pass`` (one scan of the payload column: decode findings,
universal predicates, bytes facets and the decodable-existential
partials) and ``BytesSuitePass`` (the same pass inside one partition
task) wrap it.

Its ``__call__`` fully decodes every payload of the batch and emits per-row
decode stats:

  clip_id, decoded_ok, frames, payload_sr_hz, payload_codec, rms,
  peak, pcm_md5 (hash of the integer-domain samples — the per-row parity
  token: the naive oracle decoder must produce the same hash, which
  implies decoded-PCM allclose with SNR = inf >= 30 dB), transcript
  (passed through unchanged for the transcript-equality half of the
  parity invariant).

Batch sizing: `bytes` dominates row width (sr*dur*2 bytes/row); keep
batch_size small (bytes_suite_pass: 256) so batch x concurrency fits
worker heaps
(SURVEY.md §4: memory-aware decode stage).

Violations derived from the stats:
  DECODE-100  payload fails decode
  DECODE-101  decoded stats contradict metadata (frames vs dur_ms*sr_hz,
              header sr vs sr_hz column, header codec vs codec column)
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .. import audio
from ..checks.base import empty_violations, make_violations
from ..stages.base_ids import DECODE_100, DECODE_101

_FEATURE_COLS = ("silence_ratio", "clipping_ratio", "spectral_centroid",
                 "spectral_rolloff", "spectral_flatness", "dominant_freq", "zcr")

STATS_SCHEMA = pa.schema(
    [
        ("clip_id", pa.string()),
        ("decoded_ok", pa.bool_()),
        ("frames", pa.int64()),
        ("payload_sr_hz", pa.int32()),
        ("payload_codec", pa.string()),
        ("rms", pa.float64()),
        ("peak", pa.float64()),
        ("pcm_md5", pa.string()),
        ("error", pa.string()),
        ("transcript", pa.string()),
    ]
    + [(c, pa.float64()) for c in _FEATURE_COLS]
)


class AudioDecodeValidator:
    def __init__(self, frame_tolerance: float = 0.02, features: bool = True,
                 profile: str = "light"):
        # actor-lifetime state: one-time setup (decoder dispatch + the
        # Hann window cache; this is where codec tables / models load at
        # fleet scale)
        self.frame_tolerance = frame_tolerance
        self.features = features
        self.profile = profile
        self._decode = audio.decode_ints

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("clip_id").to_pylist()
        payloads = audio.binary_views(batch.column("bytes"))  # zero-copy
        transcripts = (batch.column("transcript").to_pylist()
                       if "transcript" in batch.column_names else [None] * len(ids))
        n = len(ids)
        ok = np.zeros(n, dtype=bool)
        frames = np.zeros(n, dtype=np.int64)
        srs = np.zeros(n, dtype=np.int32)
        codecs: list = [None] * n
        rms = np.zeros(n, dtype=np.float64)
        peak = np.zeros(n, dtype=np.float64)
        md5s: list = [None] * n
        errs: list = [None] * n
        feats = {c: np.zeros(n, dtype=np.float64) for c in _FEATURE_COLS}
        for i, buf in enumerate(payloads):
            if buf is None:
                errs[i] = "null payload"
                continue
            try:
                ints, sr, codec = self._decode(buf)
            except audio.DecodeError as e:
                errs[i] = str(e)
                continue
            ok[i] = True
            frames[i] = len(ints)
            srs[i] = sr
            codecs[i] = codec
            if codec == "pcm_u8":
                f = (ints.astype(np.float64) - 128.0) / 127.0
            else:
                f = ints.astype(np.float64) / 32767.0
            if len(f):
                rms[i] = float(np.sqrt(np.mean(f * f)))
                peak[i] = float(np.max(np.abs(f)))
            if self.features:
                q = (audio.qa_features_full(f, sr) if self.profile == "full"
                     else audio.qa_features(f, sr))
                for c in _FEATURE_COLS:
                    feats[c][i] = q[c]
            md5s[i] = hashlib.md5(ints.tobytes()).hexdigest()
        cols = {
            "clip_id": pa.array(ids, type=pa.string()),
            "decoded_ok": pa.array(ok),
            "frames": pa.array(frames),
            "payload_sr_hz": pa.array(srs),
            "payload_codec": pa.array(codecs, type=pa.string()),
            "rms": pa.array(rms),
            "peak": pa.array(peak),
            "pcm_md5": pa.array(md5s, type=pa.string()),
            "error": pa.array(errs, type=pa.string()),
            "transcript": pa.array(transcripts, type=pa.string()),
        }
        for c in _FEATURE_COLS:
            cols[c] = pa.array(feats[c])
        return pa.table(cols, schema=STATS_SCHEMA)


def bytes_suite_pass(
    ds: "ray.data.Dataset",
    frame_tolerance: float = 0.02,
    batch_size: int = 256,
    concurrency: "int | tuple[int, int]" = (1, 16),
    use_actors: bool = False,
    profile: str = "light",
    universal_predicates: "set[str] | None" = None,
):
    """ONE actor-pool scan of the payload column that yields everything
    any check needs from `bytes`:

      * DECODE-100/-101 violations (undecodable; stats contradict metadata)
      * ONLY-100 counterexamples for bytes_matches_codec / frames_match_dur
        (universal checks — full decode subsumes the header sniff)
      * DATATYPE-FACET-101 for the bytes not_null / not_empty facets
      * per-(clip_id, batch) partial counts of decodable rows — the
        combiner input for the SOME-100 existential groupby

    Returns (violations_ds, ext_partials_ds).  The combined per-batch
    output is tiny (no payloads), so it is materialized once and split —
    without the materialize, each downstream branch would re-execute the
    whole decode scan (Ray Data re-runs lineage per consumer).

    ``universal_predicates``: the set of universal predicate ids the
    caller's spec actually declares; ONLY-100 rows are emitted only for
    declared predicates (None = emit both, legacy behavior).  Without
    this, custom specs that never declare bytes_matches_codec /
    frames_match_dur would see spurious ONLY-100 errors.
    """
    if universal_predicates is None:
        universal_predicates = {"bytes_matches_codec", "frames_match_dur"}
    cols = [c for c in ("clip_id", "bytes", "transcript", "sr_hz", "dur_ms", "codec")
            if c in ds.schema().names]
    sub = ds.select_columns(cols)

    if use_actors:
        combined = sub.map_batches(
            BytesSuitePass, batch_format="pyarrow", batch_size=batch_size,
            fn_constructor_args=(frame_tolerance, profile,
                                 frozenset(universal_predicates)),
            concurrency=concurrency, num_cpus=1).materialize()
    else:
        # task path: decode state is cheap, and tasks run in Ray's warm
        # worker processes — no per-execution actor pool spin-up (an
        # instance, not the class, makes map_batches schedule tasks)
        combined = sub.map_batches(
            BytesSuitePass(frame_tolerance, profile,
                           frozenset(universal_predicates)),
            batch_format="pyarrow", batch_size=batch_size).materialize()

    violations = combined.map_batches(combined_violations, batch_format="pyarrow")
    partials = combined.map_batches(combined_ext_partials, batch_format="pyarrow")
    return violations, partials


class BytesSuitePass:
    """Per-batch body of the single bytes scan (shared by the Dataset
    path above and the per-partition task path in
    pipelines/partitioned.py).  Output is a tagged union: violation rows
    (_rowtype='v') + per-key decodable-count partials (_rowtype='p') —
    split with combined_violations / combined_ext_partials."""

    def __init__(self, frame_tolerance: float = 0.02, profile: str = "light",
                 universal_predicates: frozenset = frozenset(
                     {"bytes_matches_codec", "frames_match_dur"})):
        self.validator = AudioDecodeValidator(frame_tolerance, profile=profile)
        self.frame_tolerance = frame_tolerance
        self.universal_predicates = universal_predicates

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        frame_tolerance = self.frame_tolerance
        universal_predicates = self.universal_predicates
        stats = self.validator(batch)
        out = []
        ok = stats.column("decoded_ok").to_numpy(zero_copy_only=False)
        keys = np.asarray(stats.column("clip_id").to_pylist(), dtype=object)
        errs = np.asarray(stats.column("error").to_pylist(), dtype=object)
        frames = stats.column("frames").to_numpy(zero_copy_only=False)
        psr = stats.column("payload_sr_hz").to_numpy(zero_copy_only=False)
        pcodec = np.asarray(stats.column("payload_codec").to_pylist(), dtype=object)

        if (~ok).any():
            m = ~ok
            out.append(make_violations(DECODE_100, keys[m], "bytes", errs[m],
                                       expected="payload decodes"))
            null_m = errs == "null payload"
            if null_m.any():
                out.append(make_violations(
                    "DATATYPE-FACET-101", keys[null_m], "bytes",
                    [None] * int(null_m.sum()), expected="binary:not_null"))
        if "codec" in batch.column_names:
            dec = np.asarray(batch.column("codec").to_pylist(), dtype=object)
            m = ok & (pcodec != dec)
            if m.any():
                out.append(make_violations(DECODE_101, keys[m], "codec", pcodec[m],
                                           expected="header codec == codec column"))
            # universal ONLY-100: every payload container matches codec
            # (only when the spec declares this universal)
            if "bytes_matches_codec" in universal_predicates:
                only_m = ~(ok & (pcodec == dec))
                if only_m.any():
                    out.append(make_violations(
                        "ONLY-100", keys[only_m], "bytes_matches_codec",
                        pcodec[only_m],
                        expected="all rows satisfy bytes_matches_codec"))
        if "sr_hz" in batch.column_names:
            sr = batch.column("sr_hz").to_numpy(zero_copy_only=False)
            m = ok & (psr != sr)
            if m.any():
                out.append(make_violations(DECODE_101, keys[m], "sr_hz", psr[m],
                                           expected="header sr == sr_hz column"))
            if "dur_ms" in batch.column_names:
                dur = batch.column("dur_ms").to_numpy(zero_copy_only=False)
                expect = sr.astype(np.float64) * dur.astype(np.float64) / 1000.0
                tol = np.maximum(1.0, frame_tolerance * expect)
                m = ok & (np.abs(frames - expect) > tol)
                if m.any():
                    out.append(make_violations(DECODE_101, keys[m], "dur_ms",
                                               frames[m],
                                               expected="frames ~= dur_ms*sr_hz/1000"))
                    if "frames_match_dur" in universal_predicates:
                        out.append(make_violations(
                            "ONLY-100", keys[m], "frames_match_dur", frames[m],
                            expected="all rows satisfy frames_match_dur"))
        v = (pa.concat_tables(out).combine_chunks() if out
             else empty_violations())
        # existential partial: decodable count per key in this batch
        pdf = pd.DataFrame({"key": keys, "_ok": ok.astype(np.int64)})
        part = pdf.groupby("key", sort=False)["_ok"].sum().reset_index()
        v = v.append_column("_rowtype", pa.array(["v"] * v.num_rows, type=pa.string()))
        v = v.append_column("_ext_n", pa.array([0] * v.num_rows, type=pa.int64()))
        p = pa.table({
            "check_id": pa.array([None] * len(part), type=pa.string()),
            "severity": pa.array([None] * len(part), type=pa.string()),
            "key": pa.array(part["key"].astype(object), type=pa.string()),
            "column": pa.array([None] * len(part), type=pa.string()),
            "observed": pa.array([None] * len(part), type=pa.string()),
            "expected": pa.array([None] * len(part), type=pa.string()),
            "_rowtype": pa.array(["p"] * len(part), type=pa.string()),
            "_ext_n": pa.array(part["_ok"].to_numpy(), type=pa.int64()),
        })
        return pa.concat_tables([v, p]).combine_chunks()


def combined_violations(t: pa.Table) -> pa.Table:
    m = pc.equal(t.column("_rowtype"), "v")
    return t.filter(m).drop_columns(["_rowtype", "_ext_n"])


def combined_ext_partials(t: pa.Table) -> pa.Table:
    m = pc.equal(t.column("_rowtype"), "p")
    return t.filter(m).select(["key", "_ext_n"])


def existential_violations_from_partials(
    partials: "ray.data.Dataset",
    driver_merge_threshold: int = 5_000_000,
):
    """SOME-100 over the decode partials: merge per-batch decodable
    counts (pipelines.relational.merge_partials: in process when small,
    one exchange at fleet scale), flag keys where no row decoded."""

    def emit(t: pa.Table) -> pa.Table:
        n = t.column("_ext_n").to_numpy(zero_copy_only=False)
        m = n == 0
        if not m.any():
            return empty_violations()
        keys = np.asarray(t.column("key").to_pylist(), dtype=object)
        return make_violations("SOME-100", keys[m], "decodable_bytes", n[m],
                               expected="some row satisfies decodable_bytes")

    from ..pipelines.relational import merge_partials
    return merge_partials(partials, "key", {"_ext_n": "sum"}, emit,
                          driver_merge_threshold)
