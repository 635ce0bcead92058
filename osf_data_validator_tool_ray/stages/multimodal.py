"""Multimodal payload stages — images as opaque binary columns.

Audio is this engine's native modality (real codecs in ..audio).  Image
processing follows the SAME Ray-side design — opaque ``binary`` column +
typed metadata columns, actor-pool ``map_batches`` stages with small
batches.  Image decode backends:

  * ``backend="png"``: a REAL pixel decoder — pure-numpy PNG (all five
    scanline filters, CRC-verified, stdlib zlib) + uncompressed 24-bit
    BMP, magic-dispatched (see ``..imaging``).  No external imaging
    library needed; corruption checks run against genuinely decoded
    pixels.
  * ``backend="fake"`` (default for legacy callers): a deterministic
    fake decoder — parses a tiny self-describing header (see
    synth_image_payload) and produces seeded pseudo-pixels; kept for
    plumbing tests whose payloads predate the real codec.
  * ``backend="pil"`` / ``"ffmpeg"``: raise NotImplementedError with the
    dependency name — the swap point for a full-format production
    decoder (JPEG/WebP), which needs an external imaging library.

Expected metadata schema for an image table:
    (image_id: string, bytes: binary, width: int32, height: int32,
     format: string)
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np
import pyarrow as pa

import ray.data

from .. import audio as _audio
from ..checks.base import empty_violations, make_violations

_IMG_MAGIC = b"FIMG"          # deterministic fake image container


def synth_image_payload(width: int, height: int, seed: int, fmt: str = "fimg") -> bytes:
    """Deterministic fake image payload: magic + dims + seeded bytes."""
    rng = np.random.default_rng(seed)
    body = rng.integers(0, 256, size=width * height * 3, dtype=np.uint8).tobytes()
    return _IMG_MAGIC + struct.pack("<IIH", width, height, len(fmt)) + fmt.encode() + body


class ImageDecodeStage:
    """Actor-pool stage: decode + resize + feature-extract per image.

    __init__ loads the decoder backend ONCE per actor; __call__ handles a
    (small) batch.  Output: per-row stats (decoded_ok, width, height,
    mean_luma, resized target dims) — the image analog of the audio
    decode stats."""

    def __init__(self, backend: str = "fake", resize_to: tuple[int, int] = (64, 64)):
        if backend == "fake":
            self._decode = self._decode_fake
        elif backend == "png":
            from ..imaging import decode_image
            self._decode = decode_image
        elif backend in ("pil", "ffmpeg", "cv2"):
            raise NotImplementedError(
                f"backend {backend!r} requires an imaging library not present "
                "in this environment; plug it in here (one method)")
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.resize_to = resize_to

    @staticmethod
    def _decode_fake(buf) -> tuple[np.ndarray, int, int]:
        if buf is None or len(buf) < 14 or bytes(buf[:4]) != _IMG_MAGIC:
            raise ValueError("not a FIMG payload")
        w, h, flen = struct.unpack_from("<IIH", buf, 4)
        off = 14 + flen
        need = w * h * 3
        if len(buf) - off < need:
            raise ValueError("truncated image payload")
        px = np.frombuffer(buf, dtype=np.uint8, count=need, offset=off)
        return px.reshape(h, w, 3), w, h

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = _audio.binary_views(batch.column("bytes"))
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        ok = np.zeros(n, dtype=bool)
        ws = np.zeros(n, dtype=np.int32)
        hs = np.zeros(n, dtype=np.int32)
        luma = np.zeros(n, dtype=np.float64)
        errs: list = [None] * n
        for i, buf in enumerate(payloads):
            try:
                px, w, h = self._decode(buf)
            except ValueError as e:
                errs[i] = str(e)
                continue
            ok[i] = True
            ws[i], hs[i] = w, h
            # nearest-neighbour resize + mean luma.  The mean is computed
            # from INTEGER per-channel sums (w*sum_r + ... on int64) so
            # the float64 result is a fixed, association-free expression —
            # bitwise-reproducible by any engine that replays the same
            # pixels (the DuckDB oracle does, with integer arithmetic).
            ty, tx = self.resize_to
            yi = (np.arange(ty) * h // ty)[:, None]
            xi = (np.arange(tx) * w // tx)[None, :]
            small = px[yi, xi]
            sr = int(small[..., 0].sum(dtype=np.int64))
            sg = int(small[..., 1].sum(dtype=np.int64))
            sb = int(small[..., 2].sum(dtype=np.int64))
            luma[i] = (0.2126 * sr + 0.7152 * sg + 0.0722 * sb) / (ty * tx)
        return pa.table({
            "image_id": pa.array(ids, type=pa.string()),
            "decoded_ok": pa.array(ok),
            "width": pa.array(ws),
            "height": pa.array(hs),
            "mean_luma": pa.array(luma),
            "error": pa.array(errs, type=pa.string()),
        })


def image_decode_stats(
    ds: "ray.data.Dataset",
    backend: str = "fake",
    batch_size: int = 32,
    concurrency: "int | tuple[int, int]" = (1, 8),
) -> "ray.data.Dataset":
    """The image pipeline entry: small batches (payloads are wide),
    actor pool, stats out."""
    return ds.map_batches(ImageDecodeStage, batch_format="pyarrow",
                          fn_constructor_kwargs={"backend": backend},
                          batch_size=batch_size, concurrency=concurrency,
                          num_cpus=1)


def image_decode_violations(stats: "ray.data.Dataset",
                            expected: Optional[dict] = None) -> "ray.data.Dataset":
    """IMG-DECODE-100 (payload fails decode) + IMG-DECODE-101 (decoded
    dims contradict the metadata columns, when provided)."""

    def emit(t: pa.Table) -> pa.Table:
        out = []
        ok = t.column("decoded_ok").to_numpy(zero_copy_only=False)
        keys = np.asarray(t.column("image_id").to_pylist(), dtype=object)
        errs = np.asarray(t.column("error").to_pylist(), dtype=object)
        if (~ok).any():
            out.append(make_violations("IMG-DECODE-100", keys[~ok], "bytes",
                                       errs[~ok], expected="payload decodes"))
        for col in ("width", "height"):
            if col in t.column_names and f"meta_{col}" in t.column_names:
                got = t.column(col).to_numpy(zero_copy_only=False)
                want = t.column(f"meta_{col}").to_numpy(zero_copy_only=False)
                m = ok & (got != want)
                if m.any():
                    out.append(make_violations("IMG-DECODE-101", keys[m], col,
                                               got[m], expected=f"decoded {col} == metadata"))
        return pa.concat_tables(out).combine_chunks() if out else empty_violations()

    return stats.map_batches(emit, batch_format="pyarrow")
