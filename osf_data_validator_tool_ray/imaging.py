"""Pure-numpy PNG and BMP codecs — stdlib ``zlib``/``struct`` only.

The sandbox has no imaging libraries (no PIL/cv2/ffmpeg), but PNG's
format is fully public (RFC 2083 / the W3C PNG spec) and its DEFLATE
payload is stdlib, so a real decode path needs no new dependency.  This
module gives ``stages/multimodal.py`` a genuine pixel decoder
(``backend="png"``) in place of the fake header-parser backend:

* ``decode_png``  — 8-bit greyscale / RGB / grey+alpha / RGBA,
  non-interlaced, all five scanline filters, chunk-CRC verified.
* ``encode_png``  — same color types, selectable per-image filter
  (including "mixed", cycling 0..4 per row) — used by synthesis and by
  the round-trip tests to exercise every reconstruction branch.
* ``decode_bmp`` / ``encode_bmp`` — uncompressed 24-bit BI_RGB,
  bottom-up or top-down rows.
* ``decode_image`` — magic-dispatch (PNG signature / ``BM``) returning
  a uniform (H, W, 3) uint8 RGB array; the integration point
  ``ImageDecodeStage`` plugs in.

Scale posture: decode cost is per-payload compute inside an actor-pool
``map_batches`` stage (small batches, payloads never concatenated), the
same shape as the audio decode stage.  Filters 0/1/2 reconstruct fully
vectorized (filter 1 is a per-lane ``np.add.accumulate`` wrap-around
prefix sum); filters 3/4 are inherently sequential along a scanline
(each pixel depends on the reconstructed left neighbour) and loop over
columns with the channel lanes vectorized — a production deployment
would swap PIL/libpng here (documented in stages/multimodal.py), but
this path is real and exact.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

PNG_SIG = b"\x89PNG\r\n\x1a\n"

_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}
# the largest image decode_png inflates (64 Mpx: at most 256 MiB of
# scanlines for RGBA); a header past it is refused before inflating
MAX_PIXELS = 1 << 26


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Paeth predictor (PNG spec §6.6), elementwise over int32 inputs."""
    p = a + b - c
    pa, pb, pc_ = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc_), a, np.where(pb <= pc_, b, c))
    return out


def decode_png(buf) -> tuple[np.ndarray, int, int]:
    """Decode an 8-bit non-interlaced PNG.  Returns (pixels, w, h) with
    ``pixels`` shaped (h, w, channels) uint8.  Raises ValueError on any
    malformed structure, CRC mismatch, or unsupported feature."""
    buf = bytes(buf)
    if len(buf) < 8 or buf[:8] != PNG_SIG:
        raise ValueError("not a PNG (bad signature)")
    pos, ihdr, idat, ended = 8, None, [], False
    while pos + 8 <= len(buf):
        (length,) = struct.unpack_from(">I", buf, pos)
        ctype = buf[pos + 4: pos + 8]
        data_end = pos + 8 + length
        if data_end + 4 > len(buf):
            raise ValueError("truncated chunk")
        data = buf[pos + 8: data_end]
        (crc,) = struct.unpack_from(">I", buf, data_end)
        if zlib.crc32(ctype + data) & 0xFFFFFFFF != crc:
            raise ValueError(f"bad CRC in {ctype!r} chunk")
        if ctype == b"IHDR":
            ihdr = data
        elif ctype == b"IDAT":
            idat.append(data)
        elif ctype == b"IEND":
            ended = True
            break
        pos = data_end + 4
    if ihdr is None or not idat or not ended:
        raise ValueError("missing IHDR/IDAT/IEND")
    if len(ihdr) != 13:
        # struct.error is NOT a ValueError subclass — an IHDR of the
        # wrong length must still surface as an undecodable payload,
        # not crash the decode stage
        raise ValueError(f"IHDR length {len(ihdr)} != 13")
    w, h, depth, color, comp, filt, interlace = struct.unpack(
        ">IIBBBBB", ihdr)
    if depth != 8:
        raise ValueError(f"unsupported bit depth {depth}")
    if color not in _CHANNELS:
        raise ValueError(f"unsupported color type {color}")
    if comp != 0 or filt != 0:
        raise ValueError("unsupported compression/filter method")
    if interlace != 0:
        raise ValueError("interlaced PNG not supported")
    if w == 0 or h == 0:
        raise ValueError("zero-dimension image")
    if w * h > MAX_PIXELS:
        raise ValueError(f"image of {w}x{h} pixels exceeds {MAX_PIXELS}")
    ch = _CHANNELS[color]
    stride = w * ch
    size = h * (1 + stride)
    # inflate at most one byte past what the header allows: a stream that
    # inflates further (a deflate bomb) is refused without being inflated,
    # and one that stops short or never ends is refused too
    inflate = zlib.decompressobj()
    try:
        raw = inflate.decompress(b"".join(idat), size + 1)
    except zlib.error as e:
        raise ValueError(f"bad IDAT stream: {e}") from None
    if len(raw) != size or not inflate.eof:
        raise ValueError("IDAT length does not match dimensions")
    raw = np.frombuffer(raw, dtype=np.uint8).reshape(h, 1 + stride)
    ftypes = raw[:, 0]
    if (ftypes > 4).any():
        raise ValueError("invalid scanline filter type")
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(h):
        row = raw[y, 1:]
        ft = ftypes[y]
        if ft == 0:
            rec = row.copy()
        elif ft == 2:                       # Up
            rec = row + prev                # uint8 wrap == mod 256
        elif ft == 1:                       # Sub: per-lane prefix sum
            rec = row.copy().reshape(w, ch)
            np.add.accumulate(rec, axis=0, dtype=np.uint8, out=rec)
            rec = rec.reshape(stride)
        else:                               # Average / Paeth: sequential
            d = row.reshape(w, ch).astype(np.int32)
            up = prev.reshape(w, ch).astype(np.int32)
            rec2 = np.zeros((w, ch), dtype=np.int32)
            left = np.zeros(ch, dtype=np.int32)
            ul = np.zeros(ch, dtype=np.int32)
            if ft == 3:
                for x in range(w):
                    left = (d[x] + ((left + up[x]) >> 1)) & 0xFF
                    rec2[x] = left
            else:
                for x in range(w):
                    left = (d[x] + _paeth(left, up[x], ul)) & 0xFF
                    rec2[x] = left
                    ul = up[x]
            rec = rec2.astype(np.uint8).reshape(stride)
        out[y] = rec
        prev = rec
    return out.reshape(h, w, ch), int(w), int(h)


def encode_png(pixels: np.ndarray, filter_type: "int | str" = 0) -> bytes:
    """Encode an (h, w) or (h, w, {1,2,3,4}) uint8 array as a PNG.
    ``filter_type``: 0..4 applied to every row, or ``"mixed"`` to cycle
    through all five per row (test-vector generator)."""
    px = np.asarray(pixels, dtype=np.uint8)
    if px.ndim == 2:
        px = px[:, :, None]
    h, w, ch = px.shape
    color = {1: 0, 2: 4, 3: 2, 4: 6}[ch]
    stride = w * ch
    flat = px.reshape(h, stride).astype(np.int32)
    prev = np.zeros(stride, dtype=np.int32)
    rows = []
    for y in range(h):
        ft = (y % 5) if filter_type == "mixed" else int(filter_type)
        cur = flat[y]
        left = np.zeros(stride, dtype=np.int32)
        left[ch:] = cur[:-ch]
        ulft = np.zeros(stride, dtype=np.int32)
        ulft[ch:] = prev[:-ch]
        if ft == 0:
            f = cur
        elif ft == 1:
            f = cur - left
        elif ft == 2:
            f = cur - prev
        elif ft == 3:
            f = cur - ((left + prev) >> 1)
        elif ft == 4:
            f = cur - _paeth(left, prev, ulft)
        else:
            raise ValueError(f"bad filter_type {filter_type!r}")
        rows.append(bytes([ft]) + (f & 0xFF).astype(np.uint8).tobytes())
        prev = cur

    def chunk(ctype: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + ctype + data
                + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    idat = zlib.compress(b"".join(rows), 6)
    return (PNG_SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat)
            + chunk(b"IEND", b""))


def decode_bmp(buf) -> tuple[np.ndarray, int, int]:
    """Decode an uncompressed 24-bit BI_RGB BMP (bottom-up or top-down).
    Returns (pixels RGB (h, w, 3) uint8, w, h)."""
    buf = bytes(buf)
    if len(buf) < 54 or buf[:2] != b"BM":
        raise ValueError("not a BMP")
    (data_off,) = struct.unpack_from("<I", buf, 10)
    (hdr_size,) = struct.unpack_from("<I", buf, 14)
    if hdr_size < 40:
        raise ValueError(f"unsupported BMP header size {hdr_size}")
    w, h_signed = struct.unpack_from("<ii", buf, 18)
    planes, bpp = struct.unpack_from("<HH", buf, 26)
    (compression,) = struct.unpack_from("<I", buf, 30)
    if planes != 1 or bpp != 24 or compression != 0:
        raise ValueError("only uncompressed 24-bit BMP supported")
    if w <= 0 or h_signed == 0:
        raise ValueError("bad BMP dimensions")
    h = abs(h_signed)
    row_bytes = (w * 3 + 3) & ~3
    need = data_off + row_bytes * h
    if len(buf) < need:
        raise ValueError("truncated BMP pixel data")
    rows = np.frombuffer(buf, dtype=np.uint8, count=row_bytes * h,
                         offset=data_off).reshape(h, row_bytes)
    px = rows[:, : w * 3].reshape(h, w, 3)[:, :, ::-1]   # BGR -> RGB
    if h_signed > 0:
        px = px[::-1]                                    # bottom-up
    return np.ascontiguousarray(px), int(w), int(h)


def encode_bmp(pixels: np.ndarray, top_down: bool = False) -> bytes:
    """Encode an (h, w, 3) uint8 RGB array as an uncompressed 24-bit
    BI_RGB BMP."""
    px = np.asarray(pixels, dtype=np.uint8)
    h, w, ch = px.shape
    if ch != 3:
        raise ValueError("encode_bmp wants (h, w, 3) RGB")
    row_bytes = (w * 3 + 3) & ~3
    body = np.zeros((h, row_bytes), dtype=np.uint8)
    ordered = px if top_down else px[::-1]
    body[:, : w * 3] = ordered[:, :, ::-1].reshape(h, w * 3)
    data = body.tobytes()
    info = struct.pack("<IiiHHIIiiII", 40, w, -h if top_down else h,
                       1, 24, 0, len(data), 2835, 2835, 0, 0)
    hdr = struct.pack("<2sIHHI", b"BM", 54 + len(data), 0, 0, 54)
    return hdr + info + data


def to_rgb(pixels: np.ndarray) -> np.ndarray:
    """Uniform (h, w, 3) RGB view of any decoded channel layout (grey
    replicates; alpha drops — stats don't composite)."""
    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    ch = pixels.shape[2]
    if ch == 3:
        return pixels
    if ch == 1:
        return np.repeat(pixels, 3, axis=2)
    if ch == 2:                              # grey + alpha
        return np.repeat(pixels[:, :, :1], 3, axis=2)
    if ch == 4:
        return np.ascontiguousarray(pixels[:, :, :3])
    raise ValueError(f"bad channel count {ch}")


def decode_image(buf) -> tuple[np.ndarray, int, int]:
    """Magic-dispatch decode: PNG or BMP payload -> ((h, w, 3) uint8 RGB,
    w, h).  ValueError on anything else (surfaces as IMG-DECODE-100)."""
    if buf is None or len(buf) < 8:
        raise ValueError("payload too short")
    head = bytes(buf[:8])
    if head == PNG_SIG:
        px, w, h = decode_png(buf)
        return to_rgb(px), w, h
    if head[:2] == b"BM":
        return decode_bmp(buf)
    raise ValueError("unrecognized image container (not PNG/BMP)")
