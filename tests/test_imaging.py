"""Pure-numpy PNG/BMP codec (imaging.py) + the real ``backend="png"``
image decode path (round-4 verdict item #4): exact round-trips across
every scanline filter and color type, corruption detection at the
container level (CRC, truncation, bad dimensions), and the actor-stage
pipeline gating on planted corruptions with genuinely decoded pixels.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data

from osf_data_validator_tool_ray.imaging import (
    PNG_SIG, decode_bmp, decode_image, decode_png, encode_bmp,
    encode_png, to_rgb)


def _gradient(h, w, ch):
    y, x = np.mgrid[0:h, 0:w]
    planes = [(x * 3) % 256, (y * 5) % 256, (x + y) % 256,
              (x * y + 1) % 256]
    return np.stack(planes[:ch], axis=2).astype(np.uint8)


@pytest.mark.parametrize("ch", [1, 2, 3, 4])
@pytest.mark.parametrize("ft", [0, 1, 2, 3, 4, "mixed"])
def test_png_round_trip_exact(ch, ft):
    rng = np.random.default_rng(ch * 10 + (5 if ft == "mixed" else ft))
    for px in (_gradient(17, 23, ch),
               rng.integers(0, 256, size=(9, 31, ch), dtype=np.uint8)):
        out, w, h = decode_png(encode_png(px, filter_type=ft))
        assert (w, h) == (px.shape[1], px.shape[0])
        assert (out == px).all()


def test_png_single_pixel_and_single_row():
    for shape in ((1, 1, 3), (1, 40, 3), (40, 1, 1)):
        px = _gradient(*shape)
        out, _, _ = decode_png(encode_png(px, "mixed"))
        assert (out == px).all()


def test_png_corruptions_detected():
    px = _gradient(16, 16, 3)
    good = encode_png(px, 4)
    # flipped byte inside IDAT -> CRC mismatch
    bad = bytearray(good)
    bad[len(good) // 2] ^= 0xFF
    with pytest.raises(ValueError, match="CRC|IDAT"):
        decode_png(bytes(bad))
    # truncation -> structural error
    with pytest.raises(ValueError):
        decode_png(good[: len(good) // 2])
    # bad signature
    with pytest.raises(ValueError, match="signature"):
        decode_png(b"\x89PNJ" + good[4:])
    # IDAT length lies about dimensions (rebuild with wrong IHDR dims)
    import struct
    import zlib

    def chunk(ctype, data):
        return (struct.pack(">I", len(data)) + ctype + data
                + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", 99, 99, 8, 2, 0, 0, 0)
    raw = zlib.compress(b"\x00" + b"\x01" * 48)
    forged = PNG_SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", raw) \
        + chunk(b"IEND", b"")
    with pytest.raises(ValueError, match="length"):
        decode_png(forged)


def test_bmp_round_trip_and_corruption():
    px = _gradient(13, 29, 3)
    for top_down in (False, True):
        out, w, h = decode_bmp(encode_bmp(px, top_down=top_down))
        assert (w, h) == (29, 13)
        assert (out == px).all()
    with pytest.raises(ValueError, match="truncated"):
        decode_bmp(encode_bmp(px)[:-40])
    with pytest.raises(ValueError, match="not a BMP"):
        decode_bmp(b"XX" + encode_bmp(px)[2:])


def test_decode_image_dispatch_and_to_rgb():
    px = _gradient(8, 8, 3)
    for buf in (encode_png(px, 2), encode_bmp(px)):
        out, w, h = decode_image(buf)
        assert out.shape == (8, 8, 3) and (out == px).all()
    grey = _gradient(8, 8, 1)
    out, _, _ = decode_image(encode_png(grey, 1))
    assert (out == np.repeat(grey, 3, axis=2)).all()
    rgba = _gradient(8, 8, 4)
    out, _, _ = decode_image(encode_png(rgba, 0))
    assert (out == rgba[:, :, :3]).all()
    with pytest.raises(ValueError, match="container"):
        decode_image(b"GIF89a" + b"\x00" * 64)


def test_png_backend_stage_gates_planted_corruptions():
    """ImageDecodeStage(backend='png') over a mixed PNG/BMP batch:
    luma must come from the REAL pixels and only the planted
    corruptions may fail decode."""
    from osf_data_validator_tool_ray.stages.multimodal import (
        ImageDecodeStage)

    rows, want_luma = [], {}
    for i in range(60):
        w, h = 16 + i % 7, 12 + i % 5
        px = _gradient(h, w, 3)
        buf = encode_bmp(px) if i % 2 else encode_png(px, i % 5)
        if i % 13 == 0:
            buf = buf[: len(buf) * 2 // 3]
        else:
            ty, tx = 64, 64
            yi = (np.arange(ty) * h // ty)[:, None]
            xi = (np.arange(tx) * w // tx)[None, :]
            small = px[yi, xi]
            sr = int(small[..., 0].sum(dtype=np.int64))
            sg = int(small[..., 1].sum(dtype=np.int64))
            sb = int(small[..., 2].sum(dtype=np.int64))
            want_luma[f"i{i:04d}"] = (
                0.2126 * sr + 0.7152 * sg + 0.0722 * sb) / (ty * tx)
        rows.append({"image_id": f"i{i:04d}", "bytes": buf})
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(3)
    stats = ds.map_batches(ImageDecodeStage(backend="png"),
                           batch_format="pyarrow",
                           batch_size=16).to_pandas().set_index("image_id")
    for i in range(60):
        key = f"i{i:04d}"
        if i % 13 == 0:
            assert not stats.loc[key, "decoded_ok"]
        else:
            assert stats.loc[key, "decoded_ok"]
            assert stats.loc[key, "width"] == 16 + i % 7
            assert abs(stats.loc[key, "mean_luma"]
                       - want_luma[key]) < 1e-9


def test_png_short_ihdr_is_valueerror_not_struct_error():
    """Round-5 review fix: a chunk typed IHDR with a 12-byte payload
    (valid CRC) must raise ValueError, not struct.error, so the decode
    stage flags it undecodable instead of crashing."""
    import struct
    import zlib

    def chunk(ctype, data):
        return (struct.pack(">I", len(data)) + ctype + data
                + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))

    forged = PNG_SIG + chunk(b"IHDR", b"\x00" * 12) \
        + chunk(b"IDAT", b"x") + chunk(b"IEND", b"")
    with pytest.raises(ValueError, match="IHDR length"):
        decode_png(forged)
    # and the stage path turns it into decoded_ok=False
    from osf_data_validator_tool_ray.stages.multimodal import (
        ImageDecodeStage)
    t = pa.table({"image_id": ["bad"], "bytes": [forged]})
    out = ImageDecodeStage(backend="png")(t)
    assert out.column("decoded_ok").to_pylist() == [False]


def test_png_round_trip_property():
    """Property: ANY uint8 array round-trips exactly through every
    filter type (hypothesis-driven shapes/contents)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.extra.numpy import arrays

    @settings(max_examples=40, deadline=None)
    @given(
        px=arrays(np.uint8,
                  st.tuples(st.integers(1, 12), st.integers(1, 12),
                            st.sampled_from([1, 2, 3, 4]))),
        ft=st.sampled_from([0, 1, 2, 3, 4, "mixed"]),
    )
    def check(px, ft):
        out, w, h = decode_png(encode_png(px, filter_type=ft))
        assert (w, h) == (px.shape[1], px.shape[0])
        assert (out == px).all()

    check()


def test_bmp_round_trip_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.extra.numpy import arrays

    @settings(max_examples=30, deadline=None)
    @given(px=arrays(np.uint8,
                     st.tuples(st.integers(1, 9), st.integers(1, 9),
                               st.just(3))),
           td=st.booleans())
    def check(px, td):
        out, w, h = decode_bmp(encode_bmp(px, top_down=td))
        assert (out == px).all()

    check()


def test_deflate_bomb_is_refused_without_inflating_it():
    """A 1x1 greyscale PNG whose IDAT inflates to 64 MiB: the decoder
    stops inflating at the size the header allows and raises, holding
    well under 1 MiB."""
    import struct
    import tracemalloc
    import zlib

    def chunk(ctype, data):
        return (struct.pack(">I", len(data)) + ctype + data
                + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))

    deflate = zlib.compressobj(9)
    idat = b"".join(deflate.compress(bytes(1 << 20)) for _ in range(64)) + deflate.flush()
    bomb = (PNG_SIG + chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0))
            + chunk(b"IDAT", idat) + chunk(b"IEND", b""))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="length"):
            decode_png(bomb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
