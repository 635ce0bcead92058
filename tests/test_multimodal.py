"""Multimodal stage plumbing: real Ray actor-pool batch flow over opaque
binary image columns with a deterministic fake decode backend
(imaging libs absent in this env; backends raise NotImplementedError)."""

import pyarrow as pa
import pytest
import ray.data

from osf_data_validator_tool_ray.stages.multimodal import (
    ImageDecodeStage,
    image_decode_stats,
    image_decode_violations,
    synth_image_payload,
)


def _image_table(n=40):
    rows = []
    for i in range(n):
        w, h = 32 + (i % 5) * 16, 24 + (i % 3) * 8
        rows.append({"image_id": f"img:{i:04d}",
                     "bytes": synth_image_payload(w, h, seed=i),
                     "width": w, "height": h, "format": "fimg"})
    # defects: truncated payload + garbage
    rows[7]["bytes"] = rows[7]["bytes"][:20]
    rows[13]["bytes"] = b"not an image"
    return pa.Table.from_pylist(rows)


def test_image_decode_stats_and_violations():
    t = _image_table()
    ds = ray.data.from_arrow(t).repartition(2)
    stats = image_decode_stats(ds, batch_size=16, concurrency=(1, 2)).to_pandas()
    assert len(stats) == 40
    bad = stats[~stats.decoded_ok]["image_id"].tolist()
    assert set(bad) == {"img:0007", "img:0013"}
    okrows = stats[stats.decoded_ok]
    assert (okrows["mean_luma"] > 0).all() and (okrows["width"] > 0).all()

    v = image_decode_violations(
        ray.data.from_pandas(stats)).to_pandas()
    assert set(v[v.check_id == "IMG-DECODE-100"]["key"]) == {"img:0007", "img:0013"}


def test_image_decode_deterministic():
    buf = synth_image_payload(16, 16, seed=5)
    s = ImageDecodeStage()
    px1, w, h = s._decode_fake(buf)
    px2, _, _ = s._decode_fake(synth_image_payload(16, 16, seed=5))
    assert (px1 == px2).all() and (w, h) == (16, 16)


def test_unimplemented_backends_are_marked():
    with pytest.raises(NotImplementedError):
        ImageDecodeStage(backend="pil")

