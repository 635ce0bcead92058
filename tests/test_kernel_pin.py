"""The row kernels are pinned to the pandas-based kernels they replaced.

``SuitePass.findings`` output over fixed ``SuitePass.batch_size``-row
batches (not ``scan``'s byte-sized ones, so the pin stays on the
kernels), order included, must hash to the digests recorded from that
earlier implementation on the same seeded tables, in decode and in
sniff mode; and ``facet_violations`` must give the same
masks for a column whether it arrives as an Arrow array or as an object
ndarray of the same values.  Null-typed columns and text domains over
an integer column keep their pandas answers, and a dictionary-encoded
column gives its plain column's."""

import hashlib
import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings, strategies as st

from osf_data_validator_tool_ray.checks.unified_keyed import keyed_plan
from osf_data_validator_tool_ray.functions.facets import VALIDATORS, facet_violations
from osf_data_validator_tool_ray.pipelines.runner import ROW_CHECKS, SuitePass
from osf_data_validator_tool_ray.spec import ConstraintSpec, CrossColumnDomain, Facets, clips_spec
from osf_data_validator_tool_ray.stages.decode_stage import BytesSuitePass
from osf_data_validator_tool_ray.stages.facet_stage import StatelessValidator
from osf_data_validator_tool_ray.synth import synth_clips

# (seed, defect rate, decode) -> digest of the findings' (violations, partials)
DIGESTS = {
    (41, 0.01, True): "1d81cdf0b2d6bad7",
    (41, 0.01, False): "b9b503345f1a0277",
    (42, 0.10, True): "05558dce29826b08",
    (42, 0.10, False): "743de252398dad85",
    (43, 0.30, True): "438c03cf72d23837",
    (43, 0.30, False): "34c30aa6426d79b5",
}


@pytest.mark.parametrize("seed,rate,decode", sorted(DIGESTS))
def test_suite_pass_scan_matches_recorded_digest(tmp_path, seed, rate, decode):
    path = str(tmp_path / "clips.parquet")
    pq.write_table(synth_clips(400, seed=seed, defect_rate=rate)[0], path)
    spec = clips_spec()
    names = set(pq.read_schema(path).names)
    checks = ROW_CHECKS if decode else ROW_CHECKS - {"decode"}
    body = SuitePass(spec, names, keyed_plan(spec, names, decode), checks,
                     frozenset(u.predicate for u in spec.universals))
    h = hashlib.sha256()
    n_violations = 0
    for rb in pq.ParquetFile(path).iter_batches(body.batch_size, columns=body.columns):
        violations, partials = body.findings(pa.Table.from_batches([rb]))
        n_violations += violations.num_rows
        h.update(json.dumps([violations.to_pylist(), partials.to_pylist()],
                            default=str).encode())
    assert n_violations > 0
    assert h.hexdigest()[:16] == DIGESTS[(seed, rate, decode)]


_TEXT = st.lists(st.one_of(st.none(), st.text(max_size=12),
                           st.sampled_from(["", "abc", "a b", " a", "a\tb", "12", "-7"])),
                 max_size=25)
_INTS = st.lists(st.one_of(st.none(), st.integers(-2**63, 2**63 - 1),
                           st.integers(-50, 50)), max_size=25)
_BYTES = st.lists(st.one_of(st.none(), st.binary(max_size=6)), max_size=25)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(_TEXT, st.just(pa.string()), st.sampled_from(sorted(VALIDATORS))),
    st.tuples(_INTS, st.just(pa.int64()), st.just("int")),
    st.tuples(_BYTES, st.just(pa.binary()), st.just("binary"))))
def test_facets_same_on_arrow_and_object_ndarray(case):
    values, type_, dtype = case
    facets = Facets(dtype=dtype, pattern=r"[a-z]+", min_inclusive=-10, max_exclusive=10,
                    min_length=1, max_length=3, length=2, not_null=True, not_empty=True)
    from_arrow = facet_violations(pa.array(values, type=type_), facets)
    from_objects = facet_violations(np.array(values, dtype=object), facets)
    assert from_arrow.keys() == from_objects.keys()
    for name in from_arrow:
        assert from_arrow[name].tolist() == from_objects[name].tolist(), name


def _rows(v: pa.Table) -> list:
    return sorted(zip(v.column("check_id").to_pylist(), v.column("key").to_pylist(),
                      v.column("column").to_pylist()))


def test_domain_membership_follows_python_equality():
    """Enum and cross-column domains: a column Arrow types as null (an
    all-None pandas column) has no members and no violations; text is
    never a member of an integer column."""
    ids = ["clip:0001:00000001", "clip:0001:00000002", "clip:0001:00000003"]
    sr = pa.array([8000, 16000, None], pa.int32())
    spec = clips_spec()
    v = StatelessValidator(spec)(pa.table({"clip_id": ids, "codec": pa.nulls(3), "sr_hz": sr}))
    assert [(c, col) for c, _, col in _rows(v)] == [
        ("DATATYPE-FACET-101", "codec")] * 3 + [("DATATYPE-FACET-101", "sr_hz")]

    text_domain = ConstraintSpec(table="clips", key_column="clip_id", cross_domains=[
        CrossColumnDomain(type_column="codec", column="sr_hz",
                          allowed={"ulaw": frozenset({"8000"})})])
    v = StatelessValidator(text_domain)(pa.table(
        {"clip_id": ids, "codec": ["ulaw", "ulaw", "ulaw"], "sr_hz": sr}))
    assert _rows(v) == [("CROSS-DOMAIN-100", k, "sr_hz") for k in ids[:2]]


def test_dictionary_columns_read_like_plain_ones():
    """A dictionary-encoded column with nulls (a pandas categorical
    written to parquet) gives the rows its plain column gives, in the
    facet pass and in the payload findings.  Numpy conversion of such a
    chunked array fills the null slots with a dictionary value, here
    "ulaw", which a null must not be read as."""
    table = synth_clips(200, seed=7, defect_rate=0.0)[0]
    table = table.filter(pc.equal(table.column("codec"), "ulaw")).slice(0, 6)
    codec = pa.array([None, "ulaw", None, "ulaw", "ulaw", "ulaw"])
    i = table.schema.get_field_index("codec")
    plain = table.set_column(i, "codec", codec)
    encoded = table.set_column(i, "codec", pa.chunked_array([codec.dictionary_encode()]))
    spec = ConstraintSpec(table="clips", key_column="clip_id",
                          facets={"codec": Facets(pattern="pcm.*")})
    for kernel in (StatelessValidator(spec), BytesSuitePass()):
        assert _rows(kernel(encoded)) == _rows(kernel(plain))
    ids = table.column("clip_id").to_pylist()
    assert [k for c, k, col in _rows(BytesSuitePass()(plain))
            if c == "DECODE-101"] == sorted([ids[0], ids[2]])
