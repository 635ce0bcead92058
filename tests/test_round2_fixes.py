"""Regression tests for the round-2 advisory fixes:

  * spec_to_dict must keep zero-valued facet bounds (0 == False pitfall)
  * hash_join's tagged-union fallback must actually join (KeyError bug)
  * tumbling_window must use floor semantics for negative epochs
  * decode=True must keep metadata-only universals/existentials enforced
    and must NOT emit ONLY-100 for universals a spec never declares
  * partitioned report must not fail partitions on warning-severity rows
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from osf_data_validator_tool_ray.spec import (
    Cardinality,
    ConstraintSpec,
    Facets,
    Universal,
    clips_schema,
    clips_spec,
    spec_from_dict,
    spec_to_dict,
)


def test_spec_roundtrip_keeps_zero_bounds():
    spec = ConstraintSpec(
        table="t", key_column="k",
        facets={"x": Facets(dtype="decimal", min_inclusive=0.0, max_exclusive=0),
                "y": Facets(dtype="int", min_length=0)},
        cardinalities=[Cardinality(key="k", column="x", min_count=0)],
    )
    d = spec_to_dict(spec)
    assert d["facets"]["x"]["min_inclusive"] == 0.0
    assert d["facets"]["x"]["max_exclusive"] == 0
    assert d["facets"]["y"]["min_length"] == 0
    s2 = spec_from_dict(d)
    assert s2.facets["x"].min_inclusive == 0.0
    assert s2.facets["x"].max_exclusive == 0
    assert s2.cardinalities[0].min_count == 0
    # bools stay dropped when False, kept when True
    assert "not_null" not in d["facets"]["x"]
    spec_t = ConstraintSpec(table="t", facets={"z": Facets(not_null=True)})
    assert spec_to_dict(spec_t)["facets"]["z"]["not_null"] is True


def test_spec_zero_bound_enforced_after_roundtrip():
    """A 0.0 lower bound must survive --spec round-trip and reject
    negative values."""
    from osf_data_validator_tool_ray.pipelines.runner import run_suite

    spec = spec_from_dict(spec_to_dict(ConstraintSpec(
        table="t", key_column="id",
        facets={"v": Facets(dtype="decimal", min_inclusive=0.0)})))
    df = pd.DataFrame({"id": ["a", "b", "c"], "v": [-0.5, 0.0, 1.5]})
    v = run_suite(ray.data.from_pandas(df), spec).violations.to_pandas()
    assert set(v[v["column"] == "v"]["key"]) == {"a"}


def test_hash_join_fallback(monkeypatch):
    """hash_join needs no Ray native ``Dataset.join``: without it the
    join still equals a pandas merge."""
    from osf_data_validator_tool_ray.pipelines import relational

    left = pd.DataFrame({"k": [1, 2, 2, 3], "lv": ["a", "b", "c", "d"]})
    right = pd.DataFrame({"k": [2, 3, 3, 4], "rv": [10, 20, 30, 40]})
    monkeypatch.delattr(ray.data.Dataset, "join")
    assert not hasattr(ray.data.Dataset, "join")
    got = relational.hash_join(
        ray.data.from_pandas(left).repartition(2),
        ray.data.from_pandas(right).repartition(2), "k",
    ).to_pandas()
    want = left.merge(right, on="k")
    key = lambda df: sorted(map(tuple, df[["k", "lv", "rv"]].to_numpy()))
    assert key(got) == key(want)


def test_tumbling_window_negative_epoch_floor():
    from osf_data_validator_tool_ray.pipelines.streaming import tumbling_window
    from tests.test_keyed_tiers import _tier

    # 1969-12-31 23:59:30 is epoch -30s: floor(-30/60) = -1, trunc = 0
    ts = pd.to_datetime([
        "1969-12-31 23:59:30", "1970-01-01 00:00:30", "1969-12-31 23:58:59",
    ])
    df = pd.DataFrame({"k": ["a", "a", "a"], "ts": ts})
    for tier in ("driver", "exchange"):
        with _tier(tier):
            got = tumbling_window(ray.data.from_pandas(df), "k", "ts", 60).to_pandas()
        assert sorted(got["window_id"]) == [-2, -1, 0]


def _clips_ds(n=60, seed=7, defect_rate=0.15):
    from osf_data_validator_tool_ray.synth import synth_clips

    table, ledger = synth_clips(n, seed=seed, defect_rate=defect_rate)
    return ray.data.from_arrow(table).repartition(2), ledger


def test_decode_mode_keeps_metadata_universal():
    """A universal over a metadata-only predicate (nonempty_transcript)
    must stay enforced when decode=True hands bytes checks to the fused
    decode scan."""
    from osf_data_validator_tool_ray.pipelines.runner import run_suite
    from osf_data_validator_tool_ray.synth import synth_clips

    table, _ = synth_clips(40, seed=3, defect_rate=0.0)
    # blank one transcript
    tr = table.column("transcript").to_pylist()
    tr[5] = ""
    table = table.set_column(table.schema.get_field_index("transcript"),
                             "transcript", pa.array(tr, type=pa.string()))
    spec = ConstraintSpec(
        table="clips", key_column="clip_id", expected_schema=clips_schema(),
        universals=[Universal(predicate="nonempty_transcript")],
    )
    v = run_suite(ray.data.from_arrow(table).repartition(2), spec,
                  decode=True).violations.to_pandas()
    only = v[(v.check_id == "ONLY-100") & (v["column"] == "nonempty_transcript")]
    assert len(only) == 1
    bad_key = table.column("clip_id").to_pylist()[5]
    assert set(only["key"]) == {bad_key}


def test_decode_mode_no_spurious_undeclared_universals():
    """decode=True on a spec that declares NO universals must not emit
    ONLY-100 rows (previously bytes_suite_pass hard-coded two of them)."""
    from osf_data_validator_tool_ray.pipelines.runner import run_suite

    ds, ledger = _clips_ds()
    spec = ConstraintSpec(table="clips", key_column="clip_id",
                          expected_schema=clips_schema())
    v = run_suite(ds, spec, decode=True).violations.to_pandas()
    assert (v.check_id != "ONLY-100").all()
    # ...while the default spec (which declares them) still emits them
    v2 = run_suite(ds, clips_spec(), decode=True).violations.to_pandas()
    assert ledger.get("codec_mismatch") is None or \
        (v2.check_id == "ONLY-100").any()


def test_decode_mode_keeps_metadata_existential():
    """An existential over a metadata-only predicate must stay enforced
    in decode mode via the keyed pass."""
    from osf_data_validator_tool_ray.pipelines.runner import run_suite
    from osf_data_validator_tool_ray.spec import Existential
    from osf_data_validator_tool_ray.synth import synth_clips

    table, _ = synth_clips(30, seed=11, defect_rate=0.0)
    tr = table.column("transcript").to_pylist()
    tr[7] = ""
    table = table.set_column(table.schema.get_field_index("transcript"),
                             "transcript", pa.array(tr, type=pa.string()))
    spec = ConstraintSpec(
        table="clips", key_column="clip_id", expected_schema=clips_schema(),
        existentials=[Existential(key="clip_id", predicate="nonempty_transcript")],
    )
    v = run_suite(ray.data.from_arrow(table).repartition(2), spec,
                  decode=True).violations.to_pandas()
    some = v[(v.check_id == "SOME-100") & (v["column"] == "nonempty_transcript")]
    bad_key = table.column("clip_id").to_pylist()[7]
    assert set(some["key"]) == {bad_key}


def test_partitioned_warnings_do_not_fail(tmp_path):
    """Warning-severity rows (e.g. CROSS-DOMAIN-50) must not flip a
    partition or the run to fail; they are reported separately."""
    import pyarrow.parquet as pq

    from osf_data_validator_tool_ray.pipelines.partitioned import (
        validate_partitioned,
    )
    from osf_data_validator_tool_ray.spec import CrossColumnDomain, Facets
    from osf_data_validator_tool_ray.state.checkpoint import CheckpointStore

    # a codec value with no domain entry -> CROSS-DOMAIN-50 warning only
    # (every column has a facet entry, so spec completeness holds)
    df = pd.DataFrame({
        "clip_id": ["clip:0001:00000001", "clip:0001:00000002"],
        "sr_hz": np.array([8000, 16000], dtype=np.int32),
        "codec": ["mystery_codec", "mystery_codec"],
    })
    pdir = tmp_path / "parts"
    pdir.mkdir()
    pq.write_table(pa.Table.from_pandas(df), str(pdir / "p0.parquet"))
    spec = ConstraintSpec(
        table="clips", key_column="clip_id",
        facets={"clip_id": Facets(), "sr_hz": Facets(dtype="int"),
                "codec": Facets()},
        cross_domains=[CrossColumnDomain(
            type_column="codec", column="sr_hz",
            allowed={"pcm_s16le": frozenset({8000, 16000})})],
    )
    store = CheckpointStore(str(tmp_path / "ckpt"))
    rep = validate_partitioned(str(pdir / "*.parquet"), spec, store)
    assert rep["pass"] is True
    assert rep["violations"] == {}
    assert rep["warnings"].get("CROSS-DOMAIN-50", 0) == 2
    part = rep["partitions"]["p0"]
    assert part["pass"] is True
    assert part["n_violations"] == 0
    assert part["n_warnings"] == 2


def test_quarantine_bloom_path(tmp_path):
    """Bloom-prefiltered quarantine == exact quarantine."""
    import ray.data

    from osf_data_validator_tool_ray.pipelines.fix import quarantine

    df = pd.DataFrame({"k": [f"id{i}" for i in range(200)],
                       "v": np.arange(200)})
    bad = {f"id{i}" for i in range(0, 200, 7)}
    ds = ray.data.from_pandas(df).repartition(3)
    res = quarantine(ds, bad, "k", str(tmp_path / "c"), str(tmp_path / "q"),
                     bloom=True)
    assert res["n_quarantined"] == len(bad)
    assert res["n_clean"] == 200 - len(bad)
    q = ray.data.read_parquet(str(tmp_path / "q")).to_pandas()
    assert set(q["k"]) == bad
    c = ray.data.read_parquet(str(tmp_path / "c")).to_pandas()
    assert set(c["k"]) == set(df["k"]) - bad


def test_quarantine_empty_keys(tmp_path):
    import ray.data

    from osf_data_validator_tool_ray.pipelines.fix import quarantine

    ds = ray.data.from_pandas(pd.DataFrame({"k": ["a", "b"], "v": [1, 2]}))
    res = quarantine(ds, [], "k", str(tmp_path / "c2"), str(tmp_path / "q2"))
    assert res["n_quarantined"] == 0 and res["n_clean"] == 2


def test_minhash_bucket_truncation_warns(caplog):
    """A pathological all-identical bucket triggers the loud re-band
    warning (round-3 verdict #4 replaced truncation with
    connectivity-preserving re-banding) and still emits pairs that keep
    the bucket connected (driver merge path runs the bucket fn
    in-process)."""
    import logging

    import ray.data

    from osf_data_validator_tool_ray.checks.dedup import minhash_near_dup_pairs

    docs = pd.DataFrame({"doc_id": list(range(40)),
                         "text": ["identical document text here"] * 40})
    with caplog.at_level(logging.WARNING,
                         logger="osf_data_validator_tool_ray.dedup"):
        pairs = minhash_near_dup_pairs(
            ray.data.from_pandas(docs), "text", "doc_id",
            max_bucket_pairs=10).to_pandas()
    assert any("re-banded" in r.message for r in caplog.records)
    # connectivity preserved: union-find over the emitted pairs keeps
    # all 40 identical docs in ONE cluster even though the complete
    # 780-pair set was not emitted
    parent = list(range(40))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        parent[find(int(a))] = find(int(b))
    assert len({find(i) for i in range(40)}) == 1


def test_embedding_bucket_truncation_warns(caplog):
    import logging

    import ray.data

    from osf_data_validator_tool_ray.checks.similarity import (
        embedding_near_dup_pairs,
    )

    emb = [[1.0, 0.0, 0.0]] * 30
    df = pd.DataFrame({"vec_id": list(range(30)), "emb": emb})
    with caplog.at_level(logging.WARNING,
                         logger="osf_data_validator_tool_ray.similarity"):
        pairs = embedding_near_dup_pairs(
            ray.data.from_pandas(df), "emb", "vec_id",
            max_bucket=8).to_pandas()
    assert any("truncated" in r.message for r in caplog.records)
    assert len(pairs) > 0


def test_warning_tier_unevaluable_constraints():
    """A spec naming absent columns / unknown dtypes / unknown predicates
    yields -50 warnings (never silent skips) and does not fail the run."""
    from osf_data_validator_tool_ray.pipelines.runner import run_suite
    from osf_data_validator_tool_ray.spec import (
        Cardinality, ConstraintSpec, CrossColumnDomain, EnumDomain,
        Existential, Facets, RefIntegrity, Universal,
    )

    df = pd.DataFrame({"id": ["a", "b"], "v": [1, 2]})
    spec = ConstraintSpec(
        table="t", key_column="id",
        facets={"id": Facets(dtype="string"),
                "ghost": Facets(dtype="string", not_null=True),     # absent col
                "v": Facets(dtype="madeUpType")},                    # unknown dtype
        enums=[EnumDomain(column="ghost2", allowed=frozenset({"x"}))],
        cross_domains=[CrossColumnDomain(type_column="ghost3", column="v",
                                         allowed={"x": frozenset({1})})],
        cardinalities=[
            Cardinality(key="id", column="ghost4", max_count=1),     # absent col
            Cardinality(key="id", column="v", min_count=1,
                        qualifier="no_such_predicate"),              # unknown qual
        ],
        existentials=[Existential(key="id", predicate="no_such_predicate")],
        universals=[Universal(predicate="no_such_predicate")],
        ref_integrity=[RefIntegrity(ref_table="missing_refs",
                                    ref_column="id", key_column="id")],
    )
    res = run_suite(ray.data.from_pandas(df), spec, refs={})
    rep = res.report()
    warn_ids = {cid for cid, info in rep["checks"].items()
                if info["n_warnings"] > 0}
    assert {"DATATYPE-FACET-50", "DATATYPE-FACET-51", "ENUM-DOMAIN-50",
            "CROSS-DOMAIN-51", "CARD-MAX-50", "CARD-MIN-50", "SOME-50",
            "ONLY-50", "REF-EXISTENCE-50"} <= warn_ids
    # warnings are non-fatal: no error-severity rows from the skips
    for cid in warn_ids:
        assert rep["checks"][cid]["n_violations"] == 0 or cid.endswith("-100")


def test_restriction_lexical_ids():
    """dataRange analogs: values a restriction matches must also pass its
    declared facet set, each with its own ID (MAX-102 / MIN-104 /
    EXACT-104 / SOME-102 / ONLY-102 reference analogs)."""
    from osf_data_validator_tool_ray.pipelines.runner import run_suite
    from osf_data_validator_tool_ray.spec import (
        Cardinality, ConstraintSpec, Existential, Facets, Universal,
    )

    df = pd.DataFrame({
        "id":   ["a", "a", "b", "c", "c", "d"],
        "val":  ["ok", "x" * 30, "fine", None, "good", "y" * 40],
        "note": ["n1", "n2", "", "n4", "n5", "n6"],
    })
    spec = ConstraintSpec(
        table="t", key_column="id",
        cardinalities=[
            # counted vals must be <= 20 chars
            Cardinality(key="id", column="val", max_count=3,
                        value_facets=Facets(dtype="string", max_length=20)),
            Cardinality(key="id", column="val", min_count=1,
                        value_facets=Facets(dtype="string", max_length=35)),
            Cardinality(key="id", column="note", exact_count=1,
                        value_facets=Facets(dtype="string", min_length=1)),
        ],
        existentials=[Existential(key="id", predicate="nonempty_transcript",
                                  column="val",
                                  value_facets=Facets(dtype="string",
                                                      max_length=25))],
        universals=[Universal(predicate="nonempty_transcript", column="val",
                              value_facets=Facets(dtype="string",
                                                  max_length=29))],
    )
    # the existential/universal predicate reads `transcript`
    df["transcript"] = ["t"] * 6
    v = run_suite(ray.data.from_pandas(df), spec).violations.to_pandas()
    by_id = v.groupby("check_id")["key"].apply(set).to_dict()
    assert by_id.get("CARD-MAX-102") == {"a", "d"}       # 30- and 40-char vals
    assert by_id.get("CARD-MIN-104") == {"d"}            # only the 40-char val
    assert by_id.get("CARD-EXACT-104") == {"b"}          # empty note
    assert by_id.get("SOME-102") == {"a", "d"}           # scope: all (transcript nonempty)
    assert by_id.get("ONLY-102") == {"a", "d"}


def test_restriction_lexical_roundtrips_spec():
    from osf_data_validator_tool_ray.spec import (
        Cardinality, ConstraintSpec, Facets, spec_from_dict, spec_to_dict,
    )

    spec = ConstraintSpec(
        table="t", key_column="k",
        cardinalities=[Cardinality(key="k", column="v", max_count=2,
                                   value_facets=Facets(dtype="int",
                                                       min_inclusive=0.0))])
    s2 = spec_from_dict(spec_to_dict(spec))
    assert s2.cardinalities[0].value_facets == spec.cardinalities[0].value_facets
