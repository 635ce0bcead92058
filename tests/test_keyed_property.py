"""Property test: the unified one-exchange keyed pass agrees with an
independent pure-pandas oracle on randomized tables and constraints."""

import contextlib
from unittest import mock

import numpy as np
import pandas as pd
import pytest
import ray.data
from hypothesis import given, settings, strategies as st

from osf_data_validator_tool_ray.checks.unified_keyed import unified_keyed_violations
from osf_data_validator_tool_ray.pipelines import relational as rel
from osf_data_validator_tool_ray.spec import Cardinality, ConstraintSpec, RefIntegrity


def _expected(df, refs, max_count, min_count):
    counts = df.groupby("k").size()
    exp = {
        "CARD-MAX-100": set(counts[counts > max_count].index.astype(str)),
        "CARD-MIN-100": set(counts[counts < min_count].index.astype(str)),
        "REF-EXISTENCE-100": set(map(str, set(refs["r"]) - set(df["k"]))),
    }
    # the ref keys double as the expected-key universe (zero-edge)
    exp["CARD-MIN-102"] = exp["REF-EXISTENCE-100"]
    return exp


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=60),
    st.lists(st.integers(0, 20), min_size=0, max_size=20),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from(["driver", "exchange"]),
)
def test_unified_matches_pandas_oracle(keys, ref_keys, max_count, min_count, nparts,
                                       tier):
    """Both merge tiers; the exchange tier is forced by failing the gate
    (patched in the body: hypothesis rejects function-scoped fixtures)."""
    df = pd.DataFrame({"k": keys, "v": np.arange(len(keys))})
    refs = pd.DataFrame({"r": ref_keys})
    spec = ConstraintSpec(
        table="t", key_column="k",
        cardinalities=[Cardinality(key="k", column="k", max_count=max_count),
                       Cardinality(key="k", column="k", min_count=min_count)],
        ref_integrity=[RefIntegrity(ref_table="refs", ref_column="r",
                                    key_column="k")],
    )
    ds = ray.data.from_pandas(df).repartition(nparts)
    refs_ds = ray.data.from_pandas(refs) if len(refs) else None
    with (mock.patch.object(rel, "fits_driver_merge", lambda ds, threshold=None: False)
          if tier == "exchange" else contextlib.nullcontext()):
        out = unified_keyed_violations(
            ds, spec, refs={"refs": refs_ds} if refs_ds is not None else None,
            expected_keys=refs_ds, expected_key_column="r")
        v = out.to_pandas()
    cids = ("CARD-MAX-100", "CARD-MIN-100", "REF-EXISTENCE-100", "CARD-MIN-102")
    if v.empty or "check_id" not in v.columns:
        got = {cid: set() for cid in cids}
    else:
        got = {cid: set(v[v.check_id == cid]["key"]) for cid in cids}
    want = _expected(df, refs, max_count, min_count)
    if refs_ds is None:
        want["REF-EXISTENCE-100"] = want["CARD-MIN-102"] = set()
    assert got == want, (got, want)


@settings(max_examples=12, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 8), st.floats(-100, 100)),
             min_size=1, max_size=80),
    st.integers(1, 4),
)
def test_grouped_agg_matches_pandas(rows, nparts):
    """grouped_agg (two-phase combiner) == plain pandas groupby for
    count/sum/min/max on random tables and partitionings."""
    from osf_data_validator_tool_ray.pipelines.relational import grouped_agg

    df = pd.DataFrame(rows, columns=["k", "v"])
    ds = ray.data.from_pandas(df).repartition(nparts)
    got = grouped_agg(ds, "k", {"n": ("v", "count"), "s": ("v", "sum"),
                                "lo": ("v", "min"), "hi": ("v", "max")}) \
        .to_pandas().set_index("k").sort_index()
    want = df.groupby("k").agg(n=("v", "size"), s=("v", "sum"),
                               lo=("v", "min"), hi=("v", "max")).sort_index()
    assert list(got.index) == list(want.index)
    assert (got["n"].to_numpy() == want["n"].to_numpy()).all()
    assert np.allclose(got["s"].to_numpy(), want["s"].to_numpy())
    assert np.allclose(got["lo"].to_numpy(), want["lo"].to_numpy())
    assert np.allclose(got["hi"].to_numpy(), want["hi"].to_numpy())
