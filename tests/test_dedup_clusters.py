"""``near_dup_clusters``: star contraction through ``relational.by_partition``
gives the union-find answer on the driver tier and on the forced exchange
tier (``test_keyed_tiers._tier``), and raises instead of returning
partial labels when it runs out of rounds."""

from unittest import mock

import numpy as np
import pandas as pd
import pytest
import ray.data

from osf_data_validator_tool_ray.checks import dedup
from osf_data_validator_tool_ray.checks.dedup import near_dup_clusters
from osf_data_validator_tool_ray.pipelines import relational as rel
from tests.test_keyed_tiers import _tier

TIERS = ["driver", "exchange"]


def _pairs(rows):
    return ray.data.from_pandas(pd.DataFrame(rows, columns=["id_a", "id_b"]))


def _union_find(pairs_list) -> dict:
    """The reference: node -> least node id of its component."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs_list:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            parent[hi] = lo
    return {n: find(n) for n in parent}


def _random_graph():
    rng = np.random.default_rng(5)
    edges = set()
    while len(edges) < 60:
        a, b = sorted(rng.integers(0, 40, size=2).tolist())
        if a != b:
            edges.add((a, b))
    return sorted(edges)


def _celebrity():
    """A node of degree 5,000 plus a disjoint three-node chain."""
    n_sat = 5000
    return ([(0, s) for s in range(1, n_sat + 1)]
            + [(10_000, 10_001), (10_001, 10_002)])


def _shuffled_path(n=64):
    ids = np.random.default_rng(n).permutation(n).tolist()
    rows = list(zip(ids[:-1], ids[1:]))
    return [rows[i] for i in np.random.default_rng(1).permutation(len(rows))]


GRAPHS = {
    "shuffled_path_64": _shuffled_path,
    "random_40": _random_graph,
    "celebrity": _celebrity,
    "self_loop": lambda: [(5, 5), (2, 1), (7, 7)],
    "duplicate_pair": lambda: [(3, 4), (3, 4), (4, 3), (8, 4)],
}


def _clusters(pairs) -> pd.Series:
    return near_dup_clusters(pairs).to_pandas().set_index("doc_id")["cluster_id"]


def test_clusters_driver_path():
    # components: {1,2,3}, {10,11}, {20,21,22,23}
    pairs = _pairs([(1, 2), (2, 3), (10, 11), (20, 21), (21, 22), (22, 23), (20, 23)])
    out = _clusters(pairs)
    assert out[1] == out[2] == out[3] == 1
    assert out[10] == out[11] == 10
    assert out[20] == out[21] == out[22] == out[23] == 20


def test_clusters_distributed_label_prop():
    pairs = _pairs([(1, 2), (2, 3), (3, 4), (4, 5), (7, 8)])
    with _tier("exchange"):
        out = _clusters(pairs)
    assert all(out[i] == 1 for i in (1, 2, 3, 4, 5))   # chain collapses to min
    assert out[7] == out[8] == 7


def test_clusters_empty():
    for tier in TIERS:
        with _tier(tier):
            out = near_dup_clusters(_pairs([]))
            assert out.count() == 0


def test_end_to_end_minhash_to_clusters():
    from osf_data_validator_tool_ray.checks.dedup import minhash_near_dup_pairs
    rng = np.random.default_rng(8)
    texts = [" ".join(str(rng.integers(0, 500)) for _ in range(80)) for _ in range(30)]
    ids = list(range(30))
    # triple-duplicate group {3, 100, 101}
    texts += [texts[3], texts[3][:-10] + " tail mods"]
    ids += [100, 101]
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts})).repartition(2)
    pairs = minhash_near_dup_pairs(ds, "text", "doc_id", threshold=0.5)
    clusters = _clusters(pairs)
    assert clusters[100] == 3 and clusters[101] == 3


def test_clusters_distributed_long_chain_converges():
    """A 15-node chain converges to its least id on the exchange tier."""
    n = 14
    pairs = _pairs([(i, i + 1) for i in range(n)])
    with _tier("exchange"):
        out = _clusters(pairs)
    assert all(out[i] == 0 for i in range(n + 1))


def test_clusters_distributed_matches_union_find_on_random_graph():
    pairs_list = _random_graph()
    with _tier("exchange"):
        got = _clusters(_pairs(pairs_list)).to_dict()
    assert got == _union_find(pairs_list)


def test_clusters_hot_key_celebrity_matches_union_find():
    """A celebrity node's 5,000 edges meet in one kernel call of the
    exchange tier and give the union-find answer."""
    sats = np.arange(1, 5001)
    pairs = ray.data.from_pandas(pd.DataFrame(_celebrity(), columns=["id_a", "id_b"])) \
        .repartition(4)
    with _tier("exchange"):
        out = _clusters(pairs)
    assert (out[sats] == 0).all()
    assert out[0] == 0
    assert out[10_000] == out[10_001] == out[10_002] == 10_000


def test_clusters_distributed_ids_beyond_2_53_exact():
    """int64 ids above 2^53 survive both tiers exactly (the kernel sorts
    and takes minima on int64 arrays; a float64 round trip would round
    them to the nearest double and corrupt the labels)."""
    base = (1 << 53) + 1          # not representable in float64
    ids = [base + i for i in range(6)]
    pairs = _pairs([(ids[0], ids[1]), (ids[1], ids[2]),
                    (ids[3], ids[4]), (ids[4], ids[5])])
    for tier in TIERS:
        with _tier(tier):
            out = _clusters(pairs)
        assert set(out.index) == set(ids)          # no phantom/rounded ids
        assert out[ids[0]] == out[ids[1]] == out[ids[2]] == ids[0]
        assert out[ids[3]] == out[ids[4]] == out[ids[5]] == ids[3]


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("tier", TIERS)
def test_clusters_match_union_find_on_both_tiers(tier, graph):
    """Every round goes through ``by_partition`` keyed on the edge's
    node, so the one tier patch reaches clustering, and both tiers give
    the union-find answer."""
    pairs_list = GRAPHS[graph]()
    keys_seen = []
    by_partition = rel.by_partition

    def spy(ds, keys, fn):
        keys_seen.append(list(keys))
        return by_partition(ds, keys, fn)

    pairs = ray.data.from_pandas(pd.DataFrame(pairs_list, columns=["id_a", "id_b"])) \
        .repartition(3)
    with _tier(tier), mock.patch.object(rel, "by_partition", spy):
        got = _clusters(pairs).to_dict()
    assert got == _union_find(pairs_list)
    assert keys_seen and all(k == ["u"] for k in keys_seen)


@pytest.mark.parametrize("tier", TIERS)
def test_clusters_raise_past_the_round_bound(tier):
    """A run that has not converged within its round bound raises; it
    never returns the labels it has."""
    with _tier(tier), mock.patch.object(dedup, "_round_bound", lambda nodes: 1):
        with pytest.raises(RuntimeError, match="not contracted"):
            near_dup_clusters(_pairs([(i, i + 1) for i in range(10)]))
