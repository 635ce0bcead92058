"""The driver's keyed queries run the engine's production keyed pass
(``runner.scan_checks`` over the ``keyed`` entry); each must hash-match
its DuckDB ``oracle_sql()`` on both merge tiers: max/min/exact and
qualified counts, uniqueness, the existential, referential existence and
the zero-occurrence edge.  So must the other queries whose exchange tier
runs their driver tier's function per hash partition
(``relational.by_partition``): grouped aggregates, exact dedup, distinct
counts, windows, reconciliation and sequence regressions."""

import duckdb
import pytest

import __ray_entry__ as entrymod
from tests.test_keyed_tiers import _tier
from tools.check_correctness import to_pandas, value_hash

SF_DIR = "/root/testdata/sf0.001"
KEYED = ["card_max", "card_min", "card_exact", "card_max_qualified",
         "existential_missing", "uniqueness", "ri_missing", "zero_edge",
         "group_stats", "dedup_exact", "distinct_counts", "windowed_events",
         "sliding_windows", "reconcile_sum", "sequence_regressions"]


@pytest.fixture(scope="module")
def oracle():
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "supplier", "events", "documents"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    sql = entrymod.oracle_sql()
    yield lambda name: con.execute(sql[name]).df()
    con.close()


@pytest.mark.parametrize("tier", ["driver", "exchange"])
def test_keyed_queries_match_duckdb(oracle, tier):
    queries = entrymod.queries()
    with _tier(tier):
        got = {name: to_pandas(queries[name](SF_DIR)) for name in KEYED}
    for name in KEYED:
        want = oracle(name)
        assert sorted(got[name].columns) == sorted(want.columns), name
        assert len(got[name]) == len(want), name
        assert value_hash(got[name]) == value_hash(want), name
