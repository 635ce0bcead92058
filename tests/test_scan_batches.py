"""``SuitePass.scan`` sizes its batches in bytes: each file is read in
record batches of about ``runner.READ_BYTES`` of the pruned columns (rows
from the file's footer), and runs of them of up to ``runner.
BATCH_BYTES`` go to ``findings`` together, across file boundaries, cut
early where the next batch's schema differs.  Where the cuts fall changes
no finding: the violations and the per-key partial sums are those of one
``findings`` call per file."""

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from osf_data_validator_tool_ray.checks.unified_keyed import keyed_plan
from osf_data_validator_tool_ray.pipelines import runner
from osf_data_validator_tool_ray.pipelines.runner import ROW_CHECKS, SuitePass
from osf_data_validator_tool_ray.sources.io import MAX_BATCH_ROWS, Partition
from osf_data_validator_tool_ray.spec import clips_spec
from osf_data_validator_tool_ray.synth import synth_clips

ROWS_PER_FILE = 40


def _body(names, decode: bool) -> SuitePass:
    spec = clips_spec()
    return SuitePass(spec, names, keyed_plan(spec, names, decode),
                     ROW_CHECKS if decode else ROW_CHECKS - {"decode"},
                     frozenset(u.predicate for u in spec.universals))


def _calls(body: SuitePass) -> list[int]:
    """Record the row count of each ``findings`` call of ``body``."""
    rows, findings = [], body.findings
    body.findings = lambda batch: rows.append(batch.num_rows) or findings(batch)
    return rows


@pytest.fixture(scope="module")
def five(tmp_path_factory):
    """Five files of 40 clips; the third stores ``codec`` dictionary-encoded."""
    d = tmp_path_factory.mktemp("five")
    table = synth_clips(5 * ROWS_PER_FILE, seed=31, defect_rate=0.10)[0]
    files = []
    for i in range(5):
        part = table.slice(i * ROWS_PER_FILE, ROWS_PER_FILE)
        if i == 2:
            j = part.schema.get_field_index("codec")
            part = part.set_column(j, "codec", pc.dictionary_encode(part.column(j)))
        files.append(str(d / f"part-{i}.parquet"))
        pq.write_table(part, files[-1])
    assert pa.types.is_dictionary(pq.read_schema(files[2]).field("codec").type)
    return files


def _sorted_rows(t: pa.Table) -> list:
    return sorted(map(str, t.to_pylist()))


def _partial_sums(partials: list[pa.Table]) -> list:
    t = pa.concat_tables(partials)
    sums = t.group_by("key").aggregate([(c, "sum") for c in t.column_names[1:]])
    return sums.sort_by("key").to_pylist()


@pytest.mark.parametrize("decode", [False, True])
def test_scan_across_files_matches_per_file_findings(five, monkeypatch, decode):
    names = set(pq.read_schema(five[0]).names)
    body = _body(names, decode)
    per_file = [body.findings(pq.read_table(f, columns=body.columns)) for f in five]

    width = Partition(five[0]).read_rows(body.columns, 1 << 20)   # rows per MiB
    monkeypatch.setattr(runner, "READ_BYTES", (1 << 20) * 15 // width)  # ~15 rows of file 0
    monkeypatch.setattr(runner, "BATCH_BYTES", (1 << 20) * 35 // width)  # ~35 rows of file 0
    calls = _calls(body)
    found = pa.concat_tables([run.tagged for run in body.scan(five)],
                             promote_options="default")

    ends = [sum(calls[:i + 1]) for i in range(len(calls))]
    assert ends[-1] == 5 * ROWS_PER_FILE
    assert any(e % ROWS_PER_FILE for e in ends)                 # a cut mid-file
    assert any(e - n < b < e for e, n in zip(ends, calls)       # a call across files
               for b in range(ROWS_PER_FILE, ends[-1], ROWS_PER_FILE))
    assert {2 * ROWS_PER_FILE, 3 * ROWS_PER_FILE} <= set(ends)  # dictionary file cut out
    assert _sorted_rows(runner.tagged_violations(found)) == \
        _sorted_rows(pa.concat_tables([v for v, _ in per_file]))
    untagged = found.drop_columns(["_part"])
    assert _partial_sums([runner.tagged_partials(untagged)]) == \
        _partial_sums([p for _, p in per_file])
    # every row's _part names the file it came from
    assert found.column("_part").null_count == 0
    for i, (violations, partials) in enumerate(per_file):
        mine = found.filter(pc.equal(found.column("_part"), i)).drop_columns(["_part"])
        assert _sorted_rows(runner.tagged_violations(mine)) == _sorted_rows(violations)
        assert _partial_sums([runner.tagged_partials(mine)]) == _partial_sums([partials])


def test_reads_are_sized_from_the_footer(tmp_path, monkeypatch):
    """A file whose pruned columns exceed ``READ_BYTES`` is read in
    several record batches, none longer than the footer gives."""
    path = str(tmp_path / "clips.parquet")
    pq.write_table(synth_clips(400, seed=32, defect_rate=0.0)[0], path)
    body = _body(set(pq.read_schema(path).names), decode=True)
    md = pq.read_metadata(path)
    size = sum(md.row_group(g).column(c).total_uncompressed_size
               for g in range(md.num_row_groups)
               for c in range(md.num_columns)
               if md.row_group(g).column(c).path_in_schema in body.columns)
    assert size > runner.READ_BYTES
    rows = md.num_rows * runner.READ_BYTES // size
    assert Partition(path).read_rows(body.columns, runner.READ_BYTES) == rows
    assert Partition(path).read_rows(["clip_id"], runner.READ_BYTES) == MAX_BATCH_ROWS

    monkeypatch.setattr(runner, "BATCH_BYTES", 1)       # one call per read
    calls = _calls(body)
    assert [run.done for run in body.scan([path])][-1] == [0]
    assert len(calls) >= 2 and max(calls) <= rows and sum(calls) == 400
