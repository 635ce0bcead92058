"""Table sources/sinks.

The north_rule targets Lance tables (`ray.data.read_lance`); this
sandbox has no `pylance`, so the reader resolves Lance -> parquet with
an identical partition/fragment abstraction (one file or fragment = one
partition = the resume/lineage unit; see pipelines/partitioned.py).
"""

from __future__ import annotations

import glob
import os
from typing import Optional, Sequence

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

try:
    import lance  # noqa: F401
    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False


def _cache_fsspec_http_import() -> None:
    """Work around a thread race in Ray's path resolver.

    ray.data.datasource.path_util re-runs
    `from fsspec.implementations.http import HTTPFileSystem` on EVERY
    read/write call.  When aiohttp is absent the import fails each time
    (a failed module import is never cached), and two driver threads
    issuing IO concurrently (the package starts none, but a caller may)
    can observe each other's partially initialized module — surfacing
    as `ImportError: cannot import name 'HTTPFileSystem'`, which
    path_util does not catch (it only handles ModuleNotFoundError).  Importing the module successfully ONCE (with
    empty placeholder modules for the absent aiohttp/yarl, which
    fsspec's http module only touches at call time) caches it in
    sys.modules, making all later imports race-free dict lookups.
    """
    try:
        import fsspec.implementations.http  # noqa: F401
        return
    except ImportError:
        pass
    import sys
    import types

    injected = []
    for name in ("aiohttp", "yarl"):
        if name not in sys.modules:
            try:
                __import__(name)
            except ImportError:
                stub = types.ModuleType(name)
                stub.__doc__ = ("placeholder injected transiently by "
                                "osf_data_validator_tool_ray.sources.io "
                                "to cache the fsspec http import")
                sys.modules[name] = stub
                injected.append(name)
    try:
        import fsspec.implementations.http  # noqa: F401
    except Exception:
        pass
    finally:
        # the stubs exist ONLY for the duration of the fsspec import:
        # leaving them in sys.modules would make a later genuine
        # `import aiohttp` silently yield an empty module (confusing
        # AttributeErrors at call time) instead of a clean ImportError.
        # fsspec.implementations.http keeps its own reference, so the
        # cached entry stays valid after the stubs are dropped.
        for name in injected:
            sys.modules.pop(name, None)


_cache_fsspec_http_import()


def read_table(
    path: str,
    columns: Optional[Sequence[str]] = None,
    override_num_blocks: Optional[int] = None,
    filter=None,
) -> "ray.data.Dataset":
    """Read a Lance dataset or a parquet file/dir/glob with column
    projection AND (optionally) a row predicate pushed into the scan.

    ``filter`` is a ``pyarrow.dataset`` expression; the scan applies it
    against row-group statistics before decompressing pages, so a
    violation check whose predicate is scan-expressible (facet bounds,
    enum membership) reads only the row groups that can possibly
    violate — at 100 TB that is the difference between scanning the
    table and scanning the suspects."""
    kwargs = {}
    if columns is not None:
        kwargs["columns"] = list(columns)
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    if HAVE_LANCE and path.endswith(".lance"):
        ds = ray.data.read_lance(path, **kwargs)
        if filter is not None:
            # no scan-level pushdown wired for Lance here; apply the
            # same expression per batch so results NEVER silently
            # diverge from the parquet path (correctness over pruning)
            ds = ds.map_batches(lambda t, f=filter: t.filter(f),
                                batch_format="pyarrow", batch_size=None)
        return ds
    if filter is not None:
        kwargs["filter"] = filter
    if any(ch in path for ch in "*?["):
        return ray.data.read_parquet(sorted(glob.glob(path)), **kwargs)
    return ray.data.read_parquet(path, **kwargs)


def partition_files(path: str) -> list[str]:
    """The partition (fragment) list of a table — the resume unit.

    For Lance tables each FRAGMENT is a partition: the returned ids are
    ``<path>#<fragment_id>`` strings so the checkpoint store's lineage
    records stay one-string-per-partition (same contract as parquet
    file paths)."""
    if HAVE_LANCE and path.endswith(".lance"):
        import lance
        ds = lance.dataset(path)
        return [f"{path}#{frag.fragment_id}" for frag in ds.get_fragments()]
    if os.path.isdir(path):
        return sorted(glob.glob(os.path.join(path, "*.parquet")))
    return sorted(glob.glob(path))


def _lance_fragment(partition: str):
    """(Lance dataset, fragment) of a ``<path>#<fragment_id>`` partition
    id; None for a parquet file path."""
    if not ("#" in partition and partition.rsplit("#", 1)[0].endswith(".lance")):
        return None
    if not HAVE_LANCE:
        raise ImportError(f"pylance not available for Lance partition {partition!r}")
    import lance
    path, frag_id = partition.rsplit("#", 1)
    ds = lance.dataset(path)
    return ds, ds.get_fragment(int(frag_id))


# the most rows a scan reads or checks at once, however narrow the rows
MAX_BATCH_ROWS = 65_536


class Partition:
    """One partition, opened once: a parquet file path (its footer read
    once, memory-mapped) or a Lance ``<path>#<fragment_id>`` id (that
    fragment's metadata).  The one open gives the partition's Arrow
    schema, its row count and its scan, so a task that checks the schema
    and then scans reads the footer once."""

    def __init__(self, partition: str):
        self._lance = _lance_fragment(partition)
        self._file = (None if self._lance is not None
                      else pq.ParquetFile(partition, memory_map=True))

    @property
    def schema(self) -> pa.Schema:
        return self._lance[0].schema if self._file is None else self._file.schema_arrow

    @property
    def num_rows(self) -> int:
        """From metadata only, no page reads."""
        if self._file is None:
            return self._lance[1].count_rows()
        return self._file.metadata.num_rows

    def read_rows(self, columns: Optional[Sequence[str]], read_bytes: int) -> Optional[int]:
        """Rows per record batch that hold about ``read_bytes`` of
        ``columns`` (all when None), from the open footer's uncompressed
        column-chunk sizes (no page read), at most ``MAX_BATCH_ROWS``.
        None for a Lance fragment: its metadata gives no column sizes."""
        if self._file is None:
            return None
        md, wanted = self._file.metadata, None if columns is None else set(columns)
        size = sum(chunk.total_uncompressed_size
                   for rg in map(md.row_group, range(md.num_row_groups))
                   for chunk in map(rg.column, range(rg.num_columns))
                   if wanted is None or chunk.path_in_schema.split(".")[0] in wanted)
        if not size:
            return MAX_BATCH_ROWS
        return max(1, min(MAX_BATCH_ROWS, md.num_rows * read_bytes // size))

    def iter_batches(self, batch_size: int = MAX_BATCH_ROWS,
                     columns: Optional[Sequence[str]] = None):
        """Stream record batches of ``batch_size`` rows, reading only
        ``columns`` (all when None; none, with the row counts kept, when
        empty; ``read_rows`` sizes them by bytes).  A Lance
        fragment reads only itself (projection pushed down); a parquet
        file is read on the calling thread (``use_threads=False``): the
        scan runs inside a task that holds one CPU slot."""
        columns = None if columns is None else list(columns)
        if self._file is None:
            return self._lance[1].to_batches(columns=columns, batch_size=batch_size)
        return self._file.iter_batches(batch_size=batch_size, columns=columns,
                                       use_threads=False)


def parquet_read_files(ds: "ray.data.Dataset") -> Optional[list[str]]:
    """The files of ``ds``, in read order and with repeats, when ``ds`` is
    a plain parquet read: a bare ``read_parquet`` on the local filesystem
    without ``filter=``, partition columns, ``include_paths`` or a block
    UDF, whose schema is the first file's projected to its columns.  Such
    a Dataset holds exactly its files' rows, so reading the files with
    pyarrow gives the same table.  None for any other Dataset.

    This is the one reader of Ray's plan internals.  It takes the
    datasource's path list, not ``input_files()``, which is a set:
    ``read_parquet([f, f])`` holds ``f``'s rows twice."""
    import pyarrow.fs as pafs
    from ray.data._internal.datasource.parquet_datasource import ParquetDatasource
    from ray.data._internal.logical.operators.read_operator import Read

    dag = getattr(getattr(ds, "_logical_plan", None), "dag", None)
    if not isinstance(dag, Read) or not isinstance(dag._datasource, ParquetDatasource):
        return None
    src = dag._datasource
    if (not isinstance(src._filesystem, pafs.LocalFileSystem) or not src._pq_paths
            or src._to_batches_kwargs or src._partition_columns
            or src._include_paths or src._block_udf is not None):
        return None
    schema, first = arrow_schema(ds), pq.read_schema(src._pq_paths[0])
    if schema is None or not set(schema.names) <= set(first.names) \
            or not schema.equals(pa.schema([first.field(n) for n in schema.names])):
        return None
    return list(src._pq_paths)


def footer_size(footers: Sequence[pq.FileMetaData]) -> tuple[int, int]:
    """(rows, bytes) of parquet files from their footers: row counts and
    row-group byte sizes, with no page read."""
    return (sum(m.num_rows for m in footers),
            sum(m.row_group(i).total_byte_size for m in footers
                for i in range(m.num_row_groups)))


def arrow_schema(ds: "ray.data.Dataset") -> Optional[pa.Schema]:
    """A Dataset's schema as a ``pa.Schema``; None when Ray knows none
    (e.g. zero blocks).  For pandas blocks Ray maps each numpy dtype to
    its Arrow type and reports ``object`` where there is none (pandas
    object columns); those read as strings."""
    s = ds.schema()
    if s is None or isinstance(s, pa.Schema):
        return s
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    return pa.schema([pa.field(n, t if isinstance(t, pa.DataType) else pa.string())
                      for n, t in zip(s.names, s.types)])
