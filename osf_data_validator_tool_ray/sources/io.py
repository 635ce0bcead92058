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
    issuing IO concurrently (multi-partition overlap in
    pipelines/partitioned.py) can observe each other's partially
    initialized module — surfacing as `ImportError: cannot import name
    'HTTPFileSystem'`, which path_util does not catch (it only handles
    ModuleNotFoundError).  Importing the module successfully ONCE (with
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


def iter_partition_batches(partition: str, batch_size: int = 65536,
                           columns: Optional[Sequence[str]] = None):
    """Stream one partition's record batches (the per-partition scan the
    partitioned pipeline uses).  Accepts a parquet file path or a Lance
    ``<path>#<fragment_id>`` partition id — the Lance side reads ONLY
    that fragment (projection pushed down), proving the
    fragment -> partition lineage mapping end-to-end."""
    columns = list(columns) if columns else None
    lance_part = _lance_fragment(partition)
    if lance_part is not None:
        yield from lance_part[1].to_batches(columns=columns, batch_size=batch_size)
        return
    yield from pq.ParquetFile(partition).iter_batches(batch_size=batch_size,
                                                      columns=columns)


def partition_schema_and_rows(partition: str) -> tuple[pa.Schema, int]:
    """(Arrow schema, row count) of one partition from METADATA only —
    no page reads.  Accepts the same two id forms as
    ``iter_partition_batches``: a parquet file path (footer) or a Lance
    ``<path>#<fragment_id>`` id (fragment metadata)."""
    lance_part = _lance_fragment(partition)
    if lance_part is not None:
        return lance_part[0].schema, lance_part[1].count_rows()
    pf = pq.ParquetFile(partition)
    return pf.schema_arrow, pf.metadata.num_rows


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
