"""Checkpoint store — per-partition lineage + metrics records.

The reference has no checkpointing (a crashed run restarts from scratch;
SURVEY.md §4).  The engine's resume contract (north_rule): every
partition emits a lineage+metrics record and its result artifacts to a
durable store; an interrupted run resumes by skipping partitions whose
records are complete and re-merging stored partials.

Idempotency: records and artifacts are keyed by partition id and written
atomically (temp + rename), so a retried/duplicate task OVERWRITES
rather than duplicates — the merge step reads exactly one record per
partition (SURVEY.md §7.4 resume correctness).

Layout: ``records/<pid>.json`` and one directory ``artifacts/<pid>/``
per partition.  The partitioned runner keeps ONE artifact there,
``findings.arrow``: the scan's tagged table (violation rows and keyed
partial rows) as an uncompressed Arrow IPC file, written as a temp file
in that directory and renamed once.  Its record names it (``artifact``,
relative to the root; null when the partition found nothing) and the
sorted row-check set it was scanned with (``checks``); the merge reads
exactly the files the records name.  Corpus stages publish whole output directories
(``publish_artifact``).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from typing import Optional


class CheckpointStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(os.path.join(root, "records"), exist_ok=True)
        os.makedirs(os.path.join(root, "artifacts"), exist_ok=True)

    # -- records -----------------------------------------------------------

    def _record_path(self, partition_id: str) -> str:
        return os.path.join(self.root, "records", f"{partition_id}.json")

    def completed(self) -> set[str]:
        """The ids of the complete records."""
        return {r["partition_id"] for r in self.records()}

    def record(self, partition_id: str, payload: dict) -> dict:
        """Write the partition's record atomically; returns it as written."""
        payload = dict(payload, partition_id=partition_id, ts=time.time(),
                       status=payload.get("status", "done"))
        path = self._record_path(partition_id)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)   # atomic
        return payload

    def completed_record(self, partition_id: str) -> Optional[dict]:
        """The partition's record when it is complete, else None (a
        missing or half-written record is not complete)."""
        try:
            with open(self._record_path(partition_id)) as fh:
                r = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        return r if r.get("status") == "done" else None

    def records(self) -> list[dict]:
        """Every complete record in partition-id order, each file read once
        (a run reads its own partitions' records, ``completed_record``)."""
        rec_dir = os.path.join(self.root, "records")
        ids = sorted(f[:-5] for f in os.listdir(rec_dir) if f.endswith(".json"))
        return [r for r in map(self.completed_record, ids) if r]

    # -- artifacts (one directory per partition) --------------------------

    def artifact_dir(self, partition_id: str, *kind: str) -> str:
        """The partition's artifact directory, or its ``kind`` subdirectory."""
        return os.path.join(self.root, "artifacts", partition_id, *kind)

    def publish_artifact(self, partition_id: str, kind: str, tmp_dir: str) -> str:
        """Atomically promote a temp output dir to the artifact location
        (replacing any half-written previous attempt)."""
        final = self.artifact_dir(partition_id, kind)
        os.makedirs(os.path.dirname(final), exist_ok=True)
        if os.path.exists(final):
            shutil.rmtree(final)
        # an all-empty Dataset writes nothing at all — publish an empty dir
        # so an empty output is still a published state
        os.makedirs(tmp_dir, exist_ok=True)
        os.replace(tmp_dir, final)
        return final
