"""Seeded benchmark inputs and the counts a correct run must reproduce.

Everything here is a pure function of ``seed`` and the stated size, so
two runs with one seed validate byte-identical tables.  The validator
only ever sees the files and tables built here.
"""

from __future__ import annotations

import os
import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

CLIP_ID_RE = re.compile(r"clip:[0-9]{4}:[0-9]{8}")

# Row-level error findings each planted defect kind produces (one defect
# kind per row, so these never interact).  Key-level checks
# (CARD-MAX/CARD-MIN/SOME) and the clip_id facet are derived from the
# table's keys instead, because a planted duplicate can merge two keys.
_ROW_FINDINGS = {
    "DATATYPE-FACET-101": ("dur_out_of_bounds", "empty_transcript",
                           "null_transcript", "ws_transcript"),
    "ENUM-DOMAIN-100": ("unknown_codec",),
    "CROSS-DOMAIN-100": ("bad_sr_for_codec",),
    "ONLY-100": ("truncated_bytes", "unknown_codec", "wrong_container",
                 "dur_out_of_bounds", "len_mismatch"),
}
_DECODE_FINDINGS = {
    "DECODE-100": ("truncated_bytes",),
    "DECODE-101": ("unknown_codec", "wrong_container", "dur_out_of_bounds",
                   "len_mismatch"),
}


def clips(out_dir: str, seed: int, n_rows: int, defect_rate: float,
          num_shards: int = 8) -> dict:
    """Write the seeded clips table (``synth.write_clips_dataset``) and
    return its meta dict plus the table's key list."""
    from osf_data_validator_tool_ray.synth import write_clips_dataset

    meta = write_clips_dataset(out_dir, n_rows=n_rows, seed=seed,
                               defect_rate=defect_rate, num_shards=num_shards)
    files = sorted(os.path.join(meta["clips_dir"], f)
                   for f in os.listdir(meta["clips_dir"]) if f.endswith(".parquet"))
    ids = pa.concat_tables([pq.read_table(f, columns=["clip_id"]) for f in files])
    meta["files"] = files
    meta["clip_ids"] = ids.column("clip_id").to_pylist()
    return meta


def partition_ids(files: list[str]) -> list[str]:
    return [os.path.splitext(os.path.basename(f))[0] for f in files]


def kept_partitions(files: list[str], seed: int) -> list[str]:
    """The seeded half of the partitions a resumed run finds checkpointed."""
    pids = partition_ids(files)
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(pids, size=len(pids) // 2, replace=False).tolist())


def expected_errors(meta: dict, decode: bool, refs: bool = True) -> dict[str, int]:
    """Per-check error counts implied by the seeded ledger.

    Row-level checks count one finding per planted row.  Key-level checks
    count keys: a key flags CARD-MAX when it occurs more than once, and
    CARD-MIN / SOME only when its single row carries the planted defect
    (a duplicate row copied onto that key brings a clean transcript and
    payload with it)."""
    ledger = {k: len(v) for k, v in meta["ledger"].items()}
    per_key = Counter(meta["clip_ids"])
    out: Counter = Counter()
    findings = dict(_ROW_FINDINGS, **(_DECODE_FINDINGS if decode else {}))
    for check, kinds in findings.items():
        out[check] += sum(ledger.get(k, 0) for k in kinds)
    out["DATATYPE-FACET-101"] += sum(
        1 for k in meta["clip_ids"] if not CLIP_ID_RE.fullmatch(k))
    out["CARD-MAX-100"] = sum(1 for n in per_key.values() if n > 1)
    missing = set(meta["ledger"].get("null_transcript", [])) \
        | set(meta["ledger"].get("empty_transcript", []))
    out["CARD-MIN-100"] = sum(1 for k in missing if per_key[k] == 1)
    out["SOME-100"] = sum(1 for k in meta["ledger"].get("truncated_bytes", [])
                          if per_key[k] == 1)
    if refs:
        out["REF-EXISTENCE-100"] = len(meta["dangling_refs"])
    return {k: v for k, v in out.items() if v}


# Fixed vocabulary (not seeded per run): 2,000 pronounceable words, so
# two unrelated documents share few 5-character shingles and near-copy
# detection is driven by the planted edits, not by a tiny vocabulary.
_SYL = ["ka", "lo", "mi", "ne", "su", "ta", "ri", "po", "de", "fa", "gu",
        "hi", "jo", "ve", "zu", "ba", "co", "ni", "pe", "ru"]
_VOCAB = [a + b + c for a in _SYL for b in _SYL for c in _SYL[:5]]
_VOCAB_POS = {w: i for i, w in enumerate(_VOCAB)}
_STOP = ["the", "a", "of", "and", "to", "in", "is", "it"]


def documents(seed: int, n_docs: int, exact_share: float = 0.08,
              near_share: float = 0.08, short_share: float = 0.04) -> tuple[pa.Table, dict]:
    """A seeded corpus with planted exact copies, word-edited near copies
    and too-short documents.

    * exact copies repeat an original's text with changed case and
      whitespace, so they are identical after ``normalize_text``;
    * near copies replace 3 of an original's 30-60 words;
    * short documents have fewer than 20 characters and fail the
      quality filter.
    Returns (table{doc_id, text}, plan) where plan holds the planted
    counts the curation must reproduce."""
    rng = np.random.default_rng(seed)
    n_exact = int(n_docs * exact_share)
    n_near = int(n_docs * near_share)
    n_short = int(n_docs * short_share)
    n_orig = n_docs - n_exact - n_near - n_short
    vocab = np.array(_VOCAB + _STOP * 25)

    originals: list[list[str]] = []
    seen: set[str] = set()
    while len(originals) < n_orig:
        words = list(vocab[rng.integers(0, len(vocab), size=rng.integers(30, 61))])
        text = " ".join(words)
        if text not in seen:
            seen.add(text)
            originals.append(words)
    texts = [" ".join(w) for w in originals]
    for i in rng.integers(0, n_orig, size=n_exact):
        w = originals[i]
        texts.append("  ".join(w).upper() + " \n")
    for i in rng.integers(0, n_orig, size=n_near):
        w = list(originals[i])
        for pos in rng.choice(len(w), size=3, replace=False):
            # a replacement equal to the old word would plant an exact copy
            old = _VOCAB_POS.get(w[pos], 0)
            w[pos] = _VOCAB[(old + 1 + int(rng.integers(0, 100))) % len(_VOCAB)]
        texts.append(" ".join(w))
    for _ in range(n_short):
        texts.append(" ".join(vocab[rng.integers(0, len(_VOCAB), size=2)]))
    order = rng.permutation(n_docs)
    table = pa.table({"doc_id": pa.array(np.arange(n_docs), type=pa.int64()),
                      "text": pa.array([texts[j] for j in order], type=pa.string())})
    plan = {"n_docs": n_docs, "n_exact_copies": n_exact,
            "n_near_copies": n_near, "n_short": n_short}
    return table, plan


def write_documents(out_dir: str, seed: int, n_docs: int, num_shards: int) -> tuple[pa.Table, dict]:
    """``documents`` written as ``num_shards`` parquet files."""
    table, plan = documents(seed, n_docs)
    os.makedirs(out_dir, exist_ok=True)
    step = -(-table.num_rows // num_shards)
    for s in range(num_shards):
        pq.write_table(table.slice(s * step, step),
                       os.path.join(out_dir, f"part-{s:05d}.parquet"))
    return table, plan
