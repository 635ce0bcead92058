"""The four benchmark workloads.

Each workload builds its seeded inputs, runs an untimed warm-up pass, and
then runs timed iterations through the package's public entry points.
Every iteration checks the program's output against counts known from
the seeded inputs; a mismatch is returned as a failure message.
"""

from __future__ import annotations

import os
import shutil

from . import inputs
from .measure import timed

# Input sizes.  "smoke" is the smallest size, used by the benchmark's
# own tests; "full" is what the benchmark measures.
SIZES = {
    "full": {"clips": 1000, "docs": 2500},
    "smoke": {"clips": 120, "docs": 600},
}
NUM_SHARDS = 8


class Workload:
    name = ""
    rows = 0
    tracer = None     # set for the traced half of a traced run

    def __init__(self, work_dir: str, seed: int, size: str):
        self.work_dir = work_dir
        self.size = SIZES[size]

    def timed(self, span: str, fn, *args):
        """``measure.timed``, inside a span when the run is traced."""
        if self.tracer is None:
            return timed(fn, *args)
        with self.tracer.span("e2e." + span):
            return timed(fn, *args)

    def warm_up(self) -> None:
        """The untimed warm-up pass that ends set-up."""
        raise NotImplementedError

    def iteration(self) -> dict:
        """One timed operation: {"rows", "main": Sample of the timed call,
        "resume": Sample of the resumed call, "errors": output-check
        failures}."""
        raise NotImplementedError


class SuiteWorkload(Workload):
    """``run_suite`` over the seeded clips table, report included."""

    decode: bool
    defect_rate: float

    def __init__(self, work_dir, seed, size):
        super().__init__(work_dir, seed, size)
        self.meta = inputs.clips(os.path.join(work_dir, "clips"), seed,
                                 self.size["clips"], self.defect_rate, NUM_SHARDS)
        self.rows = self.meta["n_rows"]
        self.expected = inputs.expected_errors(self.meta, decode=self.decode)

    def run(self, files: list[str]) -> dict:
        import ray.data

        from osf_data_validator_tool_ray.pipelines.runner import metadata_columns, run_suite
        from osf_data_validator_tool_ray.spec import clips_spec

        spec = clips_spec()
        ds = ray.data.read_parquet(files)
        meta_ds = ray.data.read_parquet(files, columns=metadata_columns(spec))
        refs = ray.data.read_parquet(self.meta["refs_path"])
        res = run_suite(ds, spec, refs={"refs": refs}, decode=self.decode,
                        metadata_ds=meta_ds, decode_profile="light")
        return res.report()

    def warm_up(self) -> None:
        # the first input file: starts Ray's workers and imports the
        # package in them without paying for a whole operation
        self.run(self.meta["files"][:1])

    def iteration(self) -> dict:
        report, main = self.timed("runner.run_suite", self.run, self.meta["files"])
        errors = check_counts(
            {c: v["n_violations"] for c, v in report["checks"].items()}, self.expected)
        # run_suite keeps no checkpoint: a resumed run repeats the whole
        # suite, so its resume time is the suite's own wall time
        return {"rows": self.rows, "main": main, "resume": main, "errors": errors}


class SuiteDecode(SuiteWorkload):
    name = "suite-decode"
    decode = True
    defect_rate = 0.01


class SuiteSniff(SuiteWorkload):
    name = "suite-sniff"
    decode = False
    defect_rate = 0.10


class PartitionedResume(Workload):
    """``validate_partitioned(decode=True)`` into a fresh store, then a
    resume over a store that holds a seeded half of the partitions."""

    name = "partitioned-resume"

    def __init__(self, work_dir, seed, size):
        super().__init__(work_dir, seed, size)
        self.meta = inputs.clips(os.path.join(work_dir, "clips"), seed,
                                 self.size["clips"], 0.01, NUM_SHARDS)
        self.rows = self.meta["n_rows"]
        self.expected = inputs.expected_errors(self.meta, decode=True, refs=False)
        self.kept = inputs.kept_partitions(self.meta["files"], seed)
        self.dropped = sorted(set(inputs.partition_ids(self.meta["files"])) - set(self.kept))

    def store(self, tag: str):
        from osf_data_validator_tool_ray.state.checkpoint import CheckpointStore

        root = os.path.join(self.work_dir, f"store-{tag}")
        shutil.rmtree(root, ignore_errors=True)
        return CheckpointStore(root)

    @staticmethod
    def validate(files_glob: str, store) -> dict:
        from osf_data_validator_tool_ray.pipelines.partitioned import validate_partitioned
        from osf_data_validator_tool_ray.spec import clips_spec

        return validate_partitioned(files_glob, clips_spec(), store, decode=True)

    def warm_up(self) -> None:
        store = self.store("warm")
        self.validate(self.meta["files"][0], store)
        shutil.rmtree(store.root)

    def iteration(self) -> dict:
        glob = os.path.join(self.meta["clips_dir"], "*.parquet")
        store = self.store("timed")
        fresh, main = self.timed("partitioned.fresh", self.validate, glob, store)
        drop_partitions(store.root, self.dropped)
        resumed, resume = self.timed("partitioned.resume", self.validate, glob, store)
        shutil.rmtree(store.root)
        return {"rows": self.rows, "main": main, "resume": resume,
                "errors": check_resume(fresh, resumed, len(self.kept), self.expected)}


class CorpusCurate(Workload):
    """``curate_corpus(sample_permille=900, embed_dim=32)`` over a seeded
    document set; the resume re-runs the final stage (near-dup drop,
    sample, embeddings) from a checkpoint holding the first three."""

    name = "corpus-curate"
    RESUME_KEEP = ("cleaned", "exact_unique", "clusters")

    def __init__(self, work_dir, seed, size):
        super().__init__(work_dir, seed, size)
        self.docs_dir = os.path.join(work_dir, "docs")
        self.table, self.plan = inputs.write_documents(self.docs_dir, seed, self.size["docs"],
                                                       NUM_SHARDS)
        self.rows = self.table.num_rows
        self.prefilled = os.path.join(work_dir, "ckpt-prefilled")
        self.reference: dict | None = None

    def curate(self, checkpoint_dir: str | None = None) -> dict:
        import ray.data

        from osf_data_validator_tool_ray.pipelines.corpus import curate_corpus

        ds = ray.data.read_parquet(self.docs_dir, columns=["doc_id", "text"])
        res = curate_corpus(ds, sample_permille=900, embed_dim=32,
                            checkpoint_dir=checkpoint_dir)
        return dict(res["stats"], n_embedded=res["embeddings"].count())

    def warm_up(self) -> None:
        """A checkpointed curation of the full input: warms every stage
        and leaves the checkpoint the resume starts from."""
        shutil.rmtree(self.prefilled, ignore_errors=True)
        self.reference = self.curate(self.prefilled)
        recs = os.path.join(self.prefilled, "records")
        for f in os.listdir(recs):
            if f[len("stage-"):-len(".json")] not in self.RESUME_KEEP:
                os.remove(os.path.join(recs, f))

    def iteration(self) -> dict:
        stats, main = self.timed("corpus.curate", self.curate)
        ckpt = os.path.join(self.work_dir, "ckpt-resume")
        shutil.rmtree(ckpt, ignore_errors=True)
        shutil.copytree(self.prefilled, ckpt)
        resumed, resume = self.timed("corpus.resume", self.curate, ckpt)
        shutil.rmtree(ckpt)
        return {"rows": self.rows, "main": main, "resume": resume,
                "errors": check_corpus(stats, resumed, self.reference, self.plan)}


WORKLOADS = {w.name: w for w in (SuiteDecode, SuiteSniff, PartitionedResume, CorpusCurate)}


def drop_partitions(store_root: str, pids: list[str]) -> None:
    """Remove partitions' records and artifacts, leaving the store as a
    run over the other partitions leaves it."""
    for pid in pids:
        os.remove(os.path.join(store_root, "records", f"{pid}.json"))
        shutil.rmtree(os.path.join(store_root, "artifacts", pid))


# ---- output gates -----------------------------------------------------------

def check_counts(got: dict[str, int], expected: dict[str, int], what: str = "") -> list[str]:
    """Every check's error count equals the expected one (absent = 0)."""
    return [f"{what}{c}: got {got.get(c, 0)}, expected {expected.get(c, 0)}"
            for c in sorted(set(got) | set(expected))
            if got.get(c, 0) != expected.get(c, 0)]


def check_resume(fresh: dict, resumed: dict, planted_skips: int,
                 expected: dict[str, int]) -> list[str]:
    errors = check_counts(fresh["violations"], expected, "fresh ")
    for k in ("violations", "warnings", "n_rows"):
        if resumed[k] != fresh[k]:
            errors.append(f"resumed {k} {resumed[k]} != fresh {fresh[k]}")
    if resumed["partitions_skipped"] != planted_skips:
        errors.append(f"resume skipped {resumed['partitions_skipped']} partitions, "
                      f"planted {planted_skips}")
    return errors


def check_corpus(stats: dict, resumed: dict, reference: dict, plan: dict) -> list[str]:
    errors = []
    if stats["n_exact_dup_rows"] != plan["n_exact_copies"]:
        errors.append(f"n_exact_dup_rows {stats['n_exact_dup_rows']} != planted "
                      f"{plan['n_exact_copies']}")
    if stats["n_after_quality"] != plan["n_docs"] - plan["n_short"]:
        errors.append(f"n_after_quality {stats['n_after_quality']} != "
                      f"{plan['n_docs'] - plan['n_short']}")
    if stats["n_embedded"] != stats["n_output"]:
        errors.append(f"{stats['n_embedded']} embeddings for {stats['n_output']} docs")
    for label, other in (("checkpointed", reference), ("resumed", resumed)):
        if other != stats:
            errors.append(f"{label} stage counts {other} != {stats}")
    return errors
