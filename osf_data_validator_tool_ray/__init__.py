"""osf_data_validator_tool_ray — a Ray-Data-native schema + constraint
validation engine.

Re-expresses the declarative constraint-checking semantics of
structureddynamics/OSF-Data-Validator-Tool (reference read-only at
/root/reference: a PHP CLI that discovers OWL-style constraints from
ontologies and evaluates them against RDF datasets over SPARQL) as
streaming ``ray.data.Dataset`` pipelines over Arrow tables — primarily a
table of audio clip + transcript rows:

    clip_id:string, bytes:binary, sr_hz:int32, dur_ms:int32,
    codec:string, transcript:string

Architecture (NOT a port — see SURVEY.md):
  * ``spec``        — the declarative constraint spec (the "ontology")
  * ``functions``   — vectorized facet validators, sketches, text ops
  * ``checks``      — check classes emitting violation-row Datasets
  * ``stages``      — reusable map_batches stages (fused facet pass,
                      audio decode)
  * ``pipelines``   — suite runner, report assembly, checkpoint/resume
  * ``sources``     — table readers/writers (parquet; Lance when present)
"""

__version__ = "0.1.0"


def __getattr__(name):
    """Lazy top-level API (keeps `import osf_data_validator_tool_ray`
    free of Ray imports until actually used)."""
    api = {
        "run_suite": ("pipelines.runner", "run_suite"),
        "SuiteResult": ("pipelines.runner", "SuiteResult"),
        "metadata_columns": ("pipelines.runner", "metadata_columns"),
        "validate_partitioned": ("pipelines.partitioned", "validate_partitioned"),
        "CheckpointStore": ("state.checkpoint", "CheckpointStore"),
        "ConstraintSpec": ("spec", "ConstraintSpec"),
        "clips_spec": ("spec", "clips_spec"),
        "spec_from_dict": ("spec", "spec_from_dict"),
        "spec_to_dict": ("spec", "spec_to_dict"),
    }
    if name in api:
        import importlib
        mod, attr = api[name]
        return getattr(importlib.import_module(f".{mod}", __name__), attr)
    raise AttributeError(name)
