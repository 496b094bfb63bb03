"""Batch closed-loop experiment design over embedded candidate pools.

The names below are imported from their modules at first use (PEP 562), so
``import expdesign`` loads no numpy: the command line (``expdesign.cli``)
sets its one-BLAS-thread defaults before numpy is first imported.
"""

import importlib

_EXPORTS = {
    "agents": (
        "AGENT_KINDS",
        "Agent",
        "BdaAgent",
        "CoresetAgent",
        "GpAgent",
        "LinUcbAgent",
        "LlmnnAgent",
        "RandomAgent",
        "RandomCentroidsAgent",
        "coreset_select",
        "make_agent",
    ),
    "backends": (
        "HttpBackend",
        "LlmBackend",
        "RetryPolicy",
        "SamplingParams",
        "ScriptedBackend",
        "chat_with_retry",
    ),
    "errors": (
        "BackendError",
        "ConfigError",
        "DatasetError",
        "ExpdesignError",
        "NumericalError",
        "ParseError",
        "PromptError",
        "TransientBackendError",
    ),
    "feedback": ("Feedback", "FeedbackRecord", "randomize_feedback"),
    "harness": (
        "ExperimentConfig",
        "RunResult",
        "RunSummary",
        "aggregate_runs",
        "run_experiment",
        "run_many",
        "write_report",
    ),
    "memory": ("CandidateMemory", "embedding_distances"),
    "pool": (
        "CandidatePool",
        "EmbeddingTable",
        "HitPolicy",
        "build_pool",
        "load_pool",
        "resolve_hit_policy",
        "write_embeddings",
        "write_measurements",
    ),
    "prompts": (
        "DATASET_DESCRIPTORS",
        "DatasetDescriptors",
        "ParsedResponse",
        "PromptSpec",
        "parse_solution",
        "render_feedback",
        "render_prompt",
    ),
    "surrogates": ("GaussianProcess", "LinUcb", "select_top_b"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
