"""Batch closed-loop experiment design over embedded candidate pools."""

from .agents import (
    AGENT_KINDS,
    Agent,
    BdaAgent,
    CoresetAgent,
    GpAgent,
    LinUcbAgent,
    LlmnnAgent,
    RandomAgent,
    RandomCentroidsAgent,
    coreset_select,
    make_agent,
)
from .backends import (
    HttpBackend,
    LlmBackend,
    RetryPolicy,
    SamplingParams,
    ScriptedBackend,
    chat_with_retry,
)
from .errors import (
    BackendError,
    ConfigError,
    DatasetError,
    ExpdesignError,
    NumericalError,
    ParseError,
    PromptError,
    TransientBackendError,
)
from .feedback import Feedback, FeedbackRecord, randomize_feedback
from .harness import (
    ExperimentConfig,
    RunResult,
    RunSummary,
    aggregate_runs,
    run_experiment,
    run_many,
    write_report,
)
from .memory import CandidateMemory, embedding_distances
from .pool import (
    CandidatePool,
    EmbeddingTable,
    HitPolicy,
    build_pool,
    load_pool,
    resolve_hit_policy,
    write_embeddings,
    write_measurements,
)
from .prompts import (
    DATASET_DESCRIPTORS,
    DatasetDescriptors,
    ParsedResponse,
    PromptSpec,
    parse_solution,
    render_feedback,
    render_prompt,
)
from .surrogates import GaussianProcess, LinUcb, select_top_b

__version__ = "0.1.0"
