"""The benchmark's workloads, metric names, and which layers each one loads.

Each workload is a closed loop: one run at a time, and each round starts
only after the previous round's batch and feedback are done. A sweep runs
every agent of the workload once (``runs`` runs each) through the public
API; a benchmark run repeats sweeps for its time budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from pools import PoolShape


@dataclass(frozen=True)
class AgentSpec:
    label: str  # unique within a workload; names the agent's report directory
    kind: str
    feedback: str = "true"
    scripted: bool = False  # LLM agent on the in-process hit-seeking policy


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: PoolShape
    metric: str
    dataset_key: str
    agents: tuple[AgentSpec, ...]
    min_sweeps: int
    element_filter: tuple[str, ...] | None = None
    rounds: int = 5
    batch_size: int = 128
    num_centers: int = 5
    runs: int = 1
    service_delay_s: float = 0.0  # > 0: LLM agents talk to the HTTP stub

    @property
    def rounds_per_sweep(self) -> int:
        return len(self.agents) * self.runs * self.rounds


# Feedback-blind random-centroids runs under randomized
# feedback: their selections cannot change, and the ablation's shuffling
# still runs, so the feedback layer is timed on every workload.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gene-screen",
            why="paper gene screen (n=18k, d=256, l2, hit column): loads CSV ingest, "
                "the l2 scan via center allocation, and surrogates at large n; "
                "the LLM path is scripted and light",
            shape=PoolShape("genes", n=18_000, dim=256, clusters=64),
            metric="l2-squared",
            dataset_key="il2",
            agents=(
                AgentSpec("random", "random"),
                AgentSpec("linucb", "linucb"),
                AgentSpec("gp", "gp"),
                AgentSpec("random-centroids", "random-centroids", feedback="randomized"),
                AgentSpec("llmnn", "llmnn", scripted=True),
            ),
            # Four sweeps give 100 rounds, so the tail is p90: inside the
            # slowest agent's rounds rather than on the boundary between two
            # agents' rounds, where it would swing with small shifts.
            min_sweeps=4,
        ),
        # The coreset agent is left out: its 1,920 cosine scans per run over
        # a cache-sized matrix took anywhere from 7 s to 17 s per run as
        # neighbours on the shared host came and went, which no bound on
        # experiment_s survives. Five agents keep the median and p90 rounds
        # inside one agent's rounds rather than between two agents'.
        Workload(
            name="molecule",
            why="molecular setup (n=2k, d=768, cosine, top-10% hits, C/H/N/O filter): "
                "loads SMILES ingest, the cosine scan via center allocation, and "
                "surrogates at wide d and small n",
            shape=PoolShape("molecules", n=2_000, dim=768, clusters=32, filtered_extra=250),
            metric="cosine",
            dataset_key="ion-e",
            element_filter=("C", "H", "N", "O"),
            agents=(
                AgentSpec("random", "random"),
                AgentSpec("random-centroids", "random-centroids", feedback="randomized"),
                AgentSpec("linucb", "linucb"),
                AgentSpec("gp", "gp"),
                AgentSpec("llmnn-noexp", "llmnn-noexp", scripted=True),
            ),
            min_sweeps=4,
        ),
        Workload(
            name="llm-http",
            why="real HttpBackend against a localhost chat stub with a fixed service "
                "delay and injected faults (n=6k, d=64, il2): loads prompts, backends "
                "and feedback; endpoint waits dominate",
            shape=PoolShape("genes", n=6_000, dim=64, clusters=32),
            metric="l2-squared",
            dataset_key="il2",
            agents=(
                AgentSpec("llmnn", "llmnn"),
                AgentSpec("llmnn-randomized", "llmnn", feedback="randomized"),
                AgentSpec("bda", "bda"),
                AgentSpec("linucb", "linucb"),
                AgentSpec("gp", "gp"),
            ),
            min_sweeps=4,
            service_delay_s=0.1,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """Toy-size variant: same agents and checks, a few seconds in all."""
    shape = replace(
        workload.shape,
        n=150,
        dim=8,
        clusters=4,
        filtered_extra=20 if workload.shape.filtered_extra else 0,
    )
    return replace(
        workload,
        shape=shape,
        rounds=3,
        batch_size=10,
        num_centers=2,
        runs=2,
        min_sweeps=2,
        service_delay_s=0.002 if workload.service_delay_s else 0.0,
    )


# Metric name -> (unit, better, bound). Every workload reports every one.
# Times are host-speed adjusted (see yardstick.py); unadjusted, they drift by
# a fifth or more between runs on a shared machine. Set-up, which parses CSV
# and is tracked least well by the yardstick, and the other times keep the
# widest bound the benchmark allows; peak memory repeats closely.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "experiment_s": ("s", "lower", 0.25),
    "round_ms.p50": ("ms", "lower", 0.25),
    "round_ms.tail": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# Metric name -> unit; reported by the traced run. Times here are nonzero on
# every workload; counts may be zero where a layer is idle.
PER_LAYER = {
    "pool.load_s": "s",
    "pool.resolve_hit_policy_s": "s",
    "pool.csv_mb": "MB",
    "pool.rows": "count",
    "memory.scans": "count",
    "memory.scan_s": "s",
    "memory.scan_mb": "MB",
    "memory.nearest_unexplored.calls": "count",
    "memory.nearest_unexplored_s": "s",
    "memory.allocate_batch_s": "s",
    "memory.mark_explored_s": "s",
    "agents.select_self_s": "s",
    "agents.bda.kept_ratio": "ratio",
    "agents.bda.top_up_slots": "count",
    "agents.llmnn.center_substitutions": "count",
    "surrogates.linucb.fit_s": "s",
    "surrogates.linucb.score_s": "s",
    "surrogates.gp.fit_s": "s",
    "surrogates.gp.posterior_s": "s",
    "surrogates.median_heuristic_s": "s",
    "surrogates.top_b_s": "s",
    "prompts.render_s": "s",
    "prompts.parse_s": "s",
    "prompts.user_kb": "kB",
    "backends.calls": "count",
    "backends.attempts": "count",
    "backends.transient_errors": "count",
    "backends.parse_rejections": "count",
    "backends.failed": "count",
    "backends.wait_s": "s",
    "backends.useful_ratio": "ratio",
    "feedback.randomize.calls": "count",
    "feedback.randomize_s": "s",
    "feedback.records": "count",
    "harness.self_s": "s",
    "harness.aggregate_s": "s",
    "harness.write_report_s": "s",
    "trace.overhead_s": "s",
}

# Which end-to-end metric each layer's metrics should move, where the layer
# is loaded, and where it is light (the prediction there is no change).
LAYERS = {
    "pool": ("setup_s, peak_rss_mb", "gene-screen", "llm-http"),
    "memory": ("experiment_s via agent_s.random-centroids and agent_s.llmnn",
               "gene-screen (l2), molecule (cosine)", "llm-http"),
    "agents": ("experiment_s via agent_s.bda", "llm-http", "-"),
    "surrogates": ("experiment_s via agent_s.linucb and agent_s.gp",
                   "gene-screen (tall), molecule (wide)", "llm-http"),
    "prompts": ("round_ms.p50", "llm-http", "gene-screen"),
    "backends": ("experiment_s, round_ms.tail, runs_failed_frac", "llm-http",
                 "gene-screen, molecule"),
    "feedback": ("round_ms.p50", "llm-http", "gene-screen, molecule"),
    "harness": ("experiment_s", "all", "-"),
}
