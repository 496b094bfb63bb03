"""Prompt rendering and structured response parsing for the LLM agents.

Rendering is deterministic down to the byte: the feedback tables use
right-aligned fixed-width columns with two-decimal scores, and every template
string below is locked by golden-file tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, PromptError
from .feedback import Feedback, FeedbackRecord

DOMAIN_GENES = "genes"
DOMAIN_MOLECULES = "molecules"
DOMAINS = (DOMAIN_GENES, DOMAIN_MOLECULES)

VARIANT_LLMNN = "llmnn"
VARIANT_LLMNN_NOEXP = "llmnn-noexp"
VARIANT_BDA = "bda"

# The direct-batch agent names candidates itself, so there is no
# nearest-neighbor remapping to describe; it is also gene-domain only.
_SUPPORTED = {
    DOMAIN_GENES: (VARIANT_LLMNN, VARIANT_LLMNN_NOEXP, VARIANT_BDA),
    DOMAIN_MOLECULES: (VARIANT_LLMNN, VARIANT_LLMNN_NOEXP),
}


@dataclass(frozen=True)
class DatasetDescriptors:
    """Free-text blurbs substituted into the prompt templates."""

    domain: str
    func_desc: str
    score_desc: str | None = None
    candidate_space_info: str | None = None


DATASET_DESCRIPTORS = {
    "il2": DatasetDescriptors(
        DOMAIN_GENES,
        "regulate the production of Interleukin-2 (IL-2)",
        "log fold change in Interleukin-2 (IL-2) normalized read counts",
    ),
    "ifng": DatasetDescriptors(
        DOMAIN_GENES,
        "regulate the production of Interferon-gamma (IFNG)",
        "log fold change in Interferon-gamma (IFNG) normalized read counts",
    ),
    "carnevale": DatasetDescriptors(
        DOMAIN_GENES,
        "upon being knocked out, would boost the efficacy of engineered T cells "
        "in the presence of an adenosine agonist that creates an immunosuppresive "
        "condition",
        "change in T cell proliferation",
    ),
    "sanchez": DatasetDescriptors(
        DOMAIN_GENES,
        "when knocked out, either increase or decrease expression of endogenous "
        "tau protein levels in neurons",
        "change in tau protein level compared to the non-targeting control, "
        "using a total tau antibody",
    ),
    "sanchez-down": DatasetDescriptors(
        DOMAIN_GENES,
        "when knocked out, decrease expression of endogenous tau protein levels "
        "in neurons",
        "change in tau protein level compared to the non-targeting control, "
        "using a total tau antibody",
    ),
    "ion-e": DatasetDescriptors(
        DOMAIN_MOLECULES,
        "ionization energy (in eV)",
        candidate_space_info=(
            "The molecules in the library are composed of only C, H, N and O "
            "elements."
        ),
    ),
    "esol": DatasetDescriptors(
        DOMAIN_MOLECULES,
        "solubility in water (log mol per litre)",
        candidate_space_info="The molecules in the library are small organic molecules.",
    ),
    "freesolv": DatasetDescriptors(
        DOMAIN_MOLECULES,
        "hydration free energy in water",
        candidate_space_info="The molecules in the library are small organic molecules.",
    ),
}


@dataclass(frozen=True)
class PromptSpec:
    """Everything needed to render one round's system + user prompt."""

    domain: str
    variant: str
    round_num: int
    batch_len: int
    num_centers: int
    func_desc: str
    score_desc: str | None = None
    candidate_space_info: str | None = None
    feedback: Feedback | None = None
    num_rounds: int = 5

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise PromptError(f"unknown domain {self.domain!r}")
        if self.variant not in _SUPPORTED[self.domain]:
            raise PromptError(
                f"variant {self.variant!r} is not supported for domain {self.domain!r}"
            )
        if self.round_num < 1:
            raise PromptError("round number must be >= 1")
        if self.round_num == 1 and self.feedback is not None:
            raise PromptError("round 1 must not carry feedback")
        if self.round_num > 1 and self.feedback is None:
            raise PromptError("rounds after the first require feedback")
        if not self.func_desc:
            raise PromptError("prompts need a task description (func_desc)")
        if self.domain == DOMAIN_GENES and not self.score_desc:
            raise PromptError("gene prompts need a score description")
        if self.domain == DOMAIN_MOLECULES and not self.candidate_space_info:
            raise PromptError("molecule prompts need candidate space info")
        if self.batch_len < 1 or self.num_centers < 1 or self.num_rounds < 1:
            raise PromptError("batch length, center count, and rounds must be >= 1")

    @classmethod
    def for_dataset(cls, dataset_key: str, **kwargs) -> "PromptSpec":
        desc = DATASET_DESCRIPTORS[dataset_key]
        return cls(
            domain=desc.domain,
            func_desc=desc.func_desc,
            score_desc=desc.score_desc,
            candidate_space_info=desc.candidate_space_info,
            **kwargs,
        )


def _score_table(records: tuple[FeedbackRecord, ...]) -> str:
    cells = [(r.name, f"{r.score:.2f}") for r in records]
    name_w = max([4] + [len(n) for n, _ in cells])
    score_w = max([5] + [len(s) for _, s in cells])
    lines = [f"{'name':>{name_w}}  {'score':>{score_w}}"]
    lines.extend(f"{n:>{name_w}}  {s:>{score_w}}" for n, s in cells)
    return "\n".join(lines)


def render_feedback(feedback: Feedback) -> str:
    """The [HITS] / [OTHER RESULTS] block, in order of discovery."""
    return (
        "[HITS]\n"
        + _score_table(feedback.hits)
        + "\n[OTHER RESULTS]\n"
        + _score_table(feedback.others)
    )


_GENES_SYSTEM = (
    "You are a biomedicine expert who will assist me on problems in drug "
    "discovery. I am planning to run a CRISPR screen to identify genes that "
    "{func_desc}. I can only perturb exactly {batch_len} genes at a time. For "
    "each predicted perturbation, I am able to measure out the {score_desc} "
    "which will be referred to as the score. I can only do {num_rounds} rounds "
    "of experimentation. After every round of experiment, I will provide you "
    "with feedback on your predictions, including the correctly identified "
    "genes called hits and the corresponding score. The predictions which are "
    "not hits will be included in other results."
)

_MOLECULES_SYSTEM = (
    "You are a chemistry expert who will assist me with problems in molecular "
    "property optimization. Given a library of molecules, I am planning to "
    "conduct wet-lab experiments to identify molecules that have high "
    "{func_desc}. {candidate_space_info} I can only experiment with exactly "
    "{batch_len} molecules at a time. For each predicted molecule, I am able "
    "to measure out the property value, which will be referred to as the "
    "score. I can only do {num_rounds} rounds of experimentation. After every "
    "round of experiment, I will provide you with feedback on your "
    "predictions, including the correctly identified molecules called hits "
    "and the corresponding score. The predictions which are not hits will be "
    "included in other results."
)

_STRATEGY = {
    (DOMAIN_GENES, 1): (
        "Choose genes that are very different in their biological pathways to "
        "discover what pathways give you hits."
    ),
    (DOMAIN_GENES, 2): (
        "Update your priors appropriately and choose genes that gave you hits. "
        "Also, be sure to explore by including some genes that could give hits."
    ),
    (DOMAIN_MOLECULES, 1): (
        "Choose molecules that are very different in their structures to "
        "discover what structures give you hits."
    ),
    (DOMAIN_MOLECULES, 2): (
        "Update your priors appropriately and choose SMILES that gave you hits. "
        "Also, be sure to explore by including some SMILES strings that could "
        "give hits."
    ),
}


def render_prompt(spec: PromptSpec) -> tuple[str, str]:
    """Instantiate the (system, user) prompt pair for one round."""
    if spec.domain == DOMAIN_GENES:
        system = _GENES_SYSTEM.format(
            func_desc=spec.func_desc,
            batch_len=spec.batch_len,
            score_desc=spec.score_desc,
            num_rounds=spec.num_rounds,
        )
        propose = (
            "Please propose {n} different yet valid gene names as per the HGNC "
            "nomenclature you want to explore next."
        )
        nn_note = (
            "Note that I will choose unexplored genes closest to your predicted "
            "genes to form the predictions."
        )
        placeholder = "Gene"
        item_rule = (
            "Each gene in the solution should only be the gene name in the HGNC "
            "nomenclature."
        )
    else:
        system = _MOLECULES_SYSTEM.format(
            func_desc=spec.func_desc,
            candidate_space_info=spec.candidate_space_info,
            batch_len=spec.batch_len,
            num_rounds=spec.num_rounds,
        )
        propose = (
            "Please propose {n} different yet valid SMILES strings of molecules "
            "you want to explore next."
        )
        nn_note = (
            "Note that I will choose unexplored molecules closest to your "
            "predicted SMILES strings to form the predictions."
        )
        placeholder = "SMILES"
        item_rule = (
            "Each SMILES string in the solution should be a SMILES string "
            "representation of a valid molecule."
        )

    count = spec.batch_len if spec.variant == VARIANT_BDA else spec.num_centers
    lines: list[str] = []
    if spec.round_num == 1:
        lines.append(f"This is round {spec.round_num}. We are beginning with our experiments.")
    else:
        lines.append(f"This is round {spec.round_num}.")
        lines.append("Here is the feedback on all your predictions till now:")
        lines.append(render_feedback(spec.feedback))
    strategy = _STRATEGY[(spec.domain, 1 if spec.round_num == 1 else 2)]
    lines.append(f"Here is a strategy to follow: {strategy}")

    ask = propose.format(n=count)
    if spec.variant != VARIANT_BDA:
        ask += " " + nn_note
    ask += " Your response should exactly follow the format:"
    lines.append(ask)
    if spec.variant != VARIANT_LLMNN_NOEXP:
        lines.append("**Reflection: Thoughts on previous results and next steps.")
        lines.append(
            "**Research Plan: The full high level research plan, with current "
            "status and reasoning behind each proposed approach. It should be "
            "at most 5 sentences."
        )
    lines.append("**Solution:")
    lines.append(f"## <{placeholder} 1>")
    lines.append(f"## <{placeholder} 2>")
    lines.append("...")
    lines.append(f"## <{placeholder} {count}>")
    lines.append(item_rule)
    lines.append("DO NOT ADD ANY COMMENTS IN THE SOLUTION OR AFTER THE SOLUTION.")
    return system, "\n".join(lines)


@dataclass
class ParsedResponse:
    """Structured view of an agent reply."""

    solution: list[str]
    short: bool = False
    truncated: bool = False


_SOLUTION_MARKER = "**Solution:"


def parse_solution(text: str, expected: int) -> ParsedResponse:
    """Extract the proposed names from an agent reply.

    Looks for the final ``**Solution:`` marker and collects subsequent lines
    that begin with ``## ``. Surplus names beyond ``expected`` are dropped
    (flagged ``truncated``); a deficit is flagged ``short`` so the caller can
    decide whether to retry.
    """
    if expected < 1:
        raise ValueError("expected count must be positive")
    pos = text.rfind(_SOLUTION_MARKER)
    if pos < 0:
        raise ParseError("response has no '**Solution:' marker")
    names: list[str] = []
    for line in text[pos + len(_SOLUTION_MARKER) :].splitlines()[1:]:
        stripped = line.strip()
        if stripped.startswith("## "):
            name = stripped[3:].strip()
            if name:
                names.append(name)
    if not names:
        raise ParseError("no '## ' entries found after the Solution marker")
    truncated = len(names) > expected
    if truncated:
        names = names[:expected]
    return ParsedResponse(
        solution=names,
        short=len(names) < expected,
        truncated=truncated,
    )
