from __future__ import annotations

import pytest

from expdesign.errors import ParseError, PromptError
from expdesign.feedback import Feedback, FeedbackRecord
from expdesign.prompts import (
    DATASET_DESCRIPTORS,
    PromptSpec,
    parse_solution,
    render_feedback,
    render_prompt,
)

from conftest import GOLDEN_DIR

# Batch/center settings matching the benchmark defaults per dataset.
SETTINGS = {
    "il2": (128, 5),
    "ifng": (128, 5),
    "carnevale": (128, 5),
    "sanchez": (128, 5),
    "sanchez-down": (128, 5),
    "ion-e": (128, 5),
    "esol": (64, 4),
    "freesolv": (32, 4),
}

GENE_FEEDBACK = Feedback(
    (
        FeedbackRecord("WDR5", 0.82, True),
        FeedbackRecord("ABL1", 0.09, False),
        FeedbackRecord("QRFP", 0.0, False),
    )
)
MOL_FEEDBACK = Feedback(
    (
        FeedbackRecord("CCO", 0.82, True),
        FeedbackRecord("C1CCCCC1", 0.09, False),
        FeedbackRecord("CC(=O)O", 0.0, False),
    )
)


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


class TestGoldenPrompts:
    """The rendered prompts are a byte-level contract, frozen as golden files.

    Update a golden only as a deliberate, reviewed template change.
    """

    @pytest.mark.parametrize("key", sorted(SETTINGS))
    def test_round1_matches_golden(self, key):
        batch, centers = SETTINGS[key]
        spec = PromptSpec.for_dataset(
            key, variant="llmnn", round_num=1, batch_len=batch, num_centers=centers
        )
        system, user = render_prompt(spec)
        assert system == golden(f"{key}-llmnn-round1.system.txt")
        assert user == golden(f"{key}-llmnn-round1.user.txt")

    @pytest.mark.parametrize("key", sorted(SETTINGS))
    def test_round2_matches_golden(self, key):
        batch, centers = SETTINGS[key]
        fb = GENE_FEEDBACK if DATASET_DESCRIPTORS[key].domain == "genes" else MOL_FEEDBACK
        spec = PromptSpec.for_dataset(
            key,
            variant="llmnn",
            round_num=2,
            batch_len=batch,
            num_centers=centers,
            feedback=fb,
        )
        _, user = render_prompt(spec)
        assert user == golden(f"{key}-llmnn-round2.user.txt")

    @pytest.mark.parametrize("key", ["il2", "esol"])
    def test_noexp_variant_matches_golden(self, key):
        batch, centers = SETTINGS[key]
        spec = PromptSpec.for_dataset(
            key, variant="llmnn-noexp", round_num=1, batch_len=batch, num_centers=centers
        )
        _, user = render_prompt(spec)
        assert user == golden(f"{key}-llmnn-noexp-round1.user.txt")
        assert "**Reflection" not in user
        assert "**Research Plan" not in user
        assert "**Solution:" in user

    def test_bda_variant_matches_golden(self):
        spec = PromptSpec.for_dataset(
            "il2", variant="bda", round_num=1, batch_len=128, num_centers=5
        )
        _, user = render_prompt(spec)
        assert user == golden("il2-bda-round1.user.txt")
        assert "propose 128 different yet valid gene names" in user
        assert "## <Gene 128>" in user
        assert "closest to your predicted" not in user

        spec2 = PromptSpec.for_dataset(
            "il2", variant="bda", round_num=2, batch_len=128, num_centers=5,
            feedback=GENE_FEEDBACK,
        )
        _, user2 = render_prompt(spec2)
        assert user2 == golden("il2-bda-round2.user.txt")


class TestRenderPrompt:
    def test_deterministic(self):
        spec = PromptSpec.for_dataset(
            "ifng", variant="llmnn", round_num=2, batch_len=128, num_centers=5,
            feedback=GENE_FEEDBACK,
        )
        assert render_prompt(spec) == render_prompt(spec)

    def test_round1_rejects_feedback(self):
        with pytest.raises(PromptError, match="round 1"):
            PromptSpec.for_dataset(
                "il2", variant="llmnn", round_num=1, batch_len=128, num_centers=5,
                feedback=GENE_FEEDBACK,
            )

    def test_later_rounds_require_feedback(self):
        with pytest.raises(PromptError, match="require feedback"):
            PromptSpec.for_dataset(
                "il2", variant="llmnn", round_num=2, batch_len=128, num_centers=5
            )

    def test_bda_molecules_unsupported(self):
        with pytest.raises(PromptError, match="not supported"):
            PromptSpec.for_dataset(
                "esol", variant="bda", round_num=1, batch_len=64, num_centers=4
            )

    def test_hit_row_rendering(self):
        spec = PromptSpec.for_dataset(
            "il2", variant="llmnn", round_num=2, batch_len=128, num_centers=5,
            feedback=GENE_FEEDBACK,
        )
        _, user = render_prompt(spec)
        assert "WDR5   0.82" in user
        assert "[HITS]" in user and "[OTHER RESULTS]" in user

    def test_feedback_row_counts(self):
        records = tuple(
            FeedbackRecord(f"GENE{i}", 0.1 * i, i % 3 == 0) for i in range(12)
        )
        fb = Feedback(records)
        block = render_feedback(fb)
        hits_part, others_part = block.split("[OTHER RESULTS]")
        # header + one row per record in each partition
        assert len(hits_part.strip().splitlines()) == 1 + 1 + len(fb.hits)
        assert len(others_part.strip().splitlines()) == 1 + len(fb.others)

    def test_negative_zero_formats_with_sign(self):
        fb = Feedback((FeedbackRecord("WFDC6", -0.001, False),))
        assert "WFDC6  -0.00" in render_feedback(fb)

    def test_empty_partition_renders_header_only(self):
        fb = Feedback((FeedbackRecord("A", 1.0, True),))
        block = render_feedback(fb)
        assert block.endswith("[OTHER RESULTS]\nname  score")

    def test_custom_round_count(self):
        spec = PromptSpec.for_dataset(
            "il2", variant="llmnn", round_num=1, batch_len=128, num_centers=5,
            num_rounds=3,
        )
        system, _ = render_prompt(spec)
        assert "I can only do 3 rounds of experimentation." in system


class TestParseSolution:
    def test_parses_reference_output(self):
        text = (
            "**Reflection: Fresh start, spreading over pathways.\n\n"
            "**Research Plan: Diverse probes first, then concentrate.\n\n"
            "**Solution:\n## ABL1\n## HNF4A\n## MAPK14\n## PAK4\n## SMAD2\n"
        )
        parsed = parse_solution(text, 5)
        assert parsed.solution == ["ABL1", "HNF4A", "MAPK14", "PAK4", "SMAD2"]
        assert not parsed.short and not parsed.truncated

    def test_missing_marker(self):
        with pytest.raises(ParseError, match="Solution"):
            parse_solution("no structured reply here", 5)

    def test_zero_names(self):
        with pytest.raises(ParseError, match="entries"):
            parse_solution("**Solution:\nnothing to see", 5)

    def test_truncates_surplus(self):
        text = "**Solution:\n" + "\n".join(f"## G{i}" for i in range(7))
        parsed = parse_solution(text, 5)
        assert parsed.solution == ["G0", "G1", "G2", "G3", "G4"]
        assert parsed.truncated and not parsed.short

    def test_flags_shortfall(self):
        parsed = parse_solution("**Solution:\n## ONLY1", 5)
        assert parsed.solution == ["ONLY1"]
        assert parsed.short and not parsed.truncated

    def test_uses_final_marker(self):
        text = "**Solution:\n## WRONG\nsome chatter\n**Solution:\n## RIGHT"
        assert parse_solution(text, 1).solution == ["RIGHT"]

    def test_strips_decorations_and_whitespace(self):
        text = "**Solution:**\n  ##  RPL38  \n## RPL31"
        assert parse_solution(text, 2).solution == ["RPL38", "RPL31"]

    def test_roundtrip_with_rendered_exemplar(self):
        names = ["CCO", "CC(=O)O", "c1ccccc1"]
        reply = "**Solution:\n" + "\n".join(f"## {n}" for n in names)
        assert parse_solution(reply, 3).solution == names

    def test_expected_must_be_positive(self):
        with pytest.raises(ValueError):
            parse_solution("**Solution:\n## A", 0)
