from __future__ import annotations

import numpy as np
import pytest

from expdesign.errors import DatasetError
from expdesign.pool import (
    IngestOptions,
    MODE_ABS_TOP_PERCENTILE,
    MODE_GROUND_TRUTH,
    build_pool,
    load_pool,
    resolve_hit_policy,
    smiles_elements,
    write_embeddings,
    write_measurements,
)

from conftest import write_dataset


class TestLoadPool:
    def test_basic_load(self, tmp_path):
        meas, emb = write_dataset(
            tmp_path, ["MYC", "WDR5", "ABL1"], [0.1, 0.82, 0.09], np.eye(3)
        )
        pool = load_pool(meas, emb, IngestOptions(percentile=50.0))
        assert pool.names == ("MYC", "WDR5", "ABL1")
        assert pool.embeddings.dim == 3
        assert pool.scores.tolist() == [0.1, 0.82, 0.09]
        assert [pool.index_of(n) for n in pool.names] == [0, 1, 2]

    def test_expected_dim_accepts_and_rejects(self, tmp_path):
        rng = np.random.default_rng(0)
        meas, emb = write_dataset(
            tmp_path, ["a", "b", "c"], [1.0, 2.0, 3.0], rng.standard_normal((3, 808))
        )
        pool = load_pool(meas, emb, IngestOptions(expected_dim=808, percentile=50.0))
        assert pool.embeddings.dim == 808
        with pytest.raises(DatasetError, match="dim"):
            load_pool(meas, emb, IngestOptions(expected_dim=800, percentile=50.0))

    def test_expected_dim_768(self, tmp_path):
        rng = np.random.default_rng(1)
        meas, emb = write_dataset(
            tmp_path, ["CCO", "CCN"], [1.0, 2.0], rng.standard_normal((2, 768))
        )
        pool = load_pool(meas, emb, IngestOptions(expected_dim=768, percentile=50.0))
        assert pool.embeddings.dim == 768

    def test_duplicate_name_error(self, tmp_path):
        meas, emb = write_dataset(tmp_path, ["MYC", "MYC"], [1.0, 2.0], np.eye(2))
        with pytest.raises(DatasetError, match="duplicate"):
            load_pool(meas, emb)

    def test_missing_embedding_error(self, tmp_path):
        meas, _ = write_dataset(tmp_path, ["a", "b", "c"], [1.0, 2.0, 3.0], np.eye(3))
        _, emb = write_dataset(tmp_path, ["a", "b"], [1.0, 2.0], np.eye(2), stem="short")
        with pytest.raises(DatasetError, match="missing embeddings"):
            load_pool(meas, emb)

    def test_ragged_embeddings_error(self, tmp_path):
        meas, emb = write_dataset(tmp_path, ["a", "b"], [1.0, 2.0], np.eye(2))
        with open(emb, "a", encoding="utf-8") as fh:
            fh.write("c,1.0,2.0,3.0\n")
        with pytest.raises(DatasetError, match="ragged"):
            load_pool(meas, emb)

    def test_extra_embedding_rows_are_ignored(self, tmp_path):
        meas, _ = write_dataset(tmp_path, ["a", "b"], [1.0, 2.0], np.eye(2))
        _, emb = write_dataset(
            tmp_path, ["a", "b", "zzz"], [0, 0, 0], np.eye(3)[:, :2], stem="wide"
        )
        pool = load_pool(meas, emb, IngestOptions(percentile=50.0))
        assert pool.names == ("a", "b")

    def test_non_finite_score_rejected(self, tmp_path):
        meas, emb = write_dataset(tmp_path, ["a", "b"], [1.0, "nan"], np.eye(2))
        with pytest.raises(DatasetError, match="non-finite"):
            load_pool(meas, emb)

    def test_bad_header(self, tmp_path):
        meas = tmp_path / "bad.csv"
        meas.write_text("gene,value\nMYC,1.0\n", encoding="utf-8")
        _, emb = write_dataset(tmp_path, ["MYC"], [1.0], [[1.0]])
        with pytest.raises(DatasetError, match="header"):
            load_pool(meas, emb)

    def test_element_filter_and_score_range(self, tmp_path):
        names = ["CCO", "CCN", "CCCl", "c1ccccc1", "CC(=O)[O-].[Na+]", "CC#N"]
        scores = [1.0, 2.0, 3.0, 4.0, 5.0, 50.0]
        meas, emb = write_dataset(tmp_path, names, scores, np.eye(6))
        opts = IngestOptions(
            element_filter=("C", "H", "N", "O"), score_range=(-10.0, 10.0),
            percentile=50.0,
        )
        pool = load_pool(meas, emb, opts)
        # CCCl has chlorine, the sodium salt has Na, CC#N is out of range.
        assert pool.names == ("CCO", "CCN", "c1ccccc1")
        assert pool.scores.tolist() == [1.0, 2.0, 4.0]
        assert np.array_equal(pool.embeddings.matrix, np.eye(6)[[0, 1, 3]])

    def test_empty_after_filter(self, tmp_path):
        meas, emb = write_dataset(tmp_path, ["CCCl"], [1.0], [[1.0]])
        with pytest.raises(DatasetError, match="no candidates left"):
            load_pool(meas, emb, IngestOptions(element_filter=("C", "H")))

    def test_hit_column_activates_ground_truth(self, tmp_path):
        meas, emb = write_dataset(
            tmp_path, ["WDR5", "ABL1"], [0.82, 0.09], np.eye(2), hits=[1, 0]
        )
        pool = load_pool(meas, emb)
        assert pool.hit_policy.mode == MODE_GROUND_TRUTH
        assert pool.is_hit("WDR5") and not pool.is_hit("ABL1")


class TestBuildPool:
    @pytest.mark.parametrize(
        "names, scores, rows, match",
        [
            (["a", "b"], [1.0], np.eye(2), "equal length"),
            (["a", "b"], [1.0, 2.0], np.eye(3), "2 names but 3 embedding rows"),
            (["a", "a"], [1.0, 2.0], np.eye(2), "duplicate"),
            (["a", ""], [1.0, 2.0], np.eye(2), "empty name"),
            (["a", "b"], [1.0, float("inf")], np.eye(2), "non-finite score for 'b'"),
            (["a", "b"], [1.0, 2.0], [[1.0, float("nan")], [0.0, 1.0]], "non-finite"),
            (["a", "b"], [1.0, 2.0], [1.0, 2.0], "2-dimensional"),
            ([], [], np.eye(2), "empty"),
        ],
    )
    def test_rejects_inconsistent_arrays(self, names, scores, rows, match):
        with pytest.raises(DatasetError, match=match):
            build_pool(names, scores, rows, percentile=50.0)

    def test_arrays_are_copied(self):
        scores, rows = np.array([1.0, 2.0]), np.eye(2)
        pool = build_pool(["a", "b"], scores, rows, percentile=50.0)
        scores[0] = rows[0, 0] = 9.0
        assert pool.scores.tolist() == [1.0, 2.0]
        assert pool.embeddings.matrix[0, 0] == 1.0


class TestSmilesElements:
    @pytest.mark.parametrize(
        "smiles,expected",
        [
            ("CCO", {"C", "O"}),
            ("c1ccc(N)cc1", {"C", "N"}),
            ("CCCl", {"C", "Cl"}),
            ("[NH4+].[Cl-]", {"N", "H", "Cl"}),
            ("C[Si](C)(C)C", {"C", "Si"}),
            ("[2H]OC", {"H", "O", "C"}),
            ("c1cc[se]c1", {"C", "Se"}),
            ("O=S(=O)(O)O", {"O", "S"}),
        ],
    )
    def test_element_extraction(self, smiles, expected):
        assert smiles_elements(smiles) == frozenset(expected)

    def test_unterminated_bracket(self):
        with pytest.raises(DatasetError):
            smiles_elements("C[Si")


class TestHitPolicy:
    def test_percentile_rank_rule(self):
        # Ten distinct scores, p = 90: one hit (the score-10 candidate),
        # threshold at the second-largest score.
        pool = build_pool(
            [f"g{i}" for i in range(10)],
            [float(i + 1) for i in range(10)],
            np.eye(10),
            percentile=90.0,
        )
        assert pool.hit_names == {"g9"}
        assert pool.hit_policy.threshold == 9.0
        assert pool.is_hit("g9") and not pool.is_hit("g8")

    @pytest.mark.parametrize("n,expected", [(1128, 112), (642, 64), (11565, 1156)])
    def test_hit_counts_at_90th_percentile(self, n, expected):
        rng = np.random.default_rng(n)
        pool = build_pool(
            [f"c{i}" for i in range(n)],
            rng.permutation(n).astype(float),
            rng.standard_normal((n, 2)),
            percentile=90.0,
        )
        assert len(pool.hit_names) == expected

    def test_brute_force_count_matches(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(10, 400))
            p = float(rng.choice([50.0, 75.0, 90.0, 95.0]))
            if n * (100.0 - p) < 100.0:
                continue
            pool = build_pool(
                [f"c{i}" for i in range(n)],
                rng.permutation(n).astype(float),
                rng.standard_normal((n, 3)),
                percentile=p,
            )
            count = sum(pool.is_hit(name) for name in pool.names)
            assert count == int(np.floor(n * (100.0 - p) / 100.0))

    def test_tie_break_lower_index_wins(self):
        # Three-way tie at the boundary: only the lowest-index one is a hit.
        pool = build_pool(
            ["a", "b", "c", "d"],
            [5.0, 2.0, 2.0, 2.0],
            np.eye(4),
            percentile=50.0,
        )
        assert pool.hit_names == {"a", "b"}

    def test_abs_percentile(self):
        pool = build_pool(
            ["a", "b", "c", "d"],
            [-9.0, 1.0, 2.0, 3.0],
            np.eye(4),
            hit_mode=MODE_ABS_TOP_PERCENTILE,
            percentile=75.0,
        )
        assert pool.hit_names == {"a"}

    def test_percentile_too_small_pool(self):
        with pytest.raises(DatasetError, match="ground-truth"):
            build_pool(["a", "b"], [1.0, 2.0], np.eye(2), percentile=90.0)

    def test_ground_truth_membership(self):
        pool = build_pool(
            ["WDR5", "ABL1"],
            [0.82, 0.09],
            np.eye(2),
            hit_mode=MODE_GROUND_TRUTH,
            ground_truth={"WDR5"},
        )
        assert pool.is_hit("WDR5")
        assert not pool.is_hit("ABL1")

    def test_empty_ground_truth(self):
        pool = build_pool(
            ["a", "b"], [1.0, 2.0], np.eye(2), hit_mode=MODE_GROUND_TRUTH
        )
        assert not any(pool.is_hit(n) for n in pool.names)

    def test_ground_truth_outside_pool(self):
        with pytest.raises(DatasetError, match="not present"):
            build_pool(
                ["a"], [1.0], [[1.0]], hit_mode=MODE_GROUND_TRUTH,
                ground_truth={"zzz"},
            )

    def test_unknown_name(self, line_pool):
        with pytest.raises(DatasetError, match="unknown"):
            line_pool.is_hit("nope")

    def test_is_hit_idempotent(self, line_pool):
        first = [line_pool.is_hit(n) for n in line_pool.names]
        second = [line_pool.is_hit(n) for n in reversed(line_pool.names)]
        assert first == list(reversed(second))

    def test_resolve_is_stable(self, line_pool):
        again = resolve_hit_policy(line_pool)
        assert again.hits == line_pool.hit_policy.hits
        assert again.threshold == line_pool.hit_policy.threshold


class TestSerialization:
    def test_roundtrip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(3)
        names = [f"m{i}" for i in range(30)]
        scores = rng.standard_normal(30)
        emb = rng.standard_normal((30, 7))
        meas, embf = write_dataset(tmp_path, names, scores, emb)
        pool = load_pool(meas, embf)

        meas2, emb2 = tmp_path / "again.csv", tmp_path / "again-emb.csv"
        write_measurements(pool, meas2)
        write_embeddings(pool, emb2)
        pool2 = load_pool(meas2, emb2)

        assert pool2.names == pool.names
        assert np.array_equal(pool2.scores, pool.scores)
        assert np.array_equal(pool2.embeddings.matrix, pool.embeddings.matrix)

    def test_roundtrip_keeps_hit_column(self, tmp_path):
        meas, emb = write_dataset(
            tmp_path, ["a", "b"], [1.0, 2.0], np.eye(2), hits=[0, 1]
        )
        pool = load_pool(meas, emb)
        meas2 = tmp_path / "rt.csv"
        write_measurements(pool, meas2)
        emb2 = tmp_path / "rt-emb.csv"
        write_embeddings(pool, emb2)
        pool2 = load_pool(meas2, emb2)
        assert pool2.hit_names == pool.hit_names

    def test_pool_is_immutable(self, line_pool):
        with pytest.raises(ValueError):
            line_pool.embeddings.matrix[0, 0] = 99.0
        with pytest.raises(ValueError):
            line_pool.scores[0] = 99.0
