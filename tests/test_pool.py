from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from expdesign import pool as pool_module
from expdesign.errors import DatasetError
from expdesign.pool import (
    HIT_MODES,
    MODE_ABS_TOP_PERCENTILE,
    MODE_GROUND_TRUTH,
    build_pool,
    load_pool,
    resolve_hit_policy,
    smiles_elements,
    write_embeddings,
    write_measurements,
)

from conftest import name_hit_oracle, write_dataset


class TestLoadPool:
    def test_basic_load(self, tmp_path):
        meas, emb = write_dataset(
            tmp_path, ["MYC", "WDR5", "ABL1"], [0.1, 0.82, 0.09], np.eye(3)
        )
        pool = load_pool(meas, emb, percentile=50.0)
        assert pool.names == ("MYC", "WDR5", "ABL1")
        assert pool.embeddings.dim == 3
        assert pool.scores.tolist() == [0.1, 0.82, 0.09]
        assert [pool.index_of(n) for n in pool.names] == [0, 1, 2]

    def test_crlf_embeddings_take_the_csv_reader(self, tmp_path, monkeypatch):
        # write_dataset writes LF line ends, which the plain parse takes;
        # csv.writer's default \r\n sends a file to the csv reader, which
        # must read the same pool.
        rng = np.random.default_rng(2)
        meas, emb = write_dataset(
            tmp_path, ["MYC", "WDR5", "ABL1", "KRAS"], [0.1, 0.82, 0.09, 0.5],
            rng.standard_normal((4, 5)),
        )
        crlf = tmp_path / "crlf-embeddings.csv"
        crlf.write_bytes(emb.read_bytes().replace(b"\n", b"\r\n"))
        csv_reader = pool_module._read_embeddings_csv
        read = []

        def spy(path, wanted):
            read.append(path)
            return csv_reader(path, wanted)

        monkeypatch.setattr(pool_module, "_read_embeddings_csv", spy)
        lf_pool = load_pool(meas, emb, percentile=50.0)
        crlf_pool = load_pool(meas, crlf, percentile=50.0)
        assert read == [crlf]
        assert crlf_pool.names == lf_pool.names
        assert crlf_pool.embeddings.matrix.tobytes() == lf_pool.embeddings.matrix.tobytes()

    def test_expected_dim_accepts_and_rejects(self, tmp_path):
        rng = np.random.default_rng(0)
        meas, emb = write_dataset(
            tmp_path, ["a", "b", "c"], [1.0, 2.0, 3.0], rng.standard_normal((3, 808))
        )
        pool = load_pool(meas, emb, expected_dim=808, percentile=50.0)
        assert pool.embeddings.dim == 808
        with pytest.raises(DatasetError, match="dim"):
            load_pool(meas, emb, expected_dim=800, percentile=50.0)

    def test_expected_dim_768(self, tmp_path):
        rng = np.random.default_rng(1)
        meas, emb = write_dataset(
            tmp_path, ["CCO", "CCN"], [1.0, 2.0], rng.standard_normal((2, 768))
        )
        pool = load_pool(meas, emb, expected_dim=768, percentile=50.0)
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
        pool = load_pool(meas, emb, percentile=50.0)
        assert pool.names == ("a", "b")

    def test_rows_follow_measurement_order(self, tmp_path):
        rows = np.arange(6.0).reshape(3, 2)
        meas, _ = write_dataset(tmp_path, ["c", "a", "b"], [1.0, 2.0, 3.0], rows[[2, 0, 1]])
        _, emb = write_dataset(tmp_path, ["a", "b", "c"], [0, 0, 0], rows, stem="sorted")
        for embeddings in (emb, tmp_path / "pool-embeddings.csv"):
            pool = load_pool(meas, embeddings, percentile=50.0)
            assert pool.names == ("c", "a", "b")
            assert pool.embeddings.matrix.tolist() == rows[[2, 0, 1]].tolist()
            assert not pool.embeddings.matrix.flags.writeable

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
        pool = load_pool(
            meas, emb, element_filter=("C", "H", "N", "O"), score_range=(-10.0, 10.0),
            percentile=50.0,
        )
        # CCCl has chlorine, the sodium salt has Na, CC#N is out of range.
        assert pool.names == ("CCO", "CCN", "c1ccccc1")
        assert pool.scores.tolist() == [1.0, 2.0, 4.0]
        assert np.array_equal(pool.embeddings.matrix, np.eye(6)[[0, 1, 3]])

    def test_empty_after_filter(self, tmp_path):
        meas, emb = write_dataset(tmp_path, ["CCCl"], [1.0], [[1.0]])
        with pytest.raises(DatasetError, match="no candidates left"):
            load_pool(meas, emb, element_filter=("C", "H"))

    def test_filters_keep_the_surviving_flagged_rows(self, tmp_path):
        names = ["CCO", "CCCl", "CCN", "CC#N", "CO", "OCCO", "CBr"]
        scores = [1.0, 2.0, 3.0, 50.0, 4.0, -20.0, 5.0]
        hits = [1, 1, 0, 1, 1, 1, 0]
        meas, emb = write_dataset(tmp_path, names, scores, np.eye(7), hits=hits)
        pool = load_pool(
            meas, emb, element_filter=("C", "H", "N", "O"), score_range=(-10.0, 10.0)
        )
        # CCCl and CBr fail the filter; CC#N and OCCO fall outside the range.
        assert pool.names == ("CCO", "CCN", "CO")
        assert pool.hit_policy.mode == MODE_GROUND_TRUTH
        assert pool.hit_names == {"CCO", "CO"}
        assert pool.hit_mask.tolist() == [True, False, True]

    def test_hit_column_activates_ground_truth(self, tmp_path):
        meas, emb = write_dataset(
            tmp_path, ["WDR5", "ABL1"], [0.82, 0.09], np.eye(2), hits=[1, 0]
        )
        pool = load_pool(meas, emb)
        assert pool.hit_policy.mode == MODE_GROUND_TRUTH
        assert pool.is_hit("WDR5") and not pool.is_hit("ABL1")


class TestErrorLineNumbers:
    """Errors cite the physical line, also after a name quoted across lines."""

    def test_bad_score_after_multiline_name(self, tmp_path):
        meas = tmp_path / "m.csv"
        meas.write_text('name,score\n"a\nb",1.0\nc,2.0\nd,bad\n', encoding="utf-8")
        _, emb = write_dataset(tmp_path, ["a\nb", "c", "d"], [0, 0, 0], np.eye(3))
        with pytest.raises(DatasetError, match=r"m\.csv:5: bad score"):
            load_pool(meas, emb)

    def test_bad_embedding_after_multiline_name(self, tmp_path):
        meas, _ = write_dataset(tmp_path, ["a"], [1.0], [[1.0]])
        emb = tmp_path / "e.csv"
        emb.write_text('"x\ny",1.0\na,bad\n', encoding="utf-8")
        with pytest.raises(DatasetError, match=r"e\.csv:3: bad embedding value"):
            load_pool(meas, emb)


def _outcome(read, path, wanted):
    """What an embeddings reader makes of a file: names, shape and matrix
    bits, or the exact error text."""
    try:
        names, matrix = read(path, wanted)
    except DatasetError as exc:
        return str(exc)
    return names, matrix.shape, matrix.tobytes()


def read_as_csv_reader_does(path, wanted):
    """The two-part reader's outcome, asserted equal to the csv reader's."""
    got = _outcome(pool_module._read_embeddings, path, wanted)
    assert got == _outcome(pool_module._read_embeddings_csv, path, wanted)
    return got


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


# 1 + 2^-53, halfway between 1.0 and the next double, plus a 55th digit that
# makes it round up.
_HALFWAY_55 = "1.000000000000000111022302462515654042363166809082031251"
LITERALS = [
    "1_0", "\u0661\u0662", "\xa01", "1.5\x1c", "1.5\x1f",
    "nan", "inf", "1e309",
    "4.9e-324", "2.2250738585072014e-308", "9007199254740993",
    _HALFWAY_55, "-0.0", "1.7976931348623157e308",
    ".5", "5.", "1E5", "+1", "--1", "1e",
]


@pytest.mark.filterwarnings("error")
class TestEmbeddingsReader:
    """The plain parse either returns the csv reader's names and bits or
    hands the file to it, so every outcome, error text included, is the
    csv reader's."""

    @pytest.mark.parametrize("literal", LITERALS)
    @pytest.mark.parametrize("row", ["a", "b"])
    def test_literal(self, tmp_path, literal, row):
        lines = {"a": "a,1.0,2.0", "b": "b,3.0,4.0", "c": "c,5.0,6.0"}
        lines[row] = f"{row},{literal},7.0"
        path = write_text(tmp_path / "e.csv", "\n".join(lines.values()) + "\n")
        read_as_csv_reader_does(path, {"a", "c"})

    def test_exact_literals_take_the_plain_parse(self, tmp_path, monkeypatch):
        exact = ["4.9e-324", "2.2250738585072014e-308", "9007199254740993",
                 _HALFWAY_55, "-0.0", "1.7976931348623157e308", ".5", "5.", "1E5", "+1"]
        path = write_text(tmp_path / "e.csv", "a," + ",".join(exact) + "\n")
        monkeypatch.setattr(pool_module, "_read_embeddings_csv", _no_csv_reader)
        names, matrix = pool_module._read_embeddings(path, {"a"})
        assert names == ["a"]
        assert matrix.tobytes() == np.array([[float(v) for v in exact]]).tobytes()

    @pytest.mark.parametrize(
        "text, match",
        [
            # loadtxt(usecols=...) would take the first two values.
            ("a,1.0,2.0\nc,3.0,4.0,5.0\n", "ragged"),
            ("a,1.0,2.0\nb,3.0,4.0,5.0\nc,6.0,7.0\n", "ragged"),
            # The wanted rows agree; the unwanted first row sets the width.
            ("b,1.0\na,2.0,3.0\nc,4.0,5.0\n", "ragged"),
            # loadtxt reads 1.5; float() does not.
            ("a,1.5\x1c\nc,2.0\n", "bad embedding value"),
            # loadtxt drops the line and reads one row.
            ("a,\nc,2.0\n", "bad embedding value"),
            ("a,2.0\nc,\n", "bad embedding value"),
        ],
    )
    def test_loadtxt_traps(self, tmp_path, text, match):
        path = write_text(tmp_path / "e.csv", text)
        got = read_as_csv_reader_does(path, {"a", "c"})
        assert isinstance(got, str) and match in got

    @pytest.mark.parametrize(
        "text, wanted, expect",
        [
            ('a,1.0\n"x,\ny",2.0\n', {"a", "x,\ny"}, ["a", "x,\ny"]),
            ('"b",1.0\na,2.0\n', {"a", "b"}, ["b", "a"]),
            ('"b",1.0\n', {'"b"'}, "missing embeddings"),
            ('a"b,1.0\n', {'a"b'}, ['a"b']),
            ("a\r,1.0\n", {"a\r"}, "needs name + values"),
            ("a,1.0,2.0\r\nc,3.0,4.0\r\n", {"a", "c"}, ["a", "c"]),
            ("a,1.0\rc,3.0\r", {"a", "c"}, ["a", "c"]),
            ("\na,1.0\n\n\nc,3.0", {"a", "c"}, ["a", "c"]),
            ("a,1.0\n  \nc,3.0\n", {"a", "c"}, "needs name + values"),
            ("a,1.0\nb\nc,3.0\n", {"a", "c"}, "needs name + values"),
            ("a,1.0\nc,2.0\na,3.0\n", {"a", "c"}, "duplicate embedding for 'a'"),
            ("a,1.0\na,3.0\n", {"a", "c"}, "e.csv:2: duplicate embedding for 'a'"),
            ("a,1.0\nb,2.0\nb,3.0\n", {"a"}, ["a"]),
            ("a,1.0\nc,3.0\n", {"a", "c", "d"}, "missing embeddings"),
            ("b,1.0\n", {"a"}, "missing embeddings"),
            ("", {"a"}, "empty embeddings file"),
            ("\n\n", {"a"}, "empty embeddings file"),
            ("a,1.0\n,2.0\n", {"a"}, ["a"]),
            # csv rejects NUL before Python 3.11 and keeps it after.
            ("a,1.0\na\x00,2.0\n", {"a", "a\x00"}, None),
            ("\ufeffa,1.0\n", {"\ufeffa"}, ["\ufeffa"]),
            ("a,#1\n", {"a"}, "bad embedding value"),
            ("a, 1.0\n", {"a"}, ["a"]),
            # First error by line wins: a bad literal before a quoted name
            # and before a ragged row.
            ('a,1e\n"q",1.0\n', {"a", "q"}, "e.csv:1: bad embedding value"),
            ("c,2.0\na,nan\nb,1.0,2.0\n", {"a", "c"}, "e.csv:2: non-finite"),
        ],
    )
    def test_structure(self, tmp_path, text, wanted, expect):
        path = write_text(tmp_path / "e.csv", text)
        got = read_as_csv_reader_does(path, wanted)
        if isinstance(expect, str):
            assert isinstance(got, str) and expect in got
        elif expect is not None:
            assert got[0] == expect

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_bytes(b"a,1.0\n\xff,2.0\n")
        assert "not UTF-8" in read_as_csv_reader_does(path, {"a"})

    def test_missing_file(self, tmp_path):
        assert "cannot read file" in read_as_csv_reader_does(tmp_path / "none.csv", {"a"})

    def test_field_size_limit(self, tmp_path):
        old = csv.field_size_limit(8)
        try:
            for text, wanted in [
                ("abcdefghi,1.0\n", {"abcdefghi"}),
                ("abcdefgh,1.0\n", {"abcdefgh"}),
                ("a,1.0\nb,1.2345678\n", {"a"}),
                ("a,1.2345678\n", {"a"}),
                ("a,1.234567,2\n", {"a"}),
            ]:
                read_as_csv_reader_does(write_text(tmp_path / "e.csv", text), wanted)
        finally:
            csv.field_size_limit(old)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        lines=st.lists(
            st.one_of(
                st.just(""),
                st.tuples(
                    st.sampled_from(["a", "b", "c", '"a"', '"b,c"', "", "a\x1c"]),
                    st.lists(
                        st.one_of(
                            st.sampled_from(["1", "-0.0", "1e5", ".5", "1_0", "nan",
                                             "1e309", "4.9e-324", ""]),
                            st.text(alphabet='0123456789.eE+-_,"\r\x1c ', max_size=4),
                        ),
                        max_size=3,
                    ),
                ).map(lambda t: ",".join([t[0], *t[1]])),
            ),
            max_size=5,
        ),
        ending=st.sampled_from(["\n", "\r\n", "\r"]),
        last=st.booleans(),
        wanted=st.sets(st.sampled_from(["a", "b", "c", "b,c", "a\x1c"]), min_size=1),
    )
    def test_property(self, tmp_path, lines, ending, last, wanted):
        text = ending.join(lines) + (ending if last and lines else "")
        read_as_csv_reader_does(write_text(tmp_path / "e.csv", text), wanted)

    def test_written_files_take_the_plain_parse(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        names = ["CC(=O)[O-]", "MYC", "c1ccccc1", "x y", "N#N"]
        emb = rng.standard_normal((5, 40)) * np.logspace(-300, 300, 40)
        emb[0, :4] = [-0.0, 5e-324, 2.0**53 + 2, np.finfo(float).max]
        source = build_pool(names, [1.0, 2.0, 3.0, 4.0, 5.0], emb, percentile=50.0)
        meas, embf = tmp_path / "m.csv", tmp_path / "e.csv"
        write_measurements(source, meas)
        write_embeddings(source, embf)
        monkeypatch.setattr(pool_module, "_read_embeddings_csv", _no_csv_reader)
        pool = load_pool(meas, embf, percentile=50.0)
        assert pool.names == tuple(names)
        assert pool.embeddings.matrix.tobytes() == source.embeddings.matrix.tobytes()


def _no_csv_reader(path, wanted):
    raise AssertionError(f"{path} fell back to the csv reader")


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

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_embedding_matrix_is_a_frozen_copy(self, order):
        rows = np.array(np.eye(2), order=order)
        pool = build_pool(["a", "b"], [1.0, 2.0], rows, percentile=50.0)
        assert not np.shares_memory(pool.embeddings.matrix, rows)
        assert rows.flags.writeable and not pool.embeddings.matrix.flags.writeable


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

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 600),
        levels=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(HIT_MODES),
        percentile=st.sampled_from([10.0, 33.3, 90.0, 99.5]),
    )
    def test_mask_matches_name_oracle(self, n, levels, seed, mode, percentile):
        # Heavy ties: at most nine distinct values, and both signed zeros.
        rng = np.random.default_rng(seed)
        scores = rng.integers(-levels, levels + 1, n) * 0.5
        scores[rng.random(n) < 0.2] = -0.0
        names = [f"c{i}" for i in range(n)]
        truth = {names[i] for i in np.flatnonzero(rng.random(n) < 0.1)}
        expected = name_hit_oracle(names, scores.tolist(), mode, percentile, truth)
        args = (names, scores, np.ones((n, 1)))
        kwargs = {"hit_mode": mode, "percentile": percentile, "ground_truth": truth}
        if expected is None:
            with pytest.raises(DatasetError, match="zero hits"):
                build_pool(*args, **kwargs)
            return
        hits, threshold = expected
        pool = build_pool(*args, **kwargs)
        assert pool.hit_names == hits
        assert pool.hit_mask.tolist() == [name in hits for name in names]
        assert repr(pool.hit_policy.threshold) == repr(threshold)

    def test_unknown_name(self, line_pool):
        with pytest.raises(DatasetError, match="unknown"):
            line_pool.is_hit("nope")

    def test_is_hit_idempotent(self, line_pool):
        first = [line_pool.is_hit(n) for n in line_pool.names]
        second = [line_pool.is_hit(n) for n in reversed(line_pool.names)]
        assert first == list(reversed(second))

    def test_resolve_is_stable(self, line_pool):
        policy, mask = resolve_hit_policy(line_pool, "top-percentile", 75.0, ())
        assert policy == line_pool.hit_policy
        assert mask.tolist() == line_pool.hit_mask.tolist() == [False, False, False, True]
        assert not mask.flags.writeable and not line_pool.hit_mask.flags.writeable


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
