from __future__ import annotations

import csv
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from expdesign import memory as memory_module
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

from conftest import count_thread_starts, name_hit_oracle, write_dataset


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


EMBEDDING_TEXTS = st.builds(
    lambda lines, ending, last: ending.join(lines) + (ending if last and lines else ""),
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
)
WANTED = st.sets(st.sampled_from(["a", "b", "c", "b,c", "a\x1c"]), min_size=1)


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
    @given(text=EMBEDDING_TEXTS, wanted=WANTED)
    def test_property(self, tmp_path, text, wanted):
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


def _one_os_thread():
    """Whether this process runs one OS thread, the gate of a split ingest.
    numpy's BLAS starts its threads at import unless OPENBLAS_NUM_THREADS
    (or OMP_NUM_THREADS) is 1."""
    return sys.platform.startswith("linux") and len(os.listdir("/proc/self/task")) == 1


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split(monkeypatch):
    """``split(k)`` makes every embeddings file split into k ranges (as on k
    CPUs, with no size floor) and returns the list of pids that os.fork
    gives this process from then on."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(pool_module, "_SPLIT_MIN_BYTES", 1)

    def force(k):
        monkeypatch.setattr(pool_module, "_available_cpus", lambda: k)
        forks.clear()
        return forks

    return force


def _rows_file(tmp_path):
    """A plain file of rows n0..n29."""
    return write_text(tmp_path / "e.csv", "".join(f"n{i},{i}.5\n" for i in range(30)))


def _shifted(text):
    """``text`` behind 0, 1, 2, ... blank lines, which every reader skips,
    so that the cuts fall at every line of it in turn."""
    return ["\n" * i + text for i in range(len(text) + 1)]


# Plain files that every split must read without falling back.
PLAIN_CASES = [
    pytest.param("a,1.0,2.0\nb,3.0,4.0\nc,5.0,6.0\nd,7.0,8.0\n", {"a", "b", "c", "d"},
                 id="all-wanted"),
    pytest.param("x,0.5\na,1.0\ny,0.5\nb,-0.0\nz,0.5\nc,4.9e-324\n", {"a", "b", "c"},
                 id="every-other-wanted"),
]
# What only a later range sees sits behind lines that range 1 takes.
SPLIT_CASES = PLAIN_CASES + [
    pytest.param("a,1.0\n\n\n\nb,2.0\n\n\nc,3.0\n\n", {"a", "c"}, id="blank-line-at-cut"),
    pytest.param("a,1.0\nb,2.0\nd,3.0\ne,4.0\nf,5.0\nc,6.0\n", {"a", "c"},
                 id="range-without-wanted-row"),
    pytest.param("a,1.0\nb,2.0\nd,3.0\ne,4.0\nc,5.0,6.0\n", {"a", "c"},
                 id="later-wanted-row-wider"),
    pytest.param("a,1.0\nc,2.0\nx,1.0,2.0\ny,3.0,4.0\n", {"a", "c"},
                 id="later-unwanted-rows-wider"),
    pytest.param("b,1.0,2.0\nx,1.0,2.0\na,1.0\nc,2.0\n", {"a", "c"},
                 id="unwanted-first-line-sets-width"),
    pytest.param("b,1.0,2.0\nx,1.0,2.0\ny,1.0,2.0\na,1.0\n", {"a"},
                 id="unwanted-first-line-sets-width-one-row"),
    pytest.param("a,1.0\nb,2.0\nc,3.0\nx,4.0\na,5.0\n", {"a", "b", "c"},
                 id="duplicate-across-ranges"),
    pytest.param("a,1.0\nx,2.0\ny,3.0\nz,4.0\na,5.0\n", {"a", "c"},
                 id="duplicate-across-ranges-and-missing"),
    pytest.param('a,1.0\nb,2.0\nx,3.0\n"c",4.0\n', {"a", "c"}, id="later-quote"),
    pytest.param("a,1.0\nb,2.0\nx,3.0\nc\r,4.0\n", {"a", "c\r"}, id="later-cr-in-name"),
    pytest.param("a,1.0\nb,2.0\nx,3.0\nc,4.0\r\n", {"a", "c"}, id="later-crlf"),
]


@pytest.mark.filterwarnings("error")
class TestSplitIngest:
    """A plain file cut into k ranges, each parsed by its own process, reads
    as the csv reader reads it, and leaves no process behind."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_bytes_equal_the_in_process_parse(self, tmp_path, monkeypatch, split, k):
        rng = np.random.default_rng(k)
        names = [f"g{i}" if i % 7 else f"CC(=O)[O-]{i}" for i in range(60)]
        emb = rng.standard_normal((60, 9)) * np.logspace(-300, 300, 9)
        emb[0, :4] = [-0.0, 5e-324, 2.0**53 + 2, np.finfo(float).max]
        source = build_pool(names, np.arange(60.0), emb, percentile=50.0)
        meas, embf = tmp_path / "m.csv", tmp_path / "e.csv"
        write_measurements(source, meas)
        write_embeddings(source, embf)
        wanted = set(names[::2]) | {names[-1]}
        one = pool_module._read_embeddings(embf, wanted)
        monkeypatch.setattr(pool_module, "_read_embeddings_csv", _no_csv_reader)
        forks = split(k)
        got = pool_module._read_embeddings(embf, wanted)
        assert len(forks) == (k - 1 if _one_os_thread() else 0)
        assert got[0] == one[0] == [n for n in names if n in wanted]
        assert got[1].tobytes() == one[1].tobytes()
        pool = load_pool(meas, embf, percentile=50.0)
        assert pool.embeddings.matrix.tobytes() == source.embeddings.matrix.tobytes()
        _assert_no_child_left()

    def test_one_os_thread_forks(self, tmp_path, split):
        if not _one_os_thread():
            pytest.skip("numpy's BLAS runs threads here, so no split forks")
        assert pool_module._may_fork()
        forks = split(3)
        path = _rows_file(tmp_path)
        assert read_as_csv_reader_does(path, {"n0", "n29"})[0] == ["n0", "n29"]
        assert len(forks) == 2

    def test_live_thread_means_no_fork(self, tmp_path, split):
        path = _rows_file(tmp_path)
        forks = split(3)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not pool_module._may_fork()
            assert read_as_csv_reader_does(path, {"n0", "n29"})[0] == ["n0", "n29"]
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("text, wanted", SPLIT_CASES)
    def test_boundaries(self, tmp_path, split, k, text, wanted):
        split(k)
        for shifted in _shifted(text):
            read_as_csv_reader_does(write_text(tmp_path / "e.csv", shifted), wanted)
        _assert_no_child_left()

    @pytest.mark.parametrize("k", [2, 3])
    def test_plain_cases_never_fall_back(self, tmp_path, monkeypatch, split, k):
        # Where a cut is moved to a line start, no plain file is rejected.
        monkeypatch.setattr(pool_module, "_read_embeddings_csv", _no_csv_reader)
        forks = split(k)
        for case in PLAIN_CASES:
            text, wanted = case.values
            for shifted in _shifted(text):
                pool_module._read_embeddings(write_text(tmp_path / "e.csv", shifted), wanted)
        assert forks or not _one_os_thread()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=EMBEDDING_TEXTS, wanted=WANTED, k=st.sampled_from([2, 3]))
    def test_property(self, tmp_path, split, text, wanted, k):
        split(k)
        read_as_csv_reader_does(write_text(tmp_path / "e.csv", text), wanted)

    @pytest.mark.parametrize(
        "failure", [ValueError("child"), RuntimeError("child"), 0, 3],
        ids=["value-error", "runtime-error", "exit-0", "exit-3"],
    )
    def test_failing_child_falls_back(self, tmp_path, monkeypatch, split, failure):
        # A child raises, or exits with a status before writing anything.
        parent = os.getpid()
        parse = pool_module._parse_range

        def child_fails(*args):
            if os.getpid() != parent:
                if isinstance(failure, int):
                    os._exit(failure)
                raise failure
            return parse(*args)

        monkeypatch.setattr(pool_module, "_parse_range", child_fails)
        forks = split(3)
        path = _rows_file(tmp_path)
        assert read_as_csv_reader_does(path, {"n0", "n29"})[0] == ["n0", "n29"]
        assert len(forks) == (2 if _one_os_thread() else 0)
        _assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    def test_parent_range_error_leaves_no_child(self, tmp_path, monkeypatch, split, error):
        parent = os.getpid()
        parse = pool_module._parse_range

        def parent_fails(path, wanted, start, *rest):
            if os.getpid() == parent and start == 0:
                raise error("parent")
            return parse(path, wanted, start, *rest)

        monkeypatch.setattr(pool_module, "_parse_range", parent_fails)
        split(3)
        path = _rows_file(tmp_path)
        if error is ValueError:  # rejected, so the csv reader reads the file
            assert pool_module._read_embeddings(path, {"n0", "n29"})[0] == ["n0", "n29"]
        else:
            with pytest.raises(RuntimeError, match="parent"):
                pool_module._read_embeddings(path, {"n0", "n29"})
        _assert_no_child_left()


def test_split_ingest_forks_under_one_blas_thread():
    """TestSplitIngest again, in a process with one BLAS thread, where the
    ranges are parsed by forked processes."""
    if _one_os_thread():
        pytest.skip("this process runs one OS thread; TestSplitIngest forked in it")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::TestSplitIngest"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    summary = result.stdout.strip().splitlines()[-1:]
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
    assert summary and "passed" in summary[0] and "skipped" not in summary[0], summary


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


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_on_threads_takes_every_item_none_and_zero_included(monkeypatch, cpus):
    # An item that is None, 0 or otherwise false is an item like any other:
    # it neither stops a thread nor is skipped.
    monkeypatch.setattr(pool_module, "_available_cpus", lambda: cpus)
    items = [None, 0, 1, None, 0.0, "", 2, None]
    done = []
    pool_module._on_threads(done.append, items)
    assert sorted(map(repr, done)) == sorted(map(repr, items))


@pytest.mark.parametrize("items", [0, 1, 2, 5])
@pytest.mark.parametrize("cpus", [1, 3])
def test_on_threads_runs_on_one_thread_per_cpu_and_item(monkeypatch, cpus, items):
    # The calling thread is one of min(CPUs, items) threads, so the others
    # started number one less, and none start for no item or one CPU.
    monkeypatch.setattr(pool_module, "_available_cpus", lambda: cpus)
    started = count_thread_starts(monkeypatch)
    done = []
    pool_module._on_threads(done.append, range(items))
    assert sorted(done) == list(range(items))
    assert len(started) == max(0, min(cpus, items) - 1)


def old_spans(n):
    """The f32 scan's spans as the memory cut them before pool._slices."""
    count = max(1, n // memory_module._SPAN_ROWS)
    cuts = [n * i // count for i in range(count + 1)]
    return [slice(lo, end) for lo, end in zip(cuts, cuts[1:])]


def old_halves(n):
    """The product rows' and the whitened columns' halves as they were cut
    before pool._slices (cut = n // 2)."""
    cut = n // 2
    return [slice(0, cut), slice(cut, n)] if cut else [slice(0, n)]


@pytest.mark.parametrize("n", [*range(6), *range(2 * memory_module._SPAN_ROWS - 2,
                                                 2 * memory_module._SPAN_ROWS + 3)])
def test_slices_partition_rows_as_the_old_cuts(n):
    # Consecutive slices that cover range(n) once, none empty but the one
    # slice of n = 0, and the same cuts as the scan spans and the halves.
    for parts in (1, 2, 3):
        slices = pool_module._slices(n, parts)
        assert len(slices) == max(1, min(parts, n))
        assert [i for s in slices for i in range(n)[s]] == list(range(n))
        assert all(s.stop > s.start for s in slices) if n else slices == [slice(0, 0)]
    assert pool_module._slices(n, n // memory_module._SPAN_ROWS) == old_spans(n)
    assert pool_module._slices(n, 2) == old_halves(n)
