"""Event log IO, temporal splitting, embedding tables, synthetic corpus."""

import ast
import os
import stat
import struct

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jobfit import corpus
from jobfit.cli import main
from jobfit.corpus import (
    EMBED_MAGIC,
    DocTable,
    EventLog,
    Kind,
    Side,
    SyntheticSpec,
    generate_synthetic,
    load_doc_embeddings,
    load_events,
    sorted_unique,
    split_to_log,
    temporal_split,
    write_atomic,
    write_doc_embeddings,
    write_events,
)
from jobfit.errors import ConfigError, DataFormatError

from conftest import naive_temporal_split

SRC = Path(__file__).resolve().parents[1] / "src" / "jobfit"
INT64 = np.iinfo(np.int64)
COLUMNS = (("kinds", np.int8), ("candidates", np.int64), ("jobs", np.int64), ("days", np.int64))


def write_log(path, n, m, rows):
    lines = [f"#n={n}\tm={m}"] + rows
    path.write_text("\n".join(lines) + "\n")


def make_log(n, m, rows):
    """EventLog from (kind, candidate, job, day) rows."""
    return EventLog(n, m, *(list(zip(*rows)) or [()] * len(COLUMNS)))


def log_rows(log):
    return list(zip(*(getattr(log, name).tolist() for name, _ in COLUMNS)))


def same_log(a, b) -> bool:
    """Equal universe sizes, and each column equal in dtype and values."""
    return (a.n, a.m) == (b.n, b.m) and all(
        getattr(a, name).dtype == getattr(b, name).dtype == dtype
        and np.array_equal(getattr(a, name), getattr(b, name))
        for name, dtype in COLUMNS
    )


def pairs(rows):
    return {tuple(row) for row in rows.tolist()}


@st.composite
def logs_with_boundaries(draw):
    """(n, m, rows, t_valid_start, t_test_start) with n, m <= 6 and days 0-30."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.tuples(
        st.sampled_from(list(Kind)),
        st.integers(0, n - 1),
        st.integers(0, m - 1),
        st.integers(0, 30),
    )
    t_valid = draw(st.integers(1, 30))
    return n, m, draw(st.lists(row, max_size=60)), t_valid, draw(st.integers(t_valid + 1, 31))


class TestLoadEvents:
    def test_roundtrip(self, tmp_path):
        log = make_log(
            3, 2, [(Kind.APPLY, 0, 1, 0), (Kind.REACHOUT, 2, 0, 5), (Kind.MATCH, 1, 1, 9)]
        )
        path = tmp_path / "events.tsv"
        write_events(path, log, comments=["tool=test"])
        assert same_log(load_events(path), log)

    def test_parses_counts_from_header(self, tmp_path):
        path = tmp_path / "e.tsv"
        write_log(path, 7, 4, ["apply\t6\t3\t0"])
        log = load_events(path)
        assert (log.n, log.m) == (7, 4)
        assert log_rows(log)[0] == (Kind.APPLY, 6, 3, 0)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("apply\t0\t0\t0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_events(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "e.tsv"
        write_log(path, 2, 2, ["apply\t0\t0\t0", "apply\t1\t1"])
        with pytest.raises(DataFormatError, match=":3:"):
            load_events(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "e.tsv"
        write_log(path, 2, 2, ["poke\t0\t0\t0"])
        with pytest.raises(DataFormatError, match="poke"):
            load_events(path)

    def test_out_of_range_ids(self, tmp_path):
        path = tmp_path / "e.tsv"
        write_log(path, 2, 2, ["apply\t2\t0\t0"])
        with pytest.raises(DataFormatError, match="candidate id 2"):
            load_events(path)
        write_log(path, 2, 2, ["apply\t0\t5\t0"])
        with pytest.raises(DataFormatError, match="job id 5"):
            load_events(path)

    def test_negative_timestamp(self, tmp_path):
        path = tmp_path / "e.tsv"
        write_log(path, 2, 2, ["apply\t0\t0\t-1"])
        with pytest.raises(DataFormatError, match="negative timestamp"):
            load_events(path)

    @pytest.mark.parametrize("day", ["9999999999999999995", "99999999999999999999"])
    @pytest.mark.parametrize("before", [[], ["apply\t0\t0\t1"]], ids=["alone", "after-small-day"])
    def test_field_beyond_int64_is_refused_with_line_number(self, tmp_path, capsys, day, before):
        # 19+ digits leave the bulk parse, so the line loop must refuse what
        # int64 cannot hold instead of wrapping it or raising OverflowError.
        path = tmp_path / "e.tsv"
        write_log(path, 2, 2, before + [f"match\t1\t1\t{day}"])
        message = f"e.tsv:{2 + len(before)}: field {day} does not fit int64"
        with pytest.raises(DataFormatError, match=message):
            load_events(path)
        assert main(["split", "--log", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "e.tsv"
        write_log(path, 2, 2, ["# provenance", "apply\t0\t0\t0", ""])
        assert len(load_events(path).kinds) == 1


def edit_line(edit):
    """A perturbation that rewrites the chosen event line."""
    return lambda lines, i, log: lines[:i] + [edit(lines[i], log)] + lines[i + 1 :]


def edit_field(field_index, edit):
    """A perturbation that rewrites one tab-separated field of an event line."""

    def rewrite(line, log):
        fields = line.rstrip(b"\n").split(b"\t")
        fields[field_index] = edit(fields[field_index], log)
        return b"\t".join(fields) + b"\n"

    return edit_line(rewrite)


# Byte-level edits of a written log. Each takes the file's lines (ends kept),
# the index of one event line and the log written, and returns the new lines.
PERTURBATIONS = {
    "none": lambda lines, i, log: lines,
    "crlf": lambda lines, i, log: [line.replace(b"\n", b"\r\n") for line in lines],
    "lone_cr": edit_line(lambda line, log: line[:-1] + b"\r"),
    "blank_line": lambda lines, i, log: lines[:i] + [b"\n"] + lines[i:],
    "comment_mid_file": lambda lines, i, log: lines[:i] + [b"# later\n"] + lines[i:],
    "no_final_newline": lambda lines, i, log: lines[:-1] + [lines[-1][:-1]],
    "token_only_last_line": lambda lines, i, log: lines + [lines[i].split(b"\t")[0]],
    "nul_for_tab": edit_line(lambda line, log: line.replace(b"\t", b"\0", 1)),
    "cr_in_comment": lambda lines, i, log: lines[:1] + [b"# note\r" + lines[i]] + lines[1:],
    "plus_sign": edit_field(1, lambda f, log: b"+" + f),
    "leading_space": edit_field(2, lambda f, log: b" " + f),
    "fullwidth_digit": edit_field(3, lambda f, log: f[:-1] + "５".encode()),
    "token_prefix": edit_field(0, lambda f, log: f[:-1]),
    "token_extension": edit_field(0, lambda f, log: f + b"x"),
    "unknown_token": edit_field(0, lambda f, log: b"poke"),
    "candidate_out_of_range": edit_field(1, lambda f, log: str(log.n).encode()),
    "job_out_of_range": edit_field(2, lambda f, log: str(log.m).encode()),
    "day_19_digits": edit_field(3, lambda f, log: b"1" + f.rjust(18, b"0")),
    "day_above_int64": edit_field(3, lambda f, log: b"9" * 19),
    "invalid_utf8_comment": lambda lines, i, log: lines[:1] + [b"# caf\xe9\n"] + lines[1:],
    "invalid_utf8_field": edit_field(2, lambda f, log: f + b"\xff"),
}


@st.composite
def written_logs(draw):
    """(log, comments) for a log that write_events can write."""
    n = draw(st.one_of(st.integers(1, 5), st.integers(1, 10**12)))
    m = draw(st.one_of(st.integers(1, 5), st.integers(1, 10**12)))
    row = st.tuples(
        st.sampled_from(list(Kind)),
        st.integers(0, n - 1),
        st.integers(0, m - 1),
        st.one_of(st.integers(0, 40), st.integers(0, 10**18 - 1)),
    )
    comment = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\r\n"))
    rows = draw(st.lists(row, min_size=1, max_size=30))
    return make_log(n, m, rows), draw(st.lists(comment, max_size=3))


def loaded(load, path):
    """The EventLog load returns for path, or the DataFormatError message."""
    try:
        return load(path)
    except DataFormatError as exc:
        return str(exc)


class TestBulkEventParse:
    """load_events against the line loop, which defines the format."""

    @given(case=written_logs(), name=st.sampled_from(sorted(PERTURBATIONS)), data=st.data())
    @settings(max_examples=400, deadline=None)
    # The line loop casts a day above the int64 range through float64.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
    def test_equals_line_loop(self, tmp_path_factory, case, name, data):
        log, comments = case
        path = tmp_path_factory.mktemp("log") / "events.tsv"
        write_events(path, log, comments=comments)
        lines = path.read_bytes().splitlines(keepends=True)
        event = data.draw(st.integers(1 + len(comments), len(lines) - 1), label="event line")
        path.write_bytes(b"".join(PERTURBATIONS[name](lines, event, log)))
        want = loaded(corpus._load_events_by_line, path)
        got = loaded(load_events, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str) and same_log(got, want)
        if name == "none":
            assert corpus._parse_events_bulk(path.read_bytes()) is not None

    @pytest.mark.parametrize("text", ["#n=2\tm=3\n", "#n=2\tm=3\n# no events\n"])
    def test_log_without_events(self, tmp_path, text):
        path = tmp_path / "events.tsv"
        path.write_text(text)
        got = corpus._parse_events_bulk(path.read_bytes())
        assert got is not None and same_log(got, corpus._load_events_by_line(path))

    def test_synth_output_parses_without_line_loop(self, tmp_path, monkeypatch):
        out = tmp_path / "synth"
        args = ["--set", "n=40", "--set", "m=30", "--set", "days=30", "--seed", "7"]
        assert main(["synth", "--out-dir", str(out)] + args) == 0
        path = out / "events.tsv"
        assert path.read_text().splitlines()[1].startswith("# tool=jobfit")
        want = corpus._load_events_by_line(path)

        def refuse(path):
            raise AssertionError("line loop called on a strict log")

        monkeypatch.setattr(corpus, "_load_events_by_line", refuse)
        assert same_log(load_events(path), want)


class TestEventLogColumns:
    @pytest.mark.parametrize(
        "columns, message",
        [
            (([2], [0], [3], [0]), "event 0: job id 3 out of range"),
            (([0, 2], [0, 2], [1, 1], [0, 4]), "event 1: candidate id 2 out of range"),
            (([3], [0], [0], [0]), "kind code 3 out of range"),
            (([0], [0], [0], [-1]), "day -1 out of range"),
        ],
    )
    def test_out_of_range_columns_rejected(self, columns, message):
        with pytest.raises(DataFormatError, match=message):
            EventLog(2, 2, *columns)

    def test_out_of_range_job_no_longer_aliases_in_split(self):
        # the key 0*2 + 3 would decode as the pair (1, 1)
        with pytest.raises(DataFormatError, match="job id 3"):
            temporal_split(EventLog(2, 2, [2], [0], [3], [0]), 5, 9)

    def test_equality_is_identity_and_hashable(self):
        ds = temporal_split(make_log(2, 2, [(Kind.MATCH, 0, 1, 0), (Kind.APPLY, 1, 0, 6)]), 5, 9)
        for value in (make_log(2, 2, [(Kind.APPLY, 0, 1, 0)]), ds.train, ds):
            assert value == value
            assert hash(value) == hash(value)


class TestTemporalSplit:
    def events(self, rows):
        return make_log(4, 4, rows)

    def test_partitions_by_day(self):
        log = self.events(
            [
                (Kind.APPLY, 0, 0, 0),
                (Kind.APPLY, 1, 1, 9),
                (Kind.MATCH, 2, 2, 10),
                (Kind.REACHOUT, 3, 3, 14),
                (Kind.MATCH, 0, 1, 15),
                (Kind.APPLY, 1, 2, 20),
            ]
        )
        ds = temporal_split(log, 10, 15)
        assert pairs(ds.train.applies) == {(0, 0), (1, 1)}
        assert pairs(ds.valid.matches) == {(2, 2)}
        assert pairs(ds.valid.reachouts) == {(3, 3)}
        assert pairs(ds.test.matches) == {(0, 1)}
        assert pairs(ds.test.applies) == {(1, 2)}

    def test_match_supersedes_directed_events_in_window(self):
        log = self.events(
            [
                (Kind.APPLY, 0, 0, 1),
                (Kind.REACHOUT, 0, 0, 2),
                (Kind.MATCH, 0, 0, 3),
                (Kind.APPLY, 1, 1, 4),
                (Kind.APPLY, 1, 1, 5),
            ]
        )
        ds = temporal_split(log, 10, 11)
        assert pairs(ds.train.matches) == {(0, 0)}
        assert pairs(ds.train.applies) == {(1, 1)}
        assert pairs(ds.train.reachouts) == set()

    def test_pair_matched_earlier_dropped_from_later_windows(self):
        log = self.events(
            [
                (Kind.MATCH, 0, 0, 0),
                (Kind.APPLY, 0, 0, 10),   # re-interaction with a matched pair
                (Kind.MATCH, 0, 0, 12),   # duplicate match
                (Kind.MATCH, 1, 1, 11),
                (Kind.MATCH, 1, 1, 20),   # matched in valid, reappears in test
            ]
        )
        ds = temporal_split(log, 10, 15)
        assert pairs(ds.train.matches) == {(0, 0)}
        assert pairs(ds.valid.matches) == {(1, 1)}
        assert pairs(ds.valid.applies) == set()
        assert pairs(ds.test.matches) == set()

    def test_splits_are_disjoint_on_matched_pairs(self):
        rng = np.random.default_rng(3)
        events = []
        for _ in range(300):
            kind = [Kind.APPLY, Kind.REACHOUT, Kind.MATCH][rng.integers(0, 3)]
            events.append((kind, int(rng.integers(0, 4)), int(rng.integers(0, 4)), int(rng.integers(0, 30))))
        ds = temporal_split(make_log(4, 4, events), 10, 20)
        assert not (pairs(ds.train.matches) & pairs(ds.valid.matches))
        assert not (pairs(ds.train.matches) & pairs(ds.test.matches))
        assert not (pairs(ds.valid.matches) & pairs(ds.test.matches))
        for split in (ds.train, ds.valid, ds.test):
            assert not (pairs(split.applies) & pairs(split.matches))
            assert not (pairs(split.reachouts) & pairs(split.matches))

    def test_resplitting_reconciled_output_is_identity(self):
        rng = np.random.default_rng(4)
        events = []
        for _ in range(200):
            kind = [Kind.APPLY, Kind.REACHOUT, Kind.MATCH][rng.integers(0, 3)]
            events.append((kind, int(rng.integers(0, 5)), int(rng.integers(0, 5)), int(rng.integers(0, 30))))
        ds = temporal_split(make_log(5, 5, events), 10, 20)
        merged = (
            log_rows(split_to_log(ds, ds.train, 0))
            + log_rows(split_to_log(ds, ds.valid, 10))
            + log_rows(split_to_log(ds, ds.test, 20))
        )
        again = temporal_split(make_log(5, 5, merged), 10, 20)
        for first, second in ((ds.train, again.train), (ds.valid, again.valid), (ds.test, again.test)):
            for name in ("applies", "reachouts", "matches"):
                assert np.array_equal(getattr(first, name), getattr(second, name))

    @given(case=logs_with_boundaries())
    @settings(max_examples=200, deadline=None)
    def test_matches_set_oracle(self, case):
        n, m, rows, t_valid, t_test = case
        want = naive_temporal_split(rows, t_valid, t_test)
        log = make_log(n, m, rows)
        if not any(want[0].values()):
            with pytest.raises(DataFormatError, match="empty"):
                temporal_split(log, t_valid, t_test)
            return
        ds = temporal_split(log, t_valid, t_test)
        for split, sets in zip((ds.train, ds.valid, ds.test), want):
            for name, expected in sets.items():
                got = getattr(split, name)
                assert got.dtype == np.int64 and got.shape == (len(expected), 2)
                assert got.tolist() == [list(pair) for pair in sorted(expected)]

    def test_bad_boundaries(self):
        log = self.events([(Kind.MATCH, 0, 0, 0)])
        with pytest.raises(ConfigError):
            temporal_split(log, 10, 10)
        with pytest.raises(ConfigError):
            temporal_split(log, 0, 10)

    def test_empty_train_split(self):
        log = self.events([(Kind.MATCH, 0, 0, 25)])
        with pytest.raises(DataFormatError, match="empty"):
            temporal_split(log, 10, 20)


class TestSortedUnique:
    @given(
        values=st.lists(
            st.one_of(
                st.integers(-3, 3),
                st.integers(INT64.min, INT64.min + 2),
                st.integers(INT64.max - 2, INT64.max),
                st.integers(INT64.min, INT64.max),
            ),
            max_size=40,
        )
    )
    @example(values=[])
    @example(values=[5])
    @example(values=[-4] * 7)
    @example(values=[INT64.max, INT64.min, -1, INT64.max, 0, INT64.min])
    @settings(max_examples=300, deadline=None)
    def test_equals_np_unique(self, values):
        keys = np.array(values, dtype=np.int64)
        got, want = sorted_unique(keys), np.unique(keys)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert keys.tolist() == values

    def test_no_hash_based_set_calls_in_package(self):
        # A plain np.unique or np.union1d hashes its values before sorting
        # (NumPy >= 2.3); sorted_unique gives the same array by one sort. The
        # return_index/inverse/counts forms still sort, so they may stay.
        offenders = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "np"
                ):
                    continue
                returns = any((kw.arg or "").startswith("return_") for kw in node.keywords)
                if node.func.attr == "union1d" or (node.func.attr == "unique" and not returns):
                    offenders.append(f"{path.name}:{node.lineno} np.{node.func.attr}")
        assert offenders == []


class TestDocEmbeddings:
    def test_roundtrip(self, tmp_path, rng):
        rows = rng.standard_normal((5, 3)).astype(np.float32)
        path = tmp_path / "docs.emb"
        write_doc_embeddings(path, DocTable(Side.CANDIDATE, rows))
        table = load_doc_embeddings(path, Side.CANDIDATE, 5)
        assert table.rows.dtype == np.float32
        np.testing.assert_array_equal(table.rows, rows)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "docs.emb"
        path.write_bytes(b"NOTMAGIC" + struct.pack("<II", 1, 1) + b"\x00" * 4)
        with pytest.raises(DataFormatError, match="magic"):
            load_doc_embeddings(path, Side.CANDIDATE, 1)

    def test_count_mismatch(self, tmp_path, rng):
        path = tmp_path / "docs.emb"
        write_doc_embeddings(path, DocTable(Side.JOB, rng.standard_normal((4, 2)).astype(np.float32)))
        with pytest.raises(DataFormatError, match="expected 9"):
            load_doc_embeddings(path, Side.JOB, 9)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "docs.emb"
        write_doc_embeddings(path, DocTable(Side.JOB, rng.standard_normal((4, 2)).astype(np.float32)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(DataFormatError, match="payload"):
            load_doc_embeddings(path, Side.JOB, 4)

    def test_non_finite_rejected(self, tmp_path):
        rows = np.array([[np.inf, 0.0]], dtype=np.float32)
        path = tmp_path / "docs.emb"
        write_doc_embeddings(path, DocTable(Side.CANDIDATE, rows))
        with pytest.raises(DataFormatError, match="non-finite"):
            load_doc_embeddings(path, Side.CANDIDATE, 1)

    def test_layout_matches_format(self, tmp_path):
        rows = np.array([[1.5, -2.0], [0.25, 4.0]], dtype=np.float32)
        path = tmp_path / "docs.emb"
        write_doc_embeddings(path, DocTable(Side.CANDIDATE, rows))
        blob = path.read_bytes()
        assert blob[:8] == EMBED_MAGIC
        assert struct.unpack_from("<II", blob, 8) == (2, 2)
        assert np.frombuffer(blob[16:], dtype="<f4").tolist() == [1.5, -2.0, 0.25, 4.0]


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", ["events", "embeddings"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, writer):
        def write(path, version):
            if writer == "events":
                write_events(path, make_log(3, 2, [(Kind.APPLY, 0, 1, version)]))
            else:
                write_doc_embeddings(path, DocTable(Side.JOB, np.full((2, 3), version, np.float32)))

        path = tmp_path / ("events.tsv" if writer == "events" else "jobs.emb")
        write(path, 1)
        before = path.read_bytes()

        def write_half_then_fail(self, data):
            with self.open("wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            write(path, 2)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_interleaved_writers_do_not_share_a_temporary_file(self, tmp_path, monkeypatch):
        # A second writer runs between the first one's write and its replace.
        # Sharing one temporary name, it would publish its bytes through the
        # first writer's file and leave that writer's replace nothing to move.
        path = tmp_path / "out.tsv"
        real_replace = os.replace

        def second_writer_then_replace(src, dst):
            monkeypatch.setattr(os, "replace", real_replace)
            write_atomic(path, b"second")
            assert path.read_bytes() == b"second"
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", second_writer_then_replace)
        write_atomic(path, b"first")
        assert path.read_bytes() == b"first"
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_outputs_keep_the_plain_file_mode(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_bytes(b"x")
        write_atomic(tmp_path / "atomic", b"x")
        mode = stat.S_IMODE((tmp_path / "atomic").stat().st_mode)
        assert mode == stat.S_IMODE(plain.stat().st_mode)


class TestSyntheticGenerator:
    def test_deterministic(self):
        spec = SyntheticSpec(n=30, m=20, d_latent=4, d_o=5, days=20, seed=11)
        log1, cand1, job1 = generate_synthetic(spec)
        log2, cand2, job2 = generate_synthetic(spec)
        assert same_log(log1, log2)
        assert cand1.rows.tobytes() == cand2.rows.tobytes()
        assert job1.rows.tobytes() == job2.rows.tobytes()

    def test_seed_changes_output(self):
        base = SyntheticSpec(n=30, m=20, d_latent=4, d_o=5, days=20, seed=11)
        other = SyntheticSpec(n=30, m=20, d_latent=4, d_o=5, days=20, seed=12)
        assert not same_log(generate_synthetic(base)[0], generate_synthetic(other)[0])

    def test_shapes_and_ranges(self):
        spec = SyntheticSpec(n=25, m=15, d_latent=4, d_o=6, days=9, seed=0)
        log, cand, job = generate_synthetic(spec)
        assert (log.n, log.m) == (25, 15)
        assert cand.rows.shape == (25, 6)
        assert job.rows.shape == (15, 6)
        assert cand.rows.dtype == np.float32
        for kind, cand, job, day in log_rows(log):
            assert 0 <= cand < 25
            assert 0 <= job < 15
            assert 0 <= day < 9
        assert [getattr(log, name).dtype for name, _ in COLUMNS] == [dtype for _, dtype in COLUMNS]

    def test_degenerate_threshold_turns_double_fires_into_matches(self):
        # With the threshold at -inf, a pair that fired in both directions
        # must surface as a match, never as a pair of directed events.
        spec = SyntheticSpec(
            n=40, m=30, d_latent=4, d_o=4, days=10,
            apply_rate=0.9, reachout_rate=0.9,
            match_threshold=float("-inf"), asymmetry=0.0, seed=5,
        )
        log, _, _ = generate_synthetic(spec)
        applies = {(c, j) for k, c, j, _ in log_rows(log) if k == Kind.APPLY}
        reachouts = {(c, j) for k, c, j, _ in log_rows(log) if k == Kind.REACHOUT}
        matches = {(c, j) for k, c, j, _ in log_rows(log) if k == Kind.MATCH}
        assert matches
        assert not (applies & reachouts)
        assert not (applies & matches)
        assert not (reachouts & matches)

    def test_zero_asymmetry_aligns_perspectives(self):
        # The generator couples active/passive latents exactly when
        # asymmetry is 0; observable as many more matches than at 1.
        common = dict(n=80, m=60, d_latent=6, d_o=4, days=10,
                      apply_rate=0.5, reachout_rate=0.5, match_threshold=0.4, seed=2)
        aligned, _, _ = generate_synthetic(SyntheticSpec(asymmetry=0.0, **common))
        skewed, _, _ = generate_synthetic(SyntheticSpec(asymmetry=1.0, **common))
        count = lambda log: int(np.sum(log.kinds == Kind.MATCH))
        assert count(aligned) > count(skewed)

    @given(
        apply_rate=st.floats(min_value=-2, max_value=2),
        sign=st.sampled_from(["apply_rate", "reachout_rate", "asymmetry"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_rejects_out_of_range_rates(self, apply_rate, sign):
        if 0.0 <= apply_rate <= 1.0:
            return
        spec = SyntheticSpec(n=4, m=4, **{sign: apply_rate})
        with pytest.raises(ConfigError):
            spec.validate()

    def test_rejects_empty_universe(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n=0, m=5).validate()
