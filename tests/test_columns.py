"""The columnar corpus against the object-at-a-time reference in corpus_oracle."""

import dataclasses
import itertools
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_oracle as oracle
from forumlens.corpus import (
    Corpus,
    Course,
    CourseFactors,
    Post,
    Thread,
    ThreadColumns,
    ThreadLabel,
    ThreadRows,
    attach_metadata,
    day_index,
    day_indices,
    ingest_corpus,
    serialize_corpus,
    write_metadata_csv,
)
from forumlens.errors import ForumlensError, InvariantViolation, ParseError
from forumlens.ranking import hits_rank
from forumlens.stats import build_series, neighborhood_counts

_LABEL_VALUES = [None, "SmallTalk", "Logistics", "CourseSpecific", "Unlabeled"]
# 2**64 and 10**30 are valid ids but past int64 as timestamps; orjson decodes them as floats
_BAD_VALUES = [None, True, 1.5, "x", [1], {}, -5, 2**63, 2**64, 10**30, "\ud800"]
# values for a key the parser does not read: only json decodes the last three
_UNREAD_VALUES = [[[1]], 2**64, float("nan"), float("inf"), "\ud800"]
_THREAD_KEYS = ["course_id", "thread_id", "created_at", "label", "posts"]
_POST_KEYS = ["post_id", "author_id", "timestamp", "text", "is_staff"]


@st.composite
def _thread_row(draw, index):
    n = draw(st.integers(1, 4))
    start = draw(st.integers(0, 5 * 86400))
    gaps = draw(st.lists(st.integers(0, 40_000), min_size=n - 1, max_size=n - 1))
    times = list(itertools.accumulate(gaps, initial=start))
    posts = []
    for j, ts in enumerate(times):
        post = {"post_id": draw(st.sampled_from([f"p{j}", j])),
                "author_id": draw(st.sampled_from(["u0", "u1", "u2", 7])),
                "timestamp": ts, "text": draw(st.sampled_from(["hi there", "", "gradient descent"]))}
        if draw(st.booleans()):
            post["is_staff"] = draw(st.booleans())
        posts.append(post)
    return {"course_id": draw(st.sampled_from(["c0", "c1", 2])), "thread_id": f"t{index}",
            "created_at": times[0], "label": draw(st.sampled_from(_LABEL_VALUES)), "posts": posts}


def _mutate(row, draw):
    """One fault in a thread row; a row may take several, so a thread fault can precede a post's."""
    posts = row.get("posts")
    if type(posts) is not list or not posts or not all(type(p) is dict for p in posts):
        posts = [{}]  # the posts field is broken already: post faults go to a throwaway post
    kind = draw(st.sampled_from(["value", "drop", "unsort", "repeat_post", "repeat_thread",
                                 "created_at", "json", "unread", "repeat_key"]))
    if kind == "value":
        where = draw(st.sampled_from(["thread", "post"]))
        if where == "thread":
            row[draw(st.sampled_from(_THREAD_KEYS))] = draw(st.sampled_from(_BAD_VALUES))
        else:
            posts[draw(st.integers(0, len(posts) - 1))][draw(st.sampled_from(_POST_KEYS))] = \
                draw(st.sampled_from(_BAD_VALUES))
    elif kind == "drop":
        target = row if draw(st.booleans()) else posts[draw(st.integers(0, len(posts) - 1))]
        if target:
            target.pop(draw(st.sampled_from(sorted(target))))
    elif kind == "unsort" and len(posts) > 1 and type(posts[0].get("timestamp")) is int:
        posts[-1]["timestamp"] = posts[0]["timestamp"] - 1
    elif kind == "repeat_post" and len(posts) > 1:
        posts[-1]["post_id"] = posts[0].get("post_id", "p0")
    elif kind == "repeat_thread":
        row["thread_id"] = "t0"
    elif kind == "created_at" and type(row.get("created_at")) is int:
        row["created_at"] += draw(st.sampled_from([-1, 1]))
    elif kind == "json":
        return "{ nope"
    elif kind == "unread":
        target = row if draw(st.booleans()) else posts[draw(st.integers(0, len(posts) - 1))]
        target["extra"] = draw(st.sampled_from(_UNREAD_VALUES))
    elif kind == "repeat_key":  # the decoders keep a repeated key's last value
        key = draw(st.sampled_from(_THREAD_KEYS))
        value = draw(st.sampled_from([row.get(key, "t0")] + _BAD_VALUES))
        return json.dumps(row)[:-1] + (", " if row else "") + f"{json.dumps(key)}: {json.dumps(value)}}}"
    return row


@st.composite
def _corpus_lines(draw):
    """Lines of a corpus file; most are valid, and some carry one fault or more."""
    lines = []
    for i in range(draw(st.integers(0, 6))):
        row = draw(_thread_row(i))
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            if isinstance(row, dict):
                row = _mutate(row, draw)
        lines.append(row if isinstance(row, str) else json.dumps(row))
        if draw(st.integers(0, 5)) == 0:
            lines.append("   ")
    return lines


_LINE = json.dumps({"course_id": "c", "thread_id": "t", "created_at": 5,
                    "posts": [{"post_id": "p", "author_id": "u", "timestamp": 5, "text": "hi"}]})


def _outcome(ingest, path):
    try:
        return ingest(path), None
    except ForumlensError as exc:
        return None, exc


class TestParseMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(_corpus_lines())
    def test_same_corpus_or_same_first_error(self, lines):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "c.jsonl"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            want, want_error = _outcome(oracle.ingest_corpus, path)
            got, got_error = _outcome(ingest_corpus, path)
        if want_error is None:
            assert got_error is None, got_error
            assert got == want
            assert (got.num_threads, got.num_posts) == (want.num_threads, want.num_posts)
            assert [c.start_date for c in got.courses] == [c.start_date for c in want.courses]
        else:
            assert type(got_error) is type(want_error)
            assert str(got_error) == str(want_error)
            if isinstance(want_error, ParseError):
                assert got_error.line == want_error.line

    def test_fault_in_a_thread_precedes_a_later_lines_type_error(self, tmp_path):
        good = {"course_id": "c", "thread_id": "t", "created_at": 5,
                "posts": [{"post_id": "p", "author_id": "u", "timestamp": 5, "text": "hi"},
                          {"post_id": "p", "author_id": "u", "timestamp": 6, "text": "hi"}]}
        bad = dict(good, thread_id="s",
                   posts=[{"post_id": "q", "author_id": "u", "timestamp": 5, "text": None}])
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(InvariantViolation, match="t: duplicate post ids"):
            ingest_corpus(path)

    def test_negative_timestamp_precedes_a_later_posts_type_error(self, tmp_path):
        row = {"course_id": "c", "thread_id": "t", "created_at": 5,
               "posts": [{"post_id": "p", "author_id": "u", "timestamp": -1, "text": "hi"},
                         {"post_id": "q", "author_id": "u", "timestamp": 6, "text": None}]}
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(InvariantViolation, match="p: timestamp must be >= 0"):
            ingest_corpus(path)

    def test_timestamp_past_int64_refused(self, tmp_path):
        row = {"course_id": "c", "thread_id": "t", "created_at": 2**63,
               "posts": [{"post_id": "p", "author_id": "u", "timestamp": 2**63, "text": "hi"}]}
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(InvariantViolation, match="p: timestamp must be < 2"):
            ingest_corpus(path)
        with pytest.raises(InvariantViolation):
            Post("p", "u", 2**63, "hi")

    def test_clean_corpus_never_calls_json_loads(self, tmp_path, tiny_jsonl, monkeypatch):
        path = tmp_path / "c.jsonl"
        extra = {"course_id": 3, "thread_id": 9, "created_at": 2**63 - 1, "label": None,
                 "posts": [{"post_id": 2**64 - 1, "author_id": -(2**63), "timestamp": 2**63 - 1,
                            "text": "naïve ☃ \U0001f600 \"quoted\"", "is_staff": True}]}
        lines = [json.dumps(extra), json.dumps(dict(extra, thread_id=10), ensure_ascii=False)]
        path.write_text(tiny_jsonl.read_text() + "\n".join(lines) + "\n", encoding="utf-8")
        real, calls = json.loads, []
        monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(a) or real(*a, **k))
        got = ingest_corpus(path)
        assert calls == []
        assert got == oracle.ingest_corpus(path)
        assert len(calls) == 7  # the patch is live: the oracle decoded each nonblank line with it

    @pytest.mark.parametrize(
        "line, error",
        [
            ('{"course_id": "c", "thread_id": "t", "created_at": 5, "posts": %s}' % ("[" * 1100 + "]" * 1100),
             "line 1: invalid JSON: maximum recursion depth exceeded"),
            (_LINE[:-1] + ', "extra": %s}' % ("[" * 1100 + "]" * 1100), None),
            # a surrogate escape makes the parser re-encode the line's value, which is as deep
            (_LINE.replace('"hi"', '"\\ud83d\\ude00"')[:-1] + ', "extra": %s}' % ("[" * 1100 + "]" * 1100),
             "line 1: invalid JSON: maximum recursion depth exceeded"),
        ],
        ids=["read-field", "unread-field", "unread-field-beside-a-surrogate-escape"],
    )
    def test_deep_nesting(self, tmp_path, line, error):
        path = tmp_path / "c.jsonl"
        path.write_text(line + "\n")
        if error is None:  # orjson reads what json's recursion limit refuses; the key is not read
            (course,) = ingest_corpus(path).courses
            assert (course.num_threads, course.columns.texts) == (1, ["hi"])
        else:
            with pytest.raises(ParseError, match=error):
                ingest_corpus(path)

    def test_lazy_threads_equal_checked_ones(self, tiny_jsonl):
        corpus = ingest_corpus(tiny_jsonl)
        for course in corpus.courses:
            rebuilt = tuple(Thread(t.thread_id, t.created_at,
                                   tuple(Post(p.post_id, p.author_id, p.timestamp, p.text, p.is_staff)
                                         for p in t.posts), t.label)
                            for t in course.threads)
            assert course.threads == rebuilt
            assert course.threads is course.threads  # built once


class TestThreadRowsSequence:
    """A ThreadRows is the sequence of its rows' Thread objects."""

    def test_rows_of_thread_objects_yield_them(self):
        ts = [Thread(f"t{i}", i, (Post("p0", f"u{i}", i, "hi"),)) for i in range(3)]
        rows = ThreadRows.of(ts)
        assert len(rows) == 3
        assert list(rows) == list(ts)

    def test_row_subset_yields_its_rows_threads(self, tiny_jsonl, monkeypatch):
        course = ingest_corpus(tiny_jsonl).course("alpha")
        want = oracle.ingest_corpus(tiny_jsonl).course("alpha").threads
        rows = ThreadRows(course.columns, np.array([2, 0]))
        assert len(rows) == 2
        first = list(rows)
        assert first == [want[2], want[0]]

        def refuse(self):
            raise AssertionError("a thread object was built")

        monkeypatch.setattr(Thread, "__post_init__", refuse)
        monkeypatch.setattr(Post, "__post_init__", refuse)
        second = list(ThreadRows(course.columns, np.array([0, 2])))
        assert second[0] is first[1] and second[1] is first[0]  # built once per columns
        empty = ThreadRows(course.columns, np.zeros(0, np.intp))
        assert len(empty) == 0 and not empty and list(empty) == []


_TEXTS = ["alpha beta", "gamma", "delta epsilon zeta"]


@st.composite
def _thread_corpora(draw):
    """A corpus built from Thread objects, with metadata on some courses."""
    courses = []
    for ci in range(draw(st.integers(1, 3))):
        threads = []
        for ti in range(draw(st.integers(1, 5))):
            created = draw(st.integers(0, 40 * 86400))
            gaps = draw(st.lists(st.integers(0, 90_000), min_size=0, max_size=4))
            times = list(itertools.accumulate(gaps, initial=created))
            posts = tuple(Post(f"p{j}", f"u{draw(st.integers(0, 6))}", ts, draw(st.sampled_from(_TEXTS)),
                               draw(st.booleans()))
                          for j, ts in enumerate(times))
            threads.append(Thread(f"t{ti}", created, posts, draw(st.sampled_from(list(ThreadLabel)))))
        first = min(t.created_at for t in threads)
        if draw(st.booleans()):
            factors = CourseFactors(1, 0, 2.5, draw(st.integers(0, 60)), 0, 3, 1)
            start = draw(st.integers(first - 10 * 86400, first + 3 * 86400) | st.integers(-(2**70), 2**70))
        else:
            factors, start = None, first
        courses.append(Course(f"c{ci}", start, tuple(threads), factors))
    return Corpus(tuple(courses))


def _parsed(corpus, root):
    """``corpus`` written out and read back: a corpus held only in columns."""
    threads, meta = Path(root) / "c.jsonl", Path(root) / "meta.csv"
    serialize_corpus(corpus, threads)
    write_metadata_csv(corpus, meta)
    return attach_metadata(ingest_corpus(threads), meta)


class TestColumnsMatchThreads:
    @settings(max_examples=150, deadline=None)
    @given(_thread_corpora(), st.sampled_from([0.5, 1.0, 2.0]))
    def test_stats_and_serializer_agree(self, corpus, t_days):
        with tempfile.TemporaryDirectory() as root:
            parsed = _parsed(corpus, root)
            oracle.serialize_corpus(corpus, Path(root) / "want.jsonl")
            serialize_corpus(parsed, Path(root) / "got.jsonl")
            assert (Path(root) / "got.jsonl").read_bytes() == (Path(root) / "want.jsonl").read_bytes()
        want = oracle.build_series(corpus)
        assert build_series(parsed) == build_series(corpus) == want
        assert repr(build_series(parsed)) == repr(want)  # Python ints and floats, as the loops made
        for got, want in zip(parsed.courses, corpus.courses):
            assert neighborhood_counts(got, t_days) == neighborhood_counts(want, t_days) \
                == oracle.neighborhood_counts(want, t_days)
        assert parsed == corpus


class TestParsedColumnsMatchBuilt:
    @settings(max_examples=150, deadline=None)
    @given(_thread_corpora())
    def test_parse_and_threads_fill_the_same_columns(self, corpus):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "c.jsonl"
            serialize_corpus(corpus, path)
            parsed = ingest_corpus(path)
        assert len(parsed.courses) == len(corpus.courses)
        names = parsed.courses[0].columns.author_names
        for got_course, course in zip(parsed.courses, corpus.courses):
            got = got_course.columns
            want = Course(course.course_id, course.start_date, course.threads).columns
            assert got.author_names is names  # one list for the courses of a parse
            assert [got.author_names[a] for a in got.authors.tolist()] == \
                [want.author_names[a] for a in want.authors.tolist()]
            assert got.authors.dtype == want.authors.dtype
            for f in dataclasses.fields(ThreadColumns):
                if f.name in ("authors", "author_names"):
                    continue
                a, b = getattr(got, f.name), getattr(want, f.name)
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and a.tolist() == b.tolist(), f.name
                else:
                    assert type(a) is type(b) and a == b, f.name


class TestHitsMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(_thread_corpora(), st.data())
    def test_rows_rank_as_their_thread_objects(self, corpus, data):
        """Multi-post threads with repeated authors and staff posts; author codes in first-seen order,
        shared by the courses of one parse; rows in any order, with gaps."""
        with tempfile.TemporaryDirectory() as root:
            parsed = _parsed(corpus, root)
        i = data.draw(st.integers(0, len(corpus.courses) - 1))
        threads = corpus.courses[i].threads
        rows = data.draw(st.lists(st.integers(0, len(threads) - 1), min_size=1, unique=True))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # slow graphs: compare the last iterates
            got = hits_rank(ThreadRows(parsed.courses[i].columns, np.array(rows)))
            want = oracle.hits_rank([threads[r] for r in rows])
        assert got == want  # entries, iterations, residual and converged, bit for bit


class TestRecords:
    @settings(max_examples=100, deadline=None)
    @given(_thread_corpora())
    def test_records_walk_each_threads_posts(self, corpus):
        for course in corpus.courses:
            got = list(course.columns.records(dict))
            assert got == [(t.thread_id, t.created_at, t.label, [dataclasses.asdict(p) for p in t.posts])
                           for t in course.threads]
            # Python scalars, as the Thread objects hold
            assert all(type(created) is int and all(type(p["timestamp"]) is int and type(p["is_staff"]) is bool
                                                    for p in posts)
                       for _, created, _, posts in got)


def _twin_corpus():
    """Two courses of Thread objects; a parse of them codes the second course's authors otherwise."""
    a = Thread("t0", 10, (Post("p0", "u0", 10, "hello there"), Post("p1", "u1", 20, "hi", True)),
               ThreadLabel.SMALL_TALK)
    b = Thread("t1", 90000, (Post("p0", "u1", 90000, "gradient descent"),), ThreadLabel.COURSE_SPECIFIC)
    c = Thread("t0", 5, (Post("p0", "u2", 5, "office hours"), Post("p1", "u1", 6, "thanks")))
    d = Thread("t1", 7, (Post("p0", "u0", 7, "deadline"),), ThreadLabel.LOGISTICS)
    return Corpus((Course("c0", 10, (a, b)), Course("c1", 5, (c, d))))


def _set(values, i, value):
    values = values.copy()
    values[i] = value
    return values


# one value of one column changed, given the columns
_ONE_CHANGE = {
    "author name": lambda c: {"authors": _set(c.authors, 1, len(c.author_names)),
                              "author_names": [*c.author_names, "nobody"]},
    "staff flag": lambda c: {"is_staff": _set(c.is_staff, 1, True)},
    "text": lambda c: {"texts": _set(c.texts, 1, "thanks!")},
    "label": lambda c: {"labels": _set(c.labels, 0, ThreadLabel.SMALL_TALK)},
    "created_at": lambda c: {"created_at": _set(c.created_at, 1, 8)},
    "thread id": lambda c: {"thread_ids": _set(c.thread_ids, 1, "t2")},
    "post id": lambda c: {"post_ids": _set(c.post_ids, 2, "p1")},
    "timestamp": lambda c: {"timestamps": _set(c.timestamps, 1, 7)},
    "offsets": lambda c: {"offsets": _set(c.offsets, 1, 1)},
}


class TestCourseEqualityReadsColumns:
    @pytest.fixture
    def parsed(self, tmp_path, monkeypatch):
        """``_twin_corpus`` written out and read back, whose threads may not be built."""
        path = tmp_path / "c.jsonl"
        serialize_corpus(_twin_corpus(), path)

        def refuse(self):
            raise AssertionError("a thread object was built")

        monkeypatch.setattr(ThreadColumns, "threads", refuse)
        return ingest_corpus(path)

    def test_parse_equals_thread_built_twin(self, parsed):
        twin = _twin_corpus()
        got, want = parsed.courses[1].columns, twin.courses[1].columns
        assert got.authors.tolist() != want.authors.tolist()  # the parse codes authors across courses
        assert parsed == twin and twin == parsed

    @pytest.mark.parametrize("change", _ONE_CHANGE, ids=list(_ONE_CHANGE))
    def test_one_changed_value_breaks_equality(self, parsed, change):
        course = parsed.courses[1]
        columns = dataclasses.replace(course.columns, **_ONE_CHANGE[change](course.columns))
        changed = Course._from_columns(course.course_id, course.start_date, columns)
        twin = _twin_corpus().courses[1]
        assert changed != course and changed != twin and twin != changed

    def test_repr_gives_counts(self, parsed):
        twin = _twin_corpus()
        for course, built in zip(parsed.courses, twin.courses):
            assert repr(course) == repr(built)
        assert repr(parsed.courses[1]) == ("Course(course_id='c1', start_date=5, num_threads=2, num_posts=3, "
                                           "factors=None, category=<CourseCategory.HUMANITIES_SOCIAL: "
                                           "'HumanitiesSocial'>)")


class TestDayIndices:
    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 2**63 - 1), max_size=8), st.integers(-(2**70), 2**70))
    def test_match_day_index_within_any_series(self, stamps, start):
        got = day_indices(np.array(stamps, dtype=np.int64), start).tolist()
        for ts, day in zip(stamps, got):
            want = day_index(ts, start)
            if abs(want) < 2**51:
                assert day == want
            else:  # far outside any series: it stays far outside
                assert abs(day) >= 2**51 and (day > 0) == (want > 0)
