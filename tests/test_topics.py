import ast
import math
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forumlens import topics
from forumlens.corpus import (MAX_SERIES_ROWS, SECONDS_PER_DAY, Corpus, Course, Post, Thread, TokenTable,
                              UnigramModel, day_index, distinct_terms, thread_tokens)
from forumlens.errors import ConfigError, DomainMismatch, EmptyCorpus, InvariantViolation
from forumlens.genmodel import make_spec, sample_corpus
from forumlens.topics import (
    ConvergencePoint,
    KeywordFit,
    KeywordRanking,
    convergence_series,
    extract_keywords,
    normalized_kendall_tau,
    support_recovery_recall,
    surprise_weights,
    top_k,
    topk_kendall_tau,
    topk_set_difference,
)

from conftest import chunk_budget


class TestSurpriseWeights:
    def test_uniform_masses_rank_lexicographically(self):
        n = 16
        words = [f"w{i:02d}" for i in range(n)]
        uniform = UnigramModel.uniform(words)
        ranking = surprise_weights(uniform, uniform, n)
        assert list(ranking.words) == sorted(words)
        assert all(g == pytest.approx(1.0) for _, g in ranking.entries)

    def test_two_word_formula(self):
        course = UnigramModel(("aa", "bb"), [0.9, 0.1])
        combined = UnigramModel(("aa", "bb"), [0.5, 0.5])
        ranking = surprise_weights(combined, course, 100)
        gammas = dict(ranking.entries)
        assert gammas["aa"] == pytest.approx(12.728, abs=5e-4)
        assert gammas["bb"] == pytest.approx(1.414, abs=5e-4)

    def test_missing_word_in_combined(self):
        course = UnigramModel(("aa",), [1.0])
        combined = UnigramModel(("bb",), [1.0])
        with pytest.raises(DomainMismatch):
            surprise_weights(combined, course, 10)

    def test_zero_background_tokens(self):
        model = UnigramModel(("aa",), [1.0])
        with pytest.raises(EmptyCorpus):
            surprise_weights(model, model, 0)

    def test_recovers_topic_support_with_ample_data(self):
        spec = make_spec(n=4000, num_courses=2, epsilon=0.3, p=0.5, s=100, seed=3)
        recall = support_recovery_recall(
            spec, course=0, background_courses=[1],
            background_tokens=400_000, course_tokens=50_000, seed=0,
        )
        assert recall == 1.0

    @settings(max_examples=50)
    @given(
        st.dictionaries(
            st.sampled_from([f"w{i}" for i in range(12)]),
            st.integers(1, 50),
            min_size=2,
            max_size=10,
        ),
        st.integers(2, 7),
    )
    def test_scaling_course_counts_keeps_ranking(self, counts, factor):
        combined = UnigramModel.uniform([f"w{i}" for i in range(12)])
        a = surprise_weights(combined, UnigramModel.from_counts(counts), 500)
        scaled = {w: c * factor for w, c in counts.items()}
        b = surprise_weights(combined, UnigramModel.from_counts(scaled), 500)
        assert a.words == b.words


class TestTopK:
    def test_zero(self):
        ranking = KeywordRanking((("aa", 2.0), ("bb", 1.0)))
        assert top_k(ranking, 0) == []

    def test_k_beyond_support(self):
        ranking = KeywordRanking((("aa", 2.0), ("bb", 1.0)))
        assert top_k(ranking, 10) == ["aa", "bb"]

    def test_negative_k_rejected(self):
        # a negative slice bound would keep all but the last |k| words
        with pytest.raises(ValueError):
            top_k(KeywordRanking((("aa", 2.0), ("bb", 1.0))), -1)

    def test_negative_k_rejected_by_convergence(self):
        spec = make_spec(n=200, num_courses=2, epsilon=0.3, p=0.5, s=20)
        with pytest.raises(ValueError):
            convergence_series(sample_corpus(spec, [30, 30]), "course00", k=-1)


class TestSetDifference:
    def test_identical(self):
        r = KeywordRanking((("aa", 2.0), ("bb", 1.0)))
        assert topk_set_difference(r, r, 2) == 0

    def test_disjoint(self):
        a = KeywordRanking((("aa", 2.0), ("bb", 1.0)))
        b = KeywordRanking((("cc", 2.0), ("dd", 1.0)))
        assert topk_set_difference(a, b, 2) == 2

    def test_hand_built_example(self):
        day_a = KeywordRanking((("aa", 5.0), ("bb", 4.0), ("cc", 3.0), ("dd", 2.0), ("ee", 1.0)))
        day_b = KeywordRanking((("aa", 5.0), ("ff", 4.0), ("cc", 3.0), ("gg", 2.0), ("ee", 1.0)))
        assert topk_set_difference(day_a, day_b, 5) == 2


class TestKendallTau:
    def test_identical(self):
        assert normalized_kendall_tau(["aa", "bb", "cc"], ["aa", "bb", "cc"]) == 0.0

    def test_reversal(self):
        order = ["aa", "bb", "cc", "dd"]
        assert normalized_kendall_tau(order, order[::-1]) == 1.0

    def test_single_swap(self):
        assert normalized_kendall_tau(["aa", "bb", "cc"], ["aa", "cc", "bb"]) == pytest.approx(1 / 3)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            normalized_kendall_tau(["aa", "bb"], ["aa", "cc"])

    @settings(max_examples=100)
    @given(st.permutations(list("abcdefg")), st.permutations(list("abcdefg")), st.permutations(list("abcdefg")))
    def test_metric_properties(self, x, y, z):
        dxy = normalized_kendall_tau(x, y)
        assert dxy == pytest.approx(normalized_kendall_tau(y, x))
        assert (dxy == 0) == (list(x) == list(y))
        dxz = normalized_kendall_tau(x, z)
        dyz = normalized_kendall_tau(y, z)
        assert dxz <= dxy + dyz + 1e-12

    @settings(max_examples=200)
    @given(st.lists(st.text(min_size=1, max_size=3), unique=True, max_size=40).flatmap(
        lambda words: st.tuples(st.permutations(words), st.permutations(words))))
    def test_equals_pair_count(self, orders):
        a, b = orders
        m = len(a)
        discordant = sum(1 for i in range(m) for j in range(i + 1, m) if b.index(a[i]) > b.index(a[j]))
        assert normalized_kendall_tau(a, b) == (discordant / (m * (m - 1) / 2) if m >= 2 else 0.0)

    def test_topk_alignment_uses_intersection(self):
        a = KeywordRanking((("aa", 4.0), ("bb", 3.0), ("cc", 2.0), ("dd", 1.0)))
        b = KeywordRanking((("cc", 4.0), ("aa", 3.0), ("ee", 2.0), ("bb", 1.0)))
        # top-3 sets: {aa,bb,cc} vs {cc,aa,ee}; intersection {aa,cc}
        # order a: aa,cc ; order b: cc,aa -> 1 discordant pair of 1
        assert topk_kendall_tau(a, b, 3) == 1.0


class TestPipeline:
    def _corpus(self, seed=11):
        weights = np.linspace(1.0, 3.0, 50)
        spec = make_spec(
            n=20_000, num_courses=2, epsilon=0.3, p=0.4, s=200,
            support_size=50, topic_weights=weights, seed=seed,
        )
        return spec, sample_corpus(spec, [1500, 1000], threads_per_day=100)

    def test_extract_keywords_recovers_support(self):
        spec, corpus = self._corpus()
        ranking = extract_keywords(
            corpus, "course00", ["course01"], warmup_days=10, tokens=TokenTable(frozenset())
        )
        recovered = set(top_k(ranking, 50))
        truth = spec.course_topics[0].support
        assert len(recovered & truth) / 50 >= 0.95

    def test_streaming_convergence(self):
        spec, corpus = self._corpus()
        points = convergence_series(
            corpus, "course00", ["course01"], k=50, tokens=TokenTable(frozenset())
        )
        day_tokens = 100 * spec.s
        late = [
            p.kendall_tau
            for p in points
            if p.cumulative_tokens - day_tokens >= 10 * spec.n
        ]
        assert late and max(late) < 0.02

    def test_convergence_reports_set_churn(self):
        _, corpus = self._corpus()
        points = convergence_series(corpus, "course00", ["course01"], k=50, tokens=TokenTable(frozenset()))
        assert all(p.new_words >= 0 for p in points)
        assert points[-1].new_words <= 2


class TestBackgroundList:
    """A given background list must name each course once, at least one course, and not the course itself."""

    @pytest.mark.parametrize("background", [[], ["course01", "course01"], ["course00"], ["course01", "course00"]])
    def test_refused(self, background):
        spec = make_spec(n=200, num_courses=2, epsilon=0.3, p=0.4, s=20, seed=3)
        corpus = sample_corpus(spec, [20, 20], threads_per_day=5)
        with pytest.raises(ConfigError):
            KeywordFit(TokenTable(), corpus, "course00", background)
        with pytest.raises(ConfigError):
            extract_keywords(corpus, "course00", background)


class TestSeriesLength:
    """Without max_days, convergence runs to the course's last day: MAX_SERIES_ROWS is accepted and
    one more day is refused before any day is counted."""

    @staticmethod
    def _fit(last_day):
        """A fit of course c0, whose two threads fall on days ``last_day - 1`` and ``last_day``."""
        def course(course_id, days):
            return Course(course_id, 0, tuple(
                Thread(f"{course_id}t{d}", (d - 1) * SECONDS_PER_DAY,
                       (Post(f"{course_id}p{d}", "u", (d - 1) * SECONDS_PER_DAY, "gradient descent", False),))
                for d in days))

        return KeywordFit(TokenTable(), Corpus((course("c0", (last_day - 1, last_day)), course("c1", (1,)))), "c0")

    def test_last_day_at_the_limit(self):
        (point,) = self._fit(MAX_SERIES_ROWS).convergence(k=5)
        assert point.day == MAX_SERIES_ROWS and point.cumulative_tokens == 4

    def test_one_day_more_is_refused(self):
        with pytest.raises(InvariantViolation, match=f"day {MAX_SERIES_ROWS + 1}, past the"):
            self._fit(MAX_SERIES_ROWS + 1).convergence(k=5)
        assert self._fit(MAX_SERIES_ROWS + 1).convergence(k=5, max_days=3) == []  # a given max_days is kept


class TestFirstCounts:
    """The shared distinct pass: each row's ids in order of first occurrence, with their counts."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=12))
    def test_matches_a_count_in_first_occurrence_order(self, ids):
        ((terms, counts),) = distinct_terms([np.array(ids, dtype=np.int32)])
        expected = Counter(ids)  # insertion order is first-occurrence order
        assert terms.ids.tolist() == list(expected)
        assert counts.tolist() == list(expected.values())
        assert terms.rows == 1 and terms.row.tolist() == [0] * len(expected)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 6), max_size=9), max_size=8), st.sampled_from([1, 2, 5, 13]))
    def test_rows_across_chunks(self, rows, budget):
        with chunk_budget(budget):  # a small budget splits the rows
            chunks = list(distinct_terms([np.array(ids, dtype=np.int32) for ids in rows]))
        assert sum(t.rows for t, _ in chunks) == len(rows)
        got, offset = [[] for _ in rows], 0
        for t, counts in chunks:
            assert t.row.tolist() == sorted(t.row.tolist())  # a row's entries together, rows in order
            for r, i, n in zip(t.row.tolist(), t.ids.tolist(), counts.tolist()):
                got[offset + r].append((i, n))
            offset += t.rows
        assert got == [list(Counter(ids).items()) for ids in rows]


class TestKeywordRankingInvariants:
    def test_rejects_increasing_gamma(self):
        with pytest.raises(Exception):
            KeywordRanking((("aa", 1.0), ("bb", 2.0)))

    def test_rejects_duplicates(self):
        with pytest.raises(Exception):
            KeywordRanking((("aa", 2.0), ("aa", 1.0)))

    def test_rejects_nonlexicographic_ties(self):
        with pytest.raises(Exception):
            KeywordRanking((("bb", 1.0), ("aa", 1.0)))


# ---------------------------------------------------------------------------
# Oracle: the per-call Counter + UnigramModel + per-word loop the fit replaced
# ---------------------------------------------------------------------------


def _oracle_surprise_weights(combined, course, background_tokens):
    sqrt_n = math.sqrt(background_tokens)
    entries = [(w, course.prob(w) * sqrt_n / math.sqrt(combined.prob(w))) for w in course.vocab]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return KeywordRanking(tuple(entries))


def _oracle_fit(bg, course_counts):
    combined = UnigramModel.from_counts(bg + course_counts)
    course_model = UnigramModel.from_counts(course_counts)
    return _oracle_surprise_weights(combined, course_model, sum(bg.values()))


def _oracle_tokens(corpus, course_id, background_ids, stopwords, include_staff):
    if background_ids is None:
        background_ids = [c.course_id for c in corpus.courses if c.course_id != course_id]
    bg = Counter()
    for cid in background_ids:
        for t in corpus.course(cid).threads:
            bg.update(thread_tokens(t, stopwords, include_staff))
    course = corpus.course(course_id)
    by_day = {}
    for t in course.threads:
        day = day_index(t.created_at, course.start_date)
        by_day.setdefault(day, []).extend(thread_tokens(t, stopwords, include_staff))
    return bg, by_day


def _oracle_extract(corpus, course_id, background_ids, warmup_days, stopwords, include_staff):
    bg, by_day = _oracle_tokens(corpus, course_id, background_ids, stopwords, include_staff)
    course_counts = Counter()
    for day, tokens in by_day.items():
        if day <= warmup_days:
            course_counts.update(tokens)
    if not course_counts:
        raise EmptyCorpus(f"no course tokens in the first {warmup_days} days of {course_id}")
    if not bg:
        raise EmptyCorpus("background courses contributed no tokens")
    return _oracle_fit(bg, course_counts)


def _oracle_convergence(corpus, course_id, background_ids, k, max_days, stopwords, include_staff):
    def top(ranking):
        return list(ranking.words[:k])

    def tau(a, b):
        common = set(top(a)) & set(top(b))
        if len(common) < 2:
            return 0.0
        return normalized_kendall_tau(
            [w for w in a.words if w in common], [w for w in b.words if w in common]
        )

    bg, by_day = _oracle_tokens(corpus, course_id, background_ids, stopwords, include_staff)
    if not bg:
        raise EmptyCorpus("background courses contributed no tokens")
    if not by_day:
        raise EmptyCorpus(f"course {course_id} has no tokens")
    last_day = max(by_day) if max_days is None else max_days
    points = []
    cumulative = Counter()
    prev = None
    for day in range(1, last_day + 1):
        cumulative.update(by_day.get(day, []))
        if not cumulative:
            continue
        ranking = _oracle_fit(bg, cumulative)
        if prev is not None:
            points.append(
                ConvergencePoint(
                    day=day,
                    new_words=len(set(top(ranking)) - set(top(prev))),
                    kendall_tau=tau(prev, ranking),
                    cumulative_tokens=sum(cumulative.values()),
                )
            )
        prev = ranking
    return points


_WORDS = ["aa", "bb", "cc", "dd", "ee", "the"]
# words of the course c0 alone: a fit that reads c0's days one by one meets them after the background
_COURSE_WORDS = [*_WORDS, "ab", "ff"]


@st.composite
def _small_corpora(draw):
    """2-3 courses of few threads over a few-word vocabulary: ties, gaps, staff posts, and words
    that only the first course uses."""
    courses = []
    for c in range(draw(st.integers(2, 3))):
        threads = []
        for j in range(draw(st.integers(0, 8))):
            created = draw(st.integers(0, 6)) * 86400 + draw(st.integers(0, 86399))
            posts = tuple(
                Post(
                    f"c{c}t{j}p{i}",
                    f"u{i}",
                    created + i,
                    " ".join(draw(st.lists(st.sampled_from(_COURSE_WORDS if c == 0 else _WORDS), max_size=5))),
                    draw(st.booleans()),
                )
                for i in range(draw(st.integers(1, 3)))
            )
            threads.append(Thread(f"c{c}t{j}", created, posts))
        # a start after some threads puts them on day 0 or earlier
        start = draw(st.sampled_from([0, 86400]))
        courses.append(Course(f"c{c}", start, tuple(threads)))
    return Corpus(tuple(courses))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EmptyCorpus as exc:
        return ("EmptyCorpus", str(exc))


class TestFitMatchesOracle:
    """extract_keywords and convergence_series equal the replaced code exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        _small_corpora(),
        st.booleans(),
        st.sampled_from([None, ["c1"], [], ["c0", "c1"]]),
        st.integers(0, 6),
        st.integers(0, 7),
        st.one_of(st.none(), st.integers(0, 8)),
    )
    def test_equal_to_oracle(self, corpus, include_staff, background_ids, k, warmup, max_days):
        stopwords = frozenset({"the"})
        args = (corpus, "c0", background_ids)
        if background_ids in ([], ["c0", "c1"]):  # one that names no course, or the course itself, is refused
            with pytest.raises(ConfigError):
                extract_keywords(*args, warmup, TokenTable(stopwords, include_staff))
            with pytest.raises(ConfigError):
                convergence_series(*args, k, max_days, TokenTable(stopwords, include_staff))
            return
        table = TokenTable(stopwords, include_staff)
        assert _outcome(extract_keywords, *args, warmup, table) == _outcome(
            _oracle_extract, *args, warmup, stopwords, include_staff
        )
        table = TokenTable(stopwords, include_staff)
        assert _outcome(convergence_series, *args, k, max_days, table) == _outcome(
            _oracle_convergence, *args, k, max_days, stopwords, include_staff
        )

    # a warm-up day for keywords(), a (k, max_days) pair for convergence(), or words that another
    # pipeline encodes into the shared table between calls: new ones, and course words not yet read
    _calls = (
        st.integers(0, 7)
        | st.tuples(st.integers(1, 6), st.none() | st.integers(0, 8))
        | st.lists(st.sampled_from(["a0", "aa", "cc", "ee", "the", "zz"]), min_size=1, max_size=3)
    )

    @settings(max_examples=80, deadline=None)
    @given(_small_corpora(), st.lists(_calls, min_size=2, max_size=6))
    # "ff" enters the table through encode() and "ab" through a later day, both after a ranking
    @example(
        Corpus((
            Course("c0", 0, (Thread("a", 5, (Post("a0", "u", 5, "aa bb", False),)),
                             Thread("b", 2 * 86400, (Post("b0", "u", 2 * 86400, "ff ab", False),)))),
            Course("c1", 0, (Thread("c", 5, (Post("c0", "u", 5, "aa bb cc", False),)),)),
        )),
        [1, ["ff", "zz"], 4, (2, None)],
    )
    def test_one_fit_serves_days_in_any_order(self, corpus, calls):
        stopwords = frozenset({"the"})
        table = TokenTable(stopwords)
        fit = KeywordFit(table, corpus, "c0")
        for call in calls:
            if isinstance(call, list):
                table.encode(call)
            elif isinstance(call, tuple):
                assert _outcome(fit.convergence, *call) == _outcome(
                    _oracle_convergence, corpus, "c0", None, *call, stopwords, True
                )
            else:
                assert _outcome(fit.keywords, call) == _outcome(
                    _oracle_extract, corpus, "c0", None, call, stopwords, True
                )


# words that exercise the tokenizer: case, non-ASCII letters, the Kelvin sign (which lowers to an
# ASCII "k"), digits, underscores (which separate words), one-character words and stopwords
_TEXT_WORDS = ["The", "the", "and", "Kelvin", "\u212aelvin", "\u212a", "caf\u00e9", "na\u00efve", "\u00e9",
               "42", "7", "x1", "a_b", "__", "x", "Zz", "zz", "?!", "\u00fcber-cool"]


@st.composite
def _text_courses(draw):
    """1-2 courses of threads whose posts mix those words, some of them staff posts."""
    courses = []
    for c in range(draw(st.integers(1, 2))):
        threads = []
        for j in range(draw(st.integers(0, 5))):
            posts = tuple(
                Post(f"p{i}", "u", 0, " ".join(draw(st.lists(st.sampled_from(_TEXT_WORDS), max_size=6))),
                     draw(st.booleans()))
                for i in range(draw(st.integers(1, 3)))
            )
            threads.append(Thread(f"c{c}t{j}", 0, posts))
        courses.append(Course(f"c{c}", 0, threads))
    return courses


class TestTableMatchesThreadTokens:
    """A table reads each column row as the ids that encode() gives the thread's thread_tokens,
    and grows the same vocabulary, in the same order, whatever encode() calls come between."""

    # a row read (course, row), or words to encode: "the" is a stopword that encode() keeps
    _steps = st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 4))
        | st.lists(st.sampled_from(["the", "kelvin", "caf\u00e9", "x", "new"]), max_size=3),
        max_size=10,
    )

    @settings(max_examples=200, deadline=None)
    @given(_text_courses(), st.sampled_from([None, frozenset(), frozenset({"the", "zz", "42", "kelvin"})]),
           st.booleans(), _steps)
    def test_rows_and_vocabulary(self, courses, stopwords, include_staff, steps):
        table, oracle = TokenTable(stopwords, include_staff), TokenTable(stopwords, include_staff)

        def read(course, row):
            got = table.ids(course.columns, row)
            assert got.dtype == np.int32
            expected = oracle.encode(thread_tokens(course.threads[row], stopwords, include_staff))
            assert got.tolist() == expected.tolist()

        for step in steps:
            if isinstance(step, list):
                assert table.encode(step).tolist() == oracle.encode(step).tolist()
            elif step[0] < len(courses) and step[1] < courses[step[0]].num_threads:
                read(courses[step[0]], step[1])
        for course in courses:
            for row in range(course.num_threads):
                read(course, row)
        assert list(table.index) == list(oracle.index)


# a capital sigma lowers to a final sigma at a word's end, and str.lower reads the letters around it
_COUNT_WORDS = [*_TEXT_WORDS, "ΟΔΟΣ", "ΣΑΣ", "Σ", "xΣ"]


@st.composite
def _count_courses(draw):
    """An empty course and 1-2 courses of threads: the first has 2-5 threads of 2-3 posts each."""
    courses = [Course("empty", 0, ())]
    for c in range(draw(st.integers(1, 2))):
        threads = []
        for j in range(draw(st.integers(2 if c == 0 else 0, 5))):
            posts = tuple(
                Post(f"p{i}", "u", 0, " ".join(draw(st.lists(st.sampled_from(_COUNT_WORDS), max_size=6))),
                     draw(st.booleans()))
                for i in range(draw(st.integers(2 if c == 0 else 1, 3)))
            )
            threads.append(Thread(f"c{c}t{j}", 0, posts))
        courses.insert(draw(st.integers(0, len(courses))), Course(f"c{c}", 0, threads))
    return courses


class TestCountsMatchRows:
    """counts(*columns) gives, by id, the per-word totals of the ids that every row of the columns
    reads, and numbers new words in the order the rows would meet them, whether the courses are
    counted one call each or all in one call.  Each row is split once per table: a later call
    totals the kept rows."""

    @settings(max_examples=150, deadline=None)
    @given(_count_courses(), st.sampled_from([None, frozenset(), frozenset({"the", "zz", "42", "kelvin"})]),
           st.booleans(), st.booleans())
    def test_counts_equal_row_totals(self, courses, stopwords, include_staff, one_call):
        table, rows = TokenTable(stopwords, include_staff), TokenTable(stopwords, include_staff)
        groups = [courses] if one_call else [[course] for course in courses]
        counted = [table.counts(*(course.columns for course in group)) for group in groups]
        words = list(table.index)
        for group, counts in zip(groups, counted):
            assert counts.dtype == np.int64 and counts.size <= len(table)
            expected = Counter()
            for course in group:
                for row in range(course.num_threads):
                    expected.update(rows.ids(course.columns, row).tolist())
            row_words = list(rows.index)
            assert {words[i]: n for i, n in enumerate(counts.tolist()) if n} == {
                row_words[i]: n for i, n in expected.items()
            }
        assert words == list(rows.index)
        with mock.patch.object(TokenTable, "_tokenize", autospec=True, side_effect=TokenTable._tokenize) as split:
            total = table.counts(*(course.columns for course in reversed(courses)))
        assert not split.called and len(table) == len(words)
        assert total.tolist() == np.sum([np.pad(c, (0, len(words) - c.size)) for c in counted], axis=0).tolist()


def _calls_outside(tree, names):
    """(name, line) of every call to a function or method in ``names`` outside the definitions
    of that name."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in names and name not in inside:
                found.append((name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_one_scoring_path():
    """Text scores go through corpus' chunked row sums: no package code scores a word list
    (predict_nb, SvmModel.score), no module but corpus sums rows in place (np.add.at) or
    along a matrix (np.add.accumulate), and no module that reads token ids calls np.unique on them."""
    for path in sorted(Path(topics.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        banned = {"predict_nb", "score"}
        if path.stem != "corpus":
            banned |= {"at", "accumulate"}
            if any(isinstance(n, ast.alias) and n.name == "TokenTable" for n in ast.walk(tree)):
                banned.add("unique")
        assert _calls_outside(tree, banned) == [], path.name


def test_one_text_path():
    """Thread text is read in one place: no package module but corpus calls thread_tokens,
    thread_text or tokenize; the token table reads column rows through split_words."""
    for path in sorted(Path(topics.__file__).parent.glob("*.py")):
        if path.stem != "corpus":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert _calls_outside(tree, {"thread_tokens", "thread_text", "tokenize"}) == [], path.name


def test_rows_laid_out_in_corpus_only():
    """Thread objects become rows in one place: no package module but corpus calls ``of``
    (ThreadRows.of, ThreadColumns.of), so callers wrap their Thread objects and the rankers
    take rows only."""
    for path in sorted(Path(topics.__file__).parent.glob("*.py")):
        if path.stem != "corpus":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert _calls_outside(tree, {"of"}) == [], path.name


def test_thread_objects_built_in_corpus_only():
    """No package module but corpus calls ``Post(`` or ``Thread(``: the parse and the sampler fill
    columns, and Thread objects are only ever built from them, by no command."""
    for path in sorted(Path(topics.__file__).parent.glob("*.py")):
        if path.stem != "corpus":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert _calls_outside(tree, {"Post", "Thread"}) == [], path.name


def test_cli_builds_token_tables_in_one_helper():
    """cli calls ``TokenTable(`` once, in ``_table``, which keeps each table with the parsed corpus:
    no handler reads text through a table of its own."""
    tree = ast.parse((Path(topics.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    builders = [(node.name, line) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                for _, line in _calls_outside(node, {"TokenTable"})]
    assert [name for name, _ in builders] == ["_table"]
    assert len(_calls_outside(tree, {"TokenTable"})) == 1
