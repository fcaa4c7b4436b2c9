import hashlib
import json
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumlens.corpus import (
    MAX_SERIES_ROWS,
    Corpus,
    Course,
    CourseCategory,
    CourseFactors,
    Post,
    Thread,
    ThreadLabel,
    UnigramModel,
    attach_metadata,
    day_index,
    default_stopwords,
    ingest_corpus,
    serialize_corpus,
    tokenize,
    write_metadata_csv,
)
from forumlens.errors import EmptyCorpus, InvariantViolation, ParseError

import corpus_oracle as oracle
from conftest import make_post, make_thread


class TestIngest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpus = ingest_corpus(path)
        assert corpus.num_courses == 0

    def test_fixture_counts(self, tiny_jsonl):
        corpus = ingest_corpus(tiny_jsonl)
        assert (corpus.num_courses, corpus.num_threads) == (2, 5)
        assert corpus.course("alpha").num_threads == 3
        assert corpus.course("alpha").start_date == 100

    def test_out_of_order_posts_rejected(self, tmp_path):
        row = {
            "course_id": "c",
            "thread_id": "t",
            "created_at": 100,
            "label": None,
            "posts": [
                {"post_id": "p1", "author_id": "u", "timestamp": 100, "text": "x y"},
                {"post_id": "p2", "author_id": "u", "timestamp": 50, "text": "z w"},
            ],
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(InvariantViolation):
            ingest_corpus(path)

    def test_duplicate_thread_ids_rejected(self, tmp_path):
        row = {
            "course_id": "c",
            "thread_id": "t",
            "created_at": 1,
            "label": None,
            "posts": [{"post_id": "p", "author_id": "u", "timestamp": 1, "text": "hi there"}],
        }
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(InvariantViolation):
            ingest_corpus(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda row: row.pop("posts"),
            lambda row: row.__setitem__("created_at", "soon"),
            lambda row: row.__setitem__("label", "Gossip"),
            lambda row: row.__setitem__("posts", []),
            lambda row: row.__setitem__("course_id", None),
            lambda row: row.__setitem__("thread_id", 1.5),
            lambda row: row["posts"][0].__setitem__("post_id", True),
            lambda row: row["posts"][0].__setitem__("author_id", ["u"]),
            lambda row: row["posts"][0].__setitem__("text", None),
            lambda row: row["posts"][0].__setitem__("is_staff", "no"),
            lambda row: row["posts"][0].__setitem__("is_staff", None),
            lambda row: row.__setitem__("course_id", "c\ud800"),
        ],
    )
    def test_parse_errors(self, tmp_path, mutate):
        row = {
            "course_id": "c",
            "thread_id": "t",
            "created_at": 1,
            "label": None,
            "posts": [{"post_id": "p", "author_id": "u", "timestamp": 1, "text": "hi there"}],
        }
        mutate(row)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ParseError):
            ingest_corpus(path)

    def test_integer_ids_read_as_strings(self, tmp_path):
        row = {
            "course_id": 3,
            "thread_id": 7,
            "created_at": 1,
            "posts": [{"post_id": 0, "author_id": 42, "timestamp": 1, "text": "hi there", "is_staff": True}],
        }
        path = tmp_path / "ints.jsonl"
        path.write_text(json.dumps(row) + "\n")
        course = ingest_corpus(path).course("3")
        post = course.threads[0].posts[0]
        assert course.threads[0].thread_id == "7"
        assert (post.post_id, post.author_id, post.is_staff) == ("0", "42", True)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{ nope\n")
        with pytest.raises(ParseError) as err:
            ingest_corpus(path)
        assert err.value.line == 1

    def test_metadata_roundtrip(self, tiny_jsonl, tmp_path):
        meta = tmp_path / "meta.csv"
        meta.write_text(
            "course_id,start_date,Q,V,L,D,P,S,H,category\n"
            "alpha,0,1,0,12.5,60,1,300,8,AppliedScience\n"
            "gamma,50,0,1,3.0,30,0,10,2,Vocational\n"
        )
        parsed = ingest_corpus(tiny_jsonl)
        corpus = attach_metadata(parsed, meta)
        alpha = corpus.course("alpha")
        assert alpha.category == CourseCategory.APPLIED_SCIENCE
        assert alpha.start_date == 0
        assert alpha.factors.video_hours == 12.5
        assert alpha.factors == CourseFactors(1, 0, 12.5, 60, 1, 300, 8)
        assert alpha.columns is parsed.course("alpha").columns
        # the corpus's courses keep their order, a course without a row is unchanged, and
        # metadata-only courses follow in file order
        assert [c.course_id for c in corpus.courses] == ["alpha", "beta", "gamma"]
        assert corpus.course("beta") == parsed.course("beta")
        # metadata-only course appears with no threads
        assert corpus.course("gamma").num_threads == 0
        # metadata alone yields thread-less courses
        meta_corpus = attach_metadata(Corpus(()), meta)
        assert meta_corpus.num_courses == 2 and meta_corpus.num_threads == 0


class TestInvariants:
    def test_created_at_must_match_first_post(self):
        with pytest.raises(InvariantViolation):
            make_thread("t", 5, [make_post("p", "u", 10, "hi")])

    def test_negative_timestamp(self):
        with pytest.raises(InvariantViolation):
            make_post("p", "u", -1, "hi")

    def test_category_partition(self):
        assert CourseCategory.from_flags(1, 1) == CourseCategory.VOCATIONAL
        assert CourseCategory.from_flags(1, 0) == CourseCategory.APPLIED_SCIENCE
        assert CourseCategory.from_flags(0, 0) == CourseCategory.HUMANITIES_SOCIAL

    def test_day_index(self):
        assert day_index(0, 0) == 1
        assert day_index(86399, 0) == 1
        assert day_index(86400, 0) == 2


# The Unicode-regex tokenizer that tokenize's ASCII byte path must agree with.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _oracle_tokenize(text, stopwords):
    if stopwords is None:
        stopwords = default_stopwords()
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= 2 and t not in stopwords]


class TestTokenize:
    @pytest.mark.parametrize(
        "text",
        [
            "\u212a\u212aelvin",  # the Kelvin sign lowers to ASCII "k"
            "\u0130stanbul \u0130\u0130",  # "İ" lowers to "i" plus a combining dot
            "x\u00b2 m\u00b2\u00b2",  # superscript two is a digit
            "\ufb01le \ufb01\ufb01",  # the "ﬁ" ligature is a letter
            "\uff21\uff22\uff23\uff11\uff12 ABC12",  # full-width letters and digits
            "a_b snake_case __init__",
            "ab\tcd\nef\x1cgh\x00ij\x1f\x7fkl",
            "3d abc123 x86 2nd 1234 a1",  # digits run into letters
            "Gradient DESCENT, gradient! it's the theta-is 'th3ta'",
        ],
    )
    @pytest.mark.parametrize("stopwords", [frozenset({"the", "is", "ij", "k"}), None])
    def test_matches_regex_oracle_on_edge_cases(self, text, stopwords):
        assert tokenize(text, stopwords) == _oracle_tokenize(text, stopwords)

    @settings(max_examples=500)
    @given(
        st.text(st.characters(max_codepoint=127), max_size=200)
        | st.text(st.characters(max_codepoint=0x2200), max_size=200),
        st.none() | st.frozensets(st.text("abcdefgh_k\u0307", min_size=1, max_size=3)),
    )
    def test_matches_regex_oracle(self, text, stopwords):
        assert tokenize(text, stopwords) == _oracle_tokenize(text, stopwords)

    def test_empty(self):
        assert tokenize("", frozenset()) == []

    def test_punctuation_and_case(self):
        assert tokenize("Gradient descent, gradient!", frozenset()) == [
            "gradient",
            "descent",
            "gradient",
        ]

    def test_stopwords_and_short_tokens(self):
        assert tokenize("the theta is theta", frozenset({"the", "is"})) == ["theta", "theta"]

    def test_default_stopword_list_loads(self):
        sw = default_stopwords()
        assert "the" in sw and "is" in sw and len(sw) > 100

    @settings(max_examples=200)
    @given(st.text(max_size=200))
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestUnigramModel:
    def test_direct_counts(self):
        model = UnigramModel.from_counts(Counter(["aa", "aa", "bb"]))
        assert model.prob("aa") == pytest.approx(2 / 3)
        assert model.prob("bb") == pytest.approx(1 / 3)

    def test_symmetry_across_docs(self):
        model = UnigramModel.from_counts(Counter(w for doc in (["aa"], ["bb"]) for w in doc))
        assert model.prob("aa") == model.prob("bb") == 0.5

    def test_empty_rejected(self):
        with pytest.raises(EmptyCorpus):
            UnigramModel.from_counts(Counter())

    def test_sampled_masses_near_truth(self):
        # independent oracle: count a fresh sample drawn from a known law;
        # 0.05 absolute is ~3.5 binomial sigmas at n=1000 for these masses
        truth = {"aa": 0.4, "bb": 0.3, "cc": 0.2, "dd": 0.06, "ee": 0.04}
        rng = np.random.Generator(np.random.PCG64(1))
        tokens = rng.choice(list(truth), size=1000, p=list(truth.values())).tolist()
        est = UnigramModel.from_counts(Counter(tokens))
        for word, p in truth.items():
            if p >= 0.05:
                assert abs(est.prob(word) - p) <= 0.05

    @settings(max_examples=100)
    @given(
        st.lists(
            st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=1, max_size=20),
            min_size=1,
            max_size=10,
        )
    )
    def test_masses_sum_to_one(self, docs):
        model = UnigramModel.from_counts(Counter(w for doc in docs for w in doc))
        assert abs(float(model.mass.sum()) - 1.0) <= 1e-9
        assert (model.mass > 0).all()
        assert list(model.vocab) == sorted(model.vocab)

    @pytest.mark.parametrize("vocab", [("aa", "aa"), ("bb", "aa")], ids=["repeated", "unsorted"])
    def test_vocab_strictly_increasing(self, vocab):
        with pytest.raises(InvariantViolation, match="sorted, with no word repeated"):
            UnigramModel(vocab, [0.5, 0.5])

    @pytest.mark.parametrize(
        "mass, reason",
        [([np.nan, 0.5], "> 0"), ([0.5, np.nan], "> 0"), ([np.nan], "> 0"), ([0.5, 0.6], "sum to 1"),
         ([0.0, 1.0], "> 0"), ([np.inf, 0.5], "sum to 1")],
        ids=["first-nan", "second-nan", "only-nan", "sum-above-one", "zero", "inf"],
    )
    def test_masses_checked_as_what_must_hold(self, mass, reason):
        """A NaN mass fails both checks, since each states the condition that must hold."""
        with pytest.raises(InvariantViolation, match=reason):
            UnigramModel(("aa", "bb")[: len(mass)], mass)


_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


@st.composite
def corpora(draw):
    n_courses = draw(st.integers(1, 3))
    courses = []
    for ci in range(n_courses):
        n_threads = draw(st.integers(1, 4))
        threads = []
        base = draw(st.integers(0, 10_000))
        for ti in range(n_threads):
            n_posts = draw(st.integers(1, 3))
            t0 = base + ti * 1000
            posts = []
            for pi in range(n_posts):
                text = " ".join(draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5)))
                posts.append(
                    Post(f"p{pi}", f"u{draw(st.integers(0, 5))}", t0 + pi * 10, text, draw(st.booleans()))
                )
            label = draw(st.sampled_from(list(ThreadLabel)))
            threads.append(Thread(f"c{ci}-t{ti}", t0, tuple(posts), label))
        start = min(t.created_at for t in threads)
        courses.append(Course(f"c{ci}", start, tuple(threads)))
    return Corpus(tuple(courses))


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(corpus=corpora())
    def test_serialize_ingest_identity(self, corpus, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "corpus.jsonl"
        serialize_corpus(corpus, path)
        assert ingest_corpus(path) == corpus


def _layout_corpus() -> Corpus:
    """Courses whose files exercise every part of both layouts."""
    alpha = Course("alpha", 100, [
        make_thread("a-t1", 100, [make_post("p1", "u1", 100, "Café — naïve 日本語 ok"),
                                  make_post("p2", "staff", 160, 'a "quoted", comma\nline', staff=True)],
                    ThreadLabel.SMALL_TALK),
        make_thread("a-t2", 400, [make_post("p1", "u2", 400, "plain text")]),  # unlabeled
    ], CourseFactors(1, 0, 12, 60, 1, 300, 8), CourseCategory.APPLIED_SCIENCE)
    beta = Course("b,eta", 50, [
        make_thread("b-t1", 60, [make_post("q1", "u1", 60, "tabs\tand ünïcödé"),
                                 make_post("q2", "staff", 61, "staff reply", staff=True),
                                 make_post("q3", "u3", 99, "")], ThreadLabel.LOGISTICS),
    ], CourseFactors(0, 1, 0.1 + 0.2, 30, 0, 10, 2), CourseCategory.VOCATIONAL)
    gamma = Course("gamma", 7, [make_thread("g-t1", 7, [make_post("r1", "u9", 7, "no factors")],
                                            ThreadLabel.COURSE_SPECIFIC)])  # no factors: no CSV row
    delta = Course("delta", 0, [], CourseFactors(0, 0, 1e-05, 0, 0, 0, 0))
    return Corpus((alpha, beta, gamma, delta))


class TestLayoutGoldens:
    """Both writers keep the bytes recorded before their layouts were each stated once."""

    def test_metadata_csv(self, tmp_path):
        write_metadata_csv(_layout_corpus(), tmp_path / "meta.csv")
        assert _sha256(tmp_path / "meta.csv") == _META_DIGEST

    def test_serialized_threads(self, tmp_path):
        corpus = _layout_corpus()
        serialize_corpus(corpus, tmp_path / "built.jsonl")
        assert _sha256(tmp_path / "built.jsonl") == _THREADS_DIGEST
        # a parsed corpus (author codes shared across courses) writes the same bytes
        serialize_corpus(ingest_corpus(tmp_path / "built.jsonl"), tmp_path / "parsed.jsonl")
        assert _sha256(tmp_path / "parsed.jsonl") == _THREADS_DIGEST


def _any_text(surrogates: bool):
    """Text of any code point: astral characters, C0 and C1 controls, the characters JSON escapes or
    that sit at an escaping edge and, if ``surrogates``, lone surrogates (category Cs, which
    st.text leaves out by default)."""
    alphabet = st.characters(exclude_categories=["Cs"]) | st.characters(min_codepoint=0x10000)
    alphabet |= st.sampled_from(['"', "\\", "/", "\u2028", "\u2029", "\x7f", "\x00", "\x1f", "\x80", "\x9f",
                                 "\U0001f600"])
    if surrogates:
        alphabet |= st.characters(categories=["Cs"])
    return st.text(alphabet, max_size=12)


@st.composite
def _unicode_corpora(draw):
    """Whether lone surrogates may occur, and courses of threads whose ids and texts come from all of
    Unicode, at any timestamp, with every label and both staff flags."""
    surrogates = draw(st.booleans())
    text = _any_text(surrogates)
    courses = []
    for course_id in draw(st.lists(text, min_size=1, max_size=3, unique=True)):
        threads = []
        for thread_id in draw(st.lists(text, min_size=1, max_size=3, unique=True)):
            post_ids = draw(st.lists(text, min_size=1, max_size=3, unique=True))
            times = sorted(draw(st.lists(st.integers(0, 2**63 - 1), min_size=len(post_ids),
                                         max_size=len(post_ids))))
            posts = tuple(Post(pid, draw(text), ts, draw(text), draw(st.booleans()))
                          for pid, ts in zip(post_ids, times))
            threads.append(Thread(thread_id, times[0], posts, draw(st.sampled_from(list(ThreadLabel)))))
        courses.append(Course(course_id, min(t.created_at for t in threads), threads))
    return surrogates, Corpus(tuple(courses))


class TestWriterMatchesJson:
    """The writer lays out the bytes that json.dumps writes for each thread."""

    @settings(max_examples=200, deadline=None)
    @given(_unicode_corpora())
    def test_bytes_equal_the_oracle(self, drawn):
        surrogates, corpus = drawn
        with tempfile.TemporaryDirectory() as root:
            got, want = Path(root) / "got.jsonl", Path(root) / "want.jsonl"
            serialize_corpus(corpus, got)
            oracle.serialize_corpus(corpus, want)
            assert got.read_bytes() == want.read_bytes()
            if not surrogates:  # a lone surrogate is refused on the way back in
                assert ingest_corpus(got) == corpus


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_META_DIGEST = "f34aca92fd029f13fd1b785b9e9b2aa5c1eca81b9d66c94de67f0599981b59c2"
_THREADS_DIGEST = "ddbe16fabb3ae4c6dcd9f13e5769bf042ca8357269a93ce4661700f5c339f4f9"


_META_HEADER = "course_id,start_date,Q,V,L,D,P,S,H,category\n"
_META_ROW = "alpha,0,1,0,12.5,60,1,300,8,AppliedScience\n"

# ids of any text the csv module can hold: no NUL, no lone surrogate
_CSV_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8)


@st.composite
def _metadata_courses(draw):
    """Thread-less courses with distinct ids, some without factors."""
    ids = draw(st.lists(_CSV_TEXT, max_size=5, unique=True))
    count = st.integers(0, 2**40)
    courses = []
    for course_id in ids:
        factors = draw(st.none() | st.builds(
            CourseFactors, count, count, st.floats(0, 1e300) | st.integers(0, 10**6),
            st.integers(0, MAX_SERIES_ROWS), count, count, count))
        start = draw(st.integers(-(2**63), 2**63 - 1))
        courses.append(Course(course_id, start, (), factors, draw(st.sampled_from(list(CourseCategory)))))
    return Corpus(tuple(courses))


class TestMetadata:
    @settings(max_examples=150, deadline=None)
    @given(_metadata_courses())
    def test_written_rows_read_back(self, corpus):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "meta.csv"
            write_metadata_csv(corpus, path)
            got = attach_metadata(Corpus(()), path)
        assert got == Corpus(tuple(c for c in corpus.courses if c.factors is not None))

    def test_a_bom_is_skipped(self, tiny_jsonl, tmp_path):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(_META_HEADER + _META_ROW, encoding="utf-8")
        bom.write_text("\ufeff" + _META_HEADER + _META_ROW, encoding="utf-8")
        corpus = ingest_corpus(tiny_jsonl)
        assert attach_metadata(corpus, bom) == attach_metadata(corpus, plain)

    def test_columns_are_found_by_name(self, tmp_path):
        meta = tmp_path / "meta.csv"
        meta.write_text("category,H,S,P,D,L,V,Q,start_date,course_id\n"
                        "AppliedScience,8,300,1,60,12.5,0,1,0,alpha\n")
        course = attach_metadata(Corpus(()), meta).course("alpha")
        assert course.factors == CourseFactors(1, 0, 12.5, 60, 1, 300, 8)

    @pytest.mark.parametrize("row, line, reason", [
        ("alpha,0,1,0,12.5\n", 3, "5 fields where the header has 10"),
        (_META_ROW.replace("\n", ",extra\n"), 3, "11 fields where the header has 10"),
        (_META_ROW.replace("AppliedScience", "Arts"), 3, "'Arts' is not a valid CourseCategory"),
        (_META_ROW.replace(",60,", ",6.5,"), 3, "invalid literal"),
        ("\n" + _META_ROW.replace(",0,1,", ",zero,1,"), 4, "invalid literal"),  # blank lines count
    ], ids=["short", "long", "unknown-category", "fractional-days", "after-a-blank-line"])
    def test_malformed_row(self, tmp_path, row, line, reason):
        meta = tmp_path / "meta.csv"
        meta.write_text(_META_HEADER + _META_ROW.replace("alpha", "beta") + row)
        with pytest.raises(ParseError, match=reason) as err:
            attach_metadata(Corpus(()), meta)
        assert err.value.line == line

    def test_header_without_a_column(self, tmp_path):
        meta = tmp_path / "meta.csv"
        meta.write_text(_META_HEADER.replace(",H", "") + _META_ROW.replace(",8,", ","))
        with pytest.raises(ParseError, match="missing column 'H'"):
            attach_metadata(Corpus(()), meta)

    @pytest.mark.parametrize("hours", ["nan", "inf", "-inf", "-1.0", "1e400"])
    def test_hours_must_be_finite_and_nonnegative(self, tmp_path, hours):
        meta = tmp_path / "meta.csv"
        meta.write_text(_META_HEADER + _META_ROW.replace("12.5", hours))
        with pytest.raises(InvariantViolation, match="video_hours must be finite and >= 0"):
            attach_metadata(Corpus(()), meta)

    def test_repeated_course_id(self, tmp_path):
        meta = tmp_path / "meta.csv"
        meta.write_text(_META_HEADER + _META_ROW * 2)
        with pytest.raises(InvariantViolation, match="duplicate course id 'alpha'"):
            attach_metadata(Corpus(()), meta)

    @pytest.mark.parametrize("field", range(7))
    def test_factors_refuse_negative_values(self, field):
        values = [1, 0, 12.5, 60, 1, 300, 8]
        values[field] = -1
        with pytest.raises(InvariantViolation):
            CourseFactors(*values)
        assert CourseFactors(0, 0, 0.0, 0, 0, 0, 0).video_hours == 0.0
