import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumlens.corpus import (
    Corpus,
    Course,
    CourseCategory,
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
    unigram_model,
)
from forumlens.errors import EmptyCorpus, InvariantViolation, ParseError

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
        corpus = attach_metadata(ingest_corpus(tiny_jsonl), meta)
        alpha = corpus.course("alpha")
        assert alpha.category == CourseCategory.APPLIED_SCIENCE
        assert alpha.start_date == 0
        assert alpha.factors.video_hours == 12.5
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


class TestTokenize:
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
        model = unigram_model([["aa", "aa", "bb"]])
        assert model.prob("aa") == pytest.approx(2 / 3)
        assert model.prob("bb") == pytest.approx(1 / 3)
        assert model.total_tokens == 3

    def test_symmetry_across_docs(self):
        model = unigram_model([["aa"], ["bb"]])
        assert model.prob("aa") == model.prob("bb") == 0.5

    def test_empty_rejected(self):
        with pytest.raises(EmptyCorpus):
            unigram_model([[]])

    def test_sampled_masses_near_truth(self):
        # independent oracle: count a fresh sample drawn from a known law;
        # 0.05 absolute is ~3.5 binomial sigmas at n=1000 for these masses
        truth = {"aa": 0.4, "bb": 0.3, "cc": 0.2, "dd": 0.06, "ee": 0.04}
        source = UnigramModel.from_probs(truth)
        rng = np.random.Generator(np.random.PCG64(1))
        tokens = source.sample(rng, 1000).tolist()
        est = unigram_model([tokens])
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
        model = unigram_model(docs)
        assert abs(float(model.mass.sum()) - 1.0) <= 1e-9
        assert (model.mass > 0).all()
        assert list(model.vocab) == sorted(model.vocab)


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
