import dataclasses
import gc
import hashlib
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import corpus_oracle as oracle
from forumlens.classify import SvmModel
from forumlens.corpus import UnigramModel, serialize_corpus
from forumlens.errors import InvariantViolation
from forumlens import genmodel
from forumlens.genmodel import (
    MAX_SAMPLE_SIZE,
    MAX_VOCABULARY,
    GenerativeSpec,
    adversarial_spec,
    load_spec,
    make_spec,
    marginal_token_mass,
    sample_corpus,
    sample_threads,
    sample_tokens,
    separating_plane,
    token_distribution,
)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestSpecConstruction:
    def test_supports_disjoint(self):
        spec = make_spec(n=600, num_courses=3, epsilon=0.25, p=0.5, s=40, support_size=30)
        supports = [spec.smalltalk_topic.support] + [t.support for t in spec.course_topics]
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                assert not supports[i] & supports[j]

    def test_vocabulary_too_small(self):
        with pytest.raises(InvariantViolation):
            make_spec(n=90, num_courses=2, epsilon=0.3, p=0.5, s=10, support_size=40)

    def test_ratio_bounds_enforced(self):
        spec = make_spec(n=500, num_courses=1, epsilon=0.3, p=0.5, s=40)
        lo, hi = spec.ratio_bounds
        assert 1.0 < lo < hi
        with pytest.raises(InvariantViolation):
            dataclasses.replace(spec, ratio_bounds=(hi * 2, hi * 3))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_spec(n=200, num_courses=2, epsilon=0.3, p=0.5, s=10, support_size=-5),
            lambda: make_spec(n=200, num_courses=2, epsilon=0.3, p=0.5, s=10, smalltalk_support_size=-1),
            lambda: make_spec(n=200, num_courses=-1, epsilon=0.3, p=0.5, s=10),
            lambda: make_spec(n=200, num_courses=2**64, epsilon=0.3, p=0.5, s=10, support_size=0),
            lambda: make_spec(n=100, num_courses=2, epsilon=0.3, p=0.5, s=10, support_size=30,
                              smalltalk_support_size=41),
            lambda: adversarial_spec(200, smalltalk_support_size=250),
            lambda: adversarial_spec(200, smalltalk_support_size=-1),
        ],
        ids=["support-negative", "smalltalk-negative", "courses-negative", "courses-beyond-n", "sizes-exceed-n",
             "adversarial-smalltalk-exceeds-n", "adversarial-smalltalk-negative"],
    )
    def test_topic_sizes_checked(self, build):
        with pytest.raises(InvariantViolation, match="must be nonnegative"):
            build()

    def test_topics_may_fill_the_vocabulary(self):
        spec = make_spec(n=100, num_courses=2, epsilon=0.3, p=0.5, s=10, support_size=30,
                         smalltalk_support_size=40)
        assert sum(len(t.vocab) for t in (spec.smalltalk_topic, *spec.course_topics)) == 100

    def test_json_round_trip(self):
        spec = make_spec(n=300, num_courses=2, epsilon=0.4, p=(0.2, 0.9), s=25, seed=17,
                         training_counts=(5, 5))
        assert GenerativeSpec.from_obj(json.loads(spec.to_json())).to_json() == spec.to_json()

    def test_load_spec_reads_every_kind(self, tmp_path):
        spec = make_spec(n=300, num_courses=2, epsilon=0.4, p=(0.2, 0.9), s=25, seed=17)
        written = json.loads(spec.to_json())
        path = tmp_path / "spec.json"
        for obj in (written, {"kind": "explicit", "spec": written},
                    {"kind": "uniform", "n": 300, "num_courses": 2, "epsilon": 0.4, "p": [0.2, 0.9], "s": 25, "seed": 17}):
            path.write_text(json.dumps(obj))
            assert load_spec(path).to_json() == spec.to_json()
        path.write_text('{"kind": "adversarial", "n": 400, "seed": 3}')
        assert load_spec(path).to_json() == adversarial_spec(400, seed=3).to_json()

    def test_from_obj_refuses_a_non_object(self):
        with pytest.raises(InvariantViolation, match="spec must be an object"):
            GenerativeSpec.from_obj([1, 2])

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"s": 3.5}, "s"), ({"s": 0}, "s"), ({"s": "3"}, "s"),
            ({"seed": -5}, "seed"), ({"seed": 1.0}, "seed"),
            ({"s_per_course": (4, -1)}, "s_per_course"), ({"s_per_course": (0, 4)}, "s_per_course"),
            ({"s_per_course": (4, 2.5)}, "s_per_course"),
            ({"training_counts": (3, -1)}, "training_counts"), ({"training_counts": (3, 2.5)}, "training_counts"),
            ({"s": True}, "s"), ({"seed": False}, "seed"), ({"s_per_course": (4, True)}, "s_per_course"),
            ({"training_counts": (np.True_, 3)}, "training_counts"), ({"n": 200.0}, "n"),
        ],
        ids=["s-fractional", "s-zero", "s-a-string", "seed-negative", "seed-a-float", "s-per-course-negative",
             "s-per-course-zero", "s-per-course-fractional", "training-counts-negative",
             "training-counts-fractional", "s-a-bool", "seed-a-bool", "s-per-course-a-bool",
             "training-counts-a-numpy-bool", "n-a-float"],
    )
    def test_sampler_fields_checked(self, fields, name):
        spec = make_spec(n=200, num_courses=2, epsilon=0.3, p=0.5, s=10)
        with pytest.raises(InvariantViolation, match=f"{name} must hold integers"):
            dataclasses.replace(spec, **fields)

    def test_sampler_fields_take_any_integer_type(self):
        spec = make_spec(n=np.int64(200), num_courses=2, epsilon=0.3, p=0.5, s=np.int64(10), seed=np.uint32(3),
                         s_per_course=(np.int32(4), 1), training_counts=(0, np.int64(2)))
        assert sample_corpus(spec, [2, 1]).num_threads == 3
        stored = (spec.n, spec.s, spec.seed, *spec.s_per_course, *spec.training_counts)
        assert [type(v) for v in stored] == [int] * 7
        again = GenerativeSpec.from_obj(json.loads(spec.to_json()))
        assert again.to_json() == spec.to_json()
        assert (again.n, again.s, again.seed, again.s_per_course, again.training_counts) == (200, 10, 3, (4, 1), (0, 2))

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"epsilon": False}, "epsilon"), ({"epsilon": "0.3"}, "epsilon"), ({"p": (True, 0.5)}, "p"),
            ({"p": (0.5, "0.5")}, "p"), ({"uniformity_bound": True}, "uniformity_bound"),
            ({"uniformity_bound": "8"}, "uniformity_bound"), ({"ratio_bounds": (1.01, "9")}, "ratio_bounds"),
            ({"ratio_bounds": (np.True_, 9.0)}, "ratio_bounds"), ({"epsilon": 2**1100}, "epsilon"),
            ({"uniformity_bound": math.nan}, "uniformity_bound"),
        ],
        ids=["epsilon-a-bool", "epsilon-a-string", "p-a-bool", "p-a-string", "uniformity-bound-a-bool",
             "uniformity-bound-a-string", "ratio-bounds-a-string", "ratio-bounds-a-numpy-bool",
             "epsilon-beyond-float", "uniformity-bound-nan"],
    )
    def test_real_fields_checked(self, fields, name):
        spec = make_spec(n=200, num_courses=2, epsilon=0.3, p=0.5, s=10)
        with pytest.raises(InvariantViolation, match=f"{name} must hold numbers"):
            dataclasses.replace(spec, **fields)

    def test_real_fields_stored_as_floats(self):
        """An integer or numpy real given for epsilon, p, uniformity_bound or ratio_bounds is stored,
        and written by to_json, as a float."""
        spec = make_spec(n=200, num_courses=2, epsilon=0, p=(np.float32(0.5), 1), s=10)
        spec = dataclasses.replace(spec, uniformity_bound=8, ratio_bounds=None)
        stored = (spec.epsilon, *spec.p, spec.uniformity_bound)
        assert [type(v) for v in stored] == [float] * 4
        assert '"epsilon": 0.0' in spec.to_json() and '"p": [0.5, 1.0]' in spec.to_json()
        spec = dataclasses.replace(make_spec(n=200, num_courses=2, epsilon=0.6, p=0.5, s=10), ratio_bounds=(2, 3))
        assert [type(v) for v in spec.ratio_bounds] == [float] * 2


def _ratio_bounds_loop(epsilon, background, course_topics):
    """ratio_bounds as first computed, a word at a time; None if a topical word is not boosted."""
    ratios = []
    for topic in course_topics:
        for w in topic.vocab:
            r = (1.0 - epsilon) + epsilon * topic.prob(w) / background.prob(w)
            ratios.append(r)
    lo, hi = min(ratios), max(ratios)
    return None if lo <= 1.0 else (0.5 * (1.0 + lo), 2.0 * hi)


@st.composite
def _spec_parts(draw):
    """(epsilon, background, small-talk topic, course topics): a weighted background and
    weighted topics on consecutive blocks of the vocabulary."""
    weight = st.floats(1.0, 7.9)
    sizes = draw(st.lists(st.integers(0, 6), min_size=2, max_size=4))
    n = sum(sizes) + draw(st.integers(1, 40))
    words = [f"w{i:03d}" for i in range(n)]
    bg = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    background = UnigramModel(tuple(words), bg / bg.sum())
    topics, start = [], 0
    for size in sizes:
        w = np.array(draw(st.lists(weight, min_size=size, max_size=size)))
        topics.append(UnigramModel(tuple(words[start : start + size]), w / w.sum() if size else w))
        start += size
    return draw(st.floats(0.01, 0.99)), background, topics[0], tuple(topics[1:])


class TestRatioBounds:
    @settings(max_examples=300, deadline=None)
    @given(_spec_parts())
    def test_equal_to_word_loop(self, parts):
        epsilon, background, smalltalk, topics = parts
        build = lambda: GenerativeSpec(n=len(background.vocab), epsilon=epsilon, background=background,
                                       smalltalk_topic=smalltalk, course_topics=topics,
                                       p=(0.5,) * len(topics), s=10)
        if not any(t.vocab for t in topics):
            assert build().ratio_bounds is None
        elif _ratio_bounds_loop(epsilon, background, topics) is None:
            with pytest.raises(InvariantViolation, match="boosted"):
                build()
        else:
            assert build().ratio_bounds == _ratio_bounds_loop(epsilon, background, topics)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenBytes:
    """Specs and sampled corpora keep the bytes they had before the sampler was rewritten."""

    @pytest.mark.parametrize(
        "build, counts, spec_digest, corpus_digest",
        [
            (lambda: make_spec(n=300, num_courses=3, epsilon=0.3, p=0.5, s=25, seed=11), [20, 15, 10],
             "9bb469435d8ec5bf05efeb3a8da684bcf728db4806e94c9bd36479aa9d3d1b10",
             "1259a8fb0290d4fdf5f9ba9e0b5ca02cfc833148f08ddfd34ebd6eabc74e4a71"),
            (lambda: make_spec(n=400, num_courses=2, epsilon=0.35, p=(0.3, 0.7), s=30, support_size=20,
                               smalltalk_support_size=25, topic_weights=[float(i) for i in range(1, 21)],
                               seed=4, s_per_course=(12, 40), training_counts=(6, 9)), [15, 12],
             "2ffccd6eb7af0812e7848fed9e7d6928648f85e4990206d3f4b8b366b79479fe",
             "82f38489d0dc590d81bc94ff9d4b323158cfb21b17b321b156d31de4f0e1881e"),
            (lambda: make_spec(n=200, num_courses=2, epsilon=0.0, p=0.5, s=20, seed=5), [10, 10],
             "bf6f6c5e68c21f1671b2f144d82f5cd01f080e963910401cec53c1bff601feb8",
             "b923bd28be247dcdf2e154655813e956eea78460b0839fbcc65dc1a83ea9838e"),
            (lambda: adversarial_spec(400), [10, 1],
             "9fd8ff94ed6eae1abd30a5613b5de7c515afacbff150ce5a20198ec94e746e06",
             "43c9ba16857e9bd98a3288b02112710205e9591e501104377c525b16dc551eee"),
            (lambda: adversarial_spec(2500, seed=3), [8, 0],
             "c0f40b3871eb774d915107da5dc9300f16ba60e3c643fa0b11c5c0f41759d8fd",
             "c2a3142692c9675089d371814a8c17224600c6d87db85043f17079df19046757"),
        ],
        ids=["uniform", "weighted", "epsilon-zero", "adversarial-400", "adversarial-2500-seed-3"],
    )
    def test_digests(self, tmp_path, build, counts, spec_digest, corpus_digest):
        spec = build()
        assert _sha256(spec.to_json().encode()) == spec_digest
        serialize_corpus(sample_corpus(spec, counts), tmp_path / "corpus.jsonl")
        assert _sha256((tmp_path / "corpus.jsonl").read_bytes()) == corpus_digest


class TestSamplingTables:
    def test_spec_keeps_no_tables(self):
        """After sample_corpus returns, the spec holds less than one course's tables: letting the
        spec go frees less than that of what sampling allocated."""
        spec = make_spec(n=20_000, num_courses=6, epsilon=0.3, p=0.5, s=20)
        tracemalloc.start()
        try:
            sample_corpus(spec, [3] * spec.num_courses)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del spec
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        table, guide = genmodel._tables(np.full(20_000, 1 / 20_000))
        assert freed < table.nbytes + guide.nbytes

    def test_replace_builds_fresh_tables(self):
        spec = make_spec(n=200, num_courses=1, epsilon=0.3, p=0.5, s=20)
        sample_tokens(spec, 0, False, 10, _rng(0))
        replaced = dataclasses.replace(spec, epsilon=0.0)
        fresh = make_spec(n=200, num_courses=1, epsilon=0.0, p=0.5, s=20)
        got = sample_tokens(replaced, 0, False, 500, _rng(1))
        assert got.tolist() == sample_tokens(fresh, 0, False, 500, _rng(1)).tolist()
        assert got.tolist() != sample_tokens(spec, 0, False, 500, _rng(1)).tolist()

    def test_smalltalk_draws_do_not_depend_on_the_course(self):
        spec = make_spec(n=200, num_courses=3, epsilon=0.3, p=0.5, s=20)
        draws = [sample_tokens(spec, course, True, 300, _rng(2)).tolist() for course in range(3)]
        assert draws[0] == draws[1] == draws[2]

    @pytest.mark.parametrize("course", [-1, 2])
    def test_course_out_of_range(self, course):
        spec = make_spec(n=200, num_courses=2, epsilon=0.3, p=0.5, s=20)
        with pytest.raises(IndexError, match="out of range"):
            next(sample_threads(spec, course, 1, _rng(0)))

    @pytest.mark.parametrize("smalltalk", [False, True])
    @pytest.mark.parametrize("course", [-1, 2])
    def test_tokens_course_out_of_range(self, course, smalltalk):
        spec = make_spec(n=200, num_courses=2, epsilon=0.3, p=0.5, s=20)
        with pytest.raises(IndexError, match=f"course {course} out of range"):
            sample_tokens(spec, course, smalltalk, 5, _rng(0))


def _searched(mass, u):
    """The word np.searchsorted picks in the CDF of ``mass``, clipped to the last word."""
    return np.minimum(np.searchsorted(np.cumsum(mass), u, side="right"), len(mass) - 1)


def _crowded_mass():
    # 30 masses of 1e-9 and 30 zeros after a mass of 0.3: the 61 CDF entries from 0.3 to 0.3 + 3e-8 share
    # one guide cell of 128
    mass = np.zeros(64)
    mass[0] = 0.3
    mass[1:61:2] = 1e-9
    mass[61:] = (1.0 - mass.sum()) / 3
    return mass


class TestGuideTable:
    """``_draw`` through a guide table equals a binary search of the CDF, clipped to the last word."""

    @pytest.mark.parametrize(
        "mass",
        [_crowded_mass(), np.array([0.0, 0.0, 0.5, 0.0, 0.5, 0.0]), np.array([1e-300, 1e-300, 1.0]),
         np.array([1.0]), np.full(7, 1 / 7), np.array([0.25, 0.25, 0.25, 0.25 - 1e-6]),
         np.array([0.5, 0.5 - 1e-6, 0.0])],
        ids=["crowded-cell", "zero-masses", "subnormal-cdf", "one-word", "sevenths", "total-below-one",
             "total-below-one-last-zero"],
    )
    def test_edges_equal_the_search(self, mass):
        table, guide = genmodel._tables(mass)
        assert guide.size >= 2 * mass.size and guide.size & (guide.size - 1) == 0
        assert guide.tolist() == np.searchsorted(table, np.arange(guide.size) / guide.size, side="right").tolist()
        cdf = np.cumsum(mass)
        edges = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                                [np.nextafter(1.0, 0.0)], _rng(0).random(2000)])
        u = edges[(edges >= 0.0) & (edges < 1.0)]
        assert (genmodel._draw((table, guide), u) == _searched(mass, u)).all()

    def test_crowded_cell_walks_past_the_step_cap(self):
        mass = _crowded_mass()
        cdf = np.cumsum(mass)
        u = np.nextafter(cdf[1:61], 1.0)
        table, guide = genmodel._tables(mass)
        start = guide[(u * guide.size).astype(np.intp)]
        assert (_searched(mass, u) - start).max() > genmodel._WALK_STEPS
        assert (genmodel._draw((table, guide), u) == _searched(mass, u)).all()

    def test_above_the_total_draws_the_last_word(self):
        mass = np.array([0.25, 0.25, 0.25, 0.25 - 1e-6])
        u = np.array([np.nextafter(np.cumsum(mass)[-1], 1.0), 1.0 - 1e-7, np.nextafter(1.0, 0.0)])
        assert np.searchsorted(np.cumsum(mass), u, side="right").tolist() == [4, 4, 4]
        assert genmodel._draw(genmodel._tables(mass), u).tolist() == [3, 3, 3]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=1, max_size=40).filter(any),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=50))
    def test_random_masses_equal_the_search(self, weights, u):
        mass = np.array(weights) / sum(weights)
        u = np.concatenate([u, np.nextafter(np.cumsum(mass), 0.0), np.cumsum(mass)])
        u = u[u < 1.0]
        table, guide = genmodel._tables(mass)
        assert (guide == np.searchsorted(table, np.arange(guide.size) / guide.size, side="right")).all()
        assert (genmodel._draw((table, guide), u) == _searched(mass, u)).all()

    def test_spec_tables_equal_the_search(self):
        spec = make_spec(n=5000, num_courses=2, epsilon=0.3, p=0.5, s=100, seed=3)
        u = _rng(4).random(200_000)
        vocab = np.array(spec.background.vocab, dtype=object)
        for course, smalltalk in ((0, False), (1, False), (0, True)):
            want = vocab[_searched(token_distribution(spec, course, smalltalk), u)]
            assert (sample_tokens(spec, course, smalltalk, u.size, _rng(4)) == want).all()

    def test_a_thread_at_a_time_reads_the_block_stream(self):
        spec = make_spec(n=200, num_courses=1, epsilon=0.3, p=0.4, s=30, seed=2)
        rng = _rng(5)
        one_by_one = [next(sample_threads(spec, 0, 1, rng)) for _ in range(50)]
        blocks = list(sample_threads(spec, 0, 50, _rng(5)))
        assert one_by_one == blocks


class TestSampling:
    def test_epsilon_zero_matches_background(self):
        spec = make_spec(n=200, num_courses=1, epsilon=0.0, p=0.5, s=50, seed=2)
        rng = _rng(0)
        counts = Counter()
        labels = set()
        for smalltalk, tokens in sample_threads(spec, 0, 600, rng):
            labels.add(smalltalk)
            counts.update(tokens)
        assert labels == {True, False}
        obs = np.array([counts.get(w, 0) for w in spec.background.vocab])
        expected = spec.background.mass * obs.sum()
        assert chisquare(obs, expected).pvalue >= 0.001

    def test_p_one_forces_smalltalk(self):
        spec = make_spec(n=200, num_courses=1, epsilon=0.3, p=1.0, s=20, seed=2)
        rng = _rng(1)
        assert all(smalltalk for smalltalk, _ in sample_threads(spec, 0, 100, rng))

    def test_smalltalk_support_frequency(self):
        # Supp(T0) hit rate within small-talk threads vs the analytic mixture
        spec = make_spec(n=1000, num_courses=1, epsilon=0.3, p=0.5, s=200, seed=5)
        support = spec.smalltalk_topic.support
        bg_mass = sum(spec.background.prob(w) for w in support)
        q = spec.epsilon + (1 - spec.epsilon) * bg_mass
        rng = _rng(3)
        hits = total = 0
        for smalltalk, tokens in sample_threads(spec, 0, 10_000, rng):
            if not smalltalk:
                continue
            hits += sum(1 for tok in tokens if tok in support)
            total += len(tokens)
        sigma = math.sqrt(q * (1 - q) / total)
        assert abs(hits / total - q) <= 3 * sigma

    def test_marginal_distribution_chi_square(self):
        spec = make_spec(n=500, num_courses=2, epsilon=0.3, p=0.35, s=100, seed=3)
        rng = _rng(4)
        counts = Counter()
        for _, tokens in sample_threads(spec, 0, 1200, rng):
            counts.update(tokens)
        total = sum(counts.values())
        assert total >= 100_000
        obs = np.array([counts.get(w, 0) for w in spec.background.vocab])
        assert chisquare(obs, marginal_token_mass(spec, 0) * total).pvalue >= 0.001


class TestSampleCorpus:
    def test_zero_count_gives_empty_course(self):
        spec = make_spec(n=200, num_courses=1, epsilon=0.3, p=0.5, s=20)
        corpus = sample_corpus(spec, [0])
        assert corpus.num_courses == 1 and corpus.num_threads == 0

    def test_no_words_samples_no_thread(self):
        empty = UnigramModel((), [])
        spec = GenerativeSpec(n=0, epsilon=0.3, background=empty, smalltalk_topic=empty, course_topics=(empty,),
                              p=(0.5,), s=3)
        assert sample_corpus(spec, [0]).num_threads == 0
        with pytest.raises(InvariantViolation, match="no words cannot sample a thread"):
            sample_corpus(spec, [2])

    @pytest.mark.parametrize(
        "spec, counts, per_day",
        [
            (make_spec(n=200, num_courses=2, epsilon=0.3, p=0.5, s=20, seed=5), [30, 17], 24),
            (adversarial_spec(100, seed=3), [12, 3], 24),
            (make_spec(n=200, num_courses=3, epsilon=0.3, p=0.5, s=20, seed=6), [0, 9, 0], 24),
            (make_spec(n=200, num_courses=2, epsilon=0.3, p=0.5, s=20, seed=7), [40, 15], 7),
            (make_spec(n=200, num_courses=3, epsilon=0.3, p=(0.0, 1.0, 0.5), s=20, seed=8), [30, 30, 30], 24),
            (make_spec(n=200, num_courses=3, epsilon=0.3, p=0.5, s=20, seed=9, s_per_course=(3, 41, 20)),
             [50, 20, 0], 24),
            (make_spec(n=200, num_courses=1, epsilon=0.3, p=0.5, s=20, seed=10), [2 * (genmodel._BLOCK_DRAWS // 21) + 5], 24),
            (make_spec(n=200, num_courses=2, epsilon=0.3, p=0.5, s=20, seed=11, s_per_course=(2 * genmodel._BLOCK_DRAWS + 7, 5)),
             [3, 4], 24),
        ],
        ids=["uniform", "adversarial", "zero-counts", "per-day-not-dividing-a-day", "p-zero-and-one",
             "per-course-lengths", "count-not-a-block-multiple", "threads-longer-than-a-block"],
    )
    def test_matches_thread_oracle(self, tmp_path, spec, counts, per_day):
        """The columns hold what checked Post and Thread objects would, and write the same bytes."""
        got = sample_corpus(spec, counts, threads_per_day=per_day)
        want = oracle.sample_corpus(spec, counts, threads_per_day=per_day)
        assert got == want
        assert [c.threads for c in got.courses] == [c.threads for c in want.courses]
        serialize_corpus(got, tmp_path / "got.jsonl")
        oracle.serialize_corpus(want, tmp_path / "want.jsonl")
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    @pytest.mark.parametrize("per_day", [0, -1])
    def test_threads_per_day_must_be_positive(self, per_day):
        spec = make_spec(n=200, num_courses=1, epsilon=0.3, p=0.5, s=20)
        with pytest.raises(InvariantViolation, match="threads_per_day must be positive"):
            sample_corpus(spec, [3], threads_per_day=per_day)

    def test_determinism(self):
        spec = make_spec(n=200, num_courses=2, epsilon=0.3, p=0.5, s=20, seed=99)
        assert sample_corpus(spec, [25, 25]) == sample_corpus(spec, [25, 25])

    def test_seed_changes_output(self):
        spec = make_spec(n=200, num_courses=1, epsilon=0.3, p=0.5, s=20, seed=99)
        other = dataclasses.replace(spec, seed=100)
        assert sample_corpus(spec, [25]) != sample_corpus(other, [25])

    def test_smalltalk_count_expectation(self):
        # tiny p: over many replications the mean count of small-talk
        # threads in b = ceil(1/p) draws is b*p (binomial expectation)
        p = 0.05
        b = math.ceil(1 / p)
        spec = make_spec(n=300, num_courses=1, epsilon=0.3, p=p, s=20, seed=0)
        total = 0
        reps = 1000
        for r in range(reps):
            corpus = sample_corpus(dataclasses.replace(spec, seed=r), [b])
            total += sum(
                1 for t in corpus.courses[0].threads if t.label.value == "SmallTalk"
            )
        mean = total / reps
        sd = math.sqrt(b * p * (1 - p) / reps)
        assert abs(mean - b * p) <= 3 * sd


class TestAdversarialSpec:
    def test_formula_instantiation(self):
        spec = adversarial_spec(10_000)
        assert spec.s_per_course[0] == 100
        b1 = spec.training_counts[0]
        assert b1 == math.ceil(math.sqrt(10_000) / (4.0 * math.log10(10_000)))
        assert b1 == 7
        # expected small-talk training threads is ~1 by construction
        assert 1.0 <= b1 * spec.p[0] < 1.0 + spec.p[0]

    def test_constructor_contract(self):
        spec = adversarial_spec(2500)
        lo, hi = spec.ratio_bounds
        assert 1.0 < lo < hi
        assert spec.p[1] > 0.99
        assert spec.s_per_course[1] == 2500**2

    def test_too_small_vocabulary(self):
        with pytest.raises(InvariantViolation):
            adversarial_spec(50)

    def test_expected_positive_training_threads(self):
        spec = adversarial_spec(2500, seed=5)
        b1, p1 = spec.training_counts[0], spec.p[0]
        rng = _rng(6)
        total = 0
        reps = 1000
        for _ in range(reps):
            total += sum(rng.random() < p1 for _ in range(b1))
        sd = math.sqrt(b1 * p1 * (1 - p1) / reps)
        assert abs(total / reps - b1 * p1) <= 3 * sd


class TestSizeLimits:
    """Specs and samples too large to build are refused before anything is allocated."""

    @pytest.mark.parametrize(
        "field, value",
        [("c", True), ("c", math.nan), ("c", math.inf), ("c", 10**400), ("d", False), ("d", math.nan),
         ("d", -math.inf), ("d", 2**64), ("d", -1e308), ("d", 1e308), ("d", 10**400), ("d", 200.0)],
    )
    def test_adversarial_c_and_d(self, field, value):
        with pytest.raises(InvariantViolation, match="finite number|overflows"):
            adversarial_spec(400, **{field: value})

    @pytest.mark.parametrize("n", [MAX_VOCABULARY + 1, 2**64])
    def test_vocabulary_limit(self, n):
        with pytest.raises(InvariantViolation, match="n must be at most"):
            make_spec(n=n, num_courses=2, epsilon=0.3, p=0.5, s=10)
        with pytest.raises(InvariantViolation, match="n <="):
            adversarial_spec(n)

    @pytest.mark.parametrize("num_courses", [True, False])
    def test_num_courses_not_a_bool(self, num_courses):
        with pytest.raises(InvariantViolation, match="not a bool"):
            make_spec(n=200, num_courses=num_courses, epsilon=0.3, p=0.5, s=10)

    def test_sample_size_limit_is_inclusive(self, monkeypatch):
        spec = make_spec(n=200, num_courses=2, epsilon=0.3, p=0.5, s=10)
        size = 3 * 200 + 10 * (5 + 4)  # table cells of two courses and small talk, then tokens
        monkeypatch.setattr(genmodel, "MAX_SAMPLE_SIZE", size)
        assert sample_corpus(spec, [5, 4]).num_threads == 9
        monkeypatch.setattr(genmodel, "MAX_SAMPLE_SIZE", size - 1)
        with pytest.raises(InvariantViolation, match="more than the"):
            sample_corpus(spec, [5, 4])

    @pytest.mark.parametrize(
        "spec, counts",
        [(make_spec(n=200, num_courses=2, epsilon=0.3, p=0.5, s=MAX_SAMPLE_SIZE // 10), [10, 0]),
         (make_spec(n=200, num_courses=1, epsilon=0.3, p=0.5, s=1), [MAX_SAMPLE_SIZE]),
         (make_spec(n=200, num_courses=1, epsilon=0.3, p=0.5, s=1), [2**64]),
         (adversarial_spec(400, d=3), [1, 1]),  # s2 = 400**3 = 6.4e7 tokens
         (make_spec(n=MAX_VOCABULARY, num_courses=MAX_SAMPLE_SIZE // MAX_VOCABULARY, epsilon=0.3, p=0.5, s=1,
                    support_size=0), [0] * (MAX_SAMPLE_SIZE // MAX_VOCABULARY))],  # tables past the cap
        ids=["long-threads", "many-threads", "count-beyond-int64", "adversarial-d-3", "wide-tables"],
    )
    def test_sample_size_limit(self, spec, counts):
        with pytest.raises(InvariantViolation, match="more than the"):
            sample_corpus(spec, counts)


class TestSeparatingPlane:
    def test_empty_smalltalk_support_never_fires(self):
        spec = make_spec(n=200, num_courses=1, epsilon=0.3, p=0.5, s=30,
                         smalltalk_support_size=0)
        weights, tau = separating_plane(spec)
        assert weights == {} and tau > 0
        plane = SvmModel(weights, 0.0, tau)
        rng = _rng(7)
        assert all(plane.score(tokens) <= tau for _, tokens in sample_threads(spec, 0, 200, rng))

    def test_low_error_when_s_eps_large(self):
        # s * eps = 20 ln n concentrates scores on both sides of tau
        n, s = 2000, 400
        eps = 20 * math.log(n) / s
        spec = make_spec(n=n, num_courses=1, epsilon=eps, p=0.5, s=s, seed=9)
        weights, tau = separating_plane(spec)
        plane = SvmModel(weights, 0.0, tau)
        rng = _rng(10)
        errors = 0
        for smalltalk, tokens in sample_threads(spec, 0, 10_000, rng):
            if (plane.score(tokens) > tau) != smalltalk:
                errors += 1
        assert errors / 10_000 <= 0.01

    def test_smalltalk_score_mean(self):
        n, s, eps = 2000, 400, 0.15
        spec = make_spec(n=n, num_courses=1, epsilon=eps, p=1.0, s=s, seed=9)
        weights, tau = separating_plane(spec)
        plane = SvmModel(weights, 0.0, tau)
        bg_mass = sum(spec.background.prob(w) for w in spec.smalltalk_topic.vocab)
        c0 = bg_mass * (1 - eps) / eps
        expected = s * (1 + c0) * eps
        q = eps + (1 - eps) * bg_mass
        rng = _rng(11)
        scores = [plane.score(tokens) for _, tokens in sample_threads(spec, 0, 10_000, rng)]
        sd_mean = math.sqrt(s * q * (1 - q) / len(scores))
        assert abs(np.mean(scores) - expected) <= 3 * sd_mean

    def test_background_mass_adds_left_to_right(self):
        # 50 support words at background probability 0.005: left to right they add to
        # 0.2500000000000001, while a compensated sum (sum() from Python 3.12) gives 0.25
        spec = make_spec(n=200, num_courses=1, epsilon=0.3, p=0.5, s=30)
        probs = [spec.background.prob(w) for w in spec.smalltalk_topic.vocab]
        left_to_right = 0.0
        for prob in probs:
            left_to_right += prob
        assert left_to_right != math.fsum(probs)
        _, tau = separating_plane(spec)
        assert tau == spec.s * (0.5 * spec.epsilon + (1.0 - spec.epsilon) * left_to_right)
        assert tau != spec.s * (0.5 * spec.epsilon + (1.0 - spec.epsilon) * math.fsum(probs))

    def test_smalltalk_scores_dominate(self):
        spec = make_spec(n=500, num_courses=1, epsilon=0.3, p=0.5, s=60, seed=12)
        weights, _ = separating_plane(spec)
        plane = SvmModel(weights)
        rng = _rng(13)
        pos, neg = [], []
        for smalltalk, tokens in sample_threads(spec, 0, 10_000, rng):  # until each side has 400
            (pos if smalltalk else neg).append(plane.score(tokens))
            if min(len(pos), len(neg)) >= 400:
                break
        deciles = np.linspace(0.1, 0.9, 9)
        assert (np.quantile(pos, deciles) >= np.quantile(neg, deciles)).all()


class TestTokenDistribution:
    def test_mass_vectors_sum_to_one(self):
        spec = make_spec(n=300, num_courses=2, epsilon=0.2, p=0.5, s=10)
        for course in range(2):
            for small in (True, False):
                assert token_distribution(spec, course, small).sum() == pytest.approx(1.0)
            assert marginal_token_mass(spec, course).sum() == pytest.approx(1.0)

    def test_batched_matches_thread_sampling_distribution(self):
        spec = make_spec(n=300, num_courses=1, epsilon=0.4, p=0.5, s=50, seed=1)
        rng = _rng(14)
        tokens = sample_tokens(spec, 0, True, 60_000, rng)
        counts = Counter(tokens.tolist())
        obs = np.array([counts.get(w, 0) for w in spec.background.vocab])
        exp = token_distribution(spec, 0, True) * 60_000
        assert chisquare(obs, exp).pvalue >= 0.001
