"""Generative model of discussion threads.

A thread in course ``i`` is small-talk with probability ``p[i]``; its tokens
are then drawn i.i.d. from ``D0 = (1-eps)*B + eps*T0``, otherwise from
``D1(i) = (1-eps)*B + eps*T[i]``, where B is a near-uniform background
distribution and the topic supports are pairwise disjoint.

Randomness comes from numpy's PCG64 generator.  Corpus generation derives a
per-course stream as ``PCG64(seed ^ course_index)``, so corpora are
bit-reproducible across platforms and courses can be sampled in parallel.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .corpus import (
    Corpus,
    Course,
    SECONDS_PER_DAY,
    ThreadLabel,
    UnigramModel,
    _ColumnBuilder,
    sequential_sum,
)
from .errors import InvariantViolation

# The largest vocabulary make_spec and adversarial_spec carve: 20 times the
# 5,000 words of the labeled-text benchmark.
MAX_VOCABULARY = 100_000
# The most one sample_corpus call may draw and build: its tokens (the sum of
# thread length times thread count over the courses) plus the cells of the
# spec's sampling tables ((courses + 1) x n).  The labeled-text benchmark
# samples 500,000 tokens.  One thread of 10**6 tokens peaked at 24 MB under
# tracemalloc, so the cap holds a call to about a quarter of a gigabyte.
MAX_SAMPLE_SIZE = 10_000_000


def _spec_int(name: str, value, least: int) -> int:
    """``value`` as an int; it must be an integer >= ``least``, and not a bool."""
    try:
        i = None if type(value) is bool else operator.index(value)
    except TypeError:  # not an integer
        i = None
    if i is None or i < least:
        raise InvariantViolation("spec", f"{name} must hold integers >= {least}, got {value!r}")
    return i


def _spec_float(name: str, value) -> float:
    """``value`` as a float; it must be a real number that a float holds, not NaN and not a bool."""
    try:
        f = None if type(value) is bool or not isinstance(value, numbers.Real) else float(value)
    except OverflowError:  # an integer past the float range
        f = None
    if f is None or math.isnan(f):
        raise InvariantViolation("spec", f"{name} must hold numbers, got {value!r}")
    return f


@dataclass(frozen=True, eq=False)
class GenerativeSpec:
    """Parameters of the thread sampler.

    ``ratio_bounds=(l, u)`` stores the constants bounding
    ``Pr_D1(i)(w) / Pr_B(w)`` for every topical word w (computed with slack at
    construction when not given).  ``uniformity_bound`` caps the max/min
    background mass ratio.  ``s_per_course`` optionally overrides the shared
    thread length ``s``; ``training_counts`` records per-course training sample
    sizes for stress experiments.

    ``sample_tokens`` draws from tables that the spec builds on its first draw;
    ``dataclasses.replace`` makes a new spec, which builds its own.
    """

    n: int
    epsilon: float
    background: UnigramModel
    smalltalk_topic: UnigramModel
    course_topics: tuple[UnigramModel, ...]
    p: tuple[float, ...]
    s: int
    seed: int = 0
    s_per_course: tuple[int, ...] | None = None
    training_counts: tuple[int, ...] | None = None
    ratio_bounds: tuple[float, float] | None = None
    uniformity_bound: float = 8.0

    def __post_init__(self):
        # each real field is stored as a float, so that to_json writes it as one
        object.__setattr__(self, "epsilon", _spec_float("epsilon", self.epsilon))
        object.__setattr__(self, "uniformity_bound", _spec_float("uniformity_bound", self.uniformity_bound))
        for name in ("p", "ratio_bounds"):
            values = getattr(self, name)
            if values is not None:
                object.__setattr__(self, name, tuple(_spec_float(name, v) for v in values))
        if not 0.0 <= self.epsilon < 1.0:
            raise InvariantViolation("spec", "epsilon must be in [0, 1)")
        if self.n != len(self.background.vocab):
            raise InvariantViolation("spec", "n must equal the background vocabulary size")
        if len(self.p) != len(self.course_topics):
            raise InvariantViolation("spec", "p and course_topics lengths differ")
        if any(not 0.0 <= pi <= 1.0 for pi in self.p):
            raise InvariantViolation("spec", "every p_i must be in [0, 1]")
        if self.s_per_course is not None and len(self.s_per_course) != len(self.p):
            raise InvariantViolation("spec", "s_per_course length differs from course count")
        # each integer field is stored as an int, so that to_json writes it and numpy samples with it
        for name, least in (("n", 0), ("s", 1), ("seed", 0)):
            object.__setattr__(self, name, _spec_int(name, getattr(self, name), least))
        for name, least in (("s_per_course", 1), ("training_counts", 0)):
            values = getattr(self, name)
            if values is not None:
                object.__setattr__(self, name, tuple(_spec_int(name, v, least) for v in values))

        bg_support = self.background.support
        supports = [self.smalltalk_topic.support] + [t.support for t in self.course_topics]
        taken: set[str] = set()
        for sup in supports:
            if sup & taken:
                raise InvariantViolation("spec", "topic supports must be pairwise disjoint")
            taken |= sup
            if not sup <= bg_support:
                raise InvariantViolation("spec", "topic supports must lie inside the vocabulary")

        if self.background.vocab:
            ratio = float(self.background.mass.max() / self.background.mass.min())
            if ratio > self.uniformity_bound + 1e-12:
                raise InvariantViolation(
                    "spec", f"background max/min mass ratio {ratio:.3f} exceeds bound"
                )

        if self.epsilon > 0.0:
            ratios = np.concatenate([np.zeros(0)] + [  # zeros(0): a spec may have no course
                (1.0 - self.epsilon) + self.epsilon * t.mass / self.background.mass[_positions(self, t)]
                for t in self.course_topics
            ])
            if ratios.size:
                lo, hi = float(ratios.min()), float(ratios.max())
                if lo <= 1.0:
                    raise InvariantViolation("spec", "topical words must be boosted above background")
                if self.ratio_bounds is None:
                    object.__setattr__(self, "ratio_bounds", (0.5 * (1.0 + lo), 2.0 * hi))
                else:
                    l, u = self.ratio_bounds
                    if not (1.0 < l < u):
                        raise InvariantViolation("spec", "ratio bounds need 1 < l < u")
                    if lo < l - 1e-12 or hi > u + 1e-12:
                        raise InvariantViolation("spec", "topical mass ratios violate bounds")

    @property
    def num_courses(self) -> int:
        return len(self.p)

    @cached_property
    def _sampling(self) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """The vocabulary as an object array, the CDF of D0 and the CDF of each D1(i)."""
        d1_cdfs = tuple(np.cumsum(token_distribution(self, i, False)) for i in range(self.num_courses))
        vocab = np.asarray(self.background.vocab, dtype=object)
        return vocab, np.cumsum(token_distribution(self, None, True)), d1_cdfs

    def thread_length(self, course: int) -> int:
        if self.s_per_course is not None:
            return self.s_per_course[course]
        return self.s

    def to_json(self) -> str:
        def model(m: UnigramModel):
            return {"vocab": list(m.vocab), "mass": [float(x) for x in m.mass]}

        obj = {
            "n": self.n,
            "epsilon": self.epsilon,
            "background": model(self.background),
            "smalltalk_topic": model(self.smalltalk_topic),
            "course_topics": [model(t) for t in self.course_topics],
            "p": list(self.p),
            "s": self.s,
            "seed": self.seed,
            "s_per_course": list(self.s_per_course) if self.s_per_course else None,
            "training_counts": list(self.training_counts) if self.training_counts else None,
            "ratio_bounds": list(self.ratio_bounds) if self.ratio_bounds else None,
            "uniformity_bound": self.uniformity_bound,
        }
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GenerativeSpec":
        obj = json.loads(text)

        def model(d):
            return UnigramModel(tuple(d["vocab"]), np.asarray(d["mass"], dtype=float))

        return cls(
            n=obj["n"],
            epsilon=obj["epsilon"],
            background=model(obj["background"]),
            smalltalk_topic=model(obj["smalltalk_topic"]),
            course_topics=tuple(model(t) for t in obj["course_topics"]),
            p=tuple(obj["p"]),
            s=obj["s"],
            seed=obj.get("seed", 0),
            s_per_course=tuple(obj["s_per_course"]) if obj.get("s_per_course") else None,
            training_counts=tuple(obj["training_counts"]) if obj.get("training_counts") else None,
            ratio_bounds=tuple(obj["ratio_bounds"]) if obj.get("ratio_bounds") else None,
            uniformity_bound=obj.get("uniformity_bound", 8.0),
        )


@dataclass(frozen=True)
class SampledThread:
    is_smalltalk: bool
    tokens: tuple[str, ...]


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def _vocab_words(n: int) -> list[str]:
    width = len(str(max(n - 1, 1)))
    return [f"w{i:0{width}d}" for i in range(n)]


def _topic_from_block(words: Sequence[str], weights: Sequence[float] | None) -> UnigramModel:
    if weights is None:
        return UnigramModel.uniform(words)
    w = np.asarray(weights, dtype=float)
    if w.size != len(words) or np.any(w <= 0):
        raise InvariantViolation("spec", "topic weights must be positive and match support size")
    return UnigramModel(tuple(words), w / w.sum())  # _vocab_words come sorted


def _carved(
    n: int, sizes: Sequence[int], topic_weights: Sequence[float] | None = None
) -> tuple[UnigramModel, UnigramModel, tuple[UnigramModel, ...]]:
    """The uniform background over ``n`` words, the small-talk topic and the course topics.

    Topic k is the next ``sizes[k]`` words of the vocabulary, the small-talk
    topic (``sizes[0]``) first; ``topic_weights`` weights every course topic.
    """
    if min(sizes) < 0 or sum(sizes) > n:
        raise InvariantViolation("spec", f"topic sizes {list(sizes)} must be nonnegative and fit {n} words")
    words = _vocab_words(n)
    blocks = [words[end - size : end] for size, end in zip(sizes, np.cumsum(sizes).tolist())]
    topics = tuple(_topic_from_block(block, topic_weights) for block in blocks[1:])
    return UnigramModel.uniform(words), _topic_from_block(blocks[0], None), topics


def make_spec(
    n: int,
    num_courses: int,
    epsilon: float,
    p: float | Sequence[float],
    s: int,
    support_size: int = 50,
    smalltalk_support_size: int | None = None,
    topic_weights: Sequence[float] | None = None,
    seed: int = 0,
    s_per_course: Sequence[int] | None = None,
    training_counts: Sequence[int] | None = None,
) -> GenerativeSpec:
    """Build a spec with a uniform background and block-disjoint topic supports.

    Topic supports of ``support_size`` words are carved consecutively from the
    vocabulary, the small-talk topic first.  ``topic_weights`` (length
    ``support_size``) makes the per-course topics non-uniform.
    """
    if n > MAX_VOCABULARY:  # before anything compares with n or carves its words
        raise InvariantViolation("spec", f"n must be at most {MAX_VOCABULARY}, got {n}")
    # at most one course per word, so that a spec's size is bounded by its vocabulary's
    if type(num_courses) is bool or not 0 <= num_courses <= n:
        raise InvariantViolation("spec", f"num_courses must be nonnegative and at most n, and not a bool, "
                                         f"got {num_courses!r}")
    s0 = support_size if smalltalk_support_size is None else smalltalk_support_size
    background, smalltalk, topics = _carved(n, [s0] + [support_size] * num_courses, topic_weights)
    p_list = (p,) * num_courses if isinstance(p, numbers.Real) else tuple(p)
    return GenerativeSpec(
        n=n,
        epsilon=epsilon,
        background=background,
        smalltalk_topic=smalltalk,
        course_topics=topics,
        p=p_list,
        s=s,
        seed=seed,
        s_per_course=tuple(s_per_course) if s_per_course is not None else None,
        training_counts=tuple(training_counts) if training_counts is not None else None,
    )


def adversarial_spec(
    n: int,
    c: float = 4.0,
    d: float = 2.0,
    epsilon: float = 0.5,
    smalltalk_support_size: int = 50,
    seed: int = 0,
) -> GenerativeSpec:
    """Two-course construction that starves per-course training of positives.

    Course 1: thread length s1 = sqrt(n), small-talk probability
    p1 = c*log10(n)/sqrt(n), training count b1 = ceil(1/p1) (so the expected
    number of small-talk training threads is ~1).  Course 2: s2 = n**d,
    p2 = 1 - n**(-d).  Course-topic supports split the non-small-talk
    vocabulary evenly, which keeps any small training sample's coverage of
    them sparse.
    """
    if not 100 <= n <= MAX_VOCABULARY:
        raise InvariantViolation("spec", f"adversarial construction needs 100 <= n <= {MAX_VOCABULARY}")
    for name, value in (("c", c), ("d", d)):
        try:
            finite = type(value) is not bool and math.isfinite(value)
        except OverflowError:  # an integer past the float range
            finite = False
        if not finite:
            raise InvariantViolation("spec", f"{name} must be a finite number, got {value!r}")
    try:
        float(n) ** abs(float(d))  # n >= 100, so this bounds both n**d and n**(-d)
    except OverflowError:
        raise InvariantViolation("spec", f"n**d overflows a float at d = {d!r}") from None
    sqrt_n = math.sqrt(n)
    s1 = round(sqrt_n)
    p1 = c * math.log10(n) / sqrt_n
    if not 0.0 < p1 < 1.0:
        raise InvariantViolation("spec", f"p1 = {p1:.4f} outside (0, 1); adjust c")
    b1 = math.ceil(1.0 / p1)
    s2 = round(n**d)
    p2 = 1.0 - n ** (-d)

    rest = n - smalltalk_support_size
    background, smalltalk, topics = _carved(n, [smalltalk_support_size, rest // 2, rest - rest // 2])
    return GenerativeSpec(
        n=n,
        epsilon=epsilon,
        background=background,
        smalltalk_topic=smalltalk,
        course_topics=topics,
        p=(p1, p2),
        s=s1,
        seed=seed,
        s_per_course=(s1, s2),
        training_counts=(b1, b1),
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def token_distribution(spec: GenerativeSpec, course: int | None, smalltalk: bool) -> np.ndarray:
    """Mass vector of D0 (smalltalk) or D1(course) over the background vocabulary.

    With an empty topic support (or epsilon = 0) the mixture degenerates to
    the background distribution.
    """
    topic = spec.smalltalk_topic if smalltalk else spec.course_topics[course]
    if len(topic.vocab) == 0 or spec.epsilon == 0.0:
        return spec.background.mass.copy()
    mass = (1.0 - spec.epsilon) * spec.background.mass
    mass[_positions(spec, topic)] += spec.epsilon * topic.mass
    return mass


def _positions(spec: GenerativeSpec, topic: UnigramModel) -> np.ndarray:
    return np.array([spec.background._index[w] for w in topic.vocab], dtype=np.intp)


def marginal_token_mass(spec: GenerativeSpec, course: int) -> np.ndarray:
    """Marginal token distribution (1-p_i)*D1(i) + p_i*D0."""
    pi = spec.p[course]
    return pi * token_distribution(spec, course, True) + (1.0 - pi) * token_distribution(
        spec, course, False
    )


def sample_tokens(spec: GenerativeSpec, course: int, smalltalk: bool, size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` i.i.d. tokens from D0 or D1(course), by inverse CDF.

    The package's one sampler: it reads the spec's tables, built once per spec.
    """
    if not 0 <= course < spec.num_courses:
        raise IndexError(f"course {course} out of range")
    vocab, d0_cdf, d1_cdfs = spec._sampling
    idx = np.searchsorted(d0_cdf if smalltalk else d1_cdfs[course], rng.random(size), side="right")
    return vocab[np.minimum(idx, spec.n - 1)]


def sample_thread(spec: GenerativeSpec, course: int, rng: np.random.Generator) -> SampledThread:
    """Sample one thread: flip the p_i coin, then draw s i.i.d. tokens."""
    is_smalltalk = bool(rng.random() < spec.p[course])
    tokens = sample_tokens(spec, course, is_smalltalk, spec.thread_length(course), rng)
    return SampledThread(is_smalltalk, tuple(tokens.tolist()))


def course_rng(spec: GenerativeSpec, course: int) -> np.random.Generator:
    """Per-course stream: PCG64 seeded with seed XOR course index."""
    return np.random.Generator(np.random.PCG64(spec.seed ^ course))


def sample_corpus(
    spec: GenerativeSpec,
    threads_per_course: Sequence[int],
    threads_per_day: int = 24,
) -> Corpus:
    """Sample a labeled synthetic corpus; reproducible given spec.seed.

    Threads within a course are spread ``threads_per_day`` per day starting at
    timestamp 0, one single-author post per thread, straight into its columns.
    A sample larger than ``MAX_SAMPLE_SIZE`` is refused before the first draw.
    """
    if any(cnt < 0 for cnt in threads_per_course):
        raise InvariantViolation("spec", "thread counts must be nonnegative")
    if len(threads_per_course) != spec.num_courses:
        raise InvariantViolation("spec", "one thread count per course required")
    if threads_per_day < 1:
        raise InvariantViolation("spec", "threads_per_day must be positive")
    size = (spec.num_courses + 1) * spec.n + sum(spec.thread_length(i) * operator.index(cnt)
                                                  for i, cnt in enumerate(threads_per_course))
    if size > MAX_SAMPLE_SIZE:
        raise InvariantViolation("spec", f"the sample needs {size} tokens and table cells, "
                                         f"more than the {MAX_SAMPLE_SIZE} allowed")
    spacing = SECONDS_PER_DAY // threads_per_day
    courses = []
    for i, count in enumerate(threads_per_course):
        rng = course_rng(spec, i)
        course_id = f"course{i:02d}"
        builder = _ColumnBuilder({})
        for j in range(count):
            sampled = sample_thread(spec, i, rng)
            created = (j // threads_per_day) * SECONDS_PER_DAY + (j % threads_per_day) * spacing
            label = ThreadLabel.SMALL_TALK if sampled.is_smalltalk else ThreadLabel.COURSE_SPECIFIC
            builder.add_post(f"{course_id}-t{j:05d}-p0", f"{course_id}-u{j:05d}", created,
                             " ".join(sampled.tokens), False)
            builder.end_thread(f"{course_id}-t{j:05d}", created, label)
        courses.append(Course._from_columns(course_id, 0, builder.build(list(builder.codes))))
    return Corpus(tuple(courses))


# ---------------------------------------------------------------------------
# Linear separator
# ---------------------------------------------------------------------------


def separating_plane(spec: GenerativeSpec) -> tuple[dict[str, float], float]:
    """Indicator weights on the small-talk support and the matching threshold.

    The weight vector is 1 on Supp(T0), 0 elsewhere.  The threshold
    tau = s * (eps/2 + (1-eps) * Pr_B(Supp(T0))) sits halfway (in units of
    eps) between the expected small-talk hit count s*(eps + (1-eps)*Pr_B(S0))
    and the expected course-thread hit count s*(1-eps)*Pr_B(S0).  A thread is
    called small-talk iff its bag-of-words score strictly exceeds tau.
    """
    support = spec.smalltalk_topic.vocab
    weights = {w: 1.0 for w in support}
    bg_mass = sequential_sum(spec.background.prob(w) for w in support)
    tau = spec.s * (0.5 * spec.epsilon + (1.0 - spec.epsilon) * bg_mass)
    return weights, tau
