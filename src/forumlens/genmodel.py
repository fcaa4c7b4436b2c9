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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import (
    Corpus,
    Course,
    CourseCategory,
    Post,
    SECONDS_PER_DAY,
    Thread,
    ThreadLabel,
    UnigramModel,
)
from .errors import InvariantViolation


@dataclass(frozen=True, eq=False)
class GenerativeSpec:
    """Parameters of the thread sampler.

    ``ratio_bounds=(l, u)`` stores the constants bounding
    ``Pr_D1(i)(w) / Pr_B(w)`` for every topical word w (computed with slack at
    construction when not given).  ``uniformity_bound`` caps the max/min
    background mass ratio.  ``s_per_course`` optionally overrides the shared
    thread length ``s``; ``training_counts`` records per-course training sample
    sizes for stress experiments.
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
    _cdf_cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise InvariantViolation("spec", "epsilon must be in [0, 1)")
        if self.n != len(self.background.vocab):
            raise InvariantViolation("spec", "n must equal the background vocabulary size")
        if len(self.p) != len(self.course_topics):
            raise InvariantViolation("spec", "p and course_topics lengths differ")
        if any(not 0.0 <= pi <= 1.0 for pi in self.p):
            raise InvariantViolation("spec", "every p_i must be in [0, 1]")
        if self.s <= 0:
            raise InvariantViolation("spec", "thread length s must be positive")
        if self.s_per_course is not None and len(self.s_per_course) != len(self.p):
            raise InvariantViolation("spec", "s_per_course length differs from course count")

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
            ratios = []
            for topic in self.course_topics:
                for w in topic.vocab:
                    r = (1.0 - self.epsilon) + self.epsilon * topic.prob(w) / self.background.prob(w)
                    ratios.append(r)
            if ratios:
                lo, hi = min(ratios), max(ratios)
                if lo <= 1.0:
                    raise InvariantViolation(
                        "spec", "topical words must be boosted above background"
                    )
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
    course_index: int
    is_smalltalk: bool
    tokens: tuple[str, ...]


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def _vocab_words(n: int) -> list[str]:
    width = len(str(max(n - 1, 1)))
    return [f"w{i:0{width}d}" for i in range(n)]


def _topic_from_block(words: Sequence[str], weights: Sequence[float] | None) -> UnigramModel:
    if not words:
        return UnigramModel((), np.zeros(0))
    if weights is None:
        return UnigramModel.uniform(words)
    w = np.asarray(weights, dtype=float)
    if w.size != len(words) or np.any(w <= 0):
        raise InvariantViolation("spec", "topic weights must be positive and match support size")
    order = np.argsort(np.asarray(words, dtype=object))
    vocab = tuple(sorted(words))
    mass = w[order] / w.sum()
    return UnigramModel(vocab, mass)


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
    uniformity_bound: float = 8.0,
) -> GenerativeSpec:
    """Build a spec with a uniform background and block-disjoint topic supports.

    Topic supports of ``support_size`` words are carved consecutively from the
    vocabulary, the small-talk topic first.  ``topic_weights`` (length
    ``support_size``) makes the per-course topics non-uniform.
    """
    if smalltalk_support_size is None:
        smalltalk_support_size = support_size
    need = smalltalk_support_size + num_courses * support_size
    if need > n:
        raise InvariantViolation("spec", f"vocabulary of {n} too small for {need} topic words")
    words = _vocab_words(n)
    background = UnigramModel.uniform(words)
    s0 = smalltalk_support_size
    smalltalk = _topic_from_block(words[:s0], None)
    topics = []
    for i in range(num_courses):
        block = words[s0 + i * support_size : s0 + (i + 1) * support_size]
        topics.append(_topic_from_block(block, topic_weights))
    p_list = tuple([float(p)] * num_courses) if isinstance(p, (int, float)) else tuple(p)
    return GenerativeSpec(
        n=n,
        epsilon=epsilon,
        background=background,
        smalltalk_topic=smalltalk,
        course_topics=tuple(topics),
        p=p_list,
        s=s,
        seed=seed,
        s_per_course=tuple(s_per_course) if s_per_course is not None else None,
        training_counts=tuple(training_counts) if training_counts is not None else None,
        uniformity_bound=uniformity_bound,
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
    if n < 100:
        raise InvariantViolation("spec", "adversarial construction needs n >= 100")
    sqrt_n = math.sqrt(n)
    s1 = round(sqrt_n)
    p1 = c * math.log10(n) / sqrt_n
    if not 0.0 < p1 < 1.0:
        raise InvariantViolation("spec", f"p1 = {p1:.4f} outside (0, 1); adjust c")
    b1 = math.ceil(1.0 / p1)
    s2 = round(n**d)
    p2 = 1.0 - n ** (-d)

    words = _vocab_words(n)
    rest = n - smalltalk_support_size
    half = rest // 2
    background = UnigramModel.uniform(words)
    smalltalk = _topic_from_block(words[:smalltalk_support_size], None)
    topic1 = _topic_from_block(words[smalltalk_support_size : smalltalk_support_size + half], None)
    topic2 = _topic_from_block(words[smalltalk_support_size + half :], None)
    return GenerativeSpec(
        n=n,
        epsilon=epsilon,
        background=background,
        smalltalk_topic=smalltalk,
        course_topics=(topic1, topic2),
        p=(p1, p2),
        s=s1,
        seed=seed,
        s_per_course=(s1, s2),
        training_counts=(b1, b1),
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def token_distribution(spec: GenerativeSpec, course: int, smalltalk: bool) -> np.ndarray:
    """Mass vector of D0 (smalltalk) or D1(course) over the background vocabulary.

    With an empty topic support (or epsilon = 0) the mixture degenerates to
    the background distribution.
    """
    topic = spec.smalltalk_topic if smalltalk else spec.course_topics[course]
    mass = (1.0 - spec.epsilon) * spec.background.mass.copy()
    if len(topic.vocab) == 0 or spec.epsilon == 0.0:
        return spec.background.mass.copy()
    idx = np.array([spec.background._index[w] for w in topic.vocab])
    mass[idx] += spec.epsilon * topic.mass
    return mass


def marginal_token_mass(spec: GenerativeSpec, course: int) -> np.ndarray:
    """Marginal token distribution (1-p_i)*D1(i) + p_i*D0."""
    pi = spec.p[course]
    return pi * token_distribution(spec, course, True) + (1.0 - pi) * token_distribution(
        spec, course, False
    )


def _cached_cdf(spec: GenerativeSpec, course: int, smalltalk: bool) -> np.ndarray:
    key = (course, smalltalk)
    cdf = spec._cdf_cache.get(key)
    if cdf is None:
        cdf = np.cumsum(token_distribution(spec, course, smalltalk))
        spec._cdf_cache[key] = cdf
    return cdf


def _vocab_array(spec: GenerativeSpec) -> np.ndarray:
    arr = spec._cdf_cache.get("vocab")
    if arr is None:
        arr = np.asarray(spec.background.vocab, dtype=object)
        spec._cdf_cache["vocab"] = arr
    return arr


def sample_tokens(
    spec: GenerativeSpec,
    course: int,
    smalltalk: bool,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``size`` i.i.d. tokens from D0 or D1(course)."""
    cdf = _cached_cdf(spec, course, smalltalk)
    idx = np.searchsorted(cdf, rng.random(size), side="right")
    idx = np.minimum(idx, spec.n - 1)
    return _vocab_array(spec)[idx]


def sample_thread(spec: GenerativeSpec, course: int, rng: np.random.Generator) -> SampledThread:
    """Sample one thread: flip the p_i coin, then draw s i.i.d. tokens."""
    if course >= spec.num_courses:
        raise IndexError(f"course {course} out of range")
    is_smalltalk = bool(rng.random() < spec.p[course])
    tokens = sample_tokens(spec, course, is_smalltalk, spec.thread_length(course), rng)
    return SampledThread(course, is_smalltalk, tuple(tokens.tolist()))


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
    timestamp 0, one single-author post per thread.
    """
    if any(cnt < 0 for cnt in threads_per_course):
        raise InvariantViolation("spec", "thread counts must be nonnegative")
    if len(threads_per_course) != spec.num_courses:
        raise InvariantViolation("spec", "one thread count per course required")
    spacing = SECONDS_PER_DAY // threads_per_day
    courses = []
    for i, count in enumerate(threads_per_course):
        rng = course_rng(spec, i)
        course_id = f"course{i:02d}"
        threads = []
        for j in range(count):
            sampled = sample_thread(spec, i, rng)
            created = (j // threads_per_day) * SECONDS_PER_DAY + (j % threads_per_day) * spacing
            label = ThreadLabel.SMALL_TALK if sampled.is_smalltalk else ThreadLabel.COURSE_SPECIFIC
            post = Post(
                post_id=f"{course_id}-t{j:05d}-p0",
                author_id=f"{course_id}-u{j:05d}",
                timestamp=created,
                text=" ".join(sampled.tokens),
            )
            threads.append(Thread(f"{course_id}-t{j:05d}", created, (post,), label))
        courses.append(Course(course_id, 0, tuple(threads)))
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
    bg_mass = sum(spec.background.prob(w) for w in support)
    tau = spec.s * (0.5 * spec.epsilon + (1.0 - spec.epsilon) * bg_mass)
    return weights, tau
