"""Generative model of discussion threads.

A thread in course ``i`` is small-talk with probability ``p[i]``; its tokens
are then drawn i.i.d. from ``D0 = (1-eps)*B + eps*T0``, otherwise from
``D1(i) = (1-eps)*B + eps*T[i]``, where B is a near-uniform background
distribution and the topic supports are pairwise disjoint.

Randomness comes from numpy's PCG64 generator.  Corpus generation derives a
per-course stream as ``PCG64(seed ^ course_index)``, so corpora are
bit-reproducible across platforms and courses can be sampled in parallel.

Sampling has one path: ``sample_threads`` draws a course's threads a block at
a time, and each uniform u becomes a word through a guide table over its CDF
(Chen & Asau, 1974): exactly the word ``np.searchsorted(cdf, u, side="right")``
picks, clipped to the last word.  ``sample_tokens`` draws bare tokens through
the same tables.

``load_spec`` reads a spec file: a builder's arguments by spec kind, or the
object ``GenerativeSpec.to_json`` writes.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .corpus import (Corpus, Course, SECONDS_PER_DAY, ThreadLabel, UnigramModel, _ColumnBuilder, load_json_object,
                     read_int, read_list, read_object, read_real, read_str, sequential_sum)
from .errors import InvariantViolation, ParseError

# The largest vocabulary make_spec and adversarial_spec carve: 20 times the
# 5,000 words of the labeled-text benchmark.
MAX_VOCABULARY = 100_000
# The most one sample_corpus call may draw and build: its tokens (the sum of
# thread length times thread count over the courses) plus the cells of the
# spec's sampling tables ((courses + 1) x n).  The labeled-text benchmark
# samples 500,000 tokens.  Peaks under tracemalloc, sampling a block of at most
# 2**14 uniforms at a time: 98 MB for 10**7 tokens (four courses of 24,937
# threads of 100 tokens over 5,000 words), 16 MB for one thread of 10**6
# tokens, and 11 MB for 9.9 x 10**6 table cells (98 courses of one 1,000-token
# thread over 100,000 words; a cell holds a CDF entry and two to four int32
# guide entries, and only one course's tables and D0's are alive at a time).
# So the cap holds a call to under a quarter of a gigabyte.
MAX_SAMPLE_SIZE = 10_000_000


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

    def __post_init__(self):
        # every number is read to an int or a float, so that to_json writes it as one and numpy samples with it
        for name, read, *args in (("n", read_int), ("s", read_int, 1), ("seed", read_int), ("epsilon", read_real),
                                  ("uniformity_bound", read_real), ("p", read_list, read_real)):
            object.__setattr__(self, name, read("spec", name, getattr(self, name), *args))
        for name, *args in (("s_per_course", read_int, 1), ("training_counts", read_int), ("ratio_bounds", read_real)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, read_list("spec", name, getattr(self, name), *args))
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
        if self.ratio_bounds is not None and len(self.ratio_bounds) != 2:
            raise InvariantViolation("spec", "ratio_bounds must hold two numbers")

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
    def from_obj(cls, obj) -> "GenerativeSpec":
        """The spec that a decoded ``to_json`` object states."""
        obj = read_object("spec", "spec", obj)

        def unigram(subject, name, d):  # a reader of one {"vocab", "mass"} object
            d = read_object(subject, name, d)
            return UnigramModel(read_list(subject, f"{name}.vocab", d["vocab"], read_str),
                                read_list(subject, f"{name}.mass", d["mass"], read_real))

        optional = ("seed", "s_per_course", "training_counts", "ratio_bounds", "uniformity_bound")
        return cls(background=unigram("spec", "background", obj["background"]),
                   smalltalk_topic=unigram("spec", "smalltalk_topic", obj["smalltalk_topic"]),
                   course_topics=read_list("spec", "course_topics", obj["course_topics"], unigram),
                   **{k: obj[k] for k in ("n", "epsilon", "p", "s")}, **{k: obj[k] for k in optional if k in obj})


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def _vocab_words(n: int) -> list[str]:
    width = len(str(max(n - 1, 1)))
    return [f"w{i:0{width}d}" for i in range(n)]


def _topic_from_block(words: Sequence[str], weights: Sequence[float] | None) -> UnigramModel:
    if weights is None:
        return UnigramModel.uniform(words)
    w = np.array(read_list("spec", "topic_weights", weights, read_real))
    if w.size != len(words) or not (w > 0).all():
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
    n = read_int("spec", "n", n)
    if n > MAX_VOCABULARY:  # before anything compares with n or carves its words
        raise InvariantViolation("spec", f"n must be at most {MAX_VOCABULARY}, got {n}")
    # the sizes may be any integers here: _carved refuses a negative one
    support_size = read_int("spec", "support_size", support_size, None)
    s0 = support_size if smalltalk_support_size is None else read_int(
        "spec", "smalltalk_support_size", smalltalk_support_size, None)
    # at most one course per word, so that a spec's size is bounded by its vocabulary's
    num_courses = read_int("spec", "num_courses", num_courses, None)
    if not 0 <= num_courses <= n:
        raise InvariantViolation("spec", f"num_courses must be nonnegative and at most n, got {num_courses}")
    background, smalltalk, topics = _carved(n, [s0] + [support_size] * num_courses, topic_weights)
    return GenerativeSpec(
        n=n,
        epsilon=epsilon,
        background=background,
        smalltalk_topic=smalltalk,
        course_topics=topics,
        p=(p,) * num_courses if isinstance(p, numbers.Real) else p,
        s=s,
        seed=seed,
        s_per_course=s_per_course,
        training_counts=training_counts,
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
    n = read_int("spec", "n", n)
    if not 100 <= n <= MAX_VOCABULARY:
        raise InvariantViolation("spec", f"adversarial construction needs 100 <= n <= {MAX_VOCABULARY}")
    c, d = read_real("spec", "c", c), read_real("spec", "d", d)
    smalltalk_support_size = read_int("spec", "smalltalk_support_size", smalltalk_support_size, None)
    try:
        float(n) ** abs(d)  # n >= 100, so this bounds both n**d and n**(-d)
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


# each spec kind's builder, which holds every default, and the fields a spec file may pass it
_SPEC_BUILDERS = {
    "adversarial": (adversarial_spec, ("n", "c", "d", "epsilon", "smalltalk_support_size", "seed")),
    "uniform": (make_spec, ("n", "num_courses", "epsilon", "p", "s", "support_size",
                            "smalltalk_support_size", "seed", "training_counts")),
}


def load_spec(path) -> GenerativeSpec:
    """A spec by its ``kind``; a file with no kind is the object ``GenerativeSpec.to_json`` writes."""
    obj = load_json_object(path)
    kind = obj.get("kind")
    try:
        if kind in _SPEC_BUILDERS:
            build, fields = _SPEC_BUILDERS[kind]
            return build(**{f: obj[f] for f in fields if f in obj})
        if kind in ("explicit", None):
            return GenerativeSpec.from_obj(obj["spec"] if kind else obj)
    except (KeyError, TypeError) as exc:  # a missing field, or a builder's missing argument
        raise ParseError(1, f"{kind or 'kind-less'} spec has a missing field: {exc}") from None
    raise ParseError(1, f"unknown spec kind {kind!r}")


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


# A distribution's search table (its CDF, the last entry infinite) and guide table.
_Tables = tuple[np.ndarray, np.ndarray]
# A block draws as many whole threads as fit in this many uniforms, at least one; a thread longer than
# that draws its tokens this many at a time.
_BLOCK_DRAWS = 1 << 14
# How far a draw walks from its guide entry before it finishes by binary search.
_WALK_STEPS = 4


def _tables(mass: np.ndarray) -> _Tables:
    """The search table and guide table of a mass vector over the vocabulary.

    The search table is the CDF with its last entry set to infinity, so a search lands on the last
    word at most: where rounding leaves the CDF's total just under 1, a uniform above it draws the
    last word.  ``guide[g]`` is where ``g / len(guide)`` lands, and ``len(guide)`` is the power of
    two at least twice the vocabulary (Chen & Asau, 1974; Devroye, 1986, section III.2).  It is
    built as a count in O(n + len(guide)): an entry is at most g / len(guide) exactly when its
    ceiling times len(guide), an exact product, is at most g.
    """
    table = np.cumsum(mass)
    table[-1:] = np.inf
    size = 1 << (2 * table.size - 1).bit_length()
    cells = np.minimum(np.ceil(table * size), size).astype(np.intp)
    return table, np.cumsum(np.bincount(cells, minlength=size + 1)[:size]).astype(np.int32)


def _draw(tables: _Tables, u: np.ndarray) -> np.ndarray:
    """The word indices of uniforms ``u`` (one axis): ``np.searchsorted(table, u, side="right")`` exactly.

    ``len(guide)`` is a power of two, so ``u * len(guide)`` is exact and its floor is the guide
    entry at or below u.  A draw starts there and walks right past each table entry at most u;
    draws still walking after ``_WALK_STEPS`` steps (a guide cell crowded with small masses)
    finish by binary search.
    """
    table, guide = tables
    idx = guide[(u * guide.size).astype(np.intp)]
    walking = np.flatnonzero(table[idx] <= u)
    for _ in range(_WALK_STEPS):
        if not walking.size:
            return idx
        idx[walking] += 1
        walking = walking[table[idx[walking]] <= u[walking]]
    idx[walking] = np.searchsorted(table, u[walking], side="right")
    return idx


def sample_tokens(spec: GenerativeSpec, course: int, smalltalk: bool, size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` i.i.d. tokens from D0 or D1(course), by inverse CDF through a guide table.

    Builds the tables for this call; each token takes one uniform from ``rng``.
    """
    vocab, d0, d1 = _course_tables(spec, course)
    return vocab[_draw(d0 if smalltalk else d1, rng.random(size))]


def sample_threads(spec: GenerativeSpec, course: int, count: int,
                   rng: np.random.Generator) -> Iterator[tuple[bool, list[str]]]:
    """Sample ``count`` threads of a course: each one's small-talk flag and tokens.

    A thread takes 1 + s uniforms from ``rng``: the p_i coin, then s i.i.d. tokens from D0 or
    D1(course).  The threads are drawn a block at a time with one ``rng.random((k, 1 + s))``, which
    reads the stream as a thread at a time would, so the block size changes no draw.  The tables
    of D0 and D1(course) are built for this call and let go with it.
    """
    vocab, d0, d1 = _course_tables(spec, course)
    s = spec.thread_length(course)
    rows = max(1, _BLOCK_DRAWS // (1 + s))
    for start in range(0, count, rows):
        u = rng.random((min(rows, count - start), 1 + min(s, _BLOCK_DRAWS)))
        smalltalk = u[:, 0] < spec.p[course]
        idx = np.empty((len(u), u.shape[1] - 1), dtype=np.int32)
        for rows_of, tables in ((smalltalk, d0), (~smalltalk, d1)):
            idx[rows_of] = _draw(tables, u[rows_of, 1:].ravel()).reshape(-1, idx.shape[1])
        words = vocab[idx].tolist()
        for drawn in range(_BLOCK_DRAWS, s, _BLOCK_DRAWS):  # a thread longer than a block: one row
            size = min(_BLOCK_DRAWS, s - drawn)
            words[0] += vocab[_draw(d0 if smalltalk[0] else d1, rng.random(size))].tolist()
        yield from zip(smalltalk.tolist(), words)


def _course_tables(spec: GenerativeSpec, course: int) -> tuple[np.ndarray, _Tables, _Tables]:
    """The vocabulary as an object array, and the search and guide tables of D0 and of D1(course),
    built for one sampling call: a spec keeps no tables."""
    if not 0 <= course < spec.num_courses:
        raise IndexError(f"course {course} out of range")
    vocab = np.asarray(spec.background.vocab, dtype=object)
    return vocab, _tables(token_distribution(spec, None, True)), _tables(token_distribution(spec, course, False))


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
    A sample larger than ``MAX_SAMPLE_SIZE``, or a thread from a spec with no
    words, is refused before the first draw.
    """
    threads_per_course = read_list("spec", "thread counts", threads_per_course, read_int)
    if len(threads_per_course) != spec.num_courses:
        raise InvariantViolation("spec", "one thread count per course required")
    if threads_per_day < 1:
        raise InvariantViolation("spec", "threads_per_day must be positive")
    size = (spec.num_courses + 1) * spec.n + sum(spec.thread_length(i) * cnt for i, cnt in enumerate(threads_per_course))
    if size > MAX_SAMPLE_SIZE:
        raise InvariantViolation("spec", f"the sample needs {size} tokens and table cells, "
                                         f"more than the {MAX_SAMPLE_SIZE} allowed")
    if spec.n == 0 and any(threads_per_course):
        raise InvariantViolation("spec", "a spec with no words cannot sample a thread")
    spacing = SECONDS_PER_DAY // threads_per_day
    courses = []
    for i, count in enumerate(threads_per_course):
        rng = course_rng(spec, i)
        course_id = f"course{i:02d}"
        builder = _ColumnBuilder({})
        for j, (is_smalltalk, tokens) in enumerate(sample_threads(spec, i, count, rng)):
            created = (j // threads_per_day) * SECONDS_PER_DAY + (j % threads_per_day) * spacing
            label = ThreadLabel.SMALL_TALK if is_smalltalk else ThreadLabel.COURSE_SPECIFIC
            builder.add_post(f"{course_id}-t{j:05d}-p0", f"{course_id}-u{j:05d}", created, " ".join(tokens), False)
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
