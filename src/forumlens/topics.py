"""Surprise-weight keyword extraction and ranking-convergence diagnostics.

The surprise weight of a word w is

    gamma(w) = p_course(w) * sqrt(n) / sqrt(p_combined(w))

where p_course is the empirical mass of w in the course-specific data,
p_combined its mass in the background plus course data pooled together, and n
the background token count.  Words whose course frequency stands far above
their global frequency score high; globally common words are discounted by
the square-root denominator.

All functions are pure; per-course extraction can run in parallel.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, UnigramModel, day_index, thread_tokens
from .errors import DomainMismatch, EmptyCorpus, InvariantViolation
from .genmodel import GenerativeSpec, token_distribution


@dataclass(frozen=True)
class KeywordRanking:
    """Words ordered by non-increasing gamma, ties broken lexicographically."""

    entries: tuple[tuple[str, float], ...]
    k: int | None = None

    def __post_init__(self):
        words = [w for w, _ in self.entries]
        if len(set(words)) != len(words):
            raise InvariantViolation("ranking", "duplicate words")
        for (wa, ga), (wb, gb) in zip(self.entries, self.entries[1:]):
            if gb > ga + 1e-12:
                raise InvariantViolation("ranking", "gamma must be non-increasing")
            if gb == ga and wb < wa:
                raise InvariantViolation("ranking", "ties must be lexicographic")

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(w for w, _ in self.entries)


def surprise_weights(
    combined: UnigramModel, course: UnigramModel, background_tokens: int
) -> KeywordRanking:
    """Full gamma ranking over the course vocabulary.

    ``combined`` must cover every course word (it does whenever it is built
    from the background and course data pooled together).
    """
    if background_tokens <= 0:
        raise EmptyCorpus("background token count must be positive")
    sqrt_n = math.sqrt(background_tokens)
    entries = []
    for w in course.vocab:
        pd = combined.prob(w)
        if pd <= 0.0:
            raise DomainMismatch(f"course word {w!r} missing from combined model")
        entries.append((w, course.prob(w) * sqrt_n / math.sqrt(pd)))
    entries.sort(key=lambda e: (-e[1], e[0]))
    return KeywordRanking(tuple(entries))


def top_k(ranking: KeywordRanking, k: int) -> list[str]:
    if k < 0:
        raise ValueError("k must be >= 0")
    return list(ranking.words[:k])


def topk_set_difference(day_a: KeywordRanking, day_b: KeywordRanking, k: int) -> int:
    """Number of words in day_b's top-k that are not in day_a's top-k."""
    return len(set(top_k(day_b, k)) - set(top_k(day_a, k)))


def normalized_kendall_tau(rank_a: Sequence[str], rank_b: Sequence[str]) -> float:
    """Discordant pairs divided by C(m, 2), for two orders of the same set."""
    if set(rank_a) != set(rank_b) or len(set(rank_a)) != len(rank_a):
        raise DomainMismatch("rankings must be permutations of the same word set")
    m = len(rank_a)
    if m < 2:
        return 0.0
    pos_b = {w: i for i, w in enumerate(rank_b)}
    discordant = 0
    for i in range(m):
        for j in range(i + 1, m):
            if pos_b[rank_a[i]] > pos_b[rank_a[j]]:
                discordant += 1
    return discordant / (m * (m - 1) / 2)


def topk_kendall_tau(day_a: KeywordRanking, day_b: KeywordRanking, k: int) -> float:
    """Kendall tau between two days' top-k lists, restricted to their common words.

    Top-k membership churns from day to day; the distance is computed on the
    intersection of the two top-k sets (churn itself is reported separately by
    topk_set_difference).  Fewer than two common words gives 0.
    """
    common = set(top_k(day_a, k)) & set(top_k(day_b, k))
    if len(common) < 2:
        return 0.0
    order_a = [w for w in day_a.words if w in common]
    order_b = [w for w in day_b.words if w in common]
    return normalized_kendall_tau(order_a, order_b)


# ---------------------------------------------------------------------------
# Corpus pipeline
# ---------------------------------------------------------------------------


def _course_day_tokens(
    corpus: Corpus,
    course_id: str,
    stopwords: frozenset[str] | None,
    include_staff: bool,
) -> dict[int, list[str]]:
    course = corpus.course(course_id)
    by_day: dict[int, list[str]] = {}
    for t in course.threads:
        day = day_index(t.created_at, course.start_date)
        by_day.setdefault(day, []).extend(thread_tokens(t, stopwords, include_staff))
    return by_day


def _background_counts(
    corpus: Corpus,
    course_id: str,
    background_ids: Sequence[str] | None,
    stopwords: frozenset[str] | None,
    include_staff: bool,
) -> Counter:
    if background_ids is None:
        background_ids = [c.course_id for c in corpus.courses if c.course_id != course_id]
    counts: Counter = Counter()
    for cid in background_ids:
        for t in corpus.course(cid).threads:
            counts.update(thread_tokens(t, stopwords, include_staff))
    return counts


def extract_keywords(
    corpus: Corpus,
    course_id: str,
    background_ids: Sequence[str] | None = None,
    k: int = 50,
    warmup_days: int = 10,
    stopwords: frozenset[str] | None = None,
    include_staff: bool = True,
) -> KeywordRanking:
    """Surprise-weight ranking for one course.

    Background data is the full text of the other (or the given) courses;
    course-specific data is the target course's first ``warmup_days`` days.
    """
    bg = _background_counts(corpus, course_id, background_ids, stopwords, include_staff)
    by_day = _course_day_tokens(corpus, course_id, stopwords, include_staff)
    course_counts: Counter = Counter()
    for day, tokens in by_day.items():
        if day <= warmup_days:
            course_counts.update(tokens)
    if not course_counts:
        raise EmptyCorpus(f"no course tokens in the first {warmup_days} days of {course_id}")
    if not bg:
        raise EmptyCorpus("background courses contributed no tokens")
    combined = UnigramModel.from_counts(bg + course_counts)
    course_model = UnigramModel.from_counts(course_counts)
    ranking = surprise_weights(combined, course_model, sum(bg.values()))
    return KeywordRanking(ranking.entries, k=k)


@dataclass(frozen=True)
class ConvergencePoint:
    day: int
    new_words: int
    kendall_tau: float
    cumulative_tokens: int


def convergence_series(
    corpus: Corpus,
    course_id: str,
    background_ids: Sequence[str] | None = None,
    k: int = 50,
    max_days: int | None = None,
    stopwords: frozenset[str] | None = None,
    include_staff: bool = True,
) -> list[ConvergencePoint]:
    """Day-over-day stability of the top-k ranking as course data accumulates.

    For each day d >= 2 the point compares the ranking fitted on days <= d-1
    with the one fitted on days <= d: top-k set churn and the Kendall tau on
    the common top-k words.
    """
    bg = _background_counts(corpus, course_id, background_ids, stopwords, include_staff)
    if not bg:
        raise EmptyCorpus("background courses contributed no tokens")
    n_bg = sum(bg.values())
    by_day = _course_day_tokens(corpus, course_id, stopwords, include_staff)
    if not by_day:
        raise EmptyCorpus(f"course {course_id} has no tokens")
    last_day = max(by_day) if max_days is None else max_days

    points = []
    cumulative: Counter = Counter()
    prev_ranking = None
    for day in range(1, last_day + 1):
        cumulative.update(by_day.get(day, []))
        if not cumulative:
            continue
        combined = UnigramModel.from_counts(bg + cumulative)
        course_model = UnigramModel.from_counts(cumulative)
        ranking = surprise_weights(combined, course_model, n_bg)
        if prev_ranking is not None:
            points.append(
                ConvergencePoint(
                    day=day,
                    new_words=topk_set_difference(prev_ranking, ranking, k),
                    kendall_tau=topk_kendall_tau(prev_ranking, ranking, k),
                    cumulative_tokens=sum(cumulative.values()),
                )
            )
        prev_ranking = ranking
    return points


# ---------------------------------------------------------------------------
# Ground-truth recovery experiment
# ---------------------------------------------------------------------------


def support_recovery_recall(
    spec: GenerativeSpec,
    course: int,
    background_courses: Iterable[int],
    background_tokens: int,
    course_tokens: int,
    seed: int = 0,
) -> float:
    """Recall of the course topic support in the surprise-weight top-k.

    Token counts are drawn from the exact marginal distributions with a
    multinomial (equivalent to sampling threads and pooling their tokens),
    k is the true support size, and recall is |top-k intersect Supp(T_i)| / k.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    vocab = list(spec.background.vocab)

    def counts_from(mass: np.ndarray, total: int) -> Counter:
        draws = rng.multinomial(total, mass / mass.sum())
        return Counter({w: int(c) for w, c in zip(vocab, draws) if c})

    bg_ids = list(background_courses)
    per_bg = background_tokens // max(len(bg_ids), 1)
    bg_counts: Counter = Counter()
    for j in bg_ids:
        pj = spec.p[j]
        mass = pj * token_distribution(spec, j, True) + (1 - pj) * token_distribution(spec, j, False)
        bg_counts += counts_from(mass, per_bg)

    pi = spec.p[course]
    course_mass = pi * token_distribution(spec, course, True) + (1 - pi) * token_distribution(
        spec, course, False
    )
    course_counts = counts_from(course_mass, course_tokens)

    combined = UnigramModel.from_counts(bg_counts + course_counts)
    course_model = UnigramModel.from_counts(course_counts)
    ranking = surprise_weights(combined, course_model, sum(bg_counts.values()))

    truth = spec.course_topics[course].support
    k = len(truth)
    found = set(top_k(ranking, k)) & truth
    return len(found) / k if k else 1.0
