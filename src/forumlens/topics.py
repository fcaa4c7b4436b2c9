"""Surprise-weight keyword extraction and ranking-convergence diagnostics.

The surprise weight of a word w is

    gamma(w) = p_course(w) * sqrt(n) / sqrt(p_combined(w))

where p_course is the empirical mass of w in the course-specific data,
p_combined its mass in the background plus course data pooled together, and n
the background token count.  Words whose course frequency stands far above
their global frequency score high; globally common words are discounted by
the square-root denominator.

A command tokenizes each thread once, into one TokenTable that every
pipeline it runs reads (keywords, ranking and the classifiers); KeywordFit
counts the background once and accumulates the course counts day by day.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, Thread, UnigramModel, day_index, thread_tokens
from .errors import DomainMismatch, EmptyCorpus, InvariantViolation
from .genmodel import GenerativeSpec, marginal_token_mass


@dataclass(frozen=True)
class KeywordRanking:
    """Words ordered by non-increasing gamma, ties broken lexicographically."""

    entries: tuple[tuple[str, float], ...]

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


def _ranked_keywords(
    words: np.ndarray,
    word_rank: np.ndarray,
    p_course: np.ndarray,
    p_combined: np.ndarray,
    sqrt_n: float,
) -> KeywordRanking:
    """Rank ``words`` (an object array) by gamma; ``word_rank`` orders them lexicographically."""
    gamma = p_course * sqrt_n / np.sqrt(p_combined)
    order = np.lexsort((word_rank, -gamma))
    return KeywordRanking(tuple(zip(words[order].tolist(), gamma[order].tolist())))


def surprise_weights(
    combined: UnigramModel, course: UnigramModel, background_tokens: int
) -> KeywordRanking:
    """Full gamma ranking over the course vocabulary.

    ``combined`` must cover every course word (it does whenever it is built
    from the background and course data pooled together).
    """
    if background_tokens <= 0:
        raise EmptyCorpus("background token count must be positive")
    p_combined = np.array([combined.prob(w) for w in course.vocab])
    missing = np.flatnonzero(p_combined <= 0.0)
    if missing.size:
        raise DomainMismatch(f"course word {course.vocab[missing[0]]!r} missing from combined model")
    words = np.array(course.vocab, dtype=object)
    return _ranked_keywords(
        words, np.arange(words.size), course.mass, p_combined, math.sqrt(background_tokens)
    )


def top_k(ranking: KeywordRanking, k: int) -> list[str]:
    if k < 0:
        raise ValueError("k must be >= 0")
    return [w for w, _ in ranking.entries[:k]]


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
    top_a = top_k(day_a, k)
    top_b = top_k(day_b, k)
    common = set(top_a) & set(top_b)
    if len(common) < 2:
        return 0.0
    order_a = [w for w in top_a if w in common]
    order_b = [w for w in top_b if w in common]
    return normalized_kendall_tau(order_a, order_b)


# ---------------------------------------------------------------------------
# Corpus pipeline
# ---------------------------------------------------------------------------


class TokenTable:
    """Each thread's tokens, tokenized on first access and kept while the table lives.

    Tokens are stored in their original order as int32 ids into the table's
    vocabulary, which grows in order of first appearance.  Threads are keyed
    by identity, and the table holds a reference to each one it has seen.
    A table belongs to one command: build it there and let it go with it.
    """

    def __init__(self, stopwords: frozenset[str] | None = None, include_staff: bool = True):
        self.stopwords = stopwords
        self.include_staff = include_staff
        self.index: dict[str, int] = {}
        self._rows: dict[int, tuple[Thread, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.index)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """``tokens`` as int32 ids; new words take the next ids, in order of appearance."""
        index = self.index
        try:
            ids = list(map(index.__getitem__, tokens))
        except KeyError:
            for w in tokens:
                index.setdefault(w, len(index))
            ids = list(map(index.__getitem__, tokens))
        return np.array(ids, dtype=np.int32)

    def ids(self, thread: Thread) -> np.ndarray:
        row = self._rows.get(id(thread))
        if row is None:
            tokens = thread_tokens(thread, self.stopwords, self.include_staff)
            row = self._rows[id(thread)] = (thread, self.encode(tokens))
        return row[1]


def first_counts(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids of ``ids`` in order of first occurrence, and how often each occurs."""
    distinct = np.array(list(dict.fromkeys(ids.tolist())), dtype=ids.dtype)
    return distinct, np.bincount(ids)[distinct]


def sequential_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0; from Python 3.12 the built-in sum() compensates."""
    total = 0.0
    for v in values:
        total += v
    return float(total)


def _bincount(rows: list[np.ndarray], size: int) -> np.ndarray:
    if not rows:
        return np.zeros(size, dtype=np.int64)
    return np.bincount(np.concatenate(rows), minlength=size)


@dataclass(frozen=True)
class ConvergencePoint:
    day: int
    new_words: int
    kendall_tau: float
    cumulative_tokens: int


class KeywordFit:
    """Surprise-weight rankings of one course against a fixed background.

    Building the fit tokenizes the background and the whole course through
    ``tokens`` and counts the background once.  The course counts up to a
    day are a prefix of the course's day-sorted threads, so asking for
    non-decreasing days (as the convergence series and the warm-up days of a
    comparison do) adds each thread's counts once.
    """

    def __init__(
        self,
        tokens: TokenTable,
        corpus: Corpus,
        course_id: str,
        background_ids: Sequence[str] | None = None,
    ):
        if background_ids is None:
            background_ids = [c.course_id for c in corpus.courses if c.course_id != course_id]
        background = [tokens.ids(t) for cid in background_ids for t in corpus.course(cid).threads]
        course = corpus.course(course_id)
        days = [day_index(t.created_at, course.start_date) for t in course.threads]
        order = sorted(range(len(days)), key=days.__getitem__)
        self.course_id = course_id
        self._days = np.array([days[i] for i in order], dtype=np.int64)
        self._rows = [tokens.ids(course.threads[i]) for i in order]
        self._size = size = len(tokens)
        self.background = _bincount(background, size)
        self.background_tokens = int(self.background.sum())
        words = list(tokens.index)
        self._words = np.array(words, dtype=object)
        self._word_rank = np.empty(size, dtype=np.int64)
        self._word_rank[sorted(range(size), key=words.__getitem__)] = np.arange(size)
        self._start = self._end = 0
        self._counts = np.zeros(size, dtype=np.int64)

    def _course_counts(self, first_day: int | None, last_day: int) -> np.ndarray:
        """Course token counts of the days in [first_day, last_day] (no lower bound if None)."""
        start = 0 if first_day is None else int(np.searchsorted(self._days, first_day, "left"))
        end = int(np.searchsorted(self._days, last_day, "right"))
        if start != self._start or end < self._end:
            self._start = self._end = start
            self._counts = np.zeros(self._size, dtype=np.int64)
        if end > self._end:
            self._counts = self._counts + _bincount(self._rows[self._end : end], self._size)
            self._end = end
        return self._counts

    def _ranking(self, counts: np.ndarray) -> KeywordRanking:
        support = np.flatnonzero(counts)
        c = counts[support]
        total_c = int(c.sum())
        total_comb = self.background_tokens + total_c
        return _ranked_keywords(
            self._words[support],
            self._word_rank[support],
            c / total_c,
            (self.background[support] + c) / total_comb,
            math.sqrt(self.background_tokens),
        )

    def keywords(self, warmup_days: int) -> KeywordRanking:
        """Ranking fitted on the course's threads of days <= ``warmup_days``."""
        counts = self._course_counts(None, warmup_days)
        if not counts.any():
            raise EmptyCorpus(
                f"no course tokens in the first {warmup_days} days of {self.course_id}"
            )
        if not self.background_tokens:
            raise EmptyCorpus("background courses contributed no tokens")
        return self._ranking(counts)

    def convergence(self, k: int = 50, max_days: int | None = None) -> list[ConvergencePoint]:
        """See convergence_series."""
        if not self.background_tokens:
            raise EmptyCorpus("background courses contributed no tokens")
        if not self._rows:
            raise EmptyCorpus(f"course {self.course_id} has no tokens")
        last_day = int(self._days[-1]) if max_days is None else max_days
        points = []
        prev_ranking = None
        for day in range(1, last_day + 1):
            counts = self._course_counts(1, day)
            if not counts.any():
                continue
            ranking = self._ranking(counts)
            if prev_ranking is not None:
                points.append(
                    ConvergencePoint(
                        day=day,
                        new_words=topk_set_difference(prev_ranking, ranking, k),
                        kendall_tau=topk_kendall_tau(prev_ranking, ranking, k),
                        cumulative_tokens=int(counts.sum()),
                    )
                )
            prev_ranking = ranking
        return points


def extract_keywords(
    corpus: Corpus,
    course_id: str,
    background_ids: Sequence[str] | None = None,
    warmup_days: int = 10,
    tokens: TokenTable | None = None,
) -> KeywordRanking:
    """Surprise-weight ranking for one course.

    Background data is the full text of the other (or the given) courses;
    course-specific data is the target course's first ``warmup_days`` days.
    Text is read through ``tokens`` (default: a fresh TokenTable).
    """
    fit = KeywordFit(TokenTable() if tokens is None else tokens, corpus, course_id, background_ids)
    return fit.keywords(warmup_days)


def convergence_series(
    corpus: Corpus,
    course_id: str,
    background_ids: Sequence[str] | None = None,
    k: int = 50,
    max_days: int | None = None,
    tokens: TokenTable | None = None,
) -> list[ConvergencePoint]:
    """Day-over-day stability of the top-k ranking as course data accumulates.

    For each day d >= 2 the point compares the ranking fitted on days <= d-1
    with the one fitted on days <= d: top-k set churn and the Kendall tau on
    the common top-k words.  Only course days >= 1 count.  ``tokens`` as in extract_keywords.
    """
    fit = KeywordFit(TokenTable() if tokens is None else tokens, corpus, course_id, background_ids)
    return fit.convergence(k, max_days)


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
        bg_counts += counts_from(marginal_token_mass(spec, j), per_bg)
    course_counts = counts_from(marginal_token_mass(spec, course), course_tokens)

    combined = UnigramModel.from_counts(bg_counts + course_counts)
    course_model = UnigramModel.from_counts(course_counts)
    ranking = surprise_weights(combined, course_model, sum(bg_counts.values()))

    truth = spec.course_topics[course].support
    k = len(truth)
    found = set(top_k(ranking, k)) & truth
    return len(found) / k if k else 1.0
