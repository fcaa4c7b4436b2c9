"""Surprise-weight keyword extraction and ranking-convergence diagnostics.

The surprise weight of a word w is

    gamma(w) = p_course(w) * sqrt(n) / sqrt(p_combined(w))

where p_course is the empirical mass of w in the course-specific data,
p_combined its mass in the background plus course data pooled together, and n
the background token count.  Words whose course frequency stands far above
their global frequency score high; globally common words are discounted by
the square-root denominator.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import MAX_SERIES_ROWS, Corpus, TokenTable, UnigramModel, day_indices, id_counts
# not called here (TokenTable tokenizes), but bench/tracing.py rebinds topics.thread_tokens
from .corpus import thread_tokens  # noqa: F401
from .errors import ConfigError, DomainMismatch, EmptyCorpus, InvariantViolation
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


def _gamma_order(
    word_rank: np.ndarray, p_course: np.ndarray, p_combined: np.ndarray, sqrt_n: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each word's gamma, and the order that ranks the words by it; ``word_rank`` orders ties."""
    gamma = p_course * sqrt_n / np.sqrt(p_combined)
    return gamma, np.lexsort((word_rank, -gamma))


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
    gamma, order = _gamma_order(np.arange(words.size), course.mass, p_combined, math.sqrt(background_tokens))
    return KeywordRanking(tuple(zip(words[order].tolist(), gamma[order].tolist())))


def top_k(ranking: KeywordRanking, k: int) -> list[str]:
    if k < 0:
        raise ValueError("k must be >= 0")
    return [w for w, _ in ranking.entries[:k]]


def _churn_and_tau(top_a: Sequence, top_b: Sequence) -> tuple[int, float]:
    """Items of ``top_b`` missing from ``top_a``, and the Kendall tau of both on their common items."""
    common = set(top_a) & set(top_b)
    tau = normalized_kendall_tau([w for w in top_a if w in common], [w for w in top_b if w in common])
    return len(set(top_b)) - len(common), tau


def topk_set_difference(day_a: KeywordRanking, day_b: KeywordRanking, k: int) -> int:
    """Number of words in day_b's top-k that are not in day_a's top-k."""
    return _churn_and_tau(top_k(day_a, k), top_k(day_b, k))[0]


def normalized_kendall_tau(rank_a: Sequence[str], rank_b: Sequence[str]) -> float:
    """Discordant pairs divided by C(m, 2), for two orders of the same set.

    Each word of ``rank_a`` is discordant with every earlier one that ``rank_b`` puts after it.
    """
    if set(rank_a) != set(rank_b) or len(set(rank_a)) != len(rank_a):
        raise DomainMismatch("rankings must be permutations of the same word set")
    m = len(rank_a)
    if m < 2:
        return 0.0
    pos_b = {w: i for i, w in enumerate(rank_b)}
    earlier: list[int] = []  # rank_b positions of the words walked so far, sorted
    discordant = 0
    for w in rank_a:
        p = pos_b[w]
        discordant += len(earlier) - bisect.bisect(earlier, p)
        bisect.insort(earlier, p)
    return discordant / (m * (m - 1) / 2)


def topk_kendall_tau(day_a: KeywordRanking, day_b: KeywordRanking, k: int) -> float:
    """Kendall tau between two days' top-k lists, restricted to their common words.

    Top-k membership churns from day to day; the distance is computed on the
    intersection of the two top-k sets (churn itself is reported separately by
    topk_set_difference).  Fewer than two common words gives 0.
    """
    return _churn_and_tau(top_k(day_a, k), top_k(day_b, k))[1]


# ---------------------------------------------------------------------------
# Corpus pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergencePoint:
    day: int
    new_words: int
    kendall_tau: float
    cumulative_tokens: int


class KeywordFit:
    """Surprise-weight rankings of one course against a fixed background.

    Building the fit counts the background courses in one ``tokens.counts``
    call, which totals the ids of every background row; the table keeps those
    rows, so another pipeline that reads them splits none again.  The
    course's rows are read through ``tokens.ids`` too, in day order and only
    as far as a call asks: ``keywords(d)`` reads through day ``d`` and
    ``convergence`` through its last day; the fit keeps no copy of any row.
    ``tokens`` may come filled by earlier commands (``cli.main`` shares
    a table between the commands on one corpus), and other pipelines may add
    words to it between calls, so the background vector and the word order
    are laid over the table's size when a ranking is taken, and laid out again
    only after the table has grown.  Ties are ranked by word, so the ids'
    numbering never shows.
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
        elif not background_ids or len(set(background_ids)) < len(background_ids):
            raise ConfigError(f"background {list(background_ids)} must name courses, each once")
        elif course_id in background_ids:
            raise ConfigError(f"background {list(background_ids)} must not name the course {course_id!r}")
        self.background = tokens.counts(*(corpus.course(cid).columns for cid in background_ids))
        course = corpus.course(course_id)
        days = day_indices(course.columns.created_at, course.start_date)
        order = np.argsort(days, kind="stable")
        self.course_id = course_id
        self._tokens = tokens
        self._columns = course.columns
        self._order = order
        self._days = days[order]
        self._size = -1  # the table size that background, _words and _word_rank are laid over
        self.background_tokens = int(self.background.sum())

    def _rows(self, day: int) -> list[np.ndarray]:
        """The id rows of the course threads of days <= ``day``, in day order."""
        columns, ids = self._columns, self._tokens.ids
        n = np.searchsorted(self._days, day, "right")
        return [ids(columns, row) for row in self._order[:n].tolist()]

    def _lay_out(self) -> int:
        """Lay the background and the word order over the table's size, if it grew; return the size."""
        size = len(self._tokens)
        if size != self._size:
            words = list(self._tokens.index)
            self.background = np.pad(self.background, (0, size - self.background.size))
            self._words = np.array(words, dtype=object)
            self._word_rank = np.empty(size, dtype=np.int64)
            self._word_rank[sorted(range(size), key=words.__getitem__)] = np.arange(size)
            self._size = size
        return size

    def _ranked(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The word ids of ``counts``'s support in ranking order, and their gammas."""
        support = np.flatnonzero(counts)
        c = counts[support]
        total_c = int(c.sum())
        total_comb = self.background_tokens + total_c
        gamma, order = _gamma_order(
            self._word_rank[support],
            c / total_c,
            (self.background[support] + c) / total_comb,
            math.sqrt(self.background_tokens),
        )
        return support[order], gamma[order]

    def keywords(self, warmup_days: int) -> KeywordRanking:
        """Ranking fitted on the course's threads of days <= ``warmup_days``."""
        counts = id_counts(self._rows(warmup_days), self._lay_out())
        if not counts.any():
            raise EmptyCorpus(
                f"no course tokens in the first {warmup_days} days of {self.course_id}"
            )
        if not self.background_tokens:
            raise EmptyCorpus("background courses contributed no tokens")
        ids, gamma = self._ranked(counts)
        return KeywordRanking(tuple(zip(self._words[ids].tolist(), gamma.tolist())))

    def convergence(self, k: int = 50, max_days: int | None = None) -> list[ConvergencePoint]:
        """See convergence_series; each day reads only its top ``k`` word ids."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if not self.background_tokens:
            raise EmptyCorpus("background courses contributed no tokens")
        if not self._days.size:
            raise EmptyCorpus(f"course {self.course_id} has no tokens")
        last_day = int(self._days[-1]) if max_days is None else max_days
        if max_days is None and last_day > MAX_SERIES_ROWS:  # a day's point per day up to the last
            raise InvariantViolation(self.course_id, f"its last thread falls on day {last_day}, "
                                                     f"past the {MAX_SERIES_ROWS}-row series limit")
        rows = self._rows(last_day)
        size = self._lay_out()
        cuts = np.searchsorted(self._days, np.arange(last_day + 1), "right").tolist()  # rows of days <= d
        points = []
        prev_top = None
        counts = np.zeros(size, dtype=np.int64)
        for day in range(1, last_day + 1):
            counts += id_counts(rows[cuts[day - 1] : cuts[day]], size)
            if not counts.any():
                continue
            top = self._ranked(counts)[0][:k].tolist()
            if prev_top is not None:
                new_words, tau = _churn_and_tau(prev_top, top)
                points.append(ConvergencePoint(day=day, new_words=new_words, kendall_tau=tau,
                                               cumulative_tokens=int(counts.sum())))
            prev_top = top
        return points


def extract_keywords(
    corpus: Corpus,
    course_id: str,
    background_ids: Sequence[str] | None = None,
    warmup_days: int = 10,
    tokens: TokenTable | None = None,
) -> KeywordRanking:
    """Surprise-weight ranking for one course.

    Background data is the full text of the other (or the given) courses,
    every row read through ``tokens.ids`` and totalled by ``tokens.counts``;
    course-specific data is the target course's first ``warmup_days`` days,
    and no later course thread is read.
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
