"""Surprise-weight keyword extraction and ranking-convergence diagnostics.

The surprise weight of a word w is

    gamma(w) = p_course(w) * sqrt(n) / sqrt(p_combined(w))

where p_course is the empirical mass of w in the course-specific data,
p_combined its mass in the background plus course data pooled together, and n
the background token count.  Words whose course frequency stands far above
their global frequency score high; globally common words are discounted by
the square-root denominator.

A command tokenizes each thread once, into one TokenTable that every
pipeline it runs reads (keywords, ranking and the classifiers).  The table
reads thread rows straight from each course's columns, so no text pipeline
builds Thread objects; KeywordFit counts the background once and takes the
course counts as prefix counts.
All four text scores (topical and tf-idf ranking, naive Bayes, the SVM) sum
their terms over token-id rows through one kernel here: token_sums (a weight
per token) or term_sums (count times weight per distinct id).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, ThreadColumns, UnigramModel, day_indices, default_stopwords, split_words
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
    return _churn_and_tau(top_k(day_a, k), top_k(day_b, k))[1]


# ---------------------------------------------------------------------------
# Corpus pipeline
# ---------------------------------------------------------------------------


class TokenTable:
    """Thread rows of course columns as token ids, each tokenized on first access and kept
    while the table lives.

    A row's text is its posts' texts joined by spaces (staff posts left out
    unless ``include_staff``), cut into words by ``split_words``.  Each
    distinct word is tested once against the stopwords and the length limit:
    one map takes every word seen to its id, or to -1 for a dropped word.
    Tokens are stored in their original order as int32 ids into the table's
    vocabulary ``index``, which grows in order of first appearance.  Rows are
    kept per columns object (columns hash by identity), so the table holds each
    columns it has read.  A table belongs to one command: build it there and
    let it go with it.
    """

    def __init__(self, stopwords: frozenset[str] | None = None, include_staff: bool = True):
        self.stopwords = default_stopwords() if stopwords is None else stopwords
        self.include_staff = include_staff
        self.index: dict[str, int] = {}
        self._word_ids: dict[str, int] = {}
        self._rows: dict[ThreadColumns, dict[int, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.index)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """``tokens`` as int32 ids, none dropped; new words take the next ids, in order of appearance."""
        index = self.index
        try:
            ids = list(map(index.__getitem__, tokens))
        except KeyError:
            for w in tokens:
                index.setdefault(w, len(index))
            ids = list(map(index.__getitem__, tokens))
        return np.array(ids, dtype=np.int32)

    def ids(self, columns: ThreadColumns, row: int) -> np.ndarray:
        """Thread ``row`` of ``columns`` as token ids."""
        rows = self._rows.setdefault(columns, {})
        ids = rows.get(row)
        if ids is None:
            ids = rows[row] = self._tokenize(columns, row)
        return ids

    def _tokenize(self, columns: ThreadColumns, row: int) -> np.ndarray:
        """Thread ``row`` of ``columns`` read and tokenized: the table's one path from text to ids."""
        start, end = columns.offsets[row : row + 2].tolist()
        texts = columns.texts[start:end]
        if not self.include_staff:
            texts = [t for t, staff in zip(texts, columns.is_staff[start:end].tolist()) if not staff]
        words = split_words(" ".join(texts))
        word_ids = self._word_ids
        try:
            ids = np.fromiter(map(word_ids.__getitem__, words), np.int32, len(words))
        except KeyError:
            index, stopwords = self.index, self.stopwords
            for w in words:
                if w not in word_ids:
                    dropped = len(w) < 2 or w in stopwords
                    word_ids[w] = -1 if dropped else index.setdefault(w, len(index))
            ids = np.fromiter(map(word_ids.__getitem__, words), np.int32, len(words))
        return ids[ids >= 0]


# ---------------------------------------------------------------------------
# Id rows in chunks
#
# A text score is taken over id rows, one per document, a chunk at a time.  A
# row sum lays each row's terms out in one zero-padded matrix behind a lead term
# and takes np.add.accumulate along the rows: accumulate adds left to right, and
# the padding adds +0.0, so each sum equals sequential_sum over the row's terms
# bit for bit.
# ---------------------------------------------------------------------------

# padded cells (rows x (1 + longest row)) per chunk; this bounds a chunk's tokens too
_CHUNK_CELLS = 1 << 14


class IdRows(NamedTuple):
    """Consecutive id rows as one array, each entry with its row and column."""

    rows: int
    row: np.ndarray
    col: np.ndarray
    ids: np.ndarray


def _laid_out(lengths: np.ndarray, ids: np.ndarray) -> IdRows:
    """``ids`` as consecutive rows of ``lengths`` entries."""
    row = np.repeat(np.arange(lengths.size), lengths)
    return IdRows(lengths.size, row, np.arange(ids.size) - (np.cumsum(lengths) - lengths)[row], ids)


def _chunks(rows: Sequence[np.ndarray]) -> Iterator[IdRows]:
    """``rows`` in consecutive chunks whose padded matrices fit _CHUNK_CELLS (or hold one row)."""
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    start, width = 0, 1
    for end, n in enumerate(lengths.tolist()):
        if end > start and (end - start + 1) * max(width, n + 1) > _CHUNK_CELLS:
            yield _laid_out(lengths[start:end], np.concatenate(rows[start:end]))
            start, width = end, 1
        width = max(width, n + 1)
    if start < len(rows):
        yield _laid_out(lengths[start:], np.concatenate(rows[start:]))


def _row_sums(lead: float, chunk: IdRows, terms: np.ndarray) -> np.ndarray:
    """Per row of ``chunk``, ``lead`` plus the row's ``terms`` (one per entry) added left to right."""
    matrix = np.zeros((chunk.rows, 2 + int(chunk.col.max(initial=-1))))
    matrix[:, 0] = lead
    matrix[chunk.row, chunk.col + 1] = terms
    return np.add.accumulate(matrix, axis=1)[:, -1].copy()  # not a view that keeps the matrix alive


def _distinct(chunk: IdRows) -> tuple[IdRows, np.ndarray]:
    """Each row's distinct ids in order of first occurrence, and their counts."""
    key = chunk.row.astype(np.int64) * (int(chunk.ids.max(initial=0)) + 1) + chunk.ids
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)  # keys sort by row, then by id: back to first occurrences
    first = first[order]
    return _laid_out(np.bincount(chunk.row[first], minlength=chunk.rows), chunk.ids[first]), counts[order]


def distinct_terms(rows: Sequence[np.ndarray]) -> Iterator[tuple[IdRows, np.ndarray]]:
    """Each id row's distinct ids and their counts, a chunk at a time; a chunk's sort keys are
    freed before the caller gets it, so they leave no holes between what the caller keeps."""
    return map(_distinct, _chunks(rows))


def token_sums(rows: Sequence[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Per id row, ``weights[id]`` for each of its tokens, added in token order from 0.0."""
    sums = [_row_sums(0.0, chunk, weights[chunk.ids]) for chunk in _chunks(rows)]
    return np.concatenate(sums or [[]])


def term_sums(
    rows: Sequence[np.ndarray], weight_vectors: Sequence[np.ndarray], leads: Sequence[float]
) -> list[np.ndarray]:
    """Per weight vector and id row, its lead plus count * weight for each distinct id of
    the row, added in order of first occurrence; one distinct pass serves every vector."""
    sums: list[list[np.ndarray]] = [[] for _ in weight_vectors]
    for terms, counts in distinct_terms(rows):
        for out, weights, lead in zip(sums, weight_vectors, leads):
            out.append(_row_sums(lead, terms, counts * weights[terms.ids]))
    return [np.concatenate(s or [[]]) for s in sums]


def sequential_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0; from Python 3.12 the built-in sum() compensates."""
    total = 0.0
    for v in values:
        total += v
    return float(total)


@dataclass(frozen=True)
class ConvergencePoint:
    day: int
    new_words: int
    kendall_tau: float
    cumulative_tokens: int


class KeywordFit:
    """Surprise-weight rankings of one course against a fixed background.

    Building the fit tokenizes the background and the whole course through
    ``tokens``, counts the background once, and lays the course's token ids
    out in one array in day order.  The course counts up to a day are then
    prefix counts of that array; the fit holds no state that changes.
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
        empty = np.zeros(0, dtype=np.int32)
        background = [
            tokens.ids(columns, row)
            for columns in (corpus.course(cid).columns for cid in background_ids)
            for row in range(len(columns.thread_ids))
        ]
        course = corpus.course(course_id)
        days = day_indices(course.columns.created_at, course.start_date)
        order = np.argsort(days, kind="stable")
        rows = [tokens.ids(course.columns, row) for row in order.tolist()]
        self.course_id = course_id
        self._days = days[order]
        self._ids = np.concatenate([empty, *rows])
        self._ends = np.cumsum([0, *(r.size for r in rows)])
        self._size = size = len(tokens)
        self.background = np.bincount(np.concatenate([empty, *background]), minlength=size)
        self.background_tokens = int(self.background.sum())
        words = list(tokens.index)
        self._words = np.array(words, dtype=object)
        self._word_rank = np.empty(size, dtype=np.int64)
        self._word_rank[sorted(range(size), key=words.__getitem__)] = np.arange(size)

    def _end(self, day: int) -> int:
        """The offset in ``_ids`` just past the course threads of days <= ``day``."""
        return int(self._ends[np.searchsorted(self._days, day, "right")])

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
        counts = np.bincount(self._ids[: self._end(warmup_days)], minlength=self._size)
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
        points = []
        prev_top = None
        counts = np.zeros(self._size, dtype=np.int64)
        end = self._end(0)
        for day in range(1, last_day + 1):
            start, end = end, self._end(day)
            counts += np.bincount(self._ids[start:end], minlength=self._size)
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
