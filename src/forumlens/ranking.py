"""Thread relevance ranking: keyword ranker plus tf-idf and HITS baselines.

A thread's text is the concatenation of all its posts at query time.  Every
ranker and split_window take thread rows (ThreadRows) only; a caller with
Thread objects wraps them once with ThreadRows.of and passes the same rows to
every ranker.  The text rankers read the rows' token ids from the command's
TokenTable, the one text input of every pipeline, so a thread ranked more
than once is tokenized once, and sum their scores through the corpus row
kernel: token_sums for the keyword ranker, term_sums (and its distinct pass
for document frequencies) for tf-idf.  HITS reads no text: the rows' author
codes make its graph.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import ThreadRows, TokenTable, day_indices, distinct_terms, id_counts, term_sums, token_sums
# not called here (TokenTable tokenizes), but bench/tracing.py rebinds ranking.thread_tokens
from .corpus import thread_tokens  # noqa: F401
from .errors import InvariantViolation
from .topics import KeywordRanking, top_k

@dataclass(frozen=True)
class RankWindow:
    """Days used to fit keywords (warmup) and days whose threads get ranked."""

    warmup_days: int
    query_days: int

    def __post_init__(self):
        if self.warmup_days <= 0 or self.query_days <= 0:
            raise InvariantViolation("window", "warmup and query days must be positive")

    @property
    def window_days(self) -> int:
        return self.warmup_days + self.query_days


@dataclass(frozen=True)
class RankedList:
    """Thread ids with non-increasing scores.

    Ties are broken by earlier creation time, then by thread id.  The
    ``converged`` flag, the ``iterations`` run and the final ``residual`` (the
    larger l2 move of the last round) are only meaningful for iterative rankers.
    """

    entries: tuple[tuple[str, float], ...]
    converged: bool = True
    iterations: int = 0
    residual: float = 0.0

    def __post_init__(self):
        scores = [s for _, s in self.entries]
        if any(b > a + 1e-12 for a, b in zip(scores, scores[1:])):
            raise InvariantViolation("ranked list", "scores must be non-increasing")

    @property
    def thread_ids(self) -> tuple[str, ...]:
        return tuple(tid for tid, _ in self.entries)

    def top(self, k: int) -> list[str]:
        if k < 0:
            raise ValueError("k must be >= 0")
        return list(self.thread_ids[:k])


def _ranked_rows(threads: ThreadRows, scores: Sequence[float], **diagnostics) -> RankedList:
    created_at = threads.columns.created_at[threads.rows].tolist()
    order = sorted(zip(scores, created_at, threads.thread_ids), key=lambda sct: (-sct[0], sct[1], sct[2]))
    return RankedList(tuple((tid, s) for s, _, tid in order), **diagnostics)


# ---------------------------------------------------------------------------
# Rankers
# ---------------------------------------------------------------------------


def keyword_weights(keywords: KeywordRanking, alpha: float = 0.96, k: int = 50) -> dict[str, float]:
    """Weight alpha**r(w) for the top-k keywords, rank r starting at 1.

    Words outside the top-k have infinite rank, i.e. weight zero.
    """
    if not 0.0 < alpha < 1.0:
        raise InvariantViolation("rank", "alpha must be in (0, 1)")
    return {w: alpha**r for r, w in enumerate(top_k(keywords, k), start=1)}


def topical_rank(
    keywords: KeywordRanking,
    query_threads: ThreadRows,
    alpha: float = 0.96,
    k: int = 50,
    tokens: TokenTable | None = None,
) -> RankedList:
    """Score each thread as the sum of its tokens' keyword weights (with repetition).

    Tokens come from ``tokens`` (default: a fresh TokenTable).
    """
    tokens = TokenTable() if tokens is None else tokens
    rows = [tokens.ids(query_threads.columns, row) for row in query_threads.rows.tolist()]
    weights = np.zeros(len(tokens) + 1)  # keywords outside the table land in the last cell, which no id reads
    for w, v in keyword_weights(keywords, alpha, k).items():
        weights[tokens.index.get(w, -1)] = v
    return _ranked_rows(query_threads, token_sums(rows, weights).tolist())


def tfidf_rank(
    window_threads: ThreadRows,
    query_threads: ThreadRows,
    tokens: TokenTable | None = None,
) -> RankedList:
    """Treat each thread as a document; score = sum over tokens of tf * idf.

    idf(t) = log(|D| / df(t)) with natural log, where the documents D are the
    distinct rows of the window and the query, which must share columns.
    ``tokens`` is read as in topical_rank.
    """
    window, query = window_threads, query_threads
    if not window.rows.size:
        raise InvariantViolation("tfidf", "window must be nonempty")
    if query.columns is not window.columns:
        raise InvariantViolation("tfidf", "query rows must be rows of the window's columns")
    tokens = TokenTable() if tokens is None else tokens
    docs = np.union1d(window.rows, query.rows).tolist()
    n_docs = len(docs)
    distinct = [terms.ids for terms, _ in distinct_terms([tokens.ids(window.columns, r) for r in docs])]
    df = id_counts(distinct, len(tokens))
    idf = np.zeros(df.size)
    seen = np.flatnonzero(df)
    idf[seen] = [math.log(n_docs / c) for c in df[seen].tolist()]
    (scores,) = term_sums([tokens.ids(query.columns, r) for r in query.rows.tolist()], [idf], [0.0])
    return _ranked_rows(query, scores.tolist())


def hits_rank(
    window_threads: ThreadRows,
    tolerance: float = 1e-10,
    max_iters: int = 1000,
) -> RankedList:
    """Rank threads by HITS authority on the user-thread participation graph.

    A user is connected to a thread iff they posted in it (edges unweighted);
    users are the author names of the rows' posts.
    Authorities start uniform; each round sets every hub to the sum of its
    neighbors' weights, l2-normalizes, then does the same for authorities.
    The graph is its edge list, one (user, thread) pair per participant, so
    each half-step is one weighted bincount: O(edges) time and memory.
    Iteration stops when both vectors move less than ``tolerance`` in l2; if
    ``max_iters`` is hit first, the last iterate is returned with
    ``converged=False`` and a warning.  The result records the rounds run and
    the last move.
    """
    if not window_threads:
        raise InvariantViolation("hits", "graph must be nonempty")
    columns, rows = window_threads.columns, window_threads.rows.tolist()
    names, authors, ends = columns.author_names, columns.authors.tolist(), columns.offsets.tolist()
    # edges sorted by name make every process, and every parse's author codes, add in one order
    members = [sorted({names[a] for a in authors[ends[r]:ends[r + 1]]}) for r in rows]
    users = sorted({u for m in members for u in m})
    uidx = {u: i for i, u in enumerate(users)}
    n_users, n_threads = len(users), len(window_threads)
    edge_users = np.fromiter((uidx[u] for m in members for u in m), dtype=np.intp)
    edge_threads = np.repeat(np.arange(n_threads), [len(m) for m in members])

    def normalize(v: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(v)
        return v / norm if norm > 0 else v

    authority = np.full(n_threads, 1.0 / math.sqrt(n_threads))
    hub = np.zeros(n_users)
    converged = False
    iterations, moved = 0, math.inf
    for iterations in range(1, max_iters + 1):
        new_hub = normalize(np.bincount(edge_users, weights=authority[edge_threads], minlength=n_users))
        new_authority = normalize(
            np.bincount(edge_threads, weights=new_hub[edge_users], minlength=n_threads)
        )
        moved = max(np.linalg.norm(new_hub - hub), np.linalg.norm(new_authority - authority))
        hub, authority = new_hub, new_authority
        if moved < tolerance:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"HITS did not converge within {iterations} iterations: "
            f"residual {moved:.3g}, tolerance {tolerance:.3g}",
            RuntimeWarning,
        )
    return _ranked_rows(
        window_threads, authority.tolist(), converged=converged, iterations=iterations, residual=float(moved)
    )


def topk_diff(
    ours: RankedList, baseline: RankedList, k: int
) -> tuple[frozenset[str], frozenset[str]]:
    """Set differences (D1, D2) of the two top-k sets.

    When k exceeds a list's length its full id set is used.  Whenever both
    lists have at least k entries, |D1| = |D2|.
    """
    ours_top = frozenset(ours.top(k))
    base_top = frozenset(baseline.top(k))
    return ours_top - base_top, base_top - ours_top


# ---------------------------------------------------------------------------
# Window selection and the discrimination experiment
# ---------------------------------------------------------------------------


def split_window(
    threads: ThreadRows, start_date: int, window: RankWindow
) -> tuple[ThreadRows, ThreadRows]:
    """(window rows, query rows) of ``threads`` for a course given day-based boundaries,
    both rows of the same columns."""
    day = day_indices(threads.columns.created_at[threads.rows], start_date)
    in_window = day <= window.window_days
    query = in_window & (day > window.warmup_days)
    return replace(threads, rows=threads.rows[in_window]), replace(threads, rows=threads.rows[query])


def sample_query_days(
    low: int = 10, high: int = 30, extra_days: int = 5, seed: int = 0
) -> list[int]:
    """Day ``low`` plus ``extra_days`` random distinct warmup lengths in [low, high], drawn
    by index from the pool size, in memory independent of ``high``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pool = max(high - low + 1, 0)
    picks = rng.choice(pool, size=min(extra_days, pool), replace=False) + low
    return sorted(set([low] + picks.tolist()))
