"""Thread relevance ranking: keyword ranker plus tf-idf and HITS baselines.

A thread's text is the concatenation of all its posts at query time.  The
text rankers take a course's thread rows (ThreadRows), or Thread objects,
which they lay out as rows of their own.  They read the rows' token ids from
the command's TokenTable, the one text input of every pipeline, so a thread
ranked more than once is tokenized once, and sum their scores through the
topics row kernel: token_sums for the keyword ranker, term_sums (and its
distinct pass for document frequencies) for tf-idf.  HITS reads no text: it
takes Thread objects, whose participants make its graph.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Thread, ThreadRows, day_indices
# not called here (TokenTable tokenizes), but bench/tracing.py rebinds ranking.thread_tokens
from .corpus import thread_tokens  # noqa: F401
from .errors import InvariantViolation
from .topics import KeywordRanking, TokenTable, distinct_terms, term_sums, token_sums, top_k

# a course's thread rows, or Thread objects that the rankers lay out as rows of their own
Threads = ThreadRows | Sequence[Thread]


def _rows(threads: Threads) -> ThreadRows:
    return threads if isinstance(threads, ThreadRows) else ThreadRows.of(threads)


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


def _ranked(
    thread_ids: Sequence[str], created_at: Sequence[int], scores: Sequence[float], **diagnostics
) -> RankedList:
    order = sorted(zip(scores, created_at, thread_ids), key=lambda sct: (-sct[0], sct[1], sct[2]))
    return RankedList(tuple((tid, s) for s, _, tid in order), **diagnostics)


def _ranked_rows(threads: ThreadRows, scores: Sequence[float]) -> RankedList:
    return _ranked(threads.thread_ids, threads.columns.created_at[threads.rows].tolist(), scores)


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
    query_threads: Threads,
    alpha: float = 0.96,
    k: int = 50,
    tokens: TokenTable | None = None,
) -> RankedList:
    """Score each thread as the sum of its tokens' keyword weights (with repetition).

    Tokens come from ``tokens`` (default: a fresh TokenTable).
    """
    tokens = TokenTable() if tokens is None else tokens
    query = _rows(query_threads)
    rows = [tokens.ids(query.columns, row) for row in query.rows.tolist()]
    weights = np.zeros(len(tokens) + 1)  # keywords outside the table land in the last cell, which no id reads
    for w, v in keyword_weights(keywords, alpha, k).items():
        weights[tokens.index.get(w, -1)] = v
    return _ranked_rows(query, token_sums(rows, weights).tolist())


def tfidf_rank(
    window_threads: Threads,
    query_threads: Threads,
    tokens: TokenTable | None = None,
) -> RankedList:
    """Treat each thread as a document; score = sum over tokens of tf * idf.

    idf(t) = log(|D| / df(t)) with natural log, document frequencies taken
    over every thread in the window of interest.  ``tokens`` is read as in
    topical_rank.
    """
    window, query = _rows(window_threads), _rows(query_threads)
    if not window.rows.size:
        raise InvariantViolation("tfidf", "window must be nonempty")
    tokens = TokenTable() if tokens is None else tokens
    doc_ids = {}
    for threads in (window, query):
        for tid, row in zip(threads.thread_ids, threads.rows.tolist()):
            if tid not in doc_ids:
                doc_ids[tid] = tokens.ids(threads.columns, row)
    n_docs = len(doc_ids)
    distinct = [terms.ids for terms, _ in distinct_terms(list(doc_ids.values()))]
    df = np.bincount(np.concatenate([np.zeros(0, np.int32), *distinct]), minlength=len(tokens))
    idf = np.zeros(df.size)
    seen = np.flatnonzero(df)
    idf[seen] = [math.log(n_docs / c) for c in df[seen].tolist()]
    (scores,) = term_sums([doc_ids[tid] for tid in query.thread_ids], [idf], [0.0])
    return _ranked_rows(query, scores.tolist())


def hits_rank(
    window_threads: Sequence[Thread],
    tolerance: float = 1e-10,
    max_iters: int = 1000,
) -> RankedList:
    """Rank threads by HITS authority on the user-thread participation graph.

    A user is connected to a thread iff they posted in it (edges unweighted).
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
    # a frozenset iterates in hash-seed order: sorted edges make every process add in one order
    members = [sorted(t.participants) for t in window_threads]
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
    return _ranked(
        [t.thread_id for t in window_threads], [t.created_at for t in window_threads], authority.tolist(),
        converged=converged, iterations=iterations, residual=float(moved),
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
    threads: Threads, start_date: int, window: RankWindow
) -> tuple[Threads, Threads]:
    """(window threads, query threads) for a course given day-based boundaries: rows of the
    same columns for ThreadRows, lists for Thread objects."""
    rows = _rows(threads)
    day = day_indices(rows.columns.created_at[rows.rows], start_date)
    in_window = day <= window.window_days
    picks = (in_window, in_window & (day > window.warmup_days))
    if isinstance(threads, ThreadRows):
        return tuple(ThreadRows(threads.columns, threads.rows[p]) for p in picks)
    return tuple([t for t, keep in zip(threads, p.tolist()) if keep] for p in picks)


def sample_query_days(
    low: int = 10, high: int = 30, extra_days: int = 5, seed: int = 0
) -> list[int]:
    """Day ``low`` plus ``extra_days`` random distinct warmup lengths in [low, high]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pool = [d for d in range(low, high + 1)]
    picks = sorted(rng.choice(pool, size=min(extra_days, len(pool)), replace=False).tolist())
    days = sorted(set([low] + [int(d) for d in picks]))
    return days
