"""Thread relevance ranking: keyword ranker plus tf-idf and HITS baselines.

A thread's text is the concatenation of all its posts at query time.  The
text rankers read it from the command's TokenTable, the one text input of
every pipeline, so a thread ranked more than once is tokenized once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Thread, day_index
# not called here (TokenTable tokenizes), but bench/tracing.py rebinds ranking.thread_tokens
from .corpus import thread_tokens  # noqa: F401
from .errors import InvariantViolation
from .topics import KeywordRanking, TokenTable, first_counts, sequential_sum, top_k


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

    Ties are broken by earlier creation time, then by thread id; the
    ``converged`` flag is only meaningful for iterative rankers.
    """

    entries: tuple[tuple[str, float], ...]
    converged: bool = True

    def __post_init__(self):
        scores = [s for _, s in self.entries]
        if any(b > a + 1e-12 for a, b in zip(scores, scores[1:])):
            raise InvariantViolation("ranked list", "scores must be non-increasing")

    @property
    def thread_ids(self) -> tuple[str, ...]:
        return tuple(tid for tid, _ in self.entries)

    def top(self, k: int) -> list[str]:
        return list(self.thread_ids[:k])


def _ranked(threads: Sequence[Thread], scores: dict[str, float], converged: bool = True) -> RankedList:
    order = sorted(threads, key=lambda t: (-scores[t.thread_id], t.created_at, t.thread_id))
    return RankedList(tuple((t.thread_id, scores[t.thread_id]) for t in order), converged)


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
    query_threads: Sequence[Thread],
    alpha: float = 0.96,
    k: int = 50,
    tokens: TokenTable | None = None,
) -> RankedList:
    """Score each thread as the sum of its tokens' keyword weights (with repetition).

    Tokens come from ``tokens`` (default: a fresh TokenTable).
    """
    tokens = TokenTable() if tokens is None else tokens
    rows = [tokens.ids(t) for t in query_threads]
    weights = np.zeros(len(tokens))
    for w, weight in keyword_weights(keywords, alpha, k).items():
        i = tokens.index.get(w)
        if i is not None:
            weights[i] = weight
    # a left-to-right sum in token order, not np.sum's pairwise one, fixes each score's last bit
    scores = {t.thread_id: sequential_sum(weights[ids].tolist()) for t, ids in zip(query_threads, rows)}
    return _ranked(query_threads, scores)


def tfidf_rank(
    window_threads: Sequence[Thread],
    query_threads: Sequence[Thread],
    tokens: TokenTable | None = None,
) -> RankedList:
    """Treat each thread as a document; score = sum over tokens of tf * idf.

    idf(t) = log(|D| / df(t)) with natural log, document frequencies taken
    over every thread in the window of interest.  ``tokens`` is read as in
    topical_rank.
    """
    if not window_threads:
        raise InvariantViolation("tfidf", "window must be nonempty")
    tokens = TokenTable() if tokens is None else tokens
    doc_ids = {t.thread_id: tokens.ids(t) for t in window_threads}
    for t in query_threads:
        if t.thread_id not in doc_ids:
            doc_ids[t.thread_id] = tokens.ids(t)
    n_docs = len(doc_ids)
    df = np.bincount(
        np.concatenate([np.unique(ids) for ids in doc_ids.values()]), minlength=len(tokens)
    )
    idf = np.zeros(df.size)
    seen = np.flatnonzero(df)
    idf[seen] = [math.log(n_docs / c) for c in df[seen].tolist()]
    scores = {}
    for t in query_threads:
        words, counts = first_counts(doc_ids[t.thread_id])
        scores[t.thread_id] = sequential_sum((counts * idf[words]).tolist())
    return _ranked(query_threads, scores)


def hits_rank(
    window_threads: Sequence[Thread],
    tolerance: float = 1e-10,
    max_iters: int = 1000,
) -> RankedList:
    """Rank threads by HITS authority on the user-thread participation graph.

    A user is connected to a thread iff they posted in it (edges unweighted).
    Authorities start uniform; each round sets every hub to the sum of its
    neighbors' weights, l2-normalizes, then does the same for authorities.
    Iteration stops when both vectors move less than ``tolerance`` in l2; if
    ``max_iters`` is hit first, the last iterate is returned with
    ``converged=False`` and a warning.
    """
    if not window_threads:
        raise InvariantViolation("hits", "graph must be nonempty")
    users = sorted({u for t in window_threads for u in t.participants})
    uidx = {u: i for i, u in enumerate(users)}
    n_threads = len(window_threads)
    # adjacency: users x threads
    adj = np.zeros((len(users), n_threads))
    for j, t in enumerate(window_threads):
        for u in t.participants:
            adj[uidx[u], j] = 1.0

    def normalize(v: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(v)
        return v / norm if norm > 0 else v

    authority = np.full(n_threads, 1.0 / math.sqrt(n_threads))
    hub = np.zeros(len(users))
    converged = False
    for _ in range(max_iters):
        new_hub = normalize(adj @ authority)
        new_authority = normalize(adj.T @ new_hub)
        moved = max(np.linalg.norm(new_hub - hub), np.linalg.norm(new_authority - authority))
        hub, authority = new_hub, new_authority
        if moved < tolerance:
            converged = True
            break
    if not converged:
        warnings.warn(f"HITS did not converge within {max_iters} iterations", RuntimeWarning)
    scores = {t.thread_id: float(authority[j]) for j, t in enumerate(window_threads)}
    return _ranked(window_threads, scores, converged)


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
    threads: Sequence[Thread], start_date: int, window: RankWindow
) -> tuple[list[Thread], list[Thread]]:
    """(window threads, query threads) for a course given day-based boundaries."""
    window_threads = []
    query_threads = []
    for t in threads:
        day = day_index(t.created_at, start_date)
        if day <= window.window_days:
            window_threads.append(t)
            if day > window.warmup_days:
                query_threads.append(t)
    return window_threads, query_threads


def sample_query_days(
    low: int = 10, high: int = 30, extra_days: int = 5, seed: int = 0
) -> list[int]:
    """Day ``low`` plus ``extra_days`` random distinct warmup lengths in [low, high]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pool = [d for d in range(low, high + 1)]
    picks = sorted(rng.choice(pool, size=min(extra_days, len(pool)), replace=False).tolist())
    days = sorted(set([low] + [int(d) for d in picks]))
    return days
