import dataclasses
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumlens import corpus
from forumlens.corpus import ThreadRows, TokenTable, sequential_sum, thread_tokens
from forumlens.errors import InvariantViolation
from forumlens.ranking import (
    RankWindow,
    RankedList,
    hits_rank,
    keyword_weights,
    sample_query_days,
    split_window,
    tfidf_rank,
    topical_rank,
    topk_diff,
)
from forumlens.topics import KeywordRanking

from conftest import chunk_budget, multi_user_thread, noise_discrimination_trial, single_post_thread

SW = frozenset()

KEYWORDS = KeywordRanking(
    tuple((f"kw{i:02d}", float(60 - i)) for i in range(1, 56))
)


class TestTopicalRank:
    def test_no_keywords_scores_zero(self):
        threads = ThreadRows.of([single_post_thread("t1", 10, "plain words only here")])
        ranked = topical_rank(KEYWORDS, threads, alpha=0.96, k=50, tokens=TokenTable(SW))
        assert ranked.entries[0][1] == 0.0

    def test_repeated_rank_one_word(self):
        threads = ThreadRows.of([single_post_thread("t1", 10, "kw01 kw01")])
        ranked = topical_rank(KEYWORDS, threads, alpha=0.5, k=50, tokens=TokenTable(SW))
        assert ranked.entries[0][1] == pytest.approx(1.0)  # 2 * 0.5**1

    def test_words_outside_top_k_weightless(self):
        weights = keyword_weights(KEYWORDS, alpha=0.5, k=50)
        assert "kw55" not in weights  # rank 55 > 50
        assert len(weights) == 50

    def test_appending_rank_one_word_increases_score(self):
        base = single_post_thread("t1", 10, "kw10 filler")
        more = single_post_thread("t2", 10, "kw10 filler kw01")
        ranked = topical_rank(KEYWORDS, ThreadRows.of([base, more]), alpha=0.9, k=50, tokens=TokenTable(SW))
        scores = dict(ranked.entries)
        assert scores["t2"] > scores["t1"]

    def test_tie_break_by_created_then_id(self):
        threads = ThreadRows.of([
            single_post_thread("zz", 5, "kw01"),
            single_post_thread("aa", 9, "kw01"),
            single_post_thread("bb", 5, "kw01"),
        ])
        ranked = topical_rank(KEYWORDS, threads, alpha=0.9, k=50, tokens=TokenTable(SW))
        assert ranked.thread_ids == ("bb", "zz", "aa")

    @settings(max_examples=40)
    @given(st.permutations(["kw01", "kw02", "kw07", "other", "kw01", "words"]))
    def test_bag_of_words_invariance(self, tokens):
        thread = single_post_thread("t1", 1, " ".join(tokens))
        ranked = topical_rank(KEYWORDS, ThreadRows.of([thread]), alpha=0.9, k=50, tokens=TokenTable(SW))
        baseline = topical_rank(
            KEYWORDS,
            ThreadRows.of([single_post_thread("t1", 1, "kw01 kw01 kw02 kw07 other words")]),
            alpha=0.9,
            k=50,
            tokens=TokenTable(SW),
        )
        assert ranked.entries[0][1] == pytest.approx(baseline.entries[0][1])


def _some(threads, *rows):
    """The given rows of ``threads``, rows of the same columns."""
    return dataclasses.replace(threads, rows=threads.rows[list(rows)])


class TestTfidfRank:
    def test_ubiquitous_term_contributes_nothing(self):
        threads = ThreadRows.of([
            single_post_thread("t1", 1, "shared unique1"),
            single_post_thread("t2", 2, "shared shared"),
        ])
        ranked = tfidf_rank(threads, threads, tokens=TokenTable(SW))
        scores = dict(ranked.entries)
        assert scores["t2"] == pytest.approx(0.0)  # only the shared term
        assert scores["t1"] == pytest.approx(math.log(2))

    def test_rare_term_formula(self):
        threads = ThreadRows.of([
            single_post_thread("t1", 1, "rare rare common"),
            single_post_thread("t2", 2, "common filler2"),
            single_post_thread("t3", 3, "common filler3"),
            single_post_thread("t4", 4, "common filler4"),
        ])
        ranked = tfidf_rank(threads, _some(threads, 0), tokens=TokenTable(SW))
        # rare: tf 2, idf log(4/1); common: idf log(4/4) = 0
        assert ranked.entries[0][1] == pytest.approx(2 * math.log(4))

    def test_single_document_corpus_scores_zero(self):
        threads = ThreadRows.of([single_post_thread("t1", 1, "every word once")])
        ranked = tfidf_rank(threads, threads, tokens=TokenTable(SW))
        assert ranked.entries[0][1] == 0.0

    def test_query_outside_window_is_a_document(self):
        threads = ThreadRows.of([
            single_post_thread("t1", 1, "aa bb"),
            single_post_thread("t2", 2, "aa cc"),
            single_post_thread("t3", 3, "bb dd dd aa"),
        ])
        ranked = tfidf_rank(_some(threads, 0, 1), _some(threads, 2), tokens=TokenTable(SW))
        # |window u query| = 3 documents: bb (df 2), dd (tf 2, df 1), aa (df 3)
        terms = [math.log(3 / 2), 2 * math.log(3), math.log(3 / 3)]
        assert ranked.entries == (("t3", _left_to_right(terms)),)

    def test_query_of_other_columns_refused(self):
        threads = [single_post_thread("t1", 1, "aa bb"), single_post_thread("t2", 2, "aa cc")]
        with pytest.raises(InvariantViolation):
            tfidf_rank(ThreadRows.of(threads), ThreadRows.of(threads), tokens=TokenTable(SW))


def _left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


# keyword weights alpha**1, alpha**2, alpha**53 and alpha**54, and words of no weight
_RANK_WORDS = ["kw01", "kw02", "kw53", "kw54", "aa", "bb", "cc"]


@st.composite
def _rank_inputs(draw):
    """(threads, window rows, query rows), the rows of one ThreadRows.of(threads): empty threads,
    and query rows inside and outside the window."""
    texts = draw(st.lists(st.lists(st.sampled_from(_RANK_WORDS), max_size=9), min_size=1, max_size=10))
    threads = [single_post_thread(f"t{i:02d}", i, " ".join(words)) for i, words in enumerate(texts)]
    rows = ThreadRows.of(threads)
    window = _some(rows, *range(draw(st.integers(1, len(threads)))))
    query = _some(rows, *draw(st.lists(st.sampled_from(range(len(threads))), unique=True)))
    return threads, window, query


def _oracle_topical(query, alpha):
    """Per thread, its tokens' keyword weights added left to right."""
    weights = keyword_weights(KEYWORDS, alpha, 55)
    return {t.thread_id: _left_to_right(weights.get(w, 0.0) for w in thread_tokens(t, SW)) for t in query}


def _oracle_tfidf(window, query):
    """Per thread, count * idf of its distinct words in order of first occurrence, added left to right."""
    docs = {t.thread_id: thread_tokens(t, SW) for t in window}
    for t in query:
        docs.setdefault(t.thread_id, thread_tokens(t, SW))
    df = Counter(w for words in docs.values() for w in set(words))
    idf = {w: math.log(len(docs) / n) for w, n in df.items()}
    counts = {tid: Counter(words) for tid, words in docs.items()}
    return {t.thread_id: _left_to_right(c * idf[w] for w, c in counts[t.thread_id].items()) for t in query}


class TestLeftToRightSums:
    """Scores add their terms left to right, whatever the Python version.

    Each case picks terms whose left-to-right sum differs from the exactly
    rounded one (math.fsum), which Python 3.12's compensated sum() can return.
    """

    def test_topical_score(self):
        # weights 0.5, 2**-54, 2**-54: each addition rounds back to 0.5
        thread = single_post_thread("t1", 1, "kw01 kw54 kw54")
        ranked = topical_rank(KEYWORDS, ThreadRows.of([thread]), alpha=0.5, k=55, tokens=TokenTable(SW))
        terms = [0.5, 0.5**54, 0.5**54]
        assert _left_to_right(terms) != math.fsum(terms)
        assert ranked.entries[0][1] == _left_to_right(terms)

    def test_tfidf_score(self):
        texts = ["ff dd dd ff ee dd bb", "aa aa bb dd bb cc", "ff cc dd ee dd ee cc",
                 "ee bb cc ff aa cc ee", "ff cc ee", "ff ff"]
        threads = ThreadRows.of([single_post_thread(f"t{i}", i, text) for i, text in enumerate(texts)])
        ranked = tfidf_rank(threads, _some(threads, 0), tokens=TokenTable(SW))
        # tf * idf in order of first occurrence: ff (df 5), dd (df 3), ee (df 4), bb (df 3)
        terms = [2 * math.log(6 / 5), 3 * math.log(6 / 3), math.log(6 / 4), math.log(6 / 3)]
        assert _left_to_right(terms) != math.fsum(terms)
        assert ranked.entries[0][1] == _left_to_right(terms)

    def test_empty_and_signed_zero_sums(self):
        # what sum() returns on Python 3.11: float 0.0, and +0.0 from negative zeros
        assert sequential_sum([]) == 0.0 and type(sequential_sum([])) is float
        assert math.copysign(1.0, sequential_sum([-0.0, -0.0])) == 1.0

    @settings(max_examples=150, deadline=None)
    @given(_rank_inputs(), st.sampled_from([0.5, 0.9]), st.sampled_from([1, 2, 5, 13, corpus._CHUNK_TOKENS]))
    def test_scores_across_chunks(self, inputs, alpha, budget):
        threads, window, query = inputs
        with chunk_budget(budget):  # a small budget splits the rows
            topical = topical_rank(KEYWORDS, query, alpha=alpha, k=55, tokens=TokenTable(SW))
            tfidf = tfidf_rank(window, query, tokens=TokenTable(SW))
        window, query = ([threads[r] for r in rows.rows.tolist()] for rows in (window, query))
        assert dict(topical.entries) == _oracle_topical(query, alpha)
        assert dict(tfidf.entries) == _oracle_tfidf(window, query)
        assert len(topical.entries) == len(tfidf.entries) == len(query)


def _dense_hits(window_threads, tolerance=1e-10, max_iters=1000):
    """The dense users x threads HITS that hits_rank replaced: (authority by thread id, converged)."""
    users = sorted({u for t in window_threads for u in t.participants})
    uidx = {u: i for i, u in enumerate(users)}
    n_threads = len(window_threads)
    adj = np.zeros((len(users), n_threads))
    for j, t in enumerate(window_threads):
        for u in t.participants:
            adj[uidx[u], j] = 1.0

    def normalize(v):
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
    return {t.thread_id: float(authority[j]) for j, t in enumerate(window_threads)}, converged


@st.composite
def participation_graphs(draw):
    """Threads drawn from a few participant sets, so that sets repeat and scores tie exactly.

    Sets of one user give single-user threads, and ``u0`` joins a drawn share of
    the threads, so one user is spread over many of them.
    """
    users = [f"u{i}" for i in range(draw(st.integers(1, 8)))]
    pool = draw(st.lists(st.sets(st.sampled_from(users), min_size=1, max_size=4), min_size=1, max_size=4))
    n_threads = draw(st.integers(1, 14))
    picks = draw(st.lists(st.sampled_from(pool), min_size=n_threads, max_size=n_threads))
    with_u0 = draw(st.lists(st.booleans(), min_size=n_threads, max_size=n_threads))
    created = draw(st.lists(st.integers(0, 3), min_size=n_threads, max_size=n_threads))
    threads = []
    for j, (members, spread, day) in enumerate(zip(picks, with_u0, created)):
        members = sorted(members | {"u0"} if spread else members)
        threads.append(multi_user_thread(f"t{j:02d}", day, ["xx"] * len(members), members))
    return threads


class TestHitsRank:
    def test_complete_bipartite_uniform(self):
        users = ["u1", "u2", "u3"]
        threads = [multi_user_thread(f"t{i}", i, ["xx"] * 3, users) for i in range(3)]
        ranked = hits_rank(ThreadRows.of(threads))
        scores = [s for _, s in ranked.entries]
        assert max(scores) - min(scores) <= 1e-9
        assert ranked.converged

    def test_matches_dense_svd_oracle_3x3(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            adj = rng.integers(0, 2, size=(3, 3))
            if not adj.any() or (adj.sum(axis=0) == 0).any():
                continue
            svals = np.linalg.svd(adj.astype(float), compute_uv=False)
            if svals[0] - svals[1] < 1e-3:  # principal direction not unique
                continue
            threads = []
            for j in range(3):
                users = [f"u{i}" for i in range(3) if adj[i, j]]
                threads.append(multi_user_thread(f"t{j}", j, ["xx"] * len(users), users))
            ranked = hits_rank(ThreadRows.of(threads))
            scores = np.array([dict(ranked.entries)[f"t{j}"] for j in range(3)])
            _, _, vt = np.linalg.svd(adj.astype(float))
            principal = np.abs(vt[0])
            cos = scores @ principal / (np.linalg.norm(scores) * np.linalg.norm(principal))
            assert cos >= 1 - 1e-6

    def test_matches_dense_svd_oracle_up_to_8x8(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 25:
            n_u = int(rng.integers(2, 9))
            n_t = int(rng.integers(2, 9))
            adj = (rng.random((n_u, n_t)) < 0.5).astype(float)
            if (adj.sum(axis=0) == 0).any() or (adj.sum(axis=1) == 0).any():
                continue
            # require a spectral gap so the principal direction is unique
            svals = np.linalg.svd(adj, compute_uv=False)
            if len(svals) > 1 and svals[0] - svals[1] < 1e-3:
                continue
            threads = []
            for j in range(n_t):
                users = [f"u{i}" for i in range(n_u) if adj[i, j]]
                threads.append(multi_user_thread(f"t{j:02d}", j, ["xx"] * len(users), users))
            ranked = hits_rank(ThreadRows.of(threads))
            scores = np.array([dict(ranked.entries)[f"t{j:02d}"] for j in range(n_t)])
            _, _, vt = np.linalg.svd(adj)
            principal = np.abs(vt[0])
            cos = scores @ principal / (np.linalg.norm(scores) * np.linalg.norm(principal))
            assert cos >= 1 - 1e-6
            checked += 1

    def test_isolated_thread_below_star(self):
        threads = [
            multi_user_thread("star", 1, ["xx", "yy"], ["u1", "u2"]),
            multi_user_thread("lone", 2, ["zz"], ["u3"]),
        ]
        ranked = hits_rank(ThreadRows.of(threads))
        scores = dict(ranked.entries)
        assert scores["star"] > scores["lone"]

    def test_non_convergence_flag(self):
        threads = [
            multi_user_thread("t1", 1, ["xx"], ["u1"]),
            multi_user_thread("t2", 2, ["yy", "zz"], ["u1", "u2"]),
        ]
        with pytest.warns(RuntimeWarning):
            ranked = hits_rank(ThreadRows.of(threads), tolerance=0.0, max_iters=3)
        assert not ranked.converged

    def test_star_converges_below_tolerance(self):
        threads = [multi_user_thread(f"t{j}", j, ["xx"], ["hub"]) for j in range(5)]
        ranked = hits_rank(ThreadRows.of(threads), tolerance=1e-10)
        assert ranked.converged
        assert ranked.iterations == 2  # the hub moves from 0 to 1, then nothing moves
        assert ranked.residual < 1e-10

    def test_unconverged_reports_iterations_and_residual(self):
        threads = [
            multi_user_thread("t1", 1, ["xx"], ["u1"]),
            multi_user_thread("t2", 2, ["yy", "zz"], ["u1", "u2"]),
        ]
        assert hits_rank(ThreadRows.of(threads)).iterations > 1
        with pytest.warns(RuntimeWarning, match=r"within 1 iterations: residual 1, tolerance 1e-10"):
            ranked = hits_rank(ThreadRows.of(threads), tolerance=1e-10, max_iters=1)
        assert not ranked.converged
        assert ranked.iterations == 1
        assert ranked.residual >= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(participation_graphs())
    def test_matches_dense_oracle(self, threads):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # slow graphs: compare the last iterates
            expected, converged = _dense_hits(threads)
            ranked = hits_rank(ThreadRows.of(threads))
        assert ranked.converged == converged
        scores = dict(ranked.entries)
        for tid, score in expected.items():
            assert math.isclose(scores[tid], score, rel_tol=1e-12, abs_tol=0.0)
        position = {tid: i for i, tid in enumerate(ranked.thread_ids)}
        for a, score_a in expected.items():
            for b, score_b in expected.items():
                if score_a - score_b > 1e-9:
                    assert position[a] < position[b]
        # equal participant sets add the same terms in the same order: an exact tie
        by_set = {}
        for t in threads:
            by_set.setdefault(t.participants, []).append(scores[t.thread_id])
        assert all(len(set(tied)) == 1 for tied in by_set.values())

    def test_sparse_graph_memory(self):
        # 4,000 threads x 4,000 users on a ring of 8,000 edges: the dense matrix alone is 128 MB
        n = 4000
        threads = ThreadRows.of([
            multi_user_thread(f"t{j:04d}", j, ["xx", "xx"], [f"u{j:04d}", f"u{(j + 1) % n:04d}"])
            for j in range(n)
        ])
        tracemalloc.start()
        try:
            ranked = hits_rank(threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ranked.converged
        assert peak < 8 * 2**20

    def test_popularity_beats_relevance_only_under_hits(self):
        popular = multi_user_thread("pop", 1, ["noise"] * 12, [f"u{i}" for i in range(12)])
        relevant = multi_user_thread("rel", 2, ["kw01", "kw02", "kw03"], ["u99"])
        rows = ThreadRows.of([popular, relevant])
        hits = hits_rank(rows)
        topical = topical_rank(KEYWORDS, rows, alpha=0.9, k=50, tokens=TokenTable(SW))
        assert hits.thread_ids.index("pop") < hits.thread_ids.index("rel")
        assert topical.thread_ids.index("rel") < topical.thread_ids.index("pop")


class TestTopkDiff:
    def _ranked(self, ids):
        return RankedList(tuple((tid, float(len(ids) - i)) for i, tid in enumerate(ids)))

    def test_identical(self):
        r = self._ranked(["t1", "t2", "t3"])
        assert topk_diff(r, r, 2) == (frozenset(), frozenset())

    def test_disjoint(self):
        a = self._ranked(["t1", "t2"])
        b = self._ranked(["t3", "t4"])
        d1, d2 = topk_diff(a, b, 2)
        assert (len(d1), len(d2)) == (2, 2)

    @settings(max_examples=60)
    @given(st.permutations(list("abcdefgh")), st.permutations(list("abcdefgh")), st.integers(1, 8))
    def test_diff_sizes_equal(self, ours, base, k):
        d1, d2 = topk_diff(self._ranked(list(ours)), self._ranked(list(base)), k)
        assert len(d1) == len(d2)

    def test_k_beyond_length_uses_full_lists(self):
        a = self._ranked(["t1", "t2"])
        b = self._ranked(["t2", "t3"])
        d1, d2 = topk_diff(a, b, 10)
        assert d1 == frozenset({"t1"}) and d2 == frozenset({"t3"})

    def test_negative_k_rejected(self):
        # a negative slice bound would keep all but the last |k| threads
        with pytest.raises(ValueError):
            topk_diff(self._ranked(["t1", "t2"]), self._ranked(["t2", "t1"]), -1)


class TestWindows:
    def test_rank_window_validation(self):
        with pytest.raises(InvariantViolation):
            RankWindow(0, 2)
        assert RankWindow(12, 3).window_days == 15

    def test_split_window(self):
        threads = ThreadRows.of([
            single_post_thread("w1", 0, "xx"),
            single_post_thread("q1", 12 * 86400, "yy"),
            single_post_thread("late", 30 * 86400, "zz"),
        ])
        window_threads, query_threads = split_window(threads, 0, RankWindow(12, 2))
        assert set(window_threads.thread_ids) == {"w1", "q1"}
        assert query_threads.thread_ids == ["q1"]

    def test_sample_query_days_seeded(self):
        days = sample_query_days(10, 30, 5, seed=3)
        assert days == sample_query_days(10, 30, 5, seed=3)
        assert days[0] >= 10 and all(10 <= d <= 30 for d in days)
        assert 10 in days


def _query_days_from_list(low, high, extra_days, seed):
    """The list form: a choice from every day in [low, high]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pool = [d for d in range(low, high + 1)]
    picks = sorted(rng.choice(pool, size=min(extra_days, len(pool)), replace=False).tolist())
    return sorted(set([low] + [int(d) for d in picks]))


class TestSampleQueryDays:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 50),
        st.one_of(st.integers(0, 60), st.integers(9_950, 10_050), st.integers(20_000, 30_000)),
        st.integers(0, 12),
        st.integers(0, 2**32),
    )
    def test_matches_list_oracle(self, low, span, extra_days, seed):
        # pools on both sides of the size where numpy changes its sampling method
        high = low + span - 1
        assert sample_query_days(low, high, extra_days, seed) == _query_days_from_list(
            low, high, extra_days, seed
        )

    def test_memory_independent_of_high(self):
        sample_query_days(1, 2, 1)  # numpy's first choice() allocates about 1 MB once
        tracemalloc.start()
        try:
            days = sample_query_days(10, 10**12, 5, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(days) == 6 and days[0] == 10 and all(10 <= d <= 10**12 for d in days)
        assert peak < 64 * 2**10


class TestTokenizeOnce:
    def test_rankers_share_one_tokenization(self, calls):
        texts = ["kw01 aa", "bb kw02", "aa bb cc", "kw01 kw01", "cc dd"]
        threads = ThreadRows.of([single_post_thread(f"t{i}", i, text) for i, text in enumerate(texts)])
        table = TokenTable(SW)
        topical_rank(KEYWORDS, threads, alpha=0.9, k=50, tokens=table)
        tfidf_rank(threads, threads, tokens=table)
        tfidf_rank(threads, _some(threads, 0, 1), tokens=table)
        assert calls == {f"t{i}": 1 for i in range(5)}
        assert list(table._rows) == [(threads.columns, True)]  # one store: the columns' all-posts texts


class TestNoiseDiscrimination:
    def test_single_trial_direction(self):
        ours, tfidf, hits = noise_discrimination_trial(0)
        assert ours < tfidf
        assert ours < hits
