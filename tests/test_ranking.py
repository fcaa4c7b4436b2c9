import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from forumlens.topics import KeywordRanking, TokenTable, sequential_sum

from conftest import multi_user_thread, noise_discrimination_trial, single_post_thread

SW = frozenset()

KEYWORDS = KeywordRanking(
    tuple((f"kw{i:02d}", float(60 - i)) for i in range(1, 56))
)


class TestTopicalRank:
    def test_no_keywords_scores_zero(self):
        threads = [single_post_thread("t1", 10, "plain words only here")]
        ranked = topical_rank(KEYWORDS, threads, alpha=0.96, k=50, tokens=TokenTable(SW))
        assert ranked.entries[0][1] == 0.0

    def test_repeated_rank_one_word(self):
        threads = [single_post_thread("t1", 10, "kw01 kw01")]
        ranked = topical_rank(KEYWORDS, threads, alpha=0.5, k=50, tokens=TokenTable(SW))
        assert ranked.entries[0][1] == pytest.approx(1.0)  # 2 * 0.5**1

    def test_words_outside_top_k_weightless(self):
        weights = keyword_weights(KEYWORDS, alpha=0.5, k=50)
        assert "kw55" not in weights  # rank 55 > 50
        assert len(weights) == 50

    def test_appending_rank_one_word_increases_score(self):
        base = single_post_thread("t1", 10, "kw10 filler")
        more = single_post_thread("t2", 10, "kw10 filler kw01")
        ranked = topical_rank(KEYWORDS, [base, more], alpha=0.9, k=50, tokens=TokenTable(SW))
        scores = dict(ranked.entries)
        assert scores["t2"] > scores["t1"]

    def test_tie_break_by_created_then_id(self):
        threads = [
            single_post_thread("zz", 5, "kw01"),
            single_post_thread("aa", 9, "kw01"),
            single_post_thread("bb", 5, "kw01"),
        ]
        ranked = topical_rank(KEYWORDS, threads, alpha=0.9, k=50, tokens=TokenTable(SW))
        assert ranked.thread_ids == ("bb", "zz", "aa")

    @settings(max_examples=40)
    @given(st.permutations(["kw01", "kw02", "kw07", "other", "kw01", "words"]))
    def test_bag_of_words_invariance(self, tokens):
        thread = single_post_thread("t1", 1, " ".join(tokens))
        ranked = topical_rank(KEYWORDS, [thread], alpha=0.9, k=50, tokens=TokenTable(SW))
        baseline = topical_rank(
            KEYWORDS,
            [single_post_thread("t1", 1, "kw01 kw01 kw02 kw07 other words")],
            alpha=0.9,
            k=50,
            tokens=TokenTable(SW),
        )
        assert ranked.entries[0][1] == pytest.approx(baseline.entries[0][1])


class TestTfidfRank:
    def test_ubiquitous_term_contributes_nothing(self):
        threads = [
            single_post_thread("t1", 1, "shared unique1"),
            single_post_thread("t2", 2, "shared shared"),
        ]
        ranked = tfidf_rank(threads, threads, tokens=TokenTable(SW))
        scores = dict(ranked.entries)
        assert scores["t2"] == pytest.approx(0.0)  # only the shared term
        assert scores["t1"] == pytest.approx(math.log(2))

    def test_rare_term_formula(self):
        threads = [
            single_post_thread("t1", 1, "rare rare common"),
            single_post_thread("t2", 2, "common filler2"),
            single_post_thread("t3", 3, "common filler3"),
            single_post_thread("t4", 4, "common filler4"),
        ]
        ranked = tfidf_rank(threads, [threads[0]], tokens=TokenTable(SW))
        # rare: tf 2, idf log(4/1); common: idf log(4/4) = 0
        assert ranked.entries[0][1] == pytest.approx(2 * math.log(4))

    def test_single_document_corpus_scores_zero(self):
        threads = [single_post_thread("t1", 1, "every word once")]
        ranked = tfidf_rank(threads, threads, tokens=TokenTable(SW))
        assert ranked.entries[0][1] == 0.0


def _left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


class TestLeftToRightSums:
    """Scores add their terms left to right, whatever the Python version.

    Each case picks terms whose left-to-right sum differs from the exactly
    rounded one (math.fsum), which Python 3.12's compensated sum() can return.
    """

    def test_topical_score(self):
        # weights 0.5, 2**-54, 2**-54: each addition rounds back to 0.5
        thread = single_post_thread("t1", 1, "kw01 kw54 kw54")
        ranked = topical_rank(KEYWORDS, [thread], alpha=0.5, k=55, tokens=TokenTable(SW))
        terms = [0.5, 0.5**54, 0.5**54]
        assert _left_to_right(terms) != math.fsum(terms)
        assert ranked.entries[0][1] == _left_to_right(terms)

    def test_tfidf_score(self):
        texts = ["ff dd dd ff ee dd bb", "aa aa bb dd bb cc", "ff cc dd ee dd ee cc",
                 "ee bb cc ff aa cc ee", "ff cc ee", "ff ff"]
        threads = [single_post_thread(f"t{i}", i, text) for i, text in enumerate(texts)]
        ranked = tfidf_rank(threads, [threads[0]], tokens=TokenTable(SW))
        # tf * idf in order of first occurrence: ff (df 5), dd (df 3), ee (df 4), bb (df 3)
        terms = [2 * math.log(6 / 5), 3 * math.log(6 / 3), math.log(6 / 4), math.log(6 / 3)]
        assert _left_to_right(terms) != math.fsum(terms)
        assert ranked.entries[0][1] == _left_to_right(terms)

    def test_empty_and_signed_zero_sums(self):
        # what sum() returns on Python 3.11: float 0.0, and +0.0 from negative zeros
        assert sequential_sum([]) == 0.0 and type(sequential_sum([])) is float
        assert math.copysign(1.0, sequential_sum([-0.0, -0.0])) == 1.0


class TestHitsRank:
    def test_complete_bipartite_uniform(self):
        users = ["u1", "u2", "u3"]
        threads = [multi_user_thread(f"t{i}", i, ["xx"] * 3, users) for i in range(3)]
        ranked = hits_rank(threads)
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
            ranked = hits_rank(threads)
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
            ranked = hits_rank(threads)
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
        ranked = hits_rank(threads)
        scores = dict(ranked.entries)
        assert scores["star"] > scores["lone"]

    def test_non_convergence_flag(self):
        threads = [
            multi_user_thread("t1", 1, ["xx"], ["u1"]),
            multi_user_thread("t2", 2, ["yy", "zz"], ["u1", "u2"]),
        ]
        with pytest.warns(RuntimeWarning):
            ranked = hits_rank(threads, tolerance=0.0, max_iters=3)
        assert not ranked.converged

    def test_popularity_beats_relevance_only_under_hits(self):
        popular = multi_user_thread("pop", 1, ["noise"] * 12, [f"u{i}" for i in range(12)])
        relevant = multi_user_thread("rel", 2, ["kw01", "kw02", "kw03"], ["u99"])
        threads = [popular, relevant]
        hits = hits_rank(threads)
        topical = topical_rank(KEYWORDS, threads, alpha=0.9, k=50, tokens=TokenTable(SW))
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


class TestWindows:
    def test_rank_window_validation(self):
        with pytest.raises(InvariantViolation):
            RankWindow(0, 2)
        assert RankWindow(12, 3).window_days == 15

    def test_split_window(self):
        threads = [
            single_post_thread("w1", 0, "xx"),
            single_post_thread("q1", 12 * 86400, "yy"),
            single_post_thread("late", 30 * 86400, "zz"),
        ]
        window_threads, query_threads = split_window(threads, 0, RankWindow(12, 2))
        assert {t.thread_id for t in window_threads} == {"w1", "q1"}
        assert [t.thread_id for t in query_threads] == ["q1"]

    def test_sample_query_days_seeded(self):
        days = sample_query_days(10, 30, 5, seed=3)
        assert days == sample_query_days(10, 30, 5, seed=3)
        assert days[0] >= 10 and all(10 <= d <= 30 for d in days)
        assert 10 in days


class TestNoiseDiscrimination:
    def test_single_trial_direction(self):
        ours, tfidf, hits = noise_discrimination_trial(0)
        assert ours < tfidf
        assert ours < hits
