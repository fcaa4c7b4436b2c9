"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) in
addition to asserting, and checks its own runtime budget.
"""

import dataclasses
import hashlib
import itertools
import json
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.special import stdtrit

from forumlens.classify import (
    plane_and_svm_errors,
    small_sample_fpr_trials,
)
from forumlens.cli import main as cli_main
from forumlens.corpus import CourseFactors, ThreadRows, TokenTable, UnigramModel
from forumlens.genmodel import adversarial_spec, make_spec, sample_corpus
from forumlens.ranking import tfidf_rank, topical_rank
from forumlens.stats import (
    ActivitySeries,
    PanelTarget,
    assemble_panel,
    neighborhood_counts,
    ols,
    qq_points,
    shapiro_wilk,
    smalltalk_moving_average,
    trim_and_diff,
    two_sample_tests,
)
from forumlens.topics import (
    KeywordRanking,
    convergence_series,
    support_recovery_recall,
    surprise_weights,
)

from conftest import (
    corpus_from_threads,
    noise_discrimination_trial,
    simulate_decline_counts,
    single_post_thread,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


class TestCriterion1SmallSampleClassifiers:
    """Tiny per-course training breaks NB while the plane and SVM stay clean."""

    def test_nb_fpr_and_linear_separators(self):
        start = time.monotonic()
        spec = adversarial_spec(10_000)

        trials = small_sample_fpr_trials(spec, course=0, trials=200, eval_negatives=100, seed=0)
        high = sum(1 for f in trials if f is not None and f > 0.9)
        frac = high / len(trials)

        plane_err, svm_err, _ = plane_and_svm_errors(
            spec, course=0, n_eval=10_000, svm_training_threads=300, seed=1
        )
        elapsed = time.monotonic() - start
        ok = frac >= 0.2 and plane_err <= 0.01 and svm_err <= 0.01 and elapsed <= 300
        _report(
            1,
            ok,
            f"NB FPR>0.9 in {frac:.0%} of 200 trials (need >=20%); "
            f"plane error {plane_err:.4f}, SVM error {svm_err:.4f} (need <=1%); "
            f"{elapsed:.1f}s (budget 300s)",
        )
        assert frac >= 0.2
        assert plane_err <= 0.01
        assert svm_err <= 0.01
        assert elapsed <= 300


class TestCriterion2SupportRecovery:
    """Surprise-weight top-50 recovers the planted topic support."""

    def test_recall_over_20_seeds(self):
        start = time.monotonic()
        spec = make_spec(
            n=10_000, num_courses=2, epsilon=0.3, p=0.5, s=200, support_size=50, seed=3
        )
        recalls = [
            support_recovery_recall(
                spec,
                course=0,
                background_courses=[1],
                background_tokens=1_000_000,
                course_tokens=100_000,
                seed=seed,
            )
            for seed in range(20)
        ]
        elapsed = time.monotonic() - start
        ok = min(recalls) >= 0.95 and elapsed <= 120
        _report(
            2,
            ok,
            f"top-50 recall min {min(recalls):.3f} over 20 seeds (need >=0.95); "
            f"{elapsed:.1f}s (budget 120s)",
        )
        assert min(recalls) >= 0.95
        assert elapsed <= 120


class TestCriterion3RankingConvergence:
    """Consecutive-day keyword rankings stabilize below 2% Kendall tau."""

    def test_kendall_tau_after_warmup(self):
        start = time.monotonic()
        n = 20_000
        day_threads = 100
        worst = 0.0
        for seed in (11, 12, 13):
            spec = make_spec(
                n=n, num_courses=2, epsilon=0.3, p=0.4, s=200, support_size=50,
                topic_weights=np.linspace(1.0, 3.0, 50), seed=seed,
            )
            corpus = sample_corpus(spec, [1500, 1000], threads_per_day=day_threads)
            points = convergence_series(
                corpus, "course00", ["course01"], k=50, tokens=TokenTable(frozenset())
            )
            day_tokens = day_threads * spec.s
            late = [
                p.kendall_tau
                for p in points
                if p.cumulative_tokens - day_tokens >= 10 * n
            ]
            assert late
            worst = max(worst, max(late))
        elapsed = time.monotonic() - start
        ok = worst < 0.02 and elapsed <= 60
        _report(
            3,
            ok,
            f"max Kendall tau {worst:.4f} once cumulative tokens >= 10x vocab "
            f"(need <0.02); {elapsed:.1f}s (budget 60s)",
        )
        assert worst < 0.02
        assert elapsed <= 60


class TestCriterion4RankingDiscrimination:
    """The keyword ranker admits fewer irrelevant threads than the baselines."""

    def test_noise_injection_trials(self):
        start = time.monotonic()
        beats_tfidf = beats_hits = 0
        trials = 100
        for seed in range(trials):
            ours, tfidf, hits = noise_discrimination_trial(seed)
            beats_tfidf += ours < tfidf
            beats_hits += ours < hits
        elapsed = time.monotonic() - start
        ok = beats_tfidf >= 90 and beats_hits >= 95 and elapsed <= 180
        _report(
            4,
            ok,
            f"topical admitted fewer irrelevant threads than tf-idf in "
            f"{beats_tfidf}/100 (need >=90) and than HITS in {beats_hits}/100 "
            f"(need >=95); {elapsed:.1f}s (budget 180s)",
        )
        assert beats_tfidf >= 90
        assert beats_hits >= 95
        assert elapsed <= 180


class TestCriterion5StatisticsOracles:
    def test_ols_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(40):
            n = int(rng.integers(12, 80))
            p = int(rng.integers(2, 11))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
            y = rng.normal(size=n)
            fit = ols(X, y)
            beta = np.linalg.solve(X.T @ X, X.T @ y)
            worst = max(worst, float(np.abs(fit.coefficients - beta).max()))
        ok = worst <= 1e-8
        _report(5, ok, f"OLS vs normal equations max |delta| = {worst:.2e} (need <=1e-8)")
        assert worst <= 1e-8

    def test_mann_whitney_matches_enumeration(self):
        rng = np.random.default_rng(17)

        def enumerate_u(g1, g2):
            def u_of(a, b):
                return sum(
                    1.0 if x > y else 0.5 if x == y else 0.0 for x in a for y in b
                )

            pooled = list(g1) + list(g2)
            u_obs = u_of(g1, g2)
            total = ge = 0
            for combo in itertools.combinations(range(len(pooled)), len(g1)):
                chosen = [pooled[i] for i in combo]
                rest = [pooled[i] for i in range(len(pooled)) if i not in combo]
                total += 1
                if u_of(chosen, rest) >= u_obs - 1e-9:
                    ge += 1
            return u_obs, ge / total

        checked = 0
        for n1 in range(2, 6):
            for n2 in range(2, 6):
                for _ in range(3):
                    g1 = rng.integers(0, 5, size=n1).tolist()
                    g2 = rng.integers(0, 5, size=n2).tolist()
                    res = two_sample_tests(g1, g2)
                    u, p = enumerate_u(g1, g2)
                    assert res.u_statistic == pytest.approx(u)
                    assert res.u_pvalue == pytest.approx(p)
                    checked += 1
        _report(5, True, f"Mann-Whitney U and p match enumeration on {checked} instances <=5x5")

    def test_shapiro_matches_reference_implementation(self):
        rng = np.random.default_rng(21)
        worst_w = worst_p = 0.0
        for i in range(20):
            n = int(rng.integers(5, 800))
            base = rng.normal(size=n)
            if i % 3 == 1:
                base = np.exp(base)  # skewed
            if i % 3 == 2:
                base = np.concatenate([base, base[: n // 2] + 6])  # bimodal
            mine = shapiro_wilk(base)
            ref = scipy_stats.shapiro(base)
            worst_w = max(worst_w, abs(mine.statistic - ref.statistic))
            worst_p = max(worst_p, abs(mine.pvalue - ref.pvalue))
        ok = worst_w <= 1e-3 and worst_p <= 1e-2
        _report(
            5,
            ok,
            f"Shapiro-Wilk vs reference on 20 vectors: max |dW| = {worst_w:.2e} "
            f"(need <=1e-3), max |dp| = {worst_p:.2e}",
        )
        assert worst_w <= 1e-3
        assert worst_p <= 1e-2

    def test_panel_coefficient_coverage(self):
        rng = np.random.default_rng(42)
        series, factors = {}, {}
        for i in range(24):
            cid = f"c{i:02d}"
            dur = int(rng.integers(30, 70))
            factors[cid] = CourseFactors(
                int(rng.integers(0, 2)), int(rng.integers(0, 2)), float(rng.uniform(2, 30)),
                dur, int(rng.integers(0, 2)), int(rng.integers(0, 900)), int(rng.integers(0, 20)),
            )
            y = tuple(int(v) for v in rng.integers(0, 300, size=dur))
            z = tuple(int(v) for v in rng.integers(1, 150, size=dur))
            series[cid] = ActivitySeries(cid, y, z, float(np.median(y[:3])), int(z[0] + z[1]))
        X, _, terms, _ = assemble_panel(series, factors, PanelTarget.Y)
        beta = rng.normal(0, 2, size=X.shape[1])
        covered = total = 0
        for _ in range(100):
            y = X @ beta + rng.normal(0, 25.0, size=X.shape[0])
            fit = ols(X, y, terms)
            crit = stdtrit(fit.df_resid, 0.995)
            hit = (beta >= fit.coefficients - crit * fit.standard_errors) & (
                beta <= fit.coefficients + crit * fit.standard_errors
            )
            covered += int(hit.sum())
            total += len(beta)
        coverage = covered / total
        ok = coverage >= 0.97
        _report(5, ok, f"99% CI coverage over synthetic panels: {coverage:.4f} (need >=0.97)")
        assert coverage >= 0.97


class TestCriterion6GaussianIncrementCheck:
    def test_simulated_panels_pass_screen(self):
        rng = np.random.default_rng(0)
        passes = 0
        pooled = []
        n_courses = 73
        for _ in range(n_courses):
            mu = rng.uniform(-8, -2)
            sigma = rng.uniform(5, 12)
            days = int(rng.integers(40, 61))
            y = simulate_decline_counts(rng, days, mu, sigma)
            trimmed = trim_and_diff(y, 0.03)
            if shapiro_wilk(trimmed).pvalue >= 0.01:
                passes += 1
            raw = np.diff(y)
            pooled.extend((raw - raw.mean()) / raw.std(ddof=1))
        rate = passes / n_courses
        pts = qq_points(np.asarray(pooled), 0.03)
        r = np.corrcoef(pts[:, 0], pts[:, 1])[0, 1]
        r2 = r * r
        ok = rate >= 0.95 and r2 >= 0.99
        _report(
            6,
            ok,
            f"Shapiro screen passed by {passes}/{n_courses} simulated courses "
            f"({rate:.3f}, need >=0.95); pooled trimmed Q-Q R^2 = {r2:.5f} (need >=0.99)",
        )
        assert rate >= 0.95
        assert r2 >= 0.99


class TestCriterion7FormulaExactness:
    def test_hand_computed_examples(self):
        # moving average, printed denominator
        ma = smalltalk_moving_average([1, 0, 0], alpha=0.5)
        assert abs(ma[2] - 0.25 / 0.875) <= 1e-9
        assert abs(smalltalk_moving_average([1], alpha=0.99)[0] - 1 / 0.99) <= 1e-9

        # surprise weight
        ranking = surprise_weights(
            UnigramModel(("aa", "bb"), [0.5, 0.5]),
            UnigramModel(("aa", "bb"), [0.9, 0.1]),
            100,
        )
        gammas = dict(ranking.entries)
        assert abs(gammas["aa"] - 0.9 * 10 / np.sqrt(0.5)) <= 1e-9
        assert abs(gammas["bb"] - 0.1 * 10 / np.sqrt(0.5)) <= 1e-9

        # keyword weight alpha**rank
        keywords = KeywordRanking((("kw1", 2.0), ("kw2", 1.0)))
        thread = single_post_thread("t1", 1, "kw1 kw1")
        ranked = topical_rank(
            keywords, ThreadRows.of([thread]), alpha=0.5, k=50, tokens=TokenTable(frozenset())
        )
        assert abs(ranked.entries[0][1] - 1.0) <= 1e-9

        # tf-idf with natural log
        threads = ThreadRows.of([
            single_post_thread("d1", 1, "rare rare common"),
            single_post_thread("d2", 2, "common x2"),
            single_post_thread("d3", 3, "common x3"),
            single_post_thread("d4", 4, "common x4"),
        ])
        first = dataclasses.replace(threads, rows=threads.rows[:1])
        scored = tfidf_rank(threads, first, tokens=TokenTable(frozenset()))
        assert abs(scored.entries[0][1] - 2 * np.log(4)) <= 1e-9

        # thread neighborhood at hour offsets 0, 12, 36
        h = 3600
        ts = [single_post_thread(f"t{i}", t * h, "xx") for i, t in enumerate((0, 12, 36))]
        from forumlens.corpus import Course

        course = Course("c", 0, tuple(ts))
        assert neighborhood_counts(course, 1) == {"t0": 1, "t1": 2, "t2": 1}

        _report(7, True, "moving average, gamma, eta, tf-idf and f(h,t) match hand sums")


class TestCriterion8Determinism:
    def test_pipeline_rerun_hash_identical(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "kind": "uniform",
                    "n": 600,
                    "num_courses": 3,
                    "epsilon": 0.3,
                    "p": 0.5,
                    "s": 50,
                    "support_size": 30,
                    "seed": 21,
                }
            )
        )

        def run():
            root = tmp_path / "run"
            gen = root / "gen"
            assert cli_main(["gen", "--spec", str(spec), "--counts", "80,80,80",
                             "--out", str(gen)]) == 0
            corpus = gen / "corpus.jsonl"
            assert cli_main(["classify", "train", "--threads", str(corpus), "--algo", "nb",
                             "--out", str(root / "model")]) == 0
            assert cli_main(["topics", "extract", "--threads", str(corpus),
                             "--course", "course00", "--k", "20",
                             "--warmup-days", "2", "--out", str(root / "topics")]) == 0
            assert cli_main(["rank", "--threads", str(corpus), "--course", "course00",
                             "--algo", "topical", "--warmup", "1", "--query", "2",
                             "--out", str(root / "rank")]) == 0
            assert cli_main(["stats", "moving-avg", "--threads", str(corpus),
                             "--out", str(root / "ma")]) == 0
            hashes = {}
            for path in sorted(root.rglob("*")):
                if path.is_file():
                    rel = str(path.relative_to(root))
                    hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
            return hashes

        first = run()
        second = run()  # identical command line, hence identical manifests
        ok = first == second
        _report(8, ok, f"two pipeline runs produced {len(first)} artifacts, hash-identical: {ok}")
        assert first == second
