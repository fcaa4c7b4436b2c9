import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.special import ndtri, stdtrit

from forumlens.corpus import SECONDS_PER_DAY, Course, CourseFactors
from forumlens.errors import (
    DegenerateDesign,
    DegenerateGroup,
    InvariantViolation,
    RankDeficient,
    SampleSizeError,
)
from forumlens.stats import (
    ActivitySeries,
    PanelTarget,
    _midranks,
    assemble_panel,
    build_series,
    fit_course_trend,
    fit_panel_ols,
    neighborhood_counts,
    ols,
    partition_by_threshold,
    qq_points,
    shapiro_wilk,
    smalltalk_moving_average,
    trim_and_diff,
    two_sample_tests,
)

from conftest import corpus_from_threads, simulate_decline_counts, single_post_thread


def _series(y, z=None, course_id="c", m3=None, mprime=None):
    z = tuple(z) if z is not None else tuple(0 for _ in y)
    m3 = float(np.median(y[:3])) if m3 is None else m3
    return ActivitySeries(course_id, tuple(y), z, m3, mprime if mprime is not None else 0)


class TestBuildSeries:
    def test_empty_course(self):
        corpus = corpus_from_threads({"c1": []})
        series = build_series(corpus)["c1"]
        assert series.y == (0,) and series.z == (0,)

    def test_counts_by_day(self):
        threads = [
            single_post_thread("t1", 100, "aa bb", author="u1"),
            single_post_thread("t2", 200, "cc dd", author="u2"),
            single_post_thread("t3", 300, "ee ff", author="u1"),
        ]
        series = build_series(corpus_from_threads({"c1": threads}))["c1"]
        assert series.y[0] == 3 and series.z[0] == 2

    def test_midnight_straddle(self):
        threads = [
            single_post_thread("t1", 86399, "late night", author="u1"),
            single_post_thread("t2", 86400, "next day", author="u1"),
            single_post_thread("t3", 86400 * 2 - 1, "same day", author="u2"),
        ]
        series = build_series(corpus_from_threads({"c1": threads}))["c1"]
        # hand tally: day1 has t1; day2 has t2 and t3
        assert series.y == (1, 2)
        assert series.z == (1, 2)

    def test_totals_and_user_bound(self):
        rng = np.random.default_rng(0)
        threads = [
            single_post_thread(f"t{i}", int(rng.integers(0, 86400 * 5)), "word soup", author=f"u{int(rng.integers(0, 7))}")
            for i in range(40)
        ]
        series = build_series(corpus_from_threads({"c1": threads}))["c1"]
        assert sum(series.y) == 40
        assert all(z <= y for y, z in zip(series.y, series.z))

    def test_first3_popularity_fields(self):
        threads = [
            single_post_thread("t1", 0, "aa", author="u1"),
            single_post_thread("t2", 10, "bb", author="u2"),
            single_post_thread("t3", 86400, "cc", author="u1"),
            single_post_thread("t4", 86400 * 4, "dd", author="u9"),
        ]
        series = build_series(corpus_from_threads({"c1": threads}))["c1"]
        assert series.median_first3_posts == pytest.approx(np.median([2, 1, 0]))
        assert series.distinct_users_first3 == 2


class TestCourseTrend:
    def test_exact_line(self):
        slope, intercept = fit_course_trend(_series((2, 4, 6)))
        assert slope == pytest.approx(2.0, abs=1e-10)
        assert intercept == pytest.approx(0.0, abs=1e-10)

    def test_constant_series(self):
        slope, _ = fit_course_trend(_series((5, 5, 5, 5)))
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateDesign):
            fit_course_trend(_series((3,)))

    def test_slope_recovery_under_growth_model(self):
        # y_t drawn independently as N(t*mu, sqrt(t)*sigma); the fitted slope
        # lands within 3 classical standard errors of mu nearly always
        rng = np.random.default_rng(5)
        hits = trials = 0
        for _ in range(400):
            mu = rng.uniform(-6, -1)
            sigma = rng.uniform(4, 10)
            days = 60
            t = np.arange(1, days + 1, dtype=float)
            y0 = abs(mu) * days + 6 * sigma * math.sqrt(days) + 200
            y = np.round(y0 + t * mu + np.sqrt(t) * sigma * rng.normal(size=days))
            fit = ols(np.column_stack([np.ones(days), t]), y, ("b0", "t"))
            if abs(fit.coefficients[1] - mu) <= 3 * fit.standard_errors[1]:
                hits += 1
            trials += 1
        assert hits / trials >= 0.99


class TestTrimAndDiff:
    def test_trim_count(self):
        y = np.arange(101, dtype=float)
        y[50] = 500.0
        diffs = trim_and_diff(y, 0.03)
        assert diffs.size == 94  # 100 diffs minus ceil(3) from each side

    def test_all_equal_values_survive(self):
        diffs = trim_and_diff(np.arange(0, 33, 2), 0.03)
        assert set(diffs.tolist()) == {2.0}

    def test_spike_removed(self):
        y = np.array([10, 12, 11, 13, 300, 12, 11, 13, 12, 14, 13, 15, 14, 16, 15, 17,
                      16, 18, 17, 19, 18, 20, 19, 21, 20, 22, 21, 23, 22, 24, 23, 25,
                      24, 26, 25, 27], dtype=float)
        diffs = trim_and_diff(y, 0.03)
        assert diffs.max() < 287  # the +287 / -288 spike pair is trimmed
        assert diffs.min() > -288

    def test_range_validation(self):
        with pytest.raises(InvariantViolation):
            trim_and_diff(np.arange(10), 0.5)


class TestShapiroWilk:
    def test_ideal_normal_quantiles(self):
        ideal = ndtri((np.arange(1, 21) - 0.375) / 20.25)
        assert shapiro_wilk(ideal).statistic >= 0.99

    def test_reference_vector(self):
        # classic right-skewed sample; expected values frozen from an
        # established implementation of the same approximation
        x = [148, 154, 158, 160, 161, 162, 166, 170, 182, 195, 236]
        res = shapiro_wilk(x)
        assert abs(res.statistic - 0.7888146948) <= 1e-3
        assert abs(res.pvalue - 0.0067038141) <= 1e-2

    def test_matches_established_implementation(self):
        rng = np.random.default_rng(1)
        for n in (3, 4, 5, 6, 11, 12, 25, 50, 300, 4999):
            x = rng.normal(size=n)
            mine = shapiro_wilk(x)
            ref = scipy_stats.shapiro(x)
            assert abs(mine.statistic - ref.statistic) <= 1e-6
            assert abs(mine.pvalue - ref.pvalue) <= 1e-6

    def test_bimodal_rejected(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(-10, 1, 25), rng.normal(10, 1, 25)])
        assert shapiro_wilk(x).pvalue < 0.01

    def test_sample_size_limits(self):
        with pytest.raises(SampleSizeError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(SampleSizeError):
            shapiro_wilk(np.random.default_rng(0).normal(size=5001))

    def test_zero_range(self):
        with pytest.raises(DegenerateDesign):
            shapiro_wilk([2.0, 2.0, 2.0])

    def test_pvalues_uniform_under_null(self):
        rng = np.random.default_rng(8)
        ps = np.sort([shapiro_wilk(rng.normal(size=50)).pvalue for _ in range(10_000)])
        grid = np.arange(1, ps.size + 1) / ps.size
        ks = max(np.abs(ps - grid).max(), np.abs(ps - grid + 1 / ps.size).max())
        assert ks <= 0.03


class TestQqPoints:
    def test_two_point_quantiles(self):
        pts = qq_points([1.0, -1.0])
        assert pts[0] == pytest.approx([-0.6744897501, -1.0])
        assert pts[1] == pytest.approx([0.6744897501, 1.0])

    def test_output_sorted_regardless_of_input(self):
        pts = qq_points([3.0, -2.0, 0.5, 9.0])
        assert list(pts[:, 1]) == sorted(pts[:, 1])
        assert list(pts[:, 0]) == sorted(pts[:, 0])

    def test_large_normal_sample_agreement(self):
        # KS-style agreement on the probability scale
        rng = np.random.default_rng(9)
        pts = qq_points(rng.normal(size=10_000))
        from scipy.special import ndtr

        gap = np.abs(ndtr(pts[:, 0]) - ndtr(pts[:, 1]))
        assert gap.max() <= 0.05

    def test_trimmed_levels_keep_positions(self):
        pts = qq_points(np.arange(100, dtype=float), 0.03)
        assert pts.shape[0] == 94
        # first surviving order statistic keeps level (4 - 0.5)/100
        assert pts[0, 0] == pytest.approx(ndtri(3.5 / 100))


class TestOls:
    def test_noise_free_exact_recovery(self):
        # integer factors and coefficients make an exactly representable panel
        rng = np.random.default_rng(2)
        series, factors = {}, {}
        beta = None
        terms = None
        rows_by_course = {}
        for i in range(12):
            cid = f"c{i:02d}"
            factors[cid] = CourseFactors(
                quantitative=int(rng.integers(0, 2)),
                vocational=int(rng.integers(0, 2)),
                video_hours=float(rng.integers(1, 30)),
                duration_days=int(rng.integers(5, 9)),
                peer_graded=int(rng.integers(0, 2)),
                staff_posts=int(rng.integers(0, 10)) * 100,
                graded_homework=int(rng.integers(0, 15)),
            )
        # build the design first with placeholder series, then write y = X @ beta
        for i, cid in enumerate(sorted(factors)):
            dur = factors[cid].duration_days
            m3 = float(rng.integers(0, 40))
            series[cid] = _series([0] * dur, course_id=cid, m3=m3)
        X, _, terms, _ = assemble_panel(series, factors, PanelTarget.Y, staff_scale=100.0)
        beta = rng.integers(0, 4, size=X.shape[1]).astype(float)
        y = X @ beta
        assert np.allclose(y, np.round(y))
        # rebuild the series with the constructed counts
        pos = 0
        for cid in sorted(factors):
            dur = factors[cid].duration_days
            vals = y[pos : pos + dur].astype(int)
            pos += dur
            series[cid] = _series(vals, course_id=cid, m3=series[cid].median_first3_posts)
        fit = fit_panel_ols(series, factors, PanelTarget.Y, staff_scale=100.0)
        assert np.abs(fit.coefficients - beta).max() <= 1e-8
        assert fit.r_squared == pytest.approx(1.0)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(12, 60))
            p = int(rng.integers(2, 11))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
            y = rng.normal(size=n)
            fit = ols(X, y)
            beta_ne = np.linalg.solve(X.T @ X, X.T @ y)
            assert np.abs(fit.coefficients - beta_ne).max() <= 1e-8
            # residual orthogonality
            assert np.abs(X.T @ fit.residuals).max() <= 1e-8 * max(1.0, np.abs(y).max()) * n

    def test_inference_matches_reference(self):
        rng = np.random.default_rng(11)
        n, p = 80, 4
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        y = X @ np.array([1.0, 2.0, -1.0, 0.5]) + rng.normal(size=n)
        fit = ols(X, y)
        res = scipy_stats.linregress(X[:, 1], y)  # sanity only for shape
        # reference t/p via the textbook formulas
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        resid = y - X @ beta
        s2 = resid @ resid / (n - p)
        cov = s2 * np.linalg.inv(X.T @ X)
        se = np.sqrt(np.diag(cov))
        t = beta / se
        p_ref = 2 * scipy_stats.t.sf(np.abs(t), n - p)
        assert np.abs(fit.standard_errors - se).max() <= 1e-8
        assert np.abs(fit.t_stats - t).max() <= 1e-8
        assert np.abs(fit.p_values - p_ref).max() <= 1e-10
        assert res.rvalue is not None

    def test_rank_deficiency_reports_columns(self):
        X = np.column_stack([np.ones(10), np.arange(10.0), np.arange(10.0)])
        with pytest.raises(RankDeficient) as err:
            ols(X, np.arange(10.0), ("one", "t", "t_copy"))
        assert set(err.value.columns) & {"t", "t_copy"}

    def test_needs_more_rows_than_columns(self):
        with pytest.raises(DegenerateDesign):
            ols(np.ones((3, 3)), np.ones(3))

    def test_logz_drops_zero_days_and_columns(self):
        rng = np.random.default_rng(3)
        series, factors = {}, {}
        for i in range(14):
            cid = f"c{i:02d}"
            dur = int(rng.integers(20, 40))
            z = rng.integers(0, 9, size=dur)
            y = z + rng.integers(0, 4, size=dur)
            series[cid] = ActivitySeries(
                cid, tuple(int(v) for v in y), tuple(int(v) for v in z),
                float(np.median(y[:3])), int(rng.integers(1, 30)),
            )
            factors[cid] = CourseFactors(
                int(rng.integers(0, 2)), int(rng.integers(0, 2)),
                float(rng.uniform(1, 30)), dur, int(rng.integers(0, 2)),
                int(rng.integers(0, 900)), int(rng.integers(0, 15)),
            )
        fit = fit_panel_ols(series, factors, PanelTarget.LOG_Z)
        zero_days = sum(1 for s in series.values() for z in s.z if z == 0)
        assert fit.dropped_rows == zero_days
        assert "L" not in fit.terms and "H:t" not in fit.terms
        assert fit.n_obs + fit.dropped_rows == sum(s.days for s in series.values())

    def test_coverage_of_confidence_intervals(self):
        rng = np.random.default_rng(42)
        series, factors = {}, {}
        for i in range(24):
            cid = f"c{i:02d}"
            dur = int(rng.integers(30, 70))
            f = CourseFactors(
                int(rng.integers(0, 2)), int(rng.integers(0, 2)), float(rng.uniform(2, 30)),
                dur, int(rng.integers(0, 2)), int(rng.integers(0, 900)), int(rng.integers(0, 20)),
            )
            y = tuple(int(v) for v in rng.integers(0, 300, size=dur))
            z = tuple(int(v) for v in rng.integers(1, 150, size=dur))
            series[cid] = ActivitySeries(cid, y, z, float(np.median(y[:3])), int(z[0] + z[1]))
            factors[cid] = f
        X, _, terms, _ = assemble_panel(series, factors, PanelTarget.Y)
        beta = rng.normal(0, 2, size=X.shape[1])
        reps = 200
        per = np.zeros(X.shape[1])
        for _ in range(reps):
            y = X @ beta + rng.normal(0, 25.0, size=X.shape[0])
            fit = ols(X, y, terms)
            crit = stdtrit(fit.df_resid, 0.995)
            per += (beta >= fit.coefficients - crit * fit.standard_errors) & (
                beta <= fit.coefficients + crit * fit.standard_errors
            )
        assert (per / reps).min() >= 0.97


_ORACLE_TERMS = (
    "(intercept)", "Q:t", "V:t", "L:t", "D:t", "P:t", "S:t", "H:t", "M:t",
    "Q", "V", "L", "D", "P", "S", "H", "M", "t",
)


def _oracle_panel(series_map, factors_map, target=PanelTarget.Y, staff_scale=100.0):
    """Reference design: one row at a time, each cell chosen by its term name."""
    terms = _ORACLE_TERMS
    if target == PanelTarget.LOG_Z:
        terms = tuple(t for t in terms if t not in ("L:t", "H:t", "L", "H"))
    rows, ys = [], []
    dropped = 0
    for course_id in sorted(series_map):
        series = series_map[course_id]
        if course_id not in factors_map:
            raise InvariantViolation(course_id, "missing course factors")
        f = factors_map[course_id]
        m = series.median_first3_posts if target == PanelTarget.Y else float(series.distinct_users_first3)
        base = {
            "Q": float(f.quantitative),
            "V": float(f.vocational),
            "L": float(f.video_hours),
            "D": float(f.duration_days),
            "P": float(f.peer_graded),
            "S": f.staff_posts / staff_scale,
            "H": float(f.graded_homework),
            "M": m,
        }
        for t in range(1, series.days + 1):
            if target == PanelTarget.Y:
                value = float(series.y[t - 1])
            else:
                z = series.z[t - 1]
                if target == PanelTarget.LOG_Z:
                    if z <= 0:
                        dropped += 1
                        continue
                    value = math.log(z)
                else:
                    value = float(z)
            row = []
            for term in terms:
                if term == "(intercept)":
                    row.append(1.0)
                elif term == "t":
                    row.append(float(t))
                elif term.endswith(":t"):
                    row.append(base[term[:-2]] * t)
                else:
                    row.append(base[term])
            rows.append(row)
            ys.append(value)
    if not rows:
        raise DegenerateDesign("panel has no usable rows")
    return np.asarray(rows), np.asarray(ys), terms, dropped


@st.composite
def _panel_inputs(draw):
    """0-6 courses of 0-12 days, zero-user days included, and maybe one course without factors."""
    series, factors = {}, {}
    for i in range(draw(st.integers(0, 6))):
        cid = f"c{i}"
        z = draw(st.lists(st.integers(0, 6), max_size=12))
        y = [v + draw(st.integers(0, 4)) for v in z]
        series[cid] = ActivitySeries(
            cid, tuple(y), tuple(z), draw(st.integers(0, 80)) / 2, draw(st.integers(0, 30))
        )
        factors[cid] = CourseFactors(
            draw(st.integers(0, 1)),
            draw(st.integers(0, 1)),
            draw(st.floats(0, 60, allow_nan=False)),
            draw(st.integers(0, 90)),
            draw(st.integers(0, 1)),
            draw(st.integers(0, 3000)),
            draw(st.integers(0, 20)),
        )
    if factors and draw(st.integers(0, 7)) == 0:
        factors.pop(draw(st.sampled_from(sorted(factors))))
    return series, factors


def _panel_outcome(assemble, *args):
    try:
        return assemble(*args)
    except (DegenerateDesign, InvariantViolation) as exc:
        return type(exc)


class TestPanelMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        _panel_inputs(),
        st.sampled_from(list(PanelTarget)),
        st.sampled_from([100.0, 1.0, 7.0, 0.3, 250.5]),
    )
    def test_same_bytes(self, inputs, target, staff_scale):
        args = (*inputs, target, staff_scale)
        want = _panel_outcome(_oracle_panel, *args)
        got = _panel_outcome(assemble_panel, *args)
        if isinstance(want, type):
            assert got is want
            return
        (X0, y0, terms0, dropped0), (X, y, terms, dropped) = want, got
        assert X.shape == X0.shape and y.shape == y0.shape
        assert X.tobytes() == X0.tobytes() and y.tobytes() == y0.tobytes()
        assert X.flags["C_CONTIGUOUS"]
        assert terms == terms0 and dropped == dropped0

    @pytest.mark.parametrize("assemble", [_oracle_panel, assemble_panel])
    def test_empty_map_and_missing_factors(self, assemble):
        with pytest.raises(DegenerateDesign):
            assemble({}, {})
        with pytest.raises(InvariantViolation):
            assemble({"c": _series([1, 2, 3], course_id="c")}, {})


def _exact_u_enumeration(g1, g2):
    """Independent oracle: U from pairwise comparisons, p over all splits."""
    pooled = list(g1) + list(g2)
    n1 = len(g1)

    def u_of(group_a, group_b):
        u = 0.0
        for a in group_a:
            for b in group_b:
                if a > b:
                    u += 1.0
                elif a == b:
                    u += 0.5
        return u

    u_obs = u_of(g1, g2)
    mu = n1 * len(g2) / 2.0
    ge = two = total = 0
    for combo in itertools.combinations(range(len(pooled)), n1):
        chosen = [pooled[i] for i in combo]
        rest = [pooled[i] for i in range(len(pooled)) if i not in combo]
        u = u_of(chosen, rest)
        total += 1
        if u >= u_obs - 1e-9:
            ge += 1
        if abs(u - mu) >= abs(u_obs - mu) - 1e-9:
            two += 1
    return u_obs, ge / total, min(1.0, two / total)


class TestTwoSampleTests:
    def test_identical_groups(self):
        res = two_sample_tests([1, 2, 3], [1, 2, 3])
        assert res.t_statistic == pytest.approx(0.0)
        assert res.t_pvalue == pytest.approx(0.5)
        assert res.u_statistic == pytest.approx(4.5)  # n1*n2/2 with ties

    def test_separated_groups_match_enumeration(self):
        res = two_sample_tests([5, 6, 7], [1, 2, 3])
        u, p1, p2 = _exact_u_enumeration([5, 6, 7], [1, 2, 3])
        assert res.u_statistic == pytest.approx(u)
        assert res.u_statistic == 9.0
        assert res.u_pvalue == pytest.approx(p1)
        assert res.u_pvalue == pytest.approx(1 / 20)

    def test_exhaustive_small_instance_sweep(self):
        rng = np.random.default_rng(17)
        for n1 in range(2, 6):
            for n2 in range(2, 6):
                for _ in range(3):
                    g1 = rng.integers(0, 5, size=n1).tolist()
                    g2 = rng.integers(0, 5, size=n2).tolist()
                    res = two_sample_tests(g1, g2)
                    u, p1, p2 = _exact_u_enumeration(g1, g2)
                    assert res.u_method == "exact"
                    assert res.u_statistic == pytest.approx(u)
                    assert res.u_pvalue == pytest.approx(p1)
                    assert res.u_pvalue_two_sided == pytest.approx(p2)

    def test_welch_matches_reference(self):
        rng = np.random.default_rng(23)
        g1 = rng.normal(1.0, 2.0, size=40)
        g2 = rng.normal(0.0, 1.0, size=25)
        res = two_sample_tests(g1, g2)
        ref = scipy_stats.ttest_ind(g1, g2, equal_var=False, alternative="greater")
        assert res.t_statistic == pytest.approx(ref.statistic, abs=1e-10)
        assert res.t_pvalue == pytest.approx(ref.pvalue, abs=1e-10)

    def test_normal_approximation_matches_reference(self):
        rng = np.random.default_rng(29)
        g1 = rng.integers(0, 30, size=60).tolist()
        g2 = rng.integers(0, 25, size=45).tolist()
        res = two_sample_tests(g1, g2)
        ref = scipy_stats.mannwhitneyu(g1, g2, alternative="greater", method="asymptotic")
        assert res.u_method == "normal"
        assert res.u_statistic == pytest.approx(ref.statistic)
        assert res.u_pvalue == pytest.approx(ref.pvalue, abs=1e-10)

    def test_degenerate_group(self):
        with pytest.raises(DegenerateGroup):
            two_sample_tests([1.0], [1, 2, 3])


class TestMidranks:
    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    def test_matches_definition_on_ties(self, values):
        # rank of v = #(smaller values) + (#(equal values) + 1) / 2
        x = np.asarray(values, dtype=float)
        expected = [float(np.sum(x < v)) + (np.sum(x == v) + 1) / 2 for v in x]
        assert _midranks(x).tolist() == expected


def thread_neighborhood(course, thread, t_days):
    """Oracle: the other threads created within t_days before or after ``thread``."""
    window = t_days * SECONDS_PER_DAY
    return sum(
        1
        for other in course.threads
        if other.thread_id != thread.thread_id
        and abs(other.created_at - thread.created_at) <= window
    )


class TestAttention:
    def test_lone_thread(self):
        t = single_post_thread("t1", 1000, "alone")
        course = Course("c", 0, (t,))
        assert neighborhood_counts(course, 1) == {"t1": 0}

    def test_hand_counts_at_hours(self):
        h = 3600
        threads = [
            single_post_thread("t0", 0 * h, "aa"),
            single_post_thread("t12", 12 * h, "bb"),
            single_post_thread("t36", 36 * h, "cc"),
        ]
        course = Course("c", 0, tuple(threads))
        assert neighborhood_counts(course, 1) == {"t0": 1, "t12": 2, "t36": 1}

    def test_window_boundary_inclusive(self):
        base = 10 * 86400
        threads = [
            single_post_thread("mid", base, "aa"),
            single_post_thread("before", base - 86400, "bb"),
            single_post_thread("after", base + 86400 + 1, "cc"),
        ]
        course = Course("c", 0, tuple(threads))
        assert neighborhood_counts(course, 1)["mid"] == 1

    def test_fast_counts_agree_with_direct(self):
        rng = np.random.default_rng(31)
        threads = [
            single_post_thread(f"t{i}", int(rng.integers(0, 86400 * 20)), "xx")
            for i in range(60)
        ]
        course = Course("c", 0, tuple(threads))
        fast = neighborhood_counts(course, 1.0)
        for t in threads:
            assert fast[t.thread_id] == thread_neighborhood(course, t, 1.0)

    def test_partition_boundary(self):
        items = ["a", "b", "c"]
        g1, g2 = partition_by_threshold(items, [100, 140, 141], 140)
        assert g1 == ["a", "b"] and g2 == ["c"]

    def test_partition_all_below(self):
        g1, g2 = partition_by_threshold([1, 2], [3.0, 4.0], 140)
        assert g2 == []


class TestMovingAverage:
    def test_first_step_printed_denominator(self):
        s = smalltalk_moving_average([1], alpha=0.99)
        assert s[0] == pytest.approx(1 / 0.99)

    def test_all_zero(self):
        assert smalltalk_moving_average([0, 0, 0, 0]).tolist() == [0, 0, 0, 0]

    def test_three_term_hand_sum(self):
        s = smalltalk_moving_average([1, 0, 0], alpha=0.5)
        assert s[2] == pytest.approx(0.25 / 0.875)

    def test_timealigned_is_convex(self):
        s = smalltalk_moving_average([1, 1, 1, 1], alpha=0.5, denominator="timealigned")
        assert np.allclose(s, 1.0)

    def test_flag_validation(self):
        with pytest.raises(InvariantViolation):
            smalltalk_moving_average([0.5], alpha=0.9)

    @settings(max_examples=100)
    @given(
        st.lists(st.sampled_from([0, 1]), min_size=1, max_size=60),
        st.floats(0.05, 0.99),
    )
    def test_bounds(self, flags, alpha):
        s = smalltalk_moving_average(flags, alpha=alpha)
        assert (s >= 0).all()
        assert (s <= max(flags) / alpha + 1e-12).all()

    def test_reproducible_from_printed_formula(self):
        rng = np.random.default_rng(5)
        flags = rng.integers(0, 2, size=30).tolist()
        alpha = 0.9
        s = smalltalk_moving_average(flags, alpha=alpha)
        for t in range(1, len(flags) + 1):
            num = sum(flags[i - 1] * alpha ** (t - i) for i in range(1, t + 1))
            den = sum(alpha**i for i in range(1, t + 1))
            assert s[t - 1] == pytest.approx(num / den, abs=1e-12)


class TestGaussianIncrementScreen:
    def test_simulated_course_passes_pipeline(self):
        rng = np.random.default_rng(0)
        y = simulate_decline_counts(rng, 55, -4.0, 8.0)
        d = trim_and_diff(y, 0.03)
        assert shapiro_wilk(d).pvalue >= 0.01
