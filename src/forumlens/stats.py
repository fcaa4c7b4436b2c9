"""Statistical pipeline: activity series, trend and panel regressions,
normality screening, attention analysis, and the small-talk moving average.

Numerical conventions, fixed so results are platform-stable:

* OLS is solved by column-pivoted QR (scipy.linalg.qr), not normal equations;
  rank deficiency is reported with the offending columns.
* Normal and Student-t tail probabilities come from erfc and the regularized
  incomplete beta function (scipy.special), accurate to better than 1e-10.
* The Shapiro-Wilk test is Royston's 1995 approximation (AS R94), valid for
  3 <= n <= 5000.

Per-course computations are independent; all outputs are immutable.

scipy is imported inside the routines that call it (``normal_sf``,
``student_t_sf``, ``ols``, the Shapiro-Wilk coefficients and ``qq_points``),
so only ``ols``, ``shapiro_wilk``, ``qq_points`` and ``two_sample_tests`` load
it: the CLI's ``stats panel``, ``stats shapiro`` and ``stats ttest``.  Every
other command starts without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations
from typing import Sequence

import numpy as np

from .corpus import (
    Corpus,
    Course,
    CourseFactors,
    SECONDS_PER_DAY,
    day_index,
)
from .errors import (
    DegenerateDesign,
    DegenerateGroup,
    InvariantViolation,
    RankDeficient,
    SampleSizeError,
)

__all__ = [
    "ActivitySeries",
    "CourseFactors",
    "OlsFit",
    "PanelTarget",
    "ShapiroResult",
    "TwoSampleResult",
    "build_series",
    "fit_course_trend",
    "fit_panel_ols",
    "normal_sf",
    "ols",
    "partition_by_threshold",
    "qq_points",
    "shapiro_wilk",
    "smalltalk_moving_average",
    "student_t_sf",
    "trim_and_diff",
    "two_sample_tests",
]


def normal_sf(z: float) -> float:
    """Upper tail of the standard normal distribution."""
    from scipy.special import erfc

    return 0.5 * erfc(z / math.sqrt(2.0))


def student_t_sf(t: float, df: float) -> float:
    """Upper tail of Student's t via the incomplete-beta representation."""
    from scipy.special import stdtr

    return float(stdtr(df, -t))


# ---------------------------------------------------------------------------
# Activity series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActivitySeries:
    """Posts per day (y) and distinct posting users per day (z), t = 1..D.

    ``median_first3_posts`` and ``distinct_users_first3`` are the two
    intrinsic-popularity regressors computed over days 1-3.
    """

    course_id: str
    y: tuple[int, ...]
    z: tuple[int, ...]
    median_first3_posts: float
    distinct_users_first3: int

    def __post_init__(self):
        if len(self.y) != len(self.z):
            raise InvariantViolation(self.course_id, "y and z lengths differ")
        if any(v < 0 for v in self.y) or any(v < 0 for v in self.z):
            raise InvariantViolation(self.course_id, "daily counts must be nonnegative")

    @property
    def days(self) -> int:
        return len(self.y)


def _course_series(course: Course) -> ActivitySeries:
    posts = [(p.timestamp, p.author_id) for t in course.threads for p in t.posts]
    if course.factors is not None:
        duration = max(course.factors.duration_days, 1)
    elif posts:
        duration = max(max(day_index(ts, course.start_date) for ts, _ in posts), 1)
    else:
        duration = 1
    y = [0] * duration
    users: list[set[str]] = [set() for _ in range(duration)]
    for ts, author in posts:
        day = day_index(ts, course.start_date)
        if 1 <= day <= duration:
            y[day - 1] += 1
            users[day - 1].add(author)
    z = [len(u) for u in users]
    first3 = y[: min(3, duration)]
    median3 = float(np.median(first3)) if first3 else 0.0
    distinct3 = len(set().union(*users[: min(3, duration)])) if users else 0
    return ActivitySeries(course.course_id, tuple(y), tuple(z), median3, distinct3)


def build_series(corpus: Corpus) -> dict[str, ActivitySeries]:
    """Per-course daily activity; day t covers [start + (t-1)*86400, start + t*86400)."""
    return {c.course_id: _course_series(c) for c in corpus.courses}


# ---------------------------------------------------------------------------
# Ordinary least squares
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OlsFit:
    terms: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    r_squared: float
    adj_r_squared: float
    n_obs: int
    df_resid: int
    residuals: np.ndarray
    dropped_rows: int = 0

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0:
            raise InvariantViolation("ols", "R^2 must lie in [0, 1]")
        if self.adj_r_squared > self.r_squared + 1e-12:
            raise InvariantViolation("ols", "adjusted R^2 cannot exceed R^2")
        if np.any(self.p_values < 0) or np.any(self.p_values > 1):
            raise InvariantViolation("ols", "p-values must lie in [0, 1]")


def ols(X: np.ndarray, y: np.ndarray, terms: Sequence[str] | None = None) -> OlsFit:
    """Classical OLS with t-tests on n - p degrees of freedom."""
    from scipy.linalg import qr, solve_triangular

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DegenerateDesign("design matrix must be 2-D")
    n, p = X.shape
    if terms is None:
        terms = tuple(f"x{j}" for j in range(p))
    terms = tuple(terms)
    if len(terms) != p:
        raise DegenerateDesign("one name per column required")
    if n <= p:
        raise DegenerateDesign(f"need more observations ({n}) than columns ({p})")

    Q, R, piv = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        raise RankDeficient(terms)
    tol = diag[0] * max(n, p) * np.finfo(float).eps
    rank = int(np.sum(diag > tol))
    if rank < p:
        raise RankDeficient([terms[j] for j in piv[rank:]])

    beta_piv = solve_triangular(R, Q.T @ y)
    beta = np.empty(p)
    beta[piv] = beta_piv
    residuals = y - X @ beta
    rss = float(residuals @ residuals)
    df_resid = n - p
    sigma2 = rss / df_resid
    r_inv = solve_triangular(R, np.eye(p))
    cov_piv = sigma2 * (r_inv @ r_inv.T)
    se = np.empty(p)
    se[piv] = np.sqrt(np.maximum(np.diag(cov_piv), 0.0))

    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, beta / np.where(se > 0, se, 1.0), np.where(beta == 0, 0.0, np.inf))
    p_values = np.array([2.0 * student_t_sf(abs(t), df_resid) if math.isfinite(t) else 0.0 for t in t_stats])

    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    r2 = min(max(r2, 0.0), 1.0)
    adj = 1.0 - (1.0 - r2) * (n - 1) / df_resid
    return OlsFit(
        terms=terms,
        coefficients=beta,
        standard_errors=se,
        t_stats=t_stats,
        p_values=np.clip(p_values, 0.0, 1.0),
        r_squared=r2,
        adj_r_squared=adj,
        n_obs=n,
        df_resid=df_resid,
        residuals=residuals,
    )


def fit_course_trend(series: ActivitySeries) -> tuple[float, float]:
    """OLS of daily post counts on the day index; the slope is the decline rate.

    Closed-form simple regression, valid from 2 days up (a 2-day course has an
    exact line and no residual degrees of freedom).
    """
    if series.days < 2:
        raise DegenerateDesign("trend fit needs at least 2 days")
    t = np.arange(1, series.days + 1, dtype=float)
    y = np.asarray(series.y, dtype=float)
    t_centered = t - t.mean()
    slope = float((t_centered @ (y - y.mean())) / (t_centered @ t_centered))
    return slope, float(y.mean() - slope * t.mean())


class PanelTarget(Enum):
    Y = "y"
    Z = "z"
    LOG_Z = "logz"


_FACTORS = ("Q", "V", "L", "D", "P", "S", "H", "M")
_FULL_TERMS = ("(intercept)", *(f"{f}:t" for f in _FACTORS), *_FACTORS, "t")
# The log model drops the video-length and graded-homework terms.
_LOG_COLUMNS = [j for j, term in enumerate(_FULL_TERMS) if term not in ("L:t", "H:t", "L", "H")]


def assemble_panel(
    series_map: dict[str, ActivitySeries],
    factors_map: dict[str, CourseFactors],
    target: PanelTarget = PanelTarget.Y,
    staff_scale: float = 100.0,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...], int]:
    """Stack (course, day) rows into a design matrix and target vector.

    Regressors are the intercept, the eight factor-by-day interactions, the
    factor main effects, and the day index, in that order.  The intrinsic
    popularity regressor M is the median daily post count of days 1-3 for the
    post-count target, and the number of distinct users in days 1-3 for the
    user-count targets.  Staff post counts are divided by ``staff_scale``
    (default: hundreds of posts).  The log target drops days with zero users
    and returns how many rows that removed.
    """
    columns = _LOG_COLUMNS if target == PanelTarget.LOG_Z else range(len(_FULL_TERMS))
    blocks: list[np.ndarray] = []
    ys: list[float] = []
    dropped = 0
    for course_id in sorted(series_map):
        series = series_map[course_id]
        if course_id not in factors_map:
            raise InvariantViolation(course_id, "missing course factors")
        f = factors_map[course_id]
        m = series.median_first3_posts if target == PanelTarget.Y else float(series.distinct_users_first3)
        base = np.array([f.quantitative, f.vocational, f.video_hours, f.duration_days, f.peer_graded,
                         f.staff_posts / staff_scale, f.graded_homework, m], dtype=float)
        counts = series.y if target == PanelTarget.Y else series.z
        if target == PanelTarget.LOG_Z:
            days = [d for d, z in enumerate(counts, start=1) if z > 0]
            dropped += series.days - len(days)
            ys.extend(math.log(counts[d - 1]) for d in days)
        else:
            days = range(1, series.days + 1)
            ys.extend(map(float, counts))
        t = np.array(days, dtype=float)
        block = np.column_stack([np.ones_like(t), np.outer(t, base), np.tile(base, (t.size, 1)), t])
        # C order, unlike block[:, columns]: BLAS may round ols's X @ beta differently per layout
        blocks.append(block.take(columns, axis=1))
    if not ys:
        raise DegenerateDesign("panel has no usable rows")
    return np.concatenate(blocks), np.asarray(ys), tuple(_FULL_TERMS[j] for j in columns), dropped


def fit_panel_ols(
    series_map: dict[str, ActivitySeries],
    factors_map: dict[str, CourseFactors],
    target: PanelTarget = PanelTarget.Y,
    staff_scale: float = 100.0,
) -> OlsFit:
    X, y, terms, dropped = assemble_panel(series_map, factors_map, target, staff_scale)
    return replace(ols(X, y, terms), dropped_rows=dropped)


# ---------------------------------------------------------------------------
# Count-difference screening
# ---------------------------------------------------------------------------


def trim_and_diff(series, trim_frac: float = 0.03) -> np.ndarray:
    """Consecutive-day count differences with the extreme values removed.

    Drops the ceil(trim_frac * m) largest and smallest differences (by value);
    the survivors keep chronological order.
    """
    if not 0.0 <= trim_frac < 0.5:
        raise InvariantViolation("trim", "trim fraction must be in [0, 0.5)")
    y = np.asarray(series.y if isinstance(series, ActivitySeries) else series, dtype=float)
    diffs = y[1:] - y[:-1]
    m = diffs.size
    if m == 0:
        return diffs
    k = math.ceil(trim_frac * m) if trim_frac > 0 else 0
    if 2 * k >= m:
        return diffs[:0]
    if k == 0:
        return diffs
    order = np.argsort(diffs, kind="stable")
    keep = np.sort(order[k : m - k])
    return diffs[keep]


@dataclass(frozen=True)
class ShapiroResult:
    statistic: float
    pvalue: float


# Royston (1995) AS R94 polynomial constants, descending powers.
_SW_C1 = [-2.706056, 4.434685, -2.07119, -0.147981, 0.221157, 0.0]
_SW_C2 = [-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0]
_SW_C3 = [-0.0006714, 0.025054, -0.39978, 0.544]
_SW_C4 = [-0.0020322, 0.062767, -0.77857, 1.3822]
_SW_C5 = [0.0038915, -0.083751, -0.31082, -1.5861]
_SW_C6 = [0.0030302, -0.082676, -0.4803]
_SW_G = [0.459, -2.273]
_SW_PI6 = 1.90985931710274  # 6/pi
_SW_STQR = 1.04719755119660  # asin(sqrt(3/4))


def _sw_coefficients(n: int) -> np.ndarray:
    from scipy.special import ndtri

    m = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    mss = float(m @ m)
    a = np.zeros(n)
    if n == 3:
        a[0], a[2] = -math.sqrt(0.5), math.sqrt(0.5)
        return a
    rsn = 1.0 / math.sqrt(n)
    a_n = float(np.polyval(_SW_C1, rsn)) + m[-1] / math.sqrt(mss)
    if n > 5:
        a_n1 = float(np.polyval(_SW_C2, rsn)) + m[-2] / math.sqrt(mss)
        fac = math.sqrt(
            (mss - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2)
            / (1.0 - 2.0 * a_n**2 - 2.0 * a_n1**2)
        )
        a[-2], a[1] = a_n1, -a_n1
        start = 2
    else:
        fac = math.sqrt((mss - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n**2))
        start = 1
    a[-1], a[0] = a_n, -a_n
    a[start : n - start] = m[start : n - start] / fac
    return a


def shapiro_wilk(sample) -> ShapiroResult:
    """Shapiro-Wilk W and its p-value (Royston's AS R94 approximation)."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n < 3:
        raise SampleSizeError(f"Shapiro-Wilk needs n >= 3, got {n}")
    if n > 5000:
        raise SampleSizeError(f"Shapiro-Wilk supports n <= 5000, got {n}")
    if x[-1] - x[0] <= 0.0:
        raise DegenerateDesign("sample has zero range")

    a = _sw_coefficients(n)
    ssq = float(((x - x.mean()) ** 2).sum())
    w = float((a @ x) ** 2 / ssq)
    w = min(w, 1.0)

    if n == 3:
        p = _SW_PI6 * (math.asin(math.sqrt(w)) - _SW_STQR)
        return ShapiroResult(w, min(max(p, 0.0), 1.0))

    w1 = max(1.0 - w, 1e-300)
    y = math.log(w1)
    if n <= 11:
        gamma = float(np.polyval(_SW_G, n))
        if y >= gamma:
            return ShapiroResult(w, 1e-19)
        y = -math.log(gamma - y)
        mu = float(np.polyval(_SW_C3, n))
        sigma = math.exp(float(np.polyval(_SW_C4, n)))
    else:
        ln_n = math.log(n)
        mu = float(np.polyval(_SW_C5, ln_n))
        sigma = math.exp(float(np.polyval(_SW_C6, ln_n)))
    p = normal_sf((y - mu) / sigma)
    return ShapiroResult(w, min(max(p, 0.0), 1.0))


def qq_points(sample, trim_frac: float = 0.0) -> np.ndarray:
    """(theoretical normal quantile, sorted sample value) pairs.

    Theoretical quantiles are ndtri((i - 0.5) / n) for i = 1..n.  With
    ``trim_frac`` > 0 the ceil(trim_frac * n) smallest and largest order
    statistics are dropped but the survivors keep their original quantile
    levels, so the plot stays linear for normal data instead of curving at
    the truncation points.
    """
    from scipy.special import ndtri

    if not 0.0 <= trim_frac < 0.5:
        raise InvariantViolation("trim", "trim fraction must be in [0, 0.5)")
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n < 2:
        raise SampleSizeError("Q-Q plot needs n >= 2")
    k = math.ceil(trim_frac * n) if trim_frac > 0 else 0
    if 2 * k >= n:
        raise SampleSizeError("trim fraction leaves no points")
    theo = ndtri((np.arange(k + 1, n - k + 1) - 0.5) / n)
    return np.column_stack([theo, x[k : n - k]])


# ---------------------------------------------------------------------------
# Thread attention analysis
# ---------------------------------------------------------------------------


def neighborhood_counts(course: Course, t_days: float = 1.0) -> dict[str, int]:
    """f(h, t_days) for every thread, via two searches of the sorted creation times."""
    created = np.array([t.created_at for t in course.threads], dtype=float)
    times = np.sort(created)
    window = t_days * SECONDS_PER_DAY
    lo = np.searchsorted(times, created - window, side="left")
    hi = np.searchsorted(times, created + window, side="right")
    return {t.thread_id: int(n) for t, n in zip(course.threads, hi - lo - 1)}


def partition_by_threshold(items: Sequence, f_values: Sequence[float], threshold: float = 140.0):
    """Split items into (f <= threshold, f > threshold); the boundary is inclusive."""
    if len(items) != len(f_values):
        raise InvariantViolation("partition", "items and f values must align")
    g1 = [item for item, f in zip(items, f_values) if f <= threshold]
    g2 = [item for item, f in zip(items, f_values) if f > threshold]
    return g1, g2


@dataclass(frozen=True)
class TwoSampleResult:
    """Welch's t-test (one-sided: group1 > group2) and Mann-Whitney U.

    ``u_method`` records whether the U p-values came from exhaustive
    enumeration (small samples) or the tie-corrected normal approximation
    with continuity correction.
    """

    t_statistic: float
    t_pvalue: float
    t_pvalue_two_sided: float
    df: float
    u_statistic: float
    u_pvalue: float
    u_pvalue_two_sided: float
    u_method: str
    n1: int
    n2: int
    var1: float
    var2: float


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - 0.5 * (counts - 1))[inverse]


def two_sample_tests(group1, group2, exact_threshold: int = 10) -> TwoSampleResult:
    """Welch t and Mann-Whitney U for H1: group1 stochastically larger.

    The U p-value is exact (enumeration over all group assignments of the
    pooled values) when both groups have at most ``exact_threshold`` elements,
    otherwise the normal approximation with tie correction is used.
    """
    x = np.asarray(group1, dtype=float)
    z = np.asarray(group2, dtype=float)
    n1, n2 = x.size, z.size
    if n1 < 2 or n2 < 2:
        raise DegenerateGroup("both groups need at least 2 observations")

    v1 = x.var(ddof=1)
    v2 = z.var(ddof=1)
    se2 = v1 / n1 + v2 / n2
    if se2 == 0.0:
        diff = x.mean() - z.mean()
        t_stat = 0.0 if diff == 0 else math.copysign(math.inf, diff)
        df = float(n1 + n2 - 2)
    else:
        t_stat = (x.mean() - z.mean()) / math.sqrt(se2)
        df = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    if math.isinf(t_stat):
        t_one = 0.0 if t_stat > 0 else 1.0
        t_two = 0.0
    else:
        t_one = student_t_sf(t_stat, df)
        t_two = 2.0 * student_t_sf(abs(t_stat), df)

    pooled = np.concatenate([x, z])
    ranks = _midranks(pooled)
    u_stat = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2.0)
    mu = n1 * n2 / 2.0

    if n1 <= exact_threshold and n2 <= exact_threshold:
        total = 0
        ge = 0
        two = 0
        obs_dev = abs(u_stat - mu)
        base = n1 * (n1 + 1) / 2.0
        for combo in combinations(range(n1 + n2), n1):
            u = ranks[list(combo)].sum() - base
            total += 1
            if u >= u_stat - 1e-9:
                ge += 1
            if abs(u - mu) >= obs_dev - 1e-9:
                two += 1
        u_one = ge / total
        u_two = min(1.0, two / total)
        method = "exact"
    else:
        n = n1 + n2
        _, tie_counts = np.unique(pooled, return_counts=True)
        tie_term = float(((tie_counts**3 - tie_counts)).sum())
        sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
        if sigma2 <= 0:
            u_one, u_two = 0.5, 1.0
        else:
            sigma = math.sqrt(sigma2)
            u_one = normal_sf((u_stat - mu - 0.5) / sigma)
            u_two = min(1.0, 2.0 * normal_sf((abs(u_stat - mu) - 0.5) / sigma))
        method = "normal"

    return TwoSampleResult(
        t_statistic=float(t_stat),
        t_pvalue=float(min(max(t_one, 0.0), 1.0)),
        t_pvalue_two_sided=float(min(max(t_two, 0.0), 1.0)),
        df=float(df),
        u_statistic=u_stat,
        u_pvalue=float(u_one),
        u_pvalue_two_sided=float(u_two),
        u_method=method,
        n1=n1,
        n2=n2,
        var1=float(v1),
        var2=float(v2),
    )


# ---------------------------------------------------------------------------
# Small-talk moving average
# ---------------------------------------------------------------------------


def smalltalk_moving_average(
    flags: Sequence[int], alpha: float = 0.99, denominator: str = "printed"
) -> np.ndarray:
    """Exponentially weighted small-talk share over time-ordered threads.

    s_t = sum_{i<=t} eta_i * alpha^(t-i) / denom_t.  The default denominator
    is sum_{i<=t} alpha^i ("printed"); note it differs from the time-aligned
    normalizer sum_{i<=t} alpha^(t-i) by a factor alpha and is therefore not a
    convex average (s_t can slightly exceed 1).  Pass
    denominator="timealigned" for the convex variant.
    """
    if not 0.0 < alpha < 1.0:
        raise InvariantViolation("moving average", "alpha must be in (0, 1)")
    if denominator not in ("printed", "timealigned"):
        raise ValueError(f"unknown denominator mode {denominator!r}")
    eta = np.asarray(flags, dtype=float)
    if np.any((eta != 0.0) & (eta != 1.0)):
        raise InvariantViolation("moving average", "flags must be 0/1")
    out = np.empty(eta.size)
    num = 0.0
    den = 0.0
    alpha_pow = 1.0
    for t in range(eta.size):
        num = alpha * num + eta[t]
        if denominator == "printed":
            alpha_pow *= alpha
            den += alpha_pow
        else:
            den = alpha * den + 1.0
        out[t] = num / den
    return out
