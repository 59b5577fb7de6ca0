"""Besov-Orlicz seminorm estimation on uniformly sampled scalar paths.

Paths enter as scalar reductions of field trajectories (a spatial norm
per time point).  The machinery measures how the Orlicz-in-time norm of
increments

    n(h) = || t -> x(t+h) - x(t) ||_{L^Phi(0, T-h)}

decays with the lag h.  The Nikolskii (fine index infinity) seminorm is
sup_h h^(-alpha) n(h), approximated on a dyadic lag grid restricted to
[4 dt, T/8]: below four steps the increments measure scheme noise, above
T/8 the truncated time window gets too short.  `window_lags` alone
applies this window, to the `dyadic_lags` at which runs store
increments.  Every report is built in two steps: `lag_norms` takes the
Luxemburg norm of each lag's increments, which does not depend on alpha,
and `report_from_norms` weighs them with alpha; `seminorm_report` makes
both for one Orlicz scale.  For finite fine
index r the seminorm integral over h is approximated by the same dyadic
grid, each level contributing (h^(-alpha) n(h))^r * ln 2.

Luxemburg norms inf{lambda : integral Phi(|x|/lambda) <= 1} are found
by Newton's method in s = 1/lambda from a start right of the root, on
the modular m(s) = integral Phi(s|x|), which is increasing in s.  The
start s0 = t0/max|x| with Phi(t0) >= 1/dt lies right of the root, since
the largest sample alone gives m >= 1.  t0 is Phi^{-1}(1/dt) for phi2
and an upper point of it for Nq (`OrliczSpec.inverse`).  For phi2 a
second start, from the moments of r = |x|/max|x|, is often closer:
e^u - 1 >= u + u^2/2 + u^3/6 bounds m below by the cubic
a y + b y^2/2 + c y^3/6 in y = (s max|x|)^2, with a, b, c = dt sum r^2,
r^4, r^6, so the cubic's root lies right of the modular's root too.
The cubic is convex and increasing for y > 0, so a Newton step on it
lands right of its root from any start; two steps from its quadratic
part's root (or t0^2, if smaller) give the start.  The step for Nq is
Newton on m against s (m is convex there); for phi2 it is Newton on
log m against log s, which is convex because every log Phi2(e^v) is
(its slope 2z/(1 - e^-z), z = e^(2v), increases) and sums of log-convex
functions are log-convex.  Either way the iterates fall monotonically
onto the root without a bracket.

Newton's next correction bounds the phi2 iteration's error.  With
g(v) = log m(e^v) it is at most (g''/2g') sigma^2 after a step of
sigma = |delta v|.  (tD)^2 Phi2 = 2(1 + u) (tD)Phi2 with u = t^2 and
D = d/dt gives m''/m' <= 2(1 + U), U the largest u, and
tPhi2'/Phi2 >= 2 gives m'/m >= 2, so g''/g' = m''/m' - m'/m <= 2U.  The
iterates fall, so U <= t0^2 <= ln(1 + 1/dt) all along, and the loop
stops right after a step with (1 + t0^2) sigma^2 <= 1e-16: the next
correction would fall below half an ulp, so evaluating the modular
again to see it buys nothing.  For the same reason every t the
iteration evaluates is at most t0, where Phi2 is at most 1/dt, and
`OrliczSpec.evaluate` needs no clamp.  The left Riemann rule over the
path's own time window provides the integral, so constants on [0,1]
reproduce the closed forms exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SampledPath",
    "OrliczSpec",
    "SeminormReport",
    "FitResult",
    "luxemburg_norm",
    "difference_path",
    "dyadic_lags",
    "window_lags",
    "seminorm_report",
    "lag_norms",
    "report_from_norms",
    "check_alpha",
    "besov_seminorm",
    "fit_exponent",
]


@dataclass(frozen=True)
class SampledPath:
    """Uniformly sampled scalar path: values at t_k = k dt."""

    values: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 4:
            raise ValueError("a path needs at least 4 uniformly spaced samples")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class OrliczSpec:
    """Integrability scale: power(q), Phi2 = exp(t^2)-1, or Nq = t^q ln^(q/2)(t+1)."""

    kind: str
    q: float = 2.0

    def __post_init__(self):
        if self.kind not in ("power", "phi2", "nq"):
            raise ValueError(f"unknown Orlicz kind {self.kind!r}")
        if self.kind in ("power", "nq") and not 1.0 <= self.q < math.inf:
            raise ValueError(f"q must be finite and at least 1, got {self.q}")

    @staticmethod
    def power(q: float) -> "OrliczSpec":
        return OrliczSpec("power", q)

    @staticmethod
    def phi2() -> "OrliczSpec":
        return OrliczSpec("phi2")

    @staticmethod
    def nq(q: float) -> "OrliczSpec":
        return OrliczSpec("nq", q)

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """Phi(t) in a fresh array.

        Phi2 overflows to inf past t ~ 26.6, where t^2 exceeds the log of
        the largest double; inf is its IEEE value, and the Luxemburg
        iteration never evaluates there (module docstring).
        """
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            return t**self.q
        if self.kind == "phi2":
            # in place: one fresh array per call on the Luxemburg hot path
            phi = np.square(t, out=np.empty_like(t))
            return np.expm1(phi, out=phi)
        return t**self.q * np.log1p(t) ** (self.q / 2.0)

    def t_derivative(self, t: np.ndarray, phi: np.ndarray, out=None) -> np.ndarray:
        """t Phi'(t), given phi = Phi(t) from `evaluate`.

        `out` may be `phi` itself: the Luxemburg iteration then overwrites
        the modular's terms, which it has already summed, with no new array.
        """
        if self.kind == "power":
            return np.multiply(phi, self.q, out=out)
        if self.kind == "phi2":
            # 2 t^2 exp(t^2) = 2 t^2 (Phi + 1)
            out = np.add(phi, 1.0, out=out)
            out *= t
            out *= t
            out *= 2.0
            return out
        # q Phi + (q/2) Phi t/((1+t) ln(1+t)); the ratio tends to 1 as t -> 0
        log1p = np.log1p(t)
        ratio = np.divide(t, (1.0 + t) * log1p, out=np.ones_like(t), where=log1p > 0.0)
        return np.multiply(phi, self.q + 0.5 * self.q * ratio, out=out)

    def inverse(self, s: float) -> float:
        """Phi^{-1}(s), or for Nq a point right of it (the Luxemburg Newton start).

        For Nq it returns the upper point max(s^(1/q), e - 1), not the
        inverse: once ln(1+t) >= 1, Phi(t) >= t^q, so Phi there is >= s.
        """
        if s <= 0.0:
            return 0.0
        if self.kind == "power":
            return s ** (1.0 / self.q)
        if self.kind == "phi2":
            return math.sqrt(math.log1p(s))
        return max(s ** (1.0 / self.q), math.e - 1.0)

    @property
    def label(self) -> str:
        if self.kind == "power":
            return f"power({self.q:g})"
        if self.kind == "phi2":
            return "phi2"
        return f"nq({self.q:g})"


def luxemburg_norm(path: SampledPath, spec: OrliczSpec) -> float:
    """Orlicz norm of the path over its own time window.

    Power kinds reduce to the plain Riemann L^q norm.  Otherwise Newton's
    method in s = 1/lambda solves m(s) = dt sum Phi(s |x_k|) = 1 from the
    right (module docstring).  With E = dt sum t Phi'(t), the step is
    s <- s (1 - (m - 1)/E) for Nq and s <- s exp(-sigma),
    sigma = m log m / E, for phi2, Newton on log m against log s.  The
    start is min(t0, sqrt(y)) / max|x| with t0 = Phi^{-1}(1/dt), the
    second term for phi2 only: y takes two Newton steps on the cubic
    a y + b y^2/2 + c y^3/6 = 1 from min(t0^2, 2 / (a + sqrt(a^2 + 2 b))),
    the root of its quadratic part, where a, b, c = dt sum r^2, r^4, r^6
    and r = |x|/max|x|; e^u - 1 >= u + u^2/2 + u^3/6 makes m >= 1 there.
    The loop ends once the modular reaches one; for Nq also once a step
    shrinks below 1e-14 relative, and for phi2 right after a step with
    (1 + t0^2) sigma^2 <= 1e-16, which bounds the next correction below
    half an ulp.  Each iteration writes s|x| into one buffer, calls
    `spec.evaluate` once and `spec.t_derivative` into the buffer evaluate
    returned.  Convergence is quadratic near the root, so the norm is
    accurate to the rounding of the modular sum (about 1e-15 relative).
    Homogeneous of degree one in the path.  A non-finite sample raises
    ValueError.
    """
    vals = np.abs(path.values[:-1])  # left Riemann rule
    dt = path.dt
    vmax = float(vals.max(initial=0.0))
    if not math.isfinite(vmax):
        raise ValueError(f"{spec.label} Luxemburg norm of a path with a non-finite sample")
    if vmax == 0.0:
        return 0.0
    if spec.kind == "power":
        return float((dt * np.sum(vals**spec.q)) ** (1.0 / spec.q))

    phi2 = spec.kind == "phi2"
    t = np.empty_like(vals)
    # at t0 the largest sample alone brings the modular to at least one
    t0 = spec.inverse(1.0 / dt)
    if phi2:
        t0 = _phi2_start(vals, vmax, dt, t, t0)
        # Newton's next correction is below (1 + t0^2) step^2 (module docstring)
        stop = 1e-16 / (1.0 + t0 * t0)
    s = t0 / vmax
    for _ in range(200):
        phi = spec.evaluate(np.multiply(vals, s, out=t))
        m = dt * float(np.sum(phi))
        if not m > 1.0:
            break
        # evaluate returns a fresh array, so t Phi'(t) may overwrite it
        E = dt * float(np.sum(spec.t_derivative(t, phi, out=phi)))
        if phi2:
            step = m * math.log(m) / E
            s *= math.exp(-step)
            if not step * step > stop:
                break
        else:
            step = (m - 1.0) / E
            s *= 1.0 - step
            if not step > 1e-14:
                break
    return 1.0 / s


def _phi2_start(vals, vmax, dt, t, t0):
    """The phi2 start min(t0, sqrt(y)) of `luxemburg_norm`.

    No moment overflows, since r <= 1.  They are formed in the buffer t
    and one scratch array that dies on return, so no norm holds more than
    three arrays at once.
    """
    r2 = np.square(np.divide(vals, vmax, out=t), out=t)
    r4 = np.square(r2)
    a = dt * float(np.sum(r2))
    b = dt * float(np.sum(r4))
    c = dt * float(np.sum(np.multiply(r4, r2, out=r4)))
    y = min(t0 * t0, 2.0 / (a + math.hypot(a, math.sqrt(2.0 * b))))
    for _ in range(2):
        y -= (y * (a + y * (b / 2.0 + y * c / 6.0)) - 1.0) / (a + y * (b + y * c / 2.0))
    return min(t0, math.sqrt(y))


def difference_path(path: SampledPath, m: int) -> SampledPath:
    """Increment path x(t + m dt) - x(t) on the truncated window."""
    n = path.values.size
    if not 1 <= m < n:
        raise ValueError(f"lag must satisfy 1 <= m < {n}, got {m}")
    return SampledPath(path.values[m:] - path.values[:-m], path.dt)


def dyadic_lags(n_steps: int) -> list:
    """Dyadic step lags from 1 up to n_steps // 8 (at least lag 1)."""
    lags, m = [], 1
    while m <= max(n_steps // 8, 1):
        lags.append(m)
        m *= 2
    return lags


def window_lags(lags, n_steps: int) -> list:
    """The lags m in the fit window 4 <= m <= n_steps // 8, sorted.

    When no lag lies there (fewer than 32 steps) every lag is kept.
    """
    lags = sorted(lags)
    return [m for m in lags if 4 <= m <= n_steps // 8] or lags


@dataclass
class SeminormReport:
    """Per-lag Orlicz norms of increments and the derived summaries."""

    h_values: np.ndarray
    norms: np.ndarray
    sup_terms: np.ndarray            # h^-a n_h
    sup_approx: float
    quantity_r: float                # r < inf: sum (h^-a n_h)^r ln 2; nan for r = inf
    degenerate: bool                 # every norm is zero


def seminorm_report(increments, dt: float, alpha: float, spec: OrliczSpec) -> SeminormReport:
    """Sup report from (lag in steps, increment series) pairs over one path."""
    h_values, (norms,) = lag_norms(increments, dt, [spec])
    return report_from_norms(h_values, norms, alpha)


def lag_norms(increments, dt: float, specs):
    """(h values, Luxemburg norms) of (lag in steps, increment series) pairs.

    The norms form one row per spec of `specs`, one column per lag.  The
    pairs are consumed one at a time and each series is measured in every
    spec before the next is drawn, so a generator keeps a single
    increment alive.  A series with fewer than 4 samples has norm 0.
    """
    lags, norms = [], []
    for m, series in increments:
        lags.append(m)
        path = SampledPath(series, dt) if series.size >= 4 else None
        norms.append([0.0 if path is None else luxemburg_norm(path, spec) for spec in specs])
    return np.array(lags, dtype=float) * dt, np.array(norms, dtype=float).reshape(-1, len(specs)).T


def report_from_norms(h_values, norms, alpha: float, fine_index: float = np.inf) -> SeminormReport:
    """Report of the per-lag norms at smoothness alpha."""
    with np.errstate(divide="ignore"):
        sup_terms = h_values ** (-alpha) * norms
    quantity_r = np.nan
    if np.isfinite(fine_index):
        quantity_r = float(np.sum(sup_terms**fine_index * math.log(2.0)))
    return SeminormReport(
        h_values=h_values,
        norms=norms,
        sup_terms=sup_terms,
        sup_approx=float(sup_terms.max(initial=0.0)),
        quantity_r=quantity_r,
        degenerate=bool(np.all(norms == 0.0)),
    )


def check_alpha(alpha: float) -> float:
    """alpha, if it is a smoothness 0 < alpha < 1; else ValueError."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def besov_seminorm(path: SampledPath, alpha: float, spec: OrliczSpec, h_set=None) -> SeminormReport:
    """Per-lag increment norms with sup aggregation (fine index infinity)
    over the windowed dyadic lag grid.

    Enlarging h_set can only increase the sup approximation.
    """
    check_alpha(alpha)
    n = path.values.size - 1
    lags = window_lags(dyadic_lags(n), n) if h_set is None else sorted(int(m) for m in h_set)
    increments = ((m, difference_path(path, m).values) for m in lags)
    return seminorm_report(increments, path.dt, alpha, spec)


@dataclass
class FitResult:
    slope: float
    half_width: float
    h_min: float
    h_max: float
    degenerate: bool = False


def fit_exponent(report: SeminormReport) -> FitResult:
    """Least-squares slope of log2(norm) against log2(h) over every positive lag.

    The report's lags are already those of the fit window (`window_lags`).
    The half width is twice the standard error of the fitted slope.
    All-zero reports are flagged degenerate with an undefined slope.
    """
    keep = report.norms > 0.0
    if keep.sum() < 2 or report.degenerate:
        return FitResult(np.nan, np.nan, np.nan, np.nan, True)
    x = np.log2(report.h_values[keep])
    y = np.log2(report.norms[keep])
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    if n > 2:
        se = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx)
    else:
        se = 0.0
    return FitResult(
        slope=slope,
        half_width=2.0 * se,
        h_min=float(report.h_values[keep].min()),
        h_max=float(report.h_values[keep].max()),
    )
