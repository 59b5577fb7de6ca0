import math

import mpmath
import numpy as np
import pytest

from pstokeslab import seminorms
from pstokeslab.runner import wiener_dichotomy_study
from pstokeslab.seminorms import (
    OrliczSpec,
    SampledPath,
    besov_seminorm,
    difference_path,
    dyadic_lags,
    fit_exponent,
    luxemburg_norm,
)

from oracles import report_for_quantity


def brute_force_besov_sup(values, dt, alpha, q, lags):
    """Independent loop oracle for the Nikolskii sup over the lag grid."""
    best = 0.0
    for m in lags:
        diffs = values[m:] - values[:-m]
        integral = sum(abs(d) ** q * dt for d in diffs[:-1])
        norm = integral ** (1.0 / q)
        best = max(best, (m * dt) ** (-alpha) * norm)
    return best


@pytest.mark.parametrize("kind", ["power", "nq"])
@pytest.mark.parametrize("q", [math.inf, math.nan, 0.5])
def test_orlicz_spec_rejects_non_finite_and_small_q(kind, q):
    with pytest.raises(ValueError, match="q must be finite and at least 1"):
        OrliczSpec(kind, q)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, 5.0, math.nan, math.inf])
def test_alpha_rule_rejects_values_outside_the_open_unit_interval(alpha):
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        seminorms.check_alpha(alpha)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        besov_seminorm(SampledPath(np.arange(16.0), 1.0 / 15), alpha, OrliczSpec.power(2))
    assert seminorms.check_alpha(0.25) == 0.25


def test_sampled_path_validation():
    with pytest.raises(ValueError):
        SampledPath(np.ones(3), 0.1)
    with pytest.raises(ValueError):
        SampledPath(np.ones(8), -0.1)


def test_luxemburg_zero_path():
    assert luxemburg_norm(SampledPath(np.zeros(16), 0.1), OrliczSpec.phi2()) == 0.0


def test_luxemburg_constant_path_closed_forms():
    # exponential scale: solve exp((c/lambda)^2) - 1 = 1 on unit length
    c = 3.0
    path = SampledPath(np.full(129, c), dt=1.0 / 128)
    lux = luxemburg_norm(path, OrliczSpec.phi2())
    assert lux == pytest.approx(c / np.sqrt(np.log(2.0)), rel=1e-9)
    # power scale reduces to the plain L^q norm
    for q in (1.0, 2.0, 3.5):
        assert luxemburg_norm(path, OrliczSpec.power(q)) == pytest.approx(c, rel=1e-12)


def test_luxemburg_homogeneity():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(200)
    path = SampledPath(vals, 0.01)
    scaled = SampledPath(7.5 * vals, 0.01)
    for spec in (OrliczSpec.power(2), OrliczSpec.phi2(), OrliczSpec.nq(2)):
        a = luxemburg_norm(path, spec)
        b = luxemburg_norm(scaled, spec)
        assert b == pytest.approx(7.5 * a, rel=1e-9)


def test_luxemburg_power_consistency():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(300)
    path = SampledPath(vals, 1.0 / 299)
    direct = (np.sum(np.abs(vals[:-1]) ** 3) / 299) ** (1 / 3)
    assert luxemburg_norm(path, OrliczSpec.power(3)) == pytest.approx(direct, rel=1e-12)


def test_difference_path_cases():
    path = SampledPath(np.full(10, 2.0), 0.5)
    assert np.all(difference_path(path, 3).values == 0.0)
    lin = SampledPath(np.arange(10) * 0.5, 0.5)
    d = difference_path(lin, 4)
    assert np.allclose(d.values, 2.0)
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(32)
    d = difference_path(SampledPath(vals, 0.1), 5)
    oracle = np.array([vals[k + 5] - vals[k] for k in range(27)])
    assert np.array_equal(d.values, oracle)
    with pytest.raises(ValueError):
        difference_path(path, 0)
    with pytest.raises(ValueError):
        difference_path(path, 10)


def test_besov_constant_path_degenerate():
    rep = besov_seminorm(SampledPath(np.full(128, 1.0), 1.0 / 128), 0.5, OrliczSpec.phi2())
    assert rep.degenerate
    assert rep.sup_approx == 0.0


def test_besov_linear_path_closed_form():
    # increments of x(t) = t at lag h are constant h on a window of
    # length 1 - h, so the L^2-in-time norm is h sqrt(1-h)
    n = 1 << 12
    path = SampledPath(np.arange(n + 1) / n, 1.0 / n)
    rep = besov_seminorm(path, 0.5, OrliczSpec.power(2))
    for h, norm in zip(rep.h_values, rep.norms):
        assert norm == pytest.approx(h * np.sqrt(1.0 - h), rel=1e-10)


def test_besov_scaling_homogeneity():
    rng = np.random.default_rng(3)
    vals = np.cumsum(rng.standard_normal(512)) * 0.1
    a = besov_seminorm(SampledPath(vals, 1 / 512), 0.5, OrliczSpec.power(2))
    b = besov_seminorm(SampledPath(-4.0 * vals, 1 / 512), 0.5, OrliczSpec.power(2))
    assert b.sup_approx == pytest.approx(4.0 * a.sup_approx, rel=1e-12)


def test_besov_monotone_in_lag_set():
    rng = np.random.default_rng(4)
    vals = np.cumsum(rng.standard_normal(512))
    path = SampledPath(vals, 1 / 512)
    small = besov_seminorm(path, 0.5, OrliczSpec.power(2), h_set=[4, 8])
    large = besov_seminorm(path, 0.5, OrliczSpec.power(2), h_set=[4, 8, 16, 32])
    assert large.sup_approx >= small.sup_approx


def test_besov_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    vals = np.cumsum(rng.standard_normal(257)) * 0.3
    path = SampledPath(vals, 1 / 256)
    lags = [2, 4, 8, 16]
    rep = besov_seminorm(path, 0.5, OrliczSpec.power(2), h_set=lags)
    oracle = brute_force_besov_sup(vals, 1 / 256, 0.5, 2.0, lags)
    assert rep.sup_approx == pytest.approx(oracle, rel=1e-10)


def test_dyadic_lags():
    assert dyadic_lags(4096) == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    assert dyadic_lags(8) == [1]


@pytest.mark.parametrize("n", [8, 24, 32, 512])
def test_besov_default_lags_match_a_stored_run(n):
    # a path of n steps gets the lags and norms that norms/fit report for
    # a run of n steps, which stores the increments at dyadic_lags(n)
    path = SampledPath(np.cumsum(np.random.default_rng(n).standard_normal(n + 1)), 1.0 / n)
    stored = {m: difference_path(path, m).values for m in dyadic_lags(n)}
    direct = besov_seminorm(path, 0.5, OrliczSpec.power(2))
    from_run = report_for_quantity(stored, path.dt, n, 0.5, OrliczSpec.power(2))
    assert direct.h_values.tolist() == from_run.h_values.tolist()
    assert direct.norms.tolist() == from_run.norms.tolist()


def test_besov_ordering_identity():
    # per-lag identity h^{-a2} n_h = h^{a1-a2} (h^{-a1} n_h)
    rng = np.random.default_rng(6)
    vals = np.cumsum(rng.standard_normal(512))
    path = SampledPath(vals, 1 / 512)
    r1 = besov_seminorm(path, 0.25, OrliczSpec.power(2))
    r2 = besov_seminorm(path, 0.75, OrliczSpec.power(2))
    lhs = r2.sup_terms
    rhs = r2.h_values ** (0.25 - 0.75) * r1.sup_terms
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


def test_fit_exponent_linear_path():
    n = 1 << 14
    path = SampledPath(np.arange(n + 1) / n, 1.0 / n)
    rep = besov_seminorm(path, 0.5, OrliczSpec.power(2))
    fit = fit_exponent(rep)
    assert not fit.degenerate
    assert abs(fit.slope - 1.0) <= 0.01


def test_fit_exponent_degenerate_flagged():
    rep = besov_seminorm(SampledPath(np.full(256, 2.0), 1 / 256), 0.5, OrliczSpec.power(2))
    fit = fit_exponent(rep)
    assert fit.degenerate
    assert np.isnan(fit.slope)


def test_fit_exponent_sqrt_path():
    # brute-force oracle values for t -> sqrt(t), frozen from a direct
    # computation of the increment norms on the dyadic window:
    #   * quadratic scale: the increment norms behave like
    #     h sqrt(log(1/h)); the oracle slope is 0.906, not the
    #     self-similarity index
    #   * exponential scale: the t=0 spike of height sqrt(h) dominates
    #     and the slope recovers 1/2 up to a logarithmic correction;
    #     oracle value 0.55
    n = 1 << 14
    t = np.arange(n + 1) / n
    path = SampledPath(np.sqrt(t), 1.0 / n)

    rep2 = besov_seminorm(path, 0.5, OrliczSpec.power(2))
    lags = [int(round(h / path.dt)) for h in rep2.h_values]
    oracle_sup = brute_force_besov_sup(path.values, path.dt, 0.5, 2.0, lags)
    assert rep2.sup_approx == pytest.approx(oracle_sup, rel=1e-9)
    assert fit_exponent(rep2).slope == pytest.approx(0.9062, abs=5e-3)

    rep_exp = besov_seminorm(path, 0.5, OrliczSpec.phi2())
    assert fit_exponent(rep_exp).slope == pytest.approx(0.5515, abs=5e-3)


def test_k_sto_exponent_matches_wiener_oracle():
    # accumulated stochastic pressure under additive gradient noise
    # behaves like a Wiener reduction: its fitted exponent matches the
    # directly simulated scalar Wiener oracle's window
    from pstokeslab.grid import Grid, w12_norm_values
    from pstokeslab.noise import NoiseSpec, PathRng, sample_increment
    from pstokeslab.potential import PotentialParams
    from pstokeslab.stepping import SolverConfig, Stepper

    g = Grid(16)
    spec = NoiseSpec(g, 4, flavor="gradient")
    n = 2048
    dt = 1.0 / n
    cfg = SolverConfig(dt=dt, T=1.0)
    stepper = Stepper(g, PotentialParams(2.5, 0.01), cfg, spec=spec)
    slopes = []
    for idx in range(6):
        rng_path = PathRng(17, idx)
        # K of a block of one path, as run_path accumulates it
        K = np.zeros((1, 16, 16))
        series = [0.0]
        u = np.zeros((2, 1, 16, 16))
        for _ in range(n):
            dW = sample_increment(rng_path, dt, 4)
            K = stepper.accumulate_K_sto(K, u, [dW])
            series.append(float(w12_norm_values(g.diff_1d, g.cell_area, K[0])))
        rep = besov_seminorm(SampledPath(np.asarray(series), dt), 0.5, OrliczSpec.power(2.0))
        slopes.append(fit_exponent(rep).slope)
    k_median = float(np.median(slopes))
    assert 0.4 <= k_median <= 0.6

    rng = np.random.default_rng(8)
    oracle_slopes = []
    for _ in range(16):
        w = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n)) * np.sqrt(dt)])
        rep = besov_seminorm(SampledPath(np.abs(w), dt), 0.5, OrliczSpec.power(2.0))
        oracle_slopes.append(fit_exponent(rep).slope)
    w_median = float(np.median(oracle_slopes))
    assert 0.4 <= w_median <= 0.6
    assert abs(k_median - w_median) <= 0.1


# ------------------------------------------------- Luxemburg root-find

ROOT_SPECS = [OrliczSpec.phi2(), OrliczSpec.nq(1.0), OrliczSpec.nq(2.0), OrliczSpec.nq(3.5)]


def _log_phi(spec, logt):
    """log Phi(t) from log t, finite wherever Phi(t) > 0 is representable."""
    if spec.kind == "phi2":
        a = np.exp(2.0 * logt)
        return np.where(2.0 * logt < -700.0, 2.0 * logt, a + np.log(-np.expm1(-a)))
    loglog1p = np.where(logt < -700.0, logt, np.log(np.log1p(np.exp(logt))))
    return spec.q * logt + 0.5 * spec.q * loglog1p


def log_space_luxemburg(values, dt, spec):
    """Independent oracle: brentq on the log modular in u = log(lambda / max|x|).

    The modular is summed as a shifted log-sum, so no term overflows, and
    the bracket is widened until it strictly contains the root.
    """
    from scipy.optimize import brentq

    x = np.abs(np.asarray(values, dtype=float)[:-1])
    xmax = float(x.max())
    logx = np.log(x[x > 0.0]) - np.log(xmax)

    def g(u):
        with np.errstate(over="ignore", divide="ignore"):
            lp = _log_phi(spec, logx - u)
        top = float(lp.max())
        return np.log(dt) + top + np.log(np.sum(np.exp(lp - top)))

    lo, hi = -5.0, 5.0
    while g(lo) <= 0.0:
        lo -= 5.0
    while g(hi) >= 0.0:
        hi += 5.0
    return xmax * np.exp(brentq(g, lo, hi, xtol=1e-15, rtol=1e-15, maxiter=500))


@pytest.mark.parametrize("spec", ROOT_SPECS + [OrliczSpec.power(3.0)], ids=lambda s: s.label)
def test_t_derivative_matches_central_difference(spec):
    t = np.array([1e-3, 0.1, 0.5, 1.0, 2.0, 4.0])
    h = 1e-6 * t
    slope = (spec.evaluate(t + h) - spec.evaluate(t - h)) / (2.0 * h)
    got = spec.t_derivative(t, spec.evaluate(t))
    np.testing.assert_allclose(got, t * slope, rtol=1e-7)
    phi = spec.evaluate(t)
    assert spec.t_derivative(t, phi, out=phi) is phi
    np.testing.assert_array_equal(phi, got)
    assert spec.t_derivative(np.zeros(3), spec.evaluate(np.zeros(3))).tolist() == [0.0] * 3


@pytest.mark.parametrize("spec", ROOT_SPECS, ids=lambda s: s.label)
def test_luxemburg_matches_log_space_brentq_oracle(spec):
    rng = np.random.default_rng(11)
    for e in range(10, 17):
        dt = 2.0**-e
        n = 2**e
        brownian = rng.standard_normal(n) * np.sqrt(dt)
        cauchy = rng.standard_cauchy(n)
        for values in (brownian, cauchy):
            expected = log_space_luxemburg(values, dt, spec)
            got = luxemburg_norm(SampledPath(values, dt), spec)
            assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("spec", ROOT_SPECS, ids=lambda s: s.label)
def test_luxemburg_bracket_edge_paths(spec):
    # for phi2 the Newton start s0 = Phi^-1(1/dt)/max|x| is the exact root
    # of a single-spike path, and constant modulus puts every sample at the max
    for dt in (2.0**-10, 0.5, 1.0, 3.0, 100.0):
        spike = np.zeros(64)
        spike[5] = -2.5
        got = luxemburg_norm(SampledPath(spike, dt), spec)
        assert got == pytest.approx(log_space_luxemburg(spike, dt, spec), rel=1e-12)
        alternating = 0.7 * np.where(np.arange(64) % 2, 1.0, -1.0)
        got = luxemburg_norm(SampledPath(alternating, dt), spec)
        assert got == pytest.approx(log_space_luxemburg(alternating, dt, spec), rel=1e-12)
        if spec.kind == "phi2":
            # dt Phi(2.5/lambda) = 1 and 63 dt Phi(0.7/lambda) = 1
            assert luxemburg_norm(SampledPath(spike, dt), spec) == pytest.approx(
                2.5 / np.sqrt(np.log1p(1.0 / dt)), rel=1e-13
            )
            assert got == pytest.approx(0.7 / np.sqrt(np.log1p(1.0 / (63 * dt))), rel=1e-13)
    wide = np.geomspace(1e-200, 1e200, 1001) * np.where(np.arange(1001) % 3, 1.0, -1.0)
    for dt in (1e-3, 1.0, 10.0):
        got = luxemburg_norm(SampledPath(wide, dt), spec)
        assert got == pytest.approx(log_space_luxemburg(wide, dt, spec), rel=1e-12)


def test_phi2_norm_evaluation_budget(monkeypatch):
    # Newton from the right converges in a handful of modular evaluations;
    # Nq starts from the closed-form upper point of Phi^-1, not a bisection
    calls = []
    evaluate = OrliczSpec.evaluate

    def counted(self, t):
        calls.append(1)
        return evaluate(self, t)

    monkeypatch.setattr(OrliczSpec, "evaluate", counted)
    rng = np.random.default_rng(3)
    dt = 2.0**-16
    increment = rng.standard_normal(65536) * np.sqrt(dt)
    budgets = [(OrliczSpec.phi2(), 5)] + [(OrliczSpec.nq(q), 16) for q in (1.0, 2.0, 3.5)]
    for spec, budget in budgets:
        calls.clear()
        norm = luxemburg_norm(SampledPath(increment, dt), spec)
        assert norm > 0.0
        assert len(calls) <= budget, spec.label
    # the analysis size: lag 4 of a 512-step Brownian path, 508 samples
    dt = 2.0**-12
    w = np.concatenate([[0.0], np.cumsum(rng.standard_normal(512)) * np.sqrt(dt)])
    calls.clear()
    assert luxemburg_norm(difference_path(SampledPath(w, dt), 4), OrliczSpec.phi2()) > 0.0
    assert len(calls) <= 5


def test_phi2_mean_evaluations_over_the_wiener_study(monkeypatch):
    # the dichotomy study's 576 phi2 norms (16 paths, dt = 2^-10 ... 2^-16,
    # 6 to 12 lags each) take 4.46 modular evaluations apiece on average
    evals, norms = [], []
    evaluate, norm = OrliczSpec.evaluate, seminorms.luxemburg_norm

    def counted_evaluate(self, t):
        evals.append(self.kind)
        return evaluate(self, t)

    def counted_norm(path, spec):
        norms.append(spec.kind)
        return norm(path, spec)

    monkeypatch.setattr(OrliczSpec, "evaluate", counted_evaluate)
    monkeypatch.setattr(seminorms, "luxemburg_norm", counted_norm)
    wiener_dichotomy_study(paths=16, master_seed=1)
    assert norms.count("phi2") == 576
    assert evals.count("phi2") / 576 <= 4.5


@pytest.mark.parametrize("spec", [OrliczSpec.power(2)] + ROOT_SPECS, ids=lambda s: s.label)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_luxemburg_rejects_non_finite_samples(spec, bad):
    values = np.linspace(0.0, 1.0, 32)
    values[7] = bad
    with pytest.raises(ValueError, match="non-finite"):
        luxemburg_norm(SampledPath(values, 1.0 / 32), spec)


def test_phi2_evaluate_overflows_to_inf():
    # no clamp: past t ~ 26.6 Phi2 = exp(t^2) - 1 exceeds the largest double
    with np.errstate(over="ignore"):
        assert OrliczSpec.phi2().evaluate(np.array([30.0])).tolist() == [math.inf]
    assert OrliczSpec.phi2().evaluate(np.array([26.0]))[0] < math.inf


def mpmath_phi2_luxemburg(values, dt, guess):
    """lambda with dt sum expm1((x/lambda)^2) = 1 in 40-digit mpmath.

    Newton in s = 1/lambda from the float answer: the modular is strictly
    increasing in s, so its root is unique, and the steps must shrink to
    below 1e-30 relative.
    """
    x = np.abs(np.asarray(values, dtype=float)[:-1])
    with mpmath.workdps(40):
        xs = [mpmath.mpf(float(v)) ** 2 for v in x if v != 0.0]
        dt = mpmath.mpf(dt)
        s = 1 / mpmath.mpf(guess)
        for _ in range(20):
            u = [s * s * v for v in xs]
            m = dt * mpmath.fsum(mpmath.expm1(w) for w in u)
            E = dt * mpmath.fsum(2 * w * mpmath.exp(w) for w in u)  # s dm/ds
            step = (m - 1) / E
            s *= 1 - step
            if abs(step) < mpmath.mpf(10) ** -30:
                return float(1 / s)
    raise AssertionError("mpmath Newton did not converge")


@pytest.mark.parametrize("dt", [2.0**-10, 2.0**-16, 1.0, 100.0])
def test_phi2_norm_matches_mpmath_reference(dt):
    rng = np.random.default_rng(7)
    for name, values in _root_find_paths(dt, rng):
        got = luxemburg_norm(SampledPath(values, dt), OrliczSpec.phi2())
        expected = mpmath_phi2_luxemburg(values, dt, got)
        assert abs(got - expected) <= 1e-15 * expected, (name, got, expected)


def _root_find_paths(dt, rng):
    n = 2048
    spike = np.zeros(n)
    spike[5] = -2.5
    yield "brownian", rng.standard_normal(n) * np.sqrt(dt)
    yield "cauchy", rng.standard_cauchy(n)
    yield "spike", spike
    yield "alternating", 0.7 * np.where(np.arange(n) % 2, 1.0, -1.0)
    yield "wide", np.geomspace(1e-200, 1e200, 1001) * np.where(np.arange(1001) % 3, 1.0, -1.0)


@pytest.mark.parametrize("spec", ROOT_SPECS, ids=lambda s: s.label)
def test_luxemburg_iterates_start_right_of_root_and_fall(spec, monkeypatch):
    # the modular at the start is at least one, and every later modular is
    # no larger than the one before it, both up to rounding.  A spike's
    # start is its exact root, where phi2's modular rounds to within
    # (1 + t^2) ulp-sized errors of one, t^2 <= ln(1 + 1/dt): expm1 scales
    # the relative rounding of t^2 by t^2
    sums = []
    evaluate = OrliczSpec.evaluate

    def recorded(self, t):
        phi = evaluate(self, t)
        sums.append(float(np.sum(phi)))
        return phi

    monkeypatch.setattr(OrliczSpec, "evaluate", recorded)
    rng = np.random.default_rng(5)
    for dt in [2.0**-e for e in range(10, 17)] + [100.0]:
        for name, values in _root_find_paths(dt, rng):
            sums.clear()
            assert luxemburg_norm(SampledPath(values, dt), spec) > 0.0
            modulars = [dt * total for total in sums]
            assert modulars[0] >= 1.0 - 1e-15 * (1.0 + math.log1p(1.0 / dt)), (name, dt)
            for before, after in zip(modulars, modulars[1:]):
                assert after <= before * (1.0 + 1e-15), (name, dt, modulars)
