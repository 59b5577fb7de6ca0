import numpy as np
import pytest
from scipy.integrate import quad

from pstokeslab import potential
from pstokeslab.potential import (
    PotentialParams,
    energy,
    phi,
    s_tensor,
    v_tensor,
)

from oracles import inequality_report, phi_prime, phi_second


def quad_phi(p, kappa, t):
    """Independent quadrature oracle for the defining integral."""
    val, _ = quad(lambda s: (kappa + s) ** (p - 2.0) * s, 0.0, t, epsabs=1e-14)
    return val


def test_params_validation():
    with pytest.raises(ValueError):
        PotentialParams(1.0, 0.0)
    with pytest.raises(ValueError):
        PotentialParams(2.0, -0.1)


def test_phi_p2_is_kappa_independent():
    assert phi(PotentialParams(2.0, 5.0), 2.0) == pytest.approx(2.0, abs=1e-14)
    assert phi(PotentialParams(2.0, 0.0), 0.0) == 0.0


def test_phi_against_quadrature_oracle():
    # adaptive quadrature of (1+s)s over [0,1] gives 5/6
    assert quad_phi(3.0, 1.0, 1.0) == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert phi(PotentialParams(3.0, 1.0), 1.0) == pytest.approx(5.0 / 6.0, rel=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.uniform(1.2, 4.5)
        kappa = rng.choice([0.0, 1e-3, 0.5, 2.0])
        t = rng.uniform(0.0, 5.0)
        assert phi(PotentialParams(p, kappa), t) == pytest.approx(
            quad_phi(p, kappa, t), rel=1e-9, abs=1e-12
        )


def _masked_phi(p, k, t):
    """phi as it was evaluated before the one-pass form: the closed form
    and the series each on their own gathered subset of entries."""
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    per_entry = np.ndim(k) > 0
    if not per_entry and k == 0.0:
        out = t**p / p
        return float(out[0]) if scalar else out
    with np.errstate(divide="ignore", invalid="ignore"):
        x = t / k
    small = x < 0.5
    out = np.empty_like(x)
    if np.any(~small):
        tb = t[~small]
        kb = k[~small] if per_entry else k
        kt = kb + tb
        val = kt**p / p - kb * kt ** (p - 1.0) / (p - 1.0) + kb**p / (p * (p - 1.0))
        out[~small] = np.maximum(val, 0.0)
    if np.any(small):
        xs = x[small]
        total = np.zeros_like(xs)
        c = np.ones_like(xs)
        for j in range(120):
            term = c * xs * xs / (j + 2.0)
            total += term
            if np.max(np.abs(term)) <= 1e-18 * max(np.max(total), 1e-300):
                break
            c = c * xs * ((p - 2.0 - j) / (j + 1.0))
        out[small] = (k[small] if per_entry else k) ** p * total
    return float(out[0]) if scalar else out


def test_phi_bytes_match_masked_evaluation():
    # the one-pass phi gives the masked evaluation's bytes in every branch
    rng = np.random.default_rng(21)
    for p in (1.5, 2.5, 3.0, 4.2):
        k = 0.01
        closed = rng.uniform(0.006, 2.0, (16, 16))
        series = rng.uniform(0.0, 0.0049, (32, 32))
        series[0, 0] = 0.0
        mixed = np.where(rng.uniform(size=(16, 16)) < 0.1, series[:16, :16], closed)
        cases = [(k, closed), (k, series), (k, mixed), (0.0, closed), (0.0, series),
                 (k, 0.0), (k, 0.003), (k, 1.5)]
        # per-entry shifts as inequality_report passes them, some zero
        shifts = rng.uniform(0.0, 1.0, 200) * (rng.uniform(size=200) < 0.8)
        cases.append((shifts, rng.uniform(0.0, 1.0, 200) * 10.0 ** rng.uniform(-3, 1, 200)))
        for kk, t in cases:
            got, want = potential._phi(p, kk, t), _masked_phi(p, kk, t)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (p, t)


def test_phi_domain_error():
    with pytest.raises(ValueError):
        phi(PotentialParams(2.0, 0.0), -1.0)


def test_phi_prime_examples():
    assert phi_prime(PotentialParams(2.0, 7.0), 3.0) == pytest.approx(3.0)
    assert phi_prime(PotentialParams(3.0, 1.0), 2.0) == pytest.approx(6.0)


def test_phi_second_examples_and_singularity():
    assert phi_second(PotentialParams(2.0, 0.0), 5.0) == pytest.approx(1.0)
    with pytest.raises(ZeroDivisionError):
        phi_second(PotentialParams(1.5, 0.0), 0.0)


def test_derivative_consistency_finite_differences():
    rng = np.random.default_rng(1)
    step = 1e-5
    for p, kappa in ((1.5, 0.0), (2.5, 0.01), (3.0, 1.0), (4.5, 0.0)):
        params = PotentialParams(p, kappa)
        t = rng.uniform(0.1, 10.0, 50)
        fd = (phi(params, t + step) - phi(params, t - step)) / (2.0 * step)
        exact = phi_prime(params, t)
        assert np.max(np.abs(fd - exact) / np.abs(exact)) < 1e-6
        fd2 = (phi_prime(params, t + step) - phi_prime(params, t - step)) / (2.0 * step)
        exact2 = phi_second(params, t)
        assert np.max(np.abs(fd2 - exact2) / np.abs(exact2)) < 1e-6


def test_convexity_sampled():
    rng = np.random.default_rng(2)
    for p, kappa in ((1.5, 0.0), (2.5, 0.01), (4.5, 1.0)):
        params = PotentialParams(p, kappa)
        t1 = rng.uniform(0.0, 10.0, 500)
        t2 = rng.uniform(0.0, 10.0, 500)
        theta = rng.uniform(0.0, 1.0, 500)
        mix = phi(params, theta * t1 + (1.0 - theta) * t2)
        chord = theta * phi(params, t1) + (1.0 - theta) * phi(params, t2)
        assert np.all(mix <= chord + 1e-12 * np.maximum(chord, 1.0))


def test_scaling_identity():
    rng = np.random.default_rng(3)
    for p, kappa in ((1.5, 0.3), (2.0, 1.0), (2.5, 0.01), (3.0, 2.0)):
        t = rng.uniform(0.0, 8.0, 200)
        lhs = phi(PotentialParams(p, kappa), 2.0 * t)
        rhs = 2.0**p * phi(PotentialParams(p, kappa / 2.0), t)
        assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)) < 1e-12


def test_power_sandwich():
    rng = np.random.default_rng(4)
    for p, kappa in ((1.5, 0.5), (2.5, 0.01), (3.0, 1.0), (4.5, 2.0)):
        params = PotentialParams(p, kappa)
        t = rng.uniform(0.0, 20.0, 500)
        kt = kappa + t
        lower = kt**p / (2 * p) - (2 ** (p - 1) - 1) * kappa**p / (p * (p - 1))
        upper = kt**p / p + kappa**p / (p * (p - 1))
        values = phi(params, t)
        assert np.all(values <= upper * (1.0 + 1e-12) + 1e-12)
        assert np.all(values >= lower - 1e-12 * np.maximum(np.abs(lower), 1.0))


def test_s_tensor_identity_at_p2():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((2, 2))
    out = s_tensor(PotentialParams(2.0, 0.0), A)
    assert np.array_equal(out, A)


def test_s_tensor_hand_value():
    out = s_tensor(PotentialParams(3.0, 0.0), np.eye(2))
    assert np.allclose(out, np.sqrt(2.0) * np.eye(2), rtol=1e-14)


def test_v_tensor_zero_limit():
    for p, kappa in ((1.5, 0.0), (2.0, 0.0), (3.0, 1.0)):
        out = v_tensor(PotentialParams(p, kappa), np.zeros((2, 2)))
        assert np.all(out == 0.0)
        assert np.all(s_tensor(PotentialParams(p, kappa), np.zeros((2, 2))) == 0.0)


def test_s_v_compatibility():
    rng = np.random.default_rng(6)
    xi = rng.standard_normal((1000, 2, 2)) * 10.0 ** rng.uniform(-2, 2, (1000, 1, 1))
    xi = np.moveaxis(xi, 0, -1)  # the kernels' field layout (2, 2, samples)
    for p, kappa in ((1.5, 0.0), (2.5, 0.01), (4.5, 1.0)):
        params = PotentialParams(p, kappa)
        s_dot = np.sum(s_tensor(params, xi) * xi, axis=(0, 1))
        v_sq = np.sum(v_tensor(params, xi) ** 2, axis=(0, 1))
        assert np.max(np.abs(s_dot - v_sq) / np.maximum(v_sq, 1e-300)) < 1e-12


def test_energy_zero_and_constant():
    from pstokeslab.grid import Grid, TensorField

    g = Grid(8)
    assert energy(PotentialParams(2.5, 0.1), g.tensor()) == 0.0
    values = np.zeros((2, 2, 8, 8))
    values[0, 0] = 1.0  # |xi| = 1 at every node
    field = TensorField(g, values)
    assert energy(PotentialParams(2.0, 0.0), field) == pytest.approx(0.5, rel=1e-13)


def test_energy_against_loop_oracle():
    from pstokeslab.grid import Grid, TensorField

    g = Grid(8)
    rng = np.random.default_rng(7)
    values = rng.standard_normal((2, 2, 8, 8))
    params = PotentialParams(2.7, 0.3)
    total = 0.0
    for i in range(8):
        for j in range(8):
            norm = np.sqrt(np.sum(values[:, :, i, j] ** 2))
            total += g.cell_area * phi(params, norm)
    assert energy(params, TensorField(g, values)) == pytest.approx(total, rel=1e-12)


def test_inequality_report_p2_exact_unity():
    rep = inequality_report(PotentialParams(2.0, 0.0), 20000, rng_seed=11)
    assert rep.ratio_min >= 1.0 - 1e-12
    assert rep.ratio_max <= 1.0 + 1e-12


def test_inequality_report_bracket_positive_finite():
    rep = inequality_report(PotentialParams(3.0, 0.0), 100000, rng_seed=13)
    assert 0.0 < rep.ratio_min <= rep.ratio_max < np.inf
    for delta, (c_delta, margin) in rep.young.items():
        assert c_delta >= 1.0 and np.isfinite(c_delta)
        assert margin >= 0.0
    c_cs, margin_cs = rep.shift_change
    assert c_cs >= 1.0 and margin_cs >= 0.0
    assert rep.norm_convention == "frobenius"


def test_inequality_bracket_stability_two_disjoint_runs():
    a = inequality_report(PotentialParams(3.0, 0.0), 100000, rng_seed=1)
    b = inequality_report(PotentialParams(3.0, 0.0), 100000, rng_seed=2)
    assert abs(a.ratio_min - b.ratio_min) <= 0.2 * abs(a.ratio_min)
    assert abs(a.ratio_max - b.ratio_max) <= 0.2 * abs(a.ratio_max)


def test_inequality_report_requires_samples():
    with pytest.raises(ValueError):
        inequality_report(PotentialParams(2.0, 0.0), 0, rng_seed=0)
