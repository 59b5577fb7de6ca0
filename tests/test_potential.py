import mpmath
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


def mp_phi(p, kappa, t):
    """phi(t) in 40-digit mpmath: Euler's integral turns the defining one
    into kappa^p x^2/2 2F1(2-p, 2; 3; -x), x = t/kappa; t^p/p for kappa = 0."""
    with mpmath.workdps(40):
        p, kappa, t = mpmath.mpf(p), mpmath.mpf(kappa), mpmath.mpf(t)
        if kappa == 0:
            return t**p / p
        x = t / kappa
        return kappa**p * x * x / 2 * mpmath.hyp2f1(2 - p, 2, 3, -x)


def test_phi_matches_high_precision_reference():
    # 4 ulp relative where the series runs (t < kappa/2) and for kappa = 0;
    # above kappa/2 the closed form's three terms cancel, so its bound is
    # 4 ulp of their absolute sum
    rng = np.random.default_rng(21)
    for p in (1.5, 2.5, 3.0, 4.2):
        k = 0.01
        closed = rng.uniform(0.006, 2.0, (16, 16))
        series = rng.uniform(0.0, 0.0049, (64, 64))
        series[0, 0] = 0.0
        mixed = np.where(rng.uniform(size=(16, 16)) < 0.1, series[:16, :16], closed)
        cases = [(k, closed), (k, series), (k, mixed), (0.0, closed), (0.0, series),
                 (k, 0.0), (k, 0.003), (k, 1.5)]
        # per-entry shifts as inequality_report passes them, some zero
        shifts = rng.uniform(0.0, 1.0, 200) * (rng.uniform(size=200) < 0.8)
        cases.append((shifts, rng.uniform(0.0, 1.0, 200) * 10.0 ** rng.uniform(-3, 1, 200)))
        for kk, t in cases:
            got = np.ravel(potential._phi(p, kk, t))
            for ki, ti, gi in zip(np.broadcast_to(kk, np.shape(t)).ravel(), np.ravel(t), got):
                ref = mp_phi(p, ki, ti)
                if ref == 0:
                    assert gi == 0.0, (p, ki, ti)
                    continue
                scale = 1.0
                if ti >= potential.SERIES_BELOW * ki:
                    kt = ki + ti
                    scale = (kt**p / p + ki * kt ** (p - 1) / (p - 1) + ki**p / (p * (p - 1))) / gi
                ulps = float(abs((gi - ref) / ref)) / np.finfo(float).eps
                assert ulps <= 4.0 * scale, (p, ki, ti, ulps, scale)


def test_phi_is_per_entry_and_a_batch_energy_calls_phi_once(monkeypatch):
    rng = np.random.default_rng(22)
    for p in (1.5, 2.5, 3.0, 4.2):
        # series and closed-form entries mixed, t/kappa from 1e-8 to 2
        t = 0.02 * rng.uniform(size=300) * 10.0 ** rng.uniform(-6, 0, 300)
        whole = potential._phi(p, 0.01, t)
        for i in range(t.size):
            assert np.float64(potential._phi(p, 0.01, t[i])).tobytes() == whole[i].tobytes()
    # a call with at most SERIES_FLOATS_MAX series entries sums them on
    # Python floats: the same bits as the array route and as one-entry
    # calls, just below, at and just above the cut-over, with and without
    # closed-form entries beside them
    cut = potential.SERIES_FLOATS_MAX
    for p in (1.5, 2.5, 3.0, 4.2):
        for count in (cut - 1, cut, cut + 1):
            for closed in (0, 5):
                t = 0.01 * rng.permutation(np.concatenate(
                    [rng.uniform(0.0, 0.45, count), rng.uniform(0.6, 2.0, closed)]))
                assert np.count_nonzero(t / 0.01 < potential.SERIES_BELOW) == count
                whole = potential._phi(p, 0.01, t)
                with monkeypatch.context() as m:
                    m.setattr(potential, "SERIES_FLOATS_MAX", -1)
                    assert potential._phi(p, 0.01, t).tobytes() == whole.tobytes()
                for i in range(t.size):
                    one = np.float64(potential._phi(p, 0.01, t[i]))
                    assert one.tobytes() == whole[i].tobytes()
    calls = []

    def counted_phi(params, t):
        calls.append(np.shape(t))
        return phi(params, t)

    monkeypatch.setattr(potential, "phi", counted_phi)
    params = PotentialParams(2.5, 0.01)
    batch = rng.standard_normal((2, 2, 4, 8, 8)) * 10.0 ** rng.uniform(-5, -1, (4, 8, 8))
    batch[:, :, 2] *= 1e3  # one field with no entry below kappa/2
    energies = energy(params, batch, 0.25)
    assert calls == [(4, 8, 8)]
    small = potential._frobenius(batch) < potential.SERIES_BELOW * params.kappa
    assert small.any(axis=(1, 2)).tolist() == [True, True, False, True]
    for b in range(4):
        assert np.float64(energy(params, batch[:, :, b], 0.25)).tobytes() == energies[b].tobytes()


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
    from pstokeslab.grid import Grid

    g = Grid(8)
    assert energy(PotentialParams(2.5, 0.1), np.zeros((2, 2, 8, 8)), g.cell_area) == 0.0
    values = np.zeros((2, 2, 8, 8))
    values[0, 0] = 1.0  # |xi| = 1 at every node
    assert energy(PotentialParams(2.0, 0.0), values, g.cell_area) == pytest.approx(0.5, rel=1e-13)


def test_energy_against_loop_oracle():
    from pstokeslab.grid import Grid

    g = Grid(8)
    rng = np.random.default_rng(7)
    values = rng.standard_normal((2, 2, 8, 8))
    params = PotentialParams(2.7, 0.3)
    total = 0.0
    for i in range(8):
        for j in range(8):
            norm = np.sqrt(np.sum(values[:, :, i, j] ** 2))
            total += g.cell_area * phi(params, norm)
    assert energy(params, values, g.cell_area) == pytest.approx(total, rel=1e-12)


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
