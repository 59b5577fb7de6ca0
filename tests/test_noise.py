import numpy as np
import pytest

from pstokeslab.grid import Grid, div_vec_values
from pstokeslab.noise import (
    NoiseSpec,
    PathRng,
    apply_G,
    sample_increment,
)

from oracles import ito_isometry_check, l2_norm


@pytest.fixture(scope="module")
def grid16():
    return Grid(16)


def test_replay_is_bit_exact():
    a = sample_increment(PathRng(123, 7), 0.01, 16)
    b = sample_increment(PathRng(123, 7), 0.01, 16)
    assert np.array_equal(a, b)


def test_distinct_paths_differ():
    a = sample_increment(PathRng(123, 0), 0.01, 16)
    b = sample_increment(PathRng(123, 1), 0.01, 16)
    assert not np.array_equal(a, b)


def test_increment_variance_law_of_large_numbers():
    rng = PathRng(5, 0)
    dt = 0.37
    draws = np.stack([sample_increment(rng, dt, 4) for _ in range(100000)])
    var = draws.var(axis=0)
    assert np.all(var > 0.97 * dt) and np.all(var < 1.03 * dt)


def test_zero_dt_rejected():
    with pytest.raises(ValueError):
        sample_increment(PathRng(0, 0), 0.0, 4)
    with pytest.raises(ValueError):
        sample_increment(PathRng(0, 0), -1.0, 4)
    with pytest.raises(ValueError, match="dt must be positive"):
        sample_increment(PathRng(0, 0), float("nan"), 4)


def test_spec_validation(grid16):
    with pytest.raises(ValueError):
        NoiseSpec(grid16, 4, decay=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(grid16, 4, rho="bogus")
    with pytest.raises(ValueError):
        NoiseSpec(grid16, 4, flavor="bogus")


def test_modes_are_masked_and_normalised(grid16):
    for flavor in ("mixed", "divergence-free", "gradient"):
        spec = NoiseSpec(grid16, 8, flavor=flavor)
        for j in range(8):
            psi = spec.modes[j]
            assert np.max(np.abs(psi[:, grid16.boundary_mask])) == 0.0
            norm = grid16.cell_area * np.sum(psi**2)
            assert norm == pytest.approx(1.0, rel=1e-12)


def test_divergence_free_modes(grid16):
    spec = NoiseSpec(grid16, 8, flavor="divergence-free")
    for j in range(8):
        res = l2_norm(grid16, div_vec_values(grid16.diff_1d, spec.modes[j]))
        assert res < 1e-10


def test_apply_g_zero_increment(grid16):
    spec = NoiseSpec(grid16, 8)
    u = np.zeros((2, 16, 16))
    out = apply_G(spec, u, np.zeros(8))
    assert np.all(out == 0.0)


def test_apply_g_single_mode_basis_case(grid16):
    spec = NoiseSpec(grid16, 8, rho="one")
    z = np.zeros(8)
    z[3] = 1.0
    u = np.zeros((2, 16, 16))
    out = apply_G(spec, u, z)
    expect = spec.lambdas[3] * spec.modes[3]
    assert np.max(np.abs(out - expect)) < 1e-15


def test_apply_g_matches_double_loop_oracle(grid16):
    rng = np.random.default_rng(0)
    spec = NoiseSpec(grid16, 8, rho="inv_one_plus_s2")
    u = rng.standard_normal((2, 16, 16))
    z = rng.standard_normal(8)
    out = apply_G(spec, u, z)
    speed = np.sqrt(u[0] ** 2 + u[1] ** 2)
    rho = 1.0 / (1.0 + speed**2)
    expect = np.zeros((2, 16, 16))
    for j in range(8):
        for c in range(2):
            expect[c] += spec.lambdas[j] * spec.modes[j, c] * rho * z[j]
    assert np.max(np.abs(out - expect)) < 1e-13


def test_apply_g_linear_in_increment(grid16):
    rng = np.random.default_rng(1)
    spec = NoiseSpec(grid16, 8)
    u = rng.standard_normal((2, 16, 16))
    z1, z2 = rng.standard_normal(8), rng.standard_normal(8)
    combo = apply_G(spec, u, 2.0 * z1 - 0.5 * z2)
    parts = (
        2.0 * apply_G(spec, u, z1)
        - 0.5 * apply_G(spec, u, z2)
    )
    assert np.max(np.abs(combo - parts)) < 1e-13


def test_ito_zero_spec(grid16):
    spec = NoiseSpec(grid16, 0)
    u = np.zeros((2, 16, 16))
    rep = ito_isometry_check(spec, u, 0.1, 8, 100)
    assert rep.terminal_mean == 0.0 and rep.exact_second_moment == 0.0


def test_ito_requires_additive(grid16):
    spec = NoiseSpec(grid16, 4, rho="inv_one_plus_s2")
    u = np.zeros((2, 16, 16))
    with pytest.raises(ValueError):
        ito_isometry_check(spec, u, 0.1, 8, 10)


def test_ito_single_mode_exact_moment(grid16):
    # exact Gaussian moment oracle: E I(T)^2 = T lambda_1^2 ||psi_1||^2
    spec = NoiseSpec(grid16, 1, rho="one")
    u = np.zeros((2, 16, 16))
    rep = ito_isometry_check(spec, u, dt=1.0 / 64, steps=64, paths=10000, rng_seed=7)
    exact = spec.lambdas[0] ** 2 * grid16.cell_area * np.sum(spec.modes[0] ** 2)
    assert rep.exact_second_moment == pytest.approx(exact, rel=1e-12)
    assert abs(rep.zscore) <= 3.0
    assert 1.0 <= rep.sup_to_integral <= 4.5  # Doob bracket plus slack
