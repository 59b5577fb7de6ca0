import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pstokeslab.grid import (
    Grid,
    ScalarField,
    VectorField,
    curl_values,
    div_tensor_values,
    div_vec_values,
    grad_scalar_values,
    grad_vec_values,
)
from pstokeslab.projection import BogovskiiOperator, HelmholtzProjector, MeanFreeError

from oracles import l2_inner, l2_norm


def random_divfree(grid, rng):
    """Exactly divergence-free field from a random stream function."""
    stream = np.zeros((grid.n, grid.n))
    stream[2:-2, 2:-2] = rng.standard_normal((grid.n - 4, grid.n - 4))
    return curl_values(grid.diff_1d, stream)


def dense_divergence_matrix(grid):
    n = grid.n
    D = np.zeros((n * n, 2 * n * n))
    for c in range(2 * n * n):
        e = np.zeros(2 * n * n)
        e[c] = 1.0
        D[:, c] = div_vec_values(grid.diff_1d, e.reshape(2, n, n)).ravel()
    return D


def dense_gradient_matrix(grid):
    n = grid.n
    G = np.zeros((4 * n * n, 2 * n * n))
    for c in range(2 * n * n):
        e = np.zeros(2 * n * n)
        e[c] = 1.0
        G[:, c] = grad_vec_values(grid.diff_1d, e.reshape(2, n, n)).ravel()
    return G


def checkerboard_basis(grid):
    """Unit per-component checkerboards (-1)^(i+j), as columns."""
    n = grid.n
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    cb = np.where((i + j) % 2 == 0, 1.0, -1.0).ravel() / n
    C = np.zeros((2 * n * n, 2))
    C[: n * n, 0] = cb
    C[n * n :, 1] = cb
    return C


class PenaltyBogovskii:
    """Reference: the gauges as dense penalty blocks C C^T and z z^T.

    Minimises ||grad w||^2 subject to div w = g with the KKT matrix
    [[G^T G + c C C^T, B^T], [B, -c z z^T]], c = (2/h)^2, assembled
    from the gradient and divergence kernels.
    """

    def __init__(self, grid):
        n = grid.n
        self.grid = grid
        self.nv = 2 * n * n
        G = dense_gradient_matrix(grid)
        B = dense_divergence_matrix(grid)
        C = checkerboard_basis(grid) * (2.0 / grid.h)
        z = np.full((n * n, 1), 2.0 / (grid.h * n))
        kkt = np.block([[G.T @ G + C @ C.T, B.T], [B, -z @ z.T]])
        self._lu = spla.splu(sp.csc_matrix(kkt))

    def apply(self, g):
        sol = self._lu.solve(np.concatenate([np.zeros(self.nv), g.ravel()]))
        return sol[: self.nv].reshape(2, self.grid.n, self.grid.n)

    def adjoint_apply(self, v):
        mu = self._lu.solve(np.concatenate([v.ravel(), np.zeros(self.grid.n**2)]))[self.nv :]
        return (mu - mu.mean()).reshape(self.grid.n, self.grid.n)


def rel_diff(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture(scope="module")
def grid16():
    return Grid(16)


@pytest.fixture(scope="module")
def proj16(grid16):
    return HelmholtzProjector(grid16)


@pytest.fixture(scope="module")
def bog16(grid16):
    return BogovskiiOperator(grid16)


def test_pure_gradient_projects_to_zero(grid16, proj16):
    rng = np.random.default_rng(0)
    v = grad_scalar_values(grid16.diff_1d, rng.standard_normal((16, 16)))
    div_free = proj16.project_values(v)[0]
    assert l2_norm(grid16, div_free) < 1e-10 * l2_norm(grid16, v)


def test_divergence_free_field_is_fixed_point(grid16, proj16):
    rng = np.random.default_rng(1)
    v = random_divfree(grid16, rng)
    div_free = proj16.project_values(v)[0]
    assert l2_norm(grid16, div_free - v) < 1e-10 * l2_norm(grid16, v)


def test_decomposition_contracts(grid16, proj16):
    rng = np.random.default_rng(2)
    v = rng.standard_normal((2, 16, 16))
    div_free, gradient, potential = proj16.project_values(v)
    norm = lambda x: l2_norm(grid16, x)  # noqa: E731
    # exact recomposition and orthogonality
    assert np.max(np.abs(div_free + gradient - v)) < 1e-12
    assert abs(l2_inner(grid16, div_free, gradient)) < 1e-12 * norm(v) ** 2
    assert abs(potential.mean()) < 1e-14
    # Pythagoras and nonexpansiveness
    lhs = norm(v) ** 2
    rhs = norm(div_free) ** 2 + norm(gradient) ** 2
    assert abs(lhs - rhs) < 1e-12 * lhs
    assert norm(div_free) <= norm(v) * (1 + 1e-13)
    assert norm(gradient) <= norm(v) * (1 + 1e-13)
    # idempotence
    again = proj16.project_values(div_free)[0]
    assert norm(again - div_free) < 1e-10 * norm(div_free)


def test_projection_matches_dense_nullspace_oracle(grid16, proj16):
    # orthogonal projector assembled from the kernel of the divergence matrix
    rng = np.random.default_rng(3)
    Dmat = dense_divergence_matrix(grid16)
    _, sv, Vt = np.linalg.svd(Dmat)
    rank = int(np.sum(sv > 1e-10))
    basis = Vt[rank:].T
    P = basis @ basis.T
    v = rng.standard_normal((2, 16, 16))
    oracle = (P @ v.ravel()).reshape(2, 16, 16)
    ours = proj16.project_values(v)[0]
    assert np.max(np.abs(oracle - ours)) < 1e-8


def test_project_div_s_annihilates_pressure_tensors(grid16, proj16):
    rng = np.random.default_rng(4)
    D = grid16.diff_1d
    zero = np.zeros((2, 2, 16, 16))
    assert l2_norm(grid16, proj16.project_values(div_tensor_values(D, zero))[0]) == 0.0
    q = rng.standard_normal((16, 16))
    T = np.zeros((2, 2, 16, 16))
    T[0, 0] = q
    T[1, 1] = q
    out = proj16.project_values(div_tensor_values(D, T))[0]
    scale = l2_norm(grid16, grad_scalar_values(D, q))
    assert l2_norm(grid16, out) < 1e-10 * scale


def test_project_div_s_duality(grid16, proj16):
    rng = np.random.default_rng(5)
    S_vals = rng.standard_normal((2, 2, 16, 16))
    S = 0.5 * (S_vals + S_vals.transpose(1, 0, 2, 3))
    D = grid16.diff_1d
    R = proj16.project_values(div_tensor_values(D, S))[0]
    for _ in range(50):
        xi = rng.standard_normal((2, 16, 16))
        lhs = l2_inner(grid16, R, xi)
        rhs = -l2_inner(grid16, S, grad_vec_values(D, proj16.project_values(xi)[0]))
        assert abs(lhs - rhs) <= 1e-8 * max(l2_norm(grid16, S) * l2_norm(grid16, xi), 1.0)


def test_measured_gradient_stability(grid16, proj16):
    # discrete analog of projection gradient stability: constant is
    # measured and reported, never asserted against a theoretical value
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        phase = rng.uniform(0, 2 * np.pi, 4)
        v = np.stack([
            np.sin(2 * np.pi * grid16.x + phase[0]) * np.sin(2 * np.pi * grid16.y + phase[1]),
            np.sin(2 * np.pi * grid16.x + phase[2]) * np.sin(2 * np.pi * grid16.y + phase[3]),
        ])
        D = grid16.diff_1d
        num = l2_norm(grid16, grad_vec_values(D, proj16.project_values(v)[0]))
        den = l2_norm(grid16, grad_vec_values(D, v))
        worst = max(worst, num / den)
    assert np.isfinite(worst) and worst > 0.0


def test_bogovskii_zero(bog16, grid16):
    out = bog16.apply(ScalarField(grid16, np.zeros((16, 16))))
    assert np.all(out.values == 0.0)


def test_bogovskii_sine_forcing(bog16, grid16):
    g = np.sin(2 * np.pi * grid16.x) * np.sin(2 * np.pi * grid16.y)
    w = bog16.apply(ScalarField(grid16, g)).values
    assert l2_norm(grid16, div_vec_values(grid16.diff_1d, w) - g) < 1e-8


def test_bogovskii_random_meanfree(bog16, grid16):
    rng = np.random.default_rng(7)
    g = rng.standard_normal((16, 16))
    g -= g.mean()
    w = bog16.apply(ScalarField(grid16, g)).values
    D = grid16.diff_1d
    assert l2_norm(grid16, div_vec_values(D, w) - g) < 1e-8 * l2_norm(grid16, g)
    # measured W^{1,2} stability constant is finite and reported
    w12 = np.sqrt(l2_norm(grid16, w) ** 2 + l2_norm(grid16, grad_vec_values(D, w)) ** 2)
    c_meas = w12 / l2_norm(grid16, g)
    assert np.isfinite(c_meas)


def test_bogovskii_rejects_non_meanfree(bog16, grid16):
    g = ScalarField(grid16, np.ones((16, 16)))
    with pytest.raises(MeanFreeError):
        bog16.apply(g)


def test_bogovskii_adjoint_identity(bog16, grid16):
    rng = np.random.default_rng(8)
    for _ in range(100):
        g = rng.standard_normal((16, 16))
        g -= g.mean()
        v = rng.standard_normal((2, 16, 16))
        lhs = l2_inner(grid16, bog16.adjoint_apply(VectorField(grid16, v)).values, g)
        rhs = l2_inner(grid16, v, bog16.apply(ScalarField(grid16, g)).values)
        assert abs(lhs - rhs) <= 1e-10 * l2_norm(grid16, v) * l2_norm(grid16, g)


def test_bogovskii_adjoint_meanfree(bog16, grid16):
    rng = np.random.default_rng(9)
    v = VectorField(grid16, rng.standard_normal((2, 16, 16)))
    out = bog16.adjoint_apply(v)
    assert abs(out.values.mean()) < 1e-13 * np.abs(out.values).max()


@pytest.mark.parametrize("n", [8, 16, 32])
def test_bordered_bogovskii_matches_penalty_reference(n):
    grid = Grid(n)
    ours = BogovskiiOperator(grid)
    ref = PenaltyBogovskii(grid)
    rng = np.random.default_rng(100 + n)
    for _ in range(4):
        g = rng.standard_normal((n, n))
        g -= g.mean()
        v = rng.standard_normal((2, n, n))
        assert rel_diff(ours.apply(ScalarField(grid, g)).values, ref.apply(g)) < 1e-12
        assert rel_diff(ours.adjoint_apply(VectorField(grid, v)).values, ref.adjoint_apply(v)) < 1e-12


@pytest.mark.parametrize("n", [8, 16, 32])
def test_bordered_bogovskii_gauges(n):
    grid = Grid(n)
    bog = BogovskiiOperator(grid)
    C = checkerboard_basis(grid)
    rng = np.random.default_rng(200 + n)
    g = rng.standard_normal((n, n))
    g -= g.mean()
    w = bog.apply(ScalarField(grid, g)).values.ravel()
    # the bordering rows C^T w = 0 pin the checkerboard content
    assert np.max(np.abs(C.T @ w)) < 1e-12 * np.linalg.norm(w)
    v = rng.standard_normal((2, n, n))
    _, mu = bog._solve(v, np.zeros(n * n))
    # the bordering row z^T mu = 0 pins the multiplier constant
    assert abs(mu.mean()) < 1e-12 * np.abs(mu).max()
    out = bog.adjoint_apply(VectorField(grid, v)).values
    assert abs(out.mean()) < 1e-13 * np.abs(out).max()


def test_bogovskii_n64_right_inverse_and_adjoint():
    grid = Grid(64)
    bog = BogovskiiOperator(grid)
    rng = np.random.default_rng(64)
    for _ in range(3):
        g = rng.standard_normal((64, 64))
        g -= g.mean()
        w = bog.apply(ScalarField(grid, g)).values
        assert l2_norm(grid, div_vec_values(grid.diff_1d, w) - g) < 1e-10 * l2_norm(grid, g)
        v = rng.standard_normal((2, 64, 64))
        lhs = l2_inner(grid, bog.adjoint_apply(VectorField(grid, v)).values, g)
        rhs = l2_inner(grid, v, w)
        assert abs(lhs - rhs) < 1e-10 * l2_norm(grid, v) * l2_norm(grid, g)
