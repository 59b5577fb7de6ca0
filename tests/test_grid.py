import numpy as np
import pytest

from pstokeslab.grid import (
    Grid,
    ScalarField,
    TensorField,
    VectorField,
    curl_values,
    div_tensor_values,
    div_vec_values,
    grad_scalar_values,
    grad_vec_values,
    lp_norm,
    save_field,
    sym_grad_values,
    w12_norm_values,
)

from oracles import l2_inner, l2_norm, load_field


def naive_sym_grad(grid, values):
    """Loop oracle: central differences with odd-reflection ghosts."""
    n, h = grid.n, grid.h

    def at(comp, i, j):
        if i < 0:
            return -at(comp, 0, j)
        if i >= n:
            return -at(comp, n - 1, j)
        if j < 0:
            return -at(comp, i, 0)
        if j >= n:
            return -at(comp, i, n - 1)
        return values[comp, i, j]

    out = np.zeros((2, 2, n, n))
    for i in range(n):
        for j in range(n):
            grad = np.zeros((2, 2))
            for c in range(2):
                grad[c, 0] = (at(c, i + 1, j) - at(c, i - 1, j)) / (2 * h)
                grad[c, 1] = (at(c, i, j + 1) - at(c, i, j - 1)) / (2 * h)
            out[:, :, i, j] = 0.5 * (grad + grad.T)
    return out


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3)
    with pytest.raises(ValueError):
        Grid(12)
    g = Grid(8)
    assert g.h * g.n == 1.0
    assert g.boundary_mask.sum() == 4 * 8 - 4


def test_sym_grad_zero():
    g = Grid(8)
    out = sym_grad_values(g.diff_1d, np.zeros((2, 8, 8)))
    assert np.all(out == 0.0)


def test_sym_grad_affine_exact_interior():
    # mask relaxed: affine fields do not satisfy the Dirichlet condition
    g = Grid(16)
    A = np.array([[0.7, -0.3], [1.1, 0.4]])
    values = np.einsum("cd,dij->cij", A, np.stack([g.x, g.y]))
    out = sym_grad_values(g.diff_1d, values)
    symA = 0.5 * (A + A.T)
    interior = out[:, :, 1:-1, 1:-1]
    expect = np.broadcast_to(symA[:, :, None, None], interior.shape)
    assert np.max(np.abs(interior - expect)) < 1e-12


def test_sym_grad_matches_loop_oracle():
    g = Grid(8)
    rng = np.random.default_rng(0)
    values = rng.standard_normal((2, 8, 8))
    fast = sym_grad_values(g.diff_1d, values)
    slow = naive_sym_grad(g, values)
    assert np.max(np.abs(fast - slow)) < 1e-13


def test_sym_grad_symmetric_nodewise():
    g = Grid(16)
    rng = np.random.default_rng(1)
    out = sym_grad_values(g.diff_1d, rng.standard_normal((2, 16, 16)))
    assert np.max(np.abs(out[0, 1] - out[1, 0])) == 0.0


def test_grad_of_constant_is_zero():
    g = Grid(16)
    q = np.full((16, 16), 3.7)
    assert np.max(np.abs(grad_scalar_values(g.diff_1d, q))) < 1e-13


def test_adjointness_random_pairs():
    g = Grid(16)
    rng = np.random.default_rng(2)
    for _ in range(100):
        q = rng.standard_normal((16, 16))
        v = rng.standard_normal((2, 16, 16))
        lhs = l2_inner(g, grad_scalar_values(g.diff_1d, q), v)
        rhs = -l2_inner(g, q, div_vec_values(g.diff_1d, v))
        assert abs(lhs - rhs) <= 1e-13 * l2_norm(g, q) * l2_norm(g, v)


def test_tensor_adjointness():
    g = Grid(16)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((2, 16, 16))
    T = rng.standard_normal((2, 2, 16, 16))
    lhs = l2_inner(g, grad_vec_values(g.diff_1d, v), T)
    rhs = -l2_inner(g, v, div_tensor_values(g.diff_1d, T))
    assert abs(lhs - rhs) <= 1e-13 * l2_norm(g, v) * l2_norm(g, T)


def test_div_tensor_of_pressure_tensor():
    g = Grid(16)
    rng = np.random.default_rng(4)
    q = rng.standard_normal((16, 16))
    T = np.zeros((2, 2, 16, 16))
    T[0, 0] = q
    T[1, 1] = q
    out = div_tensor_values(g.diff_1d, T)
    expect = grad_scalar_values(g.diff_1d, q)
    assert np.max(np.abs(out - expect)) == 0.0


def test_operator_linearity():
    g = Grid(16)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((2, 16, 16))
    w = rng.standard_normal((2, 16, 16))
    a, b = 2.5, -1.25
    D = g.diff_1d
    combo = sym_grad_values(D, a * v + b * w)
    parts = a * sym_grad_values(D, v) + b * sym_grad_values(D, w)
    assert np.max(np.abs(combo - parts)) < 1e-13 * max(np.abs(parts).max(), 1.0)


def test_symmetrization_is_contraction_nodewise():
    g = Grid(16)
    rng = np.random.default_rng(6)
    v = rng.standard_normal((2, 16, 16))
    full = grad_vec_values(g.diff_1d, v)
    symm = sym_grad_values(g.diff_1d, v)
    full_norm = np.sqrt(np.sum(full**2, axis=(0, 1)))
    sym_norm = np.sqrt(np.sum(symm**2, axis=(0, 1)))
    assert np.all(sym_norm <= full_norm + 1e-14)


def test_lp_norm_examples():
    g = Grid(8)
    assert lp_norm(ScalarField(g, np.zeros((8, 8))), 2) == 0.0
    c = ScalarField(g, np.full((8, 8), -2.5))
    assert lp_norm(c, 2) == pytest.approx(2.5, abs=1e-14)
    assert lp_norm(c, np.inf) == 2.5
    with pytest.raises(ValueError):
        lp_norm(c, 0.5)


def test_lp_norm_against_loop_oracle():
    g = Grid(8)
    rng = np.random.default_rng(7)
    values = rng.standard_normal((2, 8, 8))
    v = VectorField(g, values)
    total = 0.0
    for i in range(8):
        for j in range(8):
            total += g.cell_area * np.sqrt(values[0, i, j] ** 2 + values[1, i, j] ** 2) ** 3
    assert lp_norm(v, 3) == pytest.approx(total ** (1 / 3), rel=1e-14)


def test_csv_roundtrip(tmp_path):
    g = Grid(8)
    rng = np.random.default_rng(8)
    for kind, shape in ((ScalarField, (8, 8)), (VectorField, (2, 8, 8)),
                        (TensorField, (2, 2, 8, 8))):
        f = kind(g, rng.standard_normal(shape))
        path = tmp_path / "field.csv"
        save_field(f, path)
        back = load_field(g, path)
        assert np.array_equal(back.values, f.values)
        with open(path) as fh:
            assert fh.readline().strip() == "i,j,comp,value"


def test_whole_field_kernels_match_per_component_formulas():
    # the batched kernels against one D @ q / q @ D.T product per component
    rng = np.random.default_rng(12)
    for n in (8, 16, 32, 64):
        D = Grid(n).diff_1d
        for _ in range(5):
            v = rng.standard_normal((2, n, n)) * 10.0 ** rng.uniform(-6, 6)
            T = rng.standard_normal((2, 2, n, n))
            q = rng.standard_normal((n, n))
            g = np.stack([np.stack([D @ v[i], v[i] @ D.T]) for i in range(2)])
            off = 0.5 * (g[0, 1] + g[1, 0])
            sym = np.stack([np.stack([g[0, 0], off]), np.stack([off, g[1, 1]])])
            div_t = np.stack([-(D.T @ T[i, 0]) - (T[i, 1] @ D) for i in range(2)])
            pairs = [
                (grad_vec_values(D, v), g),
                (sym_grad_values(D, v), sym),
                (div_vec_values(D, v), D @ v[0] + v[1] @ D.T),
                (div_tensor_values(D, T), div_t),
                (curl_values(D, q), np.stack([q @ D.T, -(D @ q)])),
                (grad_scalar_values(D, q), np.stack([-(D.T @ q), -(q @ D)])),
            ]
            for fast, reference in pairs:
                assert fast.shape == reference.shape
                assert fast.tobytes() == reference.tobytes()


def test_w12_norm_batch_matches_definition():
    # each slice of a batch against (||q||^2 + ||grad_scalar q||^2)^(1/2)
    rng = np.random.default_rng(13)
    for n in (8, 32):
        g = Grid(n)
        batch = rng.standard_normal((3, 2, n, n))
        norms = w12_norm_values(g.diff_1d, g.cell_area, batch)
        assert norms.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            q = batch[idx]
            expect = np.sqrt(l2_norm(g, q) ** 2 + l2_norm(g, grad_scalar_values(g.diff_1d, q)) ** 2)
            assert norms[idx] == pytest.approx(expect, rel=1e-14)
            # one field alone gets the bits of its slice of the batch
            assert w12_norm_values(g.diff_1d, g.cell_area, q) == norms[idx]
