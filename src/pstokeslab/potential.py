"""Shifted power-law potential and the tensors derived from it.

The dissipation of the system is generated by the convex potential

    phi(t) = integral_0^t (kappa + s)^(p-2) s ds,   p > 1, kappa >= 0,

whose closed form is

    phi(t) = (kappa+t)^p / p - kappa (kappa+t)^(p-1) / (p-1)
             + kappa^p / (p (p-1)).

From phi we build the stress tensor S(xi) = (kappa+|xi|)^(p-2) xi and the
monotonicity tensor V(xi) = (kappa+|xi|)^((p-2)/2) xi.  The key algebraic
facts used throughout the package:

  * S(xi):xi = |V(xi)|^2,
  * (S(P)-S(Q)):(P-Q) is comparable to |V(P)-V(Q)|^2 with finite positive
    constants depending only on p,
  * phi(2t) = 2^p phi_{kappa/2}(t)  (shift/scaling identity),
  * phi is sandwiched between shifted p-th powers.

Matrix magnitudes |xi| are Frobenius norms everywhere (the L^2 tensor
inner product is the one used by the spatial discretisation).  Tensor
arguments have the field layout (2, 2, ...): the two leading axes are
the matrix.  These kernels are the ones the stepper runs.  They take
the magnitude t = |xi| of their argument, as `_frobenius` gives it, or
S's radial factor (kappa+t)^(p-2) (`s_factor`, also the Hessian's a2)
where the caller has it already: the stepper forms t once per strain
and the factor once per Newton iterate.  Given or not, they give the
same bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PotentialParams",
    "phi",
    "s_factor",
    "s_tensor",
    "v_tensor",
    "hessian_coeffs",
    "energy",
]


@dataclass(frozen=True)
class PotentialParams:
    """Exponent p and shift kappa defining the potential."""

    p: float
    kappa: float = 0.0

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"exponent p must exceed 1, got {self.p}")
        if self.kappa < 0.0:
            raise ValueError(f"shift kappa must be nonnegative, got {self.kappa}")


def _check_nonnegative(t):
    if np.any(np.asarray(t) < 0.0):
        raise ValueError("potential arguments must be nonnegative")


def phi(params: PotentialParams, t):
    """Potential value phi(t), entry by entry for t >= 0.

    The closed form loses all digits for t << kappa (three terms of
    size kappa^p cancel down to about kappa^(p-2) t^2 / 2), so below
    t = kappa/2 the defining integral is summed as a binomial series in
    t/kappa instead, to a few ulp; just above the switch the closed form
    still loses about one digit.  phi(0) is exactly zero, and an entry's
    value has the same bits in any array.
    """
    return _phi(params.p, params.kappa, t)


def _phi(p, k, t):
    """phi with shift k: one float, or an array of shifts shaped like t.

    The closed form (t^p / p for k = 0) runs over the whole array, then
    the series overwrites the entries with t/k < 0.5; when all are that
    small, only the series runs.
    """
    _check_nonnegative(t)
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = t / k  # k = 0 gives inf or nan and keeps the closed form
    small = x < SERIES_BELOW
    if small.all():
        out = _phi_series(p, k, x)
    else:
        kt = k + t
        out = kt**p / p - k * kt ** (p - 1.0) / (p - 1.0) + k**p / (p * (p - 1.0))
        np.maximum(out, 0.0, out=out)
        if small.any():
            out[small] = _phi_series(p, k[small] if np.ndim(k) > 0 else k, x[small])
    return float(out[0]) if scalar else out


# phi sums its binomial series on the entries with t/kappa below this
SERIES_BELOW = 0.5
# Up to this many series entries with one shift, Horner's rule runs on
# Python floats.  Both routes cost in proportion to the degree: the
# array route's ufunc calls take about 30-40 us at any size up to 64
# entries for p = 1.5, 2.5 and 4.2 and 4 us for p = 3; Python floats
# 1.3 us per entry, and 0.25 us for p = 3, which breaks even at 16
# (timeit, one process).
SERIES_FLOATS_MAX = 16


@functools.lru_cache(maxsize=16)
def _series_coeffs(p: float) -> tuple:
    """a_j = binom(p-2, j) / (j+2), highest j first, for Horner's rule.

    The last j is the first past p-2 whose term a_j x^(j+2) at x = 1/2 is
    below 1e-17 of the leading x^2/2; past p-2 the terms alternate and
    shrink, so that bounds the truncation error (none for integer p).
    """
    coeffs, c, j = [], 1.0, 0
    while True:
        coeffs.append(c / (j + 2.0))
        if j > p - 2.0 and 2.0 * abs(coeffs[-1]) * SERIES_BELOW**j < 1e-17:
            return tuple(reversed(coeffs))
        c *= (p - 2.0 - j) / (j + 1.0)  # binom(p-2, j+1)
        j += 1


def _phi_series(p, k, xs):
    """k^p * integral_0^x (1+s)^(p-2) s ds = k^p sum_j a_j x^(j+2), x = xs < 1/2.

    Horner's rule of one fixed degree per p, entry by entry.  With one
    shift k and at most SERIES_FLOATS_MAX entries it runs on Python
    floats, which round each multiply and add as the array ufuncs do, so
    both routes give the same bits.  An array of shifts stays on the
    array route: NumPy's vector power may round k^p differently.
    """
    coeffs = _series_coeffs(p)
    if xs.size <= SERIES_FLOATS_MAX and np.ndim(k) == 0:
        kp = k**p
        out = []
        for x in xs.tolist():
            total = coeffs[0]
            for a in coeffs[1:]:
                total = total * x + a
            out.append(kp * total * x * x)
        return np.array(out)
    total = np.full_like(xs, coeffs[0])
    for a in coeffs[1:]:
        total *= xs
        total += a
    return k**p * total * xs * xs


def _frobenius(xi):
    """Frobenius magnitude over the two leading (matrix) axes."""
    return np.sqrt(np.add.reduce(xi**2, axis=(0, 1)))


def _magnitude(xi, t):
    """t if the caller has |xi| already, else its Frobenius magnitude."""
    return _frobenius(xi) if t is None else t


def _radial_scale(params: PotentialParams, norm, expo: float):
    """(kappa+|xi|)^expo, the radial factor of S (expo = p-2) and V.

    For kappa = 0 and p < 2 the factor is singular at xi = 0 and is set
    to 0 there, the continuous limit of S, V and phi'.
    """
    p, k = params.p, params.kappa
    if p >= 2.0 or k > 0.0:
        return (k + norm) ** expo
    with np.errstate(divide="ignore"):
        return np.where(norm > 0.0, np.where(norm > 0.0, norm, 1.0) ** expo, 0.0)


def s_factor(params: PotentialParams, t):
    """(kappa+t)^(p-2) = phi'(t)/t at magnitudes t: the radial factor of S
    and the a2 of hessian_coeffs.

    For kappa = 0 and p < 2 it is 0 at t = 0 (see _radial_scale).
    """
    return _radial_scale(params, t, params.p - 2.0)


def _curvatures(params: PotentialParams, t, a2=None):
    """a2 = phi'(t)/t and phi''(t), with their limits at t = 0; a2 is
    s_factor(params, t) where the caller has it.

    For kappa = 0, p < 2 both are singular at t = 0; callers floor kappa
    or exclude t = 0.
    """
    p, k = params.p, params.kappa
    if a2 is None:
        a2 = s_factor(params, t)
    if k > 0.0:
        return a2, a2 * (1.0 + (p - 2.0) * t / (k + t))
    return a2, (p - 1.0) * a2


def s_tensor(params: PotentialParams, xi, factor=None):
    """Stress tensor S(xi) = (kappa+|xi|)^(p-2) xi, |.| Frobenius.

    xi has the field layout: the two leading axes are the matrix, any
    trailing axes are nodes or samples.  S(0) = 0 in every regime.
    factor is s_factor(params, |xi|), where the caller has it.
    """
    if factor is None:
        factor = s_factor(params, _frobenius(xi))
    return factor * xi


def v_tensor(params: PotentialParams, xi, t=None):
    """Monotonicity tensor V(xi) = (kappa+|xi|)^((p-2)/2) xi, layout as
    s_tensor; t is |xi|, where the caller has it."""
    return _radial_scale(params, _magnitude(xi, t), (params.p - 2.0) / 2.0) * xi


def hessian_coeffs(params: PotentialParams, xi, t=None, a2=None):
    """Nodewise coefficients (a1, a2, E) of the second derivative of J.

    D^2 J(u)[v, w] pairs eps v with eps w through the fourth-order
    tensor a1 (E:M) E + a2 M, E = xi / |xi| (0 where xi = 0), with
    a2 = phi'(t)/t and a1 = phi''(t) - a2 at t = |xi|.  t is |xi| and a2
    is s_factor(params, t), where the caller has them.
    """
    t = _magnitude(xi, t)
    a2, phipp = _curvatures(params, t, a2)
    pos = t > 0.0
    if pos.all():
        unit = xi / t
    else:
        unit = np.where(pos, xi / np.where(pos, t, 1.0), 0.0)
    return phipp - a2, a2, unit


def energy(params: PotentialParams, eps, cell_area: float, t=None):
    """Dissipation energy: cell_area * sum of phi(|strain|) over nodes.

    eps is an array whose two leading axes are the 2x2 matrix components,
    and t is |eps| where the caller has it.  A (2, 2, B, n, n) array is
    a batch of B strain fields and gives one energy per field; phi is
    nodewise, so one call over the batch gives each field the bits of its
    own call.
    """
    values = np.asarray(eps, dtype=float)
    t = _magnitude(values, t)
    # a finite strain has a finite magnitude unless its squares overflow
    if not np.isfinite(t).all() and not np.isfinite(values).all():
        raise ValueError("strain field contains non-finite entries")
    vals = phi(params, t)
    if values.ndim != 5:
        return float(cell_area * np.add.reduce(vals, axis=None))
    return cell_area * np.add.reduce(vals.reshape(len(vals), -1), axis=1)
