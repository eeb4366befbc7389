"""Dense complex matrix utilities.

Everything here operates on plain numpy arrays. Matrices are small (the
rest of the package never goes past dimension ~64), so eigendecompositions
and SVDs are used freely instead of iterative methods.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .tolerances import (DAVIES_COEFF_CUTOFF, DOMAIN_EDGE, PROB_NEGATIVITY_TOL, PSD_TOL,
                         REGULARIZATION_EPS, SINGULAR_CUTOFF, SUPPORT_CUTOFF)

__all__ = [
    "SUPPORT_CUTOFF",
    "SINGULAR_CUTOFF",
    "NotPSDError",
    "NonFiniteError",
    "DegenerateSpectrumError",
    "NoRealLogError",
    "reshuffle",
    "partial_trace",
    "kron",
    "hermitize",
    "spectrum",
    "psd_eigh",
    "from_eigh",
    "spectral",
    "psd_sqrt",
    "psd_inv_sqrt",
    "psd_power",
    "psd_log",
    "regularize_singular",
    "polar",
    "sqrt_product",
    "schur_positive",
    "stochastic3_log",
    "matrix_exp",
]

class NotPSDError(ValueError):
    """Matrix expected to be positive semi-definite is not."""


class NonFiniteError(ValueError):
    """Matrix has a NaN or infinite entry."""


class DegenerateSpectrumError(ValueError):
    """Spectrum too degenerate for the closed-form construction."""


class NoRealLogError(ValueError):
    """Matrix has no real logarithm (non-positive or complex spectrum)."""


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2 of a matrix or of each matrix in a (..., n, n) stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def reshuffle(m: np.ndarray) -> np.ndarray:
    """Permute the indices of an N²×N² matrix: out[(i,j),(k,l)] = m[(i,k),(j,l)].

    This is the involution relating the superoperator matrix of a map to
    its dynamical matrix. Composite indices are row-major, so (i,j) means
    row i*N + j.
    """
    m = np.asarray(m)
    d = m.shape[0]
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("reshuffle needs a square matrix")
    n = math.isqrt(d)
    if n * n != d:
        raise ValueError(f"dimension {d} is not a perfect square")
    return m.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(d, d)


def partial_trace(m: np.ndarray, dims: tuple[int, int], which: int) -> np.ndarray:
    """Trace out subsystem `which` (1 or 2) of a matrix on C^d1 ⊗ C^d2.

    Tracing the second factor returns a d1×d1 matrix, tracing the first a
    d2×d2 one; the total trace is preserved.
    """
    m = np.asarray(m)
    d1, d2 = dims
    if m.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    t = m.reshape(d1, d2, d1, d2)
    if which == 2:
        return np.einsum("ijkj->ik", t)
    if which == 1:
        return np.einsum("ijil->jl", t)
    raise ValueError("which must be 1 or 2")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, row-major index composition: (a⊗b)[(i,j),(k,l)] = a[i,k]b[j,l]."""
    return np.kron(np.asarray(a), np.asarray(b))


def _finite(h) -> np.ndarray:
    h = np.asarray(h)
    if not np.isfinite(h).all():
        raise NonFiniteError("matrix has a NaN or infinite entry")
    return h


def spectrum(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each matrix in a (..., n, n) stack.

    Raises NonFiniteError on NaN or inf, which an eigensolver may otherwise
    turn into finite eigenvalues.
    """
    return np.linalg.eigvalsh(hermitize(_finite(h)))


def psd_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked eigendecomposition (w, v), h = v diag(w) v†, of each PSD Hermitian
    matrix of a (..., n, n) stack; w ascending along the last axis.

    One eigh covers the whole stack, and each matrix is decomposed exactly
    as it would be alone, so a result never depends on the stack around it.
    Eigenvalues below -PSD_TOL raise NotPSDError; those in [-PSD_TOL, 0) are
    clipped to 0. Non-finite input raises NonFiniteError.
    """
    w, v = np.linalg.eigh(hermitize(_finite(h)))
    if w.min(initial=0.0) < -PSD_TOL:
        raise NotPSDError(f"min eigenvalue {w.min():.3e} below -{PSD_TOL:.0e}")
    return np.maximum(w, 0.0), v


def from_eigh(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v diag(w) v† for each pair of a (..., n) stack of spectra and a (..., n, n) stack of bases."""
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


def spectral(h: np.ndarray, f) -> np.ndarray:
    """v f(w) v† for each PSD Hermitian matrix v diag(w) v† of a (..., n, n) stack.

    (w, v) is the checked decomposition of psd_eigh, so f sees eigenvalues
    clipped at 0, and the checks are psd_eigh's.
    """
    w, v = psd_eigh(h)
    return from_eigh(f(w), v)


def _inv_sqrt(w: np.ndarray) -> np.ndarray:
    if w.min(initial=np.inf) <= SINGULAR_CUTOFF:
        raise NotPSDError("matrix is singular, inverse square root undefined")
    return 1.0 / np.sqrt(w)


def _on_support(w: np.ndarray, fn) -> np.ndarray:
    support = w > SUPPORT_CUTOFF
    return np.where(support, fn(np.where(support, w, 1.0)), 0.0)


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix (or of each in a stack)."""
    return spectral(h, np.sqrt)


def psd_inv_sqrt(h: np.ndarray) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix (or of each in a
    stack); a smallest eigenvalue at or below SINGULAR_CUTOFF raises NotPSDError."""
    return spectral(h, _inv_sqrt)


def psd_power(h: np.ndarray, a: float) -> np.ndarray:
    """h**a on the support of a PSD matrix (eigenvalues above SUPPORT_CUTOFF), 0 off it."""
    return spectral(h, lambda w: _on_support(w, lambda x: x**a))


def psd_log(h: np.ndarray) -> np.ndarray:
    """log h on the support of a PSD matrix (eigenvalues above SUPPORT_CUTOFF), 0 off it."""
    return spectral(h, lambda w: _on_support(w, np.log))


def _regularized(w: np.ndarray, eps: float = REGULARIZATION_EPS) -> tuple[np.ndarray, np.ndarray]:
    """The one regularization rule, on a (..., n) stack of ascending spectra.

    A spectrum whose smallest eigenvalue is at most SINGULAR_CUTOFF becomes
    (1-eps) w + eps/n, the spectrum of (1-eps) rho + eps I/n; others pass
    unchanged. Returns (spectra, singular mask). eps=0 raises NotPSDError on
    a singular spectrum instead.
    """
    singular = w[..., 0] <= SINGULAR_CUTOFF
    if not singular.any():
        return w, singular
    if not eps:
        raise NotPSDError("matrix is singular and regularization is disabled")
    return np.where(singular[..., None], (1 - eps) * w + eps / w.shape[-1], w), singular


def regularize_singular(rho: np.ndarray, eps: float = REGULARIZATION_EPS) -> np.ndarray:
    """Replace each PSD matrix of a stack whose smallest eigenvalue is at most
    SINGULAR_CUTOFF by (1-eps) rho + eps I/N; others pass unchanged.

    eps=0 raises NotPSDError on a singular matrix instead.
    """
    rho = np.asarray(rho, dtype=complex)
    w, v = psd_eigh(rho)
    w, singular = _regularized(w, eps)
    return np.where(singular[..., None, None], from_eigh(w, v), rho)


def polar(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left polar decomposition x = P @ W with P PSD Hermitian and W unitary.

    For rank-deficient x the unitary part is completed on the null space of
    P (through the SVD pairing), so W is always exactly unitary.
    """
    u, s, vh = np.linalg.svd(np.asarray(x, dtype=complex))
    p = hermitize((u * s) @ u.conj().T)
    w = u @ vh
    return p, w


def sqrt_product(rho: np.ndarray, sigma: np.ndarray, eps: float = REGULARIZATION_EPS) -> np.ndarray:
    """Square root of the product of two density matrices (or of each pair of two stacks).

    Returns rho^{1/2} (rho^{1/2} sigma rho^{1/2})^{1/2} rho^{-1/2}. Its trace
    is the root fidelity of the pair. A singular rho is replaced by
    (1-eps) rho + eps I/N before inverting; pass eps=0 to disable the
    regularization and get an error instead.
    """
    w, v = psd_eigh(rho)
    return _sqrt_product(_regularized(w, eps)[0], v, np.asarray(sigma))


def _sqrt_product(w: np.ndarray, v: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """sqrt_product of rho = v diag(w) v† and sigma, from rho's (regularized) decomposition."""
    sr = from_eigh(np.sqrt(w), v)
    return sr @ psd_sqrt(sr @ sigma @ sr) @ from_eigh(_inv_sqrt(w), v)


def schur_positive(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> bool:
    """Whether the block matrix [[a, b], [b†, c]] is PSD, via the Schur complement.

    Requires a to be Hermitian positive definite (every eigenvalue above
    SUPPORT_CUTOFF); then positivity of the block matrix is equivalent to
    c - b† a^{-1} b being PSD, to PSD_TOL.
    """
    a = np.asarray(a, dtype=complex)
    wa = np.linalg.eigvalsh(hermitize(a))
    if wa.min() <= SUPPORT_CUTOFF:
        raise NotPSDError("block A must be positive definite")
    comp = hermitize(np.asarray(c) - np.asarray(b).conj().T @ np.linalg.solve(a, b))
    return bool(np.linalg.eigvalsh(comp).min() >= -PSD_TOL)


def _real(f) -> np.ndarray:
    """f as a float array; a complex f with a nonzero imaginary part raises ValueError."""
    f = np.asarray(f)
    if np.iscomplexobj(f):
        if (f.imag != 0).any():  # a NaN imaginary part is nonzero too
            raise ValueError("expected a real matrix")
        f = f.real
    return np.asarray(f, dtype=float)


def _stochastic3_check(f: np.ndarray) -> None:
    if f.shape != (3, 3):
        raise ValueError("expected a 3×3 matrix")
    if np.max(np.abs(f.sum(axis=0) - 1.0)) > DOMAIN_EDGE:
        raise ValueError("columns must sum to 1")
    if f.min() < -PROB_NEGATIVITY_TOL:
        raise ValueError("entries must be nonnegative")


def stochastic3_xy(f: np.ndarray) -> tuple[float, float]:
    """The (x, y) parameters of a 3×3 stochastic matrix with spectrum {1, x+y, x-y}."""
    f = _real(f)
    tr = float(np.trace(f))
    x = (tr - 1.0) / 2.0
    disc = 2.0 * float(np.trace(f @ f)) - tr * tr + 2.0 * tr - 3.0
    if disc < -DAVIES_COEFF_CUTOFF:
        raise NoRealLogError(f"complex eigenvalue pair (discriminant {disc:.3e})")
    y = 0.5 * math.sqrt(max(disc, 0.0))
    return x, y


def stochastic3_log(f: np.ndarray) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Analytic logarithm of a 3×3 column-stochastic matrix with spectrum {1, x+y, x-y}.

    The log is assembled from the spectral projectors (Z² ± Z)/2 built out
    of F itself, without diagonalizing. Terms coeff·log(eig) with
    |coeff| <= DAVIES_COEFF_CUTOFF are set to 0, so boundary points with a
    zero eigenvalue evaluate by continuity. Returns (L, spectrum).
    """
    f = _real(f)
    _stochastic3_check(f)
    if np.abs(f - np.eye(3)).max() <= DAVIES_COEFF_CUTOFF:
        return np.zeros((3, 3)), (1.0, 1.0, 1.0)
    x, y = stochastic3_xy(f)
    lam_p, lam_m = x + y, x - y
    for lam in (lam_p, lam_m):
        if lam < -DAVIES_COEFF_CUTOFF or lam > 1.0 + DAVIES_COEFF_CUTOFF:
            raise NoRealLogError(f"eigenvalue {lam:.6g} outside (0, 1]")
    denom = y * y - (x - 1.0) ** 2
    if abs(denom) < DAVIES_COEFF_CUTOFF or y < DAVIES_COEFF_CUTOFF:
        raise DegenerateSpectrumError(
            "y² = (x-1)² or y = 0: fall back to an eigensolver"
        )
    g = f - np.eye(3)
    z2 = g @ (g - 2.0 * (x - 1.0) * np.eye(3)) / denom
    z = (g - (x - 1.0) * z2) / y
    proj_p = (z2 + z) / 2.0
    proj_m = (z2 - z) / 2.0

    def term(proj: np.ndarray, lam: float) -> np.ndarray:
        out = np.zeros((3, 3))
        mask = np.abs(proj) > DAVIES_COEFF_CUTOFF
        if mask.any():
            if lam <= 0.0:
                raise NoRealLogError("zero eigenvalue with nonzero projector entry")
            out[mask] = proj[mask] * math.log(lam)
        return out

    log_f = term(proj_p, lam_p) + term(proj_m, lam_m)
    return log_f, (1.0, lam_p, lam_m)


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring, via scipy)."""
    return scipy.linalg.expm(np.asarray(m))
