"""Dense complex matrix utilities.

Everything here operates on plain numpy arrays. Matrices are small (the
rest of the package never goes past dimension ~64), so eigendecompositions
and SVDs are used freely instead of iterative methods.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

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

#: Eigenvalues at or below this count as outside a matrix's support: logs and
#: powers of them are taken as 0, and a probability this small as an exact zero.
#: An eigensolver leaves ~1e-16 of rounding on a zero eigenvalue, and x**q of
#: that noise would add 1e-8 per eigenvalue at q = 1/2. A true weight of 1e-12
#: adds at most 3e-11 to a von Neumann entropy, far below every tolerance.
SUPPORT_CUTOFF = 1e-12

#: Smallest eigenvalue at which a state still counts as invertible; a state at
#: or below it is mixed with eps·I/N before it is inverted.
SINGULAR_CUTOFF = 1e-10


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


def spectral(h: np.ndarray, f, tol: float = 1e-10) -> np.ndarray:
    """v f(w) v† for each PSD Hermitian matrix v diag(w) v† of a (..., n, n) stack.

    One eigh covers the whole stack, and each matrix is decomposed exactly
    as it would be alone, so a result never depends on the stack around it.
    Eigenvalues below -tol raise NotPSDError; those in [-tol, 0) are
    clipped to 0 before f sees them. Non-finite input raises NonFiniteError.
    """
    w, v = np.linalg.eigh(hermitize(_finite(h)))
    if w.min(initial=0.0) < -tol:
        raise NotPSDError(f"min eigenvalue {w.min():.3e} below -{tol:.0e}")
    return (v * f(np.maximum(w, 0.0))[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _inv_sqrt(w: np.ndarray, tol: float) -> np.ndarray:
    if w.min(initial=np.inf) <= tol:
        raise NotPSDError("matrix is singular, inverse square root undefined")
    return 1.0 / np.sqrt(w)


def _on_support(w: np.ndarray, fn) -> np.ndarray:
    support = w > SUPPORT_CUTOFF
    return np.where(support, fn(np.where(support, w, 1.0)), 0.0)


def psd_sqrt(h: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix (or of each in a stack)."""
    return spectral(h, np.sqrt, tol)


def psd_inv_sqrt(h: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix (or of each in a stack)."""
    return spectral(h, lambda w: _inv_sqrt(w, tol), tol)


def psd_power(h: np.ndarray, a: float, tol: float = 1e-10) -> np.ndarray:
    """h**a on the support of a PSD matrix (eigenvalues above SUPPORT_CUTOFF), 0 off it."""
    return spectral(h, lambda w: _on_support(w, lambda x: x**a), tol)


def psd_log(h: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """log h on the support of a PSD matrix (eigenvalues above SUPPORT_CUTOFF), 0 off it."""
    return spectral(h, lambda w: _on_support(w, np.log), tol)


def regularize_singular(rho: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    """Replace each matrix of a stack whose smallest eigenvalue is at most
    SINGULAR_CUTOFF by (1-eps) rho + eps I/N; others pass unchanged.

    eps=0 raises NotPSDError on a singular matrix instead.
    """
    rho = np.asarray(rho, dtype=complex)
    singular = spectrum(rho)[..., 0] <= SINGULAR_CUTOFF
    if not singular.any():
        return rho
    if not eps:
        raise NotPSDError("matrix is singular and regularization is disabled")
    n = rho.shape[-1]
    mixed = (1 - eps) * rho + eps * np.eye(n) / n
    return np.where(singular[..., None, None], mixed, rho)


def polar(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left polar decomposition x = P @ W with P PSD Hermitian and W unitary.

    For rank-deficient x the unitary part is completed on the null space of
    P (through the SVD pairing), so W is always exactly unitary.
    """
    u, s, vh = np.linalg.svd(np.asarray(x, dtype=complex))
    p = hermitize((u * s) @ u.conj().T)
    w = u @ vh
    return p, w


def sqrt_product(rho: np.ndarray, sigma: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    """Square root of the product of two density matrices (or of each pair of two stacks).

    Returns rho^{1/2} (rho^{1/2} sigma rho^{1/2})^{1/2} rho^{-1/2}. Its trace
    is the root fidelity of the pair. A singular rho is replaced by
    (1-eps) rho + eps I/N before inverting; pass eps=0 to disable the
    regularization and get an error instead.
    """
    rho = regularize_singular(rho, eps)
    sr = psd_sqrt(rho)
    return sr @ psd_sqrt(sr @ sigma @ sr) @ psd_inv_sqrt(rho)


def schur_positive(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    tol_pd: float = 1e-12,
    tol_psd: float = 1e-10,
) -> bool:
    """Whether the block matrix [[a, b], [b†, c]] is PSD, via the Schur complement.

    Requires a to be Hermitian positive definite; then positivity of the
    block matrix is equivalent to c - b† a^{-1} b being PSD.
    """
    a = np.asarray(a, dtype=complex)
    wa = np.linalg.eigvalsh(hermitize(a))
    if wa.min() <= tol_pd:
        raise NotPSDError("block A must be positive definite")
    comp = hermitize(np.asarray(c) - np.asarray(b).conj().T @ np.linalg.solve(a, b))
    return bool(np.linalg.eigvalsh(comp).min() >= -tol_psd)


def _stochastic3_check(f: np.ndarray, tol: float) -> None:
    if f.shape != (3, 3):
        raise ValueError("expected a 3×3 matrix")
    if np.abs(f.imag).max(initial=0.0) > tol:
        raise ValueError("expected a real matrix")
    if np.max(np.abs(f.sum(axis=0) - 1.0)) > 1e-12:
        raise ValueError("columns must sum to 1")
    if f.min() < -1e-14:
        raise ValueError("entries must be nonnegative")


def stochastic3_xy(f: np.ndarray) -> tuple[float, float]:
    """The (x, y) parameters of a 3×3 stochastic matrix with spectrum {1, x+y, x-y}."""
    f = np.asarray(f, dtype=float)
    tr = float(np.trace(f))
    x = (tr - 1.0) / 2.0
    disc = 2.0 * float(np.trace(f @ f)) - tr * tr + 2.0 * tr - 3.0
    if disc < -1e-12:
        raise NoRealLogError(f"complex eigenvalue pair (discriminant {disc:.3e})")
    y = 0.5 * math.sqrt(max(disc, 0.0))
    return x, y


def stochastic3_log(
    f: np.ndarray, tol: float = 1e-9, coeff_tol: float = 1e-12
) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Analytic logarithm of a 3×3 column-stochastic matrix with spectrum {1, x+y, x-y}.

    The log is assembled from the spectral projectors (Z² ± Z)/2 built out
    of F itself, without diagonalizing. Terms coeff·log(eig) with
    |coeff| <= coeff_tol are set to 0, so boundary points with a zero
    eigenvalue evaluate by continuity. Returns (L, spectrum).
    """
    f = np.asarray(f, dtype=float)
    _stochastic3_check(f.astype(complex), tol)
    if np.abs(f - np.eye(3)).max() <= coeff_tol:
        return np.zeros((3, 3)), (1.0, 1.0, 1.0)
    x, y = stochastic3_xy(f)
    lam_p, lam_m = x + y, x - y
    for lam in (lam_p, lam_m):
        if lam < -coeff_tol or lam > 1.0 + 1e-12:
            raise NoRealLogError(f"eigenvalue {lam:.6g} outside (0, 1]")
    denom = y * y - (x - 1.0) ** 2
    if abs(denom) < 1e-12 or y < 1e-12:
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
        mask = np.abs(proj) > coeff_tol
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
