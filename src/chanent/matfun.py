"""Dense complex matrix utilities.

Everything here operates on plain numpy arrays. Matrices are small (the
rest of the package never goes past dimension ~64), so eigendecompositions
and SVDs are used freely instead of iterative methods.
"""

from __future__ import annotations

import math

import numpy as np

from .tolerances import PSD_TOL, SUPPORT_CUTOFF

__all__ = [
    "SUPPORT_CUTOFF",
    "NotPSDError",
    "NonFiniteError",
    "reshuffle",
    "partial_trace",
    "kron",
    "hermitize",
    "spectrum",
    "psd_eigh",
    "from_eigh",
    "spectral",
    "psd_sqrt",
    "psd_power",
    "psd_log",
    "polar",
    "root_svd",
    "sqrt_product",
    "schur_positive",
    "matrix_exp",
]

class NotPSDError(ValueError):
    """Matrix expected to be positive semi-definite is not."""


class NonFiniteError(ValueError):
    """Matrix has a NaN or infinite entry."""


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


def _on_support(w: np.ndarray, fn) -> np.ndarray:
    support = w > SUPPORT_CUTOFF
    return np.where(support, fn(np.where(support, w, 1.0)), 0.0)


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix (or of each in a stack)."""
    return spectral(h, np.sqrt)


def psd_power(h: np.ndarray, a: float) -> np.ndarray:
    """h**a on the support of a PSD matrix (eigenvalues above SUPPORT_CUTOFF), 0 off it."""
    return spectral(h, lambda w: _on_support(w, lambda x: x**a))


def psd_log(h: np.ndarray) -> np.ndarray:
    """log h on the support of a PSD matrix (eigenvalues above SUPPORT_CUTOFF), 0 off it."""
    return spectral(h, lambda w: _on_support(w, np.log))


def polar(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left polar decomposition x = P @ W with P PSD Hermitian and W unitary.

    For rank-deficient x the unitary part is completed on the null space of
    P (through the SVD pairing), so W is always exactly unitary.
    """
    u, s, vh = np.linalg.svd(np.asarray(x, dtype=complex))
    p = hermitize((u * s) @ u.conj().T)
    w = u @ vh
    return p, w


def root_svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace norm tr|x| and the det-one unitary polar factor W of each
    x = sqrt(rho_a) sqrt(rho_b) of a (..., n, n) stack.

    tr|x| is the root fidelity of the pair, and x = |x†| W = W |x|. Every
    invertible x of this form has det x > 0, which forces det W = 1; a
    singular x leaves W free on its kernel, and W is the one completion that
    is the limit of the invertible case wherever that kernel has dimension
    at most 1. x = 0 gives (0, I). NaN or inf input raises NonFiniteError.

    For 2×2 input both come in closed form: with alpha = a + conj(d) and
    beta = b - conj(c), W = [[alpha, beta], [-conj(beta), conj(alpha)]] / N
    and tr|x| = N = sqrt(|alpha|² + |beta|²) = sqrt(|x|_F² + 2 det x). This
    holds only where det x is real and >= 0, as it is for every product of
    two PSD square roots; other 2×2 input is outside the contract and gets a
    wrong result without an error. Larger input takes one SVD
    x = U diag(s) V†, valid for any x: W = U V† with U's last column
    multiplied by the phase that makes det W = 1, and tr|x| = s.sum().
    """
    x = _finite(x)
    if x.shape[-1] == 2:
        # W is that of x scaled by 2^-exp, which is exact and brings the largest entry
        # into [0.5, 1): subnormal entries keep their digits, and N >= 0.5 unless x = 0
        exp = np.frexp(np.abs(x).max(axis=(-2, -1)))[1]
        x = np.ldexp(x.real, -exp[..., None, None]) + 1j * np.ldexp(x.imag, -exp[..., None, None])
        alpha = x[..., 0, 0] + x[..., 1, 1].conj()
        beta = x[..., 0, 1] - x[..., 1, 0].conj()
        norm = np.hypot(np.abs(alpha), np.abs(beta))  # 0 only where x = 0
        nonzero = norm > 0.0
        scale = np.where(nonzero, norm, 1.0)
        alpha = np.where(nonzero, alpha / scale, 1.0)
        beta = beta / scale
        w = np.stack([alpha, beta, -beta.conj(), alpha.conj()], axis=-1)
        return np.ldexp(norm, exp), w.reshape(x.shape[:-2] + (2, 2))
    u, s, vh = np.linalg.svd(x)
    det = np.linalg.det(u @ vh)
    u[..., :, -1] *= (det.conj() / np.abs(det))[..., None]
    return s.sum(axis=-1), u @ vh


def sqrt_product(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Square root of the product of two density matrices (or of each pair of two stacks).

    rho^{1/2} (rho^{1/2} sigma rho^{1/2})^{1/2} rho^{-1/2} equals
    sqrt(rho) W sqrt(sigma), with W the polar factor of root_svd(sqrt(rho)
    sqrt(sigma)); that form needs no inverse, so it also holds for singular
    rho (as the limit along invertible ones). Its trace is the root fidelity
    of the pair.
    """
    sr, ss = psd_sqrt(rho), psd_sqrt(sigma)
    return sr @ root_svd(sr @ ss)[1] @ ss


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


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring, via scipy).

    No command of the package calls it, so SciPy is imported here, on the
    first call, and `import chanent` loads no SciPy.
    """
    import scipy.linalg

    return scipy.linalg.expm(np.asarray(m))
