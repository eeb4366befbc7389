"""Dense complex matrix utilities, and the package's one spectral kernel.

Everything here operates on plain numpy arrays. Matrices are small (the
rest of the package never goes past dimension ~64), so dense LAPACK
eigendecompositions and SVDs serve instead of iterative methods. No other
module calls a LAPACK Hermitian eigensolver: they decompose through `eigh`,
its checked form `psd_eigh`, `spectrum` or `spectrum3` (or `_hermitian_spectrum`,
`spectrum` on a Hermitian part the caller keeps), and take polar factors from
`root_svd`. The smallest cases, where LAPACK's per-call cost outweighs the
work, have closed forms: 1×1 spectra in `spectrum`, 2×2 spectra and
eigenvectors in `eigh`, 2×2 root fidelities in `root_svd`, and 3×3 spectra
in `spectrum3`, each for the rows inside the band of CLOSED_FORM_FLOOR.
"""

from __future__ import annotations

import math

import numpy as np

from .tolerances import CLOSED_FORM_FLOOR, PHASE_CUTOFF, PSD_TOL, SUPPORT_CUTOFF

__all__ = [
    "SUPPORT_CUTOFF",
    "NotPSDError",
    "NonFiniteError",
    "reshuffle",
    "partial_trace",
    "kron",
    "hermitize",
    "spectrum",
    "spectrum3",
    "eigh",
    "psd_eigh",
    "from_eigh",
    "spectral",
    "psd_sqrt",
    "psd_power",
    "psd_log",
    "root_svd",
    "sqrt_product",
    "schur_positive",
]

class NotPSDError(ValueError):
    """Matrix expected to be positive semi-definite is not."""


class NonFiniteError(ValueError):
    """Matrix has a NaN or infinite entry."""


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2 of a matrix or of each matrix in a (..., n, n) stack.

    Real input stays real, and conj costs it nothing: ndarray.conj returns a
    real array itself, uncopied.
    """
    h = m + m.conj().swapaxes(-1, -2)
    return np.multiply(h, 0.5, out=h if h.dtype.kind in "fc" else None)  # an integer sum gets a float copy


def _lead_phases(vecs: np.ndarray) -> np.ndarray:
    """Unit phase of the first component above PHASE_CUTOFF of each row of a (k, n)
    array of unit vectors: a row divided by its phase has that component real positive."""
    lead = vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs) > PHASE_CUTOFF, axis=1)]
    return lead / np.abs(lead)


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
    if np.count_nonzero(np.isfinite(h)) != h.size:
        raise NonFiniteError("matrix has a NaN or infinite entry")
    return h


def _hermitian_part(h: np.ndarray, ceiling: float = 2.0**1022) -> tuple[np.ndarray, np.ndarray | None]:
    """(hermitize(h), None) if every entry of the (..., n, n) stack h is below `ceiling` in modulus
    (the default keeps h + h† finite; one pass tests that and finiteness), else (hermitize(2^-e h), e)
    with e = 0 for the other matrices, so they keep their bits: 2^-e brings each largest real or
    imaginary part at or above `ceiling` into [0.5, 1) exactly. NaN or inf raises NonFiniteError."""
    if np.count_nonzero(np.abs(h) < ceiling) == h.size:
        return hermitize(h), None
    x = _finite(h).astype(np.result_type(h, np.float64), order="C")  # viewed as floats below
    top = np.abs(x.view(np.float64)).max(axis=(-2, -1))
    e = np.where(top >= ceiling, np.frexp(top)[1], 0)
    return hermitize(np.ldexp(x.view(np.float64), -e[..., None, None]).view(x.dtype)), e


def spectrum(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each matrix in a (..., n, n) stack.

    1×1 input is its own real entry, 2×2 input takes the closed form of _eigh2, larger
    input one eigvalsh of its _hermitian_part. Raises NonFiniteError on NaN or inf, which
    an eigensolver may otherwise turn into finite eigenvalues.
    """
    h = np.asarray(h)
    if h.shape[-2:] == (1, 1):
        return _finite(h)[..., 0].real.astype(float)
    if h.shape[-2:] == (2, 2):
        return _eigh2(_finite(h))[0]
    h, e = _hermitian_part(h)
    w = np.linalg.eigvalsh(h)
    return w if e is None else np.ldexp(w, e[..., None])


def _hermitian_spectrum(h: np.ndarray) -> np.ndarray:
    """spectrum of a finite (..., n, n) stack that is already Hermitian, as hermitize
    leaves it, or 2×2 (the closed form reads the Hermitian part itself): no check and
    no second hermitize, for a caller that keeps the Hermitian part it decomposes."""
    if h.shape[-2:] == (2, 2):
        return _eigh2(h)[0]
    return np.linalg.eigvalsh(h)


def _padded_spectrum(blocks) -> np.ndarray:
    """spectrum of every matrix of blocks, n×n matrices and (r, n, n) stacks of any sizes
    n, as the rows of one (R, m) array, m the largest n: one spectrum call on all of them,
    each zero-padded to m×m. A zero block adds only zero eigenvalues, which no entropy
    counts, so each row keeps its matrix's entropies."""
    rows = [1 if b.ndim == 2 else len(b) for b in blocks]
    m = max(b.shape[-1] for b in blocks)
    padded = np.zeros((sum(rows), m, m), dtype=complex)
    i = 0
    for b, r in zip(blocks, rows):
        padded[i:i + r, :b.shape[-1], :b.shape[-1]] = b
        i += r
    return spectrum(padded)


def eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v), hermitize(h) = v diag(w) v†, of each matrix of a
    (..., n, n) stack; w ascending along the last axis, unclipped and unchecked.

    2×2 input takes the closed form of _eigh2, larger input one LAPACK eigh of
    the whole stack's _hermitian_part. Either way each matrix is decomposed exactly as it would
    be alone, so a result never depends on the stack around it. Raises
    NonFiniteError on NaN or inf.
    """
    h = np.asarray(h)
    if h.shape[-2:] == (2, 2):
        return _eigh2(_finite(h), vectors=True)
    h, e = _hermitian_part(h)
    w, v = np.linalg.eigh(h)
    return (w if e is None else np.ldexp(w, e[..., None])), v


def psd_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of each PSD Hermitian matrix of a (..., n, n) stack, checked and clipped.

    Eigenvalues below -PSD_TOL raise NotPSDError; those in [-PSD_TOL, 0) are
    clipped to 0, so on 2×2 input w is spectrum(h) clipped at 0 bit for bit.
    Non-finite input raises NonFiniteError.
    """
    w, v = eigh(h)
    if w.min(initial=0.0) < -PSD_TOL:
        raise NotPSDError(f"min eigenvalue {w.min():.3e} below -{PSD_TOL:.0e}")
    return np.maximum(w, 0.0), v


def _in_band(sq: np.ndarray) -> np.ndarray:
    """Mask of the rows whose squared scale sq is inside the band of CLOSED_FORM_FLOOR (NaN is not)."""
    return (sq > CLOSED_FORM_FLOOR) & (sq < 1.0 / CLOSED_FORM_FLOOR)


def _eigh2(h: np.ndarray, vectors: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues, and with vectors=True the eigenvectors as columns, of
    the Hermitian part of each matrix of a (..., 2, 2) stack, in closed form.

    With diagonal a, d and off-diagonal b, the roots are m ± r with m = (a+d)/2
    and r = hypot((a-d)/2, |b|). The root of m's sign, m + copysign(r, m), adds
    two terms of one sign; the other is det/that, det = ad - |b|², so neither
    cancels. The eigenvector of m + r is (r + |δ|, b̄) for δ = (a-d)/2 >= 0 and
    (b, r + |δ|) otherwise, again a sum of one sign, and that of m - r is its
    orthogonal complement; h = mI gives the identity. The vectors are
    normalized by real divisions: a complex one takes the reciprocal of its
    divisor, which overflows on a subnormal norm.

    A row whose largest |eigenvalue|² is outside the band of CLOSED_FORM_FLOOR (zero
    included) takes LAPACK instead. Each row's result depends on that row alone.
    """
    v = None
    with np.errstate(over="ignore", invalid="ignore"):  # only in rows that fall back
        a, d = h[..., 0, 0].real, h[..., 1, 1].real
        b = (h[..., 0, 1] + h[..., 1, 0].conj()) / 2.0
        m, half = (a + d) / 2.0, (a - d) / 2.0
        abs_b = np.abs(b)
        r = np.hypot(half, abs_b)
        far = m + np.copysign(r, m)  # 0 only where h = 0, which is outside the band
        near = (a * d - abs_b * abs_b) / far
        # filled in place: np.stack and np.where cost more than the arithmetic on one matrix
        w = np.empty(far.shape + (2,))
        np.minimum(far, near, out=w[..., 0])
        np.maximum(far, near, out=w[..., 1])
        inside = _in_band(far * far)
        if vectors:
            s = r + np.abs(half)
            norm = np.hypot(s, abs_b)
            flat = norm == 0.0  # h = mI: (c, q) = (0, 1) below gives v = I
            norm = norm + flat
            c, q = s / norm, b.real / norm + flat
            if np.iscomplexobj(b):
                q = q + 1j * (b.imag / norm)
            # v = [[P, R], [-R̄, P̄]]: its second column (R, P̄) is (c, q̄) for δ >= 0 and (q, c) otherwise
            up = half >= 0.0
            v = np.empty(h.shape, dtype=q.dtype)
            v[..., 0, 0] = v[..., 1, 1] = np.where(up, q, c)
            v[..., 0, 1] = v[..., 1, 0] = np.where(up, c, q)
            v[..., 1, 0] *= -1.0
            if np.iscomplexobj(v):
                v[..., 1, :] = v[..., 1, :].conj()
    if np.count_nonzero(inside) != inside.size:
        # LAPACK on each such row, scaled by a power of two
        rows, e = _hermitian_part(h[~inside], 0.0)
        if vectors:
            w[~inside], v[~inside] = np.linalg.eigh(rows)
        else:
            w[~inside] = np.linalg.eigvalsh(rows)
        w[~inside] = np.ldexp(w[~inside], e[:, None])
    return w, v


def spectrum3(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each matrix of a (..., 3, 3)
    stack, in closed form: the trigonometric method (Smith, Comm. ACM 4, 1961)
    for one eigenvalue, deflation for the other two.

    With K = h - mI traceless, p = tr K²/6 and r = det K / (2 p^{3/2}) in
    [-1, 1], the eigenvalue of K farthest from the other two is
    mu = copysign(2 sqrt(p) cos(arccos|r| / 3), r); it lies at least
    sqrt(3p) from both, so arccos near |r| = 1 costs it no digits. The other
    two are -mu/2 ± g/2, and their gap g is where the cubic alone loses
    digits, about eps·p/g (a Newton step on det(h - lambda I) keeps that
    error). So g comes from the deflated matrix instead: adj(K - mu I) is
    tr(adj)·x x† for the unit eigenvector x of mu, and
    D = K + (mu/2) I - (3mu/2) x x† has eigenvalues 0 and ±g/2, so
    g/2 = |D|_F / sqrt(2), a sum of squares. Every eigenvalue is then within a
    few eps·|h| of LAPACK's, near double and triple roots included.

    A row with p outside the band of CLOSED_FORM_FLOOR takes np.linalg.eigvalsh.
    Each row's result depends on that row alone. Raises NonFiniteError on NaN or inf.
    """
    h, e = _hermitian_part(np.asarray(h))
    with np.errstate(over="ignore", invalid="ignore"):  # only in rows that fall back
        w, inside = _trig3(h)
    if np.count_nonzero(inside) != inside.size:
        w[~inside] = np.linalg.eigvalsh(h[~inside])
    return w if e is None else np.ldexp(w, e[..., None])


def _trig3(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """spectrum3 of each Hermitian h of a (..., 3, 3) stack, and the mask of the in-band rows it holds for.

    Complex products are spelled out in real arithmetic: NumPy rounds a
    complex product of two scalars differently from the same product in an
    array loop (one of them fuses a multiply and an add), which would make a
    matrix's last bit depend on whether it comes alone or in a stack.
    """
    d0, d1, d2 = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 2, 2].real
    (xr, xi), (zr, zi), (yr, yi) = ((b.real, b.imag) for b in (h[..., 0, 1], h[..., 0, 2], h[..., 1, 2]))
    m = (d0 + d1 + d2) / 3.0
    k0, k1, k2 = d0 - m, d1 - m, d2 - m
    shift = (k0 + k1 + k2) / 3.0  # the rounding of m, which would leave K a trace of its own size
    m, k0, k1, k2 = m + shift, k0 - shift, k1 - shift, k2 - shift
    n01, n02, n12 = xr * xr + xi * xi, zr * zr + zi * zi, yr * yr + yi * yi
    ur, ui = xr * yr - xi * yi, xr * yi + xi * yr  # h01 h12
    p = (k0 * k0 + k1 * k1 + k2 * k2 + 2.0 * (n01 + n02 + n12)) / 6.0
    det = k0 * k1 * k2 + 2.0 * (ur * zr + ui * zi) - k0 * n12 - k1 * n02 - k2 * n01
    inside = _in_band(p)
    p = np.where(inside, p, 1.0)
    root_p = np.sqrt(p)
    r = np.clip(det / (2.0 * p * root_p), -1.0, 1.0)
    mu = np.copysign(2.0 * root_p * np.cos(np.arccos(np.abs(r)) / 3.0), r)
    # adj(A) of A = K - mu I, then D = K + (mu/2) I - (3mu/2) adj(A)/tr adj(A)
    a0, a1, a2 = k0 - mu, k1 - mu, k2 - mu
    c00, c11, c22 = a1 * a2 - n12, a0 * a2 - n02, a0 * a1 - n01
    scale, mid = 1.5 * mu / (c00 + c11 + c22), -0.5 * mu
    e0, e1, e2 = k0 - mid - scale * c00, k1 - mid - scale * c11, k2 - mid - scale * c22
    # the upper off-diagonals of h and of adj(A): h02 h21 - h01 a2, h01 h12 - h02 a1, h02 h10 - h12 a0
    upper = ((xr, xi), (zr, zi), (yr, yi))
    adj = ((zr * yr + zi * yi - xr * a2, zi * yr - zr * yi - xi * a2), (ur - zr * a1, ui - zi * a1),
           (zr * xr + zi * xi - yr * a0, zi * xr - zr * xi - yi * a0))
    off = sum((br - scale * cr) ** 2 + (bi - scale * ci) ** 2 for (br, bi), (cr, ci) in zip(upper, adj))
    half = np.sqrt((e0 * e0 + e1 * e1 + e2 * e2) / 2.0 + off)
    low, high, far = m + (mid - half), m + (mid + half), m + mu
    top = mu >= 0.0
    w = np.stack([np.where(top, low, far), np.where(top, high, low), np.where(top, far, high)], axis=-1)
    return w, inside


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
    wrong result without an error. Larger input, and a 2×2 row whose N² is
    outside the band of CLOSED_FORM_FLOOR (x = 0 included), take one SVD
    x = U diag(s) V†, valid for any x: W = U V† with U's last column
    multiplied by the phase that makes det W = 1, and tr|x| = s.sum().
    """
    x = _finite(x)
    if x.shape[-1] == 2:
        with np.errstate(over="ignore", invalid="ignore"):  # only in rows that fall back
            alpha = x[..., 0, 0] + x[..., 1, 1].conj()
            beta = x[..., 0, 1] - x[..., 1, 0].conj()
            norm = np.hypot(np.abs(alpha), np.abs(beta))
            alpha, beta = alpha / norm, beta / norm
            inside = _in_band(norm * norm)
        w = np.stack([alpha, beta, -beta.conj(), alpha.conj()], axis=-1).reshape(x.shape)
        if np.count_nonzero(inside) == inside.size:
            return norm, w
    u, s, vh = np.linalg.svd(x)
    det = np.linalg.det(u @ vh)
    u[..., :, -1] *= (det.conj() / np.abs(det))[..., None]
    if x.shape[-1] != 2:
        return s.sum(axis=-1), u @ vh
    return np.where(inside, norm, s.sum(axis=-1)), np.where(inside[..., None, None], w, u @ vh)


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
    if spectrum(a).min() <= SUPPORT_CUTOFF:
        raise NotPSDError("block A must be positive definite")
    comp = np.asarray(c) - np.asarray(b).conj().T @ np.linalg.solve(a, b)
    return bool(spectrum(comp).min() >= -PSD_TOL)

