"""Density matrices, Bloch representation, purification, Schmidt decomposition, fidelity."""

from __future__ import annotations

import math

import numpy as np

from .matfun import hermitize, kron, polar, psd_sqrt
from .tolerances import HERMITIAN_TOL, NORMALIZATION_TOL, PHASE_CUTOFF, PSD_TOL, SCHMIDT_CUTOFF

__all__ = [
    "InvalidStateError",
    "PAULI",
    "assert_state",
    "from_bloch",
    "to_bloch",
    "pure_state",
    "purify",
    "schmidt",
    "schmidt_number",
    "fidelity",
    "root_fidelity",
    "fidelity_qubit_bloch",
    "angle",
    "uhlmann_max",
]


class InvalidStateError(ValueError):
    """Candidate matrix is not a valid density matrix."""


#: Pauli matrices (sigma_1, sigma_2, sigma_3)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def assert_state(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity (HERMITIAN_TOL), trace one (NORMALIZATION_TOL) and
    positivity (PSD_TOL); return the array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError("state must be a square matrix")
    scale = max(np.abs(rho).max(), 1.0)
    if np.abs(rho - rho.conj().T).max() > HERMITIAN_TOL * scale:
        raise InvalidStateError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > NORMALIZATION_TOL:
        raise InvalidStateError(f"trace is {np.trace(rho).real}, not 1")
    if np.linalg.eigvalsh(hermitize(rho)).min() < -PSD_TOL:
        raise InvalidStateError("state has a negative eigenvalue")
    return rho


def pure_state(amplitudes: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| from a normalized amplitude vector."""
    psi = np.asarray(amplitudes, dtype=complex).ravel()
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise InvalidStateError(f"amplitude norm is {norm}, not 1")
    return np.outer(psi, psi.conj())


def from_bloch(r) -> np.ndarray:
    """Qubit state (I + r·sigma)/2 from a Bloch vector with |r| <= 1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise InvalidStateError("Bloch vector must have 3 components")
    if np.linalg.norm(r) > 1.0 + NORMALIZATION_TOL:
        raise InvalidStateError(f"Bloch vector length {np.linalg.norm(r)} exceeds 1")
    rho = np.eye(2, dtype=complex)
    for ri, sigma in zip(r, PAULI):
        rho += ri * sigma
    return rho / 2.0


def to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector of a 2×2 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise InvalidStateError("to_bloch needs a 2×2 state")
    return np.array([np.trace(rho @ sigma).real for sigma in PAULI])


def purify(rho: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
    """Purification of rho on C^N ⊗ C^N: sum_i lambda_i (U v_i) ⊗ v_i.

    Here lambda_i² and v_i are the eigenpairs of rho, so tracing out the
    first factor recovers rho. The unitary u parametrizes the freedom of
    purification (identity by default).
    """
    rho = assert_state(rho)
    n = rho.shape[0]
    if u is None:
        u = np.eye(n, dtype=complex)
    else:
        u = np.asarray(u, dtype=complex)
        if np.abs(u.conj().T @ u - np.eye(n)).max() > NORMALIZATION_TOL:
            raise ValueError("u must be unitary")
    w, v = np.linalg.eigh(hermitize(rho))
    w = np.clip(w, 0.0, None)
    psi = np.zeros(n * n, dtype=complex)
    for lam, vec in zip(np.sqrt(w), v.T):
        psi += lam * kron(u @ vec, vec)
    return psi


def _fix_phase(u: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # rotate each (left, right) pair so the first nonzero left component is real positive
    u = u.copy()
    vh = vh.copy()
    for i in range(u.shape[1]):
        col = u[:, i]
        nz = np.flatnonzero(np.abs(col) > PHASE_CUTOFF)
        if nz.size:
            phase = col[nz[0]] / abs(col[nz[0]])
            u[:, i] = col / phase
            vh[i, :] = vh[i, :] * phase
    return u, vh


def schmidt(psi: np.ndarray, dims: tuple[int, int]):
    """Schmidt decomposition of a bipartite pure state.

    Returns (coefficients, left basis, right basis) with the coefficients
    sorted in decreasing order and psi = sum_i c_i left_i ⊗ right_i. The
    bases are returned as matrices whose columns are the Schmidt vectors;
    the phase gauge makes the first nonzero component of each left vector
    real positive.
    """
    d1, d2 = dims
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != d1 * d2:
        raise ValueError(f"state of size {psi.size} does not match dims {dims}")
    a = psi.reshape(d1, d2)
    u, s, vh = np.linalg.svd(a)
    u, vh = _fix_phase(u, vh)
    k = min(d1, d2)
    return s[:k], u[:, :k], vh[:k, :].T


def schmidt_number(psi: np.ndarray, dims: tuple[int, int]) -> int:
    """Number of Schmidt coefficients above SCHMIDT_CUTOFF."""
    coeffs, _, _ = schmidt(psi, dims)
    return int(np.count_nonzero(coeffs > SCHMIDT_CUTOFF))


def root_fidelity(rho1: np.ndarray, rho2: np.ndarray, sqrt_rho1: np.ndarray | None = None):
    """tr sqrt(sqrt(rho1) rho2 sqrt(rho1)), clipped to [0, 1], via two PSD square roots.

    Takes one pair (returns a float) or two (..., n, n) stacks of states
    (returns an array). sqrt_rho1 is psd_sqrt(rho1), when the caller
    already holds it.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError("states must share a dimension")
    sr = psd_sqrt(rho1) if sqrt_rho1 is None else sqrt_rho1
    val = np.trace(psd_sqrt(sr @ rho2 @ sr), axis1=-2, axis2=-1).real
    val = np.minimum(np.maximum(val, 0.0), 1.0)
    return float(val) if val.ndim == 0 else val


def fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Fidelity (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))² in [0, 1]."""
    return root_fidelity(rho1, rho2) ** 2


def fidelity_qubit_bloch(x, y) -> float:
    """Qubit fidelity from Bloch vectors: (1 + x·y + sqrt(1-|x|²) sqrt(1-|y|²))/2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx = min(float(x @ x), 1.0)
    ry = min(float(y @ y), 1.0)
    val = 0.5 * (1.0 + float(x @ y) + math.sqrt(1.0 - rx) * math.sqrt(1.0 - ry))
    return float(min(max(val, 0.0), 1.0))


def angle(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Metric angle arccos of the root fidelity, in [0, pi/2]."""
    return math.acos(root_fidelity(rho1, rho2))


def uhlmann_max(rho1: np.ndarray, rho2: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximal purification overlap and the unitary attaining it.

    Returns (F(rho1, rho2), W) where W is the adjoint of the polar unitary
    of sqrt(rho2) sqrt(rho1), so that |tr W sqrt(rho2) sqrt(rho1)|² equals
    the fidelity.
    """
    y = psd_sqrt(rho2) @ psd_sqrt(rho1)
    _, w = polar(y)
    return fidelity(rho1, rho2), w.conj().T
