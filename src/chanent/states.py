"""Density matrices, Bloch representation, purification, Schmidt decomposition, fidelity."""

from __future__ import annotations

import math

import numpy as np

from .matfun import _lead_phases, psd_eigh, psd_sqrt, root_svd, spectrum
from .tolerances import HERMITIAN_TOL, NORMALIZATION_TOL, PSD_TOL, SCHMIDT_CUTOFF

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


def _require_finite(a: np.ndarray, what: str) -> np.ndarray:
    # NaN fails every `x > tol` check, so non-finite input is rejected before any of them
    if not np.isfinite(a).all():
        raise InvalidStateError(f"{what} has a non-finite entry")
    return a


def assert_state(rho: np.ndarray) -> np.ndarray:
    """Validate finiteness, Hermiticity (HERMITIAN_TOL), trace one
    (NORMALIZATION_TOL) and positivity (PSD_TOL); return the array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError("state must be a square matrix")
    _require_finite(rho, "state")
    scale = max(np.abs(rho).max(), 1.0)
    if np.abs(rho - rho.conj().T).max() > HERMITIAN_TOL * scale:
        raise InvalidStateError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > NORMALIZATION_TOL:
        raise InvalidStateError(f"trace is {np.trace(rho).real}, not 1")
    if spectrum(rho).min() < -PSD_TOL:
        raise InvalidStateError("state has a negative eigenvalue")
    return rho


def pure_state(amplitudes: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| from a normalized amplitude vector."""
    psi = _require_finite(np.asarray(amplitudes, dtype=complex).ravel(), "amplitude vector")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise InvalidStateError(f"amplitude norm is {norm}, not 1")
    return np.outer(psi, psi.conj())


def from_bloch(r) -> np.ndarray:
    """Qubit state (I + r·sigma)/2 from a Bloch vector with |r| <= 1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise InvalidStateError("Bloch vector must have 3 components")
    x, y, z = r.tolist()
    length = math.hypot(x, y, z)  # NaN or inf if a component is; inf also on overflow
    if not length <= 1.0 + NORMALIZATION_TOL:
        _require_finite(r, "Bloch vector")
        raise InvalidStateError(f"Bloch vector length {length} exceeds 1")
    return np.array([[(1.0 + z) / 2.0, complex(x / 2.0, -y / 2.0)],
                     [complex(x / 2.0, y / 2.0), (1.0 - z) / 2.0]])


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
        if not np.isfinite(u).all() or np.abs(u.conj().T @ u - np.eye(n)).max() > NORMALIZATION_TOL:
            raise ValueError("u must be unitary")
    w, v = psd_eigh(rho)
    return (u @ (v * np.sqrt(w)) @ v.T).ravel()


def schmidt(psi: np.ndarray, dims: tuple[int, int]):
    """Schmidt decomposition of a bipartite pure state.

    Returns (coefficients, left basis, right basis) with the coefficients
    sorted in decreasing order and psi = sum_i c_i left_i ⊗ right_i. The
    bases are returned as matrices whose columns are the Schmidt vectors;
    the phase gauge makes the first component above PHASE_CUTOFF of each
    left vector real positive.
    """
    d1, d2 = dims
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != d1 * d2:
        raise ValueError(f"state of size {psi.size} does not match dims {dims}")
    u, s, vh = np.linalg.svd(psi.reshape(d1, d2))
    k = min(d1, d2)
    phases = _lead_phases(u[:, :k].T)
    return s[:k], u[:, :k] / phases, (vh[:k] * phases[:, None]).T


def schmidt_number(psi: np.ndarray, dims: tuple[int, int]) -> int:
    """Number of Schmidt coefficients above SCHMIDT_CUTOFF."""
    coeffs, _, _ = schmidt(psi, dims)
    return int(np.count_nonzero(coeffs > SCHMIDT_CUTOFF))


def root_fidelity(rho1: np.ndarray, rho2: np.ndarray):
    """tr |sqrt(rho1) sqrt(rho2)| = tr sqrt(sqrt(rho1) rho2 sqrt(rho1)), clipped to [0, 1].

    The sum of the singular values of sqrt(rho1) sqrt(rho2) (Jozsa's form),
    which stays exact for pure and other singular states. Takes one pair
    (returns a float) or two (..., n, n) stacks of states (returns an array).
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError("states must share a dimension")
    val = np.clip(root_svd(psd_sqrt(rho1) @ psd_sqrt(rho2))[0], 0.0, 1.0)
    return float(val) if val.ndim == 0 else val


def fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Fidelity (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))² in [0, 1]."""
    return root_fidelity(rho1, rho2) ** 2


def angle(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Metric angle arccos of the root fidelity, in [0, pi/2]."""
    return math.acos(root_fidelity(rho1, rho2))


def uhlmann_max(rho1: np.ndarray, rho2: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximal purification overlap and the unitary attaining it.

    Returns (F(rho1, rho2), W) where W is the adjoint of the det-one polar
    factor of y = sqrt(rho2) sqrt(rho1), so that W y = |y| and
    |tr W sqrt(rho2) sqrt(rho1)|² equals the fidelity. One root_svd of y
    gives both.
    """
    root, w = root_svd(psd_sqrt(rho2) @ psd_sqrt(rho1))
    return float(np.clip(root, 0.0, 1.0)) ** 2, w.conj().T
