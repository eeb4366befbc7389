"""Quantum channels: Kraus, superoperator and dynamical-matrix representations.

Conventions. Density matrices are vectorized row-major ("lexicographically"),
so the superoperator of a channel with Kraus list {K} is sum K ⊗ conj(K) and
the dynamical matrix is its reshuffling. The cached Choi state is the
normalized dynamical matrix D/N with the identity applied to the first
factor, so that tracing out the second factor gives I/N for any trace
preserving map.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntropyOrder, VON_NEUMANN, vn_entropy
from .matfun import NotPSDError, hermitize, kron, psd_inv_sqrt, psd_sqrt, regularize_singular, reshuffle

__all__ = [
    "InvalidChannelError",
    "Channel",
    "CptpReport",
    "is_cptp",
    "kraus_to_superoperator",
    "kraus_to_choi",
    "identity_channel",
    "unitary_channel",
    "map_entropy",
    "exchange_entropy",
    "coherent_information",
    "ensemble_from_channel",
    "kraus_from_ensemble",
    "pair_optimal_unitary",
]


class InvalidChannelError(ValueError):
    """Kraus/Choi/superoperator data violates complete positivity or trace preservation."""


def _vec_row(k: np.ndarray) -> np.ndarray:
    return np.asarray(k, dtype=complex).reshape(-1)


def _vec_col(k: np.ndarray) -> np.ndarray:
    return np.asarray(k, dtype=complex).T.reshape(-1)


def kraus_to_superoperator(kraus) -> np.ndarray:
    """Superoperator sum K ⊗ conj(K) acting on row-major vectorized matrices."""
    return sum(kron(k, k.conj()) for k in kraus)


def kraus_to_choi(kraus, dim_in: int) -> np.ndarray:
    """Normalized Choi state [id ⊗ Phi](|phi+><phi+|)."""
    d = sum(np.outer(_vec_col(k), _vec_col(k).conj()) for k in kraus)
    return d / dim_in


@dataclass(frozen=True)
class CptpReport:
    cp: bool
    tp: bool
    min_choi_eig: float
    tp_residual: float

    @property
    def ok(self) -> bool:
        return self.cp and self.tp


def _cptp_report(kraus, dim_in: int, tol: float) -> CptpReport:
    # min_choi_eig is reported on the normalized (unit trace) Choi scale
    ident = sum(k.conj().T @ k for k in kraus)
    tp_residual = float(np.abs(ident - np.eye(dim_in)).max())
    choi = kraus_to_choi(kraus, dim_in)
    min_eig = float(np.linalg.eigvalsh(hermitize(choi)).min())
    return CptpReport(
        cp=min_eig >= -tol, tp=tp_residual <= tol, min_choi_eig=min_eig, tp_residual=tp_residual
    )


class Channel:
    """A CPTP map held as a Kraus list with cached superoperator and Choi state.

    Kraus operators may be rectangular (out_dim × in_dim); this happens for
    complementary channels. Instances are immutable: the caches are built in
    the constructor and never touched again.
    """

    def __init__(self, kraus, tol: float = 1e-9, validate: bool = True):
        kraus = [np.asarray(k, dtype=complex) for k in kraus]
        if not kraus:
            raise InvalidChannelError("empty Kraus list")
        out_dim, in_dim = kraus[0].shape
        if any(k.shape != (out_dim, in_dim) for k in kraus):
            raise InvalidChannelError("Kraus operators must share a shape")
        self.kraus = kraus
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.superoperator = kraus_to_superoperator(kraus)
        self.choi = kraus_to_choi(kraus, in_dim)
        if validate:
            report = _cptp_report(kraus, in_dim, tol)
            if not report.tp:
                raise InvalidChannelError(
                    f"not trace preserving: |sum K†K - I| = {report.tp_residual:.3e}"
                )
            if not report.cp:
                raise InvalidChannelError(
                    f"not completely positive: min Choi eigenvalue {report.min_choi_eig:.3e}"
                )

    @property
    def dim(self) -> int:
        return self.in_dim

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return self.apply(rho)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """sum K rho K†."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.in_dim, self.in_dim):
            raise ValueError(f"state dimension {rho.shape[0]} != channel dimension {self.in_dim}")
        out = np.zeros((self.out_dim, self.out_dim), dtype=complex)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out

    def is_cptp(self, tol: float = 1e-9) -> CptpReport:
        return _cptp_report(self.kraus, self.in_dim, tol)

    # -- representation conversions ------------------------------------

    @classmethod
    def from_superoperator(cls, s: np.ndarray, tol: float = 1e-9) -> "Channel":
        """Channel from a superoperator matrix (square dimensions only)."""
        s = np.asarray(s, dtype=complex)
        d = reshuffle(s)  # sum vec_row(K) vec_row(K)†
        n = math.isqrt(s.shape[0])
        return cls._from_outer_sum(hermitize(d), n, unvec=lambda v: v.reshape(n, n), tol=tol)

    @classmethod
    def from_choi(cls, choi: np.ndarray, tol: float = 1e-9) -> "Channel":
        """Channel from a normalized Choi state (trace one, Tr_2 choi = I/N)."""
        choi = np.asarray(choi, dtype=complex)
        n = math.isqrt(choi.shape[0])
        if abs(np.trace(choi).real - 1.0) > 1e-8:
            raise InvalidChannelError("Choi state must have unit trace")
        from .matfun import partial_trace

        marg = partial_trace(choi, (n, n), 2)
        if np.abs(marg - np.eye(n) / n).max() > 1e-8:
            raise InvalidChannelError("Choi state violates the partial trace condition")
        return cls._from_outer_sum(
            hermitize(choi * n), n, unvec=lambda v: v.reshape(n, n).T, tol=tol
        )

    @classmethod
    def _from_outer_sum(cls, d: np.ndarray, n: int, unvec, tol: float) -> "Channel":
        w, v = np.linalg.eigh(d)
        if w.min() < -tol:
            raise InvalidChannelError(f"not completely positive: min eigenvalue {w.min():.3e}")
        order = np.argsort(w)[::-1]
        kraus = []
        for idx in order:
            if w[idx] <= 1e-10:
                continue
            vec = v[:, idx]
            nz = np.flatnonzero(np.abs(vec) > 1e-12)
            if nz.size:  # phase convention: first nonzero component real positive
                vec = vec / (vec[nz[0]] / abs(vec[nz[0]]))
            kraus.append(math.sqrt(w[idx]) * unvec(vec))
        return cls(kraus, tol=tol)

    # -- composition ----------------------------------------------------

    def compose(self, inner: "Channel") -> "Channel":
        """Channel rho -> self(inner(rho)); Kraus products, validated on construction."""
        if inner.out_dim != self.in_dim:
            raise ValueError("dimension mismatch in composition")
        kraus = [k2 @ k1 for k2 in self.kraus for k1 in inner.kraus]
        return Channel(kraus)

    def tensor(self, other: "Channel") -> "Channel":
        """Tensor product channel with pairwise Kronecker Kraus operators."""
        kraus = [kron(k1, k2) for k1 in self.kraus for k2 in other.kraus]
        return Channel(kraus)

    def complementary(self) -> "Channel":
        """Channel to the environment: Ktilde^a[i, j] = K^i[a, j].

        Maps states on C^in to states on C^M where M is the Kraus count;
        the output entries of the complementary channel are tr K^i rho K^j†.
        """
        m = len(self.kraus)
        stack = np.stack(self.kraus)  # (m, out, in)
        kraus = [stack[:, a, :] for a in range(self.out_dim)]
        return Channel(kraus)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """JSON with the Kraus list only; caches are rebuilt on load."""
        ops = [[[float(z.real), float(z.imag)] for z in k.reshape(-1)] for k in self.kraus]
        return json.dumps({"dim": self.in_dim, "kraus": ops})

    @classmethod
    def from_json(cls, text: str) -> "Channel":
        data = json.loads(text)
        n = int(data["dim"])
        kraus = []
        for flat in data["kraus"]:
            arr = np.array([complex(re, im) for re, im in flat])
            kraus.append(arr.reshape(-1, n))
        return cls(kraus)

    def __repr__(self):
        return f"Channel(in_dim={self.in_dim}, out_dim={self.out_dim}, kraus={len(self.kraus)})"


def identity_channel(n: int) -> Channel:
    return Channel([np.eye(n, dtype=complex)])


def unitary_channel(u: np.ndarray) -> Channel:
    return Channel([np.asarray(u, dtype=complex)])


def is_cptp(obj, tol: float = 1e-9) -> CptpReport:
    """CP/TP diagnostic for a Channel, a Kraus list, or a raw superoperator matrix.

    Unlike the Channel constructor this never raises on violation, so it can
    probe maps that are not channels (e.g. the transpose map).
    """
    if isinstance(obj, Channel):
        return obj.is_cptp(tol)
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.shape[0] == obj.shape[1]:
        n = math.isqrt(obj.shape[0])
        if n * n == obj.shape[0]:
            d = hermitize(reshuffle(np.asarray(obj, dtype=complex))) / n
            min_eig = float(np.linalg.eigvalsh(d).min())
            from .matfun import partial_trace

            marg = partial_trace(d, (n, n), 1)  # = (sum K†K)^T / n for a Kraus map
            tp_residual = float(np.abs(n * marg - np.eye(n)).max())
            return CptpReport(
                cp=min_eig >= -tol,
                tp=tp_residual <= tol,
                min_choi_eig=min_eig,
                tp_residual=tp_residual,
            )
    return _cptp_report([np.asarray(k, dtype=complex) for k in obj], np.asarray(obj[0]).shape[1], tol)


# -- channel-level entropies -------------------------------------------------


def map_entropy(phi: Channel, order: EntropyOrder = VON_NEUMANN) -> float:
    """Entropy of the normalized dynamical matrix D/N.

    Zero for unitary channels; 2 log N for the completely depolarizing
    channel; additive over tensor products for every order.
    """
    return vn_entropy(phi.choi, order)


def exchange_entropy(phi: Channel, rho: np.ndarray, order: EntropyOrder = VON_NEUMANN) -> float:
    """Entropy of the environment state sigma_ij = tr K^i rho K^j† after the map."""
    sigma = correlation_from_kraus(phi.kraus, rho)
    return vn_entropy(sigma, order)


def correlation_from_kraus(kraus, rho: np.ndarray) -> np.ndarray:
    """Correlation matrix sigma_ij = tr K^i rho K^j† of a measurement/channel."""
    rho = np.asarray(rho, dtype=complex)
    mats = [k @ rho for k in kraus]
    m = len(kraus)
    sigma = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            sigma[i, j] = np.trace(mats[i] @ kraus[j].conj().T)
    return hermitize(sigma)


def coherent_information(phi: Channel, rho: np.ndarray) -> float:
    """S(Phi(rho)) - S(complementary output at rho)."""
    return vn_entropy(phi.apply(rho)) - exchange_entropy(phi, rho)


def ensemble_from_channel(phi: Channel, rho: np.ndarray, cutoff: float = 1e-12):
    """Measurement ensemble {p_i = tr K rho K†, rho_i = K rho K†/p_i}.

    Outcomes with p_i < cutoff are dropped and the rest renormalized.
    """
    from .bounds import Ensemble

    probs, states = [], []
    for k in phi.kraus:
        out = k @ rho @ k.conj().T
        p = float(np.trace(out).real)
        if p < cutoff:
            continue
        probs.append(p)
        states.append(out / p)
    probs = np.array(probs)
    return Ensemble(probs / probs.sum(), states)


def pair_optimal_unitary(rho1: np.ndarray, rho2: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """The second construction unitary that makes sigma_12 equal the root fidelity.

    Given u1, returns u2 = sqrt(rho2) sqrt(rho1) (sqrt(rho1) rho2 sqrt(rho1))^{-1/2} u1,
    the choice saturating the Uhlmann bound in the two-state Kraus construction.
    """
    sr1 = psd_sqrt(rho1)
    x = sr1 @ rho2 @ sr1
    m = psd_sqrt(rho2) @ sr1 @ psd_inv_sqrt(x)
    return m @ u1


def kraus_from_ensemble(ensemble, unitaries, eps: float = 1e-9) -> tuple[Channel, np.ndarray]:
    """Kraus operators K^i = sqrt(p_i rho_i) U_i rho^{-1/2} preparing a given ensemble.

    The initial state is rho = sum p_i U_i† rho_i U_i; then K^i rho K^i† equals
    p_i rho_i and the K^i resolve the identity. Singular rho is regularized by
    mixing in eps·I/N (set eps=0 to insist on invertibility).
    """
    probs = np.asarray(ensemble.probs, dtype=float)
    states = [np.asarray(s, dtype=complex) for s in ensemble.states]
    unitaries = [np.asarray(u, dtype=complex) for u in unitaries]
    if len(unitaries) != len(states):
        raise ValueError("need one unitary per state")
    rho = hermitize(sum(p * u.conj().T @ s @ u for p, s, u in zip(probs, states, unitaries)))
    try:
        rho = regularize_singular(rho, eps)
    except NotPSDError:
        raise InvalidChannelError("average state is singular") from None
    inv_sqrt = psd_inv_sqrt(rho)
    kraus = [psd_sqrt(p * s) @ u @ inv_sqrt for p, s, u in zip(probs, states, unitaries)]
    return Channel(kraus, tol=1e-7 if eps else 1e-9), rho
