"""Quantum channels: Kraus, superoperator and dynamical-matrix representations.

Conventions. Density matrices are vectorized row-major ("lexicographically"),
so the superoperator of a channel with Kraus list {K} is sum K ⊗ conj(K) and
the dynamical matrix is its reshuffling. The Choi state is the normalized
dynamical matrix D/N with the identity applied to the first factor, so that
tracing out the second factor gives I/N for any trace preserving map.

A Kraus list is held as one (m, out, in) stack, and every builder below is a
product over that stack rather than a loop over its operators. A channel
holds the representation it was built from and builds the other on first read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import EntropyOrder, VON_NEUMANN, vn_entropy
from .matfun import from_eigh, hermitize, partial_trace, psd_eigh, psd_sqrt, reshuffle, root_svd
from .tolerances import (CHOI_TOL, CPTP_TOL, ENSEMBLE_CHANNEL_TOL, KRAUS_CUTOFF, PHASE_CUTOFF,
                         SINGULAR_CUTOFF, SUPPORT_CUTOFF)

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


def _kraus_stack(kraus) -> np.ndarray:
    """The Kraus operators as one complex (m, out, in) array."""
    try:
        stack = np.array(kraus, dtype=complex)
    except ValueError:  # ragged: the operators' shapes differ
        raise InvalidChannelError("Kraus operators must share a shape") from None
    if stack.ndim != 3 or not len(stack):
        raise InvalidChannelError("need a nonempty list of Kraus matrices")
    return stack


def kraus_to_superoperator(kraus) -> np.ndarray:
    """Superoperator sum K ⊗ conj(K) acting on row-major vectorized matrices.

    One product of the row-vectorized stack gives the dynamical matrix
    sum vec(K) vec(K)†; its reshuffling is the superoperator.
    """
    stack = np.asarray(kraus, dtype=complex)
    m, out, n = stack.shape
    rows = stack.reshape(m, out * n)
    d = (rows.T @ rows.conj()).reshape(out, n, out, n)
    return d.transpose(0, 2, 1, 3).reshape(out * out, n * n)


def kraus_to_choi(kraus) -> np.ndarray:
    """Normalized Choi state [id ⊗ Phi](|phi+><phi+|).

    One product of the column-vectorized stack: sum vec(K) vec(K)† / in_dim.
    """
    stack = np.asarray(kraus, dtype=complex)
    m, out, n = stack.shape
    cols = stack.transpose(0, 2, 1).reshape(m, n * out)
    return hermitize(cols.T @ cols.conj()) / n


def _swap_factors(m: np.ndarray) -> np.ndarray:
    """out[(j,i),(l,k)] = m[(i,j),(k,l)]: the row-major dynamical matrix <-> n·Choi."""
    n = math.isqrt(len(m))
    return m.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)


@dataclass(frozen=True)
class CptpReport:
    """min_choi_eig is on the normalized (unit trace) Choi scale."""

    cp: bool
    tp: bool
    min_choi_eig: float
    tp_residual: float

    @property
    def ok(self) -> bool:
        return self.cp and self.tp


def _cptp_report(stack: np.ndarray, choi: np.ndarray, tol: float) -> CptpReport:
    """TP residual max|sum K†K - I| and CP test on the minimum Choi eigenvalue.

    A NaN or inf Kraus entry makes the residual NaN or inf; the eigenvalue is
    then NaN rather than whatever an eigensolver makes of it, so neither test passes.
    """
    m, out, n = stack.shape
    flat = stack.reshape(m * out, n)  # flat† flat = sum K†K
    tp_residual = float(np.abs(flat.conj().T @ flat - np.eye(n)).max())
    min_eig = float(np.linalg.eigvalsh(choi).min()) if math.isfinite(tp_residual) else math.nan
    return CptpReport(min_eig >= -tol, tp_residual <= tol, min_eig, tp_residual)


def _superoperator_report(s: np.ndarray) -> tuple[CptpReport, np.ndarray | None, float]:
    """The report on a square superoperator, the dynamical matrix d it checked,
    and the weight sum |w| of the eigenvalues w <= KRAUS_CUTOFF of d.

    d = hermitize(reshuffle(s)) is n·choi; CP means no eigenvalue of d (not
    of the Choi state) below -CPTP_TOL, TP means max|Tr_out d - I| <= CPTP_TOL.
    Dropping the eigenvalues at or below KRAUS_CUTOFF (as the Kraus stack
    does) moves Tr_out d by at most their weight. A NaN or inf entry gives
    a NaN report and no d, before any arithmetic on s.
    """
    if not np.isfinite(s).all():
        return CptpReport(False, False, math.nan, math.nan), None, math.nan
    d = hermitize(reshuffle(s))
    n = math.isqrt(len(d))
    tp_residual = float(np.abs(partial_trace(d, (n, n), 1) - np.eye(n)).max())
    w = np.linalg.eigvalsh(d)
    min_eig = float(w[0])
    report = CptpReport(min_eig >= -CPTP_TOL, tp_residual <= CPTP_TOL, min_eig / n, tp_residual)
    return report, d, float(np.abs(w[w <= KRAUS_CUTOFF]).sum())


class Channel:
    """A CPTP map, validated on construction in the representation it is given.

    `Channel(kraus)` holds an (m, out, in) Kraus stack; the operators may be
    rectangular (out_dim × in_dim), as for complementary channels. The
    constructor builds the Choi state, because the CP check needs its
    minimum eigenvalue, and checks trace preservation on sum K†K; a Kraus
    list that fails either check at `tol` (CPTP_TOL unless given), or has a
    NaN or inf entry, raises InvalidChannelError. The superoperator is built on first read and cached.
    `from_superoperator` and `from_choi` hold the superoperator and the Choi
    state instead, and build (and validate) the Kraus stack on first read.
    Instances are immutable: the given representation is a read-only copy.
    """

    def __init__(self, kraus, tol: float = CPTP_TOL):
        self._kraus_given = True
        self.kraus = _kraus_stack(kraus)
        self.kraus.flags.writeable = False
        if not np.isfinite(self.kraus).all():
            raise InvalidChannelError("Kraus operator has a NaN or infinite entry")
        self.out_dim, self.in_dim = self.kraus.shape[1:]
        self.choi = kraus_to_choi(self.kraus)
        report = _cptp_report(self.kraus, self.choi, tol)
        if not report.tp:
            raise InvalidChannelError(f"not trace preserving: |sum K†K - I| = {report.tp_residual:.3e}")
        if not report.cp:
            raise InvalidChannelError(f"not completely positive: min Choi eigenvalue {report.min_choi_eig:.3e}")

    @cached_property
    def superoperator(self) -> np.ndarray:
        return kraus_to_superoperator(self.kraus)

    @cached_property
    def kraus(self) -> np.ndarray:
        """Built on first read for a superoperator or Choi channel; `Channel(kraus)` stores it."""
        return self._from_outer_sum(reshuffle(self.superoperator), self.in_dim).kraus

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
        return (self.kraus @ rho @ self.kraus.conj().swapaxes(-1, -2)).sum(axis=0)

    def is_cptp(self) -> CptpReport:
        """The constructor's check at CPTP_TOL, on the representation it was given."""
        if self._kraus_given:
            return _cptp_report(self.kraus, self.choi, CPTP_TOL)
        return _superoperator_report(self.superoperator)[0]

    # -- representation conversions ------------------------------------

    @classmethod
    def from_superoperator(cls, s: np.ndarray) -> "Channel":
        """Channel from a superoperator matrix (square dimensions only).

        A NaN or inf entry, or a map that fails `_superoperator_report`'s CP or
        TP test, raises InvalidChannelError. The channel keeps the checked
        (Hermitian) dynamical matrix as its superoperator and Choi state. A map
        so close to the CP margin that dropping its eigenvalues at or below
        KRAUS_CUTOFF could break TP gets its Kraus stack built (and checked)
        here, so that it raises now rather than on the first `.kraus` read.
        """
        s = np.asarray(s, dtype=complex)
        if not np.isfinite(s).all():
            raise InvalidChannelError("superoperator has a NaN or infinite entry")
        report, d, dropped = _superoperator_report(s)
        if not report.cp:
            raise InvalidChannelError(f"not completely positive: min Choi eigenvalue {report.min_choi_eig:.3e}")
        if not report.tp:
            raise InvalidChannelError(f"not trace preserving: |Tr_out D - I| = {report.tp_residual:.3e}")
        phi = cls.__new__(cls)
        phi._kraus_given = False
        phi.in_dim = phi.out_dim = math.isqrt(len(d))
        phi.superoperator = reshuffle(d)
        phi.choi = _swap_factors(d) / phi.in_dim
        phi.superoperator.flags.writeable = phi.choi.flags.writeable = False
        if report.tp_residual + dropped > CPTP_TOL:
            phi.kraus  # builds and checks the truncated Kraus stack
        return phi

    @classmethod
    def from_choi(cls, choi: np.ndarray) -> "Channel":
        """Channel from a normalized Choi state (trace one, Tr_2 choi = I/N, both to
        CHOI_TOL), then checked and held as `from_superoperator` holds its map."""
        choi = np.asarray(choi, dtype=complex)
        if not np.isfinite(choi).all():
            raise InvalidChannelError("Choi state has a NaN or infinite entry")
        n = math.isqrt(choi.shape[0])
        if abs(np.trace(choi).real - 1.0) > CHOI_TOL:
            raise InvalidChannelError("Choi state must have unit trace")
        marg = partial_trace(choi, (n, n), 2)
        if np.abs(marg - np.eye(n) / n).max() > CHOI_TOL:
            raise InvalidChannelError("Choi state violates the partial trace condition")
        return cls.from_superoperator(reshuffle(_swap_factors(choi * n)))

    @classmethod
    def _from_outer_sum(cls, d: np.ndarray, n: int) -> "Channel":
        """Kraus channel from a checked dynamical matrix d = sum vec_row(K) vec_row(K)†.

        Eigenvectors with eigenvalue above KRAUS_CUTOFF become Kraus operators, the
        largest first, each with its first component above PHASE_CUTOFF real positive.
        """
        w, v = np.linalg.eigh(d)
        order = np.argsort(w)[::-1]
        order = order[w[order] > KRAUS_CUTOFF]
        vecs = v[:, order].T
        lead = vecs[np.arange(len(order)), np.argmax(np.abs(vecs) > PHASE_CUTOFF, axis=1)]
        vecs = vecs / (lead / np.abs(lead))[:, None]
        return cls(np.sqrt(w[order])[:, None, None] * vecs.reshape(-1, n, n))

    # -- composition ----------------------------------------------------

    def compose(self, inner: "Channel") -> "Channel":
        """Channel rho -> self(inner(rho)); Kraus products, validated on construction."""
        if inner.out_dim != self.in_dim:
            raise ValueError("dimension mismatch in composition")
        pairs = self.kraus[:, None] @ inner.kraus[None]  # (m2, m1, out, in)
        return Channel(pairs.reshape(-1, self.out_dim, inner.in_dim))

    def tensor(self, other: "Channel") -> "Channel":
        """Tensor product channel with pairwise Kronecker Kraus operators."""
        pairs = np.einsum("aij,bkl->abikjl", self.kraus, other.kraus)
        return Channel(pairs.reshape(-1, self.out_dim * other.out_dim, self.in_dim * other.in_dim))

    def complementary(self) -> "Channel":
        """Channel to the environment: Ktilde^a[i, j] = K^i[a, j].

        Maps states on C^in to states on C^M where M is the Kraus count;
        the output entries of the complementary channel are tr K^i rho K^j†.
        """
        return Channel(self.kraus.transpose(1, 0, 2))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """JSON with the Kraus list only; caches are rebuilt on load."""
        ops = [[[float(z.real), float(z.imag)] for z in k.reshape(-1)] for k in self.kraus]
        return json.dumps({"dim": self.in_dim, "kraus": ops})

    @classmethod
    def from_json(cls, text: str) -> "Channel":
        data = json.loads(text)
        return cls([np.array([complex(*z) for z in flat]).reshape(-1, int(data["dim"]))
                    for flat in data["kraus"]])

    def __repr__(self):
        return f"Channel(in_dim={self.in_dim}, out_dim={self.out_dim}, kraus={len(self.kraus)})"


def identity_channel(n: int) -> Channel:
    return Channel([np.eye(n, dtype=complex)])


def unitary_channel(u: np.ndarray) -> Channel:
    return Channel([np.asarray(u, dtype=complex)])


def is_cptp(obj) -> CptpReport:
    """CP/TP diagnostic for a Channel, a Kraus list, or a raw superoperator matrix.

    Unlike the Channel constructor this never raises on violation, so it can
    probe maps that are not channels (e.g. the transpose map). A raw matrix
    gets the test `Channel.from_superoperator` applies.
    """
    if isinstance(obj, Channel):
        return obj.is_cptp()
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.shape[0] == obj.shape[1]:
        if math.isqrt(obj.shape[0]) ** 2 == obj.shape[0]:
            return _superoperator_report(np.asarray(obj, dtype=complex))[0]
    stack = _kraus_stack(obj)
    return _cptp_report(stack, kraus_to_choi(stack), CPTP_TOL)


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
    stack = np.asarray(kraus, dtype=complex)
    m = len(stack)
    left = (stack @ np.asarray(rho, dtype=complex)).reshape(m, -1)
    return hermitize(left @ stack.reshape(m, -1).conj().T)


def coherent_information(phi: Channel, rho: np.ndarray) -> float:
    """S(Phi(rho)) - S(complementary output at rho)."""
    return vn_entropy(phi.apply(rho)) - exchange_entropy(phi, rho)


def ensemble_from_channel(phi: Channel, rho: np.ndarray):
    """Measurement ensemble {p_i = tr K rho K†, rho_i = K rho K†/p_i}.

    Outcomes with p_i below SUPPORT_CUTOFF are dropped and the rest renormalized.
    """
    from .bounds import Ensemble

    outs = phi.kraus @ np.asarray(rho, dtype=complex) @ phi.kraus.conj().swapaxes(-1, -2)
    probs = np.trace(outs, axis1=-2, axis2=-1).real
    kept = probs >= SUPPORT_CUTOFF
    probs, outs = probs[kept], outs[kept]
    return Ensemble(probs / probs.sum(), outs / probs[:, None, None])


def pair_optimal_unitary(rho1: np.ndarray, rho2: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """The second construction unitary that makes sigma_12 equal the root fidelity.

    Given u1, returns u2 = W u1, with W the polar factor of sqrt(rho2) sqrt(rho1)
    (root_svd): for invertible states W = sqrt(rho2) sqrt(rho1)
    (sqrt(rho1) rho2 sqrt(rho1))^{-1/2}, the choice saturating the Uhlmann
    bound in the two-state Kraus construction.
    """
    return root_svd(psd_sqrt(rho2) @ psd_sqrt(rho1))[1] @ u1


def kraus_from_ensemble(ensemble, unitaries) -> tuple[Channel, np.ndarray]:
    """Kraus operators K^i = sqrt(p_i rho_i) U_i rho^{-1/2} preparing a given ensemble.

    The initial state is rho = sum p_i U_i† rho_i U_i; then K^i rho K^i† equals
    p_i rho_i and the K^i resolve the identity, checked to ENSEMBLE_CHANNEL_TOL.
    The construction needs rho invertible: a rho with an eigenvalue at or
    below SINGULAR_CUTOFF raises ValueError, since on its kernel the K^i†K^i
    sum to 0 instead of the identity.
    """
    probs = np.asarray(ensemble.probs, dtype=float)
    states = [np.asarray(s, dtype=complex) for s in ensemble.states]
    unitaries = [np.asarray(u, dtype=complex) for u in unitaries]
    if len(unitaries) != len(states):
        raise ValueError("need one unitary per state")
    rho = hermitize(sum(p * u.conj().T @ s @ u for p, s, u in zip(probs, states, unitaries)))
    w, v = psd_eigh(rho)
    if w[0] <= SINGULAR_CUTOFF:
        raise ValueError(f"average state sum p_i U_i† rho_i U_i is singular (smallest "
                         f"eigenvalue {w[0]:.3e}), so rho^(-1/2) is undefined")
    inv_sqrt = from_eigh(1.0 / np.sqrt(w), v)
    kraus = [psd_sqrt(p * s) @ u @ inv_sqrt for p, s, u in zip(probs, states, unitaries)]
    return Channel(kraus, tol=ENSEMBLE_CHANNEL_TOL), rho
