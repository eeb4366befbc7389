"""Quantum channels: Kraus, superoperator and dynamical-matrix representations.

Conventions. Density matrices are vectorized row-major ("lexicographically"),
so the superoperator of a channel with Kraus list {K} is sum K ⊗ conj(K) and
the dynamical matrix D = sum vec(K) vec(K)† is its reshuffling. The Choi state
is D/N with its factors swapped: the identity acts on the first factor, and
tracing out the second gives I/N for any trace preserving map.

A channel holds its (m, out, in) Kraus stack or its dynamical matrix as an
(out, in, out, in) array; the superoperator and the Choi state are index
permutations of that array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import Ensemble, EntropyOrder, VON_NEUMANN, vn_entropy
from .matfun import (_finite, _hermitian_spectrum, _lead_phases, eigh, from_eigh, hermitize, psd_eigh, psd_sqrt,
                     root_svd)
from .tolerances import CPTP_TOL, ENSEMBLE_CHANNEL_TOL, KRAUS_CUTOFF, SINGULAR_CUTOFF, SUPPORT_CUTOFF

__all__ = [
    "InvalidChannelError",
    "Channel",
    "CptpReport",
    "is_cptp",
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


def _gram(stack: np.ndarray) -> np.ndarray:
    """d[i, j, k, l] = sum K[i, j] conj(K[k, l]): one product of the row-vectorized stack."""
    m, out, n = stack.shape
    rows = stack.reshape(m, out * n)
    return (rows.T @ rows.conj()).reshape(out, n, out, n)


def _superoperator(d: np.ndarray) -> np.ndarray:
    """S[(i, k), (j, l)] = d[i, j, k, l]."""
    out, n = d.shape[:2]
    return d.transpose(0, 2, 1, 3).reshape(out * out, n * n)


def _choi(d: np.ndarray) -> np.ndarray:
    """choi[(j, i), (l, k)] = d[i, j, k, l] / in_dim."""
    out, n = d.shape[:2]
    return hermitize(d.transpose(1, 0, 3, 2).reshape(n * out, n * out)) / n


def _root_dims(m: np.ndarray, name: str) -> tuple[int, ...]:
    """(out, in) of an out² × in² matrix; any other shape raises InvalidChannelError."""
    roots = tuple(math.isqrt(d) for d in m.shape)
    if m.ndim != 2 or any(r * r != d for r, d in zip(roots, m.shape)):
        raise InvalidChannelError(f"{name} of shape {m.shape} is not out² × in²")
    return roots


def _unshuffle(s) -> np.ndarray:
    """d[i, j, k, l] = S[(i, k), (j, l)] of an out² × in² superoperator S."""
    s = np.asarray(s, dtype=complex)
    out, n = _root_dims(s, "superoperator")
    return s.reshape(out, out, n, n).transpose(0, 2, 1, 3)


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


def _report(d: np.ndarray) -> tuple[CptpReport, np.ndarray | None, float]:
    """The CP/TP report on an (out, in, out, in) dynamical matrix d, the Hermitian
    part of d that it checked, and the weight sum |w| of its eigenvalues w <= KRAUS_CUTOFF.

    CP means no eigenvalue of d (in_dim times the Choi state's) below
    -CPTP_TOL, TP means max|Tr_out d - I| <= CPTP_TOL. Dropping the
    eigenvalues at or below KRAUS_CUTOFF (as the Kraus stack does) moves
    Tr_out d by at most their weight. A NaN or inf entry gives a NaN report
    and no d, before any arithmetic on d.
    """
    out, n = d.shape[:2]
    if np.count_nonzero(np.isfinite(d)) != d.size:
        return CptpReport(False, False, math.nan, math.nan), None, math.nan
    flat = hermitize(d.reshape(out * n, out * n))
    w = _hermitian_spectrum(flat)
    d = flat.reshape(out, n, out, n)
    residual = np.trace(d, axis1=0, axis2=2)  # a new (n, n) array: Tr_out d - I in place
    residual.reshape(-1)[:: n + 1] -= 1.0
    tp_residual = float(np.abs(residual).max())
    min_eig = float(w[0])
    report = CptpReport(min_eig >= -CPTP_TOL, tp_residual <= CPTP_TOL, min_eig / n, tp_residual)
    # w ascends, so nothing is dropped unless its first eigenvalue is
    dropped = float(np.abs(w[w <= KRAUS_CUTOFF]).sum()) if w[0] <= KRAUS_CUTOFF else 0.0
    return report, d, dropped


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Channel:
    """A CPTP map, held as its Kraus stack or as its dynamical matrix.

    `Channel(kraus)` holds an (m, out, in) Kraus stack; the operators may be
    rectangular, as for complementary channels. Its dynamical matrix
    sum vec(K) vec(K)† is a Gram matrix, PSD whatever the operators, so a Kraus
    list is CP and the constructor checks only what can fail: max|sum K†K - I| <= `tol`,
    which a NaN or inf entry fails too. Either raises InvalidChannelError, each with its
    own message; no eigensolver runs. `from_superoperator` and `from_choi` hold the checked
    dynamical matrix instead. The superoperator, the Choi state and the Kraus
    stack are derived on first read, cached and read-only.
    """

    def __init__(self, kraus, tol: float = CPTP_TOL):
        self.kraus = stack = _read_only(_kraus_stack(kraus))
        self.out_dim, self.in_dim = stack.shape[1:]
        flat = stack.reshape(-1, self.in_dim)  # flat† flat = sum K†K
        with np.errstate(over="ignore", invalid="ignore"):  # NaN or inf input, or an overflow
            residual = flat.conj().T @ flat
        residual.reshape(-1)[:: self.in_dim + 1] -= 1.0  # sum K†K - I: NaN or inf if an entry is
        tp_residual = float(np.maximum.reduce(np.abs(residual), axis=None))
        if not tp_residual <= tol:
            if np.count_nonzero(np.isfinite(stack)) != stack.size:
                raise InvalidChannelError("Kraus operator has a NaN or infinite entry")
            raise InvalidChannelError(f"not trace preserving: |sum K†K - I| = {tp_residual:.3e}")

    @cached_property
    def _d(self) -> np.ndarray:
        """The dynamical matrix as an (out, in, out, in) array; stored by the dense constructors."""
        return _gram(self.kraus)

    @cached_property
    def superoperator(self) -> np.ndarray:
        return _read_only(_superoperator(self._d))

    @cached_property
    def choi(self) -> np.ndarray:
        return _read_only(_choi(self._d))

    @cached_property
    def kraus(self) -> np.ndarray:
        """Built on first read for a superoperator or Choi channel; `Channel(kraus)` stores it."""
        return self._from_outer_sum(self._d.reshape(self.out_dim * self.in_dim, -1), self.in_dim).kraus

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """sum K rho K†, of one state or of every matrix in a (..., n, n) stack."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape[-2:] != (self.in_dim, self.in_dim):
            raise ValueError(f"state dimension {rho.shape[-1]} != channel dimension {self.in_dim}")
        return (self.kraus @ rho[..., None, :, :] @ self.kraus.conj().swapaxes(-1, -2)).sum(axis=-3)

    def is_cptp(self) -> CptpReport:
        """The dense constructors' check at CPTP_TOL, on the dynamical matrix."""
        return _report(self._d)[0]

    # -- representation conversions ------------------------------------

    @classmethod
    def from_superoperator(cls, s: np.ndarray) -> "Channel":
        """Channel from an out_dim² × in_dim² superoperator matrix, checked by `_dense`."""
        return cls._dense(_unshuffle(s), "superoperator")

    @classmethod
    def from_choi(cls, choi: np.ndarray) -> "Channel":
        """Channel from a normalized Choi state on C^N ⊗ C^N. Its unit trace and its
        marginal I/N are the TP test that `_dense` applies to N·choi."""
        choi = np.asarray(choi, dtype=complex)
        n, m = _root_dims(choi, "Choi state")
        if n != m:
            raise InvalidChannelError(f"Choi state of shape {choi.shape} is not square")
        if not np.isfinite(choi).all():  # before the scaling, where inf·0j would make a NaN
            raise InvalidChannelError("Choi state has a NaN or infinite entry")
        return cls._dense(n * choi.reshape(n, n, n, n).transpose(1, 0, 3, 2), "Choi state")

    @classmethod
    def _dense(cls, d: np.ndarray, name: str) -> "Channel":
        """Channel holding the (out, in, out, in) dynamical matrix d, checked by `_report`.

        A NaN or inf entry, or a map that fails the CP or TP test, raises
        InvalidChannelError. The channel keeps the Hermitian part of d. A map so
        close to the CP margin that dropping its eigenvalues at or below
        KRAUS_CUTOFF could break TP gets its Kraus stack built (and checked)
        here, so that it raises now rather than on the first `.kraus` read.
        """
        report, d, dropped = _report(d)
        if d is None:
            raise InvalidChannelError(f"{name} has a NaN or infinite entry")
        if not report.cp:
            raise InvalidChannelError(f"not completely positive: min Choi eigenvalue {report.min_choi_eig:.3e}")
        if not report.tp:
            raise InvalidChannelError(f"not trace preserving: |Tr_out D - I| = {report.tp_residual:.3e}")
        phi = cls.__new__(cls)
        phi._d = d
        phi.out_dim, phi.in_dim = d.shape[:2]
        if report.tp_residual + dropped > CPTP_TOL:
            phi.kraus  # builds and checks the truncated Kraus stack
        return phi

    @classmethod
    def _from_outer_sum(cls, d: np.ndarray, n: int) -> "Channel":
        """Kraus channel from a checked dynamical matrix d = sum vec_row(K) vec_row(K)†
        on C^out ⊗ C^n.

        Eigenvectors with eigenvalue above KRAUS_CUTOFF become Kraus operators, the
        largest first, each with its first component above PHASE_CUTOFF real positive.
        """
        w, v = eigh(d)
        order = np.argsort(w)[::-1]
        order = order[w[order] > KRAUS_CUTOFF]
        vecs = v[:, order].T
        vecs = vecs / _lead_phases(vecs)[:, None]
        return cls(np.sqrt(w[order])[:, None, None] * vecs.reshape(-1, len(d) // n, n))

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

    def __repr__(self):
        return f"Channel(in_dim={self.in_dim}, out_dim={self.out_dim}, kraus={len(self.kraus)})"


def identity_channel(n: int) -> Channel:
    return Channel([np.eye(n, dtype=complex)])


def unitary_channel(u: np.ndarray) -> Channel:
    return Channel([np.asarray(u, dtype=complex)])


def is_cptp(obj) -> CptpReport:
    """CP/TP diagnostic for a Channel, a Kraus list, or a raw superoperator matrix.

    Unlike the Channel constructor this never raises on violation, so it can
    probe maps that are not channels (e.g. the transpose map). Every input
    gets the test `Channel.from_superoperator` applies, on its dynamical
    matrix (for a Kraus list, the Gram matrix sum vec(K) vec(K)†).
    """
    if isinstance(obj, Channel):
        return obj.is_cptp()
    if isinstance(obj, np.ndarray) and obj.ndim == 2:
        return _report(_unshuffle(obj))[0]
    return _report(_gram(_kraus_stack(obj)))[0]


# -- channel-level entropies -------------------------------------------------


def map_entropy(phi: Channel, order: EntropyOrder = VON_NEUMANN) -> float:
    """Entropy of the normalized dynamical matrix D/N.

    Zero for unitary channels; 2 log N for the completely depolarizing
    channel; additive over tensor products for every order.
    """
    return vn_entropy(phi.choi, order)


def _measurement(kraus, rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma, probs, outs) of a Kraus stack at rho, from the products L_i = K_i rho: the
    correlation matrix sigma_ij = tr L_i K_j† (not hermitized), the renormalized weights
    p_i = sigma_ii of the outcomes at or above SUPPORT_CUTOFF, and their unnormalized
    outputs L_i K_i†. NaN or inf in rho raises NonFiniteError before any arithmetic."""
    kraus = np.asarray(kraus, dtype=complex)
    m = len(kraus)
    left = kraus @ _finite(np.asarray(rho, dtype=complex))
    conj = kraus.conj()
    sigma = left.reshape(m, -1) @ conj.reshape(m, -1).T
    probs = sigma.diagonal().real
    kept = probs >= SUPPORT_CUTOFF
    if np.count_nonzero(kept) != m:
        probs, left, conj = probs[kept], left[kept], conj[kept]
    return sigma, probs / np.add.reduce(probs), left @ conj.swapaxes(-1, -2)


def exchange_entropy(phi: Channel, rho: np.ndarray, order: EntropyOrder = VON_NEUMANN) -> float:
    """Entropy of the environment state sigma_ij = tr K^i rho K^j† after the map."""
    return vn_entropy(_measurement(phi.kraus, rho)[0], order)


def coherent_information(phi: Channel, rho: np.ndarray) -> float:
    """S(Phi(rho)) - S(complementary output at rho)."""
    return vn_entropy(phi.apply(rho)) - exchange_entropy(phi, rho)


def ensemble_from_channel(phi: Channel, rho: np.ndarray) -> Ensemble:
    """Measurement ensemble {p_i = tr K rho K†, rho_i = K rho K†/p_i}.

    Outcomes with p_i below SUPPORT_CUTOFF are dropped and the rest renormalized.
    """
    _, probs, outs = _measurement(phi.kraus, rho)
    return Ensemble(probs, outs / np.trace(outs, axis1=-2, axis2=-1).real[:, None, None])


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
