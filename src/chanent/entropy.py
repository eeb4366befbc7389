"""Classical and quantum entropies, relative entropies, mutual information, distances, and
the ensemble type `Ensemble` {p_i, rho_i}, kept here below channels and sampling, which build ensembles.

Everything is computed in nats; converting to bits is left to the output
layer. The 0·log 0 = 0 convention applies throughout, and weights and
eigenvalues at or below tolerances.SUPPORT_CUTOFF count as outside the support.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .matfun import partial_trace, psd_log, psd_power, spectral, spectrum
from .states import assert_state, root_fidelity
from .tolerances import NORMALIZATION_TOL, PROB_NEGATIVITY_TOL, SUPPORT_CUTOFF, SUPPORT_LEAK

__all__ = [
    "Ensemble",
    "EntropyOrder",
    "VON_NEUMANN",
    "spectrum_entropy",
    "classical_entropy",
    "vn_entropy",
    "relative_entropy",
    "mutual_information_classical",
    "quantum_mutual_information",
    "jsd",
    "entropic_distance",
    "transmission_distance",
]

@dataclass(frozen=True)
class EntropyOrder:
    """Entropy family selector: kind in {"shannon", "renyi", "tsallis"} and a finite order q > 0.

    q = 1 routes renyi/tsallis to the Shannon/von Neumann limit.
    """

    kind: str = "shannon"
    q: float = 1.0

    def __post_init__(self):
        if self.kind not in ("shannon", "renyi", "tsallis"):
            raise ValueError(f"unknown entropy kind {self.kind!r}")
        if not 0 < self.q < math.inf:  # also catches NaN
            raise ValueError(f"entropy order q must be positive and finite, got {self.q}")

    @classmethod
    def renyi(cls, q: float) -> "EntropyOrder":
        return cls("renyi", q)

    @classmethod
    def tsallis(cls, q: float) -> "EntropyOrder":
        return cls("tsallis", q)

    @property
    def is_limit(self) -> bool:
        return self.kind == "shannon" or self.q == 1.0


VON_NEUMANN = EntropyOrder()


def _clean_probs(p) -> np.ndarray:
    """p as a float array of probability vectors along its last axis, clipped at 0.

    The one check of every probability vector in the package. An entry below
    -PROB_NEGATIVITY_TOL, or NaN, raises ValueError; so does a vector whose sum
    misses 1 by more than NORMALIZATION_TOL (an inf entry fails this).
    """
    p = np.asarray(p, dtype=float)
    low = p.min(initial=0.0)
    if not low >= -PROB_NEGATIVITY_TOL:  # also catches NaN
        raise ValueError(f"probability {low:.3e} is negative or not a number")
    p = np.maximum(p, 0.0)
    total = p.sum(axis=-1)
    if not (np.abs(total - 1.0) <= NORMALIZATION_TOL).all():
        raise ValueError(f"probabilities sum to {total}, not 1")
    return p


@dataclass(frozen=True)
class Ensemble:
    """Probability vector paired with density matrices of a common dimension.

    states is given as a sequence of n×n matrices or a (k, n, n) array and
    held as one (k, n, n) complex array.
    """

    probs: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if len({np.shape(s) for s in self.states}) > 1:
            raise ValueError("all states must share a dimension")
        states = np.asarray(self.states, dtype=complex)
        if len(probs) != len(states):
            raise ValueError("probs and states must have equal length")
        probs = _clean_probs(probs)
        if states.ndim != 3 or states.shape[1] != states.shape[2]:
            raise ValueError("all states must share a dimension")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def average(self) -> np.ndarray:
        return _average(self.probs, self.states)

    def validate(self) -> "Ensemble":
        for s in self.states:
            assert_state(s)
        return self


def _average(probs: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum p rho over (..., k) stacks of probabilities and states."""
    return sum(probs[..., i, None, None] * states[..., i, :, :] for i in range(probs.shape[-1]))


def spectrum_entropy(w, order: EntropyOrder = VON_NEUMANN):
    """Shannon / Rényi / Tsallis entropy of each weight vector along the last axis, in nats.

    w holds nonnegative weights summing to 1: a probability vector or a
    normalized spectrum, or a (..., n) stack of them. Weights at or below
    SUPPORT_CUTOFF count as exact zeros, which matters for orders q < 1 where
    numerical noise would otherwise contribute. For Rényi and Tsallis orders
    the kept weights are renormalized before the power sum, so these
    entropies are never negative; a weight p crossing the cutoff still makes
    the entropy jump by about p^q, which for q < 1 is far more than p. A NaN
    weight gives a NaN entropy. Returns a float for one vector and an array
    for a stack.
    """
    p = np.asarray(w, dtype=float)
    if order.is_limit:
        # log only on the support: p log p is then 0 off it, and NaN stays NaN
        out = -np.add.reduce(p * np.log(p, out=np.zeros(p.shape), where=p > SUPPORT_CUTOFF), axis=-1)
    else:
        kept = np.where(p <= SUPPORT_CUTOFF, 0.0, p)
        kept = kept / kept.sum(axis=-1, keepdims=True)
        # with x = (q - 1) log p, sum p^q = 1 + sum p expm1(x): the 1 cancels in
        # closed form, so no digits are lost as q -> 1. Off the support log 0 is
        # taken as inf with the sign of 1 - q, which makes x = -inf there.
        log_p = np.log(kept, out=np.full_like(kept, math.copysign(math.inf, 1.0 - order.q)), where=kept != 0.0)
        x = (order.q - 1.0) * log_p
        if order.kind == "renyi":
            # m = min(max x, 0) keeps the top e^(x - m) at 1 where p^q underflows at large q
            m = np.minimum(x.max(axis=-1, keepdims=True), 0.0)
            out = (m[..., 0] + np.log1p((kept * np.expm1(x - m)).sum(axis=-1))) / (1.0 - order.q)
        else:
            out = -(kept * np.expm1(x)).sum(axis=-1) / (order.q - 1.0)
    return float(out) if out.ndim == 0 else out


def classical_entropy(p, order: EntropyOrder = VON_NEUMANN) -> float:
    """Shannon / Rényi / Tsallis entropy of a probability vector, in nats."""
    return spectrum_entropy(_clean_probs(np.ravel(p)), order)


def vn_entropy(rho: np.ndarray, order: EntropyOrder = VON_NEUMANN):
    """Entropy of a density matrix = classical entropy of its normalized spectrum.

    Takes one matrix (returns a float) or a (..., n, n) stack (returns an
    array). Negative eigenvalues are clipped to 0; NaN or inf in the input
    raises NonFiniteError and a zero matrix raises ValueError. A spectrum whose
    sum could overflow is first scaled exactly, by a power of two.
    """
    w = spectrum(rho)
    if np.count_nonzero(w > sys.float_info.max / w.shape[-1]):
        w = np.ldexp(w, -np.frexp(w.max(axis=-1, keepdims=True))[1])
    return _eigenvalue_entropy(w, order)


def _eigenvalue_entropy(w: np.ndarray, order: EntropyOrder = VON_NEUMANN):
    """vn_entropy of each matrix of a stack, given its (..., n) eigenvalues instead."""
    w = np.maximum(w, 0.0)
    total = np.add.reduce(w, axis=-1, keepdims=True)
    if np.count_nonzero(total > 0.0) != total.size:
        raise ValueError("a zero matrix has no entropy")
    return spectrum_entropy(np.divide(w, total, out=w), order)  # w is this function's own copy


def relative_entropy(
    rho1: np.ndarray, rho2: np.ndarray, order: EntropyOrder = VON_NEUMANN
) -> float:
    """Relative entropy D(rho1 || rho2); von Neumann, Tsallis or Rényi version.

    Returns math.inf when the support of rho1 is not contained in the
    support of rho2 (von Neumann and order q > 1), or, for Rényi q < 1, when
    the supports are orthogonal.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError("states must share a dimension")
    if order.is_limit or order.q > 1.0:
        # support check: weight of rho1 on the kernel of rho2
        kernel = spectral(rho2, lambda w: w <= SUPPORT_CUTOFF)
        if np.trace(kernel @ rho1).real > SUPPORT_LEAK:
            return math.inf
    if order.is_limit:
        return float(np.trace(rho1 @ (psd_log(rho1) - psd_log(rho2))).real)
    q = order.q
    cross = float(np.trace(psd_power(rho1, q) @ psd_power(rho2, 1.0 - q)).real)
    if order.kind == "tsallis":
        # (tr rho1^q rho2^{1-q} - 1)/(q - 1): recovers the von Neumann
        # relative entropy as q -> 1 and is nonnegative
        return (cross - 1.0) / (q - 1.0)
    if cross <= 0.0:
        return math.inf
    return math.log(cross) / (q - 1.0)


def mutual_information_classical(joint: np.ndarray) -> float:
    """H(X) + H(Y) - H(X,Y) of a joint probability matrix."""
    joint = _clean_probs(np.ravel(joint)).reshape(np.shape(joint))
    hx = classical_entropy(joint.sum(axis=1))
    hy = classical_entropy(joint.sum(axis=0))
    hxy = classical_entropy(joint.ravel())
    return hx + hy - hxy


def quantum_mutual_information(rho12: np.ndarray, dims: tuple[int, int]) -> float:
    """S(rho1) + S(rho2) - S(rho12) of a bipartite state."""
    d1, d2 = dims
    rho12 = np.asarray(rho12, dtype=complex)
    if rho12.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"state shape {rho12.shape} does not match dims {dims}")
    s1 = vn_entropy(partial_trace(rho12, dims, 2))
    s2 = vn_entropy(partial_trace(rho12, dims, 1))
    return s1 + s2 - vn_entropy(rho12)


def jsd(dists, weights=None) -> float:
    """Jensen-Shannon divergence of k distributions with weights alpha_nu.

    H(sum alpha_nu P_nu) - sum alpha_nu H(P_nu); uniform weights by default. A weight
    count other than k raises ValueError.
    """
    dists = [np.asarray(p, dtype=float) for p in dists]
    k = len(dists)
    weights = _clean_probs(np.full(k, 1.0 / k) if weights is None else np.ravel(weights))
    if len(weights) != k:
        raise ValueError(f"need one weight per distribution: {len(weights)} weights, {k} distributions")
    mix = sum(a * p for a, p in zip(weights, dists))
    return classical_entropy(mix) - sum(a * classical_entropy(p) for a, p in zip(weights, dists))


def entropic_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """sqrt of the entropy of the minimal 2×2 correlation matrix [[1, f], [f, 1]]/2 at
    lambda = 1/2, f the root fidelity: its spectrum is (1 ± f)/2, so it needs no eigensolver."""
    f = root_fidelity(rho1, rho2)
    return math.sqrt(max(spectrum_entropy([(1.0 + f) / 2.0, (1.0 - f) / 2.0]), 0.0))


def transmission_distance(p, q) -> float:
    """sqrt of the Jensen-Shannon divergence between two distributions."""
    return math.sqrt(max(jsd([np.asarray(p, float), np.asarray(q, float)]), 0.0))
