"""Holevo quantity and its upper/lower bounds: correlation, Gram, fidelity and
layered matrices, Lindblad-style comparisons, the estimation hierarchy, and the
two-pure-one-mixed qubit geometry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel, _measurement
from .entropy import (
    Ensemble,
    EntropyOrder,
    VON_NEUMANN,
    _average,
    _clean_probs,
    _eigenvalue_entropy,
    mutual_information_classical,
    relative_entropy,
    spectrum_entropy,
    vn_entropy,
)
from .matfun import _padded_spectrum, _psd_root, hermitize, matmul, psd_power, psd_sqrt, root_svd, spectrum, spectrum3
from .sampling import random_pure_state, stream_rng
from .states import from_bloch, pure_state, root_fidelity
from .tolerances import (BLOCH_NULL_LENGTH, DOMAIN_EDGE, HIERARCHY_SKIP_GAP, NORMALIZATION_TOL,
                         PSD_TOL, VIOLATION_SLACK)

__all__ = [
    "TripleGeometry",
    "holevo",
    "correlation_matrix",
    "correlation_from_ensemble",
    "theorem1_check",
    "PropsReport",
    "props_check",
    "LindbladReport",
    "lindblad_check",
    "sigma_min_two",
    "check_b",
    "fidelity_matrix",
    "hierarchy",
    "hierarchy_batch",
    "holevo_mutual_check",
    "triple_from_params",
    "fidelity_sum_identity",
    "symmetric_triple_check",
    "symmetric_triple_eigenvalues",
    "CONJECTURE_MAX_K",
    "conjecture_excess",
    "find_indefinite_gram",
]


def holevo(e: Ensemble, order: EntropyOrder = VON_NEUMANN) -> float:
    """Holevo quantity of an ensemble.

    von Neumann: S(sum p rho) - sum p S(rho). Tsallis order a: the average
    relative Tsallis entropy to the mean. Rényi order q: the printed form
    log tr (sum p rho^q)^{1/q} / (q - 1).
    """
    if order.is_limit:
        s_avg, s_each = _ensemble_vn(e.probs, spectrum(np.concatenate([e.average()[None], e.states])))
        return float(s_avg - s_each)
    if order.kind == "tsallis":
        avg = e.average()
        return sum(
            p * relative_entropy(s, avg, order) for p, s in zip(e.probs, e.states)
        )
    # Rényi
    q = order.q
    mix = sum(p * psd_power(s, q) for p, s in zip(e.probs, e.states))
    val = float(np.trace(psd_power(mix, 1.0 / q)).real)
    return math.log(val) / (q - 1.0)


def _ensemble_vn(probs: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S(sum p rho), sum p S(rho)) over (..., k) stacks, from the (..., k + 1, n)
    eigenvalues of the stack [average state; states]: chi is their difference."""
    ent = _eigenvalue_entropy(w)
    return ent[..., 0], (probs * ent[..., 1:]).sum(axis=-1)


def correlation_matrix(rho: np.ndarray, kraus) -> np.ndarray:
    """Correlation matrix sigma_ij = tr K^i rho K^j† of a POVM acting on rho, hermitized, from
    channels._measurement. A Kraus list that is not a channel raises InvalidChannelError."""
    return hermitize(_measurement(Channel(kraus).kraus, rho)[0])


def correlation_from_ensemble(e: Ensemble, unitaries) -> np.ndarray:
    """Gram-type correlation matrix sqrt(p_i p_j) tr sqrt(rho_i) sqrt(rho_j) U_j† U_i."""
    us = np.array(unitaries, dtype=complex)
    if len(us) != len(e):
        raise ValueError("need one unitary per state")
    return hermitize(_purification_gram(e.probs, (us @ psd_sqrt(e.states)).reshape(len(e), -1)))


def _purification_gram(probs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """sqrt(p_i p_j) <vec_j, vec_i> over (..., k) stacks of probabilities and
    (..., k, m) purification vectors: with vec_i = vec(U_i sqrt(rho_i)) the entry
    is sqrt(p_i p_j) tr(sqrt(rho_j) U_j† U_i sqrt(rho_i))."""
    return _root_probs(probs) * (vecs @ vecs.conj().swapaxes(-1, -2))


def _vn_entropies(*blocks, weights=()) -> list:
    """von Neumann entropy of each block, a PSD matrix (a float) or an (r, n, n) stack (an
    (r,) array), then of each weight vector (a float), from one _padded_spectrum and one
    _eigenvalue_entropy call. Matrices and weights need no normalization. A weight vector
    is the spectrum of its diagonal matrix: it joins the spectra as one more row, padded
    with zeros, and may be no longer than the largest block."""
    w = _padded_spectrum(blocks)
    if weights:
        spectra, w = w, np.zeros((len(w) + len(weights), w.shape[-1]))
        w[:len(spectra)] = spectra
        for i, p in enumerate(weights, len(spectra)):
            w[i, :len(p)] = p
    ent = _eigenvalue_entropy(w)
    vals, out, i = ent.tolist(), [], 0
    for b in blocks:
        if b.ndim == 2:
            out.append(vals[i])
            i += 1
        else:
            out.append(ent[i:i + len(b)])
            i += len(b)
    return out + vals[i:]


def theorem1_check(rho: np.ndarray, phi) -> tuple[float, float, float, bool]:
    """The chain chi <= S(sigma) <= H(P) for a measurement ensemble, to VIOLATION_SLACK.

    phi is a Channel or a Kraus list; a list is validated as one Channel.
    Returns (chi, s_sigma, h_p, ok).

    All three come from channels._measurement: sigma, the P = diag(sigma) of
    every outcome, and chi of the kept outcomes (p_i at or above SUPPORT_CUTOFF),
    S(sum of outputs) - sum p S(output). Every entropy, S(sigma), H(P) and those
    of the outputs, comes from one _vn_entropies call. NaN or inf in rho raises
    NonFiniteError before any arithmetic, and in a Kraus list InvalidChannelError.
    """
    sigma, probs, outs = _measurement((phi if isinstance(phi, Channel) else Channel(phi)).kraus, rho)
    s_sigma, s_avg, s_each, h_p = _vn_entropies(sigma, outs.sum(axis=0), outs, weights=[sigma.diagonal().real])
    chi = s_avg - float(probs @ s_each)
    ok = chi <= s_sigma + VIOLATION_SLACK and s_sigma <= h_p + VIOLATION_SLACK
    return chi, s_sigma, h_p, ok


class _Report:
    """A report of inequalities, each as its lhs - rhs in the subclass's `_gaps()`. worst
    is the largest, and NaN if any field is NaN or infinite: a broken report fails closed.
    Past that check every gap is a number, so Python's max, which would keep a finite
    value over a later NaN, is exact."""

    @property
    def worst(self) -> float:
        return max(self._gaps()) if all(map(math.isfinite, vars(self).values())) else math.nan

    @property
    def ok(self) -> bool:
        return self.worst <= VIOLATION_SLACK


@dataclass(frozen=True)
class PropsReport(_Report):
    """Margins (rhs - lhs, positive when it holds) of the propositions of props_check."""

    info_gain: float  # S(rho) - sum p S(rho_i')
    concat_holevo: float  # chi of the ensemble - chi of Phi2 of it
    concat_exchange: float  # S(sigma of Phi2 Phi1 at rho) - chi of Phi2 of the ensemble
    composition_sign: float  # the composition lower bound on S_map(Phi2 Phi1), >= 0
    composition_upper: float  # S_map(Phi2 Phi1) - that lower bound

    def _gaps(self) -> list:
        return [-self.info_gain, -self.concat_holevo, -self.concat_exchange, -self.composition_sign,
                -self.composition_upper]


def props_check(rho: np.ndarray, phi1: Channel, phi2: Channel) -> PropsReport:
    """The propositions on the measurement ensemble {p_i, rho_i'} of Phi1 at rho.

    Information gain: sum p S(rho_i') <= S(rho). Concatenation: the Holevo quantity
    S(Phi2 Phi1(rho)) - sum p S(Phi2(rho_i')) is at most that of the ensemble itself,
    and at most the exchange entropy of Phi2 Phi1 at rho. Composition: 0 <= lower <=
    S_map(Phi2 Phi1) for lower = MAX{ S(Phi2 Phi1(rho*)) - sum p_i S(Phi2(rho_i)),
    S_map(Phi1) + S(Phi2 Phi1(rho*)) - S(Phi1(rho*)) }, {p_i, rho_i} the ensemble of
    Phi1 at rho* = I/n. Phi2 Phi1 is composed once; Phi1 is measured at rho and at rho*.
    Every entropy, of rho, of the outputs, of the exchange state and of both Choi
    states, comes from one _vn_entropies call.
    """
    composed = phi2.compose(phi1)
    n = phi1.in_dim
    _, probs, outs = _measurement(phi1.kraus, rho)
    _, probs_star, outs_star = _measurement(phi1.kraus, np.eye(n, dtype=complex) / n)
    outs2, outs2_star = phi2.apply(outs), phi2.apply(outs_star)
    (s_in, s_exchange, s_map1, s_map, s_mid, s_avg, s_each, s2_avg, s2_each, out, out_each) = _vn_entropies(
        np.asarray(rho), _measurement(composed.kraus, rho)[0], phi1.choi, composed.choi, outs_star.sum(axis=0),
        outs.sum(axis=0), outs, outs2.sum(axis=0), outs2, outs2_star.sum(axis=0), outs2_star)
    s_each, lhs = float(probs @ s_each), s2_avg - float(probs @ s2_each)
    lower = max(out - float(probs_star @ out_each), s_map1 + out - s_mid)
    return PropsReport(info_gain=s_in - s_each, concat_holevo=s_avg - s_each - lhs,
                       concat_exchange=s_exchange - lhs, composition_sign=lower,
                       composition_upper=s_map - lower)


@dataclass(frozen=True)
class LindbladReport(_Report):
    s_in: float
    s_out: float
    s_exchange: float
    chi: float
    lower_slack: float  # S(sigma) - |S(rho') - S(rho)|
    upper_slack: float  # S(rho') + S(rho) - S(sigma)
    chi_slack: float  # S(sigma) + S(rho') - S(rho) - chi

    def _gaps(self) -> list:
        return [-self.lower_slack, -self.upper_slack, -self.chi_slack]


def lindblad_check(rho: np.ndarray, phi: Channel) -> LindbladReport:
    """Slack report for |S(rho')-S(rho)| <= S(sigma) <= S(rho')+S(rho) and the
    three-state bound chi <= S(sigma) + S(rho') - S(rho). sigma, chi and S(rho') (of
    the kept outputs' sum) come from one channels._measurement, and every entropy,
    S(rho) among them, from one _vn_entropies call, as in theorem1_check."""
    sigma, probs, outs = _measurement(phi.kraus, rho)
    s_ex, s_in, s_out, s_each = _vn_entropies(sigma, np.asarray(rho), outs.sum(axis=0), outs)
    chi = s_out - float(probs @ s_each)
    return LindbladReport(s_in, s_out, s_ex, chi, lower_slack=s_ex - abs(s_out - s_in),
                          upper_slack=s_out + s_in - s_ex, chi_slack=s_ex + s_out - s_in - chi)


def sigma_min_two(rho1: np.ndarray, rho2: np.ndarray, lam: float) -> np.ndarray:
    """Minimal-entropy 2×2 correlation matrix for a two-state ensemble."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    off = math.sqrt(lam * (1.0 - lam)) * root_fidelity(rho1, rho2)
    return np.array([[lam, off], [off, 1.0 - lam]])


def _root_fidelity_matrix(roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(..., k, k) root fidelities of a (..., k, n, n) stack of state square roots,
    and the (..., k-1, n, n) polar factors W_{m,m-1} of sqrt(rho_m) sqrt(rho_{m-1}).

    One matmul and one root_svd call cover the k(k-1)/2 pairs; the neighbour pairs'
    polar factors are the steps of the layered chain.
    """
    k = roots.shape[-3]
    i, j, neighbours, _ = _k_indices(k)
    tr_abs, w = root_svd(matmul(roots[..., j, :, :], roots[..., i, :, :]))
    rf = np.ones(roots.shape[:-3] + (k, k))
    rf[..., i, j] = rf[..., j, i] = np.clip(tr_abs, 0.0, 1.0)
    return rf, w[..., neighbours, :, :]


@functools.cache
def _k_indices(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j of k×k matrices, the positions of the neighbours j = i + 1 among them,
    and the boolean identity: built once per k and shared by every call, never written to."""
    i, j = np.triu_indices(k, 1)
    return i, j, np.flatnonzero(j == i + 1), np.eye(k, dtype=bool)


def _root_probs(probs: np.ndarray) -> np.ndarray:
    """sqrt(p_i p_j) of a (..., k) stack of probability vectors."""
    return np.sqrt(probs[..., :, None] * probs[..., None, :])


def _damped(g: np.ndarray, b: float) -> np.ndarray:
    """g with its off-diagonal entries divided by b."""
    return np.where(_k_indices(g.shape[-1])[3], g, g / b)


def check_b(b: float, dim: int) -> None:
    """Raise ValueError unless b is finite and reaches the damping floor of G/b: sqrt(3) for
    qubits, 2 beyond. An infinite b would print as Infinity, which JSON lacks."""
    min_b = math.sqrt(3.0) if dim == 2 else 2.0
    if not min_b - DOMAIN_EDGE <= b < math.inf:
        raise ValueError(f"b must be finite and at least {min_b} for dimension {dim}")


def fidelity_matrix(e: Ensemble, variant: str = "G", b: float | None = None) -> np.ndarray:
    """Auxiliary k×k matrices bounding the Holevo quantity.

    variant "G": sqrt(p_i p_j) sqrt(F_ij) (the conjectured bound; PSD for k=3,
    possibly indefinite for k>3). "G/b": off-diagonals divided by b (>= 2 in
    general, >= sqrt(3) for qubits). "F-squared": sqrt(p_i p_j) F_ij, a bound
    for qubit or pure-state ensembles. "layered": root fidelities on the
    first off-diagonal, chained products beyond (a true correlation matrix;
    see _layered_matrix for singular states).
    """
    if variant not in ("G", "G/b", "F-squared", "layered"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "G/b":
        if b is None:
            b = 2.0 if e.dim > 2 else math.sqrt(3.0)
        check_b(b, e.dim)
    if variant == "F-squared" and e.dim != 2 and not all(
        np.trace(s @ s).real > 1.0 - NORMALIZATION_TOL for s in e.states
    ):
        raise ValueError("F-squared variant needs qubit or pure ensembles")
    roots = psd_sqrt(e.states)
    rf, steps = _root_fidelity_matrix(roots)
    if variant == "layered":
        return _layered_matrix(e.probs, rf, roots, steps)
    g = _root_probs(e.probs) * (rf**2 if variant == "F-squared" else rf)
    return _damped(g, b) if variant == "G/b" else g


def _layered_matrix(probs: np.ndarray, rf: np.ndarray, roots: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Correlation matrix with root fidelities on the tridiagonal, for (..., k) stacks.

    sigma_ij for j > i+1 is the chained product
    tr sqrt(rho_j rho_{j-1}) rho_{j-1}^{-1} ... rho_{i+1}^{-1} sqrt(rho_{i+1} rho_i),
    using the square-root-of-a-product convention for each factor. With
    sqrt(rho_m rho_{m-1}) = sqrt(rho_m) W_{m,m-1} sqrt(rho_{m-1}) every inverse
    cancels: sigma_ij = sqrt(p_i p_j) tr sqrt(rho_i) sqrt(rho_j) W_{j,j-1} ... W_{i+1,i}.
    roots holds the square roots of the states, steps the det-one polar
    factors W_{m,m-1} of _root_fidelity_matrix. For singular states this is
    the limit along invertible ones wherever each neighbour product
    sqrt(rho_m) sqrt(rho_{m-1}) has a kernel of dimension at most 1. Where a
    kernel has dimension 2 or more (orthogonal pure neighbours, or states of
    rank n-2 or less beyond qubits) the limit can depend on how the states
    are approached, and the det-one value is returned.
    The chain's trace is an einsum: a sum of a stack's diagonals is a slow strided reduction.
    For n <= 3 both add in one order, to the same bytes; for n >= 4 they may differ by ulps.
    """
    k = roots.shape[-3]
    root_p = _root_probs(probs)
    d, u = np.diag_indices(k), np.arange(k - 1)
    sigma = np.zeros(rf.shape, dtype=complex)
    sigma[(...,) + d] = probs
    sigma[..., u, u + 1] = sigma[..., u + 1, u] = root_p[..., u, u + 1] * rf[..., u, u + 1]
    for i in range(k - 2):
        chain = steps[..., i, :, :]
        for j in range(i + 2, k):
            chain = matmul(steps[..., j - 1, :, :], chain)
            ends = matmul(roots[..., i, :, :], roots[..., j, :, :])
            val = root_p[..., i, j] * np.einsum("...ii->...", matmul(ends, chain))
            sigma[..., i, j] = val
            sigma[..., j, i] = np.conj(val)
    return sigma


def hierarchy(e: Ensemble, b: float = math.sqrt(3.0)) -> dict | None:
    """The hierarchy_batch row of a k=3 qubit ensemble as a dict; None if H(P) = chi."""
    cols = hierarchy_batch(e.probs[None], e.states[None], b=b)
    return {name: col[0].item() for name, col in cols.items()} if cols["kept"][0] else None


def _decomposed(probs: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(probs, chi, roots) of (B, k) probabilities and (B, k, n, n) states: the checked
    probabilities, the Holevo quantities and the square roots, from one matfun._psd_root of
    the states (its clipped eigenvalues enter chi) and one spectrum of the average states.
    For qubits both are the closed forms of matfun, with no eigenvector and no LAPACK call.
    """
    probs, states = _clean_probs(probs), np.asarray(states, dtype=complex)
    if probs.ndim != 2 or states.shape != probs.shape + states.shape[-1:] * 2:
        raise ValueError("need (B, k) probabilities and (B, k, n, n) states")
    w, roots = _psd_root(states)
    stack = np.concatenate([spectrum(_average(probs, states))[..., None, :], w], axis=-2)
    s_avg, s_each = _ensemble_vn(probs, stack)
    return probs, s_avg - s_each, roots


def hierarchy_batch(probs: np.ndarray, states: np.ndarray, b: float = math.sqrt(3.0)) -> dict:
    """Normalized bound hierarchy of a stack of k=3 qubit ensembles, as (B,) columns.

    probs has shape (B, 3) and states (B, 3, 2, 2). s_fid, s_fid_b, s_fid_sq and s_layered
    are the entropies of G, G/b, F-squared and the layered matrix, on the scale with chi at
    0 and H(P) at 1. kept is False, and the row's entropies NaN, where H(P) - chi is below
    HIERARCHY_SKIP_GAP. conjecture is kept & not (chi <= S(G) + VIOLATION_SLACK).
    One root_svd of the pair products gives the root fidelities and the polar factors of
    the layered chain, and one spectrum3 of the (B, 4, 3, 3) stack the four matrices'
    spectra: with the closed-form qubit decompositions of _decomposed, a chunk makes no
    LAPACK call. Every row is bit-identical whatever the stack around it.
    """
    if np.shape(probs)[-1:] != (3,) or np.shape(states)[-1:] != (2,):
        raise ValueError("hierarchy is defined for k=3 qubit ensembles")
    check_b(b, 2)
    probs, chi, roots = _decomposed(probs, states)
    h_p = spectrum_entropy(probs)
    rf, steps = _root_fidelity_matrix(roots)
    root_p = _root_probs(probs)
    g = root_p * rf
    aux = np.stack([g, _damped(g, b), root_p * rf**2, _layered_matrix(probs, rf, roots, steps)], axis=1)
    ent = _eigenvalue_entropy(spectrum3(aux))  # (B, 4): S(G), S(G/b), S(F²), S(layered)
    kept = ~(h_p - chi < HIERARCHY_SKIP_GAP)  # a NaN gap keeps its row, so it cannot pass as a skip
    norm = np.where(kept[:, None], (ent - chi[:, None]) / np.where(kept, h_p - chi, 1.0)[:, None], np.nan)
    cols = dict(zip(("s_fid", "s_fid_b", "s_fid_sq", "s_layered"), norm.T))
    return {**cols, "kept": kept, "conjecture": kept & ~(chi <= ent[:, 0] + VIOLATION_SLACK)}


def holevo_mutual_check(e: Ensemble, povm_kraus) -> tuple[float, float, bool]:
    """Holevo theorem: accessible mutual information <= chi (to VIOLATION_SLACK).

    The joint distribution is p(x, y) = p_x tr K^y† K^y rho_x. The Kraus list
    must be a channel: otherwise it raises InvalidChannelError, a ValueError.
    """
    effects = [k.conj().T @ k for k in Channel(povm_kraus).kraus]
    joint = np.array(
        [[p * np.trace(eff @ s).real for eff in effects] for p, s in zip(e.probs, e.states)]
    )
    joint = np.clip(joint, 0.0, None)
    joint /= joint.sum()
    mi = mutual_information_classical(joint)
    chi = holevo(e)
    return mi, chi, mi <= chi + VIOLATION_SLACK


# -- two pure + one mixed qubit geometry --------------------------------------


@dataclass(frozen=True)
class TripleGeometry:
    """Two pure and one mixed qubit state with a prescribed barycenter.

    a is the Bloch length of the average state, b the length of the mixed
    state's Bloch vector, alpha the angle between them, and beta the
    rotation of the pure pair around the axis through their midpoint. The
    named points are Bloch vectors: B the mixed state, C the midpoint of
    the pure pair, D/E the unrotated pure pair, F/G the rotated pair (the
    states actually used).
    """

    a: float
    b: float
    alpha: float
    beta: float
    point_b: np.ndarray
    point_c: np.ndarray
    point_d: np.ndarray
    point_e: np.ndarray
    point_f: np.ndarray
    point_g: np.ndarray

    @property
    def states(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho1 pure, rho2 pure, rho3 mixed)."""
        return from_bloch(self.point_f), from_bloch(self.point_g), from_bloch(self.point_b)

    def ensemble(self) -> Ensemble:
        return Ensemble(np.full(3, 1.0 / 3.0), self.states)

    def pairwise_fidelities(self) -> tuple[float, float, float]:
        """(F12, F13, F23) between the two pure states and the mixed one.

        Uses the exact pure-state form (1 + x·y)/2: the first factor of each
        pair is pure by construction, so the mixed-state correction vanishes
        identically (evaluating sqrt(1 - |x|²) numerically would instead
        contribute a sqrt(machine epsilon) error).
        """
        f, g, bb = self.point_f, self.point_g, self.point_b
        return (
            0.5 * (1.0 + float(f @ g)),
            0.5 * (1.0 + float(f @ bb)),
            0.5 * (1.0 + float(g @ bb)),
        )


def _rotation_about(axis: np.ndarray, beta: float) -> np.ndarray:
    # Rodrigues formula
    k = axis / np.linalg.norm(axis)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(beta) * kx + (1 - math.cos(beta)) * (kx @ kx)


def triple_from_params(a: float, b: float, alpha: float, beta: float) -> TripleGeometry:
    """Construct the two-pure-one-mixed triple with average Bloch vector a(0,0,1).

    The mixed state sits at OB = b(0, sin alpha, cos alpha); the midpoint of
    the pure pair is OC = (3 OA - OB)/2, the pure states make the angle
    gamma = arccos |OC| with OC, and beta rotates them around OC.
    """
    if not (0.0 <= alpha <= math.pi and 0.0 <= beta <= math.pi):
        raise ValueError("angles must lie in [0, pi]")
    if not (0.0 <= b <= 1.0):
        raise ValueError("b must lie in [0, 1]")
    oc_len = 0.5 * math.sqrt(9 * a * a - 6 * a * b * math.cos(alpha) + b * b)
    if oc_len > 1.0 + DOMAIN_EDGE:
        raise ValueError(f"|OC| = {oc_len:.6f} exceeds 1: no pure pair exists")
    oa = np.array([0.0, 0.0, a])
    ob = b * np.array([0.0, math.sin(alpha), math.cos(alpha)])
    oc = 0.5 * (3 * oa - ob)
    oc_len = min(oc_len, 1.0)
    if oc_len > BLOCH_NULL_LENGTH:
        c_hat = oc / np.linalg.norm(oc)
    else:
        c_hat = np.array([0.0, 0.0, 1.0])
    # unit vector orthogonal to c_hat in the y-z plane (the plane of OA, OB)
    u0 = np.array([0.0, c_hat[2], -c_hat[1]])
    if np.linalg.norm(u0) < BLOCH_NULL_LENGTH:
        u0 = np.array([0.0, 1.0, 0.0])
    u0 /= np.linalg.norm(u0)
    # cos(gamma) = |OC| directly, avoiding an acos/cos round trip
    cos_g = oc_len
    sin_g = math.sqrt(max(1.0 - oc_len * oc_len, 0.0))
    od = cos_g * c_hat + sin_g * u0
    oe = cos_g * c_hat - sin_g * u0
    rot = _rotation_about(c_hat, beta)
    of, og = rot @ od, rot @ oe
    return TripleGeometry(
        a=a, b=b, alpha=alpha, beta=beta,
        point_b=ob, point_c=oc, point_d=od, point_e=oe, point_f=of, point_g=og,
    )


def fidelity_sum_identity(triple: TripleGeometry) -> float:
    """|F12 + F13 + F23 - (9 tr rhobar² - tr rho3² - 2)/2| for the triple."""
    f12, f13, f23 = triple.pairwise_fidelities()
    tr_bar = 0.5 * (1.0 + triple.a**2)
    tr_mixed = 0.5 * (1.0 + triple.b**2)
    return abs(f12 + f13 + f23 - 0.5 * (9 * tr_bar - tr_mixed - 2.0))


def symmetric_triple_eigenvalues(f12: float, f13: float, f23: float) -> np.ndarray:
    """Ascending eigenvalues of the uniform-probability root-fidelity matrix, with
    sqrt(F_ij)/3 off the diagonal and 1/3 on it, by matfun.spectrum3."""
    r12, r13, r23 = np.sqrt(np.maximum([f12, f13, f23], 0.0))
    return spectrum3(np.array([[1.0, r12, r13], [r12, 1.0, r23], [r13, r23, 1.0]]) / 3.0)


def symmetric_triple_check(f: float, b: float) -> tuple[float, float, bool]:
    """Two-pure-one-mixed bound chi <= S(G) (to VIOLATION_SLACK) on the symmetric
    (beta = alpha = 0) family.

    G has off-corner |2F - 1|/b; at b = 0 (within DOMAIN_EDGE) the entry is
    defined by the limit (F must equal 1/2 there). Returns (chi, s_G, ok), each entropy
    from a spectrum in closed form: G's, and the (1 ± a)/2 and (1 ± b)/2 of chi's states.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must lie in [0, 1]")
    if not 0.5 * (1 - b) - DOMAIN_EDGE <= f <= 0.5 * (1 + b) + DOMAIN_EDGE:
        raise ValueError(f"F = {f} outside [{(1-b)/2}, {(1+b)/2}]")
    if b <= DOMAIN_EDGE:
        if abs(2 * f - 1.0) > DOMAIN_EDGE:
            raise ValueError("b = 0 requires F = 1/2")
        corner = 0.0
    else:
        corner = abs(2 * f - 1.0) / b
    # G's eigenvalues: (1 - c)/3 on (1, 0, -1), and (2 + c ± sqrt(c² + 8F))/6, the lower as their product over far
    far = (2.0 + corner + math.sqrt(corner * corner + 8.0 * f)) / 6.0
    s_g = _eigenvalue_entropy(np.array([(1.0 - corner) / 3.0, far, (1.0 + corner - 2.0 * f) / 9.0 / far]))
    a = (b + 2 * (2 * f - 1.0) / b) / 3.0 if b > DOMAIN_EDGE else 0.0
    a = min(abs(a), 1.0)
    chi = spectrum_entropy([(1 + a) / 2, (1 - a) / 2]) - spectrum_entropy([(1 + b) / 2, (1 - b) / 2]) / 3.0
    return chi, s_g, chi <= s_g + VIOLATION_SLACK


# -- the root-fidelity conjecture -----------------------------------------------


# The root-fidelity matrix G is PSD for up to three states; for more it can be
# indefinite (find_indefinite_gram), and then S(G) is not an entropy.
CONJECTURE_MAX_K = 3


def conjecture_excess(probs: np.ndarray, states: np.ndarray) -> np.ndarray:
    """chi - S(G) of each ensemble of a stack: (B, k) probabilities, k <= CONJECTURE_MAX_K,
    and (B, k, n, n) states. Row t is holevo(e) - vn_entropy(fidelity_matrix(e, "G"))."""
    probs, chi, roots = _decomposed(probs, states)
    if probs.shape[1] > CONJECTURE_MAX_K:
        raise ValueError(f"the conjecture is stated for k <= {CONJECTURE_MAX_K} states, got {probs.shape[1]}")
    return chi - vn_entropy(_root_probs(probs) * _root_fidelity_matrix(roots)[0])


def find_indefinite_gram(
    k: int = 4, trials: int = 1000, seed: int = 0, dim: int = 3
) -> tuple[np.ndarray, float] | None:
    """Search random pure ensembles for an indefinite root-fidelity matrix.

    Returns (matrix, min eigenvalue) of the first instance with an
    eigenvalue below -PSD_TOL, or None.
    """
    for t in range(trials):
        rng = stream_rng(seed, t)
        states = [pure_state(random_pure_state(dim, rng)) for _ in range(k)]
        e = Ensemble(np.full(k, 1.0 / k), states)
        g = fidelity_matrix(e, "G")
        min_eig = float(spectrum(g).min())
        if min_eig < -PSD_TOL:
            return g, min_eig
    return None
