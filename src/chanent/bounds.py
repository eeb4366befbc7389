"""Holevo quantity and its upper/lower bounds: correlation, Gram, fidelity and
layered matrices, Lindblad-style comparisons, the estimation hierarchy, and the
two-pure-one-mixed qubit geometry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, correlation_from_kraus, ensemble_from_channel
from .entropy import (
    EntropyOrder,
    VON_NEUMANN,
    _clean_probs,
    relative_entropy,
    shannon,
    spectrum_entropy,
    vn_entropy,
)
from .matfun import _regularized, _sqrt_product, from_eigh, hermitize, psd_eigh, psd_power, psd_sqrt
from .states import assert_state, from_bloch, root_fidelity
from .tolerances import (BLOCH_NULL_LENGTH, DOMAIN_EDGE, HIERARCHY_SKIP_GAP, NORMALIZATION_TOL,
                         PSD_TOL, VIOLATION_SLACK)

__all__ = [
    "Ensemble",
    "BoundReport",
    "TripleGeometry",
    "holevo",
    "correlation_matrix",
    "correlation_from_ensemble",
    "theorem1_check",
    "info_gain_check",
    "concat_bound_check",
    "composition_map_entropy_lower",
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
    "find_indefinite_gram",
]


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
        return sum(p * s for p, s in zip(self.probs, self.states))

    def validate(self) -> "Ensemble":
        for s in self.states:
            assert_state(s)
        return self


def holevo(e: Ensemble, order: EntropyOrder = VON_NEUMANN) -> float:
    """Holevo quantity of an ensemble.

    von Neumann: S(sum p rho) - sum p S(rho). Tsallis order a: the average
    relative Tsallis entropy to the mean. Rényi order q: the printed form
    log tr (sum p rho^q)^{1/q} / (q - 1).
    """
    if order.is_limit:
        return float(_holevo_vn(e.probs, e.states))
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


def _holevo_vn(probs: np.ndarray, states: np.ndarray) -> np.ndarray:
    """S(sum p rho) - sum p S(rho) over (..., k) stacks, with one stacked eigvalsh."""
    avg = sum(probs[..., i, None, None] * states[..., i, :, :] for i in range(probs.shape[-1]))
    ent = vn_entropy(np.concatenate([avg[..., None, :, :], states], axis=-3))
    return ent[..., 0] - (probs * ent[..., 1:]).sum(axis=-1)


def _as_channel(phi) -> Channel:
    """phi itself if it is a Channel, else its Kraus list validated as one."""
    return phi if isinstance(phi, Channel) else Channel(phi)


def correlation_matrix(rho: np.ndarray, kraus) -> np.ndarray:
    """Correlation matrix sigma_ij = tr K^i rho K^j† of a POVM acting on rho.

    The Kraus list must be a channel: otherwise it raises InvalidChannelError,
    a ValueError.
    """
    return correlation_from_kraus(Channel(kraus).kraus, rho)


def correlation_from_ensemble(e: Ensemble, unitaries) -> np.ndarray:
    """Gram-type correlation matrix sqrt(p_i p_j) tr sqrt(rho_i) sqrt(rho_j) U_j† U_i."""
    us = np.array(unitaries, dtype=complex)
    if len(us) != len(e):
        raise ValueError("need one unitary per state")
    return _purification_gram(e.probs, psd_sqrt(e.states), us)


def _purification_gram(probs: np.ndarray, roots: np.ndarray, us: np.ndarray) -> np.ndarray:
    """correlation_from_ensemble over (..., k) stacks, given the states' square roots."""
    products = (roots[..., :, None, :, :] @ roots[..., None, :, :, :]
                @ us.conj().swapaxes(-1, -2)[..., None, :, :, :] @ us[..., :, None, :, :])
    return hermitize(_root_probs(probs) * np.trace(products, axis1=-2, axis2=-1))


def theorem1_check(rho: np.ndarray, phi) -> tuple[float, float, float, bool]:
    """The chain chi <= S(sigma) <= H(P) for a measurement ensemble, to VIOLATION_SLACK.

    phi is a Channel or a Kraus list; a list is validated as one Channel.
    Returns (chi, s_sigma, h_p, ok).
    """
    phi = _as_channel(phi)
    sigma = correlation_from_kraus(phi.kraus, rho)
    chi = holevo(ensemble_from_channel(phi, rho))
    s_sigma = vn_entropy(sigma)
    h_p = shannon(np.diag(sigma).real / np.trace(sigma).real)
    ok = chi <= s_sigma + VIOLATION_SLACK and s_sigma <= h_p + VIOLATION_SLACK
    return chi, s_sigma, h_p, ok


def info_gain_check(rho: np.ndarray, phi) -> bool:
    """Average output entropy does not exceed the input entropy (to VIOLATION_SLACK).

    phi is a Channel or a Kraus list; a list is validated as one Channel.
    """
    e = ensemble_from_channel(_as_channel(phi), rho)
    avg = sum(p * vn_entropy(s) for p, s in zip(e.probs, e.states))
    return avg <= vn_entropy(rho) + VIOLATION_SLACK


def concat_bound_check(phi1: Channel, phi2: Channel, rho: np.ndarray) -> tuple[bool, bool]:
    """Both concatenation bounds for the Holevo quantity of a two-step process, to VIOLATION_SLACK.

    First: S(Phi2 Phi1(rho)) - sum p S(Phi2(rho_i)) <= S(Phi1(rho)) - sum p S(rho_i).
    Second: the same left side is bounded by the exchange entropy of the
    composed channel at rho. Returns (first_ok, second_ok).
    """
    e = ensemble_from_channel(phi1, rho)
    lhs = vn_entropy(phi2.apply(phi1.apply(rho))) - sum(
        p * vn_entropy(phi2.apply(s)) for p, s in zip(e.probs, e.states)
    )
    rhs1 = vn_entropy(phi1.apply(rho)) - sum(
        p * vn_entropy(s) for p, s in zip(e.probs, e.states)
    )
    composed = phi2.compose(phi1)
    sigma_ii = vn_entropy(correlation_from_kraus(composed.kraus, rho))
    return lhs <= rhs1 + VIOLATION_SLACK, lhs <= sigma_ii + VIOLATION_SLACK


def composition_map_entropy_lower(phi1: Channel, phi2: Channel) -> float:
    """Lower bound on the map entropy of phi2∘phi1 (always nonnegative).

    MAX{ S(Phi2 Phi1(rho*)) - sum p_i S(Phi2(rho_i)),  S_map(Phi1) + Delta }
    with rho* maximally mixed and Delta = S(Phi2 Phi1(rho*)) - S(Phi1(rho*)).
    """
    from .channels import map_entropy

    n = phi1.in_dim
    rho_star = np.eye(n, dtype=complex) / n
    e = ensemble_from_channel(phi1, rho_star)
    out = vn_entropy(phi2.apply(phi1.apply(rho_star)))
    first = out - sum(p * vn_entropy(phi2.apply(s)) for p, s in zip(e.probs, e.states))
    delta = out - vn_entropy(phi1.apply(rho_star))
    return max(first, map_entropy(phi1) + delta)


@dataclass(frozen=True)
class LindbladReport:
    s_in: float
    s_out: float
    s_exchange: float
    chi: float
    lower_slack: float  # S(sigma) - |S(rho') - S(rho)|
    upper_slack: float  # S(rho') + S(rho) - S(sigma)
    chi_slack: float  # S(sigma) + S(rho') - S(rho) - chi

    @property
    def ok(self) -> bool:
        return min(self.lower_slack, self.upper_slack, self.chi_slack) >= -VIOLATION_SLACK


def lindblad_check(rho: np.ndarray, phi: Channel) -> LindbladReport:
    """Slack report for |S(rho')-S(rho)| <= S(sigma) <= S(rho')+S(rho) and the
    three-state bound chi <= S(sigma) + S(rho') - S(rho)."""
    from .channels import exchange_entropy

    s_in = vn_entropy(rho)
    s_out = vn_entropy(phi.apply(rho))
    s_ex = exchange_entropy(phi, rho)
    chi = holevo(ensemble_from_channel(phi, rho))
    return LindbladReport(
        s_in=s_in,
        s_out=s_out,
        s_exchange=s_ex,
        chi=chi,
        lower_slack=s_ex - abs(s_out - s_in),
        upper_slack=s_out + s_in - s_ex,
        chi_slack=s_ex + s_out - s_in - chi,
    )


def sigma_min_two(rho1: np.ndarray, rho2: np.ndarray, lam: float) -> np.ndarray:
    """Minimal-entropy 2×2 correlation matrix for a two-state ensemble."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    off = math.sqrt(lam * (1.0 - lam)) * root_fidelity(rho1, rho2)
    return np.array([[lam, off], [off, 1.0 - lam]])


def _root_fidelity_matrix(states: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """(..., k, k) root fidelities of a (..., k, n, n) stack of states, given their square roots.

    One stacked root_fidelity call covers the k(k-1)/2 pairs.
    """
    k = states.shape[-3]
    i, j = np.triu_indices(k, 1)
    rf = np.ones(states.shape[:-3] + (k, k))
    rf[..., i, j] = rf[..., j, i] = root_fidelity(
        states[..., i, :, :], states[..., j, :, :], sqrt_rho1=roots[..., i, :, :]
    )
    return rf


def _root_probs(probs: np.ndarray) -> np.ndarray:
    """sqrt(p_i p_j) of a (..., k) stack of probability vectors."""
    return np.sqrt(probs[..., :, None] * probs[..., None, :])


def _damped(g: np.ndarray, b: float) -> np.ndarray:
    """g with its off-diagonal entries divided by b."""
    return np.where(np.eye(g.shape[-1], dtype=bool), g, g / b)


def check_b(b: float, dim: int) -> None:
    """Raise ValueError unless b reaches the damping floor of G/b: sqrt(3) for qubits, 2 beyond."""
    min_b = math.sqrt(3.0) if dim == 2 else 2.0
    if not b >= min_b - DOMAIN_EDGE:
        raise ValueError(f"b must be at least {min_b} for dimension {dim}")


def fidelity_matrix(e: Ensemble, variant: str = "G", b: float | None = None) -> np.ndarray:
    """Auxiliary k×k matrices bounding the Holevo quantity.

    variant "G": sqrt(p_i p_j) sqrt(F_ij) (the conjectured bound; PSD for k=3,
    possibly indefinite for k>3). "G/b": off-diagonals divided by b (>= 2 in
    general, >= sqrt(3) for qubits). "F-squared": sqrt(p_i p_j) F_ij, a bound
    for qubit or pure-state ensembles. "layered": root fidelities on the
    first off-diagonal, chained products beyond (a true correlation matrix,
    needs invertible states; singular ones are regularized).
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
    w, v = psd_eigh(e.states)
    rf = _root_fidelity_matrix(e.states, from_eigh(np.sqrt(w), v))
    if variant == "layered":
        return _layered_matrix(e.probs, rf, w, v)
    g = _root_probs(e.probs) * (rf**2 if variant == "F-squared" else rf)
    return _damped(g, b) if variant == "G/b" else g


def _layered_matrix(probs: np.ndarray, rf: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Correlation matrix with root fidelities on the tridiagonal, for (..., k) stacks.

    sigma_ij for j > i+1 is the chained product
    tr sqrt(rho_j rho_{j-1}) rho_{j-1}^{-1} ... rho_{i+1}^{-1} sqrt(rho_{i+1} rho_i),
    using the square-root-of-a-product convention for each factor. (w, v) is
    the psd_eigh decomposition of the states; the chain reads it with
    singular spectra regularized, and rf holds the root fidelities of the
    states as given.
    """
    k = w.shape[-2]
    root_p = _root_probs(probs)
    d, u = np.diag_indices(k), np.arange(k - 1)
    sigma = np.zeros(rf.shape, dtype=complex)
    sigma[(...,) + d] = probs
    sigma[..., u, u + 1] = sigma[..., u + 1, u] = root_p[..., u, u + 1] * rf[..., u, u + 1]
    if k > 2:
        w = _regularized(w)[0]
        rho = from_eigh(w, v)
        # steps[..., m-1] = sqrt(rho_m rho_{m-1}); invs[..., m-1] = rho_m^{-1}
        steps = _sqrt_product(w[..., 1:, :], v[..., 1:, :, :], rho[..., :-1, :, :])
        invs = from_eigh(1.0 / w[..., 1:-1, :], v[..., 1:-1, :, :])
        for i in range(k):
            for j in range(i + 2, k):
                chain = steps[..., j - 1, :, :]
                for m in range(j - 1, i, -1):
                    chain = chain @ invs[..., m - 1, :, :] @ steps[..., m - 1, :, :]
                val = root_p[..., i, j] * np.trace(chain, axis1=-2, axis2=-1)
                sigma[..., i, j] = val
                sigma[..., j, i] = np.conj(val)
    return hermitize(sigma)


@dataclass
class BoundReport:
    """Named entropies/bounds for one ensemble, in nats.

    On the normalized scale ((x - chi)/(H(P) - chi)) chi maps to 0 and h_p
    to 1; `normalized` records which scale the numbers are on.
    """

    chi: float
    s_sigma: float
    s_gram: float
    s_fid: float
    s_fid_b: float
    s_fid_sq: float
    s_layered: float
    h_p: float
    normalized: bool = False
    violations: dict = field(default_factory=dict)

    _JSON_FIELDS = ("chi", "s_sigma", "s_gram", "s_fid", "s_fid_b", "s_fid_sq", "s_layered", "h_p")

    def to_json(self) -> str:
        data = {name: getattr(self, name) for name in self._JSON_FIELDS}
        data["normalized"] = self.normalized
        return json.dumps(data)


def hierarchy(e: Ensemble, b: float = math.sqrt(3.0)) -> BoundReport | None:
    """Normalized bound report for a k=3 qubit ensemble; None if H(P) = chi.

    The batch-of-one case of hierarchy_batch.
    """
    return hierarchy_batch(e.probs[None], e.states[None], b=b)[0]


def hierarchy_batch(
    probs: np.ndarray, states: np.ndarray, b: float = math.sqrt(3.0)
) -> list[BoundReport | None]:
    """Normalized bound reports for a stack of k=3 qubit ensembles.

    probs has shape (B, 3) and states (B, 3, 2, 2). Each ensemble's report
    is on the scale with chi at 0 and H(P) at 1, or None if H(P) - chi is
    below HIERARCHY_SKIP_GAP; violations["conjecture"] is chi > S(G) +
    VIOLATION_SLACK. s_sigma and s_gram both refer to the canonical
    purification Gram matrix (identity unitaries). Each state is decomposed
    once (psd_eigh): its square root, its regularized square root, inverse
    square root and inverse for the layered chain all read that one
    decomposition. The root-fidelity matrix is computed once per ensemble,
    and the entropies of all five auxiliary matrices come from one stacked
    eigvalsh. Every report is bit-identical whatever the stack around it.
    """
    probs = np.asarray(probs, dtype=float)
    states = np.asarray(states, dtype=complex)
    if probs.ndim != 2 or probs.shape[1] != 3 or states.shape != probs.shape + (2, 2):
        raise ValueError("hierarchy is defined for k=3 qubit ensembles")
    check_b(b, 2)
    probs = _clean_probs(probs)
    chi = _holevo_vn(probs, states)
    h_p = spectrum_entropy(probs)
    w, v = psd_eigh(states)
    roots = from_eigh(np.sqrt(w), v)
    rf = _root_fidelity_matrix(states, roots)
    root_p = _root_probs(probs)
    g = root_p * rf
    aux = np.stack([
        _purification_gram(probs, roots, np.broadcast_to(np.eye(2), states.shape)),
        g, _damped(g, b), root_p * rf**2, _layered_matrix(probs, rf, w, v),
    ], axis=1)
    ent = vn_entropy(aux)  # (B, 5): S(Gram), S(G), S(G/b), S(F²), S(layered)
    kept = ~(h_p - chi < HIERARCHY_SKIP_GAP)  # a NaN gap keeps its row, so it cannot pass as a skip
    norm = (ent - chi[:, None]) / np.where(kept, h_p - chi, 1.0)[:, None]
    conjecture = chi > ent[:, 1] + VIOLATION_SLACK
    return [
        BoundReport(chi=0.0, s_sigma=gram, s_gram=gram, s_fid=fid, s_fid_b=fid_b,
                    s_fid_sq=fid_sq, s_layered=layered, h_p=1.0, normalized=True,
                    violations={"conjecture": conj})
        if keep else None
        for keep, conj, (gram, fid, fid_b, fid_sq, layered)
        in zip(kept.tolist(), conjecture.tolist(), norm.tolist())
    ]


def holevo_mutual_check(e: Ensemble, povm_kraus) -> tuple[float, float, bool]:
    """Holevo theorem: accessible mutual information <= chi (to VIOLATION_SLACK).

    The joint distribution is p(x, y) = p_x tr K^y† K^y rho_x. The Kraus list
    must be a channel: otherwise it raises InvalidChannelError, a ValueError.
    """
    from .entropy import mutual_information_classical

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
    rot = _rotation_about(c_hat if oc_len > BLOCH_NULL_LENGTH else np.array([0.0, 0.0, 1.0]), beta)
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
    """Closed-form eigenvalues of the uniform-probability root-fidelity matrix.

    Roots of (1/3 - x)³ + p (1/3 - x) + q with p = -(F12+F13+F23)/9 and
    q = 2 sqrt(F12 F13 F23)/27, by the trigonometric cubic formula.
    """
    p = -(f12 + f13 + f23) / 9.0
    q = 2.0 * math.sqrt(max(f12 * f13 * f23, 0.0)) / 27.0
    if p >= 0.0:  # all fidelities zero: matrix is I/3
        return np.full(3, 1.0 / 3.0)
    amp = 2.0 * math.sqrt(-p / 3.0)
    arg = (3.0 * q / (2.0 * p)) * math.sqrt(3.0 / -p)
    theta = math.acos(min(max(arg, -1.0), 1.0)) / 3.0
    lams = [1.0 / 3.0 - amp * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
    return np.sort(lams)


def symmetric_triple_check(f: float, b: float) -> tuple[float, float, bool]:
    """Two-pure-one-mixed bound chi <= S(G) (to VIOLATION_SLACK) on the symmetric
    (beta = alpha = 0) family.

    G has off-corner |2F - 1|/b; at b = 0 (within DOMAIN_EDGE) the entry is
    defined by the limit (F must equal 1/2 there). Returns (chi, s_G, ok).
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
    g = np.array([[1.0, math.sqrt(f), corner], [math.sqrt(f), 1.0, math.sqrt(f)], [corner, math.sqrt(f), 1.0]]) / 3.0
    s_g = vn_entropy(g)
    a = (b + 2 * (2 * f - 1.0) / b) / 3.0 if b > DOMAIN_EDGE else 0.0
    a = min(abs(a), 1.0)
    chi = vn_entropy(np.diag([(1 + a) / 2, (1 - a) / 2])) - vn_entropy(
        np.diag([(1 + b) / 2, (1 - b) / 2])
    ) / 3.0
    return chi, s_g, chi <= s_g + VIOLATION_SLACK


# -- the root-fidelity conjecture -----------------------------------------------


# The root-fidelity matrix G is PSD for up to three states; for more it can be
# indefinite (find_indefinite_gram), and then S(G) is not an entropy.
CONJECTURE_MAX_K = 3


def find_indefinite_gram(
    k: int = 4, trials: int = 1000, seed: int = 0, dim: int = 3
) -> tuple[np.ndarray, float] | None:
    """Search random pure ensembles for an indefinite root-fidelity matrix.

    Returns (matrix, min eigenvalue) of the first instance with an
    eigenvalue below -PSD_TOL, or None.
    """
    from .sampling import random_pure_state, stream_rng
    from .states import pure_state

    for t in range(trials):
        rng = stream_rng(seed, t)
        states = [pure_state(random_pure_state(dim, rng)) for _ in range(k)]
        e = Ensemble(np.full(k, 1.0 / k), states)
        g = fidelity_matrix(e, "G")
        min_eig = float(np.linalg.eigvalsh(g).min())
        if min_eig < -PSD_TOL:
            return g, min_eig
    return None
