"""One-qubit channel families and the (map entropy, minimal output entropy) plane.

Pauli channels and their (map entropy, minimal output entropy) points in
closed form, for a whole stack of weight vectors at once (`pauli_points`),
depolarizing channels and the closed relation between their Rényi-2
entropies, the minimal output entropy and the maximal output norm (both
exact on qubits, one fixed-point iteration beyond), the subadditive
sandwich, the additivity-region predicate, and the transformations
preserving the minimal output entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _Report
from .channels import Channel, map_entropy
from .entropy import EntropyOrder, VON_NEUMANN, _clean_probs, _eigenvalue_entropy, spectrum_entropy, vn_entropy
from .matfun import NonFiniteError, _padded_spectrum, eigh
from .sampling import random_pure_state, stream_rng
from .states import PAULI, from_bloch
from .tolerances import DOMAIN_EDGE, NELDER_MEAD_FATOL, NELDER_MEAD_XATOL, NULL_VECTOR_NORM, SUPPORT_CUTOFF

__all__ = [
    "pauli_channel",
    "tetrahedron_edges",
    "depolarizing",
    "smin_from_smap",
    "min_output_entropy",
    "pauli_points",
    "pauli_edge_curves",
    "SandwichReport",
    "sandwich_check",
    "renyi2_lower",
    "additivity_region",
    "preserve_smin",
    "max_output_2norm",
]

_SIGMA = (np.eye(2, dtype=complex),) + PAULI


def pauli_channel(p) -> Channel:
    """Bistochastic qubit channel sum p_i sigma_i rho sigma_i."""
    if np.shape(p) != (4,):
        raise ValueError("need 4 weights")
    kraus = [math.sqrt(w) * s for w, s in zip(_clean_probs(p), _SIGMA) if w > 0]
    return Channel(kraus)


def tetrahedron_edges() -> dict:
    """Parametrized weight families along the asymmetric-tetrahedron edges.

    Vertices A = (1,0,0,0), B = (1/2,1/2,0,0), C = (1/3,1/3,1/3,0),
    D = (1/4,1/4,1/4,1/4). AB are dephasing channels, BD classical
    bistochastic maps, AD and CD depolarizing families. Each entry maps
    t in [0, 1] to a weight vector, and a column of m values of t to an
    (m, 4) stack.
    """
    verts = {
        "A": np.array([1.0, 0.0, 0.0, 0.0]),
        "B": np.array([0.5, 0.5, 0.0, 0.0]),
        "C": np.array([1 / 3, 1 / 3, 1 / 3, 0.0]),
        "D": np.array([0.25, 0.25, 0.25, 0.25]),
    }

    def edge(u, v):
        return lambda t: (1.0 - t) * verts[u] + t * verts[v]

    return {"AB": edge("A", "B"), "BD": edge("B", "D"), "AD": edge("A", "D"), "CD": edge("C", "D")}


def depolarizing(n: int, s: float) -> Channel:
    """Channel rho -> (1-s) rho + s I/n."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    kraus = [math.sqrt(1.0 - s) * np.eye(n, dtype=complex)] if s < 1.0 else []
    if s > 0.0:  # sqrt(s/n) times each matrix unit e_i e_j†, row-major
        kraus += list(math.sqrt(s / n) * np.eye(n * n, dtype=complex).reshape(n * n, n, n))
    return Channel(kraus)


def smin_from_smap(s_map: float, n: int) -> float:
    """Minimal output Rényi-2 entropy of the depolarizing channel with map entropy s_map.

    -log((1 + n exp(-s_map))/(n + 1)): increases from 0 at s_map = 0 to
    log n at s_map = 2 log n.
    """
    if not -DOMAIN_EDGE <= s_map <= 2.0 * math.log(n) + DOMAIN_EDGE:
        raise ValueError(f"s_map = {s_map} outside [0, {2 * math.log(n)}]")
    return -math.log((1.0 + n * math.exp(-s_map)) / (n + 1.0))


# -- exact qubit minimizer ----------------------------------------------------


# Pauli basis (I, X, Y, Z) as the columns of a 4x4 matrix, vectorized row-major
# like the superoperator, so that P† S P / 2 is the Pauli transfer matrix.
_PAULI_COLUMNS = np.stack([s.reshape(-1) for s in _SIGMA], axis=1)
_PAULI_ROWS = _PAULI_COLUMNS.conj().T


def _bloch_affine(phi: Channel) -> tuple[np.ndarray, np.ndarray]:
    """(W, kappa) with Bloch_out = W Bloch_in + kappa for a qubit channel.

    Both are read off the Pauli transfer matrix T_ij = tr(sigma_i Phi(sigma_j))/2:
    W is its lower right 3x3 block and kappa the rest of its first column.
    """
    t = (_PAULI_ROWS @ phi.superoperator @ _PAULI_COLUMNS).real / 2.0
    return t[1:, 1:], t[1:, 0]


def _max_bloch_direction(w: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Unit vector r maximizing |W r + kappa| (a trust-region subproblem).

    With A = WᵀW = Q diag(a) Qᵀ (a_1 >= a_2 >= a_3) and c = Qᵀ Wᵀ kappa, the
    global maximizer is Q y with y_i = c_i/(mu + d_i), d_i = a_1 - a_i >= 0,
    where mu >= 0 solves the secular equation sum c_i²/(mu + d_i)² = 1
    (Moré & Sorensen 1983). Shifting by a_1 keeps the pole at mu = 0 free of
    cancellation. The root lies in [|c_top|, |c|], c_top being c on the top
    eigenspace. When c_top = 0 there is no pole; the lower end becomes
    d_min (sqrt(sum c_i²/d_i²) - 1), and if that is not positive (the hard
    case) mu = 0 and the weight left over goes on a top eigenvector.

    Past the one eigendecomposition the work is on three numbers, so it runs
    on Python floats, where NumPy would pay its per-call cost on each step.
    """
    a, q = eigh(w.T @ w)
    a, q = a[::-1], q[:, ::-1]
    c = (q.T @ (w.T @ kappa)).tolist()
    d = (a[0] - a).tolist()
    live = [i for i in range(3) if c[i] != 0.0]  # the terms of the secular equation; all others are zero
    c_live, d_live = [c[i] for i in live], [d[i] for i in live]
    lo, hi = math.hypot(*[ci for ci, di in zip(c, d) if di == 0.0]), math.hypot(*c)
    hard = False
    if lo == 0.0:
        # sum c²/(mu + d)² >= weight (d_min/(mu + d_min))², which is >= 1 up to the new lo
        y = [ci / di if ci != 0.0 else 0.0 for ci, di in zip(c, d)]
        weight = y[0] * y[0] + y[1] * y[1] + y[2] * y[2]
        lo = min(d_live, default=math.inf) * (math.sqrt(weight) - 1.0)
        hard = not lo > 0.0
        if hard:
            y[0] = math.sqrt(max(1.0 - weight, 0.0))
    if not hard:
        mu = _secular_root(c_live, d_live, lo, hi)
        y = [ci / (mu + di) for ci, di in zip(c, d)]
    # normalized after the rotation, so that q's rounding cannot lengthen r: a longer r
    # would read |W r + kappa| above the maximum
    r = q @ y
    return r / math.hypot(*r.tolist())


_EPS = float(np.finfo(float).eps)


def _secular_root(c: list, d: list, lo: float, hi: float) -> float:
    """The root mu in [lo, hi] of psi(mu) = 1/|y(mu)| - 1, y_i = c_i/(mu + d_i), by Newton from lo.

    All d_i >= 0 and lo > 0, so psi is concave and increasing on [lo, hi]
    (Moré & Sorensen 1983) and psi(lo) <= 0. Each Newton step then lands
    left of the root, and mu rises monotonically without a bracketing
    safeguard: the iteration stops once a step no longer raises mu by more
    than 2 eps relative, or mu has reached hi. psi is nearly linear in mu,
    so a root next to a tiny c_top is found to full relative precision.
    """
    mu = lo
    while True:
        y = [ci / (mu + di) for ci, di in zip(c, d)]
        norm2 = math.fsum(yi * yi for yi in y)
        # the Newton step over mu, -psi/(mu psi') = |y|²(|y| - 1)/sum y_i² mu/(mu + d_i),
        # whose terms stay below |y|² however small mu is
        rel = norm2 * (math.sqrt(norm2) - 1.0) / math.fsum(yi * yi * (mu / (mu + di)) for yi, di in zip(y, d))
        if not math.isfinite(rel):
            raise NonFiniteError(f"secular equation is not finite at mu = {mu!r}")
        if not rel > 2.0 * _EPS or mu == hi:
            return mu
        mu = min(mu + mu * rel, hi)


def _max_bloch_radius(phi: Channel) -> tuple[float, np.ndarray]:
    """Largest output Bloch radius of a qubit channel (at most 1) and the input Bloch vector reaching it."""
    w, kappa = _bloch_affine(phi)
    r = _max_bloch_direction(w, kappa)
    v = w @ r + kappa
    return min(math.sqrt(v @ v), 1.0), r


# -- output extrema: one fixed-point iteration ----------------------------------

# Haar-random starts beside the n basis vectors. From the basis alone the
# seesaw missed the maximum by up to 0.083 on 200 random and Davies ⊗ random
# channels; with 2 seeded starts by at most 3e-14, with 4 not at all.
SEESAW_STARTS = 8
# A step that lifts no start by more than this is rounding: the iteration has converged.
SEESAW_TOL = 1e-15
# Converged runs take tens of steps; the cap only bounds the loop.
SEESAW_MAX_STEPS = 500
# Multiples of each move tried beyond the plain step (0), in one stacked evaluation.
# Where the value is flat to fourth order at the optimum (a qubit channel next to
# the hard case of `_max_bloch_direction`), the plain move shrinks like the cube of
# the distance left and stopped 1.4e-7 short after 1000 steps; long multiples cross it.
_STRETCH = np.concatenate([[0.0], 8.0 ** np.arange(10)])


def _gram_eigh(vecs: np.ndarray, flat: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of sum a a†, a the dim-blocks of all r rows of vecs @ flat, vecs (..., r, d)."""
    a = (vecs @ flat).reshape(*vecs.shape[:-2], -1, dim)
    return eigh(np.swapaxes(a, -1, -2) @ a.conj())


def _tangent(w: np.ndarray, v: np.ndarray, order: EntropyOrder | None) -> np.ndarray:
    """Rows sqrt(g_j) v_j with sum_j g_j v_j v_j† the gradient at rho = v diag(w) v†:
    phi phi† (phi the top eigenvector) for order None, rho^(q-1) for q > 1, and
    for von Neumann log rho, clipped at SUPPORT_CUTOFF and shifted by -log
    SUPPORT_CUTOFF to stay nonnegative; as Phi† is unital, that moves no eigenvector."""
    if order is None:
        return np.swapaxes(v[..., -1:], -1, -2)
    if order.is_limit:
        g = np.log(np.maximum(w, SUPPORT_CUTOFF) / SUPPORT_CUTOFF)
    else:
        g = np.maximum(w, 0.0) ** (order.q - 1.0)
    return np.swapaxes(v * np.sqrt(g)[..., None, :], -1, -2)


def _ascend(forward: np.ndarray, adjoint: np.ndarray, psi: np.ndarray,
            order: EntropyOrder | None) -> tuple[np.ndarray, np.ndarray]:
    """The fixed-point iteration from the stacked starts psi: best input and its output spectrum.

    Each step moves every start to the top eigenvector of Phi†(gradient at
    Phi(psi psi†)), tries the multiples `_STRETCH` of that move too, and keeps
    the best of these inputs and psi itself, so the objective (the top
    eigenvalue for order None, minus the entropy otherwise) never decreases.
    """
    def objective(w):
        return w[..., -1] if order is None else -spectrum_entropy(w, order)

    n, out = psi.shape[1], adjoint.shape[0]
    psi = psi.copy()
    w, v = _gram_eigh(psi[:, None, :], forward, out)
    value = np.array(objective(w))  # a copy: for order None objective(w) is a view of w
    for _ in range(SEESAW_MAX_STEPS):
        step = _gram_eigh(_tangent(w, v, order), adjoint, n)[1][:, :, -1]
        # an eigenvector's phase is arbitrary: match it to psi before extrapolating
        step = step * np.exp(-1j * np.angle(np.sum(psi.conj() * step, axis=1)))[:, None]
        cand = step[:, None, :] + _STRETCH[:, None] * (step - psi)[:, None, :]
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        cw, cv = _gram_eigh(cand[:, :, None, :], forward, out)
        score = objective(cw)
        gain = score.max(axis=1) - value
        i = np.flatnonzero(gain > 0.0)  # the starts that move; the others keep psi
        j = score[i].argmax(axis=1)
        psi[i], value[i], w[i], v[i] = cand[i, j], score[i, j], cw[i, j], cv[i, j]
        if not np.any(gain > SEESAW_TOL):
            break
    return psi[np.argmax(value)], w[np.argmax(value)]


def _output_extremum(phi: Channel, order: EntropyOrder | None,
                     seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Pure input psi minimizing the output entropy (von Neumann or q > 1), or for
    order None maximizing the top output eigenvalue, and the spectrum of Phi(psi psi†).

    Each objective is convex in the input, so its tangent bounds it from below
    and is maximized by a pure state, the top eigenvector of Phi†(gradient): a
    majorization-minimization (unit Frank-Wolfe) step, for order None the
    seesaw. Starts: the n basis vectors and SEESAW_STARTS Haar-random vectors of
    stream (seed, 0), plus, for Rényi and Tsallis orders, the von Neumann fixed
    point (without it Rényi 5 stopped 7.4e-3 high on a 4-Kraus qutrit channel).
    """
    m, out, n = phi.kraus.shape
    forward = phi.kraus.reshape(m * out, n).T  # psi @ forward lists every K psi
    adjoint = phi.kraus.conj().transpose(1, 0, 2).reshape(out, m * n)  # and every K† phi
    rng = stream_rng(seed, 0)
    starts = np.concatenate([np.eye(n, dtype=complex),
                             [random_pure_state(n, rng) for _ in range(SEESAW_STARTS)]])
    if order is None or order.is_limit:
        return _ascend(forward, adjoint, starts, order)
    vn_start, _ = _ascend(forward, adjoint, starts, VON_NEUMANN)
    return _ascend(forward, adjoint, np.concatenate([starts, vn_start[None]]), order)


# Seeded probes of `_min_entropy_probes`; the best three are refined.
_CONCAVE_PROBES = 2000


def _min_entropy_probes(phi: Channel, order: EntropyOrder, seed: int) -> tuple[float, np.ndarray]:
    """Minimal output entropy for Rényi/Tsallis q < 1 beyond qubit channels.

    _CONCAVE_PROBES seeded Haar-random inputs of stream (seed, 0), then Nelder-Mead
    from the best three. The fixed-point iteration is not used here: its tangent
    rho^(q-1) diverges on rank-deficient outputs, and on 30 random qutrit channels
    with 2-4 Kraus operators, at Rényi and Tsallis q = 0.5, it settled in other
    basins than this search, above it on 17 by up to 1.6e-3 and below it on 3 by
    up to 5.2e-2. Neither is exact for q < 1; this keeps the values returned so far.
    """
    import scipy.optimize  # here, not at module level: no command reaches this function

    n = phi.in_dim

    def entropy_at(vec):
        return vn_entropy(phi.apply(np.outer(vec, vec.conj())), order)

    def objective(x):
        vec = x[:n] + 1j * x[n:]
        norm = np.linalg.norm(vec)
        return entropy_at(vec / norm) if norm >= NULL_VECTOR_NORM else math.log(n)

    rng = stream_rng(seed, 0)
    probes = np.array([random_pure_state(n, rng) for _ in range(_CONCAVE_PROBES)])
    # Nelder-Mead never ends above its start, so the best run beats every probe
    res = min((scipy.optimize.minimize(objective, np.concatenate([v.real, v.imag]), method="Nelder-Mead",
                                       options={"xatol": NELDER_MEAD_XATOL, "fatol": NELDER_MEAD_FATOL,
                                                "maxiter": 2000})
               for v in probes[np.argsort([entropy_at(v) for v in probes], kind="stable")[:3]]),
              key=lambda r: r.fun)
    vec = res.x[:n] + 1j * res.x[n:]
    return float(res.fun), np.outer(vec, vec.conj()) / np.vdot(vec, vec).real


def min_output_entropy(phi: Channel, order: EntropyOrder = VON_NEUMANN, seed: int = 0) -> tuple[float, np.ndarray]:
    """Minimal output entropy over pure inputs (a concave minimum sits on them) and the minimizer.

    Exact for a qubit channel (2 -> 2): every order falls as the output Bloch
    radius grows, so the minimizer is the pure state whose Bloch vector r
    maximizes |W r + kappa| (`_max_bloch_direction`); `seed` is not used.
    Other channels run `_output_extremum` from stream `seed` for von Neumann
    and q > 1, `_min_entropy_probes` for q < 1, where that iteration is not reliable.
    """
    if phi.in_dim == phi.out_dim == 2:
        rad, r = _max_bloch_radius(phi)
        return float(spectrum_entropy([(1 + rad) / 2, (1 - rad) / 2], order)), from_bloch(r)
    if not (order.is_limit or order.q > 1.0):
        return _min_entropy_probes(phi, order, seed)
    psi, w = _output_extremum(phi, order, seed)
    return float(spectrum_entropy(w, order)), np.outer(psi, psi.conj())


def max_output_2norm(phi: Channel, seed: int = 0) -> float:
    """Maximum over pure inputs psi of the largest eigenvalue of Phi(psi psi†).

    Exact for a qubit channel (2 -> 2): (1 + rad)/2 with rad the largest output
    Bloch radius (`_max_bloch_radius`); `seed` is not used. Other channels run
    the seesaw, psi <- top eigenvector of Phi†(phi phi†) with phi the top
    eigenvector of Phi(psi psi†), as the order-None member of `_output_extremum`."""
    if phi.in_dim == phi.out_dim == 2:
        return (1.0 + _max_bloch_radius(phi)[0]) / 2.0
    return float(_output_extremum(phi, None, seed)[1][-1])


def pauli_points(p, order: EntropyOrder = VON_NEUMANN):
    """(s_map, s_min) of the Pauli channels with weights p, (..., 4), in closed form.

    The Choi state is diagonal in the Bell basis with the weights as its
    spectrum, so s_map is the entropy of p. The channel scales the Bloch axes
    by eta_i = 2(p_0 + p_i) - 1, so s_min is the entropy of ((1 ± r)/2) with
    r = max |eta_i| (King & Ruskai, IEEE TIT 2001), clamped at 0. Floats for
    one weight vector, arrays for a stack.
    """
    p = _clean_probs(p)
    if p.shape[-1:] != (4,):
        raise ValueError("need 4 weights")
    r = np.minimum(np.abs(2.0 * (p[..., :1] + p[..., 1:]) - 1.0).max(axis=-1), 1.0)
    # one entropy call on [p; ((1+r)/2, (1-r)/2, 0, 0)]: zero weights add exact zeros
    w = np.zeros(p.shape[:-1] + (2, 4))
    w[..., 0, :] = p
    w[..., 1, 0], w[..., 1, 1] = (1.0 + r) / 2.0, (1.0 - r) / 2.0
    s_map, s_min = np.moveaxis(spectrum_entropy(w, order), -1, 0)
    return s_map, np.maximum(s_min, 0.0)


def pauli_edge_curves(q: float, samples: int = 400) -> dict:
    """Sampled (s_map, s_min) curves along the AB, BD, AD tetrahedron edges, from `pauli_points`."""
    edges = tetrahedron_edges()
    ts = np.linspace(0.0, 1.0, samples)
    return {name: np.stack(pauli_points(edges[name](ts[:, None]), EntropyOrder.renyi(q)), axis=-1)
            for name in ("AB", "BD", "AD")}


# -- sandwich and additivity region -------------------------------------------


_TSALLIS2 = EntropyOrder.tsallis(2.0)
_RENYI2 = EntropyOrder.renyi(2.0)


def _max_entangled(n: int) -> np.ndarray:
    vec = np.zeros(n * n, dtype=complex)
    vec[:: n + 1] = 1.0 / math.sqrt(n)
    return np.outer(vec, vec.conj())


@dataclass(frozen=True)
class SandwichReport(_Report):
    middle_vn: float
    middle_tsallis2: float
    lower_vn: float
    upper_vn: float
    lower_tsallis2: float
    upper_tsallis2: float
    renyi2_lower: float
    middle_renyi2: float

    def _gaps(self) -> list:
        return [self.lower_vn - self.middle_vn, self.middle_vn - self.upper_vn,
                self.lower_tsallis2 - self.middle_tsallis2, self.middle_tsallis2 - self.upper_tsallis2,
                self.renyi2_lower - self.middle_renyi2]


def sandwich_check(phi1: Channel, phi2: Channel) -> SandwichReport:
    """|S_map(1) - S_map(2)| <= S((Phi1 ⊗ Phi2)(phi+)) <= S_map(1) + S_map(2).

    Checked for the von Neumann and Tsallis-2 entropies (both subadditive),
    together with the Rényi-2 rewrite of the lower bound. All three orders read
    one matfun._padded_spectrum of [Choi(1); Choi(2); (Phi1 ⊗ Phi2)(phi+)], each
    matrix zero-padded to the largest (for rectangular channels).
    """
    if phi1.in_dim != phi2.in_dim:
        raise ValueError("sandwich needs channels of equal dimension")
    w = _padded_spectrum([phi1.choi, phi2.choi, phi1.tensor(phi2).apply(_max_entangled(phi1.in_dim))])
    (m1v, m2v, mid_v), (m1t, m2t, mid_t), (m1r, m2r, mid_r) = (
        _eigenvalue_entropy(w, order).tolist() for order in (VON_NEUMANN, _TSALLIS2, _RENYI2))
    return SandwichReport(
        middle_vn=mid_v,
        middle_tsallis2=mid_t,
        lower_vn=abs(m1v - m2v),
        upper_vn=m1v + m2v,
        lower_tsallis2=abs(m1t - m2t),
        upper_tsallis2=m1t + m2t,
        renyi2_lower=_renyi2_lower(m1r, m2r),
        middle_renyi2=mid_r,
    )


def renyi2_lower(phi1: Channel, phi2: Channel) -> float:
    """-log(1 - |exp(-S2_map(1)) - exp(-S2_map(2))|), the Rényi-2 lower bound."""
    return _renyi2_lower(map_entropy(phi1, _RENYI2), map_entropy(phi2, _RENYI2))


def _renyi2_lower(s1: float, s2: float) -> float:
    """renyi2_lower of the Rényi-2 map entropies s1 and s2."""
    gap = abs(math.exp(-s1) - math.exp(-s2))
    return -math.log(1.0 - gap) if gap < 1.0 else math.inf


def additivity_region(phi1: Channel, phi2: Channel) -> bool:
    """Whether the map-entropy pair falls in the conjectured additivity region.

    1 - ((MN+1)/(MN)) |e^{-S1} - e^{-S2}| <= e^{-(S1+S2)} with S_i the
    Rényi-2 map entropies and N, M the channel dimensions.
    """
    return additivity_region_values(map_entropy(phi1, _RENYI2), map_entropy(phi2, _RENYI2),
                                    phi1.in_dim, phi2.in_dim)


def additivity_region_values(s1: float, s2: float, n: int, m: int) -> bool:
    nm = n * m
    return 1.0 - (nm + 1.0) / nm * abs(math.exp(-s1) - math.exp(-s2)) <= math.exp(-(s1 + s2)) + DOMAIN_EDGE


# -- minimal-output-entropy preserving transformations -------------------------


def _phi_ellipsoid(eta) -> np.ndarray:
    e1, e2, e3 = eta
    return np.array(
        [
            [1.0, 0.0, 0.0, 1.0 - e3],
            [0.0, (e1 + e2) / 2, (e1 - e2) / 2, 0.0],
            [0.0, (e1 - e2) / 2, (e1 + e2) / 2, 0.0],
            [0.0, 0.0, 0.0, e3],
        ],
        dtype=complex,
    )


def _phi_rotation(p: float) -> np.ndarray:
    s = math.sqrt(p * (1.0 - p))
    return np.array(
        [
            [p, -s, -s, 1.0 - p],
            [s, p, p - 1.0, -s],
            [s, p - 1.0, p, -s],
            [1.0 - p, s, s, p],
        ],
        dtype=complex,
    )


def _phi_direction(p: float, t: float, n: float) -> np.ndarray:
    lo = math.sqrt((1.0 - p) / p)
    hi = math.sqrt(p / (1.0 - p))
    return 0.5 * np.array(
        [
            [lo * t, -t, -t, hi * t],
            [1j * lo * n, -1j * n, -1j * n, 1j * hi * n],
            [-1j * lo * n, 1j * n, 1j * n, -1j * hi * n],
            [-lo * t, t, t, -hi * t],
        ],
        dtype=complex,
    )


def preserve_smin(phi1: Channel, eta, t: float, n: float, p: float) -> Channel:
    """Transform a qubit channel without changing its minimal output entropy.

    Builds Phi1 · R · E(eta) · Rᵀ + D(t, n) where R rotates the north pole to
    the minimizer rho_p, E squeezes the Bloch ball onto an ellipsoid tangent
    at the north pole, and D tilts the ellipsoid axes. The caller supplies p,
    the diagonal parameter of Phi1's (real, positive off-diagonal) minimizer.
    `Channel.from_superoperator` raises InvalidChannelError (with the Choi
    eigenvalue or the TP residual) if the requested parameters leave the
    CPTP set.
    """
    if phi1.in_dim != 2 or phi1.out_dim != 2:
        raise ValueError("preserve_smin acts on qubit channels")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rot = _phi_rotation(p)
    s = phi1.superoperator @ rot @ _phi_ellipsoid(eta) @ rot.T
    if t != 0.0 or n != 0.0:
        # the axis tilt has 1/sqrt(p(1-p)) factors, so it needs an interior minimizer
        if not 0.0 < p < 1.0:
            raise ValueError("a nonzero axis tilt needs p strictly inside (0, 1)")
        s = s + _phi_direction(p, t, n)
    return Channel.from_superoperator(s)
