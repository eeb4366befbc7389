"""Davies channels for qubits and qutrits: thermal semigroup maps with detailed balance.

The qubit family is parametrized by (a, c, p); the qutrit family by the
zero-frequency stochastic block (lower off-diagonals F21, F31, F32), the
Gibbs weights, and the coherence damping factors mu. Membership in the
semigroup is decided through the analytic logarithm of the 3×3 stochastic
block and positivity of the generator's off-diagonal rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, InvalidChannelError
from .entropy import _clean_probs, spectrum_entropy
from .matfun import (
    DegenerateSpectrumError,
    NoRealLogError,
    matrix_exp,
    stochastic3_log,
    stochastic3_xy,
)
from .tolerances import (DAVIES_COEFF_CUTOFF, DAVIES_LIMIT_BAND, DAVIES_LOG_RESIDUAL,
                         DAVIES_PERTURBATION, DOMAIN_EDGE, MEMBERSHIP_TOL)

__all__ = [
    "DaviesQubit",
    "DaviesRates",
    "QubitChannelParams",
    "qubit_generator",
    "qubit_superoperator",
    "bloch_params",
    "qubit_minimizer",
    "qubit_max_norm",
    "DaviesQutritBlock",
    "qutrit_superoperator",
    "l21_closed_form",
    "MembershipResult",
    "membership",
    "davies_set_sweep",
    "zero_block_constraints",
]


@dataclass(frozen=True)
class DaviesQubit:
    """Davies qubit map parameters: jump weight a, coherence damping c, thermal p.

    Validity (semigroup membership) requires a + p < 1 and
    0 < c < sqrt(1 - a/(1-p)); the invariant state is diag(p, 1-p).
    """

    a: float
    c: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly between 0 and 1")
        if not 0.0 <= self.a < 1.0 - self.p:
            raise ValueError(f"need a + p < 1, got a = {self.a}, p = {self.p}")
        cmax = math.sqrt(1.0 - self.a / (1.0 - self.p))
        if not 0.0 < self.c <= cmax + DOMAIN_EDGE:
            raise ValueError(f"need 0 < c <= sqrt(1 - a/(1-p)) = {cmax:.6f}, got c = {self.c}")

    @property
    def b(self) -> float:
        """Upward jump weight a p/(1-p)."""
        return self.a * self.p / (1.0 - self.p)

    @classmethod
    def from_rates(cls, rates: "DaviesRates") -> "DaviesQubit":
        a = (1.0 - rates.p) * (1.0 - math.exp(-rates.relaxation * rates.t))
        c = math.exp(-rates.dephasing * rates.t)
        return cls(a=a, c=c, p=rates.p)


@dataclass(frozen=True)
class DaviesRates:
    """Time parametrization a = (1-p)(1 - e^{-At}), c = e^{-Gamma t}.

    Membership of the whole path in the semigroup requires
    Gamma >= relaxation/2 >= 0 (equivalently tau_1 <= 2 tau_3 for the
    decay times).
    """

    relaxation: float  # A
    dephasing: float  # Gamma
    p: float
    t: float

    def __post_init__(self):
        if self.relaxation < 0 or self.dephasing < self.relaxation / 2:
            raise ValueError("rates must satisfy Gamma >= A/2 >= 0")
        if self.t < 0:
            raise ValueError("time must be nonnegative")


@dataclass(frozen=True)
class QubitChannelParams:
    """Bloch-form parameters: ellipsoid semi-axes eta and translation kappa."""

    eta: np.ndarray
    kappa: np.ndarray


def qubit_generator(relaxation: float, dephasing: float, p: float) -> np.ndarray:
    """Dissipative generator on row-major vectorized qubit states.

    Population block with downward rate alpha = A (1-p) and upward rate
    alpha p/(1-p); coherences decay at the dephasing rate.
    """
    alpha = relaxation * (1.0 - p)
    lam = -dephasing
    return np.array(
        [
            [-alpha, 0.0, 0.0, alpha * p / (1.0 - p)],
            [0.0, lam, 0.0, 0.0],
            [0.0, 0.0, lam, 0.0],
            [alpha, 0.0, 0.0, -alpha * p / (1.0 - p)],
        ]
    )


def _qubit_superoperator_matrix(d: DaviesQubit) -> np.ndarray:
    """The 4×4 superoperator of a Davies qubit map on row-major vectorized states."""
    b = d.b
    return np.array(
        [
            [1.0 - d.a, 0.0, 0.0, b],
            [0.0, d.c, 0.0, 0.0],
            [0.0, 0.0, d.c, 0.0],
            [d.a, 0.0, 0.0, 1.0 - b],
        ],
        dtype=complex,
    )


def qubit_superoperator(d: DaviesQubit) -> Channel:
    """The Davies qubit channel, held as its superoperator: CP and TP are checked
    on that matrix here, and Kraus operators are built only if something reads them."""
    return Channel.from_superoperator(_qubit_superoperator_matrix(d))


def bloch_params(d: DaviesQubit) -> QubitChannelParams:
    """eta1 = eta2 = c, eta3 = 1 - a/(1-p), kappa3 = a(2p-1)/(1-p)."""
    eta3 = 1.0 - d.a / (1.0 - d.p)
    kappa3 = d.a * (2.0 * d.p - 1.0) / (1.0 - d.p)
    return QubitChannelParams(
        eta=np.array([d.c, d.c, eta3]), kappa=np.array([0.0, 0.0, kappa3])
    )


def qubit_minimizer(d: DaviesQubit) -> tuple[float, float]:
    """Closed-form minimal-output-entropy point of a Davies qubit map.

    Returns (mu, s_min) where the minimizer is the real pure state with
    diagonal (mu, 1-mu). The output Bloch radius squared is a quadratic in
    mu, so the maximum sits either at an endpoint or at the interior
    stationary point mu* = [c² + (1-a-b)(2b-1)] / [2c² - 2(1-a-b)²]; the
    interior point wins only when c² > (1-a-b)², i.e. when the quadratic is
    concave.
    """
    a, c, b = d.a, d.c, d.b

    def radius_sq(mu: float) -> float:
        z = 2.0 * (1.0 - a - b) * mu + 2.0 * b - 1.0
        return z * z + 4.0 * c * c * mu * (1.0 - mu)

    candidates = [0.0, 1.0]
    denom = 2.0 * c * c - 2.0 * (1.0 - a - b) ** 2
    if abs(denom) > DAVIES_COEFF_CUTOFF:
        mu_star = (c * c + (1.0 - a - b) * (2.0 * b - 1.0)) / denom
        if 0.0 < mu_star < 1.0 and c * c > (1.0 - a - b) ** 2:
            candidates.append(mu_star)
    mu = max(candidates, key=radius_sq)
    radius = math.sqrt(min(radius_sq(mu), 1.0))
    top = (1.0 + radius) / 2.0
    return mu, spectrum_entropy([top, 1.0 - top])


def qubit_max_norm(d: DaviesQubit) -> float:
    """Maximal output 2-norm of a Davies qubit map, in closed form.

    The squared output radius (kappa3 + z eta3)² + (1-z²) eta1² is concave
    in z when eta3² <= eta1², so the maximum is either the interior
    stationary point z* = kappa3 eta3/(eta1² - eta3²) or an endpoint
    z = ±1. The convex case (eta1² < eta3²) always peaks at an endpoint.
    """
    params = bloch_params(d)
    e1, _, e3 = params.eta
    k3 = params.kappa[2]
    if e1 * e1 > e3 * e3:
        z_star = k3 * e3 / (e1 * e1 - e3 * e3)
        if -1.0 <= z_star <= 1.0:
            return 0.5 * (1.0 + math.sqrt(e1 * e1 + k3 * k3 * e1 * e1 / (e1 * e1 - e3 * e3)))
    return 0.5 * (1.0 + abs(k3) + abs(e3))


# -- qutrit -------------------------------------------------------------------


@dataclass(frozen=True)
class DaviesQutritBlock:
    """Zero-frequency block of a Davies qutrit map.

    The free parameters are the lower off-diagonals F21, F31, F32 of the
    column-stochastic block; the uppers follow from detailed balance
    F_ij p_j = F_ji p_i with the Gibbs weights p. mu holds the three
    coherence damping factors (mu1 on |1><2|, mu2 on |1><3|, mu3 on |2><3|).
    """

    f21: float
    f31: float
    f32: float
    p: np.ndarray = field(default=None)
    mu: np.ndarray = field(default=None)

    def __post_init__(self):
        p = _clean_probs(np.full(3, 1.0 / 3.0) if self.p is None else self.p)
        if p.min() <= 0:
            raise ValueError("Gibbs weights must be positive")
        object.__setattr__(self, "p", p)
        mu = np.ones(3) if self.mu is None else np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        if min(self.f21, self.f31, self.f32) < 0:
            raise ValueError("off-diagonal rates must be nonnegative")
        f = self.stochastic_block()
        if np.diag(f).min() < -DOMAIN_EDGE:
            raise ValueError("column sums exceed 1: diagonal went negative")

    def stochastic_block(self) -> np.ndarray:
        """The 3×3 column-stochastic zero-frequency block."""
        p = self.p
        f12 = self.f21 * p[0] / p[1]
        f13 = self.f31 * p[0] / p[2]
        f23 = self.f32 * p[1] / p[2]
        return np.array(
            [
                [1.0 - self.f21 - self.f31, f12, f13],
                [self.f21, 1.0 - f12 - self.f32, f23],
                [self.f31, self.f32, 1.0 - f13 - f23],
            ]
        )


def zero_block_constraints(f21: float, f31: float, f32: float) -> bool:
    """Positivity constraints of the symmetric zero-frequency block."""
    s = f21 + f31 + f32
    pair = f32 * f31 + f31 * f21 + f21 * f32
    return s <= 1.0 + DOMAIN_EDGE and 3.0 - 4.0 * s + 3.0 * pair >= -DOMAIN_EDGE


#: coherence slot (row index of the superoperator) -> mu index
_COHERENCE_SLOTS = {(0, 1): 0, (1, 0): 0, (0, 2): 1, (2, 0): 1, (1, 2): 2, (2, 1): 2}


def qutrit_superoperator(block: DaviesQutritBlock) -> Channel:
    """Assemble the 9×9 Davies qutrit superoperator and validate CPTP.

    Population entries carry the stochastic block, each coherence |i><j| is
    multiplied by mu_k. Complete positivity of the whole map (checked on
    the Choi matrix) is what constrains the mu values.
    """
    f = block.stochastic_block()
    s = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            s[4 * i, 4 * j] = f[i, j]  # position (i,i) <- (j,j)
    for (i, j), k in _COHERENCE_SLOTS.items():
        idx = 3 * i + j
        s[idx, idx] = block.mu[k]
    try:
        return Channel.from_superoperator(s)
    except InvalidChannelError as exc:
        raise InvalidChannelError(f"qutrit block is not a channel: {exc}") from exc


def l21_closed_form(f: np.ndarray) -> float:
    """Closed-form L21 entry of the logarithm of a 3×3 stochastic block.

    With x, y from the spectrum {1, x+y, x-y} and
    s = -F12 - F21 + F13 - F31 + F23 - F32 + 2 F23 F31/F21:

        L21 = F21/(4y) [ (s - 2y) log(x-y)/(1-x+y) - (s + 2y) log(x+y)/(1-x-y) ]

    Terms with a coefficient at most DAVIES_COEFF_CUTOFF follow the 0·log 0 = 0
    convention, and within DAVIES_LIMIT_BAND of the removable singularity at
    x + y = 1 the quotient is evaluated by its limit.
    """
    f = np.asarray(f, dtype=float)
    x, y = stochastic3_xy(f)
    f12, f21 = f[0, 1], f[1, 0]
    f13, f31 = f[0, 2], f[2, 0]
    f23, f32 = f[1, 2], f[2, 1]
    if f21 <= DAVIES_COEFF_CUTOFF:
        # no 1 <-> 2 transition: the generator entry vanishes by continuity
        return 0.0
    if y <= DAVIES_COEFF_CUTOFF:
        raise DegenerateSpectrumError("y = 0: closed form undefined")
    cross = 0.0 if f23 * f31 <= DAVIES_COEFF_CUTOFF**2 else 2.0 * f23 * f31 / f21
    s = -f12 - f21 + f13 - f31 + f23 - f32 + cross
    y1 = s + 2.0 * y
    y2m4 = s - 2.0 * y

    def ratio(coeff: float, lam: float, one_minus: float) -> float:
        # coeff * log(lam) / one_minus with 0·log 0 = 0 and the x+y=1 limit
        if abs(coeff) <= DAVIES_COEFF_CUTOFF:
            return 0.0
        if lam <= 0.0:
            raise NoRealLogError("zero eigenvalue with nonvanishing coefficient")
        if abs(one_minus) <= DAVIES_LIMIT_BAND:
            return -coeff  # log(lam)/(1 - lam) -> -1 as lam -> 1
        return coeff * math.log(lam) / one_minus

    val = ratio(y2m4, x - y, 1.0 - x + y) - ratio(y1, x + y, 1.0 - x - y)
    return f21 * val / (4.0 * y)


@dataclass(frozen=True)
class MembershipResult:
    is_member: bool
    boundary: bool
    l21: float
    l31: float
    l32: float
    generator: np.ndarray | None
    l21_closed: float
    reason: str = ""


def membership(block: DaviesQutritBlock) -> MembershipResult:
    """Decide whether the zero-frequency block belongs to the Davies semigroup.

    Member iff the block has a real positive spectrum, its logarithm has
    off-diagonal entries of at least -MEMBERSHIP_TOL, and the zero-block
    positivity constraints hold. A degenerate positive spectrum falls back to
    the eigensolver log; a zero eigenvalue is handled by the limit convention
    and flagged as boundary.
    """
    import scipy.linalg

    f = block.stochastic_block()
    constraints_ok = zero_block_constraints(block.f21, block.f31, block.f32)
    try:
        x, y = stochastic3_xy(f)
    except NoRealLogError:
        return MembershipResult(False, False, math.nan, math.nan, math.nan, None, math.nan,
                                reason="complex spectrum")
    if x - y < -DAVIES_COEFF_CUTOFF:
        return MembershipResult(False, False, math.nan, math.nan, math.nan, None, math.nan,
                                reason="negative eigenvalue")
    try:
        l21_closed = l21_closed_form(f)
    except (DegenerateSpectrumError, NoRealLogError):
        l21_closed = math.nan
    boundary = x - y <= DAVIES_COEFF_CUTOFF

    def result(gen: np.ndarray) -> MembershipResult:
        offs = np.array([gen[1, 0], gen[2, 0], gen[2, 1], gen[0, 1], gen[0, 2], gen[1, 2]])
        member = bool(offs.min() >= -MEMBERSHIP_TOL) and constraints_ok
        return MembershipResult(member, boundary, float(gen[1, 0]), float(gen[2, 0]),
                                float(gen[2, 1]), gen, l21_closed)

    try:
        gen, _ = stochastic3_log(f)
        return result(gen)
    except NoRealLogError as exc:
        return MembershipResult(False, boundary, math.nan, math.nan, math.nan, None,
                                l21_closed, reason=str(exc))
    except DegenerateSpectrumError:
        pass
    if not boundary:
        # degenerate but strictly positive spectrum: eigensolver fallback
        gen = scipy.linalg.logm(f).real
        if np.abs(matrix_exp(gen) - f).max() < DAVIES_LOG_RESIDUAL:
            return result(gen)
        return MembershipResult(False, False, math.nan, math.nan, math.nan, None,
                                l21_closed, reason="no real logarithm")
    # zero eigenvalue: classify through the closed form and perturbation limits
    l31 = _limit_offdiag(f, (2, 0))
    l32 = _limit_offdiag(f, (2, 1))
    vals = [v for v in (l21_closed, l31, l32) if not math.isnan(v)]
    member = bool(vals and min(vals) >= -MEMBERSHIP_TOL) and constraints_ok
    return MembershipResult(member, True, l21_closed, l31, l32, None, l21_closed)


def _limit_offdiag(f: np.ndarray, pos: tuple[int, int]) -> float:
    """Off-diagonal log entry at a degenerate point, via a small perturbation.

    Shrinks the off-diagonal part toward the identity by DAVIES_PERTURBATION,
    which moves the zero eigenvalue into (0, 1); entries that stay bounded
    converge, entries that diverge to +inf stay nonnegative either way.
    """
    g = np.eye(3) * DAVIES_PERTURBATION + (1.0 - DAVIES_PERTURBATION) * f
    try:
        gen, _ = stochastic3_log(g)
        return float(gen[pos])
    except (DegenerateSpectrumError, NoRealLogError):
        return math.nan


#: Coarsest grid davies_set_sweep accepts.
MIN_SWEEP_RESOLUTION = 10


def davies_set_sweep(resolution: int = 50, temperature_mode: str = "infinite"):
    """Classify the simplex of symmetric bistochastic blocks by membership.

    Sweeps figure coordinates f = (f12, f13, f23) with f12 + f13 + f23 <= 1
    on a grid of the given resolution; the coordinates map to the block's
    lower off-diagonals as (F32, F31, F21) = (f12, f13, f23), the level
    relabeling under which the printed L21 formula matches the published
    points. Yields dict rows; the cross-section rows (plane sum = 1/2) are
    marked with in_cross_section.
    """
    if resolution < MIN_SWEEP_RESOLUTION:
        raise ValueError(f"resolution must be at least {MIN_SWEEP_RESOLUTION}")
    if temperature_mode != "infinite":
        raise ValueError("only the infinite-temperature (bistochastic) sweep is defined")
    grid = np.linspace(0.0, 1.0, resolution)
    rows = []
    for f12 in grid:
        for f13 in grid:
            for f23 in grid:
                if f12 + f13 + f23 > 1.0 + DOMAIN_EDGE:
                    continue
                block = DaviesQutritBlock(f21=f23, f31=f13, f32=f12)
                res = membership(block)
                rows.append(dict(
                    f12=f12, f13=f13, f23=f23, member=res.is_member, boundary=res.boundary,
                    l21=res.l21, l31=res.l31, l32=res.l32,
                    in_cross_section=abs(f12 + f13 + f23 - 0.5) < 0.5 / resolution,
                ))
    return rows


def detailed_balance_residual(block: DaviesQutritBlock, x: np.ndarray, y: np.ndarray) -> float:
    """|<X, Phi(Y)>_beta - <Phi(X), Y>_beta| with <A,B>_beta = tr rho_beta^{-1} A† B.

    Phi acts as its superoperator on row-major vectorized X and Y: no Kraus
    decomposition is built.
    """
    s = qutrit_superoperator(block).superoperator
    phi_x, phi_y = (np.array([x, y], dtype=complex).reshape(2, 9) @ s.T).reshape(2, 3, 3)
    g_inv = np.diag(1.0 / block.p).astype(complex)
    lhs = np.trace(g_inv @ x.conj().T @ phi_y)
    rhs = np.trace(g_inv @ phi_x.conj().T @ y)
    return float(abs(lhs - rhs))


def semigroup_residual(rates: DaviesRates, t1: float, t2: float) -> float:
    """|Phi(t1) Phi(t2) - Phi(t1 + t2)| for a shared qubit generator.

    Each map is checked as a DaviesQubit and multiplied as its 4×4 matrix:
    no Channel is built.
    """
    def superop(t):
        d = DaviesQubit.from_rates(DaviesRates(rates.relaxation, rates.dephasing, rates.p, t))
        return _qubit_superoperator_matrix(d)

    lhs = superop(t1) @ superop(t2)
    rhs = superop(t1 + t2)
    return float(np.abs(lhs - rhs).max())
