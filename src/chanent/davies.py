"""Davies channels for qubits and qutrits: thermal semigroup maps with detailed balance.

The qubit family is parametrized by (a, c, p); the qutrit family by the
zero-frequency stochastic block (lower off-diagonals F21, F31, F32), the
Gibbs weights, and the coherence damping factors mu. Membership in the
semigroup is decided through the logarithm of the 3×3 stochastic block, from
one symmetric eigendecomposition, and positivity of the generator's
off-diagonal rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, InvalidChannelError
from .entropy import _clean_probs, spectrum_entropy
from .matfun import eigh
from .tolerances import DAVIES_COEFF_CUTOFF, DAVIES_LIMIT_BAND, DOMAIN_EDGE, MEMBERSHIP_TOL

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


def qubit_superoperator(d: DaviesQubit) -> Channel:
    """The Davies qubit channel, held as its 4×4 superoperator on row-major vectorized
    states: CP and TP are checked on that matrix here, and Kraus operators are built
    only if something reads them."""
    b = d.b
    return Channel.from_superoperator(np.array(
        [
            [1.0 - d.a, 0.0, 0.0, b],
            [0.0, d.c, 0.0, 0.0],
            [0.0, 0.0, d.c, 0.0],
            [d.a, 0.0, 0.0, 1.0 - b],
        ],
        dtype=complex,
    ))


def bloch_params(d: DaviesQubit) -> QubitChannelParams:
    """eta1 = eta2 = c, eta3 = 1 - a - b = 1 - a/(1-p), kappa3 = b - a = a(2p-1)/(1-p), spelled
    as qubit_minimizer and qubit_max_norm read them, so all three round alike."""
    return QubitChannelParams(eta=np.array([d.c, d.c, 1.0 - d.a - d.b]), kappa=np.array([0.0, 0.0, d.b - d.a]))


def _max_radius(kappa3: float, eta3: float, c: float) -> tuple[float, float]:
    """(z, radius): the largest output Bloch radius sqrt((kappa3 + eta3 z)² + c²(1 - z²))
    of a Davies qubit map over input heights z in [-1, 1], and the z reaching it.

    The square is a quadratic in z. Where it is concave (c² > eta3²) its stationary
    point z* = kappa3 eta3/(c² - eta3²), with radius² = c²(1 + kappa3²/(c² - eta3²)),
    is the maximum if it lies in [-1, 1]; otherwise an endpoint z = ±1 is, with
    radius |kappa3 ± eta3|.
    """
    curvature = c * c - eta3 * eta3
    if curvature > 0.0:
        z = kappa3 * eta3 / curvature
        if -1.0 <= z <= 1.0:
            return z, math.sqrt(c * c + kappa3 * kappa3 * c * c / curvature)
    z = 1.0 if abs(kappa3 + eta3) > abs(kappa3 - eta3) else -1.0  # a tie gives z = -1
    return z, abs(kappa3 + eta3 * z)


def qubit_minimizer(d: DaviesQubit) -> tuple[float, float]:
    """Closed-form minimal-output-entropy point of a Davies qubit map.

    Returns (mu, s_min) where the minimizer is the real pure state with
    diagonal (mu, 1-mu): `_max_radius` at eta3 = 1 - a - b and kappa3 = b - a,
    with mu = (1 + z)/2, the radius clamped at 1.
    """
    z, radius = _max_radius(d.b - d.a, 1.0 - d.a - d.b, d.c)
    top = (1.0 + min(radius, 1.0)) / 2.0
    return (1.0 + z) / 2.0, spectrum_entropy([top, 1.0 - top])


def qubit_max_norm(d: DaviesQubit) -> float:
    """Maximal output 2-norm of a Davies qubit map, in closed form: (1 + radius)/2 with
    the radius of `_max_radius` at qubit_minimizer's parameters, clamped at 1."""
    return 0.5 * (1.0 + min(_max_radius(d.b - d.a, 1.0 - d.a - d.b, d.c)[1], 1.0))


# -- qutrit -------------------------------------------------------------------


#: Gibbs weights at infinite temperature, the default of a qutrit block.
_UNIFORM = np.full(3, 1.0 / 3.0)


def _finite_reals(x, what: str) -> np.ndarray:
    """x as a float array of three entries; anything but three finite real numbers raises ValueError."""
    x = np.asarray(x)
    if x.shape != (3,) or x.dtype.kind not in "iuf" or not np.isfinite(x).all():
        raise ValueError(f"{what} must be three finite real numbers, got {x}")
    return x.astype(float)


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
        p = _clean_probs(_UNIFORM if self.p is None else self.p)
        if p.min() <= 0:
            raise ValueError("Gibbs weights must be positive")
        object.__setattr__(self, "p", p)
        mu = _finite_reals(np.ones(3) if self.mu is None else self.mu, "mu")
        object.__setattr__(self, "mu", mu)
        if _finite_reals([self.f21, self.f31, self.f32], "off-diagonal rates").min() < 0:
            raise ValueError("off-diagonal rates must be nonnegative")
        f = self.stochastic_block()
        if np.diag(f).min() < -DOMAIN_EDGE:
            raise ValueError("column sums exceed 1: diagonal went negative")

    def stochastic_block(self) -> np.ndarray:
        """The 3×3 column-stochastic zero-frequency block."""
        return _stochastic_blocks(np.array([self.f21, self.f31, self.f32]), self.p)


def _stochastic_blocks(rates: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Column-stochastic blocks of a (..., 3) stack of lower off-diagonals (F21, F31, F32)
    and a (..., 3) stack of Gibbs weights; the uppers follow from detailed balance."""
    f21, f31, f32 = np.moveaxis(rates, -1, 0)
    f12 = f21 * p[..., 0] / p[..., 1]
    f13 = f31 * p[..., 0] / p[..., 2]
    f23 = f32 * p[..., 1] / p[..., 2]
    return np.stack([
        np.stack([1.0 - f21 - f31, f12, f13], axis=-1),
        np.stack([f21, 1.0 - f12 - f32, f23], axis=-1),
        np.stack([f31, f32, 1.0 - f13 - f23], axis=-1),
    ], axis=-2)


def zero_block_constraints(f21, f31, f32):
    """Positivity constraints of the symmetric zero-frequency block (elementwise on arrays)."""
    s = f21 + f31 + f32
    pair = f32 * f31 + f31 * f21 + f21 * f32
    return (s <= 1.0 + DOMAIN_EDGE) & (3.0 - 4.0 * s + 3.0 * pair >= -DOMAIN_EDGE)


def qutrit_superoperator(block: DaviesQutritBlock) -> Channel:
    """Assemble the 9×9 Davies qutrit superoperator and validate CPTP.

    Population entries carry the stochastic block, each coherence |i><j| is
    multiplied by mu_k. Complete positivity of the whole map (checked on
    the Choi matrix) is what constrains the mu values.
    """
    s = np.zeros((9, 9), dtype=complex)
    s[::4, ::4] = block.stochastic_block()  # position (i,i) <- (j,j)
    # |i><j| sits at row 3i + j: mu[0] on 01 and 10, mu[1] on 02 and 20, mu[2] on 12 and 21
    coherences = [1, 3, 2, 6, 5, 7]
    s[coherences, coherences] = np.repeat(block.mu, 2)
    try:
        return Channel.from_superoperator(s)
    except InvalidChannelError as exc:
        raise InvalidChannelError(f"qutrit block is not a channel: {exc}") from exc


def l21_closed_form(f: np.ndarray) -> float:
    """Closed-form L21 entry of the logarithm of a 3×3 stochastic block.

    With x, y from the spectrum {1, x+y, x-y}, that is 2x + 1 = tr F and
    4y² = 2 tr F² - (tr F)² + 2 tr F - 3, and
    s = -F12 - F21 + F13 - F31 + F23 - F32 + 2 F23 F31/F21:

        L21 = F21/(4y) [ (s - 2y) log(x-y)/(1-x+y) - (s + 2y) log(x+y)/(1-x-y) ]

    evaluated with F21 multiplied into s, so that the cross term is 2 F23 F31
    and L21 stays finite, and nonzero, as F21 -> 0.

    Terms with a coefficient at most DAVIES_COEFF_CUTOFF follow the 0·log 0 = 0
    convention, and within DAVIES_LIMIT_BAND of the removable singularity at
    x + y = 1 the quotient is evaluated by its limit. Raises ValueError where
    the formula is undefined: a complex block, a complex eigenvalue pair,
    y = 0, or a zero eigenvalue with a nonvanishing coefficient.
    """
    f = np.asarray(f)
    if np.iscomplexobj(f):
        raise ValueError("expected a real matrix")
    tr = float(np.trace(f))
    x = (tr - 1.0) / 2.0
    disc = 2.0 * float(np.trace(f @ f)) - tr * tr + 2.0 * tr - 3.0
    if disc < -DAVIES_COEFF_CUTOFF:
        raise ValueError(f"complex eigenvalue pair (discriminant {disc:.3e})")
    y = 0.5 * math.sqrt(max(disc, 0.0))
    f12, f21 = f[0, 1], f[1, 0]
    f13, f31 = f[0, 2], f[2, 0]
    f23, f32 = f[1, 2], f[2, 1]
    if y <= DAVIES_COEFF_CUTOFF:
        raise ValueError("y = 0: closed form undefined")
    s = f21 * (-f12 - f21 + f13 - f31 + f23 - f32) + 2.0 * f23 * f31  # F21 times the s above

    def ratio(coeff: float, lam: float, one_minus: float) -> float:
        # coeff * log(lam) / one_minus with 0·log 0 = 0 and the x+y=1 limit
        if abs(coeff) <= DAVIES_COEFF_CUTOFF:
            return 0.0
        if lam <= 0.0:
            raise ValueError("zero eigenvalue with nonvanishing coefficient")
        if abs(one_minus) <= DAVIES_LIMIT_BAND:
            return -coeff  # log(lam)/(1 - lam) -> -1 as lam -> 1
        return coeff * math.log(lam) / one_minus

    val = ratio(s - 2.0 * y * f21, x - y, 1.0 - x + y) - ratio(s + 2.0 * y * f21, x + y, 1.0 - x - y)
    return val / (4.0 * y)


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


def _membership_stack(rates: np.ndarray, p: np.ndarray):
    """Logarithms and membership of a stack of blocks: (L, member, boundary, negative).

    rates holds the lower off-diagonals (F21, F31, F32) and p the Gibbs weights,
    both (B, 3). Detailed balance makes S = D^{-1/2} F D^{1/2} (D = diag p) real
    symmetric, so one eigh S = V diag(w) Vᵀ of the stack gives F's real spectrum
    and its eigenprojectors P_k = D^{1/2} v_k v_kᵀ D^{-1/2}, exact also where
    eigenvalues repeat, and log F = Σ_k log(w_k) P_k. Each block is decomposed
    as it would be alone, so a row never depends on the stack around it.

    - negative: an eigenvalue below -DAVIES_COEFF_CUTOFF. There is no real
      logarithm; L is NaN and the block is not a member.
    - boundary: otherwise, an eigenvalue of at most DAVIES_COEFF_CUTOFF in
      magnitude. L is the limit of log(εI + (1-ε)F) as ε → 0, whose spectrum
      ε + (1-ε)w keeps F's projectors: an entry whose zero-mode coefficient
      c = Σ_{w_k = 0} P_k has |c| > DAVIES_COEFF_CUTOFF diverges to -sign(c)·∞,
      every other entry is the sum over the eigenvalues above the cutoff.
    - member: every off-diagonal of L at least -MEMBERSHIP_TOL, and the
      zero-block constraints.
    """
    root = np.sqrt(p)
    s = _stochastic_blocks(rates, p) * (root[:, None, :] / root[:, :, None])
    w, v = eigh(s)
    proj = v[:, :, None, :] * v[:, None, :, :] * (root[:, :, None] / root[:, None, :])[..., None]
    live = w > DAVIES_COEFF_CUTOFF
    zero = ~live & (w >= -DAVIES_COEFF_CUTOFF)
    gen = (proj * np.log(np.where(live, w, 1.0))[:, None, None, :]).sum(axis=-1)
    c = (proj * zero[:, None, None, :]).sum(axis=-1)
    gen = np.where(np.abs(c) > DAVIES_COEFF_CUTOFF, np.copysign(np.inf, -c), gen)
    negative = w[:, 0] < -DAVIES_COEFF_CUTOFF
    gen[negative] = np.nan
    boundary = ~negative & zero.any(axis=-1)
    member = (~negative & (gen[:, ~np.eye(3, dtype=bool)] >= -MEMBERSHIP_TOL).all(axis=-1)
              & zero_block_constraints(*rates.T))
    return gen, member, boundary, negative


def membership(block: DaviesQutritBlock) -> MembershipResult:
    """Decide whether the zero-frequency block belongs to the Davies semigroup.

    Member iff the block's spectrum is nonnegative, its logarithm has
    off-diagonal entries of at least -MEMBERSHIP_TOL, and the zero-block
    positivity constraints hold: the one-block case of the stacked kernel
    `_membership_stack`, whose docstring gives the boundary limit. The
    generator is None on the boundary (where rates diverge) and for a
    negative eigenvalue.
    """
    gen, member, boundary, negative = _membership_stack(
        np.array([[block.f21, block.f31, block.f32]], dtype=float), block.p[None])
    if negative[0]:
        return MembershipResult(False, False, math.nan, math.nan, math.nan, None, math.nan,
                                reason="negative eigenvalue")
    try:
        l21_closed = l21_closed_form(block.stochastic_block())
    except ValueError:
        l21_closed = math.nan
    gen = gen[0]
    return MembershipResult(bool(member[0]), bool(boundary[0]), float(gen[1, 0]), float(gen[2, 0]),
                            float(gen[2, 1]), None if boundary[0] else gen, l21_closed)


#: Coarsest grid davies_set_sweep accepts.
MIN_SWEEP_RESOLUTION = 10


def davies_set_sweep(resolution: int = 50):
    """Classify the simplex of symmetric bistochastic (infinite-temperature) blocks by membership.

    Sweeps figure coordinates f = (f12, f13, f23) with f12 + f13 + f23 <= 1
    on a grid of the given resolution, f12 outermost; the coordinates map to
    the block's lower off-diagonals as (F32, F31, F21) = (f12, f13, f23), the
    level relabeling under which the printed L21 formula matches the published
    points. The whole grid is one `_membership_stack`. Yields dict rows. On
    the boundary, a rate that diverges is ±inf.

    in_cross_section marks the grid layer or layers nearest the plane sum = 1/2. With
    spacing h = 1/(resolution - 1) a point's sum is m·h for an integer index sum m, and the
    nearest layers are those with |2m - (resolution - 1)| <= 1: the plane itself when
    resolution is odd, the two layers h/2 either side of it when it is even. The test is
    on the integer m, so no rounding of the sums can move a row in or out.
    """
    if resolution < MIN_SWEEP_RESOLUTION:
        raise ValueError(f"resolution must be at least {MIN_SWEEP_RESOLUTION}")
    grid = np.linspace(0.0, 1.0, resolution)
    i12, i13, i23 = (a.ravel() for a in np.indices((resolution,) * 3))
    f12, f13, f23 = grid[i12], grid[i13], grid[i23]
    total = f12 + f13 + f23
    keep = total <= 1.0 + DOMAIN_EDGE
    f12, f13, f23, layer = f12[keep], f13[keep], f23[keep], (i12 + i13 + i23)[keep]
    rates = np.stack([f23, f13, f12], axis=-1)
    gen, member, boundary, _ = _membership_stack(rates, np.broadcast_to(_UNIFORM, rates.shape))
    columns = dict(f12=f12, f13=f13, f23=f23, member=member, boundary=boundary,
                   l21=gen[:, 1, 0], l31=gen[:, 2, 0], l32=gen[:, 2, 1],
                   in_cross_section=np.abs(2 * layer - (resolution - 1)) <= 1)
    values = [col.tolist() for col in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


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
    """The largest entry of |Phi(t1) Phi(t2) - Phi(t1 + t2)| for a shared qubit generator.

    Each map is checked as a DaviesQubit. Its superoperator has the five distinct
    entries 1 - a, b, a, 1 - b (the population block [[1 - a, b], [a, 1 - b]]) and c
    (both coherences), so the product is taken on those floats: no matrix is built.
    """
    def entries(t):
        d = DaviesQubit.from_rates(DaviesRates(rates.relaxation, rates.dephasing, rates.p, t))
        return d.a, d.b, d.c

    (a1, b1, c1), (a2, b2, c2), (a, b, c) = entries(t1), entries(t2), entries(t1 + t2)
    return max(abs((1.0 - a1) * (1.0 - a2) + b1 * a2 - (1.0 - a)),
               abs((1.0 - a1) * b2 + b1 * (1.0 - b2) - b),
               abs(a1 * (1.0 - a2) + (1.0 - b1) * a2 - a),
               abs(a1 * b2 + (1.0 - b1) * (1.0 - b2) - (1.0 - b)),
               abs(c1 * c2 - c))
