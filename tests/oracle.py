"""High-precision references on the standard library's `decimal`, at 50 digits.

Each function takes the float inputs a kernel sees, converts them exactly,
and returns the answer for those inputs to far more digits than a double
holds, so a test can bound the kernel's own error in units of eps.
"""

from decimal import Decimal, localcontext

from chanent.matfun import SUPPORT_CUTOFF

DIGITS = 50
# The bisection of `max_bloch_radius` stops once its bracket is this narrow, relative
# to where it started: far below eps, and far above the 1e-50 at which a near-singular
# Cramer solve would lose digits.
_BRACKET = Decimal("1e-32")


def decimal_entropy(p, kind: str, q: float) -> Decimal:
    """Rényi or Tsallis entropy of the weights above SUPPORT_CUTOFF, renormalized."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        kept = [Decimal(float(x)) for x in p if x > SUPPORT_CUTOFF]
        total, q = sum(kept), Decimal(q)
        power = sum((x / total) ** q for x in kept)
        return power.ln() / (1 - q) if kind == "renyi" else (1 - power) / (q - 1)


def max_bloch_radius(w, kappa) -> Decimal:
    """max |W r + kappa| over unit vectors r, for a real 3×3 W and 3-vector kappa.

    With A = WᵀW and b = Wᵀkappa, the maximum of |W r + kappa|² on the sphere is
    the minimum of g(lam) = lam + |kappa|² + bᵀ(lam I - A)⁻¹b over lam I - A
    positive definite (the trust-region subproblem has no duality gap; Moré &
    Sorensen 1983). g' = 1 - |(lam I - A)⁻¹b|², so the minimizer is the least lam
    with [lam I - A positive definite, by its leading minors] and
    [|(lam I - A)⁻¹b| <= 1, by Cramer's rule]: a bisection finds it from above,
    and g is read at the bracket's upper end. In the hard case, b orthogonal to
    the top eigenvectors of A, that lam is A's top eigenvalue, approached as a limit.
    b = 0 (kappa = 0, the Pauli case, among others) is apart: the second test
    always holds, and the maximum is sqrt(lam + |kappa|²), lam the top eigenvalue of A.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        w = [[Decimal(float(x)) for x in row] for row in w]
        kappa = [Decimal(float(x)) for x in kappa]
        (a00, a01, a02), (_, a11, a12), (_, _, a22) = [
            [sum(w[k][i] * w[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
        b0, b1, b2 = [sum(w[k][i] * kappa[k] for k in range(3)) for i in range(3)]
        b_zero = not (b0 or b1 or b2)

        def cramer(lam):
            """The leading minors of M = lam I - A, and det(M) M⁻¹b (M and its adjugate are symmetric)."""
            m00, m11, m22 = lam - a00, lam - a11, lam - a22
            c00, c11, c22 = m11 * m22 - a12 * a12, m00 * m22 - a02 * a02, m00 * m11 - a01 * a01
            c01, c02, c12 = a01 * m22 + a02 * a12, a01 * a12 + a02 * m11, m00 * a12 + a01 * a02
            det = m00 * c00 - a01 * c01 - a02 * c02
            x = (c00 * b0 + c01 * b1 + c02 * b2, c01 * b0 + c11 * b1 + c12 * b2, c02 * b0 + c12 * b1 + c22 * b2)
            return (m00, c22, det), x

        def passes(lam):
            (m00, minor2, det), x = cramer(lam)
            if not (m00 > 0 and minor2 > 0 and det > 0):
                return False
            return b_zero or x[0] * x[0] + x[1] * x[1] + x[2] * x[2] <= det * det

        lo = Decimal(0)  # A is PSD, so lam I - A is not positive definite at 0
        hi = a00 + a11 + a22 + (b0 * b0 + b1 * b1 + b2 * b2).sqrt() + 1  # above A's top eigenvalue + |b|
        width = hi * _BRACKET
        while hi - lo > width:
            mid = (lo + hi) / 2
            if passes(mid):
                hi = mid
            else:
                lo = mid
        value = hi + sum(k * k for k in kappa)
        if not b_zero:
            (*_, det), x = cramer(hi)
            value += (b0 * x[0] + b1 * x[1] + b2 * x[2]) / det
        return value.sqrt()


def _hermitian2(h) -> tuple[Decimal, Decimal, Decimal, Decimal]:
    """(a, d, Re b, Im b) of the Hermitian part of a 2×2 matrix, b = (h01 + conj h10)/2, exactly."""
    a, d = Decimal(float(h[0][0].real)), Decimal(float(h[1][1].real))
    br = (Decimal(float(h[0][1].real)) + Decimal(float(h[1][0].real))) / 2
    bi = (Decimal(float(h[0][1].imag)) - Decimal(float(h[1][0].imag))) / 2
    return a, d, br, bi


def eigenvalues2(h) -> tuple[Decimal, Decimal]:
    """Ascending eigenvalues m ∓ sqrt(((a - d)/2)² + |b|²), m = (a + d)/2, of the Hermitian
    part of a 2×2 matrix."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        a, d, br, bi = _hermitian2(h)
        m, r = (a + d) / 2, (((a - d) / 2) ** 2 + br * br + bi * bi).sqrt()
        return m - r, m + r


def psd_root2(h, w=None) -> list:
    """The principal square root of the Hermitian part of a 2×2 PSD matrix, as rows of
    (real, imaginary) pairs, (h + sI)/t. By Levinger's formula s = sqrt(det) and
    t = sqrt(tr + 2 s); where det < 0, a rounding of the input's own, the root of the matrix
    with its negative eigenvalue clipped, sqrt(lambda1) (h - lambda0 I)/(lambda1 - lambda0):
    s = -lambda0 and t = (lambda1 - lambda0)/sqrt(lambda1) on eigenvalues2. Given the two
    eigenvalues w, unclipped, the expression of matfun._psd_root reads them instead: with
    r = sqrt(max(w, 0)) and m = min(w0, 0), s = r0 r1 - m and t = r0 + r1 - m/r1."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        a, d, br, bi = _hermitian2(h)
        if w is not None:
            m = min(Decimal(float(w[0])), Decimal(0))
            r0, r1 = (max(Decimal(float(x)), Decimal(0)).sqrt() for x in w)
            s, t = r0 * r1 - m, r0 + r1 - m / r1
        elif a * d - br * br - bi * bi >= 0:
            s = (a * d - br * br - bi * bi).sqrt()
            t = (a + d + 2 * s).sqrt()
        else:
            lam0, lam1 = eigenvalues2(h)
            s, t = -lam0, (lam1 - lam0) / lam1.sqrt()
        return [[((a + s) / t, Decimal(0)), (br / t, bi / t)], [(br / t, -bi / t), ((d + s) / t, Decimal(0))]]
