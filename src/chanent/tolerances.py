"""Every numerical tolerance of the package, one named constant per role.

The package's results are inequalities and memberships checked in floating
point, so each check allows a margin for rounding. Matrices are at most
16×16 with entries of order one: an eigensolver or a short sum leaves about
1e-15 of rounding, and the margins below sit well above that and well below
any real effect. Two margins with the same value but different roles have
two names. This module holds constants only.
"""

# -- supports, ranks and phases ---------------------------------------------------

#: Eigenvalues at or below this count as outside a matrix's support: logs and
#: powers of them are taken as 0, a probability this small as an exact zero, and
#: a matrix with such an eigenvalue as not positive definite. An eigensolver
#: leaves ~1e-16 of rounding on a zero eigenvalue, and x**q of that noise would
#: add 1e-8 per eigenvalue at q = 1/2. A true weight of 1e-12 adds at most 3e-11
#: to a von Neumann entropy, far below every tolerance.
SUPPORT_CUTOFF = 1e-12

#: Smallest eigenvalue at which the average state of `kraus_from_ensemble` still
#: counts as invertible; at or below it the construction is refused. Its inverse
#: square root, which every Kraus operator carries, is then at most 1e5.
SINGULAR_CUTOFF = 1e-10

#: An eigenvalue of a dynamical matrix at or below this adds no Kraus operator:
#: the map passed its CP check down to -CPTP_TOL, and an operator of this weight
#: moves sum K†K by at most 1e-10, inside CPTP_TOL.
KRAUS_CUTOFF = 1e-10

#: Schmidt coefficients above this count towards the Schmidt number; an SVD
#: leaves ~1e-16 on a zero singular value.
SCHMIDT_CUTOFF = 1e-10

#: A vector component at or below this is skipped when fixing a phase gauge
#: (first nonzero component real positive): a gauge fixed on rounding noise
#: would flip from one machine to the next.
PHASE_CUTOFF = 1e-12

#: The closed forms of `matfun` leave a matrix to LAPACK when a squared scale of it
#: is at or below this, or at or above its inverse: the largest |eigenvalue|² of a
#: 2×2 spectrum, eigh or root, tr|x|² in the 2×2 `root_svd`, and p = tr K²/6 of the
#: traceless part K in `spectrum3` (three eigenvalues within ~1e-95 below it). Out
#: of the band their products (a·d - |b|², det K, p^(3/2)) underflow or overflow.
#: No matrix of the package comes near either end but 0 and multiples of I.
CLOSED_FORM_FLOOR = 1e-190

# -- states and probabilities ------------------------------------------------------

#: How far an eigenvalue of a PSD matrix may fall below zero by rounding: such
#: eigenvalues are clipped to 0 by the spectral kernel and accepted in states and
#: Schur complements; below it a matrix is not PSD.
PSD_TOL = 1e-10

#: How far a quantity that must equal (or not exceed) 1 may miss it: a trace, an
#: amplitude norm, a Bloch length, a purity, the columns of u†u and the sum of a
#: probability vector. Values read back from text or built by a few
#: eigensolver passes carry ~1e-14.
NORMALIZATION_TOL = 1e-10

#: A probability this far below zero is rounding and is clipped to 0; one
#: further down (or NaN) is an error.
PROB_NEGATIVITY_TOL = 1e-14

#: Largest |rho - rho†| entry of a state, relative to its largest entry.
HERMITIAN_TOL = 1e-12

# -- channels ---------------------------------------------------------------------

#: Default TP tolerance of a Kraus list, max|sum K†K - I| (a Kraus list is CP
#: by construction), and the CP and TP tolerance of a dynamical matrix D
#: (superoperator or Choi input): no eigenvalue of D below -CPTP_TOL, and
#: max|Tr_out D - I| at most CPTP_TOL.
CPTP_TOL = 1e-9

#: TP tolerance of `channels.kraus_from_ensemble`: its operators carry
#: rho^{-1/2}, which multiplies rounding by up to 1/sqrt(SINGULAR_CUTOFF).
ENSEMBLE_CHANNEL_TOL = 1e-7

# -- inequalities and domains -----------------------------------------------------

#: How far past its bound an inequality may land before it counts as a violation:
#: far above the rounding of entropies of matrices of at most 16×16, far below a
#: real counterexample. Every inequality check of `bounds`, `qubit` and the CLI
#: suites uses it (the `davies` and `multiplicativity` slacks stay below 1e-11).
VIOLATION_SLACK = 1e-9

#: An ensemble with H(P) - chi below this is skipped by the hierarchy: its
#: normalized scale would divide rounding by rounding.
HIERARCHY_SKIP_GAP = 1e-10

#: Weight rho1 may put on the kernel of rho2 before D(rho1||rho2) is infinite.
SUPPORT_LEAK = 1e-10

#: How far a parameter may pass the edge of its closed domain (or of a region) by
#: the rounding of the few O(1) operations that produced it, and how close to an
#: edge it counts as on it.
DOMAIN_EDGE = 1e-12

#: A Bloch vector shorter than this has no direction; the z axis stands in.
BLOCH_NULL_LENGTH = 1e-14

# -- Davies maps ------------------------------------------------------------------

#: In the closed forms of Davies qutrit maps (the logarithm of a 3×3 stochastic
#: block, L21), a coefficient, projector entry, rate, discriminant, eigenvalue or
#: spectral gap at most this in magnitude counts as zero: a term drops out by
#: 0·log 0 = 0, a zero eigenvalue puts the block on the boundary, or the closed
#: form is undefined. An eigenvalue below its negative is negative.
DAVIES_COEFF_CUTOFF = 1e-12

#: Within this of the removable singularity at x + y = 1, log(λ)/(1 - λ) in L21
#: is taken at its limit -1; the limit is then off by at most 5e-10.
DAVIES_LIMIT_BAND = 1e-9

#: A generator rate this far below zero still counts as nonnegative in the
#: Davies membership test.
MEMBERSHIP_TOL = 1e-9

# -- the q < 1 probe search -------------------------------------------------------

#: Nelder-Mead stops when its simplex is this small in the input vector ...
NELDER_MEAD_XATOL = 1e-9
#: ... and its values differ by at most this.
NELDER_MEAD_FATOL = 1e-12

#: A Nelder-Mead point shorter than this has no direction; the objective returns
#: the maximal entropy log n there.
NULL_VECTOR_NORM = 1e-12
