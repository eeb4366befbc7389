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

#: Smallest eigenvalue at which a state still counts as invertible; a state at
#: or below it is mixed with REGULARIZATION_EPS·I/N before it is inverted, and
#: its inverse square root (or, in kraus_from_ensemble, the state) is refused.
#: Its inverse is then at most 1e10, so rounding in an inverted product stays
#: below 1e-6.
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

#: Default CP and TP tolerance of a channel: no Choi (Kraus input) or dynamical
#: matrix (superoperator input) eigenvalue below -CPTP_TOL, and
#: max|sum K†K - I| (or |Tr_out D - I|) at most CPTP_TOL.
CPTP_TOL = 1e-9

#: CP/TP tolerance of `channels.kraus_from_ensemble`: its operators carry
#: rho^{-1/2}, which multiplies rounding by up to 1/sqrt(SINGULAR_CUTOFF).
ENSEMBLE_CHANNEL_TOL = 1e-7

#: Trace and Tr_2 marginal tolerance of a Choi state given to `Channel.from_choi`.
CHOI_TOL = 1e-8

#: Weight eps of I/N mixed into a singular state before it is inverted: small
#: enough to move an entropy by ~1e-8, large enough to keep the inverse finite.
REGULARIZATION_EPS = 1e-9

# -- inequalities and domains -----------------------------------------------------

#: How far past its bound an inequality may land before it counts as a violation:
#: far above the rounding of entropies of matrices of at most 16×16, far below a
#: real counterexample. Every inequality check of `bounds`, `qubit` and the CLI
#: suites uses it.
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

#: In the closed forms of Davies maps (the logarithm of a 3×3 stochastic block,
#: L21, the qubit minimizer), a coefficient, projector entry, rate, discriminant
#: or spectral gap at most this counts as zero: a term drops out by 0·log 0 = 0,
#: or the degenerate branch is taken.
DAVIES_COEFF_CUTOFF = 1e-12

#: Within this of the removable singularity at x + y = 1, log(λ)/(1 - λ) in L21
#: is taken at its limit -1; the limit is then off by at most 5e-10.
DAVIES_LIMIT_BAND = 1e-9

#: A generator rate this far below zero still counts as nonnegative in the
#: Davies membership test.
MEMBERSHIP_TOL = 1e-9

#: Largest |exp(L) - F| entry at which an eigensolver logarithm L of a degenerate
#: block F is accepted as real.
DAVIES_LOG_RESIDUAL = 1e-8

#: Step towards the identity that moves a zero eigenvalue of a stochastic block
#: into (0, 1), where the closed-form log is defined; entries that stay bounded
#: move by O(1e-7), entries that diverge keep their sign.
DAVIES_PERTURBATION = 1e-7

#: Largest gap between the closed-form and the numerical minimal output entropy of
#: a Davies qubit map that the `davies` suite accepts.
DAVIES_MINIMIZER_GAP = 1e-6

#: Largest |max 2-norm of Phi ⊗ Omega - product of the factors'| that the
#: `multiplicativity` suite accepts.
MULTIPLICATIVITY_GAP = 2e-4

# -- the q < 1 probe search -------------------------------------------------------

#: Nelder-Mead stops when its simplex is this small in the input vector ...
NELDER_MEAD_XATOL = 1e-9
#: ... and its values differ by at most this.
NELDER_MEAD_FATOL = 1e-12

#: A Nelder-Mead point shorter than this has no direction; the objective returns
#: the maximal entropy log n there.
NULL_VECTOR_NORM = 1e-12
