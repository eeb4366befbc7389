import numpy as np
import pytest
from hypothesis import given, settings

from chanent import matfun
from chanent.sampling import complex_gaussian, haar_unitary, hs_random_density, stream_rng
from tests_support import psd_stacks


def rand_complex(rng, shape):
    return complex_gaussian(rng, shape)


class TestReshuffle:
    def test_identity_channel_superoperator(self):
        # superoperator of the qubit identity channel is I4; its reshuffling
        # is the unnormalized Choi matrix with corner ones
        r = matfun.reshuffle(np.eye(4))
        expected = np.zeros((4, 4))
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            expected[i, j] = 1.0
        np.testing.assert_allclose(r, expected)

    def test_involution(self):
        rng = stream_rng(1, 0)
        m = rand_complex(rng, (9, 9))
        np.testing.assert_allclose(matfun.reshuffle(matfun.reshuffle(m)), m)

    def test_index_oracle(self):
        rng = stream_rng(1, 1)
        m = rand_complex(rng, (4, 4))
        r = matfun.reshuffle(m)
        n = 2
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        assert r[i * n + j, k * n + l] == m[i * n + k, j * n + l]

    def test_rejects_non_square_dimension(self):
        with pytest.raises(ValueError):
            matfun.reshuffle(np.eye(6))


class TestPartialTrace:
    def test_product_factorization(self):
        rng = stream_rng(2, 0)
        a = rand_complex(rng, (2, 2))
        b = rand_complex(rng, (3, 3))
        got = matfun.partial_trace(np.kron(a, b), (2, 3), 2)
        np.testing.assert_allclose(got, np.trace(b) * a, atol=1e-12)
        got1 = matfun.partial_trace(np.kron(a, b), (2, 3), 1)
        np.testing.assert_allclose(got1, np.trace(a) * b, atol=1e-12)

    def test_bell_projector(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        proj = np.outer(bell, bell.conj())
        np.testing.assert_allclose(matfun.partial_trace(proj, (2, 2), 1), np.eye(2) / 2, atol=1e-12)

    def test_summation_oracle(self):
        rng = stream_rng(2, 1)
        m = rand_complex(rng, (6, 6))
        m = m + m.conj().T
        got = matfun.partial_trace(m, (2, 3), 2)
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for k in range(2):
                for j in range(3):
                    oracle[i, k] += m[3 * i + j, 3 * k + j]
        np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_trace_preserved(self):
        rng = stream_rng(2, 2)
        m = rand_complex(rng, (6, 6))
        assert abs(np.trace(matfun.partial_trace(m, (3, 2), 1)) - np.trace(m)) < 1e-12

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError):
            matfun.partial_trace(np.eye(6), (2, 2), 1)


class TestKron:
    def test_identity(self):
        np.testing.assert_allclose(matfun.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_units(self):
        e01 = np.zeros((2, 2))
        e01[0, 1] = 1
        e10 = np.zeros((2, 2))
        e10[1, 0] = 1
        k = matfun.kron(e01, e10)
        expected = np.zeros((4, 4))
        expected[0 * 2 + 1, 1 * 2 + 0] = 1  # row (0,1), column (1,0)
        np.testing.assert_allclose(k, expected)

    def test_mixed_product(self):
        rng = stream_rng(3, 0)
        a, b, c, d = (rand_complex(rng, (2, 2)) for _ in range(4))
        lhs = matfun.kron(a, b) @ matfun.kron(c, d)
        rhs = matfun.kron(a @ c, b @ d)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matfun.psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(matfun.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_multiply_back(self):
        rng = stream_rng(3, 1)
        g = rand_complex(rng, (4, 4))
        h = g @ g.conj().T
        s = matfun.psd_sqrt(h)
        np.testing.assert_allclose(s @ s, h, atol=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(matfun.NotPSDError):
            matfun.psd_sqrt(np.diag([1.0, -1.0]))


class TestPolar:
    def test_unitary_input(self):
        u = haar_unitary(3, stream_rng(4, 0))
        p, w = matfun.polar(u)
        np.testing.assert_allclose(p, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(w, u, atol=1e-12)

    def test_diagonal(self):
        p, w = matfun.polar(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(p, np.diag([2.0, 3.0]), atol=1e-12)
        np.testing.assert_allclose(w, np.eye(2), atol=1e-12)

    def test_reconstruction(self):
        rng = stream_rng(4, 1)
        x = rand_complex(rng, (4, 4))
        p, w = matfun.polar(x)
        np.testing.assert_allclose(p @ w, x, atol=1e-10)
        np.testing.assert_allclose(w.conj().T @ w, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(p, matfun.psd_sqrt(x @ x.conj().T), atol=1e-10)

    def test_rank_deficient(self):
        x = np.zeros((3, 3), dtype=complex)
        x[0, 0] = 2.0
        p, w = matfun.polar(x)
        np.testing.assert_allclose(w.conj().T @ w, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(p @ w, x, atol=1e-12)


class TestSqrtProduct:
    def test_same_state(self):
        rho = hs_random_density(3, stream_rng(5, 0))
        np.testing.assert_allclose(matfun.sqrt_product(rho, rho), rho, atol=1e-9)

    def test_commuting_diagonals(self):
        a = np.diag([0.7, 0.3])
        b = np.diag([0.2, 0.8])
        got = matfun.sqrt_product(a, b)
        np.testing.assert_allclose(got, np.diag(np.sqrt([0.14, 0.24])), atol=1e-9)

    def test_trace_is_root_fidelity(self):
        from chanent.states import fidelity

        for t in range(5):
            rng = stream_rng(5, t + 1)
            r1 = hs_random_density(2, rng)
            r2 = hs_random_density(2, rng)
            tr = np.trace(matfun.sqrt_product(r1, r2))
            assert abs(abs(tr) ** 2 - fidelity(r1, r2)) < 1e-8

    def test_singular_rho_needs_regularization(self):
        singular = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.eye(2, dtype=complex) / 2
        with pytest.raises(matfun.NotPSDError):
            matfun.sqrt_product(singular, sigma, eps=0)
        # the regularized path stays close to the commuting-limit answer
        out = matfun.sqrt_product(singular, sigma)
        assert abs(np.trace(out) - np.sqrt(0.5)) < 1e-4


class TestSchurPositive:
    def test_trivial_true(self):
        assert matfun.schur_positive(np.eye(2), np.zeros((2, 2)), np.eye(2))

    def test_sqrt_product_block(self):
        # the block matrix [[rho1, sqrt(rho1 rho2)], [sqrt(rho2 rho1), rho2]]
        # has vanishing Schur complement
        rng = stream_rng(6, 0)
        r1 = hs_random_density(2, rng)
        r2 = hs_random_density(2, rng)
        b = matfun.sqrt_product(r1, r2)
        assert matfun.schur_positive(r1, b, r2)

    def test_false_case_matches_eigensolver(self):
        a, b, c = np.eye(2), np.eye(2), np.eye(2) / 4
        assert not matfun.schur_positive(a, b, c)
        block = np.block([[a, b], [b.conj().T, c]])
        assert np.linalg.eigvalsh(block).min() < 0

    def test_precondition(self):
        with pytest.raises(matfun.NotPSDError):
            matfun.schur_positive(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))

    def test_agreement_random(self):
        rng = stream_rng(6, 1)
        for _ in range(1000):
            a = rand_complex(rng, (2, 2))
            a = a @ a.conj().T + 0.1 * np.eye(2)
            b = rand_complex(rng, (2, 2))
            c = rand_complex(rng, (2, 2))
            c = c @ c.conj().T
            block = np.block([[a, b], [b.conj().T, c]])
            direct = np.linalg.eigvalsh(block).min() >= -1e-10
            assert matfun.schur_positive(a, b, c) == direct


def random_balance_generator(rng, p=(0.5, 0.3, 0.2)):
    low = 0.05 + 0.5 * rng.random(3)
    gen = np.zeros((3, 3))
    gen[1, 0], gen[2, 0], gen[2, 1] = low
    gen[0, 1] = gen[1, 0] * p[0] / p[1]
    gen[0, 2] = gen[2, 0] * p[0] / p[2]
    gen[1, 2] = gen[2, 1] * p[1] / p[2]
    for j in range(3):
        gen[j, j] = -(gen[:, j].sum() - gen[j, j])
    return gen


class TestStochastic3Log:
    def test_identity(self):
        log_f, spectrum = matfun.stochastic3_log(np.eye(3))
        np.testing.assert_allclose(log_f, np.zeros((3, 3)))
        assert spectrum == (1.0, 1.0, 1.0)

    def test_recovers_generator(self):
        rng = stream_rng(8, 0)
        gen = random_balance_generator(rng)
        f = matfun.matrix_exp(gen * 0.7)
        log_f, _ = matfun.stochastic3_log(f)
        np.testing.assert_allclose(log_f, 0.7 * gen, atol=1e-9)
        np.testing.assert_allclose(matfun.matrix_exp(log_f), f, atol=1e-9)

    def test_bistochastic_boundary_point(self):
        # off-diagonals {0.5, 0, 0}: spectrum {1, 1, 0} from the
        # characteristic polynomial of the assembled matrix
        f = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        x, y = matfun.stochastic3_xy(f)
        assert abs(x - 0.5) < 1e-12 and abs(y - 0.5) < 1e-12
        coeffs = np.poly(f)
        roots = np.sort(np.roots(coeffs).real)
        np.testing.assert_allclose(roots, [0.0, 1.0, 1.0], atol=1e-12)
        with pytest.raises(matfun.DegenerateSpectrumError):
            matfun.stochastic3_log(f)

    def test_complex_spectrum_rejected(self):
        # a rotation-heavy stochastic matrix has a complex eigenvalue pair
        f = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=float)
        with pytest.raises(matfun.NoRealLogError):
            matfun.stochastic3_log(f)

    @pytest.mark.parametrize("fn", [matfun.stochastic3_log, matfun.stochastic3_xy])
    def test_complex_block_rejected(self, fn):
        # a float cast would drop the imaginary part and return the identity's answer
        f = np.eye(3, dtype=complex)
        np.testing.assert_equal(fn(f), fn(np.eye(3)))  # a zero imaginary part is fine
        for bad in (0.5j, complex(0.0, np.nan)):
            f[0, 1] = bad
            with pytest.raises(ValueError, match="expected a real matrix"):
                fn(f)


class TestMatrixExp:
    def test_zero(self):
        np.testing.assert_allclose(matfun.matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            matfun.matrix_exp(np.diag([1.0, 2.0])), np.diag(np.exp([1.0, 2.0]))
        )

    def test_taylor_series_oracle(self):
        rng = stream_rng(9, 0)
        m = 0.5 * rand_complex(rng, (3, 3))
        series = np.eye(3, dtype=complex)
        term = np.eye(3, dtype=complex)
        for k in range(1, 40):
            term = term @ m / k
            series += term
        np.testing.assert_allclose(matfun.matrix_exp(m), series, atol=1e-10)


class TestSpectral:
    def test_stack_axes_are_kept(self):
        # hermitizing with .T would reverse the stack axes; swapaxes keeps them
        rng = stream_rng(5, 0)
        hs = np.stack([hs_random_density(2, rng) for _ in range(3)])
        out = matfun.psd_sqrt(hs)
        assert out.shape == hs.shape
        for h, s in zip(hs, out):
            np.testing.assert_allclose(s @ s, h, atol=1e-12)

    def test_function_of_spectrum(self):
        h = np.diag([4.0, 9.0])
        np.testing.assert_allclose(matfun.spectral(h, lambda w: w**2), np.diag([16.0, 81.0]))

    def test_negative_eigenvalue_raises_in_a_stack(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1e-3])])
        with pytest.raises(matfun.NotPSDError):
            matfun.spectral(stack, np.sqrt)

    def test_small_negatives_are_clipped(self):
        out = matfun.psd_sqrt(np.diag([1.0, -1e-12]))
        np.testing.assert_array_equal(out, np.diag([1.0, 0.0]))

    def test_inverse_sqrt(self):
        h = np.diag([4.0, 0.25])
        np.testing.assert_allclose(matfun.psd_inv_sqrt(h), np.diag([0.5, 2.0]))
        with pytest.raises(matfun.NotPSDError):
            matfun.psd_inv_sqrt(np.diag([1.0, 0.0]))

    def test_power_and_log_vanish_off_support(self):
        h = np.diag([0.5, matfun.SUPPORT_CUTOFF, 0.0])
        np.testing.assert_allclose(matfun.psd_power(h, -1.0), np.diag([2.0, 0.0, 0.0]))
        np.testing.assert_allclose(matfun.psd_log(h), np.diag([np.log(0.5), 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        # an eigensolver maps [[1, 0], [0, nan]] to finite eigenvalues [0, -0]
        h = np.array([[1.0, 0.0], [0.0, bad]])
        for fn in (matfun.psd_sqrt, matfun.psd_inv_sqrt, matfun.spectrum,
                   lambda m: matfun.spectral(m, np.sqrt)):
            with pytest.raises(matfun.NonFiniteError):
                fn(h)
        with pytest.raises(matfun.NonFiniteError):
            matfun.psd_sqrt(np.full((2, 2), bad))

    def test_one_bad_matrix_fails_the_stack(self):
        stack = np.stack([np.eye(2), np.eye(2), np.full((2, 2), np.nan)])
        with pytest.raises(matfun.NonFiniteError):
            matfun.psd_sqrt(stack)

    @settings(max_examples=60, deadline=None)
    @given(psd_stacks())
    def test_stack_equals_loop(self, hs):
        for f in (np.sqrt, lambda w: w * np.log(np.where(w > 0, w, 1.0))):
            stacked = matfun.spectral(hs, f)
            looped = np.stack([matfun.spectral(h, f) for h in hs])
            np.testing.assert_array_equal(stacked, looped)

    @settings(max_examples=60, deadline=None)
    @given(psd_stacks())
    def test_sqrt_squares_back(self, hs):
        s = matfun.psd_sqrt(hs)
        np.testing.assert_allclose(s @ s, hs, atol=1e-9)


class TestRegularizeSingular:
    def test_only_singular_matrices_move(self):
        stack = np.stack([np.diag([0.5, 0.5]), np.diag([1.0, 0.0])]).astype(complex)
        out = matfun.regularize_singular(stack, eps=1e-9)
        np.testing.assert_array_equal(out[0], stack[0])
        np.testing.assert_allclose(out[1], np.diag([1.0 - 0.5e-9, 0.5e-9]), rtol=0, atol=1e-15)

    def test_disabled_regularization_raises(self):
        with pytest.raises(matfun.NotPSDError):
            matfun.regularize_singular(np.diag([1.0, 0.0]), eps=0)
