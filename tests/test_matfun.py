import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import davies, matfun
from chanent.tolerances import PSD_TOL
from chanent.sampling import complex_gaussian, haar_unitary, hs_random_density, random_pure_state, stream_rng
from chanent.states import pure_state
from tests_support import matrix_exp, polar_2x2, psd_stacks, record_shapes, stack_from_spectra


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

    def test_singular_rho_is_exact(self):
        # the polar form needs no inverse: the commuting limit comes out to rounding
        singular = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.eye(2, dtype=complex) / 2
        out = matfun.sqrt_product(singular, sigma)
        assert abs(np.trace(out) - np.sqrt(0.5)) < 1e-15


def _qubit_of_rank(rank, rng):
    return hs_random_density(2, rng) if rank == 2 else pure_state(random_pure_state(2, rng))


class TestRootSvd:
    @pytest.mark.parametrize("ranks", [(2, 2), (2, 1), (1, 2), (1, 1)])
    def test_qubit_polar_factor_is_the_closed_form(self, ranks):
        # (2, 1) and (1, 2) are the two products around a pure state between mixed ones
        rng = stream_rng(7, sum(ranks) + ranks[0])
        pairs = np.array([[_qubit_of_rank(r, rng) for r in ranks] for _ in range(50)])
        x = matfun.psd_sqrt(pairs[:, 0]) @ matfun.psd_sqrt(pairs[:, 1])
        _, w = matfun.root_svd(x)
        for xi, wi in zip(x, w):
            np.testing.assert_allclose(wi, polar_2x2(xi), rtol=0, atol=1e-13)
        np.testing.assert_allclose(np.linalg.det(w), 1.0, rtol=0, atol=1e-14)

    # rank 0, rank 1 (also with a tiny second eigenvalue), near-degenerate and generic qubit
    # spectra, and one whose products with itself are subnormal
    _EDGE_SPECTRA = np.array([[0.0, 0.0], [0.0, 0.7], [0.0, 1e-10], [1e-10, 0.6],
                              [0.25, 0.25 + 1e-11], [0.5, 0.5], [0.1, 0.9], [1e-315, 3e-316]])

    @settings(max_examples=60, deadline=None)
    @given(psd_stacks(dims=st.just(2)))
    def test_qubit_trace_norm_is_the_svd_sum(self, hs):
        roots = matfun.psd_sqrt(np.concatenate([stack_from_spectra(self._EDGE_SPECTRA, 3), hs]))
        x = (roots[:, None] @ roots[None]).reshape(-1, 2, 2)  # every ordered pair, each with itself
        tr, w = matfun.root_svd(x)
        np.testing.assert_allclose(tr, np.linalg.svd(x, compute_uv=False).sum(axis=-1), rtol=0, atol=1e-14)
        np.testing.assert_allclose(w @ w.conj().swapaxes(-1, -2), np.broadcast_to(np.eye(2), w.shape),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(np.linalg.det(w), 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_is_trace_zero_and_identity(self, n):
        # x = 0: an orthogonal pure pair, with no kernel-free direction to fix W
        tr, w = matfun.root_svd(np.zeros((4, n, n), dtype=complex))
        np.testing.assert_array_equal(tr, np.zeros(4))
        np.testing.assert_array_equal(w, np.broadcast_to(np.eye(n), (4, n, n)))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, n, bad):
        x = np.stack([np.eye(n, dtype=complex)] * 3)
        x[1, 0, n - 1] = bad
        with pytest.raises(matfun.NonFiniteError):
            matfun.root_svd(x)

    @settings(max_examples=40, deadline=None)
    @given(psd_stacks())
    def test_stack_equals_loop(self, hs):
        x = matfun.psd_sqrt(hs) @ matfun.psd_sqrt(hs[::-1])
        s, w = matfun.root_svd(x)
        for xi, si, wi in zip(x, s, w):
            s1, w1 = matfun.root_svd(xi)
            np.testing.assert_array_equal(si, s1)
            np.testing.assert_array_equal(wi, w1)


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
    # the logarithm of a 3×3 stochastic block with detailed balance, as davies.membership takes it
    def test_recovers_generator(self):
        rng = stream_rng(8, 0)
        gen = random_balance_generator(rng)
        f = matrix_exp(gen * 0.7)
        block = davies.DaviesQutritBlock(f21=f[1, 0], f31=f[2, 0], f32=f[2, 1], p=(0.5, 0.3, 0.2))
        log_f = davies.membership(block).generator
        np.testing.assert_allclose(log_f, 0.7 * gen, atol=1e-9)
        np.testing.assert_allclose(matrix_exp(log_f), f, atol=1e-9)

    def test_bistochastic_boundary_point(self):
        # off-diagonals {0.5, 0, 0}: spectrum {1, 1, 0} from the
        # characteristic polynomial of the assembled matrix; the zero mode
        # (1, -1, 0)/sqrt(2) has coefficient -1/2 at (2, 1), so L21 = +inf
        f = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        coeffs = np.poly(f)
        roots = np.sort(np.roots(coeffs).real)
        np.testing.assert_allclose(roots, [0.0, 1.0, 1.0], atol=1e-12)
        block = davies.DaviesQutritBlock(f21=0.5, f31=0.0, f32=0.0)
        np.testing.assert_array_equal(block.stochastic_block(), f)
        res = davies.membership(block)
        assert res.is_member and res.boundary and res.generator is None
        assert res.l21 == math.inf
        assert abs(res.l31) <= 1e-12 and abs(res.l32) <= 1e-12


class TestMatrixExp:
    def test_zero(self):
        np.testing.assert_allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            matrix_exp(np.diag([1.0, 2.0])), np.diag(np.exp([1.0, 2.0]))
        )

    def test_taylor_series_oracle(self):
        rng = stream_rng(9, 0)
        m = 0.5 * rand_complex(rng, (3, 3))
        series = np.eye(3, dtype=complex)
        term = np.eye(3, dtype=complex)
        for k in range(1, 40):
            term = term @ m / k
            series += term
        np.testing.assert_allclose(matrix_exp(m), series, atol=1e-10)


class TestHermitize:
    @pytest.mark.parametrize("m", [stream_rng(16, 0).random((3, 3)), stream_rng(16, 0).random((4, 2, 2)),
                                   np.arange(9).reshape(3, 3)], ids=["3x3", "stack", "integer"])
    def test_real_input_stays_real(self, m):
        h = matfun.hermitize(m)
        assert h.dtype == np.float64
        assert h.tobytes() == ((m + m.swapaxes(-1, -2)) / 2).tobytes()

    def test_complex_input_is_the_hermitian_part(self):
        m = rand_complex(stream_rng(16, 1), (3, 4, 4))
        h = matfun.hermitize(m)
        assert h.tobytes() == ((m + m.conj().swapaxes(-1, -2)) / 2).tobytes()
        assert h.tobytes() == matfun.hermitize(h).tobytes()  # idempotent, bit for bit
        assert np.array_equal(h, h.conj().swapaxes(-1, -2))  # exactly Hermitian


class TestInputsAreNotWritten:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["real", "complex", "integer", "read-only"])
    def test_spectrum(self, kind, n):
        h = rand_complex(stream_rng(17, n), (5, n, n))
        h = {"real": h.real, "complex": h, "integer": np.round(8 * h.real).astype(int),
             "read-only": h.copy()}[kind]
        h.flags.writeable = kind != "read-only"
        before = h.tobytes()
        w = matfun.spectrum(h)
        assert h.tobytes() == before
        np.testing.assert_allclose(w, np.linalg.eigvalsh((h + h.conj().swapaxes(-1, -2)) / 2), rtol=0, atol=1e-13)

    def test_padded_spectrum(self):
        rng = stream_rng(17, 9)
        blocks = [rand_complex(rng, (3, 3)), rand_complex(rng, (2, 4, 4)), rand_complex(rng, (2, 2)).real]
        before = [b.tobytes() for b in blocks]
        w = matfun._padded_spectrum(blocks)
        assert [b.tobytes() for b in blocks] == before
        assert w.shape == (4, 4)


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

    def test_power_and_log_vanish_off_support(self):
        h = np.diag([0.5, matfun.SUPPORT_CUTOFF, 0.0])
        np.testing.assert_allclose(matfun.psd_power(h, -1.0), np.diag([2.0, 0.0, 0.0]))
        np.testing.assert_allclose(matfun.psd_log(h), np.diag([np.log(0.5), 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        # an eigensolver maps [[1, 0], [0, nan]] to finite eigenvalues [0, -0]
        h = np.array([[1.0, 0.0], [0.0, bad]])
        for fn in (matfun.psd_sqrt, matfun.spectrum, matfun.eigh,
                   lambda m: matfun.spectral(m, np.sqrt)):
            with pytest.raises(matfun.NonFiniteError):
                fn(h)
        with pytest.raises(matfun.NonFiniteError):
            matfun.psd_sqrt(np.full((2, 2), bad))
        for fn in (matfun.spectrum3, matfun.eigh):
            with pytest.raises(matfun.NonFiniteError):
                fn(np.diag([1.0, 0.0, bad]))

    def test_one_by_one_spectrum_is_its_real_entry(self, monkeypatch):
        # LAPACK reads only the real part of a 1×1 matrix: the entry gives the same
        # bits without an eigvalsh call, and NaN or inf still raises
        hs = rand_complex(stream_rng(5, 3), (4, 3, 1, 1))
        cases = [hs, hs[0, 0], hs.real]
        want = [np.linalg.eigvalsh(h) for h in cases]
        calls = record_shapes(monkeypatch, np.linalg, ("eigvalsh",))
        for h, w in zip(cases, want):
            got = matfun.spectrum(h)
            assert got.shape == w.shape and got.dtype == w.dtype and got.tobytes() == w.tobytes()
        assert calls == {"eigvalsh": []}
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
            h = hs.copy()
            h[1, 2, 0, 0] = bad
            with pytest.raises(matfun.NonFiniteError):
                matfun.spectrum(h)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_eigh_keeps_negative_eigenvalues(self, n):
        # the unchecked kernel: an indefinite matrix's spectrum comes back unclipped
        spectra = np.array([np.linspace(-0.5, 1.0, n), np.linspace(-1e-3, 1.0, n)])
        hs = stack_from_spectra(spectra, n)
        w, v = matfun.eigh(hs)
        np.testing.assert_allclose(w, spectra, rtol=0, atol=1e-14)
        assert (w[:, 0] < 0.0).all()
        np.testing.assert_allclose(matfun.from_eigh(w, v), hs, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_psd_eigh_is_eigh_clipped(self, n):
        # psd_eigh(h) is eigh(h) with w clipped at 0, bit for bit, small negatives included
        rng = stream_rng(5, n)
        spectra = np.array([np.linspace(-PSD_TOL / 2, 1.0, n), np.linspace(-PSD_TOL / 1000, 1.0, n)])
        hs = np.concatenate([stack_from_spectra(spectra, n),
                             np.stack([hs_random_density(n, rng) for _ in range(4)]),
                             np.stack([pure_state(random_pure_state(n, rng)) for _ in range(4)])])
        w, v = matfun.eigh(hs)
        assert (w[:2, 0] < 0.0).all()
        pw, pv = matfun.psd_eigh(hs)
        assert pw.tobytes() == np.maximum(w, 0.0).tobytes()
        assert pv.tobytes() == v.tobytes()

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


def test_only_matfun_calls_a_hermitian_eigensolver():
    # every Hermitian eigendecomposition goes through matfun's kernel, with its one
    # choice of hermitizing, closed forms and finiteness check
    solvers = {"eigh", "eigvalsh", "eig", "eigvals"}
    found = []
    for path in sorted(Path(matfun.__file__).parent.glob("*.py")):
        if path.name == "matfun.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in solvers:
                named = ast.unparse(node.value).endswith("linalg")
            elif isinstance(node, ast.ImportFrom):
                imported = {a.name for a in node.names}
                named = (node.module or "").endswith("linalg") and bool(solvers & imported)
            else:
                continue
            if named:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "eigensolver calls outside matfun.py: " + ", ".join(found)


# Trace-one spectra that stress a closed-form eigensolver: generic ones, a near-double
# pair and a near-triple cluster with gaps of 1e-2 to 1e-16, one or two exact zeros, and
# a subnormal eigenvalue. At n = 2 a near-triple is a near-double and two zeros are one.
SPECTRUM_FAMILIES = ("random", "near-double", "near-triple", "one zero", "two zeros", "subnormal")


@st.composite
def _family_spectrum(draw, family, n):
    x = np.array([draw(st.floats(1e-3, 1.0)) for _ in range(n)])
    gaps = [10.0 ** -draw(st.floats(2.0, 16.0)) for _ in range(n - 1)]
    if family == "near-double":
        x[1] = x[0] + gaps[0]
    elif family == "near-triple":
        x[1:] = x[0] + np.array(gaps)
    elif family == "one zero":
        x[0] = 0.0
    elif family == "two zeros":
        x[:-1] = 0.0
    x = x / x.sum()
    if family == "subnormal":
        x[0] = 10.0 ** -draw(st.floats(308.0, 323.0))
    return x


@st.composite
def trace_one_stacks(draw, family, n):
    spectra = np.array([draw(_family_spectrum(family, n)) for _ in range(draw(st.integers(1, 8)))])
    return stack_from_spectra(spectra, draw(st.integers(0, 2**32)))


def _closed_form_spectrum(h):
    return matfun.spectrum(h) if h.shape[-1] == 2 else matfun.spectrum3(h)


class TestClosedFormSpectra:
    # the closed forms: spectrum and psd_eigh on 2×2 input, and spectrum3

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("family", SPECTRUM_FAMILIES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_eigenvalues_are_lapacks(self, family, n, data):
        hs = data.draw(trace_one_stacks(family, n))
        w = _closed_form_spectrum(hs)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(hs), rtol=0, atol=1e-14)
        if n == 2:
            assert matfun.psd_eigh(hs)[0].tobytes() == np.maximum(w, 0.0).tobytes()

    @pytest.mark.parametrize("family", SPECTRUM_FAMILIES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_qubit_eigenvectors_reconstruct(self, family, data):
        hs = data.draw(trace_one_stacks(family, 2))
        w, v = matfun.psd_eigh(hs)
        np.testing.assert_allclose(v.conj().swapaxes(-1, -2) @ v, np.broadcast_to(np.eye(2), v.shape),
                                   rtol=0, atol=1e-15)
        err = np.abs(matfun.from_eigh(w, v) - hs).max(axis=(-2, -1))
        assert (err <= 1e-15 * np.linalg.norm(hs, 2, axis=(-2, -1))).all()

    def test_small_root_keeps_its_digits(self):
        # det/λ_max does not cancel where λ_max - |λ_min| would
        # (the second has eigenvalues 0.5 + 2e-18 and -2e-18 (1 - 4e-18))
        for h, low in ((np.diag([1e-20, 1.0]), 1e-20), (np.array([[0.5, 1e-9], [1e-9, 0.0]]), -2e-18)):
            assert abs(matfun.spectrum(h)[0] - low) <= 1e-15 * abs(low)

    def test_near_triple_roots(self):
        # three eigenvalues within 1e-16 of 1/3: K = h - (tr h/3) I is then all rounding, and
        # the trace of K's own size that rounding tr h/3 leaves would cost up to 3.8e-15 here
        rng = np.random.default_rng(15)
        spectra = 1.0 / 3.0 + 1e-16 * rng.random((2000, 3))
        hs = stack_from_spectra(spectra / spectra.sum(axis=1, keepdims=True), 16)
        np.testing.assert_allclose(matfun.spectrum3(hs), np.linalg.eigvalsh(hs), rtol=0, atol=1e-15)

    def test_multiples_of_the_identity(self):
        w, v = matfun.psd_eigh(np.eye(2) / 2)
        assert w.tolist() == [0.5, 0.5] and v.tolist() == np.eye(2).tolist()
        assert matfun.spectrum3(np.eye(3) / 3).tolist() == [1 / 3] * 3
        assert matfun.spectrum(np.zeros((2, 2))).tolist() == [0.0, 0.0]

    def test_qubit_psd_tolerance(self):
        u = haar_unitary(2, stream_rng(11, 0))
        below = (u * [-2 * matfun.PSD_TOL, 1.0]) @ u.conj().T
        with pytest.raises(matfun.NotPSDError):
            matfun.psd_eigh(below)
        w, _ = matfun.psd_eigh((u * [-matfun.PSD_TOL / 2, 1.0]) @ u.conj().T)
        assert w[0] == 0.0 and abs(w[1] - 1.0) < 1e-15

    def test_real_input_keeps_real_vectors(self):
        w, v = matfun.psd_eigh(np.array([[0.7, 0.2], [0.2, 0.3]]))
        assert v.dtype == np.float64
        np.testing.assert_allclose((v * w) @ v.T, [[0.7, 0.2], [0.2, 0.3]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scale", [1e-200, 1e120])
    def test_out_of_range_rows_take_lapack(self, scale):
        # p of the traceless part leaves (CLOSED_FORM_FLOOR, 1/CLOSED_FORM_FLOOR)
        h = stack_from_spectra(np.array([[0.2, 0.3, 0.5]]), 12)[0] * scale
        assert matfun.spectrum3(h).tobytes() == np.linalg.eigvalsh(matfun.hermitize(h)).tobytes()

    # the ends of the float range, where a·d and |b|² of the 2×2 closed form underflow or
    # overflow, with their entropies: a rank-one matrix has entropy 0
    FLOAT_RANGE_ENDS = [
        (5e-324 * np.eye(2), math.log(2)),
        (np.array([[5e-324, 0.0], [0.0, 0.0]]), 0.0),
        (np.diag([1e-170, 3e-170]), -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))),
        (1e308 * np.eye(2), math.log(2)),
        (np.full((2, 2), 1e200), 0.0),
    ]

    @pytest.mark.parametrize("h, entropy", FLOAT_RANGE_ENDS,
                             ids=["subnormal-I", "subnormal-rank-1", "1e-170", "1e308-I", "1e200-rank-1"])
    def test_float_range_ends_take_lapack(self, h, entropy):
        from chanent.entropy import vn_entropy

        expected = np.linalg.eigvalsh(h)
        assert matfun.spectrum(h).tobytes() == expected.tobytes()
        for stack in (h[None], np.stack([np.eye(2) / 2, h])):  # alone and beside an in-band row
            w, v = matfun.eigh(stack)
            assert w[-1].tobytes() == expected.tobytes()
            np.testing.assert_allclose(v[-1].conj().T @ v[-1], np.eye(2), rtol=0, atol=1e-15)
            np.testing.assert_allclose((v[-1] * (w[-1] / expected.max())) @ v[-1].conj().T,
                                       h / expected.max(), rtol=0, atol=1e-15)
        assert abs(vn_entropy(h) - entropy) <= 1e-15

    # n >= 3: where (h + h†)/2 would overflow, the matrix is scaled by a power of two first;
    # the subnormal and 1e-170 ends keep the spectra of eigvalsh((h + h†)/2)
    LARGER_FLOAT_RANGE_ENDS = [
        (1e308 * np.eye(3), [1e308] * 3, math.log(3)),
        (np.full((3, 3), 1e200), [0.0, 0.0, 3e200], 0.0),
        (5e-324 * np.eye(3), None, math.log(3)),
        (1e-170 * np.diag([1.0, 2.0, 3.0]), None, -sum(p * math.log(p) for p in (1 / 6, 2 / 6, 3 / 6))),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h, spectrum, entropy", LARGER_FLOAT_RANGE_ENDS,
                             ids=["1e308-I3", "1e200-rank-1", "subnormal-I3", "1e-170"])
    def test_larger_matrices_at_the_float_range_ends(self, h, spectrum, entropy):
        from chanent.entropy import vn_entropy

        today = spectrum is None
        spectrum = np.linalg.eigvalsh((h + h.T) / 2) if today else np.array(spectrum)
        top = spectrum.max()
        # beside in-range rows, complex as in a padded stack, where each row keeps its bits
        stack = np.stack([np.eye(3) / 3, h, np.diag([0.5, 0.25, 0.25])]).astype(complex)
        for fn in (matfun.spectrum, matfun.spectrum3, lambda x: matfun.eigh(x)[0]):
            if today:
                np.testing.assert_array_equal(fn(h), spectrum)
            else:
                np.testing.assert_allclose(fn(h), spectrum, rtol=0, atol=1e-15 * top)
            w = fn(stack)
            for i, row in enumerate(stack):
                assert w[i].tobytes() == fn(row).tobytes()
        w, v = matfun.eigh(h)
        np.testing.assert_allclose(v.T @ v, np.eye(3), rtol=0, atol=1e-15)
        np.testing.assert_allclose((v * (w / top)) @ v.T, h / top, rtol=0, atol=1e-15)
        assert abs(vn_entropy(h) - entropy) <= 1e-15

    def test_root_svd_out_of_the_band_takes_the_svd(self):
        # x = 0 and products scaled far below and above the band take the SVD; the
        # in-band row keeps the closed form, and each scaled row has its polar factor
        rng = stream_rng(7, 40)
        x = matfun.psd_sqrt(hs_random_density(2, rng)) @ matfun.psd_sqrt(hs_random_density(2, rng))
        stack = np.stack([x, 1e-170 * x, 1e170 * x, np.zeros((2, 2))])
        tr, w = matfun.root_svd(stack)
        assert tr[0].tobytes() == matfun.root_svd(x)[0].tobytes()
        np.testing.assert_allclose(tr, [tr[0], 1e-170 * tr[0], 1e170 * tr[0], 0.0], rtol=1e-15, atol=0)
        np.testing.assert_allclose(w, [w[0], w[0], w[0], np.eye(2)], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3])
    def test_row_bits_do_not_depend_on_the_stack(self, n):
        rng = np.random.default_rng(13)
        spectra = rng.random((150, n))
        spectra[::7, 1] = spectra[::7, 0] + 10.0 ** -rng.uniform(2, 16, len(spectra[::7]))
        spectra[3::11, 0] = 0.0
        hs = stack_from_spectra(spectra / spectra.sum(axis=1, keepdims=True), 14)
        hs[5] = np.eye(n) / n  # a LAPACK row of spectrum3
        fns = [_closed_form_spectrum] + ([lambda h: matfun.psd_eigh(h)[0], lambda h: matfun.psd_eigh(h)[1]]
                                         if n == 2 else [])
        for fn in fns:
            stacked, backwards = fn(hs), fn(hs[::-1])
            for i, h in enumerate(hs):
                alone = fn(h)
                assert alone.tobytes() == stacked[i].tobytes() == backwards[-1 - i].tobytes()
