import math

import numpy as np
import pytest

from chanent import bounds, states
from chanent.matfun import partial_trace, psd_eigh, psd_sqrt, root_svd
from chanent.sampling import haar_unitary, hs_random_density, random_pure_state, stream_rng
from chanent.tolerances import NORMALIZATION_TOL


def random_bloch(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.random() ** (1 / 3)


class TestBloch:
    def test_north_pole(self):
        np.testing.assert_allclose(states.from_bloch([0, 0, 1]), np.diag([1.0, 0.0]), atol=1e-14)

    def test_center(self):
        np.testing.assert_allclose(states.from_bloch([0, 0, 0]), np.eye(2) / 2)

    def test_round_trip(self):
        rng = stream_rng(11, 0)
        for _ in range(1000):
            r = random_bloch(rng)
            np.testing.assert_allclose(states.to_bloch(states.from_bloch(r)), r, atol=1e-12)

    def test_rejects_long_vector(self):
        with pytest.raises(states.InvalidStateError):
            states.from_bloch([1.0, 1.0, 0.0])

    def test_length_check(self):
        # a length too large to square is too long, not non-finite
        with pytest.raises(states.InvalidStateError, match="exceeds 1"):
            states.from_bloch([1e200, 1e200, 0.0])
        r = np.array([0.6, 0.0, 0.8]) * (1.0 + NORMALIZATION_TOL / 2)
        assert np.linalg.norm(r) > 1.0
        np.testing.assert_allclose(states.from_bloch(r), (np.eye(2) + np.tensordot(r, states.PAULI, axes=1)) / 2)

    def test_equals_the_pauli_sum(self):
        rng = stream_rng(11, 1)
        for t in range(1000):
            r = random_bloch(rng)
            if t % 4 == 1:
                r[t % 3] = 0.0
            elif t % 4 == 2:
                r /= np.linalg.norm(r)
            want = np.eye(2, dtype=complex)
            for ri, sigma in zip(r, states.PAULI):
                want += ri * sigma
            got = states.from_bloch(r)
            assert got.dtype == complex and np.array_equal(got, want / 2.0)


class TestPurify:
    def test_pure_input_gives_product(self):
        psi = states.purify(np.diag([1.0, 0.0]).astype(complex))
        coeffs, _, _ = states.schmidt(psi, (2, 2))
        assert abs(coeffs[0] - 1.0) < 1e-12 and coeffs[1] < 1e-12

    def test_maximally_mixed_gives_maximally_entangled(self):
        psi = states.purify(np.eye(2) / 2)
        coeffs, _, _ = states.schmidt(psi, (2, 2))
        np.testing.assert_allclose(coeffs, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_partial_trace_oracle(self):
        rng = stream_rng(11, 1)
        rho = hs_random_density(3, rng)
        u = haar_unitary(3, rng)
        psi = states.purify(rho, u)
        proj = np.outer(psi, psi.conj())
        np.testing.assert_allclose(partial_trace(proj, (3, 3), 1), rho, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_the_sum_over_eigenpairs(self, n):
        # the reference loop: sum_i lambda_i (u v_i) ⊗ v_i over the same eigenpairs
        rng = stream_rng(11, 2 + n)
        for _ in range(20):
            rho, u = hs_random_density(n, rng), haar_unitary(n, rng)
            w, v = psd_eigh(rho)
            loop = sum(math.sqrt(lam) * np.kron(u @ vec, vec) for lam, vec in zip(w, v.T))
            np.testing.assert_allclose(states.purify(rho, u), loop, rtol=0, atol=1e-15)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            states.purify(np.eye(2) / 2, np.ones((2, 2)))


class TestSchmidt:
    def test_product_state(self):
        psi = np.kron([1, 0], [0, 1]).astype(complex)
        coeffs, _, _ = states.schmidt(psi, (2, 2))
        np.testing.assert_allclose(coeffs, [1.0, 0.0], atol=1e-12)
        assert states.schmidt_number(psi, (2, 2)) == 1

    def test_bell_state(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        coeffs, _, _ = states.schmidt(psi, (2, 2))
        np.testing.assert_allclose(coeffs, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_reconstruction_and_spectra(self):
        rng = stream_rng(11, 2)
        for dims in [(2, 3), (3, 3), (2, 4), (3, 2), (4, 2)]:
            psi = random_pure_state(dims[0] * dims[1], rng)
            coeffs, left, right = states.schmidt(psi, dims)
            # the phase gauge: each left vector's first component is real positive
            assert np.all(np.abs(left[0].imag) < 1e-15) and np.all(left[0].real > 0.0)
            rebuilt = sum(
                c * np.kron(left[:, i], right[:, i]) for i, c in enumerate(coeffs)
            )
            np.testing.assert_allclose(rebuilt, psi, atol=1e-10)
            # complementary partial traces share their nonzero spectrum
            proj = np.outer(psi, psi.conj())
            w1 = np.sort(np.linalg.eigvalsh(partial_trace(proj, dims, 2)))[::-1]
            w2 = np.sort(np.linalg.eigvalsh(partial_trace(proj, dims, 1)))[::-1]
            k = min(dims)
            np.testing.assert_allclose(w1[:k], w2[:k], atol=1e-10)

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            states.schmidt(np.ones(4) / 2, (2, 3))


class TestFidelity:
    def test_self_fidelity(self):
        rho = hs_random_density(3, stream_rng(12, 0))
        assert abs(states.fidelity(rho, rho) - 1.0) < 1e-10

    def test_orthogonal_pure(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert states.fidelity(a, b) < 1e-12

    def test_commuting_diagonals(self):
        r = np.array([0.6, 0.4])
        s = np.array([0.1, 0.9])
        expected = (np.sqrt(r * s).sum()) ** 2
        assert abs(states.fidelity(np.diag(r), np.diag(s)) - expected) < 1e-12

    def test_symmetry(self):
        rng = stream_rng(12, 1)
        for _ in range(50):
            a, b = hs_random_density(2, rng), hs_random_density(2, rng)
            assert abs(states.fidelity(a, b) - states.fidelity(b, a)) < 1e-10

    def test_unity_iff_equal(self):
        rng = stream_rng(12, 2)
        a = hs_random_density(2, rng)
        b = hs_random_density(2, rng)
        if np.abs(a - b).max() > 1e-8:
            assert states.fidelity(a, b) < 1.0 - 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pure_pairs_are_the_overlap(self, n):
        rng = stream_rng(12, 3 + n)
        for _ in range(50):
            a, b = random_pure_state(n, rng), random_pure_state(n, rng)
            got = states.root_fidelity(states.pure_state(a), states.pure_state(b))
            assert abs(got - abs(np.vdot(a, b))) < 1e-14


def bloch_fidelity(x, y) -> float:
    """The qubit fidelity (1 + x·y + sqrt(1 - |x|²) sqrt(1 - |y|²))/2 of two Bloch vectors."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return 0.5 * (1.0 + x @ y + math.sqrt(max(1.0 - x @ x, 0.0)) * math.sqrt(max(1.0 - y @ y, 0.0)))


class TestFidelityBloch:
    # states.fidelity on Bloch-vector states against the Bloch form of the qubit fidelity
    def test_pure_states_at_angle(self):
        # F = cos²(alpha/2) for pure states separated by the angle alpha
        rng = stream_rng(13, 0)
        for _ in range(20):
            alpha = rng.random() * math.pi
            x = np.array([0.0, 0.0, 1.0])
            y = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
            got = states.fidelity(states.from_bloch(x), states.from_bloch(y))
            assert abs(got - math.cos(alpha / 2) ** 2) < 1e-12

    def test_pure_vs_maximally_mixed(self):
        assert abs(states.fidelity(states.from_bloch([0, 0, 1]), states.from_bloch([0, 0, 0])) - 0.5) < 1e-12

    def test_matches_matrix_fidelity(self):
        rng = stream_rng(13, 1)
        for _ in range(100):
            x, y = random_bloch(rng), random_bloch(rng)
            lhs = bloch_fidelity(x, y)
            rhs = states.fidelity(states.from_bloch(x), states.from_bloch(y))
            assert abs(lhs - rhs) < 1e-10


class TestAngle:
    def test_same_state(self):
        rho = hs_random_density(2, stream_rng(14, 0))
        assert states.angle(rho, rho) < 1e-6

    def test_orthogonal(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert abs(states.angle(a, b) - math.pi / 2) < 1e-10

    def test_triangle_inequality(self):
        rng = stream_rng(14, 1)
        for _ in range(300):
            r1, r2, r3 = (states.from_bloch(random_bloch(rng)) for _ in range(3))
            assert states.angle(r1, r3) <= states.angle(r1, r2) + states.angle(r2, r3) + 1e-10


class TestUhlmann:
    def test_same_state(self):
        rho = hs_random_density(2, stream_rng(15, 0))
        value, _ = states.uhlmann_max(rho, rho)
        assert abs(value - 1.0) < 1e-9

    def test_commuting_diagonals(self):
        r = np.array([0.3, 0.7])
        s = np.array([0.5, 0.5])
        value, _ = states.uhlmann_max(np.diag(r), np.diag(s))
        assert abs(value - (np.sqrt(r * s).sum()) ** 2) < 1e-9

    def test_optimal_over_random_unitaries(self):
        rng = stream_rng(15, 1)
        r1 = hs_random_density(2, rng)
        r2 = hs_random_density(2, rng)
        value, w = states.uhlmann_max(r1, r2)
        y = psd_sqrt(r2) @ psd_sqrt(r1)
        assert abs(abs(np.trace(w @ y)) ** 2 - value) < 1e-9
        for _ in range(200):
            u = haar_unitary(2, rng)
            assert abs(np.trace(u @ y)) ** 2 <= value + 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kinds", [("pure", "pure"), ("pure", "mixed"), ("mixed", "mixed")])
    def test_one_root_svd_gives_fidelity_and_unitary(self, n, kinds, monkeypatch):
        calls = []
        monkeypatch.setattr(states, "root_svd", lambda x: calls.append(x) or root_svd(x))
        rng = stream_rng(15, 2 + n)
        draw = {"pure": lambda: states.pure_state(random_pure_state(n, rng)),
                "mixed": lambda: hs_random_density(n, rng)}
        tol = n * 1e-15  # a product of n-term sums
        for _ in range(50):
            r1, r2 = draw[kinds[0]](), draw[kinds[1]]()
            value, w = states.uhlmann_max(r1, r2)
            assert len(calls) == 1
            assert abs(value - states.fidelity(r1, r2)) <= 1e-15
            calls.clear()
            np.testing.assert_allclose(w @ w.conj().T, np.eye(n), rtol=0, atol=tol)
            assert abs(np.linalg.det(w) - 1.0) <= tol
            y = psd_sqrt(r2) @ psd_sqrt(r1)
            assert abs(abs(np.trace(w @ y)) ** 2 - value) <= tol


NAN, INF = math.nan, math.inf


class TestFailClosed:
    # NaN passes no `x <= tol` check and inf - inf is NaN: non-finite input is named and
    # rejected before any arithmetic, so it never comes back as a state
    @pytest.mark.parametrize("rho", [
        np.diag([NAN, 0.5]),
        np.diag([INF, -INF]),
        np.array([[0.5, NAN], [NAN, 0.5]]),
        np.array([[0.5, INF], [INF, 0.5]]),
        np.array([[0.5, 0.0, 1j * INF], [0.0, 0.5, 0.0], [-1j * INF, 0.0, 0.0]]),
    ], ids=["diagonal-nan", "diagonal-inf", "off-diagonal-nan", "off-diagonal-inf", "off-diagonal-imag-inf"])
    def test_state(self, rho):
        with pytest.raises(states.InvalidStateError, match="non-finite"):
            states.assert_state(rho)
        with pytest.raises(states.InvalidStateError, match="non-finite"):
            states.purify(rho)
        with pytest.raises(states.InvalidStateError, match="non-finite"):
            bounds.Ensemble([0.5, 0.5], [np.eye(len(rho)) / len(rho), rho]).validate()

    @pytest.mark.parametrize("amplitudes", [[NAN, 0.0], [1.0, NAN], [INF, 0.0], [1.0, 1j * INF]])
    def test_amplitudes(self, amplitudes):
        with pytest.raises(states.InvalidStateError, match="non-finite"):
            states.pure_state(amplitudes)

    @pytest.mark.parametrize("r", [[NAN, 0.0, 0.0], [0.0, 0.0, NAN], [INF, 0.0, 0.0], [0.0, -INF, 0.0]])
    def test_bloch_vector(self, r):
        with pytest.raises(states.InvalidStateError, match="non-finite"):
            states.from_bloch(r)

    @pytest.mark.parametrize("bad", [NAN, INF])
    def test_purification_unitary(self, bad):
        u = np.eye(2, dtype=complex)
        u[0, 1] = bad
        with pytest.raises(ValueError, match="unitary"):
            states.purify(np.eye(2) / 2, u)


class TestInputChecks:
    # each rejection names what it rejects
    @pytest.mark.parametrize("call, match", [
        (lambda: states.assert_state(np.full((2, 3), 0.1)), "square"),
        (lambda: states.assert_state(np.array([[0.5, 0.1], [0.0, 0.5]])), "not Hermitian"),
        (lambda: states.assert_state(np.eye(2)), "trace is 2"),
        (lambda: states.assert_state(np.diag([1.5, -0.5])), "negative eigenvalue"),
        (lambda: states.pure_state([1.0, 1.0]), "amplitude norm"),
        (lambda: states.from_bloch([0.0, 1.0]), "3 components"),
        (lambda: states.to_bloch(np.eye(3) / 3), "2×2 state"),
    ], ids=["non-square", "non-hermitian", "trace", "negative", "norm", "from-bloch-shape", "to-bloch-shape"])
    def test_invalid_state_rejected(self, call, match):
        with pytest.raises(states.InvalidStateError, match=match):
            call()

    def test_root_fidelity_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError, match="share a dimension"):
            states.root_fidelity(np.eye(2) / 2, np.eye(3) / 3)
