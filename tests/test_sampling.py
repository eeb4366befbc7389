import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import sampling


class TestDeterminism:
    def test_same_stream_same_bytes(self):
        a = sampling.hs_random_density(3, sampling.stream_rng(99, 5))
        b = sampling.hs_random_density(3, sampling.stream_rng(99, 5))
        assert a.tobytes() == b.tobytes()

    def test_stream_independence(self):
        # consuming stream 0 does not shift stream 1
        r0 = sampling.stream_rng(99, 0)
        sampling.complex_gaussian(r0, (64,))
        first = sampling.complex_gaussian(sampling.stream_rng(99, 1), (4,))
        again = sampling.complex_gaussian(sampling.stream_rng(99, 1), (4,))
        np.testing.assert_array_equal(first, again)

    def test_distinct_streams_differ(self):
        a = sampling.complex_gaussian(sampling.stream_rng(99, 0), (8,))
        b = sampling.complex_gaussian(sampling.stream_rng(99, 1), (8,))
        assert np.abs(a - b).max() > 1e-6


class TestHaarUnitary:
    def test_scalar_case(self):
        u = sampling.haar_unitary(1, sampling.stream_rng(30, 0))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        for t in range(10):
            u = sampling.haar_unitary(4, sampling.stream_rng(30, t))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_first_column_matches_sphere_sampling(self):
        # invariance check: |first column| entries should be distributed like a
        # Haar vector's; compare mean |component|² (= 1/n) loosely
        n, draws = 3, 2000
        acc = np.zeros(n)
        for t in range(draws):
            u = sampling.haar_unitary(n, sampling.stream_rng(31, t))
            acc += np.abs(u[:, 0]) ** 2
        acc /= draws
        # direct unit-sphere sampling oracle
        rng = sampling.stream_rng(32, 0)
        acc2 = np.zeros(n)
        for _ in range(draws):
            v = sampling.complex_gaussian(rng, (n,))
            v /= np.linalg.norm(v)
            acc2 += np.abs(v) ** 2
        acc2 /= draws
        assert np.abs(acc - 1 / n).max() < 0.03
        assert np.abs(acc - acc2).max() < 0.05


class TestHsRandomDensity:
    def test_validity(self):
        for t in range(20):
            rho = sampling.hs_random_density(3, sampling.stream_rng(33, t))
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_fixed_seed_reproduces(self):
        a = sampling.hs_random_density(2, sampling.stream_rng(33, 100))
        b = sampling.hs_random_density(2, sampling.stream_rng(33, 100))
        assert a.tobytes() == b.tobytes()

    def test_mean_purity(self):
        # HS measure for N=2 has mean purity 4/5; cross-checked against an
        # independent batched implementation of the same construction
        draws = 100000
        rng = sampling.stream_rng(34, 0)
        g = sampling.complex_gaussian(rng, (draws, 2, 2))
        rho = np.einsum("tij,tkj->tik", g, g.conj())
        tr = np.einsum("tii->t", rho).real
        purity = np.einsum("tij,tji->t", rho, rho).real / tr**2
        se = purity.std() / np.sqrt(draws)
        assert abs(purity.mean() - 0.8) < 3 * se + 1e-4
        # the packaged sampler agrees on a smaller batch
        small = np.array(
            [
                np.trace(m @ m).real
                for m in (
                    sampling.hs_random_density(2, sampling.stream_rng(34, t + 1))
                    for t in range(4000)
                )
            ]
        )
        assert abs(small.mean() - 0.8) < 4 * small.std() / np.sqrt(small.size)


class TestWholeBlockBytes:
    """hs_random_density and haar_unitary are the transforms of complex_gaussian's block."""

    @pytest.mark.parametrize("n, ancilla", [(1, None), (2, None), (3, None), (3, 1), (2, 4)])
    def test_hs_random_density(self, n, ancilla):
        for t in range(20):
            new, old = sampling.stream_rng(33, t), sampling.stream_rng(33, t)
            g = sampling.complex_gaussian(old, (n, n if ancilla is None else ancilla))
            rho = g @ g.conj().T
            assert sampling.hs_random_density(n, new, ancilla).tobytes() == (rho / np.trace(rho).real).tobytes()
            assert new.random() == old.random()

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_haar_unitary(self, n):
        for t in range(20):
            new, old = sampling.stream_rng(30, t), sampling.stream_rng(30, t)
            expected = sampling._phase_fixed_qr(sampling.complex_gaussian(old, (n, n)))
            assert sampling.haar_unitary(n, new).tobytes() == expected.tobytes()
            assert new.random() == old.random()


class TestGramDensity:
    """_gram_density normalizes by an einsum trace; per matrix it is rho / np.trace(rho).real."""

    @staticmethod
    def _stack(b, n, a, seed):
        g = sampling.complex_gaussian(sampling.stream_rng(seed, b), (b, 3, n, a))
        rho = g @ g.conj().swapaxes(-1, -2)
        return g, np.array([[m / np.trace(m).real for m in row] for row in rho])

    @pytest.mark.parametrize("b", [1, 7, 150])
    @pytest.mark.parametrize("n, a", [(1, 1), (2, 1), (2, 2), (2, 3), (3, 1), (3, 3), (3, 5)])
    def test_bytes_of_np_trace_up_to_qutrits(self, b, n, a):
        g, expected = self._stack(b, n, a, 81)
        assert sampling._gram_density(g).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("b", [1, 7, 150])
    @pytest.mark.parametrize("n", [4, 6])
    def test_within_rounding_of_np_trace_beyond(self, b, n):
        # both traces add the same n positive diagonal entries, perhaps in other orders:
        # each sum is within (n - 1)u of the exact trace, relative to it (u = eps/2), so the
        # two differ by at most 2(n - 1)u. A complex entry divided by a real trace t is each
        # part times 1/t, two roundings per path. So each real part x moves by at most
        # (2(n - 1) + 4)u|x| = (n + 1)eps|x| to first order; one eps more covers the rest
        eps = np.finfo(float).eps
        g, expected = self._stack(b, n, n, 82)
        got = sampling._gram_density(g)
        for part in ("real", "imag"):
            x, y = getattr(got, part), getattr(expected, part)
            assert np.all(np.abs(x - y) <= (n + 2) * eps * np.abs(y))


class TestBoxMuller:
    def test_bytes_are_the_polar_formula_and_u_is_not_written(self):
        u = sampling.stream_rng(34, 0).random((3, 40))
        before = u.tobytes()
        out = sampling._box_muller(u, (4, 5))
        assert u.tobytes() == before
        r, angle = np.sqrt(-2.0 * np.log(1.0 - u[:, :20])), 2.0 * np.pi * u[:, 20:]
        expected = (r * np.cos(angle) + 1j * r * np.sin(angle)).reshape(3, 4, 5)
        assert out.tobytes() == expected.tobytes()

    def test_a_zero_radius_gives_zero(self):
        # a radius uniform of exactly 0.0 gives a zero, whose sign may differ from the formula's
        u = sampling.stream_rng(34, 1).random(8)
        u[1] = 0.0
        out = sampling._box_muller(u, (4,))
        assert out[1] == 0.0 and np.count_nonzero(out) == 3


class TestRandomPureState:
    def test_one_dimension_is_a_unit_vector(self):
        for t in range(10):
            v = sampling.random_pure_state(1, sampling.stream_rng(37, t))
            assert v.shape == (1,) and abs(abs(v[0]) - 1.0) < 1e-15

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_empty_shapes(self, n):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            sampling.random_pure_state(n, sampling.stream_rng(37, 0))


class TestDirichlet:
    def test_single_point(self):
        np.testing.assert_allclose(sampling.dirichlet(1, sampling.stream_rng(35, 0)), [1.0])

    def test_sums_to_one(self):
        for t in range(20):
            p = sampling.dirichlet(4, sampling.stream_rng(35, t))
            assert abs(p.sum() - 1.0) < 1e-12 and p.min() >= 0

    def test_component_mean(self):
        draws = 100000
        rng = sampling.stream_rng(36, 0)
        u = rng.random((draws, 3))
        g = -np.log(1.0 - u)
        p = g / g.sum(axis=1, keepdims=True)
        se = p[:, 0].std() / np.sqrt(draws)
        assert abs(p[:, 0].mean() - 1 / 3) < 3 * se + 1e-4


class TestRandomChannel:
    def test_single_kraus_is_unitary(self):
        phi = sampling.random_channel(3, 1, sampling.stream_rng(37, 0))
        u = phi.kraus[0]
        np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-10)

    def test_all_draws_cptp(self):
        for t in range(30):
            phi = sampling.random_channel(2, 3, sampling.stream_rng(37, t + 1))
            assert phi.is_cptp().ok

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (3, 4)])
    def test_thin_isometry_is_the_haar_unitarys_first_columns(self, n, m):
        # the thin QR of the first n Gaussian columns against the full QR of all of them,
        # from the same stream; the generator is left where the full draw leaves it
        for t in range(20):
            thin, full = sampling.stream_rng(36, t), sampling.stream_rng(36, t)
            kraus = sampling.random_channel(n, m, thin).kraus
            u = sampling.haar_unitary(n * m, full)[:, :n].reshape(m, n, n)
            np.testing.assert_allclose(kraus, u, rtol=0, atol=1e-13)
            assert thin.random() == full.random()

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 3), (3, 4)])
    def test_same_bytes_as_the_whole_gaussian_block(self, n, m):
        # the formula before only the used columns went through Box-Muller: the
        # whole N×N Gaussian, then the QR of its first n columns
        for t in range(20):
            new, old = sampling.stream_rng(36, t), sampling.stream_rng(36, t)
            kraus = sampling.random_channel(n, m, new).kraus
            g = sampling.complex_gaussian(old, (n * m, n * m))[:, :n]
            assert kraus.tobytes() == sampling._phase_fixed_qr(g).reshape(m, n, n).tobytes()
            assert new.random() == old.random()

    @pytest.mark.parametrize("n, m", [(0, 2), (2, 0), (-1, -1)])
    def test_rejects_empty_shapes(self, n, m):
        with pytest.raises(ValueError, match="at least 1"):
            sampling.random_channel(n, m, sampling.stream_rng(36, 0))

    def test_choi_rank(self):
        for t in range(10):
            m = 1 + t % 4
            phi = sampling.random_channel(2, m, sampling.stream_rng(38, t))
            w = np.linalg.eigvalsh(phi.choi)
            assert np.count_nonzero(w > 1e-10) == m


class TestRandomEnsemble:
    def test_trivial_ensemble(self):
        from chanent.bounds import holevo

        e = sampling.random_ensemble(1, 2, sampling.stream_rng(39, 0))
        assert abs(holevo(e)) < 1e-12

    def test_invariants(self):
        e = sampling.random_ensemble(3, 2, sampling.stream_rng(39, 1))
        assert abs(e.probs.sum() - 1.0) < 1e-10
        e.validate()


def _sequential_ensemble(k, n, rng, ancilla):
    """The draw order the stacked layout must keep: k Dirichlet uniforms, then
    per state n·a uniforms for u1 and n·a for u2, each from its own call."""
    g = -np.log(1.0 - rng.random(k))
    probs = g / g.sum()
    states = []
    for _ in range(k):
        u1 = 1.0 - rng.random(n * ancilla)
        u2 = rng.random(n * ancilla)
        r = np.sqrt(-2.0 * np.log(u1))
        x = (r * np.cos(2.0 * np.pi * u2) + 1j * r * np.sin(2.0 * np.pi * u2)).reshape(n, ancilla)
        rho = x @ x.conj().T
        states.append(rho / np.trace(rho).real)
    return probs, np.array(states)


class TestInputChecks:
    @pytest.mark.parametrize("call, match", [
        (lambda rng: sampling.hs_random_density(0, rng), "dimension must be at least 1"),
        (lambda rng: sampling.haar_unitary(0, rng), "dimension must be at least 1"),
        (lambda rng: sampling.dirichlet(0, rng), "k must be at least 1"),
        (lambda rng: sampling.random_ensemble(0, 2, rng), "k must be at least 1"),
        (lambda rng: sampling.random_ensembles(0, 2, 40, 0, 5), "k must be at least 1"),
    ], ids=["density-dim", "unitary-dim", "dirichlet-k", "ensemble-k", "ensembles-k"])
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call(sampling.stream_rng(40, 0))


class TestStreamUniforms:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(2**63, 2**65), st.integers(-2**64, -1)),
        start=st.one_of(st.integers(0, 50), st.integers(2**32, 2**64 - 20)),
        size=st.integers(0, 6),
        count=st.one_of(st.just(1), st.integers(0, 10).map(lambda m: 4 * m),
                        st.integers(0, 10).map(lambda m: 4 * m + 3), st.integers(0, 45)),
    )
    def test_rows_are_the_streams_bytes(self, seed, start, size, count):
        u = sampling.stream_uniforms(seed, start, start + size, count)
        assert u.shape == (size, count) and u.dtype == np.float64
        for row, t in zip(u, range(start, start + size)):
            assert row.tobytes() == sampling.stream_rng(seed, t).random(count).tobytes()

    def test_empty_range(self):
        assert sampling.stream_uniforms(5, 7, 7, 9).shape == (0, 9)
        assert sampling.stream_uniforms(5, 7, 3, 9).shape == (0, 9)


class TestStackedEnsembles:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(2**63, 2**65)),
        k=st.integers(1, 4),
        n=st.sampled_from([2, 3]),
        ancilla=st.integers(1, 4),
        start=st.integers(0, 50),
        size=st.integers(0, 12),
    )
    def test_rows_equal_per_stream_ensembles(self, seed, k, n, ancilla, start, size):
        probs, states = sampling.random_ensembles(k, n, seed, start, start + size, ancilla)
        assert probs.shape == (size, k) and states.shape == (size, k, n, n)
        for row, t in enumerate(range(start, start + size)):
            e = sampling.random_ensemble(k, n, sampling.stream_rng(seed, t), ancilla)
            assert probs[row].tobytes() == e.probs.tobytes()
            assert states[row].tobytes() == e.states.tobytes()

    @pytest.mark.parametrize("k, n, ancilla", [(1, 2, 1), (3, 2, 3), (4, 3, 2), (2, 3, 5)])
    def test_block_layout_is_the_sequential_draw_order(self, k, n, ancilla):
        for t in range(5):
            e = sampling.random_ensemble(k, n, sampling.stream_rng(2**63 + 3, t), ancilla)
            probs, states = _sequential_ensemble(k, n, sampling.stream_rng(2**63 + 3, t), ancilla)
            assert e.probs.tobytes() == probs.tobytes()
            assert e.states.tobytes() == states.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ancilla", [0, -1])
    def test_ancilla_below_one_raises(self, ancilla):
        rng = sampling.stream_rng(40, 0)
        with pytest.raises(ValueError, match="ancilla"):
            sampling.hs_random_density(2, rng, ancilla=ancilla)
        with pytest.raises(ValueError, match="ancilla"):
            sampling.random_ensemble(3, 2, rng, ancilla=ancilla)
        with pytest.raises(ValueError, match="ancilla"):
            sampling.random_ensembles(3, 2, 40, 0, 5, ancilla=ancilla)
