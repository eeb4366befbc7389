import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import bounds, matfun
from chanent.bounds import Ensemble
from chanent.channels import Channel, ensemble_from_channel
from chanent.cli import run_suite
from chanent.entropy import EntropyOrder, shannon, vn_entropy
from chanent.sampling import (
    dirichlet,
    haar_unitary,
    hs_random_density,
    random_channel,
    random_ensemble,
    random_pure_state,
    stream_rng,
)
from chanent.states import pure_state
from chanent.tolerances import PSD_TOL


def random_ens(rng, k=3, n=2):
    return Ensemble(dirichlet(k, rng), [hs_random_density(n, rng) for _ in range(k)])


class TestEnsemble:
    def test_states_held_as_one_stack(self):
        rho = hs_random_density(2, stream_rng(50, 0))
        e = Ensemble(np.array([0.5, 0.5]), [rho, np.eye(2) / 2])
        assert e.states.shape == (2, 2, 2) and e.states.dtype == complex and e.dim == 2

    @pytest.mark.parametrize("states", [
        [np.eye(2) / 2, np.eye(3) / 3],
        [np.eye(2) / 2, np.full((2, 3), 0.1)],
        np.full((2, 2, 3), 0.1),
    ])
    def test_mixed_or_non_square_shapes_rejected(self, states):
        with pytest.raises(ValueError, match="all states must share a dimension"):
            Ensemble(np.array([0.5, 0.5]), states)


class TestHolevo:
    def test_identical_states(self):
        rho = hs_random_density(2, stream_rng(50, 0))
        e = Ensemble(np.array([0.2, 0.3, 0.5]), [rho] * 3)
        for order in (EntropyOrder(), EntropyOrder.tsallis(1.5), EntropyOrder.renyi(0.5)):
            assert abs(bounds.holevo(e, order)) < 1e-9

    def test_orthogonal_pure_uniform(self):
        e = Ensemble(np.full(3, 1 / 3), [np.diag(row).astype(complex) for row in np.eye(3)])
        assert abs(bounds.holevo(e) - math.log(3)) < 1e-12

    def test_generalized_finite_nonnegative(self):
        rng = stream_rng(50, 1)
        for t in range(20):
            e = random_ens(stream_rng(50, t + 2))
            for q in (0.3, 0.8, 1.5, 2.0):
                assert bounds.holevo(e, EntropyOrder.tsallis(q)) >= -1e-10
                assert math.isfinite(bounds.holevo(e, EntropyOrder.renyi(q)))

    def test_tsallis_approaches_von_neumann(self):
        e = random_ens(stream_rng(50, 30))
        chi = bounds.holevo(e)
        assert abs(bounds.holevo(e, EntropyOrder.tsallis(1.0001)) - chi) < 1e-3

    def test_nonnegative_and_bounded_by_shannon(self):
        for t in range(50):
            e = random_ens(stream_rng(51, t))
            chi = bounds.holevo(e)
            assert -1e-10 <= chi <= shannon(e.probs) + 1e-9


class TestCorrelationMatrix:
    def test_single_unitary(self):
        u = haar_unitary(2, stream_rng(52, 0))
        sigma = bounds.correlation_matrix(np.eye(2) / 2, [u])
        np.testing.assert_allclose(sigma, [[1.0]], atol=1e-12)

    def test_pure_ensemble_gram(self):
        # Gram matrix of pure states has the same spectrum (hence entropy) as
        # the average state
        rng = stream_rng(52, 1)
        k = 3
        probs = dirichlet(k, rng)
        vecs = [random_pure_state(2, rng) for _ in range(k)]
        e = Ensemble(probs, [pure_state(v) for v in vecs])
        gram = np.array(
            [
                [math.sqrt(probs[i] * probs[j]) * np.vdot(vecs[i], vecs[j]) for j in range(k)]
                for i in range(k)
            ]
        )
        assert abs(vn_entropy(gram) - vn_entropy(e.average())) < 1e-10
        assert abs(vn_entropy(gram) - bounds.holevo(e)) < 1e-10

    def test_entries_match_trace_oracle(self):
        rng = stream_rng(52, 2)
        phi = random_channel(2, 3, rng)
        rho = hs_random_density(2, rng)
        sigma = bounds.correlation_matrix(rho, phi.kraus)
        for i in range(3):
            for j in range(3):
                oracle = np.trace(phi.kraus[i] @ rho @ phi.kraus[j].conj().T)
                assert abs(sigma[i, j] - oracle) < 1e-10

    def test_psd_trace_diag(self):
        from chanent.channels import Channel, ensemble_from_channel

        for t in range(30):
            phi = random_channel(2, 3, stream_rng(52, 100 + t))
            rho = hs_random_density(2, stream_rng(52, 200 + t))
            sigma = bounds.correlation_matrix(rho, phi.kraus)
            assert np.linalg.eigvalsh(sigma).min() > -1e-10
            assert abs(np.trace(sigma).real - 1.0) < 1e-10
            e = ensemble_from_channel(phi, rho)
            np.testing.assert_allclose(np.diag(sigma).real, e.probs, atol=1e-10)

    def test_ensemble_form_diagonal(self):
        rng = stream_rng(52, 300)
        e = random_ens(rng)
        us = [haar_unitary(2, rng) for _ in range(3)]
        sigma = bounds.correlation_from_ensemble(e, us)
        np.testing.assert_allclose(np.diag(sigma).real, e.probs, atol=1e-10)
        assert np.linalg.eigvalsh(sigma).min() > -1e-10

    def test_povm_completeness_rejected(self):
        with pytest.raises(ValueError):
            bounds.correlation_matrix(np.eye(2) / 2, [0.5 * np.eye(2)])


class TestTheorem1:
    def test_unitary_trivial(self):
        u = haar_unitary(2, stream_rng(53, 0))
        chi, s_sigma, h_p, ok = bounds.theorem1_check(np.eye(2) / 2, [u])
        assert ok and abs(chi) < 1e-10 and abs(s_sigma) < 1e-10 and abs(h_p) < 1e-10

    def test_pure_outputs_saturate(self):
        # rank-one Kraus operators produce pure outputs: chi = S(sigma)
        rng = stream_rng(53, 1)
        phi = random_channel(2, 4, rng)
        rho = pure_state(random_pure_state(2, rng))
        chi, s_sigma, _, ok = bounds.theorem1_check(rho, phi.kraus)
        assert ok

    def test_channel_or_kraus_list(self):
        rng = stream_rng(53, 5)
        phi = random_channel(3, 3, rng)
        rho = hs_random_density(3, rng)
        assert bounds.theorem1_check(rho, phi) == bounds.theorem1_check(rho, list(phi.kraus))
        with pytest.raises(ValueError):
            bounds.theorem1_check(rho, [0.5 * k for k in phi.kraus])

    def test_random_instances(self):
        for t in range(200):
            rng = stream_rng(53, t + 10)
            n = 2 if t % 2 == 0 else 3
            phi = random_channel(n, 1 + t % 4, rng)
            rho = hs_random_density(n, rng)
            *_, ok = bounds.theorem1_check(rho, phi.kraus)
            assert ok


class TestProps:
    def test_unitary_phi1_equality(self):
        rng = stream_rng(54, 0)
        u = haar_unitary(2, rng)
        rho = hs_random_density(2, rng)
        e = ensemble_from_channel(Channel([u]), rho)
        avg = sum(p * vn_entropy(s) for p, s in zip(e.probs, e.states))
        assert abs(avg - vn_entropy(rho)) < 1e-10

    def test_identity_phi2_reduces_to_equality(self):
        from chanent.channels import identity_channel

        rng = stream_rng(54, 1)
        phi1 = random_channel(2, 2, rng)
        rho = hs_random_density(2, rng)
        ok3, ok4 = bounds.concat_bound_check(phi1, identity_channel(2), rho)
        assert ok3 and ok4

    def test_random_channel_pairs(self):
        from chanent.channels import map_entropy

        for t in range(1000):
            rng = stream_rng(54, t + 2)
            phi1 = random_channel(2, 1 + t % 3, rng)
            phi2 = random_channel(2, 1 + (t + 1) % 3, rng)
            rho = hs_random_density(2, rng)
            assert bounds.info_gain_check(rho, phi1.kraus)
            ok3, ok4 = bounds.concat_bound_check(phi1, phi2, rho)
            assert ok3 and ok4
            lower = bounds.composition_map_entropy_lower(phi1, phi2)
            assert -1e-9 <= lower <= map_entropy(phi2.compose(phi1)) + 1e-9


class TestLindblad:
    def test_unitary(self):
        u = haar_unitary(2, stream_rng(55, 0))
        rho = hs_random_density(2, stream_rng(55, 1))
        rep = bounds.lindblad_check(rho, Channel([u]))
        assert rep.ok and abs(rep.s_exchange) < 1e-9 and abs(rep.s_in - rep.s_out) < 1e-9

    def test_bistochastic_chain(self):
        from chanent.qubit import pauli_channel

        rng = stream_rng(55, 2)
        phi = pauli_channel(dirichlet(4, rng))
        rho = hs_random_density(2, rng)
        rep = bounds.lindblad_check(rho, phi)
        # bistochastic: S(rho') >= S(rho), and the chain tightens Lindblad
        assert rep.s_out >= rep.s_in - 1e-10
        assert rep.s_out - rep.s_in <= rep.chi + 1e-9
        assert rep.chi <= rep.s_exchange + 1e-9

    def test_random(self):
        for t in range(1000):
            rng = stream_rng(55, t + 3)
            phi = random_channel(2, 1 + t % 4, rng)
            rho = hs_random_density(2, rng)
            assert bounds.lindblad_check(rho, phi).ok


class TestSigmaMinTwo:
    def test_identical_states(self):
        rho = hs_random_density(2, stream_rng(56, 0))
        sigma = bounds.sigma_min_two(rho, rho, 0.5)
        w = np.sort(np.linalg.eigvalsh(sigma))
        np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-9)
        assert vn_entropy(sigma) < 1e-6

    def test_orthogonal_pure(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        sigma = bounds.sigma_min_two(a, b, 0.5)
        assert abs(vn_entropy(sigma) - math.log(2)) < 1e-12

    def test_minimal_over_random_unitaries(self):
        rng = stream_rng(56, 1)
        r1, r2 = hs_random_density(2, rng), hs_random_density(2, rng)
        lam = 0.35
        e = Ensemble(np.array([lam, 1 - lam]), [r1, r2])
        s_min = vn_entropy(bounds.sigma_min_two(r1, r2, lam))
        for _ in range(500):
            us = [haar_unitary(2, rng), haar_unitary(2, rng)]
            assert vn_entropy(bounds.correlation_from_ensemble(e, us)) >= s_min - 1e-9


class TestFidelityMatrix:
    def test_layered_k2_equals_sigma_min(self):
        rng = stream_rng(57, 0)
        r1, r2 = hs_random_density(2, rng), hs_random_density(2, rng)
        e = Ensemble(np.array([0.3, 0.7]), [r1, r2])
        lay = bounds.fidelity_matrix(e, "layered")
        np.testing.assert_allclose(lay, bounds.sigma_min_two(r1, r2, 0.3), atol=1e-9)

    def test_gram_psd_for_three(self):
        for t in range(100):
            e = random_ens(stream_rng(57, t + 1))
            g = bounds.fidelity_matrix(e, "G")
            assert np.linalg.eigvalsh(g).min() >= -1e-10

    def test_indefinite_for_four(self):
        found = bounds.find_indefinite_gram(k=4, trials=2000, seed=3)
        assert found is not None
        g, min_eig = found
        assert min_eig < -1e-10

    def test_b_floor_enforced(self):
        e = random_ens(stream_rng(57, 200))
        with pytest.raises(ValueError):
            bounds.fidelity_matrix(e, "G/b", b=1.2)

    def test_layered_bounds_holevo(self):
        for t in range(200):
            e = random_ens(stream_rng(58, t))
            lay = bounds.fidelity_matrix(e, "layered")
            assert bounds.holevo(e) <= vn_entropy(lay) + 1e-9
            assert np.linalg.eigvalsh(lay).min() >= -1e-8
            assert abs(np.trace(lay).real - 1.0) < 1e-8

    def test_abs_of_gram_raises_entropy(self):
        # entrywise modulus of a PSD 3×3 Gram matrix preserves the trace and
        # the second symmetric polynomial, can only raise the determinant,
        # and cannot lower the entropy
        def sym2(m):
            w = np.linalg.eigvalsh(m)
            return w[0] * w[1] + w[0] * w[2] + w[1] * w[2]

        rng = stream_rng(59, 0)
        for _ in range(100):
            vecs = [random_pure_state(2, rng) for _ in range(3)]
            probs = dirichlet(3, rng)
            gram = np.array(
                [
                    [math.sqrt(probs[i] * probs[j]) * np.vdot(vecs[i], vecs[j]) for j in range(3)]
                    for i in range(3)
                ]
            )
            mod = np.abs(gram)
            assert abs(np.trace(mod) - np.trace(gram).real) < 1e-12
            assert abs(sym2(mod) - sym2(gram)) < 1e-10
            assert np.linalg.det(mod) >= np.linalg.det(gram).real - 1e-10
            assert vn_entropy(mod) >= vn_entropy(gram) - 1e-9


def _layered_on_matrices(probs, states, rf):
    """The layered chain on matrices, as bounds computed it before it read one
    decomposition per state: regularize_singular, sqrt_product of neighbours
    and np.linalg.inv of the inner states. The reference for _layered_matrix."""
    k = states.shape[-3]
    root_p = bounds._root_probs(probs)
    d, u = np.diag_indices(k), np.arange(k - 1)
    sigma = np.zeros(rf.shape, dtype=complex)
    sigma[(...,) + d] = probs
    sigma[..., u, u + 1] = sigma[..., u + 1, u] = root_p[..., u, u + 1] * rf[..., u, u + 1]
    states = matfun.regularize_singular(states)
    steps = matfun.sqrt_product(states[..., 1:, :, :], states[..., :-1, :, :])
    invs = np.linalg.inv(states[..., 1:-1, :, :])
    for i in range(k):
        for j in range(i + 2, k):
            chain = steps[..., j - 1, :, :]
            for m in range(j - 1, i, -1):
                chain = chain @ invs[..., m - 1, :, :] @ steps[..., m - 1, :, :]
            sigma[..., i, j] = root_p[..., i, j] * np.trace(chain, axis1=-2, axis2=-1)
            sigma[..., j, i] = np.conj(sigma[..., i, j])
    return matfun.hermitize(sigma)


class TestLayeredMatrix:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32), t=st.integers(0, 10**6), n=st.sampled_from([2, 3]),
           ancilla=st.integers(1, 4))
    def test_one_decomposition_equals_the_matrix_chain(self, seed, t, n, ancilla):
        # ancilla < n draws rank-deficient states, which take the regularized branch
        e = random_ensemble(3, n, stream_rng(seed, t), ancilla)
        w, v = matfun.psd_eigh(e.states)
        rf = bounds._root_fidelity_matrix(e.states, matfun.from_eigh(np.sqrt(w), v))
        got = bounds._layered_matrix(e.probs, rf, w, v)
        smallest = matfun._regularized(w)[0][:, 0].min()
        assert (smallest < 1e-9) == (ancilla < n)
        # the chain inverts the (regularized) states, so rounding grows like
        # eps/smallest eigenvalue: 1e-12 for well-conditioned states, and about
        # 7e-7 at the regularized eigenvalue REGULARIZATION_EPS/n
        tol = max(1e-12, 10 * np.finfo(float).eps / smallest)
        np.testing.assert_allclose(got, _layered_on_matrices(e.probs, e.states, rf), rtol=0, atol=tol)

    def test_fidelity_matrix_is_the_batch_row(self, monkeypatch):
        aux = []
        real = bounds.vn_entropy

        def recorded(rho, *args):
            if np.shape(rho)[-3:] == (5, 3, 3):
                aux.append(rho)
            return real(rho, *args)

        monkeypatch.setattr(bounds, "vn_entropy", recorded)
        rng = stream_rng(61, 0)
        ens = [random_ens(rng) for _ in range(3)] + [Ensemble(
            np.full(3, 1 / 3), [pure_state(random_pure_state(2, rng)) for _ in range(3)])]
        bounds.hierarchy_batch(np.array([e.probs for e in ens]), np.array([e.states for e in ens]))
        (aux,) = aux
        for e, row in zip(ens, aux):
            assert bounds.fidelity_matrix(e, "layered").tobytes() == row[4].tobytes()

    def test_state_below_psd_tol_raises(self):
        e = random_ens(stream_rng(61, 1))
        states = e.states.copy()
        states[1] = np.diag([1.0 + 2 * PSD_TOL, -2 * PSD_TOL])
        bad = Ensemble(e.probs, states)
        with pytest.raises(matfun.NotPSDError):
            bounds.fidelity_matrix(bad, "layered")
        with pytest.raises(matfun.NotPSDError):
            bounds.hierarchy_batch(bad.probs[None], bad.states[None])


class TestHierarchy:
    def test_normalization_endpoints(self):
        e = random_ens(stream_rng(60, 0))
        rep = bounds.hierarchy(e)
        assert rep.chi == 0.0 and rep.h_p == 1.0 and rep.normalized

    def test_ordering(self):
        e = random_ens(stream_rng(60, 1))
        rep = bounds.hierarchy(e)
        assert 0.0 <= rep.s_fid <= 1.0 + 1e-9

    def test_orthogonal_pure_skipped(self):
        e = Ensemble(
            np.full(2, 0.5), [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        )
        with pytest.raises(ValueError):
            bounds.hierarchy(e)  # k != 3
        e3 = Ensemble(
            np.full(3, 1 / 3),
            [pure_state(v) for v in (np.array([1, 0]), np.array([0, 1]), np.array([1, 0]))],
        )
        # chi = H(P) only when states are orthogonal AND probabilities match;
        # here the report may or may not be degenerate, just exercise the path
        bounds.hierarchy(e3)

    def test_scalar_is_its_row_in_a_batch(self):
        rng = stream_rng(60, 3)
        ens = [random_ens(rng) for _ in range(7)]
        batch = bounds.hierarchy_batch(
            np.array([e.probs for e in ens]), np.array([e.states for e in ens])
        )
        for e, row in zip(ens, batch):
            assert bounds.hierarchy(e) == row  # bit for bit, field by field

    def test_root_fidelities_once_per_pair(self, monkeypatch):
        pairs = []
        real = bounds.root_fidelity

        def counted(rho1, rho2, sqrt_rho1=None):
            pairs.append(int(np.prod(np.shape(rho1)[:-2])))
            return real(rho1, rho2, sqrt_rho1)

        monkeypatch.setattr(bounds, "root_fidelity", counted)
        rng = stream_rng(60, 4)
        ens = [random_ens(rng) for _ in range(5)]
        bounds.hierarchy_batch(np.array([e.probs for e in ens]), np.array([e.states for e in ens]))
        assert pairs == [3 * 5]  # one stacked call: 3 pairs per ensemble

    def test_non_finite_state_fails_the_batch(self):
        rng = stream_rng(60, 5)
        ens = [random_ens(rng) for _ in range(4)]
        states = np.array([e.states for e in ens])
        states[2, 1, 0, 0] = np.nan
        with pytest.raises(ValueError):
            bounds.hierarchy_batch(np.array([e.probs for e in ens]), states)

    def test_batch_rejects_bad_shapes_and_b(self):
        e = random_ens(stream_rng(60, 6))
        probs, states = e.probs[None], np.array(e.states)[None]
        with pytest.raises(ValueError):
            bounds.hierarchy_batch(probs[:, :2], states[:, :2])
        with pytest.raises(ValueError):
            bounds.hierarchy_batch(probs, states, b=1.0)
        with pytest.raises(ValueError):
            bounds.hierarchy_batch(probs * 2, states)

    def test_json_fields(self):
        import json

        e = random_ens(stream_rng(60, 2))
        rep = bounds.hierarchy(e)
        data = json.loads(rep.to_json())
        assert set(data) == {
            "chi", "s_sigma", "s_gram", "s_fid", "s_fid_b", "s_fid_sq", "s_layered",
            "h_p", "normalized",
        }


class TestHolevoMutual:
    def test_orthogonal_with_projective(self):
        e = Ensemble(np.full(2, 0.5), [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])
        povm = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        mi, chi, ok = bounds.holevo_mutual_check(e, povm)
        assert ok and abs(mi - math.log(2)) < 1e-10 and abs(chi - math.log(2)) < 1e-10

    def test_single_outcome(self):
        e = random_ens(stream_rng(61, 0))
        mi, chi, ok = bounds.holevo_mutual_check(e, [np.eye(2, dtype=complex)])
        assert ok and abs(mi) < 1e-12

    def test_random(self):
        for t in range(100):
            rng = stream_rng(61, t + 1)
            k = 2 + t % 3
            e = random_ens(rng, k=k)
            povm = random_channel(2, 1 + t % 4, rng).kraus
            mi, chi, ok = bounds.holevo_mutual_check(e, povm)
            assert ok


class TestTripleGeometry:
    def test_symmetric_case(self):
        tri = bounds.triple_from_params(0.3, 0.5, 0.0, 0.0)
        f12, f13, f23 = tri.pairwise_fidelities()
        assert abs(f13 - f23) < 1e-10

    def test_barycenter(self):
        rng = stream_rng(62, 0)
        for _ in range(50):
            a = rng.random() * 0.6
            b = rng.random()
            alpha = rng.random() * math.pi
            if 0.5 * math.sqrt(9 * a * a - 6 * a * b * math.cos(alpha) + b * b) > 1:
                continue
            beta = rng.random() * math.pi
            tri = bounds.triple_from_params(a, b, alpha, beta)
            r1, r2, r3 = tri.states
            bary = (r1 + r2 + r3) / 3
            from chanent.states import to_bloch

            np.testing.assert_allclose(to_bloch(bary), [0, 0, a], atol=1e-10)

    def test_product_closed_form_at_beta_zero(self):
        # product of the three fidelities matches the closed form
        rng = stream_rng(62, 1)
        for _ in range(50):
            a = rng.random() * 0.5
            b = 0.1 + 0.9 * rng.random()
            alpha = rng.random() * math.pi
            if 0.5 * math.sqrt(9 * a * a - 6 * a * b * math.cos(alpha) + b * b) > 1:
                continue
            tri = bounds.triple_from_params(a, b, alpha, 0.0)
            f12, f13, f23 = tri.pairwise_fidelities()
            ca = math.cos(alpha)
            closed = (
                (9 * a * a - 6 * a * b * ca + b * b) * (b * b - 3 * a * b * ca - 2) ** 2
                + 9 * a * a * b * b * (9 * a * a - 6 * a * b * ca + b * b - 4) * math.sin(alpha) ** 2
            ) / 64
            assert abs(f12 * f13 * f23 - closed) < 1e-8

    def test_fidelity_sum_identity(self):
        # identical pure states: both sides equal 3
        tri = bounds.triple_from_params(1.0, 1.0, 0.0, 0.0)
        f12, f13, f23 = tri.pairwise_fidelities()
        assert abs(f12 + f13 + f23 - 3.0) < 1e-10
        assert bounds.fidelity_sum_identity(tri) < 1e-10
        # grid and random checks
        rng = stream_rng(62, 2)
        for _ in range(100):
            a = rng.random() * 0.5
            b = rng.random()
            alpha = rng.random() * math.pi
            if 0.5 * math.sqrt(9 * a * a - 6 * a * b * math.cos(alpha) + b * b) > 1:
                continue
            beta = rng.random() * math.pi
            tri = bounds.triple_from_params(a, b, alpha, beta)
            assert bounds.fidelity_sum_identity(tri) < 1e-10

    def test_constraint_violation_rejected(self):
        with pytest.raises(ValueError):
            bounds.triple_from_params(0.9, 1.0, math.pi, 0.0)


class TestBunga:
    def test_saturation_at_b_one(self):
        for f in np.linspace(0.5, 1.0, 20):
            chi, s_g, ok = bounds.symmetric_triple_check(f, 1.0)
            assert ok and abs(chi - s_g) < 1e-8
            # matrix entries are (sqrt(F12), sqrt(F13), sqrt(F23)) with the
            # corner (2F-1)/b, so F13 = (2F-1)² at b = 1
            lams = np.sort(bounds.symmetric_triple_eigenvalues(f, (2 * f - 1.0) ** 2, f))[::-1]
            a = (4 * f - 1.0) / 3.0
            np.testing.assert_allclose(lams[:2], np.sort([(1 + a) / 2, (1 - a) / 2])[::-1], atol=1e-8)
            assert abs(lams[2]) < 1e-8

    def test_b_zero_limit(self):
        chi, s_g, ok = bounds.symmetric_triple_check(0.5, 0.0)
        assert ok
        with pytest.raises(ValueError):
            bounds.symmetric_triple_check(0.7, 0.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bounds.symmetric_triple_check(0.9, 0.1)

    def test_closed_form_eigenvalues(self):
        rng = stream_rng(63, 0)
        for _ in range(200):
            f = rng.random(3)
            g = np.ones((3, 3))
            g[0, 1] = g[1, 0] = math.sqrt(f[0])
            g[0, 2] = g[2, 0] = math.sqrt(f[1])
            g[1, 2] = g[2, 1] = math.sqrt(f[2])
            w = np.sort(np.linalg.eigvalsh(g / 3))
            np.testing.assert_allclose(w, bounds.symmetric_triple_eigenvalues(*f), atol=1e-10)


class TestConjectureFuzz:
    def test_pure_triples_never_violate(self):
        rng = stream_rng(64, 0)
        for _ in range(200):
            probs = dirichlet(3, rng)
            states = [pure_state(random_pure_state(2, rng)) for _ in range(3)]
            e = Ensemble(probs, states)
            assert bounds.holevo(e) <= vn_entropy(bounds.fidelity_matrix(e, "G")) + 1e-9

    def test_two_state_reduction(self):
        rng = stream_rng(64, 1)
        r1, r2 = hs_random_density(2, rng), hs_random_density(2, rng)
        e = Ensemble(np.array([0.4, 0.6]), [r1, r2])
        g = bounds.fidelity_matrix(e, "G")
        np.testing.assert_allclose(g, bounds.sigma_min_two(r1, r2, 0.4), atol=1e-12)
        assert bounds.holevo(e) <= vn_entropy(g) + 1e-9

    def test_report_shape(self):
        rep = run_suite("conjecture1", 50, 5, params={"k": 3, "dim": 2})
        assert rep["violations"] == 0 and rep["trials"] == 50

    def test_rejects_more_than_three_states(self):
        # for k >= 4 the root-fidelity matrix can be indefinite, so S(G) is no entropy
        with pytest.raises(ValueError):
            run_suite("conjecture1", 5, 5, params={"k": 4, "dim": 2})
