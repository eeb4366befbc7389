import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from chanent import entropy
from chanent.entropy import EntropyOrder
from chanent.matfun import SUPPORT_CUTOFF, NonFiniteError
from chanent.sampling import dirichlet, hs_random_density, stream_rng
from chanent.states import pure_state, root_fidelity
from oracle import decimal_entropy
from tests_support import forbid_eigensolvers, psd_stacks

ORDERS = (EntropyOrder(), EntropyOrder.renyi(0.5), EntropyOrder.renyi(2), EntropyOrder.tsallis(1.5))


class TestClassicalEntropy:
    def test_uniform(self):
        for k in (2, 3, 5):
            assert abs(entropy.classical_entropy(np.full(k, 1 / k)) - math.log(k)) < 1e-12

    def test_delta(self):
        p = np.array([1.0, 0.0, 0.0])
        for order in (EntropyOrder(), EntropyOrder.renyi(2), EntropyOrder.tsallis(0.5)):
            assert abs(entropy.classical_entropy(p, order)) < 1e-12

    def test_q_to_one_limit_benign_vector(self):
        # Rényi gap is |q-1|·var(ln p)/2, below 1e-6 for a near-uniform
        # spectrum; the Tsallis gap carries an extra H²/2 and is of order
        # 1e-4 at the same offset
        p = np.array([0.27, 0.26, 0.24, 0.23])
        shannon = entropy.classical_entropy(p)
        for eps in (1e-4, -1e-4):
            val = entropy.classical_entropy(p, EntropyOrder.renyi(1 + eps))
            assert abs(val - shannon) < 1e-6
            val_t = entropy.classical_entropy(p, EntropyOrder.tsallis(1 + eps))
            assert abs(val_t - shannon) < 1e-3

    def test_q_to_one_taylor_rate(self):
        # first-order convergence: Rényi slope var(ln p)/2, Tsallis slope
        # E[ln² p]/2 = (var + H²)/2; factor-2 slack on each
        rng = stream_rng(20, 0)
        for _ in range(50):
            p = dirichlet(4, rng)
            p = p[p > 1e-12]
            shannon = entropy.classical_entropy(p)
            second = float((p * np.log(p) ** 2).sum())
            var = second - shannon**2
            for eps in (1e-4, -1e-4):
                val_r = entropy.classical_entropy(p, EntropyOrder.renyi(1 + eps))
                assert abs(val_r - shannon) <= abs(eps) * var + 1e-9
                val_t = entropy.classical_entropy(p, EntropyOrder.tsallis(1 + eps))
                assert abs(val_t - shannon) <= abs(eps) * second + 1e-9

    def test_rejects_bad_order(self):
        # inf and NaN once passed the check and gave NaN entropies
        for q in (0.0, math.inf, math.nan):
            for kind in ("renyi", "tsallis"):
                with pytest.raises(ValueError):
                    EntropyOrder(kind, q)

    @pytest.mark.parametrize("q", [600.0, 1e6])
    def test_large_renyi_order(self, q):
        # sum p^q underflows to 0 here; the entropy of a uniform vector is log n
        # for every order, and as q grows the Rényi entropy tends to -log p_max
        uniform = entropy.spectrum_entropy([0.25] * 4, EntropyOrder.renyi(q))
        assert abs(uniform - math.log(4)) < 1e-12
        skewed = entropy.spectrum_entropy([0.5, 0.3, 0.2], EntropyOrder.renyi(q))
        assert abs(skewed - q / (q - 1.0) * math.log(2)) < 1e-12


class TestVnEntropy:
    def test_pure(self):
        assert abs(entropy.vn_entropy(np.diag([1.0, 0.0]))) < 1e-12

    def test_maximally_mixed(self):
        assert abs(entropy.vn_entropy(np.eye(3) / 3) - math.log(3)) < 1e-12

    def test_matches_spectrum(self):
        rho = hs_random_density(4, stream_rng(20, 1))
        w = np.linalg.eigvalsh(rho)
        assert abs(entropy.vn_entropy(rho) - entropy.classical_entropy(np.clip(w, 0, None))) < 1e-10


    def test_non_finite_input_raises(self):
        # without the check the eigensolver turns these into an entropy of -0.0
        for bad in (np.full((2, 2), np.nan), np.array([[1.0, 0.0], [0.0, np.nan]]),
                    np.array([[0.5, np.inf], [np.inf, 0.5]])):
            with pytest.raises(NonFiniteError):
                entropy.vn_entropy(bad)

    def test_zero_matrix_raises(self):
        with pytest.raises(ValueError):
            entropy.vn_entropy(np.zeros((2, 2)))

    def test_stack_shape_and_values(self):
        rng = stream_rng(20, 2)
        rhos = np.stack([[hs_random_density(3, rng) for _ in range(2)] for _ in range(4)])
        out = entropy.vn_entropy(rhos)
        assert out.shape == (4, 2)
        for row, rho_row in zip(out, rhos):
            for value, rho in zip(row, rho_row):
                assert value == entropy.vn_entropy(rho)

    @settings(max_examples=60, deadline=None)
    @given(psd_stacks())
    @example(np.array([[[5e-324, 0.0], [0.0, 0.0]]]))  # a nonzero matrix whose products underflow
    def test_stack_equals_loop(self, hs):
        assume((np.trace(hs, axis1=-2, axis2=-1).real > 0).all())
        for order in ORDERS:
            stacked = entropy.vn_entropy(hs, order)
            looped = np.array([entropy.vn_entropy(h, order) for h in hs])
            np.testing.assert_array_equal(stacked, looped)


class TestSpectrumEntropy:
    def test_matches_classical_entropy(self):
        rng = stream_rng(20, 3)
        ps = np.stack([dirichlet(4, rng) for _ in range(6)])
        for order in ORDERS:
            stacked = entropy.spectrum_entropy(ps, order)
            assert stacked.shape == (6,)
            for value, p in zip(stacked, ps):
                assert value == entropy.classical_entropy(p, order)

    def test_weights_at_cutoff_are_zeros(self):
        top = 1.0 - SUPPORT_CUTOFF
        for order in ORDERS:
            with_cutoff = entropy.spectrum_entropy([top, SUPPORT_CUTOFF], order)
            assert with_cutoff == entropy.spectrum_entropy([top, 0.0], order)

    @pytest.mark.parametrize("order", [EntropyOrder.renyi(0.5), EntropyOrder.tsallis(0.5),
                                       EntropyOrder.renyi(2), EntropyOrder.tsallis(2)])
    def test_never_negative_on_either_side_of_the_cutoff(self, order):
        # below the cutoff the small weight is dropped and the rest renormalized:
        # exactly a point mass; just above it the weight contributes about p^q
        for p in (0.5 * SUPPORT_CUTOFF, SUPPORT_CUTOFF):
            assert entropy.spectrum_entropy([1.0 - p, p], order) == 0.0
        above = 1.1 * SUPPORT_CUTOFF
        assert entropy.spectrum_entropy([1.0 - above, above], order) > 0.0
        if order.q < 1:
            assert entropy.spectrum_entropy([1.0 - above, above], order) > above**order.q

    def test_nan_weight_propagates(self):
        for order in ORDERS:
            assert math.isnan(entropy.spectrum_entropy([0.5, np.nan], order))

    def test_probability_entry_points_reject_nan(self):
        with pytest.raises(ValueError):
            entropy.classical_entropy([0.5, np.nan, 0.5])

    @pytest.mark.parametrize("kind", ["renyi", "tsallis"])
    def test_full_precision_near_and_far_from_q_one(self, kind):
        # (log sum p^q)/(1 - q) and (1 - sum p^q)/(q - 1) once cancelled to an error
        # of about 1e-16/|q - 1|: 3.1e-8 at q = 1 + 1e-8
        ps = np.array([dirichlet(4, stream_rng(81, t)) for t in range(300)])
        for q in (1 + 1e-8, 1 - 1e-8, 1 + 1e-4, 1 - 1e-4, 0.5, 2.0, 50.0, 1e4):
            got = entropy.spectrum_entropy(ps, EntropyOrder(kind, q))
            worst = max(abs(Decimal(float(g)) - decimal_entropy(p, kind, q)) for g, p in zip(got, ps))
            assert worst <= Decimal("1e-15"), (q, worst)


class TestRelativeEntropy:
    def test_zero_on_identical(self):
        rho = hs_random_density(2, stream_rng(21, 0))
        for order in (EntropyOrder(), EntropyOrder.renyi(0.5), EntropyOrder.tsallis(1.5)):
            assert abs(entropy.relative_entropy(rho, rho, order)) < 1e-10

    def test_infinite_on_disjoint_support(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert entropy.relative_entropy(a, b) == math.inf

    _PLUS = np.full((2, 2), 0.5, dtype=complex)
    _ZERO = np.diag([1.0, 0.0]).astype(complex)

    @pytest.mark.parametrize("order", [EntropyOrder.renyi(2), EntropyOrder.tsallis(2), EntropyOrder.renyi(1.5),
                                       EntropyOrder.tsallis(3)], ids=["renyi2", "tsallis2", "renyi1.5", "tsallis3"])
    def test_infinite_off_the_support_above_order_one(self, order):
        # the Petz cross term tr rho1^q rho2^(1-q) sees only rho2's support: |+><+| against |0><0|
        # read -ln 2 (renyi 2) and -0.5 (tsallis 2), below 0, where no relative entropy lies
        assert entropy.relative_entropy(self._PLUS, self._ZERO, order) == math.inf

    @pytest.mark.parametrize("order, want", [(EntropyOrder.renyi(0.5), 2 * math.log(2)),
                                             (EntropyOrder.tsallis(0.5), 1.0)], ids=["renyi", "tsallis"])
    def test_finite_off_the_support_below_order_one(self, order, want):
        assert abs(entropy.relative_entropy(self._PLUS, self._ZERO, order) - want) < 1e-12

    def test_renyi_below_order_one_infinite_on_orthogonal_supports(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert entropy.relative_entropy(a, b, EntropyOrder.renyi(0.5)) == math.inf

    def test_holevo_identity(self):
        # chi = sum p_i D(rho_i, rho_bar)
        from chanent.bounds import Ensemble, holevo

        rng = stream_rng(21, 1)
        probs = dirichlet(3, rng)
        sts = [hs_random_density(2, rng) for _ in range(3)]
        e = Ensemble(probs, sts)
        avg = e.average()
        lhs = sum(p * entropy.relative_entropy(s, avg) for p, s in zip(probs, sts))
        assert abs(lhs - holevo(e)) < 1e-10


class TestMutualInformation:
    def test_product(self):
        joint = np.outer([0.3, 0.7], [0.4, 0.6])
        assert abs(entropy.mutual_information_classical(joint)) < 1e-12

    def test_perfect_correlation(self):
        joint = np.eye(3) / 3
        assert abs(entropy.mutual_information_classical(joint) - math.log(3)) < 1e-12

    def test_bounds(self):
        rng = stream_rng(22, 0)
        for _ in range(100):
            joint = rng.random((3, 4))
            joint /= joint.sum()
            mi = entropy.mutual_information_classical(joint)
            hx = entropy.classical_entropy(joint.sum(axis=1))
            hy = entropy.classical_entropy(joint.sum(axis=0))
            assert -1e-10 <= mi <= min(hx, hy) + 1e-10


class TestQuantumMutualInformation:
    def test_product_state(self):
        rng = stream_rng(22, 1)
        a = hs_random_density(2, rng)
        b = hs_random_density(3, rng)
        assert abs(entropy.quantum_mutual_information(np.kron(a, b), (2, 3))) < 1e-10

    def test_bell_state(self):
        bell = pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert abs(entropy.quantum_mutual_information(bell, (2, 2)) - 2 * math.log(2)) < 1e-10

    def test_nonnegative(self):
        rng = stream_rng(22, 2)
        for _ in range(50):
            rho = hs_random_density(4, rng)
            assert entropy.quantum_mutual_information(rho, (2, 2)) >= -1e-10


class TestDistances:
    def test_identical_inputs(self):
        rho = hs_random_density(2, stream_rng(23, 0))
        assert entropy.entropic_distance(rho, rho) < 1e-5
        p = dirichlet(3, stream_rng(23, 1))
        assert entropy.transmission_distance(p, p) < 1e-10

    def test_orthogonal(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert abs(entropy.entropic_distance(a, b) - math.sqrt(math.log(2))) < 1e-10
        assert abs(entropy.transmission_distance([1, 0], [0, 1]) - math.sqrt(math.log(2))) < 1e-10

    def test_transmission_below_entropic_on_diagonals(self):
        # grid over 2-point and 3-point simplices
        for p1 in np.linspace(0.02, 0.98, 15):
            for q1 in np.linspace(0.02, 0.98, 15):
                p = np.array([p1, 1 - p1])
                q = np.array([q1, 1 - q1])
                dt = entropy.transmission_distance(p, q)
                de = entropy.entropic_distance(np.diag(p), np.diag(q))
                assert dt <= de + 1e-10
        rng = stream_rng(23, 2)
        for _ in range(200):
            p, q = dirichlet(3, rng), dirichlet(3, rng)
            dt = entropy.transmission_distance(p, q)
            de = entropy.entropic_distance(np.diag(p), np.diag(q))
            assert dt <= de + 1e-10

    def test_entropic_distance_needs_no_eigensolver(self, monkeypatch):
        # [[1, f], [f, 1]]/2 has the spectrum (1 ± f)/2: the squared distance agrees with the
        # entropy of that matrix as vn_entropy decomposes it (the square root alone would
        # amplify rounding on near pairs), and on qubits the distance makes no spectrum, eigh,
        # eigvalsh or svd call (the root fidelity of two qubits is a closed form)
        def decomposed(r1, r2):
            f = root_fidelity(r1, r2)
            return entropy.vn_entropy(np.array([[1.0, f], [f, 1.0]]) / 2.0)

        rng = stream_rng(23, 4)
        pairs = [(hs_random_density(2, rng), hs_random_density(2, rng)) for _ in range(300)]
        pairs.append((np.diag([1.0, 0.0]), np.diag([0.5, 0.5])))
        want = [decomposed(r1, r2) for r1, r2 in pairs]
        forbid_eigensolvers(monkeypatch)
        for (r1, r2), s in zip(pairs, want):
            assert abs(entropy.entropic_distance(r1, r2) ** 2 - s) <= 2 * np.finfo(float).eps

    def test_triangle_inequalities(self):
        rng = stream_rng(23, 3)
        for _ in range(300):
            r1, r2, r3 = (hs_random_density(2, rng) for _ in range(3))
            d = entropy.entropic_distance
            assert d(r1, r3) <= d(r1, r2) + d(r2, r3) + 1e-10
            p1, p2, p3 = (dirichlet(3, rng) for _ in range(3))
            t = entropy.transmission_distance
            assert t(p1, p3) <= t(p1, p2) + t(p2, p3) + 1e-10


class TestJsd:
    def test_general_weights(self):
        rng = stream_rng(24, 0)
        dists = [dirichlet(4, rng) for _ in range(3)]
        weights = dirichlet(3, rng)
        val = entropy.jsd(dists, weights)
        mix = sum(w * p for w, p in zip(weights, dists))
        oracle = entropy.classical_entropy(mix) - sum(
            w * entropy.classical_entropy(p) for w, p in zip(weights, dists)
        )
        assert abs(val - oracle) < 1e-12
        assert val >= -1e-12


class TestInputChecks:
    # zip would pair the first weights with the first distributions and drop the rest
    @pytest.mark.parametrize("call, match", [
        (lambda: entropy.jsd([[1, 0], [0, 1], [0.5, 0.5]], weights=[0.5, 0.5]), "one weight per distribution"),
        (lambda: entropy.jsd([[1, 0], [0, 1]], weights=[0.5, 0.25, 0.25]), "one weight per distribution"),
        (lambda: EntropyOrder("boltzmann"), "unknown entropy kind"),
        (lambda: entropy.Ensemble([0.5, 0.5], [np.eye(2) / 2]), "equal length"),
        (lambda: entropy.relative_entropy(np.eye(2) / 2, np.eye(3) / 3), "share a dimension"),
        (lambda: entropy.quantum_mutual_information(np.eye(4) / 4, (2, 3)), "does not match dims"),
    ], ids=["jsd-fewer-weights", "jsd-more-weights", "entropy-kind", "ensemble-length", "relative-entropy-shapes",
            "mutual-information-dims"])
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestEntropyInequalities:
    def test_concavity(self):
        rng = stream_rng(24, 1)
        for _ in range(200):
            probs = dirichlet(3, rng)
            sts = [hs_random_density(3, rng) for _ in range(3)]
            mix = sum(p * s for p, s in zip(probs, sts))
            avg = sum(p * entropy.vn_entropy(s) for p, s in zip(probs, sts))
            assert entropy.vn_entropy(mix) >= avg - 1e-9

    def test_subadditivity(self):
        rng = stream_rng(24, 2)
        from chanent.matfun import partial_trace

        for _ in range(200):
            rho = hs_random_density(4, rng)
            s12 = entropy.vn_entropy(rho)
            s1 = entropy.vn_entropy(partial_trace(rho, (2, 2), 2))
            s2 = entropy.vn_entropy(partial_trace(rho, (2, 2), 1))
            assert s12 <= s1 + s2 + 1e-9

    def test_strong_subadditivity(self):
        rng = stream_rng(24, 3)
        from chanent.matfun import partial_trace

        for _ in range(100):
            rho = hs_random_density(8, rng)
            s123 = entropy.vn_entropy(rho)
            rho12 = partial_trace(rho, (4, 2), 2)
            rho23 = partial_trace(rho, (2, 4), 1)
            rho2 = partial_trace(rho12, (2, 2), 1)
            s = (
                entropy.vn_entropy(rho12)
                + entropy.vn_entropy(rho23)
                - s123
                - entropy.vn_entropy(rho2)
            )
            assert s >= -1e-9
