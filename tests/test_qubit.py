import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chanent import davies, qubit
from chanent.cli import _random_davies
from chanent.channels import Channel, identity_channel, map_entropy, unitary_channel
from chanent.entropy import VON_NEUMANN, EntropyOrder, classical_entropy, spectrum_entropy, vn_entropy
from chanent.matfun import SUPPORT_CUTOFF, NonFiniteError, psd_log, psd_power
from chanent.states import PAULI, to_bloch
from chanent.sampling import (_flat_dirichlet, dirichlet, haar_unitary, random_channel, random_pure_state,
                              stream_rng, stream_uniforms)
import oracle
from tests_support import criterion7_davies, kraus_lists


class TestPauliChannel:
    def test_identity(self):
        phi = qubit.pauli_channel([1, 0, 0, 0])
        np.testing.assert_allclose(phi.superoperator, np.eye(4), atol=1e-12)

    def test_completely_depolarizing(self):
        phi = qubit.pauli_channel([0.25] * 4)
        np.testing.assert_allclose(phi.choi, np.eye(4) / 4, atol=1e-12)

    def test_map_entropy_is_shannon_of_weights(self):
        # the Choi is diagonal in the Bell basis with the weights as spectrum
        rng = stream_rng(70, 0)
        for t in range(50):
            w = dirichlet(4, stream_rng(70, t))
            phi = qubit.pauli_channel(w)
            spec = np.sort(np.linalg.eigvalsh(phi.choi))[::-1]
            np.testing.assert_allclose(spec, np.sort(w)[::-1], atol=1e-10)
            assert abs(map_entropy(phi) - classical_entropy(w)) < 1e-10

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            qubit.pauli_channel([0.5, 0.6, 0.0, -0.1])


class TestTetrahedronEdges:
    def test_vertices(self):
        edges = qubit.tetrahedron_edges()
        np.testing.assert_allclose(edges["AB"](0.0), [1, 0, 0, 0])
        np.testing.assert_allclose(edges["AB"](1.0), [0.5, 0.5, 0, 0])
        np.testing.assert_allclose(edges["AD"](1.0), [0.25] * 4)
        np.testing.assert_allclose(edges["CD"](0.0), [1 / 3, 1 / 3, 1 / 3, 0])

    def test_ad_edge_is_depolarizing(self):
        edges = qubit.tetrahedron_edges()
        s = 0.4
        w = edges["AD"](s * 3 / 4 / (3 / 4))  # t = s·... direct check with weights
        phi_edge = qubit.pauli_channel(edges["AD"](3 * s / 4 / (3 / 4)))
        phi_dep = qubit.depolarizing(2, s)
        np.testing.assert_allclose(phi_edge.superoperator, phi_dep.superoperator, atol=1e-10)


class TestDepolarizing:
    def test_endpoints(self):
        np.testing.assert_allclose(
            qubit.depolarizing(3, 0.0).superoperator, np.eye(9), atol=1e-12
        )
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        np.testing.assert_allclose(
            qubit.depolarizing(3, 1.0).apply(rho), np.eye(3) / 3, atol=1e-12
        )

    def test_smin_from_smap_endpoints(self):
        for n in (2, 3):
            assert abs(qubit.smin_from_smap(0.0, n)) < 1e-10
            assert abs(qubit.smin_from_smap(2 * math.log(n), n) - math.log(n)) < 1e-10

    def test_smin_from_smap_monotone(self):
        for n in (2, 3):
            xs = np.linspace(0.0, 2 * math.log(n), 100)
            ys = [qubit.smin_from_smap(x, n) for x in xs]
            assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_formula_against_optimizer(self):
        r2 = EntropyOrder.renyi(2.0)
        for n, s in [(2, 0.5), (3, 0.3)]:
            phi = qubit.depolarizing(n, s)
            s_map = map_entropy(phi, r2)
            predicted = qubit.smin_from_smap(s_map, n)
            s_min, _ = qubit.min_output_entropy(phi, r2)
            assert abs(s_min - predicted) < 1e-6


class TestMinOutputEntropy:
    def test_unitary(self):
        u = haar_unitary(2, stream_rng(71, 0))
        val, state = qubit.min_output_entropy(unitary_channel(u))
        assert val < 1e-8

    def test_completely_depolarizing(self):
        val, _ = qubit.min_output_entropy(qubit.depolarizing(2, 1.0))
        assert abs(val - math.log(2)) < 1e-10
        val3, _ = qubit.min_output_entropy(qubit.depolarizing(3, 1.0))
        assert abs(val3 - math.log(3)) < 1e-8

    def test_below_random_probes(self):
        from chanent.sampling import random_pure_state

        rng = stream_rng(71, 1)
        w = dirichlet(4, rng)
        phi = qubit.pauli_channel(w)
        val, state = qubit.min_output_entropy(phi)
        # optimizer value is below the value at 10^4 random pure states
        probes = np.array(
            [
                vn_entropy(phi.apply(np.outer(v, v.conj())))
                for v in (random_pure_state(2, rng) for _ in range(10000))
            ]
        )
        assert val <= probes.min() + 1e-8
        # the returned minimizer really attains the value
        assert abs(vn_entropy(phi.apply(state)) - val) < 1e-8


ORDERS = (VON_NEUMANN, EntropyOrder.renyi(0.5), EntropyOrder.renyi(2.0), EntropyOrder.tsallis(2.0))


def radius_entropy(radius, order):
    return spectrum_entropy(np.stack([(1 + radius) / 2, (1 - radius) / 2], axis=-1), order)


def amplitude_damping(gamma):
    return Channel([np.array([[1.0, 0.0], [0.0, math.sqrt(1 - gamma)]]),
                    np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])])


class TestExactQubitMinimizer:
    def test_bloch_affine_matches_apply(self):
        phi = random_channel(2, 3, stream_rng(73, 0))
        w, kappa = qubit._bloch_affine(phi)
        for r in np.eye(3):
            rho = (np.eye(2) + np.tensordot(r, PAULI, axes=1)) / 2
            np.testing.assert_allclose(to_bloch(phi.apply(rho)), w @ r + kappa, atol=1e-14)

    def test_hard_case_pauli(self):
        # kappa = 0, so c = 0: the optimum is the axis of the largest |eta_i|
        w = np.array([0.5, 0.1, 0.15, 0.25])
        phi = qubit.pauli_channel(w)
        eta = np.array([w[0] + w[1] - w[2] - w[3], w[0] + w[2] - w[1] - w[3], w[0] + w[3] - w[1] - w[2]])
        r = qubit._max_bloch_direction(*qubit._bloch_affine(phi))
        np.testing.assert_allclose(np.abs(r), np.eye(3)[np.argmax(np.abs(eta))], atol=1e-14)
        for order in ORDERS:
            value, _ = qubit.min_output_entropy(phi, order)
            assert abs(value - radius_entropy(np.abs(eta).max(), order)) < 1e-14

    def test_hard_case_depolarizing(self):
        # A is a multiple of the identity: every direction is optimal
        for s in (0.0, 0.3, 1.0):
            phi = qubit.depolarizing(2, s)
            r = qubit._max_bloch_direction(*qubit._bloch_affine(phi))
            assert abs(np.linalg.norm(r) - 1.0) < 1e-15
            value, state = qubit.min_output_entropy(phi)
            assert abs(value - radius_entropy(1.0 - s, VON_NEUMANN)) < 1e-14
            assert abs(vn_entropy(phi.apply(state)) - value) < 1e-14

    def test_hard_case_davies_interior(self):
        # c² > eta3² and |z*| < 1: the optimum leaves the z axis at z = z*
        d = davies.DaviesQubit(a=0.1, c=0.9, p=0.3)
        params = davies.bloch_params(d)
        eta3, kappa3 = params.eta[2], params.kappa[2]
        z_star = kappa3 * eta3 / (d.c ** 2 - eta3 ** 2)
        assert d.c ** 2 > eta3 ** 2 and abs(z_star) < 1
        phi = davies.qubit_superoperator(d)
        w, kappa = qubit._bloch_affine(phi)
        r = qubit._max_bloch_direction(w, kappa)
        assert abs(r[2] - z_star) < 1e-14
        assert abs(np.linalg.norm(w @ r + kappa) - (2 * davies.qubit_max_norm(d) - 1)) < 1e-14
        value, _ = qubit.min_output_entropy(phi)
        assert abs(value - davies.qubit_minimizer(d)[1]) < 1e-14

    def test_easy_case_known_root(self):
        # build c from a chosen root: y_i = c_i/(mu + d_i) with |y| = 1 and c_top != 0
        a = np.array([0.8, 0.5, 0.2])
        y = np.array([0.6, -0.48, 0.64])
        c = y * (0.3 + (a[0] - a))
        w = np.diag(np.sqrt(a))
        kappa = c / np.sqrt(a)  # W kappa = c with W diagonal
        np.testing.assert_allclose(qubit._max_bloch_direction(w, kappa), y, atol=1e-14)

    def test_amplitude_damping(self):
        # the output of |0> stays pure; amplitude damping sits on the hard-case boundary sum_rest c²/d² = 1
        for gamma in (0.1, 0.3, 0.5, 0.77, 0.95):
            phi = amplitude_damping(gamma)
            for order in ORDERS:
                value, state = qubit.min_output_entropy(phi, order)
                assert abs(value) < 1e-14
                np.testing.assert_allclose(state, np.diag([1.0, 0.0]), atol=1e-6)

    def test_unitary_radius_one(self):
        u = haar_unitary(2, stream_rng(73, 1))
        phi = unitary_channel(u)
        w, kappa = qubit._bloch_affine(phi)
        r = qubit._max_bloch_direction(w, kappa)
        assert abs(np.linalg.norm(w @ r + kappa) - 1.0) < 1e-14
        for order in ORDERS:
            assert abs(qubit.min_output_entropy(phi, order)[0]) < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.sampled_from(ORDERS))
    def test_random_channels_grid_and_kkt(self, kraus, seed, order):
        phi = random_channel(2, kraus, stream_rng(seed, 0))
        w, kappa = qubit._bloch_affine(phi)
        value, state = qubit.min_output_entropy(phi, order)
        assert abs(vn_entropy(phi.apply(state), order) - value) < 1e-12
        # no point of a dense 2-angle grid does better; the support cutoff lets
        # an order below 1 dip by up to SUPPORT_CUTOFF next to radius 1
        theta, ang = np.meshgrid(np.linspace(0, math.pi, 201), np.linspace(0, 2 * math.pi, 400))
        pts = np.stack([np.sin(theta) * np.cos(ang), np.sin(theta) * np.sin(ang), np.cos(theta)], -1)
        radii = np.minimum(np.linalg.norm(pts.reshape(-1, 3) @ w.T + kappa, axis=1), 1.0)
        assert value <= radius_entropy(radii, order).min() + 2 * SUPPORT_CUTOFF
        # KKT for max |W r + kappa|² on the sphere: W^T(W r + kappa) = lam r, lam >= a_1
        r = to_bloch(state)
        grad = w.T @ (w @ r + kappa)
        lam = float(r @ grad)
        np.testing.assert_allclose(grad, lam * r, atol=1e-12)
        assert lam >= np.linalg.eigvalsh(w.T @ w)[-1] - 1e-12

    def test_no_runtime_warnings(self):
        channels = [
            qubit.pauli_channel([0.4, 0.3, 0.2, 0.1]),
            qubit.depolarizing(2, 1.0),
            identity_channel(2),
            amplitude_damping(1.0),
            amplitude_damping(0.4),
            davies.qubit_superoperator(davies.DaviesQubit(a=0.1, c=0.9, p=0.3)),
        ] + [random_channel(2, 1 + t % 4, stream_rng(73, 10 + t)) for t in range(20)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for phi in channels:
                for order in ORDERS:
                    qubit.min_output_entropy(phi, order)

    def test_qubit_path_runs_no_minimize(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.optimize.minimize called on the qubit path")

        monkeypatch.setattr(scipy.optimize, "minimize", forbidden)
        for t in range(10):
            qubit.min_output_entropy(random_channel(2, 2, stream_rng(73, 40 + t)))
        with pytest.raises(AssertionError):
            qubit.min_output_entropy(qubit.depolarizing(3, 0.5), EntropyOrder.renyi(0.5))


EPS = float(np.finfo(float).eps)


def brentq_root(c, d, lo, hi):
    """The root of psi(mu) = 1/|y(mu)| - 1, y = c/(mu + d), by brentq on [lo, hi] to 4 eps relative."""
    c, d = np.asarray(c), np.asarray(d)

    def psi(mu):
        return 1.0 / math.sqrt(float(np.sum((c / (mu + d)) ** 2))) - 1.0

    if psi(lo) >= 0.0:
        return lo
    if psi(hi) <= 0.0:
        return hi
    return scipy.optimize.brentq(psi, lo, hi, xtol=4 * EPS * lo, rtol=4 * EPS, maxiter=2000)


def root_condition(c, d, mu) -> float:
    """cond = 1/(mu psi'(mu)) >= 1 at the root: rounding of order eps in psi moves mu by cond eps, relative."""
    t = np.asarray(mu) + np.asarray(d)
    y = np.asarray(c) / t
    return float(y @ y) ** 1.5 / float(np.sum(y * y * (mu / t)))


def secular_channels():
    """The qubit channels of acceptance criteria 4 and 7, then Davies and random draws."""
    yield from (qubit.depolarizing(2, float(s)) for s in np.linspace(0.02, 0.98, 20))
    for t in range(200):
        yield davies.qubit_superoperator(criterion7_davies(stream_rng(42 + 5, t)))
    for t in range(50):
        rng = stream_rng(42 + 7, t)
        criterion7_davies(rng)
        yield random_channel(2, 1 + int(rng.random() * 3), rng)
    for t in range(600):
        yield davies.qubit_superoperator(_random_davies(stream_rng(77, t)))
        yield random_channel(2, 1 + t % 4, stream_rng(205, t))


class TestSecularRoot:
    # `_secular_root` is Newton on psi(mu) from the bracket's left end; brentq on the same
    # psi is the reference. Both stop at rounding, which moves the root by cond eps.
    def test_matches_brentq(self, monkeypatch):
        newton, roots, interior = qubit._secular_root, [], 0

        def recorded(c, d, lo, hi):
            roots.append((c, d, lo, hi, newton(c, d, lo, hi)))
            return roots[-1][-1]

        for phi in secular_channels():
            w, kappa = qubit._bloch_affine(phi)
            roots.clear()
            monkeypatch.setattr(qubit, "_secular_root", recorded)
            r = qubit._max_bloch_direction(w, kappa)
            monkeypatch.setattr(qubit, "_secular_root", brentq_root)
            assert np.abs(r - qubit._max_bloch_direction(w, kappa)).max() <= 1e-15
            for c, d, lo, hi, mu in roots:
                ref = brentq_root(c, d, lo, hi)
                assert lo <= mu <= hi
                assert abs(mu - ref) <= 4 * EPS * root_condition(c, d, ref) * ref
                interior += lo < ref < hi
        assert interior >= 500

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-300, -1), st.integers(1, 12), st.sampled_from([-1.0, 1.0]),
           st.floats(0.05, 0.95), st.floats(0.0, math.pi / 2))
    def test_near_the_hard_case(self, top, gap, side, d2, angle):
        # |c_top| = 10^top and sum_rest c²/d² = 1 ± 10^-gap: the root sits next to the pole
        # at mu = 0, and for the minus sign it tends to 0 with c_top (the hard case)
        d = [0.0, d2, 1.0]
        scale = math.sqrt(1.0 + side * 10.0 ** -gap)
        c = [10.0 ** top, scale * math.cos(angle) * d2, scale * math.sin(angle)]
        lo, hi = abs(c[0]), math.hypot(*c)
        mu, ref = qubit._secular_root(c, d, lo, hi), brentq_root(c, d, lo, hi)
        assert lo <= mu <= hi
        assert abs(mu - ref) <= 4 * EPS * root_condition(c, d, ref) * ref

    def test_non_finite_raises(self):
        with pytest.raises(NonFiniteError):
            qubit._secular_root([math.nan, 0.5], [0.0, 0.5], 0.1, 1.0)


class TestMaxBlochRadiusOracle:
    # the 50-digit reference of oracle.max_bloch_radius on the float (W, kappa) the
    # kernel reads: 200 random channels, 200 Davies draws of the davies suite and 20
    # Pauli channels (kappa = 0). Measured worst error 3.67 eps (random), 0.53 eps
    # (Davies), 0 (Pauli); the largest overshoot 0.80 eps
    def test_within_4_eps_and_never_2_eps_above(self):
        eps = Decimal(EPS)
        draws = [(random_channel(2, 1 + t % 4, stream_rng(211, t)), None) for t in range(200)]
        for t in range(200):
            d = _random_davies(stream_rng(212, t))
            draws.append((davies.qubit_superoperator(d), 2 * davies.qubit_max_norm(d) - 1))
        for t in range(20):
            p = dirichlet(4, stream_rng(213, t))
            eta = 2 * (p[0] + p[1:]) - 1
            draws.append((qubit.pauli_channel(p), np.abs(eta).max()))
        worst = overshoot = Decimal(0)
        for phi, closed_form in draws:
            ref = oracle.max_bloch_radius(*qubit._bloch_affine(phi))
            if closed_form is not None:  # the thesis's closed forms check the oracle itself
                assert abs(float(ref) - closed_form) <= 1e-14
            err = (Decimal(qubit._max_bloch_radius(phi)[0]) - ref) / eps
            worst, overshoot = max(worst, abs(err)), max(overshoot, err)
        assert worst <= 4 and overshoot <= 2, (worst, overshoot)


R2 = EntropyOrder.renyi(2.0)
VERTICES = ([1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3, 0.0], [0.25] * 4)


class TestScatter:
    # the (s_map, s_min) points of Pauli channels that `figure scatter-q` plots
    def test_identity_point(self):
        s_map, s_min = qubit.pauli_points([1.0, 0.0, 0.0, 0.0], R2)
        assert abs(s_map) < 1e-10 and abs(s_min) < 1e-10
        phi = identity_channel(2)
        assert abs(map_entropy(phi, R2)) < 1e-10 and abs(qubit.min_output_entropy(phi, R2)[0]) < 1e-10

    def test_depolarizing_point(self):
        s_map, s_min = qubit.pauli_points([0.25] * 4, R2)
        assert abs(s_map - 2 * math.log(2)) < 1e-10
        assert abs(s_min - math.log(2)) < 1e-10
        phi = qubit.depolarizing(2, 1.0)
        assert abs(map_entropy(phi, R2) - 2 * math.log(2)) < 1e-10
        assert abs(qubit.min_output_entropy(phi, R2)[0] - math.log(2)) < 1e-10

    @pytest.mark.parametrize("order", ORDERS + (EntropyOrder.renyi(3.0),), ids=repr)
    def test_agrees_with_the_general_path(self, order):
        # the closed forms against the Choi spectrum and the exact qubit minimizer
        weights = np.array([dirichlet(4, stream_rng(81, t)) for t in range(2000)] + list(VERTICES))
        s_map, s_min = qubit.pauli_points(weights, order)
        for w, a, b in zip(weights, s_map, s_min):
            phi = qubit.pauli_channel(w)
            assert abs(a - map_entropy(phi, order)) <= 1e-12
            assert abs(b - qubit.min_output_entropy(phi, order)[0]) <= 1e-12

    def test_one_vector_gives_floats(self):
        s_map, s_min = qubit.pauli_points(VERTICES[2], R2)
        assert np.ndim(s_map) == np.ndim(s_min) == 0
        with pytest.raises(ValueError, match="4 weights"):
            qubit.pauli_points([0.5, 0.5, 0.0])

    def test_envelope_for_random_pauli(self):
        # no sampled point exceeds the depolarizing (AD) curve; none dips
        # below the AB/BD lower envelope
        curves = qubit.pauli_edge_curves(2.0, samples=400)
        bd = curves["BD"]
        for t in range(300):
            w = dirichlet(4, stream_rng(72, t))
            phi = qubit.pauli_channel(w)
            s_map = map_entropy(phi, R2)
            s_min = max(qubit.min_output_entropy(phi, R2)[0], 0.0)
            upper = qubit.smin_from_smap(min(s_map, 2 * math.log(2)), 2)
            assert s_min <= upper + 1e-6
            if s_map > math.log(2):
                lower = np.interp(s_map, bd[:, 0][::-1], bd[:, 1][::-1])
                assert s_min >= lower - 1e-6

    def test_envelope_closed_form_large_sample(self):
        # 10^4 Pauli channels via the exact Pauli closed forms: the Rényi-2
        # point never rises above the depolarizing curve
        s_map, s_min = qubit.pauli_points(_flat_dirichlet(stream_uniforms(76, 0, 10000, 4)), R2)
        upper = [qubit.smin_from_smap(min(s, 2 * math.log(2)), 2) for s in s_map]
        assert np.all(s_min <= np.array(upper) + 1e-9)


class TestSandwich:
    def test_both_unitary(self):
        rng = stream_rng(73, 0)
        rep = qubit.sandwich_check(
            unitary_channel(haar_unitary(2, rng)), unitary_channel(haar_unitary(2, rng))
        )
        assert rep.ok and abs(rep.middle_vn) < 1e-9 and abs(rep.upper_vn) < 1e-9

    def test_one_unitary_middle_equals_map_entropy(self):
        rng = stream_rng(73, 1)
        phi1 = random_channel(2, 3, rng)
        rep = qubit.sandwich_check(phi1, unitary_channel(haar_unitary(2, rng)))
        assert abs(rep.middle_vn - map_entropy(phi1)) < 1e-9

    def test_random_pairs(self):
        for t in range(1000):
            rng = stream_rng(73, t + 2)
            rep = qubit.sandwich_check(
                random_channel(2, 1 + t % 4, rng), random_channel(2, 1 + (t + 1) % 4, rng)
            )
            assert rep.ok

    @pytest.mark.parametrize("t", range(6))
    def test_rectangular_channels_match_the_entropies_of_each_matrix(self, t):
        # complementary channels change the output dimension, so the three matrices
        # differ in size and are zero-padded into one stack
        rng = stream_rng(73, 2000 + t)
        phi1 = random_channel(2, 1 + t % 3, rng).complementary()
        phi2 = random_channel(2, 3, rng)
        rep = qubit.sandwich_check(phi1, phi2)
        state = phi1.tensor(phi2).apply(qubit._max_entangled(2))
        t2, r2 = EntropyOrder.tsallis(2.0), EntropyOrder.renyi(2.0)
        want = [vn_entropy(state), vn_entropy(state, t2), abs(map_entropy(phi1) - map_entropy(phi2)),
                map_entropy(phi1) + map_entropy(phi2), abs(map_entropy(phi1, t2) - map_entropy(phi2, t2)),
                map_entropy(phi1, t2) + map_entropy(phi2, t2), qubit.renyi2_lower(phi1, phi2),
                vn_entropy(state, r2)]
        got = [rep.middle_vn, rep.middle_tsallis2, rep.lower_vn, rep.upper_vn, rep.lower_tsallis2,
               rep.upper_tsallis2, rep.renyi2_lower, rep.middle_renyi2]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        assert rep.ok


class TestAdditivityRegion:
    def test_unitary_partner_always_inside(self):
        rng = stream_rng(74, 0)
        phi1 = random_channel(2, 3, rng)
        assert qubit.additivity_region(phi1, unitary_channel(haar_unitary(2, rng)))

    def test_equal_nonzero_entropies_outside(self):
        assert not qubit.additivity_region_values(0.5, 0.5, 2, 2)

    def test_symmetric(self):
        rng = stream_rng(74, 1)
        for t in range(20):
            phi1 = random_channel(2, 1 + t % 3, rng)
            phi2 = random_channel(2, 1 + (t + 1) % 3, rng)
            assert qubit.additivity_region(phi1, phi2) == qubit.additivity_region(phi2, phi1)


class TestPreserveSmin:
    @staticmethod
    def _interior_davies(rng):
        # bistochastic Davies maps with c near its ceiling have the
        # minimizer at mu = 1/2, strictly inside (0, 1)
        from chanent.davies import DaviesQubit

        a = 0.05 + 0.1 * rng.random()
        cmax = math.sqrt(1 - 2 * a)
        return DaviesQubit(a=a, c=cmax * (0.97 + 0.02 * rng.random()), p=0.5)

    def test_identity_parameters(self):
        from chanent.davies import DaviesQubit, qubit_minimizer, qubit_superoperator

        d = DaviesQubit(a=0.2, c=0.5, p=0.4)
        phi1 = qubit_superoperator(d)
        mu, _ = qubit_minimizer(d)
        phi2 = qubit.preserve_smin(phi1, (1.0, 1.0, 1.0), 0.0, 0.0, mu)
        np.testing.assert_allclose(phi2.superoperator, phi1.superoperator, atol=1e-12)

    def test_eta_only_preserves(self):
        # works for endpoint minimizers too (no axis tilt)
        from chanent.davies import DaviesQubit, qubit_minimizer, qubit_superoperator

        d = DaviesQubit(a=0.15, c=0.6, p=0.45)
        phi1 = qubit_superoperator(d)
        mu, s1 = qubit_minimizer(d)
        rng = stream_rng(75, 0)
        accepted = 0
        for _ in range(20):
            eta = 0.5 + 0.5 * rng.random(3)
            try:
                phi2 = qubit.preserve_smin(phi1, eta, 0.0, 0.0, mu)
            except Exception:
                continue
            accepted += 1
            s2, _ = qubit.min_output_entropy(phi2)
            assert abs(s2 - s1) < 1e-6
        assert accepted >= 5

    def test_direction_tilt_preserves(self):
        from chanent.davies import qubit_minimizer, qubit_superoperator

        rng = stream_rng(75, 1)
        checked = 0
        for _ in range(40):
            d = self._interior_davies(rng)
            phi1 = qubit_superoperator(d)
            mu, s1 = qubit_minimizer(d)
            assert 0.1 < mu < 0.9
            eta = np.array([0.9, 0.9, 0.95])
            tn = 0.05 * (rng.random(2) - 0.5)
            try:
                phi2 = qubit.preserve_smin(phi1, eta, tn[0], tn[1], mu)
            except Exception:
                continue
            checked += 1
            s2, _ = qubit.min_output_entropy(phi2)
            assert abs(s2 - s1) < 1e-6
            if checked >= 10:
                break
        assert checked >= 5

    def test_cp_violation_rejected(self):
        from chanent.channels import InvalidChannelError
        from chanent.davies import DaviesQubit, qubit_superoperator

        d = DaviesQubit(a=0.2, c=0.5, p=0.4)
        phi1 = qubit_superoperator(d)
        with pytest.raises(InvalidChannelError):
            qubit.preserve_smin(phi1, (1.0, 1.0, 1.0), 2.0, 2.0, 0.5)


class TestInputChecks:
    @pytest.mark.parametrize("call, match", [
        (lambda: qubit.pauli_channel([0.5, 0.5]), "4 weights"),
        (lambda: qubit.depolarizing(2, 1.5), "mixing weight"),
        (lambda: qubit.smin_from_smap(2.0, 2), "outside"),
        (lambda: qubit.sandwich_check(identity_channel(2), identity_channel(3)), "equal dimension"),
        (lambda: qubit.preserve_smin(identity_channel(3), (1.0, 1.0, 1.0), 0.0, 0.0, 0.5), "qubit channels"),
        (lambda: qubit.preserve_smin(identity_channel(2), (1.0, 1.0, 1.0), 0.0, 0.0, 1.5), "p must lie"),
        (lambda: qubit.preserve_smin(identity_channel(2), (1.0, 1.0, 1.0), 0.1, 0.0, 1.0), "strictly inside"),
    ], ids=["pauli-weights", "depolarizing-weight", "smap-range", "sandwich-dims", "preserve-qutrit",
            "preserve-p", "preserve-tilt-at-pole"])
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestMaxOutput2Norm:
    def test_identity(self):
        assert abs(qubit.max_output_2norm(identity_channel(2)) - 1.0) < 1e-9

    def test_completely_depolarizing(self):
        assert abs(qubit.max_output_2norm(qubit.depolarizing(2, 1.0)) - 0.5) < 1e-9

    def test_davies_kappa_zero(self):
        from chanent.davies import DaviesQubit, qubit_max_norm, qubit_superoperator

        d = DaviesQubit(a=0.3, c=0.6, p=0.5)  # p = 1/2 makes kappa3 = 0
        closed = qubit_max_norm(d)
        assert abs(closed - 0.5 * (1 + 0.6)) < 1e-12
        opt = qubit.max_output_2norm(qubit_superoperator(d))
        assert abs(opt - closed) < 1e-6


def bloch_max_norm(phi: Channel) -> float:
    """Exact maximal output norm of a qubit channel: (1 + max |W r + kappa|)/2."""
    w, kappa = qubit._bloch_affine(phi)
    return (1.0 + np.linalg.norm(w @ qubit._max_bloch_direction(w, kappa) + kappa)) / 2.0


def seesaw_max_norm(phi: Channel) -> float:
    """The seesaw's value, which max_output_2norm runs beyond qubit channels."""
    return float(qubit._output_extremum(phi, None)[1][-1])


def best_probe_norm(phi: Channel, probes: int, seed: int) -> float:
    """Largest top output eigenvalue over `probes` seeded Haar-random pure inputs."""
    rng = stream_rng(seed, 0)
    vecs = np.array([random_pure_state(phi.in_dim, rng) for _ in range(probes)])
    out = np.einsum("moi,si->smo", phi.kraus, vecs)
    return float(np.linalg.eigvalsh(np.einsum("smo,smp->sop", out, out.conj()))[:, -1].max())


def davies_times_random(t: int) -> Channel:
    rng = stream_rng(75, t)
    p = 0.05 + 0.9 * rng.random()
    a = rng.random() * (1 - p) * 0.99
    d = davies.DaviesQubit(a=a, c=(0.01 + 0.98 * rng.random()) * math.sqrt(1 - a / (1 - p)), p=p)
    return davies.qubit_superoperator(d).tensor(random_channel(2, 1 + t % 3, rng))


class TestSeesaw:
    @settings(max_examples=60, deadline=None)
    @given(kraus_lists())
    def test_qubit_channels_match_bloch_value(self, kraus):
        phi = Channel(kraus)
        assume(phi.in_dim == 2 and phi.out_dim == 2)
        assert abs(seesaw_max_norm(phi) - bloch_max_norm(phi)) <= 1e-12
        assert abs(qubit.max_output_2norm(phi) - bloch_max_norm(phi)) <= 1e-12

    def test_near_the_hard_case_boundary(self):
        # |z*| just below 1: the value is almost flat to fourth order at the
        # maximum, where the plain seesaw step shrinks like the distance cubed
        for p, a, z_star in [(0.3, 0.05, -0.999), (0.7, 0.02, 0.9995), (0.45, 0.2, -0.99)]:
            eta3 = 1 - a / (1 - p)
            kappa3 = a * (2 * p - 1) / (1 - p)
            c = math.sqrt(eta3 ** 2 + kappa3 * eta3 / z_star)
            d = davies.DaviesQubit(a=a, c=c, p=p)
            phi = davies.qubit_superoperator(d)
            assert abs(seesaw_max_norm(phi) - davies.qubit_max_norm(d)) <= 1e-12
            assert abs(qubit.max_output_2norm(phi) - davies.qubit_max_norm(d)) <= 1e-12

    @pytest.mark.parametrize("t", range(8))
    def test_never_below_probes(self, t):
        for phi in (random_channel(3, 1 + t % 4, stream_rng(74, t)), davies_times_random(t)):
            assert qubit.max_output_2norm(phi, seed=t) >= best_probe_norm(phi, 2000, 74 + t) - 1e-12

    def test_same_seed_same_value(self):
        phi = davies_times_random(20)
        assert qubit.max_output_2norm(phi, seed=5) == qubit.max_output_2norm(phi, seed=5)

    def test_runs_no_minimize(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.optimize.minimize called by max_output_2norm")

        monkeypatch.setattr(scipy.optimize, "minimize", forbidden)
        for phi in (random_channel(2, 3, stream_rng(74, 30)), random_channel(3, 2, stream_rng(74, 31)),
                    davies_times_random(21)):
            qubit.max_output_2norm(phi)


def davies_times_unitary(t: int) -> tuple[Channel, Channel]:
    """A Davies qubit map and its product with a Haar-random unitary channel."""
    rng = stream_rng(78, t)
    p = 0.05 + 0.9 * rng.random()
    a = rng.random() * (1 - p) * 0.99
    d = davies.DaviesQubit(a=a, c=(0.01 + 0.98 * rng.random()) * math.sqrt(1 - a / (1 - p)), p=p)
    phi = davies.qubit_superoperator(d)
    return phi, phi.tensor(unitary_channel(haar_unitary(2, rng)))


def qutrit_to_4(seed: int, t: int) -> Channel:
    return random_channel(3, 4, stream_rng(seed, t))


def davies_times_random_303(t: int) -> Channel:
    """Davies ⊗ random qubit channel, both drawn from stream (303, t) as the multiplicativity trials draw them."""
    from chanent.cli import _random_davies

    rng = stream_rng(303, t)
    d = _random_davies(rng)
    return davies.qubit_superoperator(d).tensor(random_channel(2, 1 + t % 3, rng))


FIXED_POINT_ORDERS = (VON_NEUMANN, EntropyOrder.renyi(2.0), EntropyOrder.tsallis(2.0))


class TestOutputExtremum:
    @pytest.mark.parametrize("order", FIXED_POINT_ORDERS, ids=["vn", "renyi2", "tsallis2"])
    def test_davies_times_unitary_matches_exact_qubit_value(self, order):
        # a unitary factor leaves S_min unchanged, and the qubit value is exact
        for t in range(12):
            phi, product = davies_times_unitary(t)
            exact, _ = qubit.min_output_entropy(phi, order)
            value, state = qubit.min_output_entropy(product, order, seed=t)
            assert abs(value - exact) <= 1e-12
            assert abs(vn_entropy(product.apply(state), order) - value) <= 1e-12

    @pytest.mark.parametrize("phi, order, reached", [
        # probes plus Nelder-Mead stopped at 0.4866966 and 0.2330682 on the first two
        (qutrit_to_4(101, 43), VON_NEUMANN, 0.471846152743),
        (davies_times_random_303(8), VON_NEUMANN, 0.115977618307),
        # reached only from the von Neumann start: the other starts stop 7.4e-3 higher
        (qutrit_to_4(101, 27), EntropyOrder.renyi(5.0), 0.229576716151),
    ], ids=["qutrit-vn", "davies-product-vn", "qutrit-renyi5"])
    def test_pinned_values(self, phi, order, reached):
        value, _ = qubit.min_output_entropy(phi, order)
        assert value <= reached + 1e-12

    @pytest.mark.parametrize("order", FIXED_POINT_ORDERS + (EntropyOrder.renyi(5.0),),
                             ids=["vn", "renyi2", "tsallis2", "renyi5"])
    def test_stationary(self, order):
        # the minimizer is the top eigenvector of Phi†(f′(rho)): log rho or rho^(q-1)
        for t in range(10):
            phi = random_channel(3, 3 + t % 2, stream_rng(90, t))
            _, state = qubit.min_output_entropy(phi, order)
            psi = np.linalg.eigh(state)[1][:, -1]
            rho = phi.apply(state)
            grad = psd_log(rho) if order.is_limit else psd_power(rho, order.q - 1.0)
            top = np.linalg.eigh(np.einsum("moi,op,mpj->ij", phi.kraus.conj(), grad, phi.kraus))[1][:, -1]
            assert 1.0 - abs(top.conj() @ psi) <= 1e-8

    def test_amplitude_damping_times_identity_no_warnings(self):
        # rank-deficient outputs: the log and the powers meet zero eigenvalues
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gamma in (0.3, 0.77, 1.0):
                phi = amplitude_damping(gamma).tensor(identity_channel(2))
                for order in ORDERS:
                    value, _ = qubit.min_output_entropy(phi, order)
                    assert abs(value) <= 1e-12
                assert abs(qubit.max_output_2norm(phi) - 1.0) <= 1e-12

    def test_qubit_input_with_qutrit_output(self):
        # the complementary channel of a 3-Kraus qubit channel maps C^2 to C^3
        phi = random_channel(2, 3, stream_rng(5, 0)).complementary()
        assert (phi.in_dim, phi.out_dim) == (2, 3)
        rng = stream_rng(5, 1)
        probes = [phi.apply(np.outer(v, v.conj())) for v in (random_pure_state(2, rng) for _ in range(2000))]
        for order in ORDERS:
            value, state = qubit.min_output_entropy(phi, order)
            assert value <= min(vn_entropy(rho, order) for rho in probes) + 1e-12
            assert abs(vn_entropy(phi.apply(state), order) - value) <= 1e-12

    def test_runs_no_minimize_for_q_at_least_1(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.optimize.minimize called for an order q >= 1")

        monkeypatch.setattr(scipy.optimize, "minimize", forbidden)
        channels = (random_channel(3, 2, stream_rng(79, 0)), davies_times_random(22),
                    random_channel(2, 3, stream_rng(5, 0)).complementary())
        for phi in channels:
            for order in FIXED_POINT_ORDERS + (EntropyOrder.renyi(5.0),):
                qubit.min_output_entropy(phi, order)
