import math

import numpy as np
import pytest
import scipy.linalg

from chanent import cli, davies
from chanent.channels import Channel, InvalidChannelError
from chanent.entropy import classical_entropy, spectrum_entropy
from chanent.sampling import complex_gaussian, stream_rng
from tests_support import matrix_exp


def random_valid_qubit(rng) -> davies.DaviesQubit:
    p = 0.05 + 0.9 * rng.random()
    a = rng.random() * (1 - p) * 0.99
    cmax = math.sqrt(1 - a / (1 - p))
    return davies.DaviesQubit(a=a, c=(0.01 + 0.98 * rng.random()) * cmax, p=p)


class TestDaviesQubit:
    def test_identity_limit(self):
        d = davies.DaviesQubit(a=0.0, c=1.0, p=0.3)
        phi = davies.qubit_superoperator(d)
        np.testing.assert_allclose(phi.superoperator, np.eye(4), atol=1e-12)

    def test_invariant_state_fixed(self):
        for t in range(30):
            d = random_valid_qubit(stream_rng(80, t))
            phi = davies.qubit_superoperator(d)
            star = np.diag([d.p, 1 - d.p]).astype(complex)
            np.testing.assert_allclose(phi.apply(star), star, atol=1e-10)
            assert phi.is_cptp().ok

    def test_bistochastic_at_half(self):
        d = davies.DaviesQubit(a=0.2, c=0.5, p=0.5)
        params = davies.bloch_params(d)
        assert abs(params.kappa[2]) < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            davies.DaviesQubit(a=0.6, c=0.3, p=0.5)  # a + p >= 1
        with pytest.raises(ValueError):
            davies.DaviesQubit(a=0.3, c=0.9, p=0.5)  # c above sqrt(1 - a/(1-p))

    def test_superoperator_matches_generator_exponential(self):
        relaxation, dephasing, p, t = 1.0, 0.8, 0.3, 0.5
        rates = davies.DaviesRates(relaxation, dephasing, p, t)
        d = davies.DaviesQubit.from_rates(rates)
        phi = davies.qubit_superoperator(d)
        gen = davies.qubit_generator(relaxation, dephasing, p)
        np.testing.assert_allclose(phi.superoperator, matrix_exp(gen * t), atol=1e-9)

    def test_rates_constraint(self):
        with pytest.raises(ValueError):
            davies.DaviesRates(2.0, 0.5, 0.3, 1.0)  # Gamma < A/2

    def test_semigroup_property(self):
        rng = stream_rng(80, 100)
        for _ in range(20):
            gam = 0.2 + rng.random()
            rel = rng.random() * 2 * gam
            rates = davies.DaviesRates(rel, gam, 0.2 + 0.6 * rng.random(), 0.0)
            res = davies.semigroup_residual(rates, 0.4 + rng.random(), 0.4 + rng.random())
            assert res < 1e-9

    def test_semigroup_residual_builds_no_channel(self, monkeypatch):
        def round_trip(rates, t1, t2):
            def superop(t):
                at_t = davies.DaviesRates(rates.relaxation, rates.dephasing, rates.p, t)
                return davies.qubit_superoperator(davies.DaviesQubit.from_rates(at_t)).superoperator

            return float(np.abs(superop(t1) @ superop(t2) - superop(t1 + t2)).max())

        rng = stream_rng(80, 101)
        draws = []
        for _ in range(30):
            gam = 0.2 + rng.random()
            rates = davies.DaviesRates(rng.random() * 2 * gam, gam, 0.05 + 0.9 * rng.random(), 0.0)
            t1, t2 = 0.05 + 2 * rng.random(), 0.05 + 2 * rng.random()
            draws.append((rates, t1, t2, round_trip(rates, t1, t2)))

        def forbidden(*args, **kwargs):
            raise AssertionError("Channel.from_superoperator called by semigroup_residual")

        monkeypatch.setattr(davies.Channel, "from_superoperator", forbidden)
        for rates, t1, t2, expected in draws:
            assert abs(davies.semigroup_residual(rates, t1, t2) - expected) <= 1e-14

    def test_davies_trial_runs_no_kraus_decomposition(self, monkeypatch):
        expected = [cli._trial_davies(1108, t, {}) for t in range(40)]

        def forbidden(*args, **kwargs):
            raise AssertionError("Kraus decomposition run by _trial_davies")

        monkeypatch.setattr(Channel, "_from_outer_sum", forbidden)
        assert [cli._trial_davies(1108, t, {}) for t in range(40)] == expected

    def test_semigroup_residual_validates_each_map(self):
        # DaviesRates leaves p unchecked; the DaviesQubit built for each time rejects it
        with pytest.raises(ValueError):
            davies.semigroup_residual(davies.DaviesRates(1.0, 1.0, 1.5, 0.0), 0.5, 0.5)


class TestQubitMinimizer:
    def test_long_time_limit(self):
        # a -> 1-p, c -> 0 drives the minimizer to a Hamiltonian eigenstate
        d = davies.DaviesQubit(a=0.699, c=0.01, p=0.3)
        mu, s_min = davies.qubit_minimizer(d)
        assert mu in (0.0, 1.0)

    def test_tied_endpoints_give_mu_zero(self):
        # p = 1/2 makes b = a, so both endpoints reach the radius |1 - 2a| when
        # c <= |1 - 2a|: the minimizer reports mu = 0, the first endpoint
        d = davies.DaviesQubit(a=0.2, c=0.5, p=0.5)
        mu, s_min = davies.qubit_minimizer(d)
        assert mu == 0.0
        assert abs(s_min - classical_entropy(np.array([0.8, 0.2]))) <= 1e-14

    def test_branch_boundary_continuity(self):
        # both branches agree where c² = (1-a-b)(1-2b)
        a, p = 0.2, 0.3
        b = a * p / (1 - p)
        c2 = (1 - a - b) * (1 - 2 * b)
        if 0 < c2 <= 1 - a / (1 - p):
            c = math.sqrt(c2)
            d_lo = davies.DaviesQubit(a=a, c=c * (1 - 1e-7), p=p)
            d_hi = davies.DaviesQubit(a=a, c=c * (1 + 1e-7), p=p)
            _, s_lo = davies.qubit_minimizer(d_lo)
            _, s_hi = davies.qubit_minimizer(d_hi)
            assert abs(s_lo - s_hi) < 1e-8

    def test_matches_optimizer(self):
        from chanent.qubit import min_output_entropy

        for t in range(30):
            d = random_valid_qubit(stream_rng(81, t))
            _, s_closed = davies.qubit_minimizer(d)
            s_opt, _ = min_output_entropy(davies.qubit_superoperator(d))
            assert abs(s_closed - s_opt) <= 1e-12

    def test_matches_exact_minimizer_tightly(self):
        # both sides are exact: they differ only by rounding
        from chanent.qubit import min_output_entropy

        for t in range(200):
            d = random_valid_qubit(stream_rng(83, t))
            _, s_closed = davies.qubit_minimizer(d)
            s_opt, _ = min_output_entropy(davies.qubit_superoperator(d))
            assert abs(s_closed - s_opt) <= 1e-12


class TestQubitMaxNorm:
    def test_identity(self):
        d = davies.DaviesQubit(a=1e-12, c=1.0, p=0.4)
        assert abs(davies.qubit_max_norm(d) - 1.0) < 1e-9

    def test_matches_optimizer(self):
        from chanent.qubit import max_output_2norm

        for t in range(10):
            d = random_valid_qubit(stream_rng(82, t))
            opt = max_output_2norm(davies.qubit_superoperator(d), seed=t)
            assert abs(davies.qubit_max_norm(d) - opt) <= 1e-12

    def test_matches_seesaw_tightly(self):
        # the closed form and the converged seesaw differ only by rounding
        from chanent.qubit import max_output_2norm

        for t in range(200):
            d = random_valid_qubit(stream_rng(87, t))
            opt = max_output_2norm(davies.qubit_superoperator(d), seed=t)
            assert abs(davies.qubit_max_norm(d) - opt) <= 1e-12

    def test_radius_above_one_is_clamped(self):
        # DOMAIN_EDGE admits c just above its bound sqrt(1 - a/(1 - p)) = 1, where the
        # output radius reads 1 + 1e-12: a 2-norm is at most 1, as the Bloch path gives it
        from chanent.qubit import max_output_2norm

        d = davies.DaviesQubit(a=0.0, c=1.0 + 1e-12, p=0.3)
        assert davies.qubit_max_norm(d) <= 1.0
        assert davies.qubit_max_norm(d) == max_output_2norm(davies.qubit_superoperator(d))

    def test_one_radius_with_the_minimizer(self):
        # both closed forms read one clamped radius: S_min is the binary entropy of the top eigenvalue
        for t in range(200):
            d = random_valid_qubit(stream_rng(88, t))
            top = davies.qubit_max_norm(d)
            assert davies.qubit_minimizer(d)[1] == spectrum_entropy([top, 1.0 - top])

    def test_bloch_params_are_the_minimizers_parameters(self, monkeypatch):
        # bloch_params spells eta3 and kappa3 as the closed forms read them: the same radius, bit for bit
        real, seen = davies._max_radius, []
        monkeypatch.setattr(davies, "_max_radius", lambda *args: seen.append(real(*args)) or seen[-1])
        for t in range(200):
            d = random_valid_qubit(stream_rng(89, t))
            davies.qubit_minimizer(d)
            params = davies.bloch_params(d)
            assert real(params.kappa[2], params.eta[2], d.c)[1] == seen[-1][1]


from tests_support import random_thermal_block as _thermal_block


def random_thermal_block(rng, with_mu=True) -> davies.DaviesQutritBlock:
    # valid-by-construction member block (exponential of a thermal generator)
    return _thermal_block(rng, with_mu=with_mu)


class TestQutritBlock:
    @pytest.mark.parametrize("rates, mu", [
        ((math.nan, 0.0, 0.0), None),
        ((0.1, math.inf, 0.0), None),
        ((0.1 + 0.2j, 0.0, 0.0), None),
        ((complex(0.0, math.nan), 0.0, 0.0), None),
        ((0.1, 0.1, 0.1), (1.0, math.nan, 1.0)),
    ], ids=["nan-rate", "inf-rate", "complex-rate", "complex-nan-rate", "nan-mu"])
    def test_non_finite_or_complex_parameters_raise(self, rates, mu):
        # a NaN rate once built a block whose logarithm read as all zeros
        with pytest.raises(ValueError, match="finite real"):
            davies.DaviesQutritBlock(*rates, mu=mu)


class TestQutritSuperoperator:
    def test_identity(self):
        block = davies.DaviesQutritBlock(0.0, 0.0, 0.0, mu=np.ones(3))
        phi = davies.qutrit_superoperator(block)
        np.testing.assert_allclose(phi.superoperator, np.eye(9), atol=1e-12)

    def test_gibbs_state_fixed(self):
        for t in range(20):
            block = random_thermal_block(stream_rng(83, t))
            phi = davies.qutrit_superoperator(block)
            gibbs = np.diag(block.p).astype(complex)
            np.testing.assert_allclose(phi.apply(gibbs), gibbs, atol=1e-10)

    def test_detailed_balance_hermiticity(self):
        rng = stream_rng(83, 100)
        for t in range(10):
            block = random_thermal_block(stream_rng(83, 200 + t))
            x = complex_gaussian(rng, (3, 3))
            y = complex_gaussian(rng, (3, 3))
            assert davies.detailed_balance_residual(block, x, y) < 1e-9

    def test_detailed_balance_runs_no_kraus_decomposition(self, monkeypatch):
        block = random_thermal_block(stream_rng(83, 300))
        x, y = complex_gaussian(stream_rng(83, 301), (2, 3, 3))
        phi = davies.qutrit_superoperator(block)
        g_inv = np.diag(1.0 / block.p)
        # the residual at a weight that is not the Gibbs state's, through Kraus operators
        lhs = np.trace(g_inv @ x.conj().T @ phi.apply(y))
        rhs = np.trace(g_inv @ phi.apply(x).conj().T @ y)
        expected = davies.detailed_balance_residual(block, x, y)
        assert expected == pytest.approx(abs(lhs - rhs), abs=1e-12)

        def forbidden(*args, **kwargs):
            raise AssertionError("Kraus decomposition run by detailed_balance_residual")

        monkeypatch.setattr(Channel, "_from_outer_sum", forbidden)
        assert davies.detailed_balance_residual(block, x, y) == expected

    def test_choi_negativity_rejected(self):
        block = davies.DaviesQutritBlock(0.3, 0.3, 0.3, mu=np.ones(3))
        with pytest.raises(InvalidChannelError):
            davies.qutrit_superoperator(block)


class TestMembership:
    def test_identity_member(self):
        res = davies.membership(davies.DaviesQutritBlock(0.0, 0.0, 0.0))
        assert res.is_member and not res.boundary
        np.testing.assert_allclose(res.generator, np.zeros((3, 3)), atol=1e-12)

    def test_paper_points(self):
        # figure coordinates map to lower off-diagonals as
        # (F32, F31, F21) = (f12, f13, f23)
        point_a = davies.DaviesQutritBlock(f21=0.0, f31=0.0, f32=0.5)
        res_a = davies.membership(point_a)
        assert res_a.is_member and res_a.boundary

        point_b = davies.DaviesQutritBlock(f21=0.04512, f31=0.22744, f32=0.22744)
        res_b = davies.membership(point_b)
        assert res_b.is_member and not res_b.boundary
        assert res_b.l21 >= -1e-9

        mid = davies.DaviesQutritBlock(f21=0.02256, f31=0.11372, f32=0.36372)
        res_m = davies.membership(mid)
        assert not res_m.is_member
        assert res_m.l21 < 0

    def test_closed_form_agrees_with_matrix_log(self):
        for t in range(50):
            block = random_thermal_block(stream_rng(84, t), with_mu=False)
            res = davies.membership(block)
            assert res.is_member
            assert abs(res.l21_closed - res.l21) < 1e-7

    @pytest.mark.parametrize("rates, l21", [((0.0, 0.3, 0.3), -0.2054267101963083),
                                            ((1e-13, 0.2, 0.1), -0.01646314647637709)])
    def test_closed_form_at_vanishing_f21(self, rates, l21):
        # the cross term 2 F23 F31/F21 diverges and F21 times it stays finite:
        # L21 does not vanish with F21
        res = davies.membership(davies.DaviesQutritBlock(*rates))
        assert abs(res.l21_closed - l21) <= 1e-15
        assert abs(res.l21_closed - res.l21) <= 1e-15

    def test_exp_log_round_trip(self):
        for t in range(50):
            block = random_thermal_block(stream_rng(85, t), with_mu=False)
            f = block.stochastic_block()
            log_f = davies.membership(block).generator
            assert np.abs(matrix_exp(log_f) - f).max() < 1e-9

    def test_negative_spectrum_not_member(self):
        # detailed balance keeps the spectrum real, but it can go negative;
        # such blocks have no real logarithm and are not members
        block = davies.DaviesQutritBlock(f21=0.45, f31=0.45, f32=0.45)
        f = block.stochastic_block()
        assert np.linalg.eigvalsh((f + f.T) / 2).min() < -1e-6
        res = davies.membership(block)
        assert not res.is_member and res.reason


    def test_l21_at_the_limit_band(self):
        # x + y lies within DAVIES_LIMIT_BAND of 1, where L21's quotient is taken at its limit -1;
        # the limit is off by at most 5e-10 (tolerances.py)
        block = davies.DaviesQutritBlock(f21=0.1, f31=0.0, f32=1e-10)
        assert abs(davies.l21_closed_form(block.stochastic_block()) - davies.membership(block).l21) <= 5e-10


class TestInputChecks:
    @pytest.mark.parametrize("call, match", [
        (lambda: davies.DaviesRates(1.0, 0.8, 0.3, -1.0), "time must be nonnegative"),
        (lambda: davies.DaviesQutritBlock(-0.1, 0.0, 0.0), "must be nonnegative"),
        (lambda: davies.DaviesQutritBlock(0.6, 0.6, 0.1), "column sums exceed 1"),
        (lambda: davies.l21_closed_form(np.eye(3, dtype=complex)), "real matrix"),
        # a cyclic permutation has the eigenvalues 1, exp(±2πi/3)
        (lambda: davies.l21_closed_form(np.roll(np.eye(3), 1, axis=0)), "complex eigenvalue pair"),
    ], ids=["negative-time", "negative-rate", "column-sum", "complex-block", "complex-pair"])
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestSweep:
    def test_origin_is_member(self):
        rows = davies.davies_set_sweep(resolution=10)
        origin = next(r for r in rows if r["f12"] == 0 and r["f13"] == 0 and r["f23"] == 0)
        assert origin["member"]

    def test_members_satisfy_zero_block_constraints(self):
        rows = davies.davies_set_sweep(resolution=12)
        for r in rows:
            if r["member"]:
                assert davies.zero_block_constraints(r["f23"], r["f13"], r["f12"])

    def test_non_convexity_visible(self):
        rows = davies.davies_set_sweep(resolution=10)
        members = sum(1 for r in rows if r["member"])
        non_members = sum(1 for r in rows if not r["member"])
        assert members > 0 and non_members > 0

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            davies.davies_set_sweep(resolution=5)

    @pytest.mark.parametrize("resolution", [10, 11, 12, 13, 50])
    def test_cross_section_is_the_layers_nearest_the_plane(self, resolution):
        # grid sums are m·h, h = 1/(resolution - 1): an odd resolution has the plane sum = 1/2
        # as a layer, an even one the two layers h/2 either side of it; no row is farther
        h = 1.0 / (resolution - 1)
        rows = davies.davies_set_sweep(resolution)
        gaps = [abs(r["f12"] + r["f13"] + r["f23"] - 0.5) / h for r in rows]
        cross = [g for g, r in zip(gaps, rows) if r["in_cross_section"]]
        assert cross and max(cross) <= 0.5 + 1e-12
        assert min(g for g, r in zip(gaps, rows) if not r["in_cross_section"]) >= 1.0 - 1e-12
        if resolution % 2:
            assert max(cross) <= 1e-12
        else:
            assert min(cross) >= 0.5 - 1e-12

    @pytest.mark.parametrize("resolution", [11, 13])
    def test_odd_resolution_keeps_the_plane_rows(self, resolution):
        # the rule before the layers were counted by index: |sum - 1/2| < 0.5/resolution
        rows = davies.davies_set_sweep(resolution)
        assert [r["in_cross_section"] for r in rows] == [
            abs(r["f12"] + r["f13"] + r["f23"] - 0.5) < 0.5 / resolution for r in rows]


@pytest.fixture(scope="module")
def sweep50():
    return davies.davies_set_sweep(resolution=50)


def block_of(row) -> davies.DaviesQutritBlock:
    return davies.DaviesQutritBlock(f21=row["f23"], f31=row["f13"], f32=row["f12"])


class TestSweepAtFigureResolution:
    def test_members_invariant_under_relabelling(self, sweep50):
        # with uniform weights, relabelling two levels swaps two figure coordinates
        member = {(r["f12"], r["f13"], r["f23"]): r["member"] for r in sweep50}
        for swap in ((1, 0, 2), (2, 1, 0), (0, 2, 1)):
            for point, m in member.items():
                assert member[tuple(point[i] for i in swap)] == m, (point, swap)

    def test_boundary_rates_are_the_limit_from_inside(self, sweep50):
        # log(εI + (1-ε)F) as ε -> 0: a diverging entry grows like log ε, the others converge
        rows = [r for r in sweep50 if r["boundary"]]
        assert len(rows) == 30
        for r in rows:
            f = block_of(r).stochastic_block()
            near, nearer = (scipy.linalg.logm(eps * np.eye(3) + (1 - eps) * f).real
                            for eps in (1e-6, 1e-9))
            for value, (i, j) in zip((r["l21"], r["l31"], r["l32"]), ((1, 0), (2, 0), (2, 1))):
                if math.isinf(value):
                    assert (nearer[i, j] - near[i, j]) * value > 1.0
                else:
                    assert abs(value - nearer[i, j]) <= 1e-6

    def test_membership_equals_the_sweep_row(self, sweep50):
        # the stacked kernel decomposes each block as it would alone
        for r in sweep50[::7]:
            res = davies.membership(block_of(r))
            assert (res.is_member, res.boundary) == (r["member"], r["boundary"])
            got = np.array([res.l21, res.l31, res.l32])
            assert got.tobytes() == np.array([r["l21"], r["l31"], r["l32"]]).tobytes()


class TestMultiplicativity:
    def test_two_pairs(self):
        from chanent.qubit import max_output_2norm
        from chanent.sampling import random_channel

        for t in range(2):
            rng = stream_rng(86, t)
            d = random_valid_qubit(rng)
            phi = davies.qubit_superoperator(d)
            omega = random_channel(2, 2, rng)
            m_phi = davies.qubit_max_norm(d)
            m_omega = max_output_2norm(omega, seed=t)
            m_joint = max_output_2norm(phi.tensor(omega), seed=t)
            assert abs(m_joint - m_phi * m_omega) < 2e-4
