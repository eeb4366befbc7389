import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chanent import bounds, channels, cli, davies
from chanent.bounds import Ensemble
from chanent.channels import Channel
from chanent.entropy import EntropyOrder, vn_entropy
from chanent.matfun import _hermitian_spectrum, hermitize, partial_trace, reshuffle
from chanent.sampling import (
    dirichlet,
    haar_unitary,
    hs_random_density,
    random_channel,
    stream_rng,
)
from chanent.states import purify, root_fidelity
from chanent.tolerances import CPTP_TOL, KRAUS_CUTOFF
from tests_support import kraus_lists


def depolarizing2():
    from chanent.qubit import depolarizing

    return depolarizing(2, 1.0)


class TestApply:
    def test_identity(self):
        rho = hs_random_density(2, stream_rng(40, 0))
        np.testing.assert_allclose(channels.identity_channel(2).apply(rho), rho)

    def test_completely_depolarizing(self):
        rho = hs_random_density(2, stream_rng(40, 1))
        np.testing.assert_allclose(depolarizing2().apply(rho), np.eye(2) / 2, atol=1e-12)

    def test_matches_superoperator(self):
        rng = stream_rng(40, 2)
        phi = random_channel(3, 2, rng)
        rho = hs_random_density(3, rng)
        direct = phi.apply(rho)
        vec = phi.superoperator @ rho.reshape(-1)
        np.testing.assert_allclose(direct, vec.reshape(3, 3), atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            channels.identity_channel(2).apply(np.eye(3) / 3)
        with pytest.raises(ValueError):
            channels.identity_channel(2).apply(np.zeros((4, 3, 3)))

    def test_stack_is_applied_matrix_by_matrix(self):
        # a (2, 4, n, n) stack gives, bit for bit, the (n, n) results one at a time
        rng = stream_rng(40, 3)
        phi = random_channel(3, 2, rng)
        stack = np.array([[hs_random_density(3, rng) for _ in range(4)] for _ in range(2)])
        out = phi.apply(stack)
        assert out.shape == (2, 4, 3, 3)
        assert np.array_equal(out, [[phi.apply(rho) for rho in row] for row in stack])


class TestConversions:
    def test_identity_choi(self):
        phi = channels.identity_channel(2)
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        np.testing.assert_allclose(phi.choi, np.outer(bell, bell.conj()), atol=1e-12)

    def test_depolarizing_choi(self):
        np.testing.assert_allclose(depolarizing2().choi, np.eye(4) / 4, atol=1e-12)

    def test_choi_round_trip(self):
        rng = stream_rng(41, 0)
        phi = random_channel(2, 3, rng)
        rebuilt = Channel.from_choi(phi.choi)
        np.testing.assert_allclose(rebuilt.choi, phi.choi, atol=1e-9)
        rho = hs_random_density(2, rng)
        np.testing.assert_allclose(rebuilt.apply(rho), phi.apply(rho), atol=1e-9)

    def test_superoperator_round_trip(self):
        rng = stream_rng(41, 1)
        phi = random_channel(3, 2, rng)
        rebuilt = Channel.from_superoperator(phi.superoperator)
        np.testing.assert_allclose(rebuilt.superoperator, phi.superoperator, atol=1e-9)

    def test_partial_trace_condition(self):
        phi = random_channel(3, 3, stream_rng(41, 2))
        marg = partial_trace(phi.choi, (3, 3), 2)
        np.testing.assert_allclose(marg, np.eye(3) / 3, atol=1e-9)

    def test_invalid_choi_rejected(self):
        with pytest.raises(channels.InvalidChannelError):
            Channel.from_choi(np.diag([0.5, 0.5, 0.0, 0.0]))  # wrong marginal


class TestIsCptp:
    def test_valid_random(self):
        report = random_channel(2, 3, stream_rng(42, 0)).is_cptp()
        assert report.cp and report.tp and report.ok

    def test_transpose_map_not_cp(self):
        report = channels.is_cptp(_transpose_superoperator())
        assert report.tp and not report.cp
        assert abs(report.min_choi_eig + 0.5) < 1e-12

    def test_scaled_kraus_not_tp(self):
        phi = random_channel(2, 2, stream_rng(42, 1))
        report = channels.is_cptp([0.9 * k for k in phi.kraus])
        assert not report.tp

    def test_channel_is_its_own_report(self):
        phi = random_channel(2, 3, stream_rng(42, 2))
        assert channels.is_cptp(phi) == phi.is_cptp() == channels.is_cptp(phi.kraus)


class TestShapeChecks:
    # a dimension that is not a perfect square once reached NumPy's reshape error
    @pytest.mark.parametrize("call, match", [
        (lambda: Channel.from_superoperator(np.eye(5)), r"superoperator of shape \(5, 5\)"),
        (lambda: Channel.from_superoperator(np.eye(4, 5)), r"superoperator of shape \(4, 5\)"),
        (lambda: Channel.from_superoperator(np.ones(4)), r"superoperator of shape \(4,\)"),
        (lambda: channels.is_cptp(np.eye(5)), r"superoperator of shape \(5, 5\)"),
        (lambda: Channel.from_choi(np.eye(6) / 6), r"Choi state of shape \(6, 6\)"),
        (lambda: Channel.from_choi(np.ones((4, 9)) / 4), r"Choi state of shape \(4, 9\) is not square"),
        (lambda: Channel.from_choi(np.ones((2, 2, 2, 2))), r"Choi state of shape \(2, 2, 2, 2\)"),
    ], ids=["superoperator-5", "superoperator-rectangular", "superoperator-vector", "is-cptp-5", "choi-6",
            "choi-rectangular", "choi-4d"])
    def test_rejected(self, call, match):
        with pytest.raises(channels.InvalidChannelError, match=match):
            call()

    def test_rectangular_superoperator_accepted(self):
        # out² × in² with out != in: a qubit-to-qutrit channel
        phi = Channel([np.eye(3, 2)])
        assert Channel.from_superoperator(phi.superoperator).out_dim == 3


class TestReport:
    def test_matches_the_reference_formula(self):
        # Tr_out d - I and the dropped weight as they were first written, with an
        # identity matrix and a masked sum over every eigenvalue
        def reference(d):
            out, n = d.shape[:2]
            flat = hermitize(d.reshape(out * n, out * n))
            w = _hermitian_spectrum(flat)
            d = flat.reshape(out, n, out, n)
            tp_residual = float(np.abs(np.trace(d, axis1=0, axis2=2) - np.eye(n)).max())
            min_eig = float(w[0])
            report = channels.CptpReport(min_eig >= -CPTP_TOL, tp_residual <= CPTP_TOL, min_eig / n, tp_residual)
            return report, d, float(np.abs(w[w <= KRAUS_CUTOFF]).sum())

        family = [davies.qubit_superoperator(davies.DaviesQubit(a=0.1, c=0.9, p=0.3))._d]
        for t in range(200):
            d = random_channel(1 + t % 3, 1 + t // 3 % 4, stream_rng(44, t))._d
            family += [d, d.transpose(2, 1, 0, 3)]  # and the output transposed: TP, not CP
        not_cp = dropped = 0
        for d in family:
            report, kept, weight = channels._report(d)
            want_report, want_kept, want_weight = reference(d)
            assert report == want_report and np.array_equal(kept, want_kept) and weight == want_weight
            not_cp += not report.cp
            dropped += weight > 0.0
        assert not_cp >= 100 and dropped >= 200

def _transpose_superoperator() -> np.ndarray:
    """The transpose map on qubits: its superoperator is the SWAP matrix."""
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    return swap


def _slightly_negative_superoperator(eps: float) -> np.ndarray:
    """A trace-preserving qubit map whose dynamical matrix has minimum eigenvalue -eps.

    The identity map's dynamical matrix |vec I><vec I| plus eps·(|00><00| - |10><10|),
    whose trace over the output factor is zero.
    """
    vec_id = np.array([1.0, 0.0, 0.0, 1.0])
    d = np.outer(vec_id, vec_id) + eps * np.diag([1.0, 0.0, -1.0, 0.0])
    return reshuffle(d)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_from_superoperator(self, bad, monkeypatch):
        s = np.eye(4, dtype=complex)
        s[0, 0] = bad
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: pytest.fail("eigensolver called"))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: pytest.fail("eigensolver called"))
        with pytest.raises(channels.InvalidChannelError, match="NaN or infinite"):
            Channel.from_superoperator(s)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_from_choi(self, bad):
        choi = channels.identity_channel(2).choi.copy()
        choi[1, 2] = bad
        with pytest.raises(channels.InvalidChannelError, match="NaN or infinite"):
            Channel.from_choi(choi)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_raw_is_cptp(self, bad, where, monkeypatch):
        s = np.eye(4, dtype=complex)
        s[where] = bad
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: pytest.fail("eigensolver called"))
        report = channels.is_cptp(s)
        assert not report.cp and not report.ok
        assert math.isnan(report.min_choi_eig)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)],
                             ids=["nan", "inf", "-inf", "inf-j"])
    @pytest.mark.parametrize("where", [(0, 0), (1, 0)])
    def test_kraus_entry_raises_without_warning(self, bad, where):
        # the TP residual sum K†K - I is the finiteness test: NaN or inf makes it fail
        k = np.eye(2, dtype=complex)
        k[where] = bad
        with pytest.raises(channels.InvalidChannelError, match="NaN or infinite"):
            Channel([k, np.zeros((2, 2))])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_kraus_is_not_trace_preserving_without_warning(self):
        # finite entries whose K†K overflows: an inf residual, not a non-finite entry
        with pytest.raises(channels.InvalidChannelError, match="not trace preserving"):
            Channel([1e200 * np.eye(2)])


def _looped_outer_sum(d: np.ndarray, n: int) -> np.ndarray:
    """Reference for Channel._from_outer_sum: one eigenvector at a time."""
    w, v = np.linalg.eigh(d)
    kraus = []
    for idx in np.argsort(w)[::-1]:
        if w[idx] <= 1e-10:
            continue
        vec = v[:, idx]
        first = np.flatnonzero(np.abs(vec) > 1e-12)[0]
        vec = vec / (vec[first] / abs(vec[first]))
        kraus.append(math.sqrt(w[idx]) * vec.reshape(n, n))
    return np.array(kraus)


class TestSuperoperatorChannel:
    @settings(max_examples=60, deadline=None)
    @given(kraus_lists())
    def test_round_trip(self, kraus):
        assume(kraus[0].shape[0] == kraus[0].shape[1])
        phi = Channel(kraus)
        psi = Channel.from_superoperator(phi.superoperator)
        np.testing.assert_allclose(psi.choi, phi.choi, rtol=0, atol=1e-13)
        np.testing.assert_allclose(psi.superoperator, phi.superoperator, rtol=0, atol=1e-13)
        assert "kraus" not in vars(psi)
        d = hermitize(reshuffle(phi.superoperator))
        direct = Channel._from_outer_sum(d, phi.in_dim)
        assert psi.kraus.tobytes() == direct.kraus.tobytes()
        assert psi.kraus.tobytes() == _looped_outer_sum(d, phi.in_dim).tobytes()
        assert psi.kraus is psi.kraus

    def test_is_cptp_builds_no_kraus(self):
        psi = Channel.from_superoperator(random_channel(3, 2, stream_rng(44, 0)).superoperator)
        report = psi.is_cptp()
        assert report.ok
        assert "kraus" not in vars(psi)

    def test_choi_built_channel_is_lazy_too(self):
        phi = random_channel(2, 3, stream_rng(44, 1))
        psi = Channel.from_choi(phi.choi)
        assert "kraus" not in vars(psi)
        np.testing.assert_allclose(psi.superoperator, phi.superoperator, rtol=0, atol=1e-13)

    def test_stored_arrays_read_only(self):
        psi = Channel.from_superoperator(np.eye(4))
        with pytest.raises(ValueError):
            psi.superoperator[0, 0] = 2.0
        with pytest.raises(ValueError):
            psi.choi[0, 0] = 2.0

    def test_transpose_map_rejected(self):
        with pytest.raises(channels.InvalidChannelError, match="not completely positive"):
            Channel.from_superoperator(_transpose_superoperator())

    def test_scaled_identity_rejected(self):
        with pytest.raises(channels.InvalidChannelError, match="not trace preserving"):
            Channel.from_superoperator(0.9 * np.eye(4))

    def test_threshold_is_on_the_dynamical_matrix(self):
        # min eigenvalue -1.5e-9 of D lies in (-n·tol, -tol): the Choi state's
        # -7.5e-10 would pass a test on the normalized scale, and D's does not
        tol = CPTP_TOL
        s = _slightly_negative_superoperator(1.5e-9)
        report = channels.is_cptp(s)
        assert report.tp and not report.cp
        assert -tol < report.min_choi_eig < -tol / 2
        with pytest.raises(channels.InvalidChannelError, match="not completely positive"):
            Channel.from_superoperator(s)
        Channel.from_superoperator(_slightly_negative_superoperator(0.5e-9))

    def test_cp_margin_raises_at_construction(self):
        # two eigenvalues -0.9e-9 of D pass the CP check; the Kraus stack drops them,
        # which moves sum K†K by 1.8e-9, so the map must fail now, not on a .kraus read
        d = reshuffle(np.eye(9)).astype(complex)
        d[3, 3] -= 0.9e-9  # composite index (1, 0)
        d[6, 6] -= 0.9e-9  # (2, 0)
        d[0, 0] += 1.8e-9  # (0, 0): Tr_out D stays I
        assert channels.is_cptp(reshuffle(d)).ok
        with pytest.raises(channels.InvalidChannelError, match="not trace preserving"):
            Channel.from_superoperator(reshuffle(d))


class TestComplementary:
    def test_unitary_channel(self):
        u = haar_unitary(3, stream_rng(43, 0))
        comp = channels.unitary_channel(u).complementary()
        rho = hs_random_density(3, stream_rng(43, 1))
        np.testing.assert_allclose(comp.apply(rho), [[1.0]], atol=1e-12)

    def test_trace_oracle(self):
        rng = stream_rng(43, 2)
        phi = random_channel(2, 3, rng)
        rho = hs_random_density(2, rng)
        out = phi.complementary().apply(rho)
        for i in range(3):
            for j in range(3):
                expected = np.trace(phi.kraus[i] @ rho @ phi.kraus[j].conj().T)
                assert abs(out[i, j] - expected) < 1e-10

    def test_map_entropy_at_maximally_mixed(self):
        phi = random_channel(3, 2, stream_rng(43, 3))
        s = vn_entropy(phi.complementary().apply(np.eye(3) / 3))
        assert abs(s - channels.map_entropy(phi)) < 1e-9

    def test_double_complement_output_entropies(self):
        rng = stream_rng(43, 4)
        phi = random_channel(2, 3, rng)
        twice = phi.complementary().complementary()
        for _ in range(5):
            rho = hs_random_density(2, rng)
            assert abs(vn_entropy(twice.apply(rho)) - vn_entropy(phi.apply(rho))) < 1e-9


class TestComposeTensor:
    def test_compose_with_identity(self):
        phi = random_channel(2, 2, stream_rng(44, 0))
        comp = phi.compose(channels.identity_channel(2))
        np.testing.assert_allclose(comp.superoperator, phi.superoperator, atol=1e-12)

    def test_tensor_of_identities(self):
        t = channels.identity_channel(2).tensor(channels.identity_channel(2))
        np.testing.assert_allclose(t.superoperator, np.eye(16), atol=1e-12)

    def test_compose_superoperator_product(self):
        for t in range(20):
            rng = stream_rng(44, 100 + t)
            phi1, phi2 = random_channel(2, 2, rng), random_channel(2, 3, rng)
            comp = phi2.compose(phi1)
            np.testing.assert_allclose(
                comp.superoperator, phi2.superoperator @ phi1.superoperator, atol=1e-10
            )

    def test_compose_dim_mismatch(self):
        rng = stream_rng(44, 200)
        with pytest.raises(ValueError):
            random_channel(2, 2, rng).compose(random_channel(3, 2, rng))

    def test_tensor_choi_spectrum(self):
        rng = stream_rng(44, 2)
        phi1, phi2 = random_channel(2, 2, rng), random_channel(2, 2, rng)
        w = np.sort(np.linalg.eigvalsh(phi1.tensor(phi2).choi))
        w12 = np.sort(np.kron(np.linalg.eigvalsh(phi1.choi), np.linalg.eigvalsh(phi2.choi)))
        np.testing.assert_allclose(w, w12, atol=1e-10)


class TestMapEntropy:
    def test_unitary_zero(self):
        u = haar_unitary(3, stream_rng(45, 0))
        assert abs(channels.map_entropy(channels.unitary_channel(u))) < 1e-10

    def test_depolarizing(self):
        assert abs(channels.map_entropy(depolarizing2()) - 2 * math.log(2)) < 1e-12

    def test_additivity(self):
        rng = stream_rng(45, 1)
        phi1, phi2 = random_channel(2, 2, rng), random_channel(3, 2, rng)
        joint = phi1.tensor(phi2)
        for q in (0.5, 1.0, 2.0, 5.0):
            order = EntropyOrder.renyi(q) if q != 1.0 else EntropyOrder()
            lhs = channels.map_entropy(joint, order)
            rhs = channels.map_entropy(phi1, order) + channels.map_entropy(phi2, order)
            assert abs(lhs - rhs) < 1e-9

    def test_invariant_under_kraus_isometry(self):
        rng = stream_rng(45, 2)
        phi = random_channel(2, 2, rng)
        v = haar_unitary(4, rng)[:, :2]  # isometry on the environment index
        new_kraus = [
            sum(v[a, b] * phi.kraus[b] for b in range(2)) for a in range(4)
        ]
        phi2 = Channel(new_kraus)
        assert abs(channels.map_entropy(phi2) - channels.map_entropy(phi)) < 1e-10
        rho = hs_random_density(2, rng)
        np.testing.assert_allclose(phi2.apply(rho), phi.apply(rho), atol=1e-10)


class TestExchangeEntropy:
    def test_unitary_zero(self):
        u = haar_unitary(2, stream_rng(46, 0))
        rho = hs_random_density(2, stream_rng(46, 1))
        assert abs(channels.exchange_entropy(channels.unitary_channel(u), rho)) < 1e-9

    def test_maximally_mixed_gives_map_entropy(self):
        phi = random_channel(2, 3, stream_rng(46, 2))
        s = channels.exchange_entropy(phi, np.eye(2) / 2)
        assert abs(s - channels.map_entropy(phi)) < 1e-9

    def test_purification_oracle(self):
        rng = stream_rng(46, 3)
        phi = random_channel(2, 3, rng)
        rho = hs_random_density(2, rng)
        psi = purify(rho)  # on C^2 (x) C^2, state is the partial trace over factor 1
        ext = channels.identity_channel(2).tensor(phi)
        out = ext.apply(np.outer(psi, psi.conj()))
        assert abs(vn_entropy(out) - channels.exchange_entropy(phi, rho)) < 1e-9

    @pytest.mark.parametrize("drop", [False, True], ids=["all-kept", "one-dropped"])
    def test_measurement_does_not_write_its_inputs(self, drop):
        rng = stream_rng(46, 4)
        kraus = random_channel(3, 3, rng).kraus.copy()
        if drop:  # a zero operator: its outcome is dropped, and the kept ones are indexed
            kraus = np.concatenate([kraus, np.zeros((1, 3, 3))])
        rho = hs_random_density(3, rng)
        before = kraus.tobytes(), rho.tobytes()
        sigma, probs, outs = channels._measurement(kraus, rho)
        assert (kraus.tobytes(), rho.tobytes()) == before
        assert len(probs) == len(outs) == 3


class TestCoherentInformation:
    def test_identity(self):
        rho = hs_random_density(2, stream_rng(47, 0))
        assert abs(channels.coherent_information(channels.identity_channel(2), rho) - vn_entropy(rho)) < 1e-9

    def test_depolarizing_at_maximally_mixed(self):
        val = channels.coherent_information(depolarizing2(), np.eye(2) / 2)
        assert abs(val - (math.log(2) - math.log(4))) < 1e-9

    def test_bound_chain(self):
        rng = stream_rng(47, 1)
        for _ in range(20):
            phi = random_channel(2, 2, rng)
            rho = hs_random_density(2, rng)
            e = channels.ensemble_from_channel(phi, rho)
            avg = sum(p * vn_entropy(s) for p, s in zip(e.probs, e.states))
            coh_info = channels.coherent_information(phi, rho)
            assert coh_info <= avg + 1e-9
            assert avg <= vn_entropy(rho) + 1e-9


class TestKrausFromEnsemble:
    def test_single_state(self):
        rho = hs_random_density(2, stream_rng(48, 0))
        e = Ensemble(np.array([1.0]), [rho])
        phi, rho0 = channels.kraus_from_ensemble(e, [np.eye(2)])
        np.testing.assert_allclose(phi.apply(rho0), rho, atol=1e-8)

    def test_two_state_root_fidelity(self):
        rng = stream_rng(48, 1)
        r1, r2 = hs_random_density(2, rng), hs_random_density(2, rng)
        probs = np.array([0.4, 0.6])
        u1 = haar_unitary(2, rng)
        u2 = channels.pair_optimal_unitary(r1, r2, u1)
        phi, rho0 = channels.kraus_from_ensemble(Ensemble(probs, [r1, r2]), [u1, u2])
        sigma12 = np.trace(phi.kraus[0] @ rho0 @ phi.kraus[1].conj().T)
        expected = math.sqrt(probs[0] * probs[1]) * root_fidelity(r1, r2)
        assert abs(abs(sigma12) - expected) < 1e-9

    def test_random_postconditions(self):
        rng = stream_rng(48, 2)
        probs = dirichlet(3, rng)
        sts = [hs_random_density(2, rng) for _ in range(3)]
        us = [haar_unitary(2, rng) for _ in range(3)]
        phi, rho0 = channels.kraus_from_ensemble(Ensemble(probs, sts), us)
        ident = sum(k.conj().T @ k for k in phi.kraus)
        assert np.abs(ident - np.eye(2)).max() < 1e-9
        for p, s, k in zip(probs, sts, phi.kraus):
            np.testing.assert_allclose(k @ rho0 @ k.conj().T, p * s, atol=1e-9)

    @pytest.mark.parametrize("second", [np.diag([1.0, 0.0]), np.diag([1.0 - 2e-11, 2e-11])])
    def test_singular_average_raises(self, second):
        # averages diag(1, 0) and diag(1 - 1e-11, 1e-11): on the kernel the
        # operators cannot resolve the identity, so the construction refuses
        e = Ensemble(np.full(2, 0.5), [np.diag([1.0, 0.0]), second])
        with pytest.raises(ValueError, match="average state .* is singular"):
            channels.kraus_from_ensemble(e, [np.eye(2)] * 2)

    def test_one_unitary_per_state(self):
        e = Ensemble(np.full(2, 0.5), [np.eye(2) / 2, np.diag([1.0, 0.0])])
        with pytest.raises(ValueError, match="one unitary per state"):
            channels.kraus_from_ensemble(e, [np.eye(2)])


class TestSerialization:
    def test_ensemble_from_channel_drops_null_outcomes(self):
        kraus = [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]
        phi = Channel(kraus)
        e = channels.ensemble_from_channel(phi, np.eye(2) / 2)
        assert len(e) == 1 and abs(e.probs[0] - 1.0) < 1e-12


def _rho_for(kraus, seed):
    return hs_random_density(kraus[0].shape[1], stream_rng(seed, 1))


class TestStackedBuilders:
    """Each stacked builder against a per-operator loop over the same Kraus list."""

    @settings(max_examples=60, deadline=None)
    @given(kraus_lists())
    def test_superoperator(self, kraus):
        looped = sum(np.kron(k, k.conj()) for k in kraus)
        np.testing.assert_allclose(Channel(kraus).superoperator, looped, rtol=0, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(kraus_lists())
    def test_choi(self, kraus):
        cols = [k.T.reshape(-1) for k in kraus]
        looped = sum(np.outer(c, c.conj()) for c in cols) / kraus[0].shape[1]
        np.testing.assert_allclose(Channel(kraus).choi, looped, rtol=0, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(kraus_lists(), st.integers(0, 2**32))
    def test_correlation_from_kraus(self, kraus, seed):
        rho = _rho_for(kraus, seed)
        m = len(kraus)
        looped = np.array([[np.trace(kraus[i] @ rho @ kraus[j].conj().T) for j in range(m)]
                           for i in range(m)])
        np.testing.assert_allclose(bounds.correlation_matrix(rho, kraus), looped, rtol=0, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(kraus_lists(), st.integers(0, 2**32))
    def test_ensemble_from_channel(self, kraus, seed):
        rho = _rho_for(kraus, seed)
        outs = [k @ rho @ k.conj().T for k in kraus]
        probs = np.array([np.trace(o).real for o in outs])
        kept = probs >= 1e-12
        e = channels.ensemble_from_channel(Channel(kraus), rho)
        np.testing.assert_allclose(e.probs, probs[kept] / probs[kept].sum(), rtol=0, atol=1e-13)
        looped = [o / p for o, p, keep in zip(outs, probs, kept) if keep]
        np.testing.assert_allclose(np.stack(e.states), np.stack(looped), rtol=0, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(kraus_lists(), st.integers(0, 2**32))
    def test_apply(self, kraus, seed):
        rho = _rho_for(kraus, seed)
        looped = sum(k @ rho @ k.conj().T for k in kraus)
        np.testing.assert_allclose(Channel(kraus).apply(rho), looped, rtol=0, atol=1e-13)

    def test_superoperator_built_on_first_read_only(self, monkeypatch):
        phi = random_channel(2, 3, stream_rng(50, 0))
        monkeypatch.setattr(channels, "_gram", lambda stack: pytest.fail("dynamical matrix built eagerly"))
        Channel(phi.kraus)
        for t in range(20):
            cli._trial_theorem1(50, t, {"k": 4})
        monkeypatch.undo()
        first = phi.superoperator
        assert phi.superoperator is first

    def test_one_channel_per_theorem1_trial(self, monkeypatch):
        built = []
        init = Channel.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Channel, "__init__", counted)
        for t in range(20):
            before = len(built)
            cli._trial_theorem1(50, t, {"k": 4})
            assert len(built) - before == 1

    @pytest.mark.parametrize("as_list", [True, False], ids=["list", "array"])
    def test_kraus_input_is_not_written(self, as_list):
        kraus = random_channel(3, 4, stream_rng(41, 0)).kraus.copy()
        before = kraus.tobytes()
        phi = Channel(list(kraus) if as_list else kraus)
        assert kraus.tobytes() == before
        assert phi.kraus.tobytes() == before

    @settings(max_examples=40, deadline=None)
    @given(kraus_lists(), st.sampled_from([0.9, 1.1]))
    def test_non_tp_rejected(self, kraus, scale):
        with pytest.raises(channels.InvalidChannelError, match="not trace preserving"):
            Channel([scale * k for k in kraus])

    @settings(max_examples=40, deadline=None)
    @given(kraus_lists(), st.sampled_from([np.nan, np.inf]))
    def test_non_finite_entry_rejected(self, kraus, bad):
        kraus[-1] = kraus[-1].copy()
        kraus[-1][0, -1] = bad
        with pytest.raises(channels.InvalidChannelError, match="NaN or infinite"):
            Channel(kraus)
        if np.isnan(bad):  # the diagnostic fails closed instead of trusting an eigensolver
            assert not channels.is_cptp(kraus).ok

    def test_shape_errors(self):
        with pytest.raises(channels.InvalidChannelError, match="nonempty"):
            Channel([])
        with pytest.raises(channels.InvalidChannelError, match="share a shape"):
            Channel([np.eye(2), np.eye(3)])


class TestStoredForms:
    """A channel holds its Kraus stack or its dynamical matrix; the rest is derived."""

    def test_kraus_channels_run_no_eigensolver(self, monkeypatch):
        rng = stream_rng(51, 0)
        kraus2, kraus3 = random_channel(2, 3, rng).kraus, random_channel(3, 2, rng).kraus
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: pytest.fail("eigensolver called"))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: pytest.fail("eigensolver called"))
        phi, psi = Channel(kraus2), Channel(kraus3)
        phi.compose(phi)
        phi.tensor(psi)
        phi.complementary()

    @settings(max_examples=60, deadline=None)
    @given(kraus_lists())
    def test_kraus_lists_are_completely_positive(self, kraus):
        # the dynamical matrix of a Kraus list is a Gram matrix, so the
        # constructor's CP check, now deleted, could not fail
        report = channels.is_cptp(kraus)
        assert report.cp and report.min_choi_eig >= -1e-14

    @pytest.mark.parametrize("build", [lambda phi: Channel(phi.kraus),
                                       lambda phi: Channel.from_superoperator(phi.superoperator),
                                       lambda phi: Channel.from_choi(phi.choi)],
                             ids=["kraus", "superoperator", "choi"])
    def test_derived_forms_read_only(self, build):
        phi = build(random_channel(2, 3, stream_rng(51, 1)))
        for derived in (phi.superoperator, phi.choi, phi.kraus):
            with pytest.raises(ValueError):
                derived[0, 0] = 2.0

    def test_complementary_report_matches_kraus_residual(self):
        for t in range(10):
            comp = random_channel(2 + t % 2, 1 + t % 4, stream_rng(51, 10 + t)).complementary()
            flat = comp.kraus.reshape(-1, comp.in_dim)
            residual = np.abs(flat.conj().T @ flat - np.eye(comp.in_dim)).max()
            report = comp.is_cptp()
            assert report.ok and report.min_choi_eig >= -1e-14
            assert abs(report.tp_residual - residual) <= 1e-15
            assert channels.is_cptp(list(comp.kraus)) == report

    def test_rectangular_superoperator_round_trip(self):
        rng = stream_rng(51, 20)
        comp = random_channel(3, 2, rng).complementary()  # C^3 -> C^2
        psi = Channel.from_superoperator(comp.superoperator)
        assert (psi.out_dim, psi.in_dim) == (2, 3)
        rho = hs_random_density(3, rng)
        np.testing.assert_allclose(psi.apply(rho), comp.apply(rho), rtol=0, atol=1e-13)
        np.testing.assert_allclose(psi.choi, comp.choi, rtol=0, atol=1e-15)
