import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanent import bounds, channels, cli, entropy, matfun, qubit
from chanent.bounds import Ensemble
from chanent.channels import Channel, ensemble_from_channel, map_entropy
from chanent.cli import run_suite
from chanent.entropy import EntropyOrder, classical_entropy, vn_entropy
from chanent.sampling import (
    dirichlet,
    haar_unitary,
    hs_random_density,
    random_channel,
    random_ensemble,
    random_ensembles,
    random_pure_state,
    stream_rng,
)
from chanent.states import pure_state
from chanent.tolerances import PSD_TOL, SUPPORT_CUTOFF, VIOLATION_SLACK
from tests_support import (CHANENT_MODULES, conjecture_reference, forbid_calls, forbid_eigensolvers, kraus_lists,
                           polar_2x2, record_shapes)


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
            assert -1e-10 <= chi <= classical_entropy(e.probs) + 1e-9


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

    @pytest.mark.parametrize("n", [2, 3])
    def test_ensemble_form_entries(self, n):
        # each entry against the trace of the docstring, one pair at a time
        rng = stream_rng(52, 301 + n)
        e = random_ens(rng, k=3, n=n)
        us = [haar_unitary(n, rng) for _ in range(3)]
        roots = [matfun.psd_sqrt(s) for s in e.states]
        sigma = bounds.correlation_from_ensemble(e, us)
        for i in range(3):
            for j in range(3):
                want = math.sqrt(e.probs[i] * e.probs[j]) * np.trace(
                    roots[i] @ roots[j] @ us[j].conj().T @ us[i])
                assert abs(sigma[i, j] - want) < 1e-14

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

    @settings(max_examples=80, deadline=None)
    @given(kraus=kraus_lists(), seed=st.integers(0, 2**32), rank=st.sampled_from(["pure", "deficient", "full"]),
           zero=st.booleans())
    def test_matches_the_definitional_chain(self, kraus, seed, rank, zero):
        # holevo of the measurement ensemble, vn_entropy of the correlation matrix and
        # shannon of its normalized diagonal; a zero operator's outcome is dropped from chi
        n = kraus[0].shape[1]
        rng = stream_rng(seed, 1)
        if rank == "pure":
            rho = pure_state(random_pure_state(n, rng))
        else:
            rho = hs_random_density(n, rng, ancilla=n - 1 if rank == "deficient" else n)
        if zero:
            kraus = kraus[:1] + [np.zeros_like(kraus[0])] + kraus[1:]
        phi = Channel(kraus)
        sigma = bounds.correlation_matrix(rho, phi.kraus)
        p = np.diag(sigma).real
        want = (bounds.holevo(ensemble_from_channel(phi, rho)), vn_entropy(sigma), classical_entropy(p / p.sum()))
        chi, s_sigma, h_p, ok = bounds.theorem1_check(rho, kraus)
        np.testing.assert_allclose([chi, s_sigma, h_p], want, rtol=0, atol=1e-13)
        assert ok == (chi <= s_sigma + VIOLATION_SLACK and s_sigma <= h_p + VIOLATION_SLACK)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)], ids=repr)
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("n, m", [(2, 1), (2, 3), (3, 4)])
    def test_non_finite_state_raises(self, bad, entry, n, m):
        phi = random_channel(n, m, stream_rng(53, 7))
        rho = np.eye(n, dtype=complex) / n
        rho[entry] = bad
        with pytest.raises(matfun.NonFiniteError):
            bounds.theorem1_check(rho, phi)
        with pytest.raises(matfun.NonFiniteError):  # a zero operator's outcome too
            bounds.theorem1_check(rho, list(phi.kraus) + [np.zeros((n, n))])

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_kraus_operator_sends_no_sigma_to_lapack(self, n, monkeypatch):
        # sigma is 1×1 (entropy 0 by definition): its spectrum is its entry
        rng = stream_rng(53, 9)
        phi = random_channel(n, 1, rng)
        rho = hs_random_density(n, rng)
        calls = record_shapes(monkeypatch, np.linalg, ("eigvalsh",))
        chi, s_sigma, h_p, ok = bounds.theorem1_check(rho, phi)
        assert all(shape[-2:] != (1, 1) for shape in calls["eigvalsh"])
        assert s_sigma == 0.0 and h_p == 0.0 and ok

    def test_trial_builds_no_ensemble(self, monkeypatch):
        # one trial is one pass over the Kraus products: no Ensemble, no holevo, no
        # separately built correlation matrix or measurement ensemble
        def forbidden(*args, **kwargs):
            raise AssertionError("called by a theorem1 trial")

        monkeypatch.setattr(Ensemble, "__post_init__", forbidden)
        for name in ("holevo", "correlation_matrix"):
            monkeypatch.setattr(bounds, name, forbidden)
        # ensemble_from_channel is held by channels only; a call to it also builds an
        # Ensemble, which the __post_init__ patch catches
        monkeypatch.setattr(channels, "ensemble_from_channel", forbidden)
        rows = [cli._TRIALS["theorem1"](42, t, {"k": 4}) for t in range(40)]
        assert all(r["slack"] <= VIOLATION_SLACK for r in rows)


def _loop_ensemble(kraus, rho):
    """The measurement ensemble {(p_i, K_i rho K_i†/p_i)} by a loop over the operators:
    outcomes below SUPPORT_CUTOFF dropped, the kept weights renormalized."""
    outs = [k @ rho @ k.conj().T for k in kraus]
    probs = [np.trace(o).real for o in outs]
    total = sum(p for p in probs if p >= SUPPORT_CUTOFF)
    return [(p / total, o / p) for p, o in zip(probs, outs) if p >= SUPPORT_CUTOFF]


def _loop_apply(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


def _loop_exchange_entropy(kraus, rho):
    return vn_entropy(np.array([[np.trace(a @ rho @ b.conj().T) for b in kraus] for a in kraus]))


class TestMeasurementChecks:
    """The checks on channels._measurement against their definitions, written as loops."""

    @settings(max_examples=60, deadline=None)
    @given(kraus=kraus_lists(), seed=st.integers(0, 2**32), rank=st.sampled_from(["pure", "deficient", "full"]),
           zero=st.booleans(), k2=st.integers(1, 3))
    def test_match_the_definitional_formulas(self, kraus, seed, rank, zero, k2):
        n, out = kraus[0].shape[1], kraus[0].shape[0]
        rng = stream_rng(seed, 1)
        if rank == "pure":
            rho = pure_state(random_pure_state(n, rng))
        else:
            rho = hs_random_density(n, rng, ancilla=n - 1 if rank == "deficient" else n)
        if zero:  # an outcome of weight 0, dropped from every ensemble
            kraus = kraus[:1] + [np.zeros_like(kraus[0])] + kraus[1:]
        phi1, phi2 = Channel(kraus), random_channel(out, k2, rng)

        ens = _loop_ensemble(kraus, rho)
        avg = sum(p * vn_entropy(s) for p, s in ens)
        lhs = vn_entropy(_loop_apply(phi2.kraus, _loop_apply(kraus, rho))) - sum(
            p * vn_entropy(_loop_apply(phi2.kraus, s)) for p, s in ens)
        rhs1 = vn_entropy(_loop_apply(kraus, rho)) - avg
        composed = [b @ a for b in phi2.kraus for a in kraus]
        rho_star = np.eye(n) / n
        mid = _loop_apply(kraus, rho_star)
        last = vn_entropy(_loop_apply(phi2.kraus, mid))
        first = last - sum(p * vn_entropy(_loop_apply(phi2.kraus, s)) for p, s in _loop_ensemble(kraus, rho_star))
        lower = max(first, map_entropy(phi1) + last - vn_entropy(mid))
        rep = bounds.props_check(rho, phi1, phi2)
        want = [vn_entropy(rho) - avg, rhs1 - lhs, _loop_exchange_entropy(composed, rho) - lhs, lower,
                map_entropy(Channel(composed)) - lower]
        got = [rep.info_gain, rep.concat_holevo, rep.concat_exchange, rep.composition_sign, rep.composition_upper]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

        s_in, s_out, s_ex = vn_entropy(rho), vn_entropy(_loop_apply(kraus, rho)), _loop_exchange_entropy(kraus, rho)
        chi = vn_entropy(sum(p * s for p, s in ens)) - avg
        rep = bounds.lindblad_check(rho, phi1)
        want = [s_in, s_out, s_ex, chi, s_ex - abs(s_out - s_in), s_out + s_in - s_ex, s_ex + s_out - s_in - chi]
        got = [rep.s_in, rep.s_out, rep.s_exchange, rep.chi, rep.lower_slack, rep.upper_slack, rep.chi_slack]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("suite", ["props", "lindblad"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_trial_builds_no_ensemble(self, suite, dim, monkeypatch):
        # every chi, exchange entropy and average output entropy of a trial comes from
        # the Kraus products of channels._measurement: no Ensemble, no holevo, and a
        # fixed number of kernel calls per trial. A lindblad trial takes chi, S(sigma)
        # and S(rho') from one call, and applies no channel besides. A props trial
        # composes phi2 phi1 once and makes three calls: phi1 at rho, phi2 phi1 at rho
        # for its exchange entropy, and phi1 at I/n for the composition bound.
        def forbidden(*args, **kwargs):
            raise AssertionError(f"called by a {suite} trial")

        calls = {"_measurement": 0, "compose": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(Ensemble, "__post_init__", forbidden)
        monkeypatch.setattr(bounds, "holevo", forbidden)
        monkeypatch.setattr(channels, "exchange_entropy", forbidden)  # also reached via coherent_information
        monkeypatch.setattr(bounds, "_measurement", counted("_measurement", channels._measurement))
        monkeypatch.setattr(Channel, "compose", counted("compose", Channel.compose))
        if suite == "lindblad":
            monkeypatch.setattr(Channel, "apply", forbidden)
        rows = [cli._TRIALS[suite](42, t, {"dim": dim}) for t in range(20)]
        assert all(r["slack"] <= VIOLATION_SLACK for r in rows)
        assert calls == {"props": {"_measurement": 3 * 20, "compose": 20},
                         "lindblad": {"_measurement": 20, "compose": 0}}[suite]


class TestOneSpectrum:
    """Every entropy of a measurement check is read from one zero-padded spectrum stack."""

    @pytest.mark.parametrize("suite, params", [
        ("theorem1", {"k": 1}), ("theorem1", {"k": 4}), ("lindblad", {"dim": 2}), ("lindblad", {"dim": 3}),
        ("props", {"dim": 2}), ("props", {"dim": 3}),
    ], ids=["theorem1-k1", "theorem1-k4", "lindblad-2", "lindblad-3", "props-2", "props-3"])
    def test_one_spectrum_and_one_entropy_call_per_trial(self, suite, params, monkeypatch):
        # theorem1 draws n in {2, 3}, and k = 1 makes sigma 1×1; lindblad and props draw
        # 1 to 3 Kraus operators per channel. Each name is counted wherever a module holds it.
        calls = {"spectrum": 0, "_eigenvalue_entropy": 0}
        for name in calls:
            for owner in (matfun, entropy, channels, bounds, qubit):
                if hasattr(owner, name):
                    def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
                        calls[_name] += 1
                        return _real(*args, **kwargs)

                    monkeypatch.setattr(owner, name, counted)
        lapack = record_shapes(monkeypatch, np.linalg, ("eigh", "eigvalsh", "svd"))
        for t in range(20):
            for shapes in lapack.values():
                shapes.clear()
            calls.update(spectrum=0, _eigenvalue_entropy=0)
            assert cli._TRIALS[suite](42, t, params)["slack"] <= VIOLATION_SLACK
            assert calls == {"spectrum": 1, "_eigenvalue_entropy": 1}
            assert lapack["eigh"] == lapack["svd"] == [] and len(lapack["eigvalsh"]) <= 1

    def test_padded_blocks_give_the_entropies_of_each_matrix(self):
        # blocks of sizes 1 to 4, as rectangular Kraus operators give, single or stacked and
        # unnormalized, share one spectrum zero-padded to 4×4; weight rows join it padded
        rng = stream_rng(57, 0)
        mats = [np.array([[0.3]]), hs_random_density(2, rng, ancilla=1), 0.5 * hs_random_density(3, rng, ancilla=2),
                hs_random_density(4, rng)]
        stacks = [np.stack([hs_random_density(2, rng) for _ in range(3)]) * [[[0.2]], [[0.3]], [[0.5]]],
                  np.full((2, 1, 1), 0.7), np.stack([hs_random_density(3, rng, ancilla=1) for _ in range(2)])]
        weights = [dirichlet(3, rng), np.array([1.0]), np.array([0.1, 0.0, 0.9, 0.0])]
        got = bounds._vn_entropies(*mats, *stacks, weights=weights)
        assert all(isinstance(x, float) for x in got[:4] + got[7:]) and [len(x) for x in got[4:7]] == [3, 2, 2]
        want = [vn_entropy(m) for m in mats] + [vn_entropy(s) for s in stacks] + [classical_entropy(p) for p in weights]
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-13)
        w = matfun._padded_spectrum(mats + stacks)
        assert w.shape == (11, 4)
        for order in (EntropyOrder.tsallis(2.0), EntropyOrder.renyi(2.0), EntropyOrder.renyi(0.5)):
            want = np.concatenate([[vn_entropy(m, order) for m in mats]] + [vn_entropy(s, order) for s in stacks])
            np.testing.assert_allclose(entropy._eigenvalue_entropy(w, order), want, rtol=0, atol=1e-13)


# A report whose every inequality holds by 0.5, by its class
_HOLDING_REPORTS = {
    "props": bounds.PropsReport(0.5, 0.5, 0.5, 0.5, 0.5),
    "lindblad": bounds.LindbladReport(s_in=0.5, s_out=1.0, s_exchange=1.0, chi=0.0,
                                      lower_slack=0.5, upper_slack=0.5, chi_slack=0.5),
    "sandwich": qubit.SandwichReport(middle_vn=1.0, middle_tsallis2=1.0, lower_vn=0.5, upper_vn=1.5,
                                     lower_tsallis2=0.5, upper_tsallis2=1.5, renyi2_lower=0.5,
                                     middle_renyi2=1.0),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind, field", [(kind, f.name) for kind, rep in _HOLDING_REPORTS.items()
                                         for f in dataclasses.fields(rep)])
def test_a_non_finite_report_field_is_a_violation(kind, field, bad):
    # the worst slack is an np.max over the inequalities, so a NaN gap cannot hide behind
    # a finite one, and a report with any non-finite entry fails closed
    rep = _HOLDING_REPORTS[kind]
    assert rep.ok and rep.worst == -0.5
    broken = dataclasses.replace(rep, **{field: bad})
    assert not broken.ok and not math.isfinite(broken.worst)


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
        rep = bounds.props_check(rho, phi1, identity_channel(2))
        assert rep.ok and abs(rep.concat_holevo) < 1e-12

    def test_random_channel_pairs(self):
        for t in range(1000):
            rng = stream_rng(54, t + 2)
            phi1 = random_channel(2, 1 + t % 3, rng)
            phi2 = random_channel(2, 1 + (t + 1) % 3, rng)
            rho = hs_random_density(2, rng)
            assert bounds.props_check(rho, phi1, phi2).ok


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

    @pytest.mark.parametrize("dim, b", [(2, math.sqrt(3.0)), (3, 2.0)])
    def test_default_b_is_the_damping_floor(self, dim, b):
        e = random_ensemble(3, dim, stream_rng(57, 202))
        want = bounds.fidelity_matrix(e, "G/b", b=b)
        assert bounds.fidelity_matrix(e, "G/b").tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant, b, match", [
        ("G/2", None, "unknown variant"),
        ("F-squared", None, "qubit or pure"),  # the ensemble is of mixed qutrits
        ("G/b", math.inf, "finite"),  # an infinite b would reach a report as Infinity, which is not JSON
        ("G/b", math.nan, "finite"),
    ])
    def test_rejected(self, variant, b, match):
        with pytest.raises(ValueError, match=match):
            bounds.fidelity_matrix(random_ensemble(3, 3, stream_rng(57, 203)), variant, b=b)

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
    """The layered chain with explicit inverses, as bounds computed it before the
    polar form: sqrt(rho_m rho_{m-1}) = rho_m^{1/2} (rho_m^{1/2} rho_{m-1}
    rho_m^{1/2})^{1/2} rho_m^{-1/2} of neighbours and np.linalg.inv of the inner
    states. The reference for _layered_matrix on invertible states."""
    k = states.shape[-3]
    root_p = bounds._root_probs(probs)
    d, u = np.diag_indices(k), np.arange(k - 1)
    sigma = np.zeros(rf.shape, dtype=complex)
    sigma[(...,) + d] = probs
    sigma[..., u, u + 1] = sigma[..., u + 1, u] = root_p[..., u, u + 1] * rf[..., u, u + 1]
    sr = matfun.psd_sqrt(states[..., 1:, :, :])
    steps = sr @ matfun.psd_sqrt(sr @ states[..., :-1, :, :] @ sr) @ np.linalg.inv(sr)
    invs = np.linalg.inv(states[..., 1:-1, :, :])
    for i in range(k):
        for j in range(i + 2, k):
            chain = steps[..., j - 1, :, :]
            for m in range(j - 1, i, -1):
                chain = chain @ invs[..., m - 1, :, :] @ steps[..., m - 1, :, :]
            sigma[..., i, j] = root_p[..., i, j] * np.trace(chain, axis1=-2, axis2=-1)
            sigma[..., j, i] = np.conj(sigma[..., i, j])
    return matfun.hermitize(sigma)


def _layered(e):
    roots = matfun.psd_sqrt(e.states)
    rf, steps = bounds._root_fidelity_matrix(roots)
    return bounds._layered_matrix(e.probs, rf, roots, steps)


def _bargmann(probs, vecs):
    """Layered matrix of a pure ensemble in closed form: sigma_ij = sqrt(p_i p_j) <a_i|a_j>
    times the phases of <a_m|a_{m-1}> for m = i+1 .. j."""
    k = len(vecs)
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    sigma = np.diag(probs).astype(complex)
    for i in range(k):
        for j in range(i + 1, k):
            phases = np.prod([gram[m, m - 1] / abs(gram[m, m - 1]) for m in range(i + 1, j + 1)])
            sigma[i, j] = math.sqrt(probs[i] * probs[j]) * gram[i, j] * phases
            sigma[j, i] = np.conj(sigma[i, j])
    return sigma


class TestLayeredMatrix:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32), t=st.integers(0, 10**6), n=st.sampled_from([2, 3]),
           extra=st.integers(0, 2))
    def test_one_decomposition_equals_the_matrix_chain(self, seed, t, n, extra):
        # ancilla >= n draws invertible states, where the inverse chain is defined
        e = random_ensemble(3, n, stream_rng(seed, t), n + extra)
        roots = matfun.psd_sqrt(e.states)
        rf, _ = bounds._root_fidelity_matrix(roots)
        smallest = np.linalg.eigvalsh(e.states)[:, 0].min()
        # the reference inverts the states, so its rounding grows like eps/smallest eigenvalue
        tol = max(1e-12, 10 * np.finfo(float).eps / smallest)
        np.testing.assert_allclose(_layered(e), _layered_on_matrices(e.probs, e.states, rf),
                                   rtol=0, atol=tol)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pure_ensembles_are_the_bargmann_form(self, n, k):
        rng = stream_rng(62, 10 * n + k)
        for _ in range(40):
            vecs = [random_pure_state(n, rng) for _ in range(k)]
            e = Ensemble(dirichlet(k, rng), [pure_state(a) for a in vecs])
            np.testing.assert_allclose(_layered(e), _bargmann(e.probs, vecs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ranks", [(2, 1, 2), (1, 2, 1), (1, 1, 2), (2, 2, 1), (1, 1, 1, 1), (2, 1, 1, 2)])
    def test_qubit_ranks_are_the_closed_form_chain(self, ranks):
        # every qubit neighbour product but that of orthogonal pure states has a kernel
        # of dimension <= 1, where the chain is the limit along invertible states
        rng = stream_rng(63, len(ranks) * 10 + sum(ranks))
        k = len(ranks)
        for _ in range(40):
            states = np.array([hs_random_density(2, rng) if r == 2 else pure_state(random_pure_state(2, rng))
                               for r in ranks])
            e = Ensemble(dirichlet(k, rng), states)
            roots = matfun.psd_sqrt(states)
            steps = [polar_2x2(roots[m] @ roots[m - 1]) for m in range(1, k)]
            want = np.diag(e.probs).astype(complex)
            for i in range(k):
                for j in range(i + 1, k):
                    chain = functools.reduce(np.matmul, steps[i:j][::-1])
                    want[i, j] = math.sqrt(e.probs[i] * e.probs[j]) * np.trace(roots[i] @ roots[j] @ chain)
                    want[j, i] = np.conj(want[i, j])
            np.testing.assert_allclose(_layered(e), want, rtol=0, atol=1e-13)

    def test_fidelity_matrix_is_the_batch_row(self, monkeypatch):
        aux = []
        real = bounds.spectrum3

        def recorded(h):
            aux.append(h)
            return real(h)

        monkeypatch.setattr(bounds, "spectrum3", recorded)
        rng = stream_rng(61, 0)
        ens = [random_ens(rng) for _ in range(3)] + [Ensemble(
            np.full(3, 1 / 3), [pure_state(random_pure_state(2, rng)) for _ in range(3)])]
        bounds.hierarchy_batch(np.array([e.probs for e in ens]), np.array([e.states for e in ens]))
        (aux,) = aux
        for e, row in zip(ens, aux):
            assert bounds.fidelity_matrix(e, "layered").tobytes() == row[3].tobytes()

    def test_state_below_psd_tol_raises(self):
        e = random_ens(stream_rng(61, 1))
        states = e.states.copy()
        states[1] = np.diag([1.0 + 2 * PSD_TOL, -2 * PSD_TOL])
        bad = Ensemble(e.probs, states)
        with pytest.raises(matfun.NotPSDError):
            bounds.fidelity_matrix(bad, "layered")
        with pytest.raises(matfun.NotPSDError):
            bounds.hierarchy_batch(bad.probs[None], bad.states[None])


HIERARCHY_COLUMNS = ("s_fid", "s_fid_b", "s_fid_sq", "s_layered", "kept", "conjecture")


class TestHierarchy:
    def test_normalization_endpoints(self):
        # the row's entropies are on the scale with chi at 0 and H(P) at 1
        e = random_ens(stream_rng(60, 0))
        row = bounds.hierarchy(e)
        assert set(row) == set(HIERARCHY_COLUMNS) and row["kept"] is True
        chi, h_p = bounds.holevo(e), classical_entropy(e.probs)
        s_g = vn_entropy(bounds.fidelity_matrix(e, "G"))
        assert abs(row["s_fid"] - (s_g - chi) / (h_p - chi)) < 1e-12

    def test_ordering(self):
        e = random_ens(stream_rng(60, 1))
        row = bounds.hierarchy(e)
        assert 0.0 <= row["s_fid"] <= 1.0 + 1e-9

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
        assert set(batch) == set(HIERARCHY_COLUMNS)
        for i, e in enumerate(ens):
            row = bounds.hierarchy(e)
            assert batch["kept"][i] and set(row) == set(batch)
            for name, col in batch.items():
                assert np.array(row[name]).tobytes() == col[i].tobytes(), name  # bit for bit

    @pytest.mark.parametrize("ancilla", [1, 2, 3])
    def test_fields_are_the_public_entropies(self, ancilla):
        # each field against the public function that defines it, on the unnormalized scale
        for t in range(20):
            e = random_ensemble(3, 2, stream_rng(62, t), ancilla)
            row = bounds.hierarchy(e)
            chi = bounds.holevo(e)
            gap = classical_entropy(e.probs) - chi
            public = {
                "s_fid": bounds.fidelity_matrix(e, "G"),
                "s_fid_b": bounds.fidelity_matrix(e, "G/b", b=math.sqrt(3.0)),
                "s_fid_sq": bounds.fidelity_matrix(e, "F-squared"),
                "s_layered": bounds.fidelity_matrix(e, "layered"),
            }
            for name, m in public.items():
                assert abs(row[name] * gap - (vn_entropy(m) - chi)) < 1e-12, name

    def test_root_fidelities_once_per_pair(self, monkeypatch):
        pairs = []
        real = bounds.root_svd

        def counted(x):
            pairs.append(int(np.prod(np.shape(x)[:-2])))
            return real(x)

        monkeypatch.setattr(bounds, "root_svd", counted)
        rng = stream_rng(60, 4)
        ens = [random_ens(rng) for _ in range(5)]
        bounds.hierarchy_batch(np.array([e.probs for e in ens]), np.array([e.states for e in ens]))
        assert pairs == [3 * 5]  # one root_svd call: 3 pairs per ensemble

    def test_no_lapack_call_per_chunk(self, monkeypatch):
        calls = record_shapes(monkeypatch, np.linalg, ("eigh", "eigvalsh", "svd"))
        calls.update(record_shapes(monkeypatch, bounds, ("spectrum3",)))
        rng = stream_rng(60, 4)
        ens = [random_ens(rng) for _ in range(5)]
        bounds.hierarchy_batch(np.array([e.probs for e in ens]), np.array([e.states for e in ens]))
        # the states and average states take matfun's 2×2 closed forms, the four auxiliary
        # matrices one spectrum3 that leaves no row to LAPACK
        assert calls == {"eigh": [], "eigvalsh": [], "svd": [], "spectrum3": [(5, 4, 3, 3)]}

    def test_qubit_roots_make_no_eigenvector(self):
        # in-band qubit states take the closed-form root and the entrywise products: no eigenvector
        # decomposition, no from_eigh and no LAPACK call; conjecture_excess's one LAPACK call is
        # S(G)'s eigvalsh of the 3×3 G, which conjecture_reference's bits pin. At ancilla 3, and
        # on conjecture1's flat measure, no row is clipped; at ancilla 1 the states are pure, and
        # rounding clips many of them
        for ancillas in ((3, None), (1, 1)):
            hier, conj = (random_ensembles(3, 2, seed, 0, 150, ancilla=a) for seed, a in zip((69, 70), ancillas))
            lowest = min(matfun.spectrum(hier[1]).min(), matfun.spectrum(conj[1]).min())
            assert lowest > 1e-6 if ancillas[0] == 3 else lowest < 0.0
            want = bounds.hierarchy_batch(*hier), bounds.conjecture_excess(*conj)
            with pytest.MonkeyPatch.context() as monkeypatch:
                forbid_calls(monkeypatch, CHANENT_MODULES, ["eigh", "psd_eigh", "from_eigh", "spectral"])
                forbid_calls(monkeypatch, [np.linalg], ["eigh", "eig", "eigvals", "svd", "det", "inv", "solve", "qr"])
                calls = record_shapes(monkeypatch, np.linalg, ("eigvalsh",))
                got = bounds.hierarchy_batch(*hier)
                assert calls["eigvalsh"] == []
                assert bounds.conjecture_excess(*conj).tobytes() == want[1].tobytes()
                assert calls["eigvalsh"] == [(150, 3, 3)]
            assert all(got[name].tobytes() == col.tobytes() for name, col in want[0].items())

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

    def test_skipped_row_is_none_and_nan(self):
        # two orthogonal pure states of weight 1/2 and a third of weight 0: chi = H(P) = ln 2
        states = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2) / 2])
        e = Ensemble(np.array([0.5, 0.5, 0.0]), states)
        assert bounds.hierarchy(e) is None
        batch = bounds.hierarchy_batch(np.array([e.probs, [0.2, 0.3, 0.5]]), np.array([states] * 2))
        assert batch["kept"].tolist() == [False, True] and not batch["conjecture"].any()
        for name in HIERARCHY_COLUMNS[:4]:
            assert math.isnan(batch[name][0]) and math.isfinite(batch[name][1]), name

    def test_nan_s_g_of_a_kept_row_is_a_violation(self, monkeypatch):
        # chi <= S(G) must hold for a kept row to pass: a NaN S(G) fails it
        real = bounds._eigenvalue_entropy

        def nan_s_g(w, *args):
            ent = real(w, *args)
            if w.shape[-1] == 3:  # the four auxiliary matrices' 3×3 spectra (chi's are 2-vectors); S(G) is the first
                ent[1, 0] = math.nan
            return ent

        monkeypatch.setattr(bounds, "_eigenvalue_entropy", nan_s_g)
        rng = stream_rng(60, 7)
        ens = [random_ens(rng) for _ in range(3)]
        batch = bounds.hierarchy_batch(np.array([e.probs for e in ens]), np.array([e.states for e in ens]))
        assert batch["kept"].tolist() == [True] * 3
        assert batch["conjecture"].tolist() == [False, True, False]


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

    def test_closed_form_spectra_match_the_decomposed_matrices(self, monkeypatch):
        # the reference decomposes G and the two diagonal states' matrices, as the check
        # once did; the check itself makes no spectrum, eigh, eigvalsh or svd call
        def decomposed(f, b):
            corner = abs(2 * f - 1.0) / b if b > 0.0 else 0.0
            r = math.sqrt(f)
            g = np.array([[1.0, r, corner], [r, 1.0, r], [corner, r, 1.0]]) / 3.0
            a = min(abs((b + 2 * (2 * f - 1.0) / b) / 3.0), 1.0) if b > 0.0 else 0.0
            chi = vn_entropy(np.diag([(1 + a) / 2, (1 - a) / 2])) - vn_entropy(np.diag([(1 + b) / 2, (1 - b) / 2])) / 3
            return chi, vn_entropy(g)

        grid = [(0.5, 0.0)] + [(float(f), float(b)) for b in np.linspace(1e-3, 1.0, 30)
                               for f in np.linspace(0.5 * (1 - b), 0.5 * (1 + b), 30)]
        want = [decomposed(f, b) for f, b in grid]
        forbid_eigensolvers(monkeypatch)
        eps = np.finfo(float).eps
        for (f, b), (chi, s_g) in zip(grid, want):
            got = bounds.symmetric_triple_check(f, b)
            assert abs(got[0] - chi) <= 2 * eps and abs(got[1] - s_g) <= 8 * eps, (f, b)

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


class TestConjectureExcess:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_qubit_rows_are_the_public_reference(self, k):
        got = bounds.conjecture_excess(*random_ensembles(k, 2, 65, 0, 200))
        assert got.tobytes() == conjecture_reference(k, 2, 65, 0, 200).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_qutrit_rows_within_rounding_of_the_reference(self, k):
        # eigh and eigvalsh eigenvalues of a 3x3 state may differ in the last bits, which
        # moves an entropy of order 1 by a few ulps: at most 6.5 eps seen over 3000 ensembles
        got = bounds.conjecture_excess(*random_ensembles(k, 3, 66, 0, 200))
        np.testing.assert_allclose(got, conjecture_reference(k, 3, 66, 0, 200), rtol=0,
                                   atol=8 * np.finfo(float).eps)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_decompositions_per_stack(self, dim, monkeypatch):
        calls = record_shapes(monkeypatch, np.linalg, ("eigh", "eigvalsh", "svd"))
        calls.update(record_shapes(monkeypatch, bounds, ("root_svd",)))
        bounds.conjecture_excess(*random_ensembles(3, dim, 68, 0, 5))
        assert calls["root_svd"] == [(5, 3, dim, dim)]  # one call: 3 pairs per ensemble
        if dim == 2:
            # the states and average states take matfun's 2×2 closed forms; only G reaches LAPACK
            assert calls == {"eigh": [], "eigvalsh": [(5, 3, 3)], "svd": [], "root_svd": [(5, 3, 2, 2)]}
        else:
            assert calls["eigh"] == [(5, 3, 3, 3)]  # the states, once
            # no state reaches an eigvalsh: only the average states and G
            assert calls["eigvalsh"] == [(5, 3, 3)] * 2
            assert len(calls["svd"]) == 1  # root_svd's

    @pytest.mark.parametrize("probs, states", [
        (np.full((2, 4), 0.25), np.tile(np.eye(2) / 2, (2, 4, 1, 1))),  # k > CONJECTURE_MAX_K
        (np.full((2, 3), 1 / 3), np.tile(np.eye(2) / 2, (2, 2, 1, 1))),  # k of states != k of probs
        (np.full(3, 1 / 3), np.tile(np.eye(2) / 2, (3, 1, 1))),  # no stack axis
        (np.full((2, 3), 1 / 3), np.ones((2, 3, 2, 3))),  # non-square states
    ])
    def test_rejects_bad_shapes(self, probs, states):
        with pytest.raises(ValueError):
            bounds.conjecture_excess(probs, states)
