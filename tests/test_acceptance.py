"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. Monte Carlo trials draw from fixed per-trial streams, so
every number here is reproducible bit for bit.
"""

import math
import time

import numpy as np
from chanent import bounds, davies, qubit
from chanent.channels import map_entropy
from chanent.cli import run_hierarchy, run_suite
from chanent.entropy import (
    EntropyOrder,
    entropic_distance,
    transmission_distance,
    vn_entropy,
)
from chanent.matfun import partial_trace
from chanent.sampling import (
    dirichlet,
    hs_random_density,
    random_channel,
    random_ensemble,
    random_pure_state,
    stream_rng,
)
from chanent.states import angle, pure_state, schmidt
from tests_support import criterion7_davies, matrix_exp


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {name}: {detail}")


SEED = 42


class TestCriterion1Hierarchy:
    def test_hierarchy_table(self):
        t0 = time.time()
        res = run_hierarchy(trials=10000, seed=SEED, ancilla=3)
        elapsed = time.time() - t0
        table = res["table"]
        targets = {
            "s_fid": (0.176, 0.02, 0.065),
            "s_layered": (0.193, 0.02, 0.087),
            "s_fid_sq": (0.37, 0.03, 0.13),
            "s_fid_b": (0.750, 0.02, 0.015),
        }
        ok = True
        parts = []
        for name, (mean_t, mean_tol, std_t) in targets.items():
            mean, std = table[name]["mean"], table[name]["std"]
            good = abs(mean - mean_t) <= mean_tol and abs(std - std_t) <= 0.03
            ok = ok and good
            parts.append(f"{name}={mean:.3f}±{std:.3f} (target {mean_t}±{std_t})")
        parts.append(f"elapsed {elapsed:.0f}s")
        report(1, "hierarchy table", ok and elapsed < 300, "; ".join(parts))
        # per-trial ordering over the same 10^4 ensembles: every bound sits
        # above chi (normalized 0); the fidelity and layered bounds stay
        # below H(P) (normalized 1) by the majorization argument
        assert table["s_layered"]["min"] >= -1e-9
        assert table["s_fid"]["min"] >= -1e-9
        assert table["s_fid"]["max"] <= 1.0 + 1e-9
        assert ok
        assert elapsed < 300


class TestCriterion2Theorem1:
    def test_random_instances(self):
        rep = run_suite("theorem1", 10000, SEED, params={"k": 4})
        ok = rep["violations"] == 0
        report(2, "theorem-1 chain", ok,
               f"10^4 instances, violations={rep['violations']}, max slack={rep['max_slack']:.2e}")
        assert ok

    def test_pure_state_saturation(self):
        worst = 0.0
        for t in range(1000):
            rng = stream_rng(SEED + 1, t)
            n = 2 if rng.random() < 0.5 else 3
            phi = random_channel(n, 1 + int(rng.random() * 4), rng)
            rho = pure_state(random_pure_state(n, rng))
            chi, s_sigma, _, _ = bounds.theorem1_check(rho, phi)
            worst = max(worst, abs(chi - s_sigma))
        report(2, "pure-state saturation", worst <= 1e-9,
               f"10^3 pure inputs, max |chi - S(sigma)| = {worst:.2e}")
        assert worst <= 1e-9


class TestCriterion3MapEntropyAdditivity:
    def test_additivity(self):
        orders = [EntropyOrder.renyi(0.5), EntropyOrder(), EntropyOrder.renyi(2.0),
                  EntropyOrder.renyi(5.0)]
        worst = 0.0
        for t in range(100):
            rng = stream_rng(SEED + 2, t)
            n1 = 2 if t % 2 == 0 else 3
            n2 = 2 if t % 3 == 0 else 3
            phi1 = random_channel(n1, 1 + t % 3, rng)
            phi2 = random_channel(n2, 1 + (t + 1) % 3, rng)
            joint = phi1.tensor(phi2)
            for order in orders:
                gap = abs(
                    map_entropy(joint, order)
                    - map_entropy(phi1, order)
                    - map_entropy(phi2, order)
                )
                worst = max(worst, gap)
        report(3, "map-entropy additivity", worst <= 1e-9,
               f"100 pairs, q in {{0.5,1,2,5}}, max |S(joint)-sum| = {worst:.2e}")
        assert worst <= 1e-9


class TestCriterion4Depolarizing:
    def test_closed_form_vs_optimizer(self):
        r2 = EntropyOrder.renyi(2.0)
        worst = 0.0
        for n in (2, 3):
            for s in np.linspace(0.02, 0.98, 20):
                phi = qubit.depolarizing(n, float(s))
                predicted = qubit.smin_from_smap(map_entropy(phi, r2), n)
                s_min, _ = qubit.min_output_entropy(phi, r2)
                worst = max(worst, abs(s_min - predicted))
        endpoints = max(
            abs(qubit.smin_from_smap(0.0, 2)),
            abs(qubit.smin_from_smap(2 * math.log(2), 2) - math.log(2)),
            abs(qubit.smin_from_smap(0.0, 3)),
            abs(qubit.smin_from_smap(2 * math.log(3), 3) - math.log(3)),
        )
        ok = worst <= 1e-6 and endpoints <= 1e-10
        report(4, "depolarizing formula", ok,
               f"20 mixing values, N in {{2,3}}: max optimizer gap {worst:.2e}, "
               f"endpoint error {endpoints:.2e}")
        assert ok


class TestCriterion5Conjecture:
    def test_fuzz(self):
        rep = run_suite("conjecture1", 10000, SEED + 3, params={"k": 3, "dim": 2})
        ok = rep["violations"] == 0
        report(5, "conjecture fuzz", ok,
               f"10^4 qubit ensembles, violations={rep['violations']}, "
               f"max excess={rep['max_slack']:.2e}")
        assert ok

    def test_indefinite_gram_for_four(self):
        found = bounds.find_indefinite_gram(k=4, trials=5000, seed=SEED + 4)
        ok = found is not None
        detail = f"min eigenvalue {found[1]:.3e}" if found else "none found"
        report(5, "k=4 indefinite root-fidelity matrix", ok, detail)
        assert ok


class TestCriterion6TwoPureOneMixed:
    def test_grid(self):
        worst = -math.inf
        count = 0
        for b in np.linspace(1e-3, 1.0, 50):
            for f in np.linspace(0.5 * (1 - b) + 1e-12, 0.5 * (1 + b) - 1e-12, 50):
                chi, s_g, ok = bounds.symmetric_triple_check(float(f), float(b))
                worst = max(worst, chi - s_g)
                count += 1
        report(6, "two-pure-one-mixed grid", worst <= 1e-9,
               f"{count} grid points, max chi - S(G) = {worst:.2e}")
        assert worst <= 1e-9

    def test_saturation_line(self):
        worst_eq = 0.0
        worst_eig = 0.0
        for f in np.linspace(0.5, 1.0, 50):
            chi, s_g, _ = bounds.symmetric_triple_check(float(f), 1.0)
            worst_eq = max(worst_eq, abs(chi - s_g))
            a = (4 * f - 1.0) / 3.0
            lams = np.sort(bounds.symmetric_triple_eigenvalues(float(f), (2 * f - 1.0) ** 2, float(f)))
            expected = np.sort([0.0, (1 - a) / 2, (1 + a) / 2])
            worst_eig = max(worst_eig, np.abs(lams - expected).max())
        ok = worst_eq <= 1e-8 and worst_eig <= 1e-8
        report(6, "b=1 saturation line", ok,
               f"max |chi - S(G)| = {worst_eq:.2e}, eigenvalue error {worst_eig:.2e}")
        assert ok


class TestCriterion7DaviesQubit:
    def test_minimizer_closed_form(self):
        worst = 0.0
        for t in range(200):
            d = criterion7_davies(stream_rng(SEED + 5, t))
            _, s_closed = davies.qubit_minimizer(d)
            s_opt, _ = qubit.min_output_entropy(davies.qubit_superoperator(d))
            worst = max(worst, abs(s_closed - s_opt))
        report(7, "davies minimizer closed form", worst <= 1e-6,
               f"200 parameter draws, max |closed - optimizer| = {worst:.2e}")
        assert worst <= 1e-6

    def test_semigroup_property(self):
        worst = 0.0
        for t in range(50):
            rng = stream_rng(SEED + 6, t)
            gam = 0.2 + rng.random()
            rel = rng.random() * 2 * gam
            rates = davies.DaviesRates(rel, gam, 0.1 + 0.8 * rng.random(), 0.0)
            worst = max(worst, davies.semigroup_residual(rates, 0.3 + rng.random(), 0.3 + rng.random()))
        report(7, "davies semigroup property", worst <= 1e-9,
               f"50 rate draws, max |Phi(t1)Phi(t2) - Phi(t1+t2)| = {worst:.2e}")
        assert worst <= 1e-9

    def test_multiplicativity(self):
        worst = 0.0
        for t in range(50):
            rng = stream_rng(SEED + 7, t)
            d = criterion7_davies(rng)
            phi = davies.qubit_superoperator(d)
            omega = random_channel(2, 1 + int(rng.random() * 3), rng)
            m_phi = davies.qubit_max_norm(d)
            m_omega = qubit.max_output_2norm(omega, seed=1000 + t)
            m_joint = qubit.max_output_2norm(phi.tensor(omega), seed=2000 + t)
            worst = max(worst, abs(m_joint - m_phi * m_omega))
        report(7, "max 2-norm multiplicativity", worst <= 2e-4,
               f"50 pairs, max |M(joint) - M1*M2| = {worst:.2e}")
        assert worst <= 2e-4


class TestCriterion8DaviesQutrit:
    def test_round_trip_on_members(self):
        from tests_support import random_thermal_block

        worst = 0.0
        for t in range(100):
            block = random_thermal_block(stream_rng(SEED + 8, t))
            f = block.stochastic_block()
            log_f = davies.membership(block).generator
            worst = max(worst, float(np.abs(matrix_exp(log_f) - f).max()))
        report(8, "qutrit exp-log round trip", worst <= 1e-9,
               f"100 member blocks, max residual {worst:.2e}")
        assert worst <= 1e-9

    def test_paper_points(self):
        point_a = davies.membership(davies.DaviesQutritBlock(f21=0.0, f31=0.0, f32=0.5))
        point_b = davies.membership(
            davies.DaviesQutritBlock(f21=0.04512, f31=0.22744, f32=0.22744)
        )
        mid = davies.membership(
            davies.DaviesQutritBlock(f21=0.02256, f31=0.11372, f32=0.36372)
        )
        ok = (
            point_a.is_member
            and point_b.is_member
            and not mid.is_member
            and mid.l21 < 0
        )
        report(8, "published membership points", ok,
               f"A member (boundary={point_a.boundary}), B member "
               f"(L21={point_b.l21:.2e}), midpoint non-member (L21={mid.l21:.4f})")
        assert ok

    def test_closed_form_agreement(self):
        from tests_support import random_thermal_block

        worst = 0.0
        for t in range(100):
            block = random_thermal_block(stream_rng(SEED + 9, t))
            res = davies.membership(block)
            worst = max(worst, abs(res.l21_closed - res.l21))
        report(8, "L21 closed form vs matrix log", worst <= 1e-7,
               f"100 member blocks, max gap {worst:.2e}")
        assert worst <= 1e-7


class TestCriterion9HolevoTheorem:
    def test_mutual_information_bound(self):
        worst = -math.inf
        violations = 0
        for t in range(1000):
            rng = stream_rng(SEED + 10, t)
            k = 2 + t % 3
            e = random_ensemble(k, 2, rng)
            povm = random_channel(2, 1 + t % 4, rng).kraus
            mi, chi, ok = bounds.holevo_mutual_check(e, povm)
            worst = max(worst, mi - chi)
            violations += 0 if ok else 1
        report(9, "holevo mutual-information bound", violations == 0,
               f"10^3 ensembles+POVMs, violations={violations}, max MI-chi = {worst:.2e}")
        assert violations == 0


class TestCriterion10EntropyFoundations:
    def test_strong_subadditivity(self):
        worst = -math.inf
        for t in range(10000):
            rho = hs_random_density(8, stream_rng(SEED + 11, t))
            s123 = vn_entropy(rho)
            rho12 = partial_trace(rho, (4, 2), 2)
            rho23 = partial_trace(rho, (2, 4), 1)
            rho2 = partial_trace(rho12, (2, 2), 1)
            slack = vn_entropy(rho12) + vn_entropy(rho23) - s123 - vn_entropy(rho2)
            worst = max(worst, -slack)
        report(10, "strong subadditivity", worst <= 1e-9,
               f"10^4 tripartite states, max violation {worst:.2e}")
        assert worst <= 1e-9

    def test_concavity_and_subadditivity(self):
        worst_conc = -math.inf
        worst_sub = -math.inf
        for t in range(10000):
            rng = stream_rng(SEED + 12, t)
            n = 2 if t % 2 == 0 else 3
            probs = dirichlet(3, rng)
            sts = [hs_random_density(n, rng) for _ in range(3)]
            mix = sum(p * s for p, s in zip(probs, sts))
            slack = vn_entropy(mix) - sum(p * vn_entropy(s) for p, s in zip(probs, sts))
            worst_conc = max(worst_conc, -slack)
            rho12 = hs_random_density(4, rng)
            s1 = vn_entropy(partial_trace(rho12, (2, 2), 2))
            s2 = vn_entropy(partial_trace(rho12, (2, 2), 1))
            worst_sub = max(worst_sub, vn_entropy(rho12) - s1 - s2)
        ok = worst_conc <= 1e-9 and worst_sub <= 1e-9
        report(10, "concavity + subadditivity", ok,
               f"10^4 each, max violations {worst_conc:.2e} / {worst_sub:.2e}")
        assert ok

    def test_triangle_inequalities(self):
        worst = -math.inf
        for t in range(10000):
            rng = stream_rng(SEED + 13, t)
            r1, r2, r3 = (hs_random_density(2, rng) for _ in range(3))
            worst = max(worst, angle(r1, r3) - angle(r1, r2) - angle(r2, r3))
            worst = max(
                worst,
                entropic_distance(r1, r3)
                - entropic_distance(r1, r2)
                - entropic_distance(r2, r3),
            )
            p1, p2, p3 = (dirichlet(3, rng) for _ in range(3))
            worst = max(
                worst,
                transmission_distance(p1, p3)
                - transmission_distance(p1, p2)
                - transmission_distance(p2, p3),
            )
        report(10, "triangle inequalities (angle, D_E, D_T)", worst <= 1e-9,
               f"10^4 triples each, max violation {worst:.2e}")
        assert worst <= 1e-9

    def test_schmidt_spectral_equality(self):
        worst = 0.0
        for t in range(10000):
            rng = stream_rng(SEED + 14, t)
            dims = (2, 3) if t % 2 == 0 else (3, 3)
            psi = random_pure_state(dims[0] * dims[1], rng)
            proj = np.outer(psi, psi.conj())
            w1 = np.sort(np.linalg.eigvalsh(partial_trace(proj, dims, 2)))[::-1]
            w2 = np.sort(np.linalg.eigvalsh(partial_trace(proj, dims, 1)))[::-1]
            k = min(dims)
            worst = max(worst, float(np.abs(w1[:k] - w2[:k]).max()))
            coeffs, _, _ = schmidt(psi, dims)
            worst = max(worst, float(np.abs(np.sort(coeffs**2)[::-1] - w1[:k]).max()))
        report(10, "schmidt spectral equality", worst <= 1e-9,
               f"10^4 bipartite states, max spectrum gap {worst:.2e}")
        assert worst <= 1e-9
