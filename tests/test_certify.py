import gc
import sys
import threading
import weakref

import numpy as np
import pytest

import medli
from conftest import angle_measurement, pure_pair, qubit_angle_oracle
from medli import (
    INCONCLUSIVE,
    NOT_OPTIMAL,
    OPTIMAL,
    DimensionMismatch,
    GeneralPOVM,
    NotProjective,
    RankSignatureMismatch,
    certify_full,
    certify_simplified,
    detection_profile,
    fixpoint_check,
    generate_fixed_point,
    inverse_map,
    pgm,
    random_ensemble,
    solve,
    solve_oracle,
    success_probability,
    validate_ensemble,
    validate_povm,
    validate_projective,
)
from medli.certify import _REPORTS, _held_report, _report
from medli.ensembles import _pair
from medli.linalg import DEFAULT_TOL, haar_unitary, herm
from medli.pgm import _measurement

ORTH = validate_ensemble([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
ORTH_MEAS = validate_projective([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
SWAPPED = validate_projective([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])


def rank_matched_random_measurement(ensemble, seed):
    rng = np.random.default_rng(seed)
    u = haar_unitary(ensemble.dim, rng)
    projs = []
    start = 0
    for r in ensemble.rank_signature:
        cols = u[:, start : start + r]
        start += r
        projs.append(herm(cols @ cols.conj().T))
    return validate_projective(projs)


class TestCertifyFull:
    def test_orthogonal_optimal(self):
        report = certify_full(ORTH, ORTH_MEAS)
        assert report.verdict == OPTIMAL
        assert report.dual_value == pytest.approx(1.0, abs=1e-12)

    def test_swapped_projectors_not_optimal(self):
        report = certify_full(ORTH, SWAPPED)
        assert report.verdict == NOT_OPTIMAL
        assert report.min_slack_eig == pytest.approx(-0.5, abs=1e-12)

    def test_pi6_oracle_optimal(self):
        ens = pure_pair(np.pi / 6)
        _, phi = qubit_angle_oracle(ens)
        report = certify_full(ens, angle_measurement(phi))
        assert report.verdict == OPTIMAL
        assert report.dual_value == pytest.approx(0.75, abs=1e-6)


class TestCertifySimplified:
    def test_orthogonal_optimal(self):
        report = certify_simplified(ORTH, ORTH_MEAS)
        assert report.verdict == OPTIMAL

    @pytest.mark.parametrize("seed", range(8))
    def test_random_measurement_not_optimal_and_verdicts_agree(self, seed):
        sig = [(1, 1), (2, 1), (1, 1, 1), (2, 2)][seed % 4]
        ens = random_ensemble(sum(sig), sig, seed=60 + seed)
        meas = rank_matched_random_measurement(ens, seed=600 + seed)
        simplified = certify_simplified(ens, meas)
        full = certify_full(ens, meas)
        assert simplified.verdict == NOT_OPTIMAL
        assert simplified.verdict == full.verdict

    @pytest.mark.parametrize("seed", range(4))
    def test_inverse_map_output_certifies(self, seed):
        sig = [(2, 1), (2, 2), (2, 2, 1), (1, 1, 1)][seed % 4]
        ens = random_ensemble(sum(sig), sig, seed=70 + seed)
        pre, meas, _, _ = inverse_map(ens)
        report = certify_simplified(pre, meas)
        assert report.verdict == OPTIMAL
        assert report.stationarity_residual <= 1e-8
        assert report.min_slack_eig >= -1e-9

    def test_rank_mismatch_rejected(self):
        ens = random_ensemble(3, (2, 1), seed=0)
        rng = np.random.default_rng(5)
        u = haar_unitary(3, rng)
        flipped = [
            herm(u[:, :1] @ u[:, :1].conj().T),
            herm(u[:, 1:] @ u[:, 1:].conj().T),
        ]
        with pytest.raises(RankSignatureMismatch):
            certify_simplified(ens, validate_projective(flipped))

    def test_non_projective_rejected(self):
        povm = GeneralPOVM(
            dim=2,
            elements=(np.eye(2) * 0.5, np.eye(2) * 0.5),
        )
        with pytest.raises(NotProjective):
            certify_simplified(ORTH, povm)

    def test_pairing_checked_before_projectivity(self):
        # a non-projective POVM of the wrong dimension fails on the pairing
        povm = GeneralPOVM(dim=3, elements=(np.eye(3) * 0.5, np.eye(3) * 0.5))
        with pytest.raises(DimensionMismatch):
            certify_simplified(ORTH, povm)

    def test_general_povm_is_paired_as_given(self):
        # projectors off by eps, inside tol_recon: validation accepts them and
        # rebuilds the exact projectors from its eigenvectors, but both
        # certifiers pair the elements the caller gave, so their numbers are
        # one report's, bit for bit, and the rebuilt projectors' report differs
        eps = 5e-9
        elements = [np.diag([1.0 + eps, 0.0]), np.diag([0.0, 1.0 - eps])]
        ens = random_ensemble(2, (1, 1), seed=4)
        povm = validate_povm(elements)
        full, simplified = certify_full(ens, povm), certify_simplified(ens, povm)
        for name in ("stationarity_residual", "min_slack_eig", "positivity_min_eig",
                     "hermiticity_residual", "dual_value", "success_prob"):
            assert getattr(simplified, name) == getattr(full, name)
        assert full.success_prob == success_probability(ens, povm)
        rebuilt = validate_projective(elements)
        assert np.array_equal(rebuilt.projectors, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        weighted = ens.weighted_states()
        shift = eps * (weighted[0][0, 0] - weighted[1][1, 1]).real
        assert abs(shift) > 1e-10
        moved = full.success_prob - certify_full(ens, rebuilt).success_prob
        assert moved == pytest.approx(shift, rel=1e-5)

    def test_inconclusive_band(self):
        ens = random_ensemble(3, (1, 1, 1), seed=9)
        result = solve(ens)
        assert result.certified
        residual = result.report.hermiticity_residual
        squeezed = DEFAULT_TOL.replace(tol_recon=max(residual / 5.0, 1e-18))
        report = certify_simplified(ens, result.measurement, squeezed)
        assert report.verdict == INCONCLUSIVE


NUMBERS = ("stationarity_residual", "min_slack_eig", "positivity_min_eig",
           "hermiticity_residual", "dual_value", "success_prob")


def assert_bit_equal(report, fresh):
    for name in NUMBERS:
        assert getattr(report, name) == getattr(fresh, name), name
    np.testing.assert_array_equal(report.z, fresh.z)


class TestHeldReport:
    @pytest.fixture
    def paired(self, monkeypatch):
        calls = []

        def spy(ensemble, measurement, _pair=medli.ensembles._pair):
            calls.append(measurement)
            return _pair(ensemble, measurement)

        monkeypatch.setattr(medli.certify, "_pair", spy)
        return calls

    def test_inverse_maps_report_serves_both_certifiers(self, paired, monkeypatch):
        # README's library flow: the pre-image and its measurement are paired
        # once, by inverse_map, and both certifiers read that report; the
        # simplified one still checks the measurement on every call
        matched = []

        def spy(ensemble, measurement, tol, _rank_matched=medli.certify.rank_matched):
            matched.append(measurement)
            return _rank_matched(ensemble, measurement, tol)

        monkeypatch.setattr(medli.certify, "rank_matched", spy)
        q = random_ensemble(4, (2, 1, 1), seed=61)
        pre, meas, report, _ = inverse_map(q)
        simplified = certify_simplified(pre, meas)
        full = certify_full(pre, meas)
        assert paired == [meas]
        assert matched == [meas, meas]
        assert report.verdict == simplified.verdict == OPTIMAL
        assert_bit_equal(simplified, report)
        assert_bit_equal(full, report)

    def test_solver_restart_report_is_held(self, paired):
        ens = random_ensemble(3, (2, 1), seed=62)
        result = solve(ens)
        paired.clear()
        assert_bit_equal(certify_simplified(ens, result.measurement), result.report)
        assert paired == []

    @pytest.mark.parametrize("sig", [(1, 1), (2, 1, 1), (2, 2, 1)])
    def test_held_report_is_a_fresh_reports_bit_for_bit(self, sig):
        ens = random_ensemble(sum(sig), sig, seed=63)
        haar = _measurement(haar_unitary(ens.dim, np.random.default_rng(63)), ens, DEFAULT_TOL)
        for meas in (pgm(ens), haar, validate_projective(haar.projectors)):
            for _ in range(2):
                fresh = _report(_pair(ens, meas), DEFAULT_TOL)
                held = _held_report(ens, meas, DEFAULT_TOL)
                assert held == fresh
                assert_bit_equal(held, fresh)
                assert_bit_equal(certify_full(ens, meas), fresh)
                assert_bit_equal(certify_simplified(ens, meas), fresh)

    def test_each_tolerance_gets_its_own_report(self, paired):
        # the traces sum to 1 + 4e-16: clamped to 1 within tol_recon, not at 0
        u = haar_unitary(2, np.random.default_rng(10))
        states = [herm(np.outer(col, col.conj())) for col in u.T]
        ens, meas = validate_ensemble([0.5, 0.5], states), validate_projective(states)
        exact = DEFAULT_TOL.replace(tol_recon=0.0)
        assert certify_full(ens, meas).success_prob == 1.0
        assert certify_full(ens, meas, exact).success_prob > 1.0
        assert certify_simplified(ens, meas).success_prob == 1.0
        assert certify_simplified(ens, meas, exact).success_prob > 1.0
        assert paired == [meas, meas]

    def test_general_povm_is_paired_on_every_call(self, paired):
        # a hand-built POVM holds the caller's writable arrays: an edit made
        # between two calls shows in the second report
        ens = random_ensemble(2, (1, 1), seed=64)
        povm = GeneralPOVM(dim=2, elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        before = certify_full(ens, povm)
        povm.elements[0][:] = np.diag([0.0, 1.0])
        povm.elements[1][:] = np.diag([1.0, 0.0])
        after = certify_full(ens, povm)
        assert paired == [povm, povm]
        assert after.success_prob != before.success_prob
        assert_bit_equal(after, _report(_pair(ens, povm), DEFAULT_TOL))

    def test_held_z_is_read_only(self):
        ens = random_ensemble(3, (1, 1, 1), seed=65)
        meas = pgm(ens)
        for report in (certify_full(ens, meas), certify_simplified(ens, meas)):
            assert report.z is _held_report(ens, meas, DEFAULT_TOL).z
            with pytest.raises(ValueError):
                report.z[0, 0] = 0.0

    def test_table_keeps_neither_the_ensemble_nor_the_measurement_alive(self):
        ens = random_ensemble(3, (2, 1), seed=66)
        meas = pgm(ens)
        certify_full(ens, meas)
        assert ens in _REPORTS[meas]
        gone = [weakref.ref(ens), weakref.ref(meas), weakref.ref(_REPORTS[meas])]
        del ens, meas
        gc.collect()
        # the measurement's entry goes with it
        assert [ref() for ref in gone] == [None] * 3

    def test_threads_share_the_held_reports(self):
        # 8 threads on 2 cores, switching every microsecond, certify the same
        # fresh pairs: every report is the serial one, and every call on a
        # pair read the one held report, so no thread's entry replaced another's
        pairs = []
        for seed, sig in enumerate([(1, 1), (2, 1), (1, 1, 1), (2, 2, 1)]):
            ens = random_ensemble(sum(sig), sig, seed=70 + seed)
            pairs.append((ens, pgm(ens)))
        serial = [_report(_pair(ens, meas), DEFAULT_TOL) for ens, meas in pairs]
        results, errors = [], []

        def work():
            try:
                for _ in range(20):
                    for ens, meas in pairs:
                        results.append((meas, certify_full(ens, meas)))
                        results.append((meas, certify_simplified(ens, meas)))
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 8 * 20 * 2 * len(pairs)
        expected = {id(meas): fresh for (_, meas), fresh in zip(pairs, serial)}
        held = {id(meas): _held_report(ens, meas, DEFAULT_TOL).z for ens, meas in pairs}
        for meas, report in results:
            assert_bit_equal(report, expected[id(meas)])
            assert report.z is held[id(meas)]


class TestFixpointCheck:
    def test_orthogonal_pair(self):
        result = fixpoint_check(ORTH)
        assert result.is_fixed
        assert result.c_estimate == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert result.residual < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_generator_outputs_are_fixed(self, seed):
        sig = [(1, 1), (2, 1), (2, 2), (2, 1, 1)][seed % 4]
        ens = generate_fixed_point(sum(sig), sig, seed=80 + seed)
        result = fixpoint_check(ens)
        assert result.is_fixed
        assert result.residual < 1e-8

    def test_perturbed_priors_not_fixed(self):
        # direct check: the pinched root of the average state has unequal
        # eigenvalues once the priors are skewed
        ens = pure_pair(np.pi / 6, priors=(0.7, 0.3))
        rho = 0.7 * ens.states[0] + 0.3 * ens.states[1]
        vals, vecs = np.linalg.eigh(rho)
        root = (vecs * np.sqrt(vals)) @ vecs.conj().T
        meas = pgm(ens)
        pinched = sum(p @ root @ p for p in meas.projectors)
        eigs = np.linalg.eigvalsh(pinched)
        assert eigs[1] - eigs[0] > DEFAULT_TOL.tol_fixpoint
        result = fixpoint_check(ens)
        assert not result.is_fixed


class TestDetectionProfile:
    def test_orthogonal_pair(self):
        profile = detection_profile(ORTH, ORTH_MEAS)
        assert profile == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_fixed_point_mixed_signature_proportional_to_ranks(self):
        ens = generate_fixed_point(3, (2, 1), seed=5)
        profile = detection_profile(ens, pgm(ens))
        ratios = [p / r for p, r in zip(profile, ens.rank_signature)]
        assert max(ratios) - min(ratios) < 1e-7

    def test_rank_one_fixed_point_equal_detection(self):
        ens = generate_fixed_point(3, (1, 1, 1), seed=6)
        profile = detection_profile(ens, pgm(ens))
        assert max(profile) - min(profile) < 1e-7


class TestReportedSuccessProbability:
    # a report's success_prob comes from the certifier's own pairing; it must
    # be the value success_probability gives the same pair, bit for bit

    @pytest.mark.parametrize("sig", [(1, 1, 1, 1), (2, 1, 1), (2, 2, 1)])
    def test_projective_measurements(self, sig):
        ens = random_ensemble(sum(sig), sig, seed=40 + sum(sig))
        haar = _measurement(haar_unitary(ens.dim, np.random.default_rng(41)), ens, DEFAULT_TOL)
        for meas in (pgm(ens), haar, validate_projective(haar.projectors)):
            prob = success_probability(ens, meas, DEFAULT_TOL)
            assert certify_full(ens, meas, DEFAULT_TOL).success_prob == prob
            assert certify_simplified(ens, meas, DEFAULT_TOL).success_prob == prob

    def test_general_povm(self):
        ens = random_ensemble(3, (1, 1, 1), seed=42)
        povm = validate_povm([0.8 * p + 0.2 / 3 * np.eye(3) for p in pgm(ens).projectors])
        prob = success_probability(ens, povm)
        assert 0.0 < prob < 1.0
        assert certify_full(ens, povm).success_prob == prob

    def test_orthogonal_pair_is_clamped_to_one(self):
        # rotated off the axes, the traces sum to 1 + 4e-16, within tol_recon of 1
        u = haar_unitary(2, np.random.default_rng(10))
        states = [herm(np.outer(col, col.conj())) for col in u.T]
        ens, meas = validate_ensemble([0.5, 0.5], states), validate_projective(states)
        assert sum(detection_profile(ens, meas)) > 1.0
        assert success_probability(ens, meas) == 1.0
        assert certify_full(ens, meas).success_prob == 1.0
        assert certify_simplified(ens, meas).success_prob == 1.0

    @pytest.mark.parametrize("search", [solve, solve_oracle])
    def test_solvers_report_the_certifiers_value(self, search):
        ens = random_ensemble(3, (2, 1), seed=43)
        result = search(ens)
        assert result.success_prob == result.report.success_prob
        assert result.success_prob == success_probability(ens, result.measurement)


@pytest.mark.parametrize("seed", range(4))
def test_zero_duality_gap_at_certified_optimum(seed):
    sig = [(1, 1), (2, 1), (1, 1, 1), (2, 2)][seed % 4]
    ens = random_ensemble(sum(sig), sig, seed=90 + seed)
    result = solve(ens)
    assert result.certified
    prob = success_probability(ens, result.measurement)
    assert abs(prob - result.report.dual_value) <= 1e-8
