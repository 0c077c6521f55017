import numpy as np
import pytest

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
    success_probability,
    validate_ensemble,
    validate_projective,
)
from medli.linalg import DEFAULT_TOL, haar_unitary, herm

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

    def test_inconclusive_band(self):
        ens = random_ensemble(3, (1, 1, 1), seed=9)
        result = solve(ens)
        assert result.certified
        residual = result.report.hermiticity_residual
        squeezed = DEFAULT_TOL.replace(tol_recon=max(residual / 5.0, 1e-18))
        report = certify_simplified(ens, result.measurement, squeezed)
        assert report.verdict == INCONCLUSIVE


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


@pytest.mark.parametrize("seed", range(4))
def test_zero_duality_gap_at_certified_optimum(seed):
    sig = [(1, 1), (2, 1), (1, 1, 1), (2, 2)][seed % 4]
    ens = random_ensemble(sum(sig), sig, seed=90 + seed)
    result = solve(ens)
    assert result.certified
    prob = success_probability(ens, result.measurement)
    assert abs(prob - result.report.dual_value) <= 1e-8
