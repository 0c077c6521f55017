import numpy as np
import pytest

from conftest import pure_pair, qubit_angle_oracle, angle_measurement
from medli import (
    DimensionMismatch,
    GeneralPOVM,
    InvalidSignature,
    NotComplete,
    NotLinearlyIndependent,
    NotProjector,
    NotPSD,
    PriorsInvalid,
    RankSumMismatch,
    StateNotDensity,
    random_ensemble,
    success_probability,
    validate_ensemble,
    validate_povm,
    validate_projective,
)
from medli.ensembles import PERTURBATION
from medli.linalg import haar_unitary, herm
from reference import average_state, is_pd

ORTH_STATES = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]


class TestValidateEnsemble:
    def test_orthogonal_pair(self):
        ens = validate_ensemble([0.5, 0.5], ORTH_STATES)
        assert ens.rank_signature == (1, 1)
        assert ens.dim == 2

    def test_duplicated_state_rejected(self):
        with pytest.raises(NotLinearlyIndependent):
            validate_ensemble([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])

    def test_mixed_signature_from_unitary_columns(self):
        rng = np.random.default_rng(1)
        u = haar_unitary(3, rng)
        rho1 = herm(u[:, :2] @ np.diag([0.6, 0.4]) @ u[:, :2].conj().T)
        rho2 = herm(np.outer(u[:, 2], u[:, 2].conj()))
        ens = validate_ensemble([0.3, 0.7], [rho1, rho2])
        assert ens.rank_signature == (2, 1)

    def test_bad_priors(self):
        with pytest.raises(PriorsInvalid):
            validate_ensemble([0.5, -0.5], ORTH_STATES)
        with pytest.raises(PriorsInvalid):
            validate_ensemble([0.6, 0.6], ORTH_STATES)

    def test_state_not_density(self):
        with pytest.raises(StateNotDensity):
            validate_ensemble([0.5, 0.5], [np.diag([2.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(StateNotDensity):
            validate_ensemble([0.5, 0.5], [np.diag([1.5, -0.5]), np.diag([0.0, 1.0])])
        skew = np.array([[0.5, 0.5], [-0.5, 0.5]])
        with pytest.raises(StateNotDensity):
            validate_ensemble([0.5, 0.5], [skew, np.diag([0.0, 1.0])])

    def test_rank_sum_mismatch(self):
        pure1 = np.diag([1.0, 0.0, 0.0])
        pure2 = np.diag([0.0, 1.0, 0.0])
        with pytest.raises(RankSumMismatch):
            validate_ensemble([0.5, 0.5], [pure1, pure2])

    def test_needs_two_states(self):
        with pytest.raises(DimensionMismatch):
            validate_ensemble([1.0], [np.diag([1.0, 0.0])])

    @pytest.mark.parametrize("seed", range(5))
    def test_single_invariant_violations_rejected(self, seed):
        ens = random_ensemble(3, (2, 1), seed=seed)
        states = [np.array(s) for s in ens.states]
        with pytest.raises(PriorsInvalid):
            validate_ensemble(ens.priors * 1.2, states)
        bumped = [s.copy() for s in states]
        bumped[0] = bumped[0] - 0.2 * np.eye(3)
        with pytest.raises(StateNotDensity):
            validate_ensemble(ens.priors, bumped)
        with pytest.raises((NotLinearlyIndependent, RankSumMismatch)):
            validate_ensemble(ens.priors, [states[0], states[0] * 0.5 + states[1] * 0.5])

    def test_states_frozen(self):
        ens = validate_ensemble([0.5, 0.5], ORTH_STATES)
        with pytest.raises(ValueError):
            ens.states[0][0, 0] = 5.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
class TestNonFiniteRejected:
    """NaN compares False against every bound, so each validator tests finiteness first."""

    def test_prior(self, bad):
        with pytest.raises(PriorsInvalid):
            validate_ensemble([bad, 0.5], ORTH_STATES)

    def test_state_entry(self, bad):
        with pytest.raises(StateNotDensity, match="non-finite"):
            validate_ensemble([0.5, 0.5], [np.diag([1.0, bad]), ORTH_STATES[1]])

    def test_povm_element(self, bad):
        with pytest.raises(NotPSD):
            validate_povm([np.diag([1.0, bad]), np.diag([0.0, 1.0])])

    def test_projector(self, bad):
        with pytest.raises(NotProjector):
            validate_projective([np.diag([1.0, bad]), np.diag([0.0, 1.0])])


class TestValidateProjective:
    def test_computational_basis(self):
        meas = validate_projective([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert meas.rank_signature == (1, 1)

    def test_duplicated_projector_incomplete(self):
        with pytest.raises(NotComplete):
            validate_projective([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])

    def test_random_rank2_in_d5(self):
        rng = np.random.default_rng(7)
        u = haar_unitary(5, rng)
        proj = herm(u[:, :2] @ u[:, :2].conj().T)
        meas = validate_projective([proj, np.eye(5) - proj])
        assert meas.rank_signature == (2, 3)


class TestSuccessProbability:
    def test_perfect_discrimination(self):
        ens = validate_ensemble([0.5, 0.5], ORTH_STATES)
        meas = validate_projective(ORTH_STATES)
        assert success_probability(ens, meas) == 1.0

    def test_trivial_measurement_returns_first_prior(self):
        ens = validate_ensemble([0.3, 0.7], ORTH_STATES)
        povm = validate_povm([np.eye(2), np.zeros((2, 2))])
        assert success_probability(ens, povm) == pytest.approx(0.3, abs=1e-15)

    def test_pi6_pair_against_angle_oracle(self):
        # independent one-angle brute force; closed comparator (1+sin)/2 = 0.75
        ens = pure_pair(np.pi / 6)
        best_value, best_phi = qubit_angle_oracle(ens)
        assert best_value == pytest.approx(0.75, abs=1e-9)
        assert success_probability(ens, angle_measurement(best_phi)) == pytest.approx(
            best_value, abs=1e-12
        )

    def test_dimension_mismatch(self):
        ens = validate_ensemble([0.5, 0.5], ORTH_STATES)
        with pytest.raises(DimensionMismatch):
            success_probability(ens, GeneralPOVM(dim=2, elements=(np.eye(2),)))


class TestAverageState:
    def test_orthogonal_pair_is_maximally_mixed(self):
        ens = validate_ensemble([0.5, 0.5], ORTH_STATES)
        np.testing.assert_allclose(average_state(ens), np.eye(2) / 2, atol=1e-15)

    def test_linearity_in_priors(self):
        ens = validate_ensemble([0.99, 0.01], ORTH_STATES)
        expected = 0.99 * ORTH_STATES[0] + 0.01 * ORTH_STATES[1]
        np.testing.assert_allclose(average_state(ens), expected, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_ensemble_average_is_pd_unit_trace(self, seed):
        ens = random_ensemble(4, (2, 1, 1), seed=seed)
        avg = average_state(ens)
        assert is_pd(avg)
        assert np.trace(avg).real == pytest.approx(1.0, abs=1e-12)


class TestRandomEnsemble:
    def test_reproducible_bit_exact(self):
        first = random_ensemble(2, (1, 1), seed=7)
        second = random_ensemble(2, (1, 1), seed=7)
        assert np.array_equal(first.priors, second.priors)
        for a, b in zip(first.states, second.states):
            assert np.array_equal(a, b)

    def test_validator_accepts_output(self):
        ens = random_ensemble(4, (2, 2), seed=0)
        assert ens.rank_signature == (2, 2)
        revalidated = validate_ensemble(ens.priors, ens.states)
        assert revalidated.rank_signature == (2, 2)

    def test_invalid_signature(self):
        with pytest.raises(InvalidSignature):
            random_ensemble(3, (2, 2), seed=0)

    def test_stacked_range_vectors_meet_the_weyl_bound(self):
        # each exp(i PERTURBATION H) moves one state's range basis by at most
        # PERTURBATION from Haar columns, so s_min / s_max of the stacked
        # range vectors is at least (1 - 0.1 sqrt(m)) / (1 + 0.1 sqrt(m))
        for dim in range(2, 33):
            pairs = (2,) * (dim // 2) + (1,) * (dim % 2)
            for sig in ((1,) * dim, pairs, (3,) + (1,) * (dim - 3)):
                if len(sig) < 2 or sum(sig) != dim:
                    continue
                ens = random_ensemble(dim, sig, seed=dim)
                stacked = np.hstack(
                    [np.linalg.eigh(rho)[1][:, -r:] for rho, r in zip(ens.states, sig)]
                )
                svals = np.linalg.svd(stacked, compute_uv=False)
                spread = PERTURBATION * np.sqrt(len(sig))
                assert svals[-1] / svals[0] >= (1 - spread) / (1 + spread)
