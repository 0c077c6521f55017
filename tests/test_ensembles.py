import dataclasses

import numpy as np
import pytest

from conftest import angle_measurement, near_collinear, pure_pair, qubit_angle_oracle
from medli import (
    DimensionMismatch,
    GeneralPOVM,
    ProjectiveMeasurement,
    certify_full,
    certify_simplified,
    detection_profile,
    forward_map,
    roundtrip_check,
    InvalidSignature,
    NotComplete,
    NotLinearlyIndependent,
    NotProjectiveAfterPGM,
    NotProjector,
    NotPSD,
    PriorsInvalid,
    RankSumMismatch,
    StateNotDensity,
    inverse_map,
    pgm,
    random_ensemble,
    solve,
    success_probability,
    validate_ensemble,
    validate_povm,
    validate_projective,
)
from medli.ensembles import (
    PERTURBATION,
    _from_basis,
    _from_factors,
    _hermitian_part,
    _pair,
    _signature_slices,
    measurement_elements,
)
from medli.linalg import DEFAULT_TOL, Tolerances, haar_unitary, herm, rank_cutoff_mask
from medli.pgm import _measurement
from medli.serialize import measurement_to_doc
from medli.solver import _horizontal
from reference import (
    average_state,
    check_hermitian,
    column_stationarity,
    is_pd,
    outcome_sum,
    outcome_weights,
)

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


def _orth_d3():
    return [np.diag(np.eye(3)[k]).astype(complex) for k in range(3)]


def _with_bad(bad_states):
    states = _orth_d3()
    states[1], states[2] = bad_states
    return states


FIRST_OFFENDER = {
    "non-finite": (
        (np.diag([0.0, np.nan, 1.0]), np.diag([np.inf, 0.0, 1.0])),
        r"state 1 has non-finite entries",
    ),
    "non-hermitian": (
        (
            np.diag([0.0, 1.0, 0.0]) + 0.1 * np.eye(3, k=1),
            np.diag([0.0, 0.0, 1.0]) + 0.1j * np.eye(3, k=-1),
        ),
        r"state 1: matrix is not Hermitian",
    ),
    "negative eigenvalue": (
        (np.diag([-0.1, 1.1, 0.0]), np.diag([0.0, -0.1, 1.1])),
        r"state 1 has eigenvalue -1\.000e-01",
    ),
    "trace": (
        (np.diag([0.0, 2.0, 0.0]), np.diag([0.0, 0.0, 2.0])),
        r"state 1 has trace 2\.0, not 1",
    ),
}


@pytest.mark.parametrize("case", sorted(FIRST_OFFENDER))
def test_first_offending_state_is_named(case):
    # states 1 and 2 both fail the same check; the message names state 1
    bad_states, message = FIRST_OFFENDER[case]
    with pytest.raises(StateNotDensity, match=message) as info:
        validate_ensemble([0.2, 0.3, 0.5], _with_bad(bad_states))
    assert "state 2" not in str(info.value)


def test_non_finite_state_named_before_a_later_bad_shape():
    # also when the later item is no array at all (ragged, text)
    for later in (np.eye(2), [[1, 0], [0]], "ab"):
        states = _orth_d3()
        states[0] = np.diag([1.0, np.nan, 0.0])
        states[1] = later
        with pytest.raises(StateNotDensity, match=r"state 0 has non-finite entries"):
            validate_ensemble([0.2, 0.3, 0.5], states)


def _pair_of(states):
    return validate_ensemble([0.5, 0.5], states)


@pytest.mark.parametrize(
    "validate, items, message",
    [
        (_pair_of, [np.ones((2, 3)), np.eye(2) / 2], r"state 0 has shape \(2, 3\)"),
        (_pair_of, [np.eye(2) / 2, [1, 2]], r"state 1 has shape \(2,\)"),
        (_pair_of, [0.5, np.eye(2) / 2], r"state 0 has shape \(\)"),
        (validate_povm, [np.eye(2), np.ones((2, 3))], r"element 1 has shape \(2, 3\)"),
        (validate_povm, [np.eye(2), np.ones((1, 2, 2))], r"element 1 has shape \(1, 2, 2\)"),
        (validate_projective, [np.ones((2, 3)), np.eye(2)], r"element 0 has shape \(2, 3\)"),
        (_pair_of, [np.eye(2) / 2, [[1, 0], [0]]], r"state 1 is not an array of numbers"),
        (_pair_of, ["ab", np.eye(2) / 2], r"state 0 is not an array of numbers"),
        (validate_povm, [np.eye(2), [[1, 0], [0]]], r"element 1 is not an array of numbers"),
        (validate_povm, ["ab", np.eye(2)], r"element 0 is not an array of numbers"),
        (validate_projective, [[[1, 0], [0]], np.eye(2)], r"element 0 is not an array of numbers"),
        (validate_projective, [np.eye(2), "ab"], r"element 1 is not an array of numbers"),
    ],
    ids=[
        "state-2x3", "state-1d", "state-0d", "povm-2x3", "povm-3d", "projective-2x3",
        "state-ragged", "state-text", "povm-ragged", "povm-text", "projective-ragged", "projective-text",
    ],
)
def test_matrices_of_another_shape_raise_dimension_mismatch(validate, items, message):
    # not square, not 2-D, or no array at all (ragged, text): the package's
    # error, naming the index, not numpy's ValueError
    with pytest.raises(DimensionMismatch, match=message):
        validate(items)


def test_validated_arrays_are_private_and_read_only():
    # validating from an (m, d, d) ndarray copies it: mutating the input
    # afterwards changes nothing, and every array the records hold is read-only
    source = random_ensemble(4, (2, 1, 1), seed=3)
    stack, priors = np.array(source.states), np.array(source.priors)
    ens = validate_ensemble(priors, stack)
    def held():
        return (ens.priors, np.asarray(ens.states), ens.weighted_states(), ens.psi)

    before = [arr.copy() for arr in held()]
    stack[:] = 0.0
    priors[:] = 0.0
    for arr, kept in zip(held(), before):
        assert np.array_equal(arr, kept)
    # the stack of p_i rho_i is formed on request from these, not held beside them
    assert [f.name for f in dataclasses.fields(ens)] == ["dim", "priors", "states", "rank_signature", "psi"]
    meas = pgm(ens)
    for arr in (ens.priors, ens.states, ens.weighted_states(), ens.psi, *meas.projectors, meas._basis):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


@pytest.mark.parametrize(
    "dim, sig", [(2, (1, 1)), (5, (2, 2, 1)), (8, (1,) * 8), (9, (3, 2, 2, 1, 1))]
)
def test_stacked_validation_matches_per_state_loops(dim, sig):
    # validation builds psi and the weighted states from (m, d, d) stacks; the
    # per-state loops here do the same arithmetic, so they agree to the bit
    ens = random_ensemble(dim, sig, seed=dim)
    psi = []
    for p, rho in zip(ens.priors, ens.states):
        lam, vecs = np.linalg.eigh(herm(rho))
        keep = rank_cutoff_mask(lam)
        psi.append(vecs[:, keep] * np.sqrt(p * np.clip(lam[keep], 0.0, None)))
    assert np.array_equal(ens.psi, np.hstack(psi))
    weighted = [p * rho for p, rho in zip(ens.priors, ens.states)]
    assert np.array_equal(ens.weighted_states(), weighted)


def _block_rotated(psi, sig, seed):
    """Psi with each column block times a Haar unitary: another factor of the same p_i rho_i."""
    rng = np.random.default_rng(seed)
    out = np.array(psi)
    for s in _signature_slices(sig):
        out[:, s] = out[:, s] @ haar_unitary(s.stop - s.start, rng)
    return out


def _factor_cases():
    for kind, sig in (("pure", (1,) * 8), ("pairs", (2,) * 4), ("mixed", (2, 2, 1))):
        yield pytest.param(random_ensemble(sum(sig), sig, seed=sum(sig)).psi, sig, id=kind)
    # the pre-image's own factors, of a stiff near-collinear Q
    pre_image = inverse_map(near_collinear(4, (1,) * 4, 0.01, seed=4))[0]
    yield pytest.param(pre_image.psi, (1,) * 4, id="near-collinear-pre-image")


@pytest.mark.parametrize("psi, sig", _factor_cases())
def test_from_factors_matches_validation(psi, sig):
    # the same p_i rho_i, once built from factors and once validated as
    # outside input: same ranks, priors and states, and Psi Psi^dag = sigma;
    # any factor will do, so the blocks are rotated and F scaled first
    f = 3.0 * _block_rotated(psi, sig, seed=len(sig))
    built = _from_factors(f, sig, DEFAULT_TOL)
    total = float(np.linalg.norm(f)) ** 2
    weighted = [f[:, s] @ f[:, s].conj().T / total for s in _signature_slices(sig)]
    priors = [float(np.trace(w).real) for w in weighted]
    checked = validate_ensemble(np.array(priors) / sum(priors), [w / p for w, p in zip(weighted, priors)])
    assert built.rank_signature == checked.rank_signature == sig
    assert np.abs(built.priors - checked.priors).max() <= 1e-15
    for got, want in zip(built.states, checked.states):
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    sigma = average_state(checked)
    assert np.abs(built.psi @ built.psi.conj().T - sigma).max() <= 1e-15
    assert np.abs(sum(built.weighted_states()) - sigma).max() <= 1e-15


def test_from_factors_refuses_what_validation_refuses():
    # a rank-deficient block, one below the tol_rank cutoff on its squared
    # singular values (s_2 / s_1 = 2e-6, so (s_2 / s_1)^2 < 1e-8 < s_2 / s_1)
    # and dependent blocks raise the classes validate_ensemble raises on the
    # same p_i rho_i; so does a non-finite factor
    psi = random_ensemble(4, (2, 1, 1), seed=6).psi
    deficient = np.array(psi)
    deficient[:, 1] = 2.0 * deficient[:, 0]
    below_cutoff = np.array(deficient)
    below_cutoff[:, 1] += 1e-5 * psi[:, 1]
    dependent = np.array(psi)
    dependent[:, 3] = deficient[:, 0] + deficient[:, 2]
    cases = ((deficient, RankSumMismatch), (below_cutoff, RankSumMismatch), (dependent, NotLinearlyIndependent))
    for f, error in cases:
        weighted = [f[:, s] @ f[:, s].conj().T for s in _signature_slices((2, 1, 1))]
        priors = np.array([np.trace(w).real for w in weighted])
        with pytest.raises(error):
            validate_ensemble(priors / priors.sum(), [w / p for w, p in zip(weighted, priors)])
        with pytest.raises(error):
            _from_factors(f, (2, 1, 1), DEFAULT_TOL)
    broken = np.array(psi)
    broken[0, 2] = np.nan
    with pytest.raises(StateNotDensity, match=r"^state 1 has non-finite entries$"):
        _from_factors(broken, (2, 1, 1), DEFAULT_TOL)


def test_stacked_hermiticity_rule_matches_the_one_matrix_check():
    # defects straddle tol_herm * max(1, max|M|), with entries below and above 1
    rng = np.random.default_rng(5)
    stack = []
    for scale in (0.5, 1.0, 30.0):
        for defect in (0.5, 0.99, 1.01, 2.0):
            mat = scale * herm(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            mat[0, 3] += defect * DEFAULT_TOL.tol_herm * max(1.0, float(np.abs(mat).max()))
            stack.append(mat)
    stack = np.array(stack)
    for idx, mat in enumerate(stack):
        try:
            check_hermitian(mat)
        except ValueError as exc:
            with pytest.raises(NotPSD, match=f"^element 0: {exc}$"):
                _hermitian_part(stack[idx:], "element", NotPSD, DEFAULT_TOL)
        else:
            part = _hermitian_part(stack[idx : idx + 1], "element", NotPSD, DEFAULT_TOL)
            assert np.array_equal(part[0], herm(mat))


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


def test_nan_basis_fails_the_unitarity_check():
    # ||V^dag V - Id||_F of a NaN basis is NaN, which passes every "> bound" test
    nan = np.full((2, 2), np.nan)
    with pytest.raises(NotComplete, match="unitarity"):
        _from_basis(nan, (1, 1), NotComplete, DEFAULT_TOL)
    with pytest.raises(NotProjectiveAfterPGM, match="unitarity"):
        _measurement(nan, random_ensemble(2, (1, 1), seed=3), DEFAULT_TOL)


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

    def test_basis_spans_each_projector(self):
        # the column basis comes from the projectors' range eigenvectors
        rng = np.random.default_rng(8)
        u = haar_unitary(6, rng)
        sig = (3, 1, 2)
        meas = validate_projective([herm(u[:, s] @ u[:, s].conj().T) for s in _signature_slices(sig)])
        basis = meas._basis
        assert meas.rank_signature == sig and not basis.flags.writeable
        assert np.abs(basis.conj().T @ basis - np.eye(6)).max() <= 1e-14
        for s, proj in zip(_signature_slices(sig), meas.projectors):
            assert np.abs(basis[:, s] @ basis[:, s].conj().T - proj).max() <= 1e-14

    def test_overlapping_ranges_fail_the_basis_gate(self):
        # diagonal near-projectors, each within tol_recon = 0.35 of idempotent,
        # summing to the identity; pairs (0, 3) and (1, 2) overlap by 0.36, and
        # the four ranges, one eigenvalue above 1/2 each, are no basis of C^2
        x = [0.6, -0.2, 0.0, 0.6]
        y = [0.0, 0.6, 0.6, -0.2]
        elements = [np.diag([a, b]) for a, b in zip(x, y)]
        with pytest.raises(NotComplete, match=r"^ranks \(1, 1, 1, 1\) sum to 4, but the basis is 2 x 4$"):
            validate_projective(elements, Tolerances(tol_recon=0.35))

    def test_ranks_count_eigenvalues_above_one_half(self):
        # within tol_recon = 1e-6 of a projector, the 5e-7 eigenvalue is no range
        # direction: ranks (1, 1) and the identity as basis, not (2, 1) and a 2 x 3
        meas = validate_projective([np.diag([1.0, 5e-7]), np.diag([0.0, 1.0])], Tolerances(tol_recon=1e-6))
        assert meas.rank_signature == (1, 1)
        assert np.array_equal(meas._basis, np.eye(2))

    def test_hermiticity_is_the_package_rule(self):
        # ||P - P^dag||_F = 1.4e-9 is within tol_recon, but the entry defect
        # 1e-9 exceeds tol_herm = 1e-10, the rule every validator applies
        proj = np.diag([1.0, 0.0]).astype(complex)
        proj[0, 1] = 1e-9
        with pytest.raises(NotProjector, match="^element 0: matrix is not Hermitian"):
            validate_projective([proj, np.diag([0.0, 1.0])])


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
        # the pairing reads the outcome count, not a first element
        with pytest.raises(DimensionMismatch, match="0 outcomes"):
            success_probability(ens, GeneralPOVM(dim=2, elements=()))
        # and the elements' shape, not a hand-built dim field that contradicts it
        ens3 = random_ensemble(3, (1, 1, 1), seed=0)
        with pytest.raises(DimensionMismatch, match=r"element shapes \[\(2, 2\)\], dim 3\) does not match"):
            success_probability(ens3, GeneralPOVM(dim=3, elements=(np.eye(2),) * 3))
        with pytest.raises(DimensionMismatch):
            success_probability(ens, GeneralPOVM(dim=3, elements=(np.eye(2) / 2,) * 2))
        # every element is checked to be square of the ensemble's dim before
        # the elements are stacked: rows that differ, or widths 2, 4 and 3
        # that total m d columns but misalign the blocks
        with pytest.raises(DimensionMismatch, match=r"element shapes \[\(2, 2\), \(3, 3\)\]"):
            success_probability(ens3, GeneralPOVM(dim=3, elements=(np.eye(3), np.eye(2), np.eye(3))))
        widths = (np.eye(3, 2), np.eye(3, 4), np.eye(3))
        with pytest.raises(DimensionMismatch, match=r"element shapes \[\(3, 2\), \(3, 3\), \(3, 4\)\]"):
            certify_full(ens3, GeneralPOVM(dim=3, elements=widths))


PAIRING_SIGNATURES = [(1,) * d for d in range(2, 17)] + [
    (2,) * (d // 2) + (1,) * (d % 2) for d in range(3, 17)
] + [(1,) * 64, (2,) * 32]


@pytest.mark.parametrize("sig", PAIRING_SIGNATURES, ids=lambda sig: f"d{sum(sig)}-m{len(sig)}")
def test_factor_pairing_matches_per_outcome_loops(sig):
    # _pair reads K, the detection weights and the stationarity residual off
    # the measurement's factors, (V_i, V_i) for projectors and (E_i, I) for a
    # general POVM; the references loop over the outcomes' elements. K and
    # the weights (entries and traces of size <= 1) agree within 1e-15. The
    # residual agrees within 1e-13 relative: at the PGM it is a cancellation
    # down to 2e-4 against entries of size 1, which reads at most 2.6e-14
    # relative here (2.1e-14 on the (m, d, d) product stack it replaced)
    ens = random_ensemble(sum(sig), sig, seed=900 + sum(sig))
    built = pgm(ens)
    haar = _measurement(haar_unitary(ens.dim, np.random.default_rng(sum(sig))), ens, DEFAULT_TOL)
    povm = validate_povm([0.9 * p + 0.1 / ens.m * np.eye(ens.dim) for p in built.projectors])
    outside = [validate_projective(meas.projectors) for meas in (built, haar)]
    for meas in (built, haar, *outside, povm):
        elements = measurement_elements(meas)
        pairing = _pair(ens, meas)
        assert np.abs(pairing.k - outcome_sum(ens, elements)).max() <= 1e-15
        assert np.abs(np.subtract(pairing.weights, outcome_weights(ens, elements))).max() <= 1e-15
        want = column_stationarity(ens, elements)
        assert abs(certify_full(ens, meas).stationarity_residual - want) <= 1e-13 * want


def test_projective_measurements_never_form_their_projectors(monkeypatch):
    # a projective measurement is its column basis: solving, both certifiers,
    # both maps, the detection profile and the round trip never read the
    # projector stack, which only serialization derives
    ens = random_ensemble(4, (2, 1, 1), seed=17)
    outside = validate_projective(pgm(ens).projectors)

    def refuse(self):
        raise AssertionError("projector stack formed")

    monkeypatch.setattr(ProjectiveMeasurement, "projectors", property(refuse))
    result = solve(ens)
    assert result.certified
    for meas in (result.measurement, pgm(ens), outside):
        assert certify_full(ens, meas).verdict == certify_simplified(ens, meas).verdict
        assert len(detection_profile(ens, meas)) == ens.m
    pre_image, measurement, report, _ = inverse_map(ens)
    image = forward_map(pre_image, measurement, report)
    assert np.abs(image.weighted_states() - ens.weighted_states()).max() <= 1e-12
    forward_map(ens, result.measurement, result.report)
    report = roundtrip_check(ens, solve)
    assert max(report.p_deviation, report.q_deviation) <= 1e-10
    with pytest.raises(AssertionError, match="projector stack"):
        measurement_to_doc(result.measurement)


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


def test_array_records_compare_and_hash_by_identity():
    # records holding arrays have identity equality: comparing, hashing and
    # set membership never reach an ndarray's elementwise ==
    ens = random_ensemble(4, (2, 1, 1), seed=1)
    twin = random_ensemble(4, (2, 1, 1), seed=1)
    result = solve(ens)
    povm = GeneralPOVM(dim=4, elements=result.measurement.projectors)
    space = _horizontal(ens.rank_signature)
    records = [ens, twin, result, result.measurement, result.report, povm, space]
    for record in records:
        assert record == record
        assert hash(record) == hash(record)
    assert ens != twin
    assert len(set(records)) == len(records)
    assert ens in {ens} and twin not in {ens}
