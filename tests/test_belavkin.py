import numpy as np
import pytest

from conftest import (
    angle_measurement,
    near_collinear,
    pure_pair,
    qubit_angle_oracle,
    range_projectors,
)
from medli import (
    DimensionMismatch,
    NotOptimalPair,
    SolverFailed,
    certify_full,
    certify_simplified,
    dual_operator,
    forward_map,
    inverse_map,
    pgm,
    random_ensemble,
    roundtrip_check,
    solve,
    stationarity_residual,
    validate_ensemble,
    validate_povm,
    validate_projective,
)
from medli.linalg import DEFAULT_TOL, haar_unitary, herm, rank_eps
from medli.pgm import _measurement, _polar, _signature_slices
from reference import block_decompose, is_psd, pairwise_stationarity

ORTH = validate_ensemble([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
ORTH_MEAS = validate_projective([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


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


class TestDualOperator:
    def test_orthogonal_pair(self):
        cert = dual_operator(ORTH, ORTH_MEAS)
        np.testing.assert_allclose(cert.z, np.eye(2) / 2, atol=1e-14)
        assert cert.dual_value == pytest.approx(1.0, abs=1e-14)
        assert cert.herm_residual < 1e-14
        assert min(cert.slack_min_eigs) >= -1e-14

    def test_arity_guard(self):
        lone = validate_projective([np.eye(2)])
        with pytest.raises(DimensionMismatch):
            dual_operator(ORTH, lone)

    def test_pi6_with_oracle_measurement(self):
        ens = pure_pair(np.pi / 6)
        _, phi = qubit_angle_oracle(ens)
        cert = dual_operator(ens, angle_measurement(phi))
        assert cert.dual_value == pytest.approx(0.75, abs=1e-6)
        assert min(cert.slack_min_eigs) >= -1e-9


class TestStationarityResidual:
    def test_general_povm_is_read_pairwise(self):
        # a non-projective POVM carries no frame: certify_full takes the pairwise products
        ens = random_ensemble(4, (2, 1, 1), seed=31)
        povm = validate_povm([0.9 * p + 0.1 / 3 * np.eye(4) for p in pgm(ens).projectors])
        want = pairwise_stationarity(ens, povm.elements)
        assert want > 1e-3
        assert certify_full(ens, povm).stationarity_residual == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("sig", [(1,) * 6, (2, 2, 1, 1)])
    def test_outside_projectors_match_the_built_measurement(self, sig):
        # validate_projective keeps no unitary, so the same projectors are read
        # pairwise there and from the frame when medli built them
        ens = random_ensemble(sum(sig), sig, seed=41)
        haar = haar_unitary(ens.dim, np.random.default_rng(41))
        for built in (pgm(ens), _measurement(haar, ens, DEFAULT_TOL)):
            outside = validate_projective(built.projectors)
            assert outside.unitary is None and built.unitary is not None
            frame = stationarity_residual(ens, built)
            assert abs(stationarity_residual(ens, outside) - frame) <= 1e-14
            for certify in (certify_full, certify_simplified):
                outside_report = certify(ens, outside)
                assert abs(outside_report.stationarity_residual - frame) <= 1e-14
                assert outside_report.verdict == certify(ens, built).verdict


class TestForwardMap:
    def test_orthogonal_pair_is_fixed(self):
        cert = dual_operator(ORTH, ORTH_MEAS)
        derived = forward_map(ORTH, ORTH_MEAS, cert)
        for a, b in zip(derived.weighted_states(), ORTH.weighted_states()):
            assert np.abs(a - b).max() < 1e-12

    def test_rejects_non_optimal_pair(self):
        ens = random_ensemble(3, (1, 1, 1), seed=2)
        meas = rank_matched_random_measurement(ens, seed=3)
        cert = dual_operator(ens, meas)
        with pytest.raises(NotOptimalPair):
            forward_map(ens, meas, cert)

    def test_rejects_stationary_pair_with_infeasible_dual(self):
        # swapped projectors: every Pi_j (p_j rho_j - p_i rho_i) Pi_i vanishes,
        # but K = 0, so Z = 0 and Z - p_i rho_i has eigenvalue -1/2
        swapped = validate_projective([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
        assert stationarity_residual(ORTH, swapped) == 0.0
        cert = dual_operator(ORTH, swapped)
        assert min(cert.slack_min_eigs) == pytest.approx(-0.5, abs=1e-15)
        with pytest.raises(NotOptimalPair, match="dual slack"):
            forward_map(ORTH, swapped, cert)

    def test_pi4_symmetry_and_derived_ensemble_properties(self):
        ens = pure_pair(np.pi / 4)
        result = solve(ens)
        assert result.certified
        derived = forward_map(ens, result.measurement, result.certificate)
        # symmetric instance: equal derived priors
        assert derived.priors[0] == pytest.approx(derived.priors[1], abs=1e-9)
        for sigma in derived.states:
            assert is_psd(sigma)
            assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-12)
        # range inclusion: the range projector of p_i rho_i fixes q_i sigma_i
        for rho, w in zip(ens.states, derived.weighted_states()):
            vals, vecs = np.linalg.eigh(rho)
            keep = vecs[:, vals > 1e-10]
            range_proj = keep @ keep.conj().T
            assert np.linalg.norm(w - range_proj @ w @ range_proj) < 1e-9


class TestInverseMap:
    def test_orthogonal_pair_identity(self):
        pre, meas, cert, _ = inverse_map(ORTH)
        for a, b in zip(pre.weighted_states(), ORTH.weighted_states()):
            assert np.abs(a - b).max() < 1e-12
        np.testing.assert_allclose(meas.projectors[0], np.diag([1.0, 0.0]), atol=1e-12)
        assert cert.dual_value == pytest.approx(1.0, abs=1e-12)

    def test_pi4_range_equality(self):
        ens = pure_pair(np.pi / 4)
        pre, _, _, _ = inverse_map(ens)
        for rho, w in zip(pre.states, ens.weighted_states()):
            vals, vecs = np.linalg.eigh(herm(rho))
            keep = vecs[:, vals > 1e-10]
            range_proj = keep @ keep.conj().T
            assert np.linalg.norm(w - range_proj @ w @ range_proj) < 1e-9

    def test_random_d5_self_certification(self):
        ens = random_ensemble(5, (2, 2, 1), seed=11)
        pre, meas, cert, _ = inverse_map(ens)
        assert min(cert.slack_min_eigs) >= -1e-9
        assert stationarity_residual(pre, meas) < 1e-8

    def test_artifacts_invariants(self):
        ens = random_ensemble(5, (2, 2, 1), seed=4)
        pre, meas, cert, arts = inverse_map(ens)
        total = sum(float(np.trace(x).real) for x in arts.x_ops)
        for x, proj, r in zip(arts.x_ops, meas.projectors, ens.rank_signature):
            assert rank_eps(x) == r
            assert is_psd(x)
            assert is_psd(arts.sigma_sqrt - x)
            # the Schur complement Delta_i, on the kernel of Pi_i, is PD
            delta = block_decompose(arts.sigma_sqrt - x, proj).c_block
            assert np.linalg.eigvalsh(delta)[0] > 0
        np.testing.assert_allclose(cert.z, arts.sigma_sqrt / total, atol=1e-14)
        combined = sum(pre.weighted_states())
        assert np.trace(combined).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["random", "near-collinear"])
    def test_range_blocks_interlace(self, kind):
        # each A = G[i, i] is a principal block of G, so Cauchy interlacing
        # keeps it above the smallest eigenvalue of G, which _polar gates
        if kind == "random":
            cases = [
                random_ensemble(d, sig, seed=d)
                for d in range(2, 17)
                for sig in ((1,) * d, (2,) * (d // 2 - 1) + (1,) * (2 + d % 2))
            ]
        else:
            # down to the noise at which the sigma gate starts to refuse
            stiff = [(d, noise) for d in (4, 6, 8) for noise in (3e-2, 3e-3)] + [(4, 3e-4), (6, 1e-3)]
            cases = [near_collinear(d, (1,) * d, noise, seed=d) for d, noise in stiff]
        for ens in cases:
            _, g, _ = _polar(ens, DEFAULT_TOL)
            low = np.linalg.eigvalsh(g)[0]
            for block in _signature_slices(ens.rank_signature):
                assert np.linalg.eigvalsh(g[block, block])[0] >= low - 1e-15


class TestRoundtrip:
    def test_orthogonal_pair_exact(self):
        report = roundtrip_check(ORTH, solve)
        assert report.p_deviation < 1e-10
        assert report.q_deviation < 1e-10

    def test_random_d3_pure(self):
        ens = random_ensemble(3, (1, 1, 1), seed=21)
        report = roundtrip_check(ens, solve)
        assert report.p_deviation < 1e-7
        assert report.q_deviation < 1e-7

    def test_random_d4_mixed(self):
        ens = random_ensemble(4, (2, 1, 1), seed=22)
        report = roundtrip_check(ens, solve)
        assert report.p_deviation < 1e-7
        assert report.q_deviation < 1e-7

    def test_uncertified_solver_rejected(self):
        class Stub:
            certified = False

        with pytest.raises(SolverFailed):
            roundtrip_check(ORTH, lambda e: Stub())


@pytest.mark.parametrize("seed", range(4))
def test_optimal_measurement_equals_pgm_of_image(seed):
    sig = [(1, 1), (2, 1), (1, 1, 1), (2, 2)][seed % 4]
    ens = random_ensemble(sum(sig), sig, seed=40 + seed)
    result = solve(ens)
    assert result.certified
    derived = forward_map(ens, result.measurement, result.certificate)
    image_pgm = pgm(derived)
    for a, b in zip(image_pgm.projectors, result.measurement.projectors):
        assert np.abs(a - b).max() <= 1e-8


SUPPORT_CASES = [
    *(("random", 12, (3, 2, 4, 1, 2), seed) for seed in range(3)),
    ("random", 16, (2,) * 8, 0),
    ("near_collinear", 8, (2, 2, 2, 2), 1),
]


@pytest.mark.parametrize("kind,dim,sig,seed", SUPPORT_CASES)
def test_both_maps_keep_each_state_support(kind, dim, sig, seed):
    # at an optimum Z Pi_i = p_i rho_i Pi_i, so sigma_i ~ Z Pi_i Z has range(rho_i)
    if kind == "random":
        ens = random_ensemble(dim, sig, seed=seed)
    else:
        ens = near_collinear(dim, sig, 0.05, seed)
    result = solve(ens)
    assert result.certified
    derived = forward_map(ens, result.measurement, result.certificate)
    pre_image, _, _, _ = inverse_map(ens)
    want = range_projectors(ens)
    for image in (derived, pre_image):
        for a, b in zip(range_projectors(image), want):
            assert np.linalg.norm(a - b) <= 1e-9
