import numpy as np
import pytest

from conftest import angle_measurement, near_collinear, pure_pair, qubit_angle_oracle
from medli import (
    DimensionMismatch,
    NotOptimalPair,
    SolverFailed,
    dual_operator,
    forward_map,
    inverse_map,
    pgm,
    random_ensemble,
    roundtrip_check,
    solve,
    stationarity_residual,
    validate_ensemble,
    validate_projective,
)
from medli.linalg import DEFAULT_TOL, haar_unitary, herm, rank_eps
from medli.pgm import _polar, _signature_slices
from reference import is_psd

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
        for x, delta, r in zip(arts.x_ops, arts.deltas, ens.rank_signature):
            assert rank_eps(x) == r
            assert is_psd(x)
            assert is_psd(arts.sigma_sqrt - x)
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
