import dataclasses

import numpy as np
import pytest

import medli
from conftest import (
    angle_measurement,
    near_collinear,
    pure_pair,
    qubit_angle_oracle,
    range_projectors,
)
from medli import (
    OPTIMAL,
    DimensionMismatch,
    NotOptimalPair,
    SolverFailed,
    certify_full,
    certify_simplified,
    detection_profile,
    forward_map,
    inverse_map,
    pgm,
    random_ensemble,
    roundtrip_check,
    solve,
    validate_ensemble,
    validate_povm,
    validate_projective,
)
from medli.linalg import DEFAULT_TOL, haar_unitary, herm
from medli.ensembles import _layout
from medli.pgm import _measurement, _polar
from reference import block_decompose, column_stationarity, is_psd, paper_x_ops, rank_eps

ORTH = validate_ensemble([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
ORTH_MEAS = validate_projective([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
NUMBERS = [f.name for f in dataclasses.fields(medli.CertificationReport) if f.name not in ("verdict", "z")]


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
        cert = certify_full(ORTH, ORTH_MEAS)
        np.testing.assert_allclose(cert.z, np.eye(2) / 2, atol=1e-14)
        assert cert.dual_value == pytest.approx(1.0, abs=1e-14)
        assert cert.hermiticity_residual < 1e-14
        assert cert.min_slack_eig >= -1e-14

    def test_arity_guard(self):
        lone = validate_projective([np.eye(2)])
        with pytest.raises(DimensionMismatch):
            certify_full(ORTH, lone)

    def test_pi6_with_oracle_measurement(self):
        ens = pure_pair(np.pi / 6)
        _, phi = qubit_angle_oracle(ens)
        cert = certify_full(ens, angle_measurement(phi))
        assert cert.dual_value == pytest.approx(0.75, abs=1e-6)
        assert cert.min_slack_eig >= -1e-9


class TestStationarityResidual:
    def test_general_povm_is_read_pairwise(self):
        # a non-projective POVM runs the same batched formula as projectors,
        # checked against a loop over outcomes that forms K itself
        ens = random_ensemble(4, (2, 1, 1), seed=31)
        povm = validate_povm([0.9 * p + 0.1 / 3 * np.eye(4) for p in pgm(ens).projectors])
        want = column_stationarity(ens, povm.elements)
        assert want > 1e-3
        assert certify_full(ens, povm).stationarity_residual == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("sig", [(1,) * 6, (2, 2, 1, 1)])
    def test_outside_projectors_match_the_built_measurement(self, monkeypatch, sig):
        # a measurement medli built and the same projectors from
        # validate_projective run the same code, the one _pair, on two bases
        # of the same projectors (the built unitary and validation's range
        # eigenvectors): equal verdicts, every number equal to round-off; each
        # pair is paired once, its report held for the second certifier
        paired = []

        def spy(ensemble, measurement, _pair=medli.ensembles._pair):
            paired.append(measurement)
            return _pair(ensemble, measurement)

        monkeypatch.setattr(medli.certify, "_pair", spy)
        ens = random_ensemble(sum(sig), sig, seed=41)
        haar = haar_unitary(ens.dim, np.random.default_rng(41))
        for built in (pgm(ens), _measurement(haar, ens, DEFAULT_TOL)):
            outside = validate_projective(built.projectors)
            paired.clear()
            for certify in (certify_full, certify_simplified):
                reports = [certify(ens, meas) for meas in (outside, built)]
                assert reports[0].verdict == reports[1].verdict
                for name in NUMBERS:
                    assert abs(getattr(reports[0], name) - getattr(reports[1], name)) <= 1e-14
            assert paired == [outside, built]


class TestForwardMap:
    def test_orthogonal_pair_is_fixed(self):
        derived = forward_map(ORTH, ORTH_MEAS, certify_full(ORTH, ORTH_MEAS))
        for a, b in zip(derived.weighted_states(), ORTH.weighted_states()):
            assert np.abs(a - b).max() < 1e-12

    def test_rejects_non_optimal_pair(self):
        ens = random_ensemble(3, (1, 1, 1), seed=2)
        meas = rank_matched_random_measurement(ens, seed=3)
        report = certify_full(ens, meas)
        with pytest.raises(NotOptimalPair, match="stationarity"):
            forward_map(ens, meas, report)

    def test_rejects_stationary_pair_with_infeasible_dual(self):
        # swapped projectors: every Pi_j (p_j rho_j - p_i rho_i) Pi_i vanishes,
        # but K = 0, so Z = 0 and Z - p_i rho_i has eigenvalue -1/2
        swapped = validate_projective([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
        report = certify_full(ORTH, swapped)
        assert report.stationarity_residual == 0.0
        assert report.min_slack_eig == pytest.approx(-0.5, abs=1e-15)
        with pytest.raises(NotOptimalPair, match="dual slack"):
            forward_map(ORTH, swapped, report)

    def test_pi4_symmetry_and_derived_ensemble_properties(self):
        ens = pure_pair(np.pi / 4)
        result = solve(ens)
        assert result.certified
        derived = forward_map(ens, result.measurement, result.report)
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

    @pytest.mark.parametrize("sig", [(1,) * 6, (2, 2, 1, 1)])
    def test_outside_projectors_map_like_the_built_measurement(self, sig):
        # the image reads V through the rank-matched measurement: the PGM medli
        # built, its projectors validated from outside, and the same projectors
        # as a general POVM give the same image
        q = random_ensemble(sum(sig), sig, seed=51)
        pre_image, built, report, _ = inverse_map(q)
        image = forward_map(pre_image, built, report)
        for outside in (validate_projective(built.projectors), validate_povm(built.projectors)):
            other = forward_map(pre_image, outside, report)
            assert other.rank_signature == image.rank_signature
            assert np.abs(other.weighted_states() - image.weighted_states()).max() <= 1e-14
            assert np.abs(other.priors - image.priors).max() <= 1e-14


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
        _, _, report, _ = inverse_map(ens)
        assert report.verdict == OPTIMAL
        assert report.min_slack_eig >= -1e-9
        assert report.stationarity_residual < 1e-8

    def test_artifacts_invariants(self):
        ens = random_ensemble(5, (2, 2, 1), seed=4)
        pre, meas, cert, sigma_sqrt = inverse_map(ens)
        x_ops = paper_x_ops(pre, cert, sigma_sqrt)
        total = sum(float(np.trace(x).real) for x in x_ops)
        for x, proj, r in zip(x_ops, meas.projectors, ens.rank_signature):
            assert rank_eps(x) == r
            assert is_psd(x)
            assert is_psd(sigma_sqrt - x)
            # the Schur complement Delta_i, on the kernel of Pi_i, is PD
            delta = block_decompose(sigma_sqrt - x, proj).c_block
            assert np.linalg.eigvalsh(delta)[0] > 0
        np.testing.assert_allclose(cert.z, sigma_sqrt / total, atol=1e-14)
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
            # the last five have cond(sigma) 2.3e10 to 5.2e11, inside COND_LIMIT
            stiff = [(d, noise) for d in (4, 6, 8) for noise in (3e-2, 3e-3)] + [(4, 3e-4), (6, 1e-3)]
            stiff += [(4, 1e-5), (6, 3e-5), (8, 1e-4), (12, 3e-4), (16, 3e-4)]
            cases = [near_collinear(d, (1,) * d, noise, seed=d) for d, noise in stiff]
        for ens in cases:
            _, g, _ = _polar(ens)
            low = np.linalg.eigvalsh(g)[0]
            for block in _layout(ens.rank_signature).slices:
                assert np.linalg.eigvalsh(g[block, block])[0] >= low - 1e-15


class TestRoundtrip:
    def test_orthogonal_pair_exact(self):
        report = roundtrip_check(ORTH)
        assert report.p_deviation < 1e-10
        assert report.q_deviation < 1e-10

    def test_random_d3_pure(self):
        ens = random_ensemble(3, (1, 1, 1), seed=21)
        report = roundtrip_check(ens)
        assert report.p_deviation < 1e-7
        assert report.q_deviation < 1e-7

    def test_random_d4_mixed(self):
        ens = random_ensemble(4, (2, 1, 1), seed=22)
        report = roundtrip_check(ens)
        assert report.p_deviation < 1e-7
        assert report.q_deviation < 1e-7

    def test_uncertified_solver_rejected(self):
        # an impossible positivity bar leaves the solve uncertified
        with pytest.raises(SolverFailed):
            roundtrip_check(ORTH, DEFAULT_TOL.replace(tol_psd=0.6))


@pytest.mark.parametrize("seed", range(4))
def test_optimal_measurement_equals_pgm_of_image(seed):
    sig = [(1, 1), (2, 1), (1, 1, 1), (2, 2)][seed % 4]
    ens = random_ensemble(sum(sig), sig, seed=40 + seed)
    result = solve(ens)
    assert result.certified
    derived = forward_map(ens, result.measurement, result.report)
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
    derived = forward_map(ens, result.measurement, result.report)
    pre_image, _, _, _ = inverse_map(ens)
    want = range_projectors(ens)
    for image in (derived, pre_image):
        for a, b in zip(range_projectors(image), want):
            assert np.linalg.norm(a - b) <= 1e-9


def _per_state_image(factors, slices):
    """Priors, states and p_i rho_i from factor blocks F_i, one state at a time.

    The arithmetic of ``_from_factors``: ||F_i||^2 sums F_i's squared column
    norms, and the state is herm(F_i F_i^dag) / ||F_i||^2.
    """
    col2 = (factors.real**2 + factors.imag**2).sum(axis=0)
    norms2 = [float(col2[s].sum()) for s in slices]
    total = float(np.sum(norms2))
    priors = [n / total for n in norms2]
    states = [herm(factors[:, s] @ factors[:, s].conj().T) / n for s, n in zip(slices, norms2)]
    return priors, states, [p * rho for p, rho in zip(priors, states)], total


@pytest.mark.parametrize(
    "dim, sig", [(2, (1, 1)), (5, (2, 2, 1)), (8, (1,) * 8), (9, (3, 2, 2, 1, 1))]
)
def test_stacked_maps_match_per_state_loops(dim, sig):
    # both maps build their output from factors with one batched call per
    # run of equal ranks, and the detection weights are read off the measurement's
    # columns; the per-state loops here do the same arithmetic, so every
    # number agrees to the bit
    q = random_ensemble(dim, sig, seed=dim)
    w, frame, sigma_sqrt = _polar(q)
    slices = _layout(sig).slices
    # F = W G blockdiag(L_i^{-dag}), A_i = G[i, i] = L_i L_i^dag
    whitened = [np.linalg.solve(np.linalg.cholesky(frame[s, s]), frame[s]).conj().T for s in slices]
    factors = w @ np.hstack(whitened)
    priors, states, weighted, total = _per_state_image(factors, slices)
    pre_image, measurement, report, _ = inverse_map(q)
    projectors = [herm(w[:, s] @ w[:, s].conj().T) for s in slices]
    assert np.array_equal(measurement.projectors, projectors)
    assert pre_image.priors.tolist() == priors
    assert np.array_equal(pre_image.states, states)
    assert np.array_equal(pre_image.weighted_states(), weighted)
    assert np.array_equal(pre_image.psi, factors / np.sqrt(total))
    # Z is sym(K), K = (W V) V^dag with column a of W V the weighted state of
    # a's block times w_a; the paper's sigma^{1/2} / sum_j Tr X_j equals it
    # to round-off
    labels = np.repeat(np.arange(len(sig)), sig)
    wv = np.stack([pre_image.weighted_states()[label] @ w[:, a] for a, label in enumerate(labels)], axis=1)
    assert np.array_equal(report.z, herm(wv @ w.conj().T))
    np.testing.assert_allclose(report.z, sigma_sqrt / total, rtol=0, atol=1e-14)

    z = report.z
    derived = forward_map(pre_image, measurement, report)
    priors, states, weighted, _ = _per_state_image(z @ w, slices)
    assert derived.priors.tolist() == priors
    assert np.array_equal(derived.states, states)
    assert np.array_equal(derived.weighted_states(), weighted)

    # Tr(W_i Pi_i) = Re sum_a v_a^dag W_i v_a over the PGM's columns a in block i
    v = pgm(q)._basis
    wv = np.stack([q.weighted_states()[label] @ v[:, a] for a, label in enumerate(labels)], axis=1)
    columns = (v.conj() * wv).sum(axis=0).real
    assert detection_profile(q, pgm(q)) == [float(columns[s].sum()) for s in slices]


@pytest.mark.parametrize(
    "dim, sig", [(2, (1, 1)), (5, (2, 2, 1)), (8, (1,) * 8), (9, (3, 2, 2, 1, 1)), (16, (2,) * 8)]
)
def test_factored_maps_match_the_paper_formulas(dim, sig):
    # the pre-image's X_i is the paper's G[:, i] A_i^{-1} G[i, :] rotated by
    # the PGM unitary, and the image's q_i sigma_i is Z Pi_i Z / Tr(Z^2)
    q = random_ensemble(dim, sig, seed=dim)
    w, frame, _ = _polar(q)
    pre_image, measurement, report, sigma_sqrt = inverse_map(q)
    for s, x in zip(_layout(sig).slices, paper_x_ops(pre_image, report, sigma_sqrt)):
        col = frame[:, s]
        want = w @ (col @ np.linalg.solve(col[s], col.conj().T)) @ w.conj().T
        assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
    z = report.z
    derived = forward_map(pre_image, measurement, report)
    z2 = float(np.trace(z @ z).real)
    for image, proj in zip(derived.weighted_states(), measurement.projectors):
        want = z @ proj @ z / z2
        assert np.linalg.norm(image - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("sig", [(1,) * 6, (2, 2, 1, 1)])
def test_inverse_map_pairs_once_and_forward_map_never(monkeypatch, sig):
    # the inverse map's report reads one pairing of the pre-image with its
    # measurement, and the forward map reads the report it is given
    paired = []

    def spy(ensemble, measurement, _pair=medli.ensembles._pair):
        paired.append((ensemble, measurement))
        return _pair(ensemble, measurement)

    monkeypatch.setattr(medli.certify, "_pair", spy)
    q = random_ensemble(sum(sig), sig, seed=61)
    pre_image, measurement, report, _ = inverse_map(q)
    assert paired == [(pre_image, measurement)]
    paired.clear()
    forward_map(pre_image, measurement, report)
    assert paired == []


@pytest.mark.parametrize(
    "dim, sig", [(2, (1, 1)), (5, (2, 2, 1)), (8, (1,) * 8), (9, (3, 2, 2, 1, 1)), (16, (2,) * 8)]
)
def test_inverse_map_report_is_the_simplified_certifiers(dim, sig):
    # the map's report is certify_simplified's on the same pair: every field,
    # Z and the per-state slacks too, agrees to the bit
    q = random_ensemble(dim, sig, seed=dim)
    pre_image, measurement, report, _ = inverse_map(q)
    want = certify_simplified(pre_image, measurement)
    assert report.verdict == want.verdict == OPTIMAL
    for field in dataclasses.fields(report):
        got, expected = getattr(report, field.name), getattr(want, field.name)
        if field.name == "z":
            assert np.array_equal(got, expected)
        else:
            assert got == expected, field.name


@pytest.mark.parametrize("sig", [(1,) * 32, (1,) * 64, (2,) * 32], ids=["d32-pure", "d64-pure", "d64-pairs"])
def test_maps_at_scale(sig):
    # beyond d = 16: the pre-image self-certifies and forward(inverse(Q))
    # returns Q within the round-trip bound
    q = random_ensemble(sum(sig), sig, seed=len(sig))
    pre_image, measurement, report, _ = inverse_map(q)
    assert certify_simplified(pre_image, measurement).verdict == OPTIMAL
    image = forward_map(pre_image, measurement, report)
    assert image.rank_signature == q.rank_signature
    assert np.abs(image.weighted_states() - q.weighted_states()).max() <= 1e-7
