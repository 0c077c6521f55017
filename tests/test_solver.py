import tracemalloc

import numpy as np
import pytest

from conftest import (
    NEAR_SINGULAR,
    RANDOM_D4,
    haar_restart,
    near_collinear,
    pure_pair,
    qubit_angle_oracle,
)
from medli import (
    BudgetExceeded,
    InvalidSignature,
    NotProjectiveAfterPGM,
    NotTwoState,
    SigmaSingular,
    certify_simplified,
    fixpoint_check,
    generate_fixed_point,
    helstrom_comparator,
    inverse_map,
    pgm,
    random_ensemble,
    solve,
    solve_oracle,
    success_probability,
    validate_ensemble,
)
from medli.certify import OPTIMAL
from medli.ensembles import _Layout, _layout
from medli.linalg import DEFAULT_TOL, haar_unitary
from medli.pgm import COND_LIMIT, _measurement, _pgm_unitary, _polar
from medli.serialize import ensemble_from_doc, load_json
from medli.solver import (
    _chart,
    _finish,
    _k_times,
    _newton,
    _objective,
    _polar_steps,
    _projectors_from_unitary,
    _residual,
    _restart,
)

ORTH = validate_ensemble([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


class TestSolveOracle:
    def test_orthogonal_pair(self):
        result = solve_oracle(ORTH)
        assert result.certified
        assert result.success_prob == pytest.approx(1.0, abs=1e-9)

    def test_pi6_pair(self):
        ens = pure_pair(np.pi / 6)
        oracle_value, _ = qubit_angle_oracle(ens)
        result = solve_oracle(ens)
        assert result.certified
        assert result.success_prob == pytest.approx(0.75, abs=1e-6)
        assert result.success_prob == pytest.approx(oracle_value, abs=1e-8)

    def test_skewed_priors_match_one_dimensional_brute_force(self):
        ens = pure_pair(np.pi / 6, priors=(0.9, 0.1))
        oracle_value, _ = qubit_angle_oracle(ens)
        result = solve_oracle(ens)
        assert result.success_prob == pytest.approx(oracle_value, abs=1e-6)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr("medli.solver.ORACLE_BUDGET", 50)
        ens = random_ensemble(3, (1, 1, 1), seed=1)
        with pytest.raises(BudgetExceeded, match="budget of 50 evaluations"):
            solve_oracle(ens)

    def test_rejects_large_instances(self):
        ens = random_ensemble(5, (2, 2, 1), seed=1)
        with pytest.raises(BudgetExceeded):
            solve_oracle(ens)


def _haar_weights(ens, seed):
    """The block index of ens's signature and the reweighting of a Haar unitary's next polar step."""
    layout = _layout(ens.rank_signature)
    u = haar_unitary(ens.dim, np.random.default_rng(seed))
    return layout, layout.diagonal(ens.psi.conj().T @ u)


class TestSolve:
    def test_one_coordinate_space_per_solve(self, monkeypatch):
        # the polar steps stall on this pre-image, so Newton runs; an
        # impossible positivity bar leaves the solve uncertified
        tol = DEFAULT_TOL.replace(tol_psd=0.6)
        ens = inverse_map(near_collinear(6, (2, 2, 1, 1), 1e-2, 1))[0]
        newton = []

        def counted_newton(*args):
            newton.append(args[1])
            return _newton(*args)

        monkeypatch.setattr("medli.solver._newton", counted_newton)
        result = solve(ens, tol=tol)
        assert not result.certified
        assert newton == [_layout(ens.rank_signature)]
        assert newton[0] is _layout(ens.rank_signature)

    def test_a_settled_polar_phase_skips_newton(self, monkeypatch):
        # the polar steps reach a defect below 1e-13, so no residual SVD is
        # taken and no diagonal-block entry is read
        def unread(layout):
            raise AssertionError(f"entries of {layout.signature} read")

        monkeypatch.setattr("medli.solver._newton", None)
        monkeypatch.setattr(_Layout, "entries", property(unread))
        assert solve(ensemble_from_doc(load_json(RANDOM_D4)[0])).certified

    def test_pgm_start_on_fixed_point_takes_zero_steps(self):
        ens = generate_fixed_point(3, (2, 1), seed=12)
        result = solve(ens)
        assert result.certified
        assert result.iterations == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle_on_small_instances(self, seed):
        sig = [(1, 1), (2, 1), (1, 1, 1)][seed % 3]
        ens = random_ensemble(sum(sig), sig, seed=100 + seed)
        here = solve(ens)
        oracle = solve_oracle(ens)
        assert here.certified and oracle.certified
        assert here.success_prob == pytest.approx(oracle.success_prob, abs=1e-6)

    def test_d6_self_certifies(self):
        ens = random_ensemble(6, (2, 2, 2), seed=13)
        result = solve(ens)
        assert result.certified
        assert result.report.stationarity_residual < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_uniqueness_across_seeds(self, seed):
        sig = [(1, 1), (2, 1), (2, 2)][seed % 3]
        ens = random_ensemble(sum(sig), sig, seed=110 + seed)
        first = solve(ens)
        second = haar_restart(ens, 1234 + seed)
        assert first.certified and second.certified
        for a, b in zip(first.measurement.projectors, second.measurement.projectors):
            assert np.abs(a - b).max() <= 1e-7

    def test_monotone_ascent(self):
        # Newton alone, from Haar starts: ||R||_F falls at every accepted step
        # and ends at solve's optimum
        for sig in ((2, 2), (1, 1, 1, 1), (2, 1, 1), (3, 2, 1)):
            ens = random_ensemble(sum(sig), sig, seed=14)
            optimum = solve(ens)
            for seed in range(3):
                layout, b = _haar_weights(ens, seed)
                u, norms = _newton(ens.psi, layout, b)
                assert len(norms) > 1 and norms[-1] <= 1e-13
                assert np.all(np.diff(np.array(norms)) < 0.0)
                result = _finish(ens, u, len(norms) - 1, DEFAULT_TOL)
                assert result.certified
                assert result.success_prob == pytest.approx(optimum.success_prob, abs=1e-14)
                for a, c in zip(result.measurement.projectors, optimum.measurement.projectors):
                    assert np.abs(a - c).max() <= 1e-7

    def test_rejected_step_is_halved(self, monkeypatch):
        # the first trial step is reversed, so Newton must reject it and halve
        ens = inverse_map(near_collinear(4, (1, 1, 1, 1), 0.03, 1))[0]
        layout, b = _haar_weights(ens, 0)
        trials = []

        def reversed_once(b, layout, z):
            trials.append(z.copy())
            return _chart(b, layout, -z if len(trials) == 1 else z)

        monkeypatch.setattr("medli.solver._chart", reversed_once)
        u, norms = _newton(ens.psi, layout, b)
        assert len(trials) > len(norms) - 1
        np.testing.assert_array_equal(trials[1], trials[0] / 2.0)
        assert np.all(np.diff(np.array(norms)) < 0.0)
        assert _finish(ens, u, len(norms) - 1, DEFAULT_TOL).certified

    def test_a_failing_start_propagates(self, monkeypatch):
        # one start: its error is the solve's, with no second start and no wrapper
        calls = []

        def fails(*args):
            calls.append(args)
            raise NotProjectiveAfterPGM("the start failed")

        monkeypatch.setattr("medli.solver._finish", fails)
        with pytest.raises(NotProjectiveAfterPGM, match="^the start failed$"):
            solve(random_ensemble(4, (2, 1, 1), seed=18))
        assert len(calls) == 1

    @pytest.mark.parametrize("certifiable", [True, False])
    def test_one_start_and_no_haar_draw(self, monkeypatch, certifiable):
        # an impossible positivity bar leaves the solve uncertified: still one
        # start, from the PGM, and no random unitary
        tol = DEFAULT_TOL if certifiable else DEFAULT_TOL.replace(tol_psd=0.6)
        ens = ensemble_from_doc(load_json(RANDOM_D4)[0], tol)
        starts, draws = [], []

        def counted_start(*args):
            starts.append(args[1])
            return _restart(*args)

        def counted_draw(*args):
            draws.append(args)
            return haar_unitary(*args)

        monkeypatch.setattr("medli.solver._restart", counted_start)
        monkeypatch.setattr("medli.solver.haar_unitary", counted_draw)
        result = solve(ens, tol=tol)
        assert result.certified is certifiable
        assert len(starts) == 1 and draws == []
        np.testing.assert_array_equal(starts[0], _pgm_unitary(ens))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_pgm_start_reaches_the_stiff_d10_optimum(self, seed):
        # near-collinear pure Q at d = 10, noise 1e-3: from the PGM start a
        # Newton on the horizontal generators of U took 69 and 78 iterations,
        # Newton on the reweighting of Psi takes 9 and 13
        ens = near_collinear(10, (1,) * 10, 1e-3, seed)
        result = _restart(ens, _pgm_unitary(ens), DEFAULT_TOL)
        assert result.report.hermiticity_residual <= 1e-12

    @pytest.mark.parametrize(
        "sig", [(1, 1, 1, 1), (2, 1, 1), (1, 1, 1, 1, 1), (3, 2), (2, 2, 2), (1, 2, 3)]
    )
    def test_analytic_derivatives_match_central_differences(self, sig):
        # the Jacobian of R's coordinates along the chart B exp(t X / 2)
        ens = random_ensemble(sum(sig), sig, seed=17)
        layout, b = _haar_weights(ens, sum(sig))
        n = sum(r * r for r in sig)
        _, r, _, jacobian = _residual(ens.psi, layout, b)
        jac = jacobian()
        assert r.shape == (n,) and jac.shape == (n, n)

        def f(z):
            return layout.real(_residual(ens.psi, layout, _chart(b, layout, z))[1])

        np.testing.assert_allclose(f(np.zeros(n)), layout.real(r), rtol=0, atol=1e-15)
        h = 1e-6
        fd = np.array([(f(h * e) - f(-h * e)) / (2 * h) for e in np.eye(n)]).T
        np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-8)
        # X = I only rescales B, so R does not move along it
        rows, cols, _, _ = layout.entries
        ones = np.where(rows == cols, 1.0, 0.0)
        assert np.abs(jac @ ones).max() <= 1e-12

    @pytest.mark.parametrize(
        "dim, noise, seed",
        [(4, 0.01, 20331)]
        + [(5, noise, seed) for noise in (0.03, 0.01) for seed in (2, 3, 4)]
        # cond(sigma_Q) 6e8 and 4.4e8: a PGM formed through sigma^{-1/2}
        # squares this conditioning and is no longer idempotent within tol_recon
        + [(4, 3e-4, 1), (8, 3e-3, 1)],
    )
    def test_certifies_near_collinear_known_answer(self, dim, noise, seed):
        # inverse_map(Q) = (P, PGM(Q), ...): the optimum of P is known in closed form
        image = near_collinear(dim, (1,) * dim, noise, seed)
        pre_image, measurement, _, _ = inverse_map(image)
        result = solve(pre_image)
        assert result.certified
        known = success_probability(pre_image, measurement)
        assert result.success_prob == pytest.approx(known, abs=1e-12)

    @pytest.mark.parametrize("dim", [4, 6, 8, 12, 16])
    def test_certifies_known_answers_up_to_the_condition_limit(self, dim):
        # P = inverse_map(Q) has the known optimum PGM(Q) wherever cond(sigma_Q)
        # is within COND_LIMIT; beyond it the map refuses Q
        stiffest = 0.0
        for noise in (1e-3, 3e-4, 1e-4):
            for seed in (1, 2):
                image = near_collinear(dim, (1,) * dim, noise, seed)
                s = np.linalg.svd(image.psi, compute_uv=False)
                cond = float(s[0] / s[-1]) ** 2
                if cond > COND_LIMIT:
                    with pytest.raises(SigmaSingular):
                        inverse_map(image)
                    continue
                pre_image, measurement, _, _ = inverse_map(image)
                result = solve(pre_image)
                assert result.certified
                known = success_probability(pre_image, measurement)
                assert abs(result.success_prob - known) <= 1e-12
                stiffest = max(stiffest, cond)
        # past cond 1e9, where an absolute tol_psd test on sigma would refuse Q
        assert stiffest > 1e9

    def test_haar_starts_certify_beyond_the_condition_limit(self):
        # cond(sigma) 4.0e12: no PGM start, yet a Haar start certifies
        ens = pure_pair(1e-6)
        with pytest.raises(SigmaSingular):
            pgm(ens)
        for seed in range(3):
            result = haar_restart(ens, seed)
            assert result.certified
            assert result.success_prob == pytest.approx(helstrom_comparator(ens), abs=1e-12)

    @pytest.mark.parametrize("source", ["pure_pair", "fixture"])
    def test_identity_start_certifies_beyond_the_condition_limit(self, source):
        # cond(sigma) 4.0e12: the PGM is refused, so solve starts from the identity
        if source == "fixture":
            ens = ensemble_from_doc(load_json(NEAR_SINGULAR)[0])
        else:
            ens = pure_pair(1e-6)
        with pytest.raises(SigmaSingular):
            _pgm_unitary(ens)
        result = solve(ens)
        assert result.certified
        assert result.success_prob == pytest.approx(helstrom_comparator(ens), abs=1e-12)

    def test_uncertified_best_effort_returned(self):
        ens = random_ensemble(3, (1, 1, 1), seed=15)
        # an impossible positivity bar makes certification fail but the
        # solver still returns its start's value
        tol = DEFAULT_TOL.replace(tol_psd=0.9)
        result = solve(ens, tol=tol)
        assert not result.certified
        assert 0.0 < result.success_prob <= 1.0

    def test_gap_invariant_on_certified_results(self):
        ens = random_ensemble(4, (2, 1, 1), seed=16)
        result = solve(ens)
        assert result.certified
        assert abs(result.success_prob - result.report.dual_value) <= 1e-8

    def test_optimal_verdict_certifies_when_the_probability_is_clamped(self, monkeypatch):
        # priors summing to 1 + 5e-7 pass validation at tol_recon 1e-6: the
        # success probability is clamped to 1 while Tr Z stays 1 + 5e-7
        tol = DEFAULT_TOL.replace(tol_recon=1e-6)
        ens = validate_ensemble(
            [0.5 + 2.5e-7] * 2, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], tol
        )
        reports = []

        def counted(*args):
            reports.append(args)
            return certify_simplified(*args)

        monkeypatch.setattr("medli.solver.certify_simplified", counted)
        result = solve(ens, tol=tol)
        assert result.report.verdict == OPTIMAL
        assert result.certified
        assert result.success_prob == 1.0
        assert len(reports) == 1


class TestFrame:
    @pytest.mark.parametrize("dim", range(2, 17))
    def test_frame_is_the_certifiers_k(self, dim):
        # K~ = U^dag (sum_i p_i rho_i Pi_i) U and ||grad|| = ||K - K^dag||_F
        sigs = {(1,) * dim, (2,) * (dim // 2) + (1,) * (dim % 2)}
        sigs |= {sig for sig in ((2, 1, 1), (1, 2, 1), (3, 3, 2)) if sum(sig) == dim}
        for sig in sorted(sig for sig in sigs if len(sig) > 1):
            for seed in range(2):
                ens = random_ensemble(dim, sig, seed=seed)
                weighted = ens.weighted_states()
                slices = _layout(sig).slices
                u = haar_unitary(dim, np.random.default_rng(seed))
                m = _k_times(weighted, sig, u)
                # one batched mat-vec per run, bit for bit the per-coordinate gather
                labels = np.repeat(np.arange(len(sig)), sig)
                assert np.array_equal(m, (weighted[labels] @ u.T[..., None])[..., 0].T)
                k = u.conj().T @ m
                projectors = _projectors_from_unitary(u, sig)
                expected = u.conj().T @ sum(w @ p for w, p in zip(weighted, projectors)) @ u
                assert np.linalg.norm(k - expected) <= 1e-13 * np.linalg.norm(expected)
                # B = blockdiag(C_ii): polar(Psi B) is the polar step polar(K U), and
                # column block i of K~ there is S_{:,i} (B_i^dag B_i)^{-1} S_ii
                left, _, right = np.linalg.svd(m)
                layout = _layout(sig)
                b = layout.diagonal(ens.psi.conj().T @ u)
                moved, _, _, _ = _residual(ens.psi, layout, b)
                assert np.linalg.norm(moved - left @ right) <= 1e-12 * np.sqrt(dim)
                k = moved.conj().T @ _k_times(weighted, sig, moved)
                s = moved.conj().T @ ens.psi @ b
                for block in slices:
                    bb = b[block, block].conj().T @ b[block, block]
                    formed = s[:, block] @ np.linalg.solve(bb, s[block, block])
                    assert np.linalg.norm(k[:, block] - formed) <= 1e-11 * np.linalg.norm(k)

    def test_one_shared_read_only_space_per_signature(self):
        layout = _layout((2, 1, 1))
        assert _layout((2, 1, 1)) is layout
        assert _layout((1, 2, 1)) is not layout
        assert layout.signature == (2, 1, 1)
        assert layout.slices == (slice(0, 2), slice(2, 3), slice(3, 4))
        assert layout.runs == ((slice(0, 1), slice(0, 2), 1, 2), (slice(1, 3), slice(2, 4), 2, 1))
        # O(d^2) indices: the entries of the diagonal blocks, and no direction basis
        rows, cols, flip, coef = layout.entries
        assert layout.entries is layout.entries
        np.testing.assert_array_equal(rows, [0, 0, 1, 1, 2, 3])
        np.testing.assert_array_equal(cols, [0, 1, 0, 1, 2, 3])
        np.testing.assert_array_equal(flip, [0, 2, 1, 3, 4, 5])
        for arr in (rows, cols, flip, coef):
            assert arr.shape == (6,)
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    @pytest.mark.parametrize("sig", [(1, 1, 1, 1), (2, 1, 1), (1, 2, 1), (3, 3, 2), (2, 2, 2)])
    def test_diagonal_is_the_pinching_by_the_slices(self, sig):
        mat = haar_unitary(sum(sig), np.random.default_rng(len(sig)))
        pinched = np.zeros_like(mat)
        for block in _layout(sig).slices:
            pinched[block, block] = mat[block, block]
        assert np.array_equal(_layout(sig).diagonal(mat), pinched)


class TestPolarSteps:
    @pytest.mark.parametrize("dim", [16, 24])
    @pytest.mark.parametrize("pairs", [False, True])
    def test_haar_start_certifies_the_unique_optimum(self, dim, pairs):
        # the paper's optimum is unique: one Haar start must reach the PGM start's
        sig = (2,) * (dim // 2) if pairs else (1,) * dim
        ens = random_ensemble(dim, sig, seed=dim + pairs)
        warm = solve(ens)
        cold = haar_restart(ens, 0)
        assert warm.certified and cold.certified
        for a, b in zip(warm.measurement.projectors, cold.measurement.projectors):
            assert np.abs(a - b).max() <= 1e-7

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_step_is_u_times_the_polar_factor_of_k_tilde(self, dim, monkeypatch):
        # polar(K U) = U polar(U^dag K U), with K formed from the projectors
        monkeypatch.setattr("medli.solver.POLAR_STEPS", 1)
        sigs = {(1,) * dim, (2,) * (dim // 2) + (1,) * (dim % 2)}
        for sig in sorted(sig for sig in sigs if len(sig) > 1):
            ens = random_ensemble(dim, sig, seed=dim)
            weighted = ens.weighted_states()
            u = haar_unitary(dim, np.random.default_rng(dim))
            moved, steps, settled = _polar_steps(weighted, u, sig)
            assert steps == 1 and not settled
            projectors = _projectors_from_unitary(u, sig)
            left, _, right = np.linalg.svd(u.conj().T @ (weighted @ projectors).sum(axis=0) @ u)
            expected = u @ left @ right
            assert np.linalg.norm(moved - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_fixed_point_pgm_is_not_moved(self, dim):
        sigs = {(1,) * dim, (2,) * (dim // 2) + (1,) * (dim % 2), (dim - 1, 1)}
        for sig in sorted(sig for sig in sigs if len(sig) > 1):
            for seed in range(2):
                ens = generate_fixed_point(dim, sig, seed=seed)
                u, _, _ = _polar(ens)
                moved, steps, settled = _polar_steps(np.asarray(ens.weighted_states()), u, sig)
                assert steps == 0 and settled
                assert moved is u

    @pytest.mark.parametrize(
        "dim, sig, noise",
        [(4, (2, 2), None), (6, (1,) * 6, None), (8, (2, 2, 2, 1, 1), None), (12, (3,) * 4, None)]
        # pre-images of near-collinear ensembles, where the steps crawl
        + [(4, (1,) * 4, 1e-3), (8, (2,) * 4, 1e-2)],
    )
    def test_objective_does_not_fall_across_steps(self, dim, sig, noise, monkeypatch):
        # one step per call, so the objective is read after every step
        monkeypatch.setattr("medli.solver.POLAR_STEPS", 1)
        if noise is None:
            ens = random_ensemble(dim, sig, seed=dim)
        else:
            ens = inverse_map(near_collinear(dim, sig, noise, seed=1))[0]
        weighted = ens.weighted_states()
        stack = np.asarray(weighted)
        rng = np.random.default_rng(dim)
        taken = 0
        for _ in range(3):
            u = haar_unitary(dim, rng)
            value = _objective(weighted, _projectors_from_unitary(u, sig))
            for _ in range(30):
                u, steps, _ = _polar_steps(stack, u, sig)
                if steps == 0:
                    break
                taken += 1
                moved = _objective(weighted, _projectors_from_unitary(u, sig))
                assert moved >= value - 1e-12
                value = moved
        assert taken > 0


class TestGenerateFixedPoint:
    def test_explicit_two_by_two_arithmetic(self):
        # direct construction: S = [[c, b], [b, c]] pre-normalization
        c, b = 0.68, 0.2
        s = np.array([[c, b], [b, c]])
        weighted0 = np.outer(s[:, 0], s[:, 0].conj())
        np.testing.assert_allclose(
            weighted0, [[c**2, c * b], [b * c, b**2]], atol=1e-15
        )
        s /= np.sqrt(np.trace(s @ s).real)
        weighted = [np.outer(s[:, 0], s[:, 0].conj()), np.outer(s[:, 1], s[:, 1].conj())]
        priors = [float(np.trace(w).real) for w in weighted]
        ens = validate_ensemble(priors, [w / p for w, p in zip(weighted, priors)])
        result = fixpoint_check(ens)
        assert result.is_fixed
        assert result.residual < 1e-10

    def test_zero_off_diagonal_gives_orthogonal_pair(self):
        c = 0.68
        s = np.diag([c, c])
        s /= np.sqrt(np.trace(s @ s).real)
        weighted = [np.outer(s[:, 0], s[:, 0]), np.outer(s[:, 1], s[:, 1])]
        priors = [float(np.trace(w).real) for w in weighted]
        assert priors == pytest.approx([0.5, 0.5], abs=1e-14)
        ens = validate_ensemble(priors, [w / p for w, p in zip(weighted, priors)])
        np.testing.assert_allclose(ens.states[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_generator_d3_mixed(self):
        ens = generate_fixed_point(3, (2, 1), seed=5)
        assert ens.rank_signature == (2, 1)
        assert fixpoint_check(ens).is_fixed
        report = certify_simplified(ens, pgm(ens))
        assert report.verdict == OPTIMAL

    def test_invalid_signature(self):
        with pytest.raises(InvalidSignature):
            generate_fixed_point(3, (2, 2), seed=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_pgm_is_certified_optimum(self, seed):
        sig = [(1, 1), (2, 1), (2, 2), (2, 1, 1)][seed % 4]
        ens = generate_fixed_point(sum(sig), sig, seed=130 + seed)
        report = certify_simplified(ens, pgm(ens))
        assert report.verdict == OPTIMAL


class TestHelstromComparator:
    def test_orthogonal_pair(self):
        assert helstrom_comparator(ORTH) == pytest.approx(1.0, abs=1e-14)

    def test_pi6_pair(self):
        ens = pure_pair(np.pi / 6)
        value = helstrom_comparator(ens)
        assert value == pytest.approx(0.75, abs=1e-12)
        oracle = solve_oracle(ens)
        assert value == pytest.approx(oracle.success_prob, abs=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_mixed_two_state_agrees_with_solve(self, seed):
        sig = [(2, 2), (3, 1), (1, 3)][seed % 3]
        ens = random_ensemble(4, sig, seed=140 + seed)
        result = solve(ens)
        assert result.certified
        assert helstrom_comparator(ens) == pytest.approx(result.success_prob, abs=1e-7)

    def test_rejects_three_states(self):
        ens = random_ensemble(3, (1, 1, 1), seed=0)
        with pytest.raises(NotTwoState):
            helstrom_comparator(ens)


def _qubit_pair(k):
    """Pair k of the benchmark's qubit-pairs workload at seed 1."""
    seed = int(np.random.SeedSequence([1, k]).generate_state(1)[0])
    return random_ensemble(2, (1, 1), seed=seed)


class TestWork:
    @pytest.mark.parametrize("dim", [32, 64])
    def test_certifies_random_pure_known_answers_at_scale(self, dim):
        pre_image, measurement, _, _ = inverse_map(random_ensemble(dim, (1,) * dim, seed=dim))
        result = solve(pre_image)
        assert result.certified
        assert result.iterations > 0
        known = success_probability(pre_image, measurement)
        assert abs(result.success_prob - known) <= 1e-12

    @pytest.mark.parametrize("dim", [32, 64])
    def test_certifies_stiff_pure_known_answers_at_scale(self, dim):
        # near-collinear P, noise 1e-2: a Newton on the d^2 - d horizontal
        # generators of U took 7.0 s at d = 32 and 503 s at d = 64
        pre_image, measurement, _, _ = inverse_map(near_collinear(dim, (1,) * dim, 1e-2, 1))
        result = solve(pre_image)
        assert result.certified
        assert result.iterations <= 15
        known = success_probability(pre_image, measurement)
        assert abs(result.success_prob - known) <= 1e-12

    def test_neither_phase_copies_the_stack_per_coordinate(self):
        # K U reads the weighted stack in place, so the polar phase peaks far
        # below one (d, d, d) stack (4.19 MB at d = 64). The Newton phase, run
        # on the stiff d = 64 P where it builds Jacobians, stays below 16 such
        # stacks; a Hessian over the horizontal generators of U needs ~1 GB there
        pre_image = inverse_map(random_ensemble(64, (1,) * 64, seed=3))[0]
        stack, sig = pre_image.weighted_states(), pre_image.rank_signature
        start = haar_unitary(64, np.random.default_rng(3))
        stiff = inverse_map(near_collinear(64, (1,) * 64, 1e-2, 1))[0]
        u, _, settled = _polar_steps(stiff.weighted_states(), _pgm_unitary(stiff), sig)
        assert not settled
        layout = _layout(sig)
        b = layout.diagonal(stiff.psi.conj().T @ u)
        phases = (
            (_polar_steps, (stack, start, sig), stack.nbytes / 4),
            (_newton, (stiff.psi, layout, b), 16 * stack.nbytes),
        )
        for phase, args, bound in phases:
            tracemalloc.start()
            try:
                out = phase(*args)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound
        assert len(out[1]) > 1

    def test_qubit_pair_iterations_do_not_rise(self):
        # 1131 summed iterations before polar steps read K U instead of every frame
        results = [solve(_qubit_pair(k)) for k in range(300)]
        assert all(result.certified for result in results)
        assert sum(result.iterations for result in results) <= 1131

    def test_near_collinear_known_answer_iterations_do_not_rise(self):
        # 48 of the 60 Q's are inside COND_LIMIT; their solves summed 495
        # iterations with a Newton on the horizontal generators of U, and 347
        # with Newton on the block reweighting of Psi
        total = built = 0
        for dim in (4, 6, 8, 12, 16):
            for noise in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5):
                for seed in (1, 2):
                    try:
                        pre_image, measurement, _, _ = inverse_map(
                            near_collinear(dim, (1,) * dim, noise, seed)
                        )
                    except SigmaSingular:
                        continue
                    built += 1
                    result = solve(pre_image)
                    assert result.certified
                    known = success_probability(pre_image, measurement)
                    assert abs(result.success_prob - known) <= 1e-12
                    total += result.iterations
        assert built == 48
        assert total <= 347
