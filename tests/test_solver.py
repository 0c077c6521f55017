import tracemalloc

import numpy as np
import pytest

from conftest import RANDOM_D4, haar_restart, near_collinear, pure_pair, qubit_angle_oracle
from medli import (
    BudgetExceeded,
    InvalidSignature,
    NoConvergence,
    NotProjectiveAfterPGM,
    NotTwoState,
    SigmaSingular,
    SolveConfig,
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
from medli.ensembles import _signature_slices
from medli.linalg import DEFAULT_TOL, expi_herm, haar_unitary
from medli.pgm import COND_LIMIT, _measurement, _polar
from medli.serialize import ensemble_from_doc, load_json
from medli.solver import (
    _finish,
    _horizontal,
    _k_times,
    _newton,
    _objective,
    _polar_steps,
    _projectors_from_unitary,
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


class TestSolve:
    @pytest.mark.parametrize("restarts", [0, -3])
    def test_config_rejects_restarts_below_one(self, restarts):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            SolveConfig(restarts=restarts)

    @pytest.mark.parametrize(
        "field, value", [("restarts", 2.5), ("seed", 1.5), ("restarts", True), ("seed", False)]
    )
    def test_config_rejects_non_integers(self, field, value):
        # a float would fail the solve mid-way, after its first restart, with a
        # TypeError; a bool is an Integral, but would pass as one restart or seed 0
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolveConfig(**{field: value})

    def test_config_rejects_a_negative_seed(self):
        # numpy's generator would refuse it only once a Haar start is drawn, mid-solve
        with pytest.raises(ValueError, match="seed must be at least 0"):
            SolveConfig(seed=-1)

    def test_config_accepts_numpy_integers(self):
        config = SolveConfig(restarts=np.int64(2), seed=np.int32(7))
        assert (config.restarts, config.seed) == (2, 7)

    def test_one_coordinate_space_per_solve(self, monkeypatch):
        # an impossible positivity bar leaves every one of the 16 restarts uncertified
        tol = DEFAULT_TOL.replace(tol_psd=0.6)
        ens = ensemble_from_doc(load_json(RANDOM_D4)[0], tol)
        built = []
        original = _horizontal

        def counted(signature):
            built.append(signature)
            return original(signature)

        monkeypatch.setattr("medli.solver._horizontal", counted)
        result = solve(ens, tol=tol)
        assert not result.certified
        assert built == [ens.rank_signature]

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
        ens = random_ensemble(4, (2, 2), seed=14)
        u0 = haar_unitary(4, np.random.default_rng(0))
        space = _horizontal(ens.rank_signature)
        _, values = _newton(np.asarray(ens.weighted_states()), u0, space)
        assert len(values) > 1
        diffs = np.diff(np.array(values))
        assert np.all(diffs >= -1e-12)

    def test_rejected_step_is_halved(self, monkeypatch):
        # the first trial step is reversed, so Newton must reject it and halve
        ens = inverse_map(near_collinear(4, (1, 1, 1, 1), 0.03, 1))[0]
        u0 = haar_unitary(4, np.random.default_rng(0))
        space = _horizontal(ens.rank_signature)
        trials = []

        def reversed_once(h, t=1.0):
            trials.append(t)
            return expi_herm(h, -t if len(trials) == 1 else t)

        monkeypatch.setattr("medli.solver.expi_herm", reversed_once)
        u, values = _newton(np.asarray(ens.weighted_states()), u0, space)
        assert len(trials) > len(values) - 1
        assert np.all(np.diff(np.array(values)) >= -1e-15)
        assert _finish(ens, u, len(values) - 1, DEFAULT_TOL).certified

    def test_failed_restart_is_skipped(self, monkeypatch):
        ens = random_ensemble(4, (2, 1, 1), seed=18)
        calls = []

        def fails_first(*args):
            calls.append(args)
            if len(calls) == 1:
                raise NotProjectiveAfterPGM("first restart failed")
            return _finish(*args)

        monkeypatch.setattr("medli.solver._finish", fails_first)
        result = solve(ens)
        assert result.certified
        assert len(calls) == 2

    def test_every_restart_failing_raises(self, monkeypatch):
        calls = []

        def fails(*args):
            calls.append(args)
            raise NotProjectiveAfterPGM(f"restart {len(calls)} failed")

        monkeypatch.setattr("medli.solver._finish", fails)
        with pytest.raises(NoConvergence, match="restart 3 failed$"):
            solve(random_ensemble(4, (2, 1, 1), seed=18), SolveConfig(restarts=3))
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "sig", [(1, 1, 1, 1), (2, 1, 1), (1, 1, 1, 1, 1), (3, 2), (2, 2, 2), (1, 2, 3)]
    )
    def test_analytic_derivatives_match_central_differences(self, sig):
        dim = sum(sig)
        ens = random_ensemble(dim, sig, seed=17)
        weighted = ens.weighted_states()
        slices = _signature_slices(sig)
        u = haar_unitary(dim, np.random.default_rng(dim))
        space = _horizontal(sig)
        k = u.conj().T @ _k_times(weighted, sig, u)
        value, grad = space.value_and_gradient(k)
        hess = space.hessian(u.conj().T @ weighted @ u, k)
        n = dim * dim - sum(r * r for r in sig)
        assert grad.shape == (n,) and hess.shape == (n, n)

        def f(z):
            moved = u @ expi_herm(space.generator(z))
            return _objective(weighted, _projectors_from_unitary(moved, slices))

        assert value == pytest.approx(f(np.zeros(n)), abs=1e-14)
        unit = np.eye(n)
        h = 1e-5
        fd_grad = np.array([(f(h * e) - f(-h * e)) / (2 * h) for e in unit])
        np.testing.assert_allclose(grad, fd_grad, rtol=0, atol=1e-9)
        h = 1e-4
        fd_hess = np.array(
            [
                [
                    (f(h * (a + b)) - f(h * (a - b)) - f(h * (b - a)) + f(-h * (a + b))) / (4 * h * h)
                    for b in unit
                ]
                for a in unit
            ]
        )
        np.testing.assert_allclose(hess, fd_hess, rtol=0, atol=1e-6)

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
        result = solve(ens)
        assert result.certified
        assert result.success_prob == pytest.approx(helstrom_comparator(ens), abs=1e-12)

    def test_uncertified_best_effort_returned(self):
        ens = random_ensemble(3, (1, 1, 1), seed=15)
        # an impossible positivity bar makes certification fail but the
        # solver still returns its best value
        tol = DEFAULT_TOL.replace(tol_psd=0.9)
        result = solve(ens, SolveConfig(restarts=2), tol=tol)
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
        restarts = []

        def counted(*args):
            restarts.append(args)
            return certify_simplified(*args)

        monkeypatch.setattr("medli.solver.certify_simplified", counted)
        result = solve(ens, tol=tol)
        assert result.report.verdict == OPTIMAL
        assert result.certified
        assert result.success_prob == 1.0
        assert len(restarts) == 1


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
                slices = _signature_slices(sig)
                u = haar_unitary(dim, np.random.default_rng(seed))
                space = _horizontal(sig)
                m = _k_times(weighted, sig, u)
                # one batched mat-vec per run, bit for bit the per-coordinate gather
                labels = np.repeat(np.arange(len(sig)), sig)
                assert np.array_equal(m, (weighted[labels] @ u.T[..., None])[..., 0].T)
                k = u.conj().T @ m
                projectors = _projectors_from_unitary(u, slices)
                expected = u.conj().T @ sum(w @ p for w, p in zip(weighted, projectors)) @ u
                assert np.linalg.norm(k - expected) <= 1e-13 * np.linalg.norm(expected)
                _, grad = space.value_and_gradient(k)
                report = certify_simplified(ens, _measurement(u, ens, DEFAULT_TOL))
                assert np.linalg.norm(grad) == pytest.approx(report.hermiticity_residual, rel=1e-12)

    def test_one_shared_read_only_space_per_signature(self):
        space = _horizontal((2, 1, 1))
        assert _horizontal((2, 1, 1)) is space
        assert _horizontal((1, 2, 1)) is not space
        assert space.signature == (2, 1, 1)
        for arr in (space.rows, space.cols):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


class TestPolarSteps:
    @pytest.mark.parametrize("dim", [16, 24])
    @pytest.mark.parametrize("pairs", [False, True])
    def test_haar_start_certifies_the_unique_optimum(self, dim, pairs):
        # the paper's optimum is unique: one Haar start must reach the PGM start's
        sig = (2,) * (dim // 2) if pairs else (1,) * dim
        ens = random_ensemble(dim, sig, seed=dim + pairs)
        warm = solve(ens, SolveConfig(restarts=1))
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
            slices = _signature_slices(sig)
            u = haar_unitary(dim, np.random.default_rng(dim))
            moved, steps = _polar_steps(weighted, u, _horizontal(sig))
            assert steps == 1
            projectors = _projectors_from_unitary(u, slices)
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
                space = _horizontal(sig)
                moved, steps = _polar_steps(np.asarray(ens.weighted_states()), u, space)
                assert steps == 0
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
        slices = _signature_slices(sig)
        stack, space = np.asarray(weighted), _horizontal(sig)
        rng = np.random.default_rng(dim)
        taken = 0
        for _ in range(3):
            u = haar_unitary(dim, rng)
            value = _objective(weighted, _projectors_from_unitary(u, slices))
            for _ in range(30):
                u, steps = _polar_steps(stack, u, space)
                if steps == 0:
                    break
                taken += 1
                moved = _objective(weighted, _projectors_from_unitary(u, slices))
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

    def test_neither_phase_copies_the_stack_per_coordinate(self):
        # K U reads the weighted stack in place, so each phase peaks far below
        # one (d, d, d) stack (4.19 MB at d = 64); the Newton phase starts at
        # the optimum, where it builds no Hessian
        pre_image, measurement, _, _ = inverse_map(random_ensemble(64, (1,) * 64, seed=3))
        stack, space = pre_image.weighted_states(), _horizontal(pre_image.rank_signature)
        start = haar_unitary(64, np.random.default_rng(3))
        for phase, u in ((_polar_steps, start), (_newton, measurement._basis)):
            tracemalloc.start()
            try:
                phase(stack, u, space)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < stack.nbytes / 4

    def test_qubit_pair_iterations_do_not_rise(self):
        # 1131 summed iterations before polar steps read K U instead of every frame
        results = [solve(_qubit_pair(k)) for k in range(300)]
        assert all(result.certified for result in results)
        assert sum(result.iterations for result in results) <= 1131

    def test_near_collinear_known_answer_iterations_do_not_rise(self):
        # 48 of the 60 Q's are inside COND_LIMIT; their solves summed 495
        # iterations before polar steps read K U instead of every frame
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
                    result = solve(pre_image, SolveConfig(restarts=2))
                    assert result.certified
                    known = success_probability(pre_image, measurement)
                    assert abs(result.success_prob - known) <= 1e-12
                    total += result.iterations
        assert built == 48
        assert total <= 495
