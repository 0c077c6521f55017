"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
Every tolerance below is pinned; nothing is deferred to later calibration.
"""

import time

import numpy as np

from conftest import (
    GOLDEN,
    GOLDEN_CASES,
    MALFORMED,
    NEAR_SINGULAR,
    ORTH,
    RANDOM_D4,
    haar_restart,
    run_cli,
    pure_pair,
    qubit_angle_oracle,
)
from medli import (
    INCONCLUSIVE,
    OPTIMAL,
    certify_full,
    certify_simplified,
    detection_profile,
    fixpoint_check,
    forward_map,
    generate_fixed_point,
    helstrom_comparator,
    inverse_map,
    pgm,
    random_ensemble,
    solve,
    solve_oracle,
    validate_projective,
)
from medli.linalg import haar_unitary, herm

CORPUS_SIGNATURES = [(1, 1), (2, 1), (1, 1, 1), (2, 2), (2, 2, 1), (2, 2, 2)]


def corpus(count, base_seed):
    for k in range(count):
        sig = CORPUS_SIGNATURES[k % len(CORPUS_SIGNATURES)]
        yield random_ensemble(sum(sig), sig, seed=base_seed + k)


def weighted_deviation(first, second):
    return max(
        float(np.abs(a - b).max())
        for a, b in zip(first.weighted_states(), second.weighted_states())
    )


def report(line):
    print(f"\nACCEPTANCE {line}")


def test_c01_bijectivity():
    started = time.perf_counter()
    worst_p = worst_q = 0.0
    for ens in corpus(200, base_seed=10_000):
        result = solve(ens)
        assert result.certified
        derived = forward_map(ens, result.measurement, result.certificate)
        reconstructed, _, _, _ = inverse_map(derived)
        worst_p = max(worst_p, weighted_deviation(reconstructed, ens))
        pre, meas, cert, _ = inverse_map(ens)
        rederived = forward_map(pre, meas, cert)
        worst_q = max(worst_q, weighted_deviation(rederived, ens))
    elapsed = time.perf_counter() - started
    assert worst_p <= 1e-7
    assert worst_q <= 1e-7
    assert elapsed < 120.0
    report(
        f"C1 bijectivity: PASS (200 instances d=2..6, max inv(fwd(P)) dev {worst_p:.2e}, "
        f"max fwd(inv(Q)) dev {worst_q:.2e}, {elapsed:.1f}s)"
    )


def test_c02_inverse_map_self_certification():
    worst_stat = -np.inf
    worst_slack = np.inf
    for ens in corpus(200, base_seed=10_000):
        pre, meas, _, _ = inverse_map(ens)
        rep = certify_simplified(pre, meas)
        assert rep.verdict == OPTIMAL
        assert rep.stationarity_residual <= 1e-8
        assert rep.min_slack_eig >= -1e-9
        worst_stat = max(worst_stat, rep.stationarity_residual)
        worst_slack = min(worst_slack, rep.min_slack_eig)
    report(
        f"C2 inverse-map self-certification: PASS (200/200 Optimal, "
        f"max stationarity {worst_stat:.2e}, min slack {worst_slack:.2e})"
    )


def test_c03_optimal_measurement_is_pgm_of_image():
    small = [(1, 1), (2, 1), (1, 1, 1)]
    worst = 0.0
    for k in range(50):
        sig = small[k % len(small)]
        ens = random_ensemble(sum(sig), sig, seed=20_000 + k)
        result = solve(ens)
        assert result.certified
        derived = forward_map(ens, result.measurement, result.certificate)
        image_pgm = pgm(derived)
        dev = max(
            float(np.abs(a - b).max())
            for a, b in zip(image_pgm.projectors, result.measurement.projectors)
        )
        worst = max(worst, dev)
        assert dev <= 1e-7
    report(f"C3 optimal measurement = PGM of image: PASS (50 instances d<=3, max dev {worst:.2e})")


def test_c04_certifier_equivalence():
    agreements = 0
    decided = 0
    inconclusive = 0
    for k in range(250):
        sig = CORPUS_SIGNATURES[k % len(CORPUS_SIGNATURES)]
        seed = 30_000 + k
        source = random_ensemble(sum(sig), sig, seed=seed)
        pre, meas, _, _ = inverse_map(source)
        pairs = [(pre, meas)]
        rng = np.random.default_rng(seed)
        u = haar_unitary(source.dim, rng)
        projs = []
        start = 0
        for r in source.rank_signature:
            cols = u[:, start : start + r]
            start += r
            projs.append(herm(cols @ cols.conj().T))
        pairs.append((source, validate_projective(projs)))
        for ens, candidate in pairs:
            full = certify_full(ens, candidate)
            simplified = certify_simplified(ens, candidate)
            if INCONCLUSIVE in (full.verdict, simplified.verdict):
                inconclusive += 1
                continue
            decided += 1
            if full.verdict == simplified.verdict:
                agreements += 1
    assert decided + inconclusive == 500
    assert agreements == decided
    report(
        f"C4 certifier equivalence: PASS ({agreements}/{decided} agree, "
        f"{inconclusive} inconclusive out of 500 pairs)"
    )


def test_c05_fixed_point_iff():
    fixed_sigs = [(1, 1), (2, 1), (1, 1, 1), (2, 2), (2, 1, 1), (3, 1)]
    worst_fixed_move = 0.0
    for k in range(100):
        sig = fixed_sigs[k % len(fixed_sigs)]
        ens = generate_fixed_point(sum(sig), sig, seed=40_000 + k)
        assert fixpoint_check(ens).is_fixed
        result = solve(ens)
        assert result.certified
        derived = forward_map(ens, result.measurement, result.certificate)
        move = weighted_deviation(derived, ens)
        worst_fixed_move = max(worst_fixed_move, move)
        assert move <= 1e-7
    checked = 0
    seed = 50_000
    least_move = np.inf
    while checked < 100:
        sig = CORPUS_SIGNATURES[checked % len(CORPUS_SIGNATURES)]
        ens = random_ensemble(sum(sig), sig, seed=seed)
        seed += 1
        check = fixpoint_check(ens)
        if check.residual <= 1e-3:
            continue
        checked += 1
        assert not check.is_fixed
        result = solve(ens)
        assert result.certified
        derived = forward_map(ens, result.measurement, result.certificate)
        move = weighted_deviation(derived, ens)
        least_move = min(least_move, move)
        assert move > 1e-4
    report(
        f"C5 fixed-point iff: PASS (100 fixed, max move {worst_fixed_move:.2e}; "
        f"100 non-fixed, min move {least_move:.2e})"
    )


def test_c06_detection_profile():
    mixed_sigs = [(2, 1), (2, 2), (3, 1), (2, 1, 1), (2, 2, 1), (3, 2)]
    worst_mixed = 0.0
    for k in range(50):
        sig = mixed_sigs[k % len(mixed_sigs)]
        ens = generate_fixed_point(sum(sig), sig, seed=60_000 + k)
        profile = detection_profile(ens, pgm(ens))
        ratios = np.array([p / r for p, r in zip(profile, ens.rank_signature)])
        spread = float(np.abs(ratios - ratios.mean()).max())
        worst_mixed = max(worst_mixed, spread)
        assert spread <= 1e-6
    worst_pure = 0.0
    pure_sigs = [(1, 1), (1, 1, 1), (1, 1, 1, 1)]
    for k in range(30):
        sig = pure_sigs[k % len(pure_sigs)]
        ens = generate_fixed_point(sum(sig), sig, seed=61_000 + k)
        profile = np.array(detection_profile(ens, pgm(ens)))
        spread = float(np.abs(profile - profile.mean()).max())
        worst_pure = max(worst_pure, spread)
        assert spread <= 1e-6
    report(
        f"C6 detection profile: PASS (50 mixed fixed points, max rank-ratio spread "
        f"{worst_mixed:.2e}; 30 rank-one, max spread {worst_pure:.2e})"
    )


def test_c07_zero_duality_gap():
    worst = 0.0
    for k, ens in enumerate(corpus(40, base_seed=70_000)):
        result = solve(ens)
        assert result.certified
        gap = abs(result.success_prob - result.certificate.dual_value)
        worst = max(worst, gap)
        assert gap <= 1e-8
    report(f"C7 zero duality gap: PASS (40 certified solves, max gap {worst:.2e})")


def test_c08_two_state_cross_oracle():
    signatures = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]
    worst_helstrom = worst_oracle = 0.0
    oracle_runs = 0
    for k in range(100):
        sig = signatures[k % len(signatures)]
        ens = random_ensemble(sum(sig), sig, seed=80_000 + k)
        comparator = helstrom_comparator(ens)
        result = solve(ens)
        assert result.certified
        worst_helstrom = max(worst_helstrom, abs(comparator - result.success_prob))
        assert abs(comparator - result.success_prob) <= 1e-6
        if ens.dim <= 3:
            oracle = solve_oracle(ens)
            oracle_runs += 1
            worst_oracle = max(worst_oracle, abs(oracle.success_prob - comparator))
            assert abs(oracle.success_prob - comparator) <= 1e-6
    pair = pure_pair(np.pi / 6)
    brute, _ = qubit_angle_oracle(pair)
    assert abs(brute - 0.75) <= 1e-9
    for value in (
        helstrom_comparator(pair),
        solve(pair).success_prob,
        solve_oracle(pair).success_prob,
    ):
        assert abs(value - 0.75) <= 1e-6
    report(
        f"C8 two-state cross-oracle: PASS (100 instances, max |helstrom-solve| "
        f"{worst_helstrom:.2e}; {oracle_runs} oracle runs, max dev {worst_oracle:.2e}; "
        f"pi/6 value 0.75)"
    )


def test_c09_uniqueness():
    worst = 0.0
    for k in range(50):
        sig = CORPUS_SIGNATURES[k % len(CORPUS_SIGNATURES)]
        ens = random_ensemble(sum(sig), sig, seed=90_000 + k)
        first = solve(ens)
        second = haar_restart(ens, 1000 + k)
        assert first.certified and second.certified
        dev = max(
            float(np.abs(a - b).max())
            for a, b in zip(first.measurement.projectors, second.measurement.projectors)
        )
        worst = max(worst, dev)
        assert dev <= 1e-7
    report(f"C9 uniqueness: PASS (50 instances, max measurement dev {worst:.2e})")


def test_c10_cli_contract():
    for name, (expected, argv) in sorted(GOLDEN_CASES.items()):
        code, out, _ = run_cli(*argv)
        assert code == expected, f"{argv} exited {code}, expected {expected}"
        assert out == (GOLDEN / name).read_bytes(), f"golden mismatch for {name}"
    partition = {
        ("solve", ORTH, "--quiet"): 0,
        ("solve", MALFORMED, "--quiet"): 2,
        ("gen", "--dim", "3", "--signature", "2,2", "--quiet"): 2,
        ("solve", RANDOM_D4, "--tol-psd", "0.6", "--quiet"): 3,
        ("fixpoint", RANDOM_D4, "--quiet"): 3,
        ("fixpoint", NEAR_SINGULAR, "--quiet"): 4,
    }
    seen = set()
    for argv, expected in partition.items():
        code, _, _ = run_cli(*argv)
        assert code == expected, f"{argv} exited {code}, expected {expected}"
        seen.add(code)
    assert seen == {0, 2, 3, 4}
    report(
        f"C10 CLI contract: PASS ({len(GOLDEN_CASES)} byte-stable golden reports, "
        f"exit codes {{0,2,3,4}} partition verified)"
    )
