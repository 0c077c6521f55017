import pathlib
import sys

import numpy as np

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from medli import validate_ensemble, validate_projective  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

ORTH = str(FIXTURES / "orthogonal_pair.json")
PI6 = str(FIXTURES / "theta_pi6_pair.json")
FIXED = str(FIXTURES / "fixed_point_d3.json")
RANDOM_D4 = str(FIXTURES / "random_d4.json")
MALFORMED = str(FIXTURES / "malformed.json")

# Golden report name -> (expected exit code, CLI argv). Each report is the
# command's byte-exact stdout; UPDATE_GOLDEN=1 pytest tests/test_cli.py
# regenerates them after an intentional output change.
GOLDEN_CASES = {
    "solve_orthogonal.json": (0, ("solve", ORTH, "--seed", "0", "--quiet")),
    "solve_oracle_pi6.json": (0, ("solve", PI6, "--oracle", "--seed", "0", "--quiet")),
    "fixpoint_fixed_d3.json": (0, ("fixpoint", FIXED, "--quiet")),
    "map_inverse_random_d4.json": (0, ("map", RANDOM_D4, "--direction", "inverse", "--quiet")),
    "roundtrip_random_d4.json": (0, ("roundtrip", RANDOM_D4, "--seed", "0", "--quiet")),
    "certify_orthogonal.json": (
        0, ("certify", ORTH, str(GOLDEN / "solve_orthogonal.json"), "--quiet")
    ),
    "map_forward_fixed_d3.json": (0, ("map", FIXED, "--direction", "forward", "--quiet")),
    "map_forward_uncertified_random_d4.json": (
        3, ("map", RANDOM_D4, "--direction", "forward", "--tol-psd", "0.6", "--quiet")
    ),
    "gen_random_d4.json": (0, ("gen", "--dim", "4", "--signature", "2,1,1", "--seed", "11", "--quiet")),
    "gen_fixed_point_d3.json": (
        0, ("gen", "--dim", "3", "--signature", "2,1", "--seed", "5", "--fixed-point", "--quiet")
    ),
}


def pure_pair(theta, priors=(0.5, 0.5)):
    """Real qubit pair |0> and cos(theta)|0> + sin(theta)|1> (overlap cos theta)."""
    psi1 = np.array([1.0, 0.0])
    psi2 = np.array([np.cos(theta), np.sin(theta)])
    return validate_ensemble(list(priors), [np.outer(psi1, psi1), np.outer(psi2, psi2)])


def near_collinear(dim, signature, noise, seed):
    """LI ensemble whose state vectors all lie within ``noise`` of one direction.

    The same construction as the benchmark's stiff instances: the smaller the
    noise, the worse conditioned the average state.
    """
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    base /= np.linalg.norm(base)
    states = []
    for r in signature:
        vecs = []
        for _ in range(r):
            g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            x = base + noise * g / np.linalg.norm(g)
            vecs.append(x / np.linalg.norm(x))
        lam = rng.uniform(0.25, 1.0, size=r)
        lam /= lam.sum()
        rho = sum(weight * np.outer(x, x.conj()) for weight, x in zip(lam, vecs))
        states.append((rho + rho.conj().T) / 2)
    return validate_ensemble(rng.dirichlet(np.ones(len(signature))), states)


def angle_measurement(phi):
    """Projective qubit pair {P(phi), Id - P(phi)} with P onto (cos phi, sin phi)."""
    v = np.array([np.cos(phi), np.sin(phi)])
    proj = np.outer(v, v)
    return validate_projective([proj, np.eye(2) - proj])


def qubit_angle_oracle(ensemble, grid=4001, refine_iters=120):
    """Independent brute-force maximization over one real measurement angle.

    Only valid for real-entry qubit pairs, where the optimal projective pair
    lies on the real circle. Grid scan plus golden-section refinement; shares
    no code with the package solvers.
    """
    p1, p2 = ensemble.priors
    rho1, rho2 = ensemble.states
    eye = np.eye(2)

    def value(phi):
        v = np.array([np.cos(phi), np.sin(phi)])
        proj = np.outer(v, v)
        return float(
            p1 * np.trace(rho1 @ proj).real + p2 * np.trace(rho2 @ (eye - proj)).real
        )

    phis = np.linspace(0.0, np.pi, grid)
    values = [value(phi) for phi in phis]
    best = int(np.argmax(values))
    a = phis[max(best - 1, 0)]
    b = phis[min(best + 1, grid - 1)]
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = value(c), value(d)
    for _ in range(refine_iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = value(d)
    phi = (a + b) / 2.0
    return value(phi), phi
