import os
import pathlib
import subprocess
import sys

import numpy as np

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from medli import validate_ensemble, validate_projective  # noqa: E402
from medli.linalg import DEFAULT_TOL, haar_unitary  # noqa: E402
from medli.solver import _restart  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

ORTH = str(FIXTURES / "orthogonal_pair.json")
PI6 = str(FIXTURES / "theta_pi6_pair.json")
FIXED = str(FIXTURES / "fixed_point_d3.json")
RANDOM_D4 = str(FIXTURES / "random_d4.json")
MALFORMED = str(FIXTURES / "malformed.json")
# pure_pair(1e-6): cond(sigma) 4.0e12, beyond COND_LIMIT
NEAR_SINGULAR = str(FIXTURES / "near_singular_pair.json")

# Golden report name -> (expected exit code, CLI argv). Each report is the
# command's byte-exact stdout; UPDATE_GOLDEN=1 pytest tests/test_cli.py
# regenerates them after an intentional output change.
GOLDEN_CASES = {
    "solve_orthogonal.json": (0, ("solve", ORTH, "--seed", "0", "--quiet")),
    "solve_oracle_pi6.json": (0, ("solve", PI6, "--oracle", "--seed", "0", "--quiet")),
    "fixpoint_fixed_d3.json": (0, ("fixpoint", FIXED, "--quiet")),
    "map_inverse_random_d4.json": (0, ("map", RANDOM_D4, "--direction", "inverse", "--quiet")),
    "roundtrip_random_d4.json": (0, ("roundtrip", RANDOM_D4, "--quiet")),
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


def run_cli(*argv):
    """Run ``python -m medli`` in a child process; returns (exit code, stdout bytes, stderr text).

    PYTHONWARNINGS=error makes every warning in the child fail it, as pytest's
    filterwarnings setting does in this process.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONWARNINGS="error")
    proc = subprocess.run([sys.executable, "-m", "medli", *argv], capture_output=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr.decode()


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


def range_projectors(ensemble):
    """Projectors onto the top r_i eigenvectors of each state."""
    tops = [
        np.linalg.eigh(rho)[1][:, -r:] for rho, r in zip(ensemble.states, ensemble.rank_signature)
    ]
    return [top @ top.conj().T for top in tops]


def gu_pure(dim, seed):
    """Pure geometrically uniform ensemble and its seed vector psi_0.

    psi_k = U^k psi_0 for k < dim, with U = diag(omega^j), omega = e^{2 pi i / dim},
    a seeded normalized psi_0 and equal priors. Every amplitude of psi_0 is
    nonzero, so the ensemble is LI, and its PGM is optimal with success
    probability (sum_j |psi_0j|)^2 / dim (Ban, Kurokawa, Momose, Hirota,
    IJTP 36, 1269 (1997)).
    """
    rng = np.random.default_rng(seed)
    psi0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi0 /= np.linalg.norm(psi0)
    j = np.arange(dim)
    vecs = [np.exp(2j * np.pi * (j * k % dim) / dim) * psi0 for k in range(dim)]
    return validate_ensemble(np.full(dim, 1.0 / dim), [np.outer(v, v.conj()) for v in vecs]), psi0


def gu_mixed(dim, m, rank, seed):
    """Mixed geometrically uniform ensemble rho_k = U^k rho_0 U^{-k}, k < m, and U.

    U = diag(e^{2 pi i (j mod m) / m}) has order m, rho_0 is a seeded
    rank-``rank`` density matrix (m * rank == dim) and the priors are equal.
    """
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho0 = vecs @ vecs.conj().T
    rho0 = (rho0 + rho0.conj().T) / (2 * np.trace(rho0).real)
    u = np.diag(np.exp(2j * np.pi * (np.arange(dim) % m) / m))
    states = [np.linalg.matrix_power(u, k) @ rho0 @ np.linalg.matrix_power(u, -k) for k in range(m)]
    return validate_ensemble(np.full(m, 1.0 / m), [(s + s.conj().T) / 2 for s in states]), u


def haar_restart(ensemble, seed):
    """One ``solve`` restart from the first Haar unitary of ``default_rng(seed)``."""
    u0 = haar_unitary(ensemble.dim, np.random.default_rng(seed))
    return _restart(ensemble, u0, DEFAULT_TOL)


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
