"""Certified solvers for the discrimination optimum.

``solve`` searches the rank-compatible projective measurements (the
column-block partitions of a unitary U) from one deterministic start, the
PGM, or the identity past COND_LIMIT. Polar steps U <- polar(K U),
K = sum_i p_i rho_i Pi_i, each one d x d SVD of K U from
``ensembles._k_times``, drive K towards Hermitian PSD, the paper's
simplified optimality condition. Where they stall, Newton finishes in the
paper's coordinates: the optimum is the PGM of a reweighted ensemble
{Psi_i A_i Psi_i^dag} (Mochon, PRA 73, 032328 (2006)), a polar step is
such a reweighting, and Newton solves for it (``_residual``).
A result is certified only when the simplified certificate says Optimal: the
certificate is the acceptance authority, not the optimizer's convergence
flag, because the simplified condition is an iff for this problem class.
The optimum is unique, so an uncertified result gets no second start.

``solve_oracle`` is an independent brute-force check for tiny instances: a
seeded sample grid over unitaries plus derivative-free coordinate pattern
search. It shares no search machinery with ``solve``.

``generate_fixed_point`` builds ensembles whose PGM is provably optimal, for
use as test fixtures, and ``helstrom_comparator`` is the spectral two-state
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import OPTIMAL, CertificationReport, certify_simplified
from .ensembles import (
    Ensemble,
    ProjectiveMeasurement,
    _k_times,
    _Layout,
    _layout,
    _projectors_from_unitary,
    check_signature,
    validate_ensemble,
)
from .errors import BudgetExceeded, NotTwoState, SigmaSingular
from .linalg import DEFAULT_TOL, Tolerances, expi_herm, haar_unitary, herm, random_hermitian, seeded_rng
from .pgm import _frame, _measurement, _pgm_unitary

# A start takes at most this many polar steps before Newton.
POLAR_STEPS = 30

# Newton on the reweighting of Psi takes at most this many steps from a start.
NEWTON_ROUNDS = 200

# The oracle's sampled-quadratic endgame takes this many Newton steps.
REFINE_ROUNDS = 3

# The oracle raises BudgetExceeded after this many objective evaluations.
ORACLE_BUDGET = 200_000


@dataclass(frozen=True, eq=False)
class SolveResult:
    """A candidate optimum; its report alone holds the verdict, dual operator and success probability.

    ``certified`` reads the report: True exactly when the simplified
    certificate reports Optimal. For ``solve``, ``iterations`` counts the
    polar steps plus the accepted Newton steps on the reweighting of Psi of
    its one start (``_restart``); for ``solve_oracle`` it counts objective
    evaluations.
    """

    measurement: ProjectiveMeasurement
    report: CertificationReport
    iterations: int

    @property
    def certified(self) -> bool:
        return self.report.verdict == OPTIMAL

    @property
    def success_prob(self) -> float:
        return self.report.success_prob


def _objective(weighted, projectors) -> float:
    return float(sum(np.trace(w @ p).real for w, p in zip(weighted, projectors)))


def _hermitian_generators(dim: int) -> list[np.ndarray]:
    """Hermitian basis with entries of modulus 1.

    The d diagonal units come first, then per k < j a real and an imaginary
    off-diagonal generator. Only the oracle's pattern search uses it.
    """
    gens = []
    for k in range(dim):
        g = np.zeros((dim, dim), dtype=complex)
        g[k, k] = 1.0
        gens.append(g)
    for k in range(dim):
        for j in range(k + 1, dim):
            g = np.zeros((dim, dim), dtype=complex)
            g[k, j] = g[j, k] = 1.0
            gens.append(g)
            g = np.zeros((dim, dim), dtype=complex)
            g[k, j] = -1j
            g[j, k] = 1j
            gens.append(g)
    return gens


def _residual(psi: np.ndarray, layout: _Layout, b: np.ndarray):
    """(U, R, tau, J) at the block-diagonal reweighting B of Psi.

    One SVD Psi B = W Sigma V^dag gives U = W V^dag and S = V Sigma V^dag =
    (B^dag Psi^dag Psi B)^{1/2} (``pgm._frame``). Column block i of K U is Psi_i C_ii,
    C = Psi^dag U = B^{-dag} S, so column block i of K~ = U^dag K U is
    S_{:,i} (B_i^dag B_i)^{-1} S_ii. R holds the block entries of
    R_i = T_i / tau - I, T_i = B_i^{-dag} S_ii B_i^{-1}, tau = sum_i Tr T_i / d.
    At R = 0, S_ii = tau B_i^dag B_i, so K~ = tau S is Hermitian and PD: the
    simplified condition, at the PGM of {Psi_i B_i B_i^dag Psi_i^dag}. At
    B = I, the PGM, tau and tau ||R||_F are ``fixpoint_check``'s c and residual.

    J() is the Jacobian of R's coordinates in those of X along the chart
    B exp(X / 2): dS = V ((V^dag X V / 2) o H) V^dag, H_kl = (s_k^2 + s_l^2) /
    (s_k + s_l), and dT_i = B_i^{-dag} (dS_ii - (X_i S_ii + S_ii X_i) / 2) B_i^{-1}.
    Both are complex-linear in X's entries, so J is formed on unit entries,
    with one (N, d^2) product, N = sum_i r_i^2, and then made Hermitian.
    """
    rows, cols, flip, coef = layout.entries
    diag = rows == cols
    w, sigma, vh = np.linalg.svd(psi @ b)
    s = _frame(sigma, vh)
    inv = np.linalg.inv(b)
    t = (inv.conj().T @ s @ inv)[rows, cols]
    tau = float(t[diag].real.sum()) / len(b)

    def jacobian() -> np.ndarray:
        v = vh.conj().T
        h = (sigma[:, None] ** 2 + sigma**2) / (sigma[:, None] + sigma)
        p = (v[rows, :, None] * v[cols, None, :].conj()).reshape(len(rows), -1)
        ds = 0.5 * (p * h.ravel()) @ p.conj().T
        xs = (rows[:, None] == rows) * s[cols, cols[:, None]] + (cols[:, None] == cols) * s[rows[:, None], rows]
        dt = (inv[rows, rows[:, None]].conj() * inv[cols, cols[:, None]]) @ (ds - 0.5 * xs)
        dt = dt * coef + dt[:, flip] * coef.conj()
        dtau = dt[diag].real.sum(axis=0) / len(b)
        return layout.real(dt / tau - np.outer(t, dtau) / tau**2)

    return w @ vh, t / tau - diag, tau, jacobian


def _chart(b: np.ndarray, layout: _Layout, z: np.ndarray) -> np.ndarray:
    """B exp(X / 2) for the block-diagonal Hermitian X of coordinates z."""
    rows, cols, flip, coef = layout.entries
    x = np.zeros_like(b)
    x[rows, cols] = coef * z + (coef.conj() * z)[flip]
    w, v = np.linalg.eigh(x)
    return b @ layout.diagonal((v * np.exp(w / 2.0)) @ v.conj().T)


def _newton(psi: np.ndarray, layout: _Layout, b: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Newton on the reweighting B of Psi (``_residual``), in the chart B exp(X / 2).

    X is Hermitian and block-diagonal, sum_i r_i^2 reals: log b_i^2 for pure
    states. X = I only scales B, an exact null direction, so the step is a
    least-squares one, scaled to a max-norm of at most 2 and halved, at most
    30 times, until ||R||_F falls. Stops at ||R||_F <= 1e-13, at a step that
    cannot lower it, or after NEWTON_ROUNDS steps. Returns polar(Psi B) at
    the last B and ||R||_F after each accepted step, starting with B's own.
    """
    u, r, _, jacobian = _residual(psi, layout, b)
    norms = [float(np.linalg.norm(r))]
    for _ in range(NEWTON_ROUNDS):
        if norms[-1] <= 1e-13:
            break
        step = np.linalg.lstsq(jacobian(), -layout.real(r), rcond=None)[0]
        step *= 2.0 / max(2.0, float(np.abs(step).max()))
        for _ in range(31):
            candidate = _chart(b, layout, step)
            cand_u, cand_r, _, cand_jacobian = _residual(psi, layout, candidate)
            norm = float(np.linalg.norm(cand_r))
            if norm < norms[-1]:
                b, u, r, jacobian = candidate, cand_u, cand_r, cand_jacobian
                norms.append(norm)
                break
            step /= 2.0
        else:
            break
    return u, norms


def _polar_steps(stack: np.ndarray, u: np.ndarray, signature: tuple[int, ...]) -> tuple[np.ndarray, int, bool]:
    """Move U to polar(K U) until K = sum_i p_i rho_i Pi_i is Hermitian PSD.

    M = K U comes from ``_k_times`` in O(d^3), with no per-coordinate copy
    of the weighted stack. With the SVD M = A S B^dag the step is
    U <- A B^dag, which equals U polar(K~) for K~ = U^dag M, since
    polar(U Y) = U polar(Y) for unitary U; its defect
    ||polar(M) - U||_F = ||polar(K~) - I||_F vanishes exactly at the
    measurements the simplified optimality condition accepts. Each new Pi_j
    is the PGM of {p_j rho_j Pi_j rho_j p_j} (the Jezek-Rehacek-Fiurasek
    iteration), polar(Psi B) for the diagonal blocks B of Psi^dag U (``_Layout.diagonal``).

    Stops before a step once the defect is below 1e-13 (then the third
    value returned is True), once it exceeds half the previous one (the
    iteration has slowed to a crawl and Newton takes over), or after
    POLAR_STEPS steps; an optimal start is never moved.
    """
    previous = np.inf
    steps = 0
    while steps < POLAR_STEPS:
        left, _, right = np.linalg.svd(_k_times(stack, signature, u))
        moved = left @ right
        defect = float(np.linalg.norm(moved - u))
        if defect < 1e-13:
            return u, steps, True
        if defect > previous / 2.0:
            break
        u = moved
        previous = defect
        steps += 1
    return u, steps, False


def _finish(ensemble: Ensemble, u: np.ndarray, iterations: int, tol: Tolerances) -> SolveResult:
    """Certify the measurement of u's column blocks, u itself; ``_measurement`` checks u is unitary."""
    measurement = _measurement(u, ensemble, tol)
    report = certify_simplified(ensemble, measurement, tol)
    return SolveResult(measurement, report, iterations)


def _restart(ensemble: Ensemble, u0, tol: Tolerances) -> SolveResult:
    """One start from u0: polar steps, then Newton on the reweighting of Psi, then the certificate.

    Newton runs only if the polar steps stop short of a defect of 1e-13, from
    the reweighting of their next step. Any unitary u0 is a start: the
    optimum is unique, so every certified start reaches it.
    """
    u, steps, settled = _polar_steps(ensemble.weighted_states(), u0, ensemble.rank_signature)
    if not settled:
        layout = _layout(ensemble.rank_signature)
        u, norms = _newton(ensemble.psi, layout, layout.diagonal(ensemble.psi.conj().T @ u))
        steps += len(norms) - 1
    return _finish(ensemble, u, steps, tol)


def solve(ensemble: Ensemble, tol: Tolerances = DEFAULT_TOL) -> SolveResult:
    """Certified optimum over rank-compatible projective measurements.

    One deterministic start (``_restart``): polar steps, then Newton on the
    reweighting of Psi where they stall, then the certificate. For an
    LI ensemble the optimum is unique and the simplified condition is an
    iff, so another start could only reach the same point. The start is the
    PGM of the ensemble (exact at fixed points, near-optimal elsewhere);
    past COND_LIMIT, where ``_pgm_unitary`` refuses sigma, it is the
    identity. The result is returned certified or not, and a MEDError of
    the start propagates.
    """
    try:
        u0 = _pgm_unitary(ensemble)
    except SigmaSingular:
        u0 = np.eye(ensemble.dim, dtype=complex)
    return _restart(ensemble, u0, tol)


def check_oracle_size(ensemble: Ensemble) -> None:
    """Raise BudgetExceeded unless the ensemble is small enough for ``solve_oracle``."""
    if ensemble.dim > 4 or ensemble.m > 3:
        raise BudgetExceeded(
            f"oracle is limited to dim <= 4 and m <= 3, got dim {ensemble.dim}, m {ensemble.m}"
        )


def solve_oracle(
    ensemble: Ensemble, *, seed: int = 0, tol: Tolerances = DEFAULT_TOL
) -> SolveResult:
    """Brute-force search for tiny instances (dim <= 4, m <= 3).

    A seeded sample grid over the adapting unitary picks starting points;
    each is refined by derivative-free pattern search over the generator
    coordinates of left-multiplied exp(i theta H_a) factors, then by Newton
    steps on a quadratic model built from objective samples. Certification
    still goes through the simplified certificate; the search path is
    deliberately independent of the Newton machinery in ``solve``.
    """
    check_oracle_size(ensemble)
    weighted = ensemble.weighted_states()
    rng = seeded_rng(seed)
    evals = 0

    def value_of(u: np.ndarray) -> float:
        nonlocal evals
        if evals >= ORACLE_BUDGET:
            raise BudgetExceeded(f"oracle budget of {ORACLE_BUDGET} evaluations exhausted")
        evals += 1
        return _objective(weighted, _projectors_from_unitary(u, ensemble.rank_signature))

    grid_size = max(64, 40 * ensemble.dim * ensemble.dim)
    grid = [np.eye(ensemble.dim, dtype=complex)]
    grid += [haar_unitary(ensemble.dim, rng) for _ in range(grid_size - 1)]
    scored = sorted(((value_of(u), idx) for idx, u in enumerate(grid)), reverse=True)
    seeds = [grid[idx] for _, idx in scored[:3]]

    generators = _hermitian_generators(ensemble.dim)
    factor_cache: dict[tuple[int, float, int], np.ndarray] = {}

    def factor(a: int, step: float, sign: int) -> np.ndarray:
        key = (a, step, sign)
        if key not in factor_cache:
            factor_cache[key] = expi_herm(generators[a], sign * step)
        return factor_cache[key]

    best_u = None
    best_value = -np.inf
    for u0 in seeds:
        u = u0
        value = value_of(u)
        step = 0.4
        while step > 1e-4:
            improved = False
            for a in range(len(generators)):
                for sign in (1, -1):
                    candidate = factor(a, step, sign) @ u
                    cand_value = value_of(candidate)
                    if cand_value > value + 1e-15:
                        u, value = candidate, cand_value
                        improved = True
            if not improved:
                step *= 0.5
        u = _sampled_quadratic_refine(u, generators, factor, value_of)
        value = value_of(u)
        if value > best_value:
            best_u, best_value = u, value
    return _finish(ensemble, best_u, evals, tol)


def _sampled_quadratic_refine(u, generators, factor, value_of):
    """Endgame for the oracle: Newton steps on a sampled quadratic model.

    Pattern search stalls once objective differences sink below float
    resolution (they scale with the squared distance to the optimum).
    Gradient and Hessian are estimated here purely from objective samples
    (central differences, 7-point cross terms), keeping the oracle free of
    the analytic gradient formulas used by ``solve``.
    """
    n = len(generators)
    for round_idx in range(REFINE_ROUNDS):
        h = 1e-4 if round_idx == 0 else 1e-5
        f0 = value_of(u)
        f_plus = np.empty(n)
        f_minus = np.empty(n)
        for a in range(n):
            f_plus[a] = value_of(factor(a, h, 1) @ u)
            f_minus[a] = value_of(factor(a, h, -1) @ u)
        grad = (f_plus - f_minus) / (2.0 * h)
        hess = np.diag((f_plus - 2.0 * f0 + f_minus) / h**2)
        for a in range(n):
            for b in range(a + 1, n):
                fpp = value_of(factor(a, h, 1) @ factor(b, h, 1) @ u)
                fmm = value_of(factor(a, h, -1) @ factor(b, h, -1) @ u)
                hess[a, b] = hess[b, a] = (
                    fpp - f_plus[a] - f_plus[b] + 2.0 * f0 - f_minus[a] - f_minus[b] + fmm
                ) / (2.0 * h**2)
        step = -np.linalg.pinv(hess, rcond=1e-10, hermitian=True) @ grad
        norm = float(np.linalg.norm(step))
        if norm > 1e-2:
            step *= 1e-2 / norm
        if norm == 0.0:
            break
        direction = sum(s * g for s, g in zip(step, generators))
        u = expi_herm(direction) @ u
    return u


def generate_fixed_point(dim: int, rank_signature, seed: int, tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    """Ensemble whose PGM is its own certified optimal measurement.

    Construction: a PD matrix S with Tr S^2 = 1 whose diagonal blocks (in the
    coordinate partition of the signature) are multiples of the identity, so
    that pinching S by the coordinate projectors is a multiple of Id. Setting
    p_i rho_i = S Pi_i S makes S the square root of the average state and the
    coordinate projectors the PGM. A seeded Haar unitary then hides the
    structure.
    """
    sig = check_signature(dim, rank_signature)
    rng = seeded_rng(seed)
    off = random_hermitian(dim, rng)
    off -= _layout(sig).diagonal(off)
    # off != 0 (two or more blocks); scaled to norm 0.5, base's eigenvalues lie in [0.5, 1.5]
    spectral = float(np.abs(np.linalg.eigvalsh(off)).max())
    base = np.eye(dim, dtype=complex) + (0.5 / spectral) * off
    root = base / np.sqrt(float(np.trace(base @ base).real))
    w = haar_unitary(dim, rng)
    coords = _projectors_from_unitary(np.eye(dim), sig)
    weighted = herm(w @ (root @ coords @ root) @ w.conj().T)
    priors = np.trace(weighted, axis1=1, axis2=2).real
    return validate_ensemble(priors, weighted / priors[:, None, None], tol)


def helstrom_comparator(ensemble: Ensemble) -> float:
    """Optimal two-state success probability by spectral construction.

    Measures with the projector onto the nonnegative eigenspace of
    p_1 rho_1 - p_2 rho_2, which maximizes the success functional over
    projective pairs. Used as an independent scalar oracle for m = 2 and
    cross-checked against the search solvers in the tests.
    """
    if ensemble.m != 2:
        raise NotTwoState(f"comparator needs exactly 2 states, got {ensemble.m}")
    weighted = ensemble.weighted_states()
    gap = herm(weighted[0] - weighted[1])
    eigvals = np.linalg.eigvalsh(gap)
    return float(ensemble.priors[1] + eigvals[eigvals > 0.0].sum())
