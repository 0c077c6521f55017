"""Certified solvers for the discrimination optimum.

``solve`` runs gradient ascent over the manifold of rank-compatible
projective measurements (parameterized as column-block partitions of a
unitary), followed by a Newton polish of the stationarity equation, and
accepts a result only when the simplified certificate says Optimal: the
certificate is the acceptance authority, not the optimizer's convergence
flag, because the simplified condition is an iff for this problem class.

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

from .belavkin import DualCertificate, dual_operator
from .certify import OPTIMAL, CertificationReport, certify_simplified
from .ensembles import (
    Ensemble,
    ProjectiveMeasurement,
    check_signature,
    success_probability,
    validate_ensemble,
    validate_projective,
)
from .errors import (
    BudgetExceeded,
    MEDError,
    NoConvergence,
    NotTwoState,
    PDConstructionFailed,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    expi_herm,
    haar_unitary,
    herm,
    is_pd,
    orthonormalize,
    random_hermitian,
)
from .pgm import pgm

# Certified results must close the duality gap to this bound.
GAP_BOUND = 1e-8

# Ascent stops below this gradient norm or once a step would shrink below
# MIN_STEP; a step is accepted on the Armijo condition with constant ARMIJO.
GRAD_TOL = 1e-7
MIN_STEP = 1e-14
ARMIJO = 1e-4
# Newton polish runs at most this many rounds.
POLISH_ROUNDS = 60


@dataclass(frozen=True)
class SolveConfig:
    restarts: int = 16
    seed: int = 0
    max_iters: int = 500
    include_pgm_start: bool = True


@dataclass(frozen=True)
class SolveResult:
    """A candidate optimum with its certificate.

    ``certified`` is True only when the simplified certificate reports
    Optimal and the duality gap |success_prob - dual_value| closes within
    1e-8. ``iterations`` counts accepted ascent steps for ``solve`` and
    objective evaluations for ``solve_oracle``.
    """

    measurement: ProjectiveMeasurement
    certificate: DualCertificate
    report: CertificationReport
    success_prob: float
    iterations: int
    certified: bool


def _signature_slices(signature) -> list[slice]:
    slices = []
    start = 0
    for r in signature:
        slices.append(slice(start, start + r))
        start += r
    return slices


def _projectors_from_unitary(u: np.ndarray, slices) -> list[np.ndarray]:
    return [herm(u[:, s] @ u[:, s].conj().T) for s in slices]


def _objective(weighted, projectors) -> float:
    return float(sum(np.trace(w @ p).real for w, p in zip(weighted, projectors)))


def _commutator(weighted, projectors) -> np.ndarray:
    """sum_i [Pi_i, p_i rho_i]: anti-Hermitian, zero exactly at stationary measurements."""
    grad = np.zeros_like(projectors[0])
    for w, p in zip(weighted, projectors):
        grad += p @ w - w @ p
    return grad


def _ascend(weighted, u0, slices, cfg: SolveConfig):
    """Armijo-backtracked gradient ascent along unitary left-multipliers.

    Returns the final unitary, the trace of accepted objective values, and
    the number of accepted steps. The ascent direction is the commutator
    gradient sum_i p_i [Pi_i, rho_i]; it vanishes exactly at stationary
    measurements.
    """
    u = u0
    projectors = _projectors_from_unitary(u, slices)
    value = _objective(weighted, projectors)
    values = [value]
    step = 0.5
    accepted = 0
    for _ in range(cfg.max_iters):
        grad = _commutator(weighted, projectors)
        grad_sq = float(np.linalg.norm(grad) ** 2)
        if np.sqrt(grad_sq) <= GRAD_TOL:
            break
        # e^{-t G} with G anti-Hermitian equals e^{i t H} for H = 1j * G
        direction = herm(1j * grad)
        moved = False
        while step >= MIN_STEP:
            candidate = expi_herm(direction, step) @ u
            cand_projs = _projectors_from_unitary(candidate, slices)
            cand_value = _objective(weighted, cand_projs)
            if cand_value >= value + ARMIJO * step * grad_sq:
                u, projectors, value = candidate, cand_projs, cand_value
                values.append(value)
                accepted += 1
                step = min(step * 2.0, 2.0)
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return u, values, accepted


def _hermitian_generators(dim: int) -> list[np.ndarray]:
    """Hermitian basis with entries of modulus 1.

    The d diagonal units come first, then per k < j a real and an imaginary
    off-diagonal generator. The Newton polish and the oracle's pattern search
    both use it; sharing the basis shares no search code.
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


def _gradient_matrix(weighted, u: np.ndarray, slices) -> np.ndarray:
    """Riemannian gradient of the objective as a Hermitian matrix.

    Moving along exp(i t H) u changes the objective at first order by
    t * Tr(H Mg), so Mg = 0 exactly at stationary measurements.
    """
    return herm(1j * _commutator(weighted, _projectors_from_unitary(u, slices)))


def _polish(weighted, u: np.ndarray, slices) -> np.ndarray:
    """Newton refinement of the stationarity equation on the unitary group.

    First-order ascent stalls once objective increments drop below float
    resolution (they scale with the squared residual), so the endgame solves
    gradient = 0 directly: the Hessian is formed by central differences of
    the gradient along an orthonormal Hermitian basis and steps are accepted
    on gradient-norm decrease, which is measurable down to machine epsilon.
    Stabilizer directions make the Hessian singular; the pseudo-inverse
    ignores them since the gradient has no component there.
    """
    dim = u.shape[0]
    # orthonormal under Tr(A B): the off-diagonal generators scaled by 1/sqrt(2)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    basis = [g if b < dim else g * inv_sqrt2 for b, g in enumerate(_hermitian_generators(dim))]
    eps = 1e-5

    def grad_vector(mat_u: np.ndarray) -> np.ndarray:
        mg = _gradient_matrix(weighted, mat_u, slices)
        return np.array([float(np.trace(h @ mg).real) for h in basis])

    for _ in range(POLISH_ROUNDS):
        grad = grad_vector(u)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-13:
            break
        hess = np.empty((len(basis), len(basis)))
        for b, h in enumerate(basis):
            plus = grad_vector(expi_herm(h, eps) @ u)
            minus = grad_vector(expi_herm(h, -eps) @ u)
            hess[:, b] = (plus - minus) / (2.0 * eps)
        hess = (hess + hess.T) / 2.0
        step = -np.linalg.pinv(hess, rcond=1e-12, hermitian=True) @ grad
        norm = float(np.linalg.norm(step))
        if norm > 0.3:
            step *= 0.3 / norm
        accepted = False
        for _ in range(8):
            direction = sum(s * h for s, h in zip(step, basis))
            candidate = expi_herm(direction) @ u
            if float(np.linalg.norm(grad_vector(candidate))) < gnorm:
                u = candidate
                accepted = True
                break
            step /= 2.0
        if not accepted:
            break
    return u


def _finish(ensemble: Ensemble, projectors, iterations: int, tol: Tolerances) -> SolveResult:
    measurement = validate_projective(projectors, tol)
    certificate = dual_operator(ensemble, measurement, tol)
    report = certify_simplified(ensemble, measurement, tol)
    prob = success_probability(ensemble, measurement, tol)
    certified = report.verdict == OPTIMAL and abs(prob - report.dual_value) <= GAP_BOUND
    return SolveResult(
        measurement=measurement,
        certificate=certificate,
        report=report,
        success_prob=prob,
        iterations=iterations,
        certified=certified,
    )


def solve(ensemble: Ensemble, config: SolveConfig | None = None, tol: Tolerances = DEFAULT_TOL) -> SolveResult:
    """Certified ascent over rank-compatible projective measurements.

    Restarts include the PGM of the ensemble as a warm start (exact at fixed
    points, near-optimal elsewhere) plus seeded random unitaries. Stops at
    the first certified restart; an uncertified best-effort result is
    returned when no restart certifies.
    """
    cfg = config or SolveConfig()
    slices = _signature_slices(ensemble.rank_signature)
    weighted = ensemble.weighted_states()
    rng = np.random.default_rng(cfg.seed)

    starts: list[np.ndarray] = []
    if cfg.include_pgm_start:
        try:
            warm = pgm(ensemble, tol)
            cols = []
            for proj, r in zip(warm.projectors, warm.rank_signature):
                _, v = np.linalg.eigh(proj)
                cols.append(v[:, ensemble.dim - r :])
            starts.append(orthonormalize(np.hstack(cols)))
        except MEDError:
            pass
    while len(starts) < max(1, cfg.restarts):
        starts.append(haar_unitary(ensemble.dim, rng))

    best: SolveResult | None = None
    failures: list[str] = []
    for u0 in starts:
        try:
            u, _, accepted = _ascend(weighted, u0, slices, cfg)
            raw_value = _objective(weighted, _projectors_from_unitary(u, slices))
            polished = _polish(weighted, u, slices)
            if _objective(weighted, _projectors_from_unitary(polished, slices)) >= raw_value - 1e-12:
                u = polished
            result = _finish(ensemble, _projectors_from_unitary(u, slices), accepted, tol)
        except MEDError as exc:
            failures.append(str(exc))
            continue
        if best is None or (result.certified, result.success_prob) > (
            best.certified,
            best.success_prob,
        ):
            best = result
        if result.certified:
            break
    if best is None:
        raise NoConvergence(
            f"every restart failed numerically: {failures[-1] if failures else 'no starts'}"
        )
    return best


def solve_oracle(
    ensemble: Ensemble,
    budget: int = 200_000,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> SolveResult:
    """Brute-force search for tiny instances (dim <= 4, m <= 3).

    A seeded sample grid over the adapting unitary picks starting points;
    each is refined by derivative-free pattern search over the generator
    coordinates of left-multiplied exp(i theta H_a) factors, then by Newton
    steps on a quadratic model built from objective samples. Certification
    still goes through the simplified certificate; the search path is
    deliberately independent of the gradient machinery in ``solve``.
    """
    if ensemble.dim > 4 or ensemble.m > 3:
        raise BudgetExceeded(
            f"oracle is limited to dim <= 4 and m <= 3, got dim {ensemble.dim}, m {ensemble.m}"
        )
    slices = _signature_slices(ensemble.rank_signature)
    weighted = ensemble.weighted_states()
    rng = np.random.default_rng(seed)
    evals = 0

    def value_of(u: np.ndarray) -> float:
        nonlocal evals
        if evals >= budget:
            raise BudgetExceeded(f"oracle budget of {budget} evaluations exhausted")
        evals += 1
        return _objective(weighted, _projectors_from_unitary(u, slices))

    grid_size = min(max(64, 40 * ensemble.dim * ensemble.dim), budget // 8)
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
    return _finish(ensemble, _projectors_from_unitary(best_u, slices), evals, tol)


def _sampled_quadratic_refine(u, generators, factor, value_of, rounds: int = 3):
    """Endgame for the oracle: Newton steps on a sampled quadratic model.

    Pattern search stalls once objective differences sink below float
    resolution (they scale with the squared distance to the optimum).
    Gradient and Hessian are estimated here purely from objective samples
    (central differences, 7-point cross terms), keeping the oracle free of
    the analytic gradient formulas used by ``solve``.
    """
    n = len(generators)
    for round_idx in range(rounds):
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
    rng = np.random.default_rng(seed)
    slices = _signature_slices(sig)
    for scale in (0.5, 0.25, 0.1, 0.05):
        raw = random_hermitian(dim, rng)
        off = raw.copy()
        for s in slices:
            off[s, s] = 0.0
        off = herm(off)
        spectral = float(np.abs(np.linalg.eigvalsh(off)).max()) if np.any(off) else 0.0
        base = np.eye(dim, dtype=complex)
        if spectral > 0.0:
            base = base + (scale / spectral) * off
        if not is_pd(base, tol):
            continue
        root = base / np.sqrt(float(np.trace(base @ base).real))
        w = haar_unitary(dim, rng)
        weighted = []
        for s in slices:
            proj = np.zeros((dim, dim), dtype=complex)
            proj[s, s] = np.eye(s.stop - s.start)
            weighted.append(herm(w @ (root @ proj @ root) @ w.conj().T))
        priors = [float(np.trace(x).real) for x in weighted]
        states = [x / p for x, p in zip(weighted, priors)]
        return validate_ensemble(priors, states, tol)
    raise PDConstructionFailed(f"no PD construction found for signature {sig}")


def helstrom_comparator(ensemble: Ensemble) -> float:
    """Optimal two-state success probability by spectral construction.

    Measures with the projector onto the nonnegative eigenspace of
    p_1 rho_1 - p_2 rho_2, which maximizes the success functional over
    projective pairs. Used as an independent scalar oracle for m = 2 and
    cross-checked against the search solvers in the tests.
    """
    if ensemble.m != 2:
        raise NotTwoState(f"comparator needs exactly 2 states, got {ensemble.m}")
    gap = herm(
        ensemble.priors[0] * ensemble.states[0] - ensemble.priors[1] * ensemble.states[1]
    )
    eigvals = np.linalg.eigvalsh(gap)
    return float(ensemble.priors[1] + eigvals[eigvals > 0.0].sum())
