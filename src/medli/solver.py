"""Certified solvers for the discrimination optimum.

``solve`` searches the manifold of rank-compatible projective measurements
(parameterized as column-block partitions of a unitary). Each restart, from
the PGM and then from seeded Haar unitaries, reads M = K U with
K = sum_i p_i rho_i Pi_i from ``ensembles._k_times``, which also forms the
certificate's W L: column block i of M is W_i U_i, W_i = p_i rho_i, one
batched mat-vec per run of equal ranks, with no W_i copied per coordinate
and no frame U^dag W_i U formed. Polar steps U <- polar(K U), one d x d SVD
each and O(d^3) in all, drive K towards Hermitian PSD, the paper's
simplified optimality condition. A saddle-free Riemannian Newton ascent on
Re Tr K~, K~ = U^dag K U, finishes, building its Hessian only where the
polar steps stall; its gradient norm is the certificate's hermiticity
residual.
It accepts a result only when the simplified certificate says Optimal: the
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

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .certify import OPTIMAL, CertificationReport, certify_simplified
from .ensembles import (
    Ensemble,
    ProjectiveMeasurement,
    _frozen,
    _k_times,
    _projectors_from_unitary,
    _signature_slices,
    check_signature,
    validate_ensemble,
)
from .errors import BudgetExceeded, MEDError, NoConvergence, NotTwoState
from .linalg import DEFAULT_TOL, Tolerances, expi_herm, haar_unitary, herm, random_hermitian
from .pgm import _measurement, _pgm_unitary

# Each restart takes at most this many polar steps before Newton.
POLAR_STEPS = 30

# Newton ascent runs at most this many rounds per restart.
NEWTON_ROUNDS = 60

# The oracle's sampled-quadratic endgame takes this many Newton steps.
REFINE_ROUNDS = 3

# The oracle raises BudgetExceeded after this many objective evaluations.
ORACLE_BUDGET = 200_000


@dataclass(frozen=True)
class SolveConfig:
    restarts: int = 16
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            # bool is an Integral, but True is no count of restarts nor a seed
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


@dataclass(frozen=True, eq=False)
class SolveResult:
    """A candidate optimum; its report alone holds the verdict, dual operator and success probability.

    ``certified`` reads the report: True exactly when the simplified
    certificate reports Optimal. For ``solve``, ``iterations`` counts the
    polar steps plus the accepted Newton steps of the restart that returned
    it (``_restart``); for ``solve_oracle`` it counts objective evaluations.
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


@dataclass(frozen=True, eq=False)
class _Horizontal:
    """Coordinates of the horizontal directions for one rank signature.

    Coordinate a lies in block l(a) of the ``signature``. The horizontal
    generators are the Hermitian K with K_ab != 0 only where l(a) != l(b);
    for each such pair a < b (``rows``, ``cols``) K_ab = (x + i y) / sqrt(2),
    so the real vector z = [x; y] is orthonormal under the trace inner
    product. One read-only space is built per signature and shared by all.
    """

    signature: tuple[int, ...]
    rows: np.ndarray
    cols: np.ndarray

    def generator(self, z: np.ndarray) -> np.ndarray:
        """The Hermitian K with coordinates z."""
        n = len(self.rows)
        dim = sum(self.signature)
        k = np.zeros((dim, dim), dtype=complex)
        k[self.rows, self.cols] = (z[:n] + 1j * z[n:]) / np.sqrt(2.0)
        return k + k.conj().T

    def value_and_gradient(self, k: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective Re Tr K~ and its gradient in z, from K~ = U^dag K U.

        Moving to U exp(iK) changes the objective at first order by Tr(G K), with
        G = i (K~^dag - K~) off the diagonal blocks: Hermitian, zero exactly at
        stationary points.
        """
        value = float(k.diagonal().real.sum())
        g = 1j * (k[self.cols, self.rows].conj() - k[self.rows, self.cols])
        return value, np.sqrt(2.0) * np.concatenate([g.real, g.imag])

    def hessian(self, tilde: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Hessian in z of the objective along U exp(iK), from the frame and K~.

        ``tilde`` is the frame stack W~_i = U^dag W_i U of the weighted states.
        The second-order term is Tr(L(K) K) / 2 with
        L(K) = -sum_i [[K, E_i], W~_i] = -(K (K~^dag - V_a) + (K~ - V_b) K)
        at entry (a, b), where V_a = W~_{l(a)}, W~_i repeated r_i times. Its
        matrix S on the horizontal entries is gathered from two (d, d, d)
        stacks, then mapped to z.
        """
        v = tilde.repeat(self.signature, axis=0)
        right = k.conj().T[None, :, :] - v
        left = k[None, :, :] - v
        # entries (a, b): the upper ones, then their transposes
        ra = np.concatenate([self.rows, self.cols])
        rb = np.concatenate([self.cols, self.rows])
        a, b = ra[:, None], rb[:, None]
        c, e = ra[None, :], rb[None, :]
        s = -np.where(a == c, right[a, e, b], 0.0) - np.where(b == e, left[b, a, c], 0.0)
        n = len(self.rows)
        s11, s12, s21, s22 = s[:n, :n], s[:n, n:], s[n:, :n], s[n:, n:]
        # Re(A^dag S A) with A = [[I, iI], [I, -iI]] / sqrt(2) mapping z to the entries
        hess = 0.5 * np.block(
            [
                [(s11 + s12 + s21 + s22).real, (1j * (s11 - s12 + s21 - s22)).real],
                [(1j * (s21 + s22 - s11 - s12)).real, (s11 - s12 - s21 + s22).real],
            ]
        )
        return (hess + hess.T) / 2.0


@functools.lru_cache(maxsize=None)
def _horizontal(signature: tuple[int, ...]) -> _Horizontal:
    """The coordinate space of one rank signature, built once and shared read-only."""
    labels = np.repeat(np.arange(len(signature)), signature)
    rows, cols = np.triu_indices(len(labels), 1)
    keep = labels[rows] != labels[cols]
    return _Horizontal(signature, _frozen(rows[keep]), _frozen(cols[keep]))


def _newton(stack: np.ndarray, u: np.ndarray, space: _Horizontal) -> tuple[np.ndarray, list[float]]:
    """Saddle-free Riemannian Newton ascent over rank-compatible measurements.

    Works in the frame of the current unitary: the projectors are
    U E_i U^dag with E_i the coordinate projectors of the signature, and each
    step moves U to U exp(iK) along a horizontal generator K (stabilizer
    directions leave every projector fixed and are never parameterized).
    Value, gradient and every line-search trial read only K~ = U^dag (K U),
    K U from ``_k_times`` in O(d^3); the frame stack U^dag W_i U of the
    weighted states is formed only when a Hessian is built, once per round.
    The step divides the gradient by the absolute Hessian eigenvalues, so it
    ascends at saddles too, and is clamped to norm 0.3. A step is accepted on
    an Armijo increase, or, once objective increments sink below float
    resolution, when the objective holds within 1e-15 and the gradient norm
    falls; otherwise it is halved, at most 30 times.

    Returns the final unitary and the objective after each accepted step,
    starting with the initial value.
    """

    def read(mat_u):
        k = mat_u.conj().T @ _k_times(stack, space.signature, mat_u)
        return (k, *space.value_and_gradient(k))

    k, value, grad = read(u)
    values = [value]
    for _ in range(NEWTON_ROUNDS):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-13:
            break
        eigvals, eigvecs = np.linalg.eigh(space.hessian(u.conj().T @ stack @ u, k))
        scale = np.maximum(np.abs(eigvals), 1e-12 * float(np.abs(eigvals).max()))
        step = eigvecs @ ((eigvecs.T @ grad) / scale)
        norm = float(np.linalg.norm(step))
        if norm > 0.3:
            step *= 0.3 / norm
        for _ in range(31):
            candidate = u @ expi_herm(space.generator(step))
            cand_k, cand_value, cand_grad = read(candidate)
            rise = cand_value - value
            if rise >= 1e-4 * float(grad @ step) or (
                rise >= -1e-15 and float(np.linalg.norm(cand_grad)) < gnorm
            ):
                u, k, value, grad = candidate, cand_k, cand_value, cand_grad
                values.append(value)
                break
            step /= 2.0
        else:
            break
    return u, values


def _polar_steps(stack: np.ndarray, u: np.ndarray, space: _Horizontal) -> tuple[np.ndarray, int]:
    """Move U to polar(K U) until K = sum_i p_i rho_i Pi_i is Hermitian PSD.

    M = K U comes from ``_k_times`` in O(d^3), with no per-coordinate copy
    of the weighted stack. With the SVD M = A S B^dag the step is
    U <- A B^dag, which equals U polar(K~) for K~ = U^dag M, since
    polar(U Y) = U polar(Y) for unitary U; its defect
    ||polar(M) - U||_F = ||polar(K~) - I||_F vanishes exactly at the
    measurements the simplified optimality condition accepts. Each new Pi_j
    is the PGM of {p_j rho_j Pi_j rho_j p_j} (the Jezek-Rehacek-Fiurasek
    iteration).

    Stops before a step once the defect is below 1e-13, once it exceeds
    half the previous one (the iteration has slowed to a crawl and Newton
    takes over), or after POLAR_STEPS steps; an optimal start is never
    moved. Returns the unitary and the number of steps taken.
    """
    previous = np.inf
    steps = 0
    while steps < POLAR_STEPS:
        left, _, right = np.linalg.svd(_k_times(stack, space.signature, u))
        moved = left @ right
        defect = float(np.linalg.norm(moved - u))
        if defect < 1e-13 or defect > previous / 2.0:
            break
        u = moved
        previous = defect
        steps += 1
    return u, steps


def _finish(ensemble: Ensemble, u: np.ndarray, iterations: int, tol: Tolerances) -> SolveResult:
    """Certify the measurement of u's column blocks, u itself; ``_measurement`` checks u is unitary."""
    measurement = _measurement(u, ensemble, tol)
    report = certify_simplified(ensemble, measurement, tol)
    return SolveResult(measurement, report, iterations)


def _restart(ensemble: Ensemble, stack, space: _Horizontal, u0, tol: Tolerances) -> SolveResult:
    """One restart from u0: polar steps, then Newton ascent, then the certificate."""
    u, steps = _polar_steps(stack, u0, space)
    u, values = _newton(stack, u, space)
    return _finish(ensemble, u, steps + len(values) - 1, tol)


def _starts(ensemble: Ensemble, cfg: SolveConfig):
    """The PGM start, then seeded Haar unitaries.

    Yields cfg.restarts starts, each built only when a restart uses it. Past
    COND_LIMIT ``_pgm_unitary`` refuses sigma, so every start is a Haar unitary.
    """
    try:
        starts = [_pgm_unitary(ensemble)]
    except MEDError:
        starts = []
    yield from starts
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.restarts - len(starts)):
        yield haar_unitary(ensemble.dim, rng)


def solve(ensemble: Ensemble, config: SolveConfig | None = None, tol: Tolerances = DEFAULT_TOL) -> SolveResult:
    """Certified optimum over rank-compatible projective measurements.

    Each restart (``_restart``) takes polar steps, then Newton ascent, and
    certifies the result; all restarts share one weighted-state stack and one
    coordinate space. The first start is the PGM of the ensemble (exact at
    fixed points, near-optimal elsewhere), the rest seeded random unitaries.
    Stops at the first certified restart; an uncertified best-effort result
    is returned when no restart certifies.
    """
    cfg = config or SolveConfig()
    stack = ensemble.weighted_states()
    space = _horizontal(ensemble.rank_signature)

    best: SolveResult | None = None
    failure = ""
    for u0 in _starts(ensemble, cfg):
        try:
            result = _restart(ensemble, stack, space, u0, tol)
        except MEDError as exc:
            failure = str(exc)
            continue
        if best is None or (result.certified, result.success_prob) > (
            best.certified,
            best.success_prob,
        ):
            best = result
        if result.certified:
            break
    if best is None:
        raise NoConvergence(f"every restart failed numerically: {failure}")
    return best


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
    slices = _signature_slices(ensemble.rank_signature)
    weighted = ensemble.weighted_states()
    rng = np.random.default_rng(seed)
    evals = 0

    def value_of(u: np.ndarray) -> float:
        nonlocal evals
        if evals >= ORACLE_BUDGET:
            raise BudgetExceeded(f"oracle budget of {ORACLE_BUDGET} evaluations exhausted")
        evals += 1
        return _objective(weighted, _projectors_from_unitary(u, slices))

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
    rng = np.random.default_rng(seed)
    slices = _signature_slices(sig)
    off = random_hermitian(dim, rng)
    for s in slices:
        off[s, s] = 0.0
    # off != 0 (two or more blocks); scaled to norm 0.5, base's eigenvalues lie in [0.5, 1.5]
    spectral = float(np.abs(np.linalg.eigvalsh(off)).max())
    base = np.eye(dim, dtype=complex) + (0.5 / spectral) * off
    root = base / np.sqrt(float(np.trace(base @ base).real))
    w = haar_unitary(dim, rng)
    coords = _projectors_from_unitary(np.eye(dim), slices)
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
