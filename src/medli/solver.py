"""Certified solvers for the discrimination optimum.

``solve`` searches the manifold of rank-compatible projective measurements
(parameterized as column-block partitions of a unitary) in two stages per
restart. Polar steps U <- U polar(K~) drive K = sum_i p_i rho_i Pi_i towards
Hermitian PSD, the paper's simplified optimality condition; each costs one
d x d SVD. A saddle-free Riemannian Newton ascent then finishes, with the
exact gradient and Hessian taken in the frame of the current unitary: there
the gradient is the off-block-diagonal anti-Hermitian part of K. Newton
builds its Hessian only when the polar steps stall, as on stiff instances.
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

from dataclasses import dataclass

import numpy as np

from .belavkin import DualCertificate
from .certify import OPTIMAL, CertificationReport, certify_simplified
from .ensembles import (
    Ensemble,
    ProjectiveMeasurement,
    check_signature,
    success_probability,
    validate_ensemble,
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
    random_hermitian,
)
from .pgm import _measurement, _polar, _projectors_from_unitary, _signature_slices

# Each restart takes at most this many polar steps before Newton.
POLAR_STEPS = 30

# Newton ascent runs at most this many rounds per restart.
NEWTON_ROUNDS = 60

# The oracle's sampled-quadratic endgame takes this many Newton steps.
REFINE_ROUNDS = 3


@dataclass(frozen=True)
class SolveConfig:
    restarts: int = 16
    seed: int = 0
    include_pgm_start: bool = True


@dataclass(frozen=True)
class SolveResult:
    """A candidate optimum with its certificate.

    ``certified`` is True exactly when the simplified certificate reports
    Optimal. ``iterations`` counts the polar steps plus the accepted Newton
    steps of the returned restart for ``solve``, and objective evaluations
    for ``solve_oracle``.
    """

    measurement: ProjectiveMeasurement
    certificate: DualCertificate
    report: CertificationReport
    success_prob: float
    iterations: int
    certified: bool


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


def _block_labels(slices, dim: int) -> np.ndarray:
    """The block index of each coordinate under the signature's slices."""
    labels = np.empty(dim, dtype=int)
    for i, s in enumerate(slices):
        labels[s] = i
    return labels


@dataclass(frozen=True)
class _Horizontal:
    """Coordinates of the horizontal directions for one rank signature.

    ``labels[a]`` is the block of coordinate a. The horizontal generators are
    the Hermitian K with K_ab != 0 only where labels[a] != labels[b]; for each
    such pair a < b (``rows``, ``cols``) K_ab = (x + i y) / sqrt(2), so the real
    vector z = [x; y] is orthonormal under the trace inner product.
    """

    labels: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    @classmethod
    def of(cls, slices, dim: int) -> "_Horizontal":
        labels = _block_labels(slices, dim)
        rows, cols = np.triu_indices(dim, 1)
        keep = labels[rows] != labels[cols]
        return cls(labels, rows[keep], cols[keep])

    def generator(self, z: np.ndarray) -> np.ndarray:
        """The Hermitian K with coordinates z."""
        n = len(self.rows)
        dim = len(self.labels)
        k = np.zeros((dim, dim), dtype=complex)
        k[self.rows, self.cols] = (z[:n] + 1j * z[n:]) / np.sqrt(2.0)
        return k + k.conj().T

    def value_and_gradient(self, tilde: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective and its gradient in z at the frame tilde_i = U^dag W_i U.

        Moving to U exp(iK) changes the objective at first order by
        Tr(G K) with G_ab = i (W~_{l(a)} - W~_{l(b)})_ab; G is Hermitian and
        vanishes exactly at stationary measurements.
        """
        diag = np.arange(len(self.labels))
        value = float(tilde[self.labels, diag, diag].real.sum())
        g = 1j * (
            tilde[self.labels[self.rows], self.rows, self.cols]
            - tilde[self.labels[self.cols], self.rows, self.cols]
        )
        return value, np.sqrt(2.0) * np.concatenate([g.real, g.imag])

    def hessian(self, tilde: np.ndarray) -> np.ndarray:
        """Hessian in z of the objective along U exp(iK) at the frame tilde.

        The second-order term is Tr(L(K) K) / 2 with
        L(K) = -sum_i [[K, E_i], W~_i] = -(K (M - V_a) + (M^dag - V_b) K)
        at entry (a, b), where V_a = W~_{l(a)} and row a of M is row a of V_a.
        Its matrix S on the horizontal entries is gathered from two
        (d, d, d) stacks, then mapped to z.
        """
        v = tilde[self.labels]
        m = v[np.arange(len(self.labels)), np.arange(len(self.labels))]
        right = m[None, :, :] - v
        left = m.conj().T[None, :, :] - v
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


def _newton(weighted, u: np.ndarray, slices) -> tuple[np.ndarray, list[float]]:
    """Saddle-free Riemannian Newton ascent over rank-compatible measurements.

    Works in the frame of the current unitary: the projectors are
    U E_i U^dag with E_i the coordinate projectors of the signature, and each
    step moves U to U exp(iK) along a horizontal generator K (stabilizer
    directions leave every projector fixed and are never parameterized).
    The step divides the gradient by the absolute Hessian eigenvalues, so it
    ascends at saddles too, and is clamped to norm 0.3. A step is accepted
    on an Armijo increase, or, once objective increments sink below float
    resolution, when the objective holds within 1e-15 and the gradient norm
    falls; otherwise it is halved, at most 30 times.

    Returns the final unitary and the objective after each accepted step,
    starting with the initial value.
    """
    space = _Horizontal.of(slices, u.shape[0])
    stack = np.asarray(weighted)

    def frame(mat_u):
        tilde = mat_u.conj().T @ stack @ mat_u
        return (tilde, *space.value_and_gradient(tilde))

    tilde, value, grad = frame(u)
    values = [value]
    for _ in range(NEWTON_ROUNDS):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-13:
            break
        eigvals, eigvecs = np.linalg.eigh(space.hessian(tilde))
        scale = np.maximum(np.abs(eigvals), 1e-12 * float(np.abs(eigvals).max()))
        step = eigvecs @ ((eigvecs.T @ grad) / scale)
        norm = float(np.linalg.norm(step))
        if norm > 0.3:
            step *= 0.3 / norm
        for _ in range(31):
            candidate = u @ expi_herm(space.generator(step))
            cand_tilde, cand_value, cand_grad = frame(candidate)
            rise = cand_value - value
            if rise >= 1e-4 * float(grad @ step) or (
                rise >= -1e-15 and float(np.linalg.norm(cand_grad)) < gnorm
            ):
                u, tilde, value, grad = candidate, cand_tilde, cand_value, cand_grad
                values.append(value)
                break
            step /= 2.0
        else:
            break
    return u, values


def _polar_steps(weighted, u: np.ndarray, slices) -> tuple[np.ndarray, int]:
    """Move U to U polar(K~) until K = sum_i p_i rho_i Pi_i is Hermitian PSD.

    In the frame W~_i = U^dag W_i U, K~ = U^dag K U = sum_i W~_i E_i, so column
    a of K~ is column a of W~_{l(a)}. With the SVD K~ = A S B^dag the step is
    U <- U R, R = A B^dag; the fixed points, R = I, are the measurements the
    simplified optimality condition accepts. Each new Pi_j is the PGM of
    {p_j rho_j Pi_j rho_j p_j} (the Jezek-Rehacek-Fiurasek iteration).

    Stops before a step once ||R - I||_F < 1e-13, once the defect exceeds
    half the previous one (the iteration has slowed to a crawl and Newton
    takes over), or after POLAR_STEPS steps; an optimal start is never
    moved. Returns the unitary and the number of steps taken.
    """
    dim = u.shape[0]
    labels = _block_labels(slices, dim)
    cols = np.arange(dim)
    stack = np.asarray(weighted)
    eye = np.eye(dim)
    previous = np.inf
    steps = 0
    while steps < POLAR_STEPS:
        k = (u.conj().T @ stack @ u)[labels, :, cols].T
        left, _, right = np.linalg.svd(k)
        rotation = left @ right
        defect = float(np.linalg.norm(rotation - eye))
        if defect < 1e-13 or defect > previous / 2.0:
            break
        u = u @ rotation
        previous = defect
        steps += 1
    return u, steps


def _finish(ensemble: Ensemble, u: np.ndarray, iterations: int, tol: Tolerances) -> SolveResult:
    """Certify the measurement of u's column blocks; ``_measurement`` checks u is unitary."""
    measurement = _measurement(u, ensemble, tol)
    report = certify_simplified(ensemble, measurement, tol)
    return SolveResult(
        measurement=measurement,
        certificate=report.certificate,
        report=report,
        success_prob=success_probability(ensemble, measurement, tol),
        iterations=iterations,
        certified=report.verdict == OPTIMAL,
    )


def _starts(ensemble: Ensemble, cfg: SolveConfig, tol: Tolerances):
    """The PGM warm start, then seeded Haar unitaries, each built only when a restart uses it."""
    built = 0
    if cfg.include_pgm_start:
        try:
            warm, _, _ = _polar(ensemble, tol)
        except MEDError:
            pass
        else:
            built += 1
            yield warm
    rng = np.random.default_rng(cfg.seed)
    while built < max(1, cfg.restarts):
        built += 1
        yield haar_unitary(ensemble.dim, rng)


def solve(ensemble: Ensemble, config: SolveConfig | None = None, tol: Tolerances = DEFAULT_TOL) -> SolveResult:
    """Certified optimum over rank-compatible projective measurements.

    Each restart takes polar steps (``_polar_steps``), then Newton ascent
    (``_newton``), and certifies the result. Restarts include the PGM of the
    ensemble as a warm start (exact at fixed points, near-optimal elsewhere)
    plus seeded random unitaries. Stops at the first certified restart; an
    uncertified best-effort result is returned when no restart certifies.
    """
    cfg = config or SolveConfig()
    slices = _signature_slices(ensemble.rank_signature)
    weighted = ensemble.weighted_states()

    best: SolveResult | None = None
    failures: list[str] = []
    for u0 in _starts(ensemble, cfg, tol):
        try:
            u, steps = _polar_steps(weighted, u0, slices)
            u, values = _newton(weighted, u, slices)
            result = _finish(ensemble, u, steps + len(values) - 1, tol)
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
    deliberately independent of the Newton machinery in ``solve``.
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
