"""Prior-weighted state ensembles, measurements, and their validators.

An ensemble is linearly independent (LI) when the union of all states'
eigenvectors (above the rank cutoff) is a linearly independent set spanning
the space; this forces the state ranks to sum to the dimension. Validators
always recompute the rank signature rather than trusting the input, since
everything downstream keys on exact ranks. ``validate_ensemble``
eigendecomposes all states in one stacked call and forms, once, Psi from
the very range eigenpairs the LI test counted (its polar factor is the PGM,
:mod:`medli.pgm`) and the stack of weighted states p_i rho_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidSignature,
    NotComplete,
    NotLinearlyIndependent,
    NotOrthogonal,
    NotProjector,
    NotPSD,
    PriorsInvalid,
    RankSumMismatch,
    StateNotDensity,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_square,
    check_hermitian,
    expi_herm,
    haar_unitary,
    herm,
    projector_defect,
    random_hermitian,
    rank_cutoff_mask,
    rank_eps,
)


# random_ensemble perturbs each state by exp(i PERTURBATION H), ||H||_F <= 1.
PERTURBATION = 0.1


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Ensemble:
    """Prior-weighted list of density matrices with its rank signature.

    ``psi`` is the read-only d x d matrix Psi whose columns are
    sqrt(p_i lambda_ik) v_ik over the range eigenpairs the LI test counted,
    state i's ``rank_signature[i]`` in turn, so Psi Psi^dag = sigma.
    ``weighted_states`` returns the read-only (m, d, d) stack of p_i rho_i.
    """

    dim: int
    priors: np.ndarray
    states: tuple[np.ndarray, ...]
    rank_signature: tuple[int, ...]
    psi: np.ndarray = field(repr=False, compare=False)
    _weighted: np.ndarray = field(repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.states)

    def weighted_states(self) -> np.ndarray:
        """The read-only (m, d, d) stack of the products p_i * rho_i."""
        return self._weighted


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """Mutually orthogonal projectors summing to the identity.

    ``unitary`` is the read-only unitary whose column blocks (in
    ``rank_signature`` order) span the projectors, kept when medli built the
    measurement from one (``pgm._measurement``); it is None for projectors
    that came from outside (``validate_projective``).
    """

    dim: int
    projectors: tuple[np.ndarray, ...]
    rank_signature: tuple[int, ...]
    unitary: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True)
class GeneralPOVM:
    """PSD elements summing to the identity; pre-validation input type."""

    dim: int
    elements: tuple[np.ndarray, ...]

    @property
    def m(self) -> int:
        return len(self.elements)


def measurement_elements(measurement) -> tuple[np.ndarray, ...]:
    if isinstance(measurement, ProjectiveMeasurement):
        return measurement.projectors
    if isinstance(measurement, GeneralPOVM):
        return measurement.elements
    raise TypeError(f"not a measurement: {type(measurement).__name__}")


def check_pair(ensemble: Ensemble, measurement) -> tuple[np.ndarray, ...]:
    """The measurement's elements, after checking they pair one-to-one with the states."""
    elements = measurement_elements(measurement)
    if len(elements) != ensemble.m or elements[0].shape[0] != ensemble.dim:
        raise DimensionMismatch(
            f"measurement ({len(elements)} outcomes, dim {elements[0].shape[0]}) does not "
            f"match ensemble ({ensemble.m} states, dim {ensemble.dim})"
        )
    return elements


def check_signature(dim: int, rank_signature) -> tuple[int, ...]:
    """The signature as a tuple of ints: at least two positive ranks summing to dim."""
    sig = tuple(int(r) for r in rank_signature)
    if len(sig) < 2 or any(r < 1 for r in sig) or sum(sig) != dim:
        raise InvalidSignature(f"signature {sig} is invalid for dim {dim}")
    return sig


def _li_ranks(
    w: np.ndarray, v: np.ndarray, dim: int, tol: Tolerances
) -> tuple[tuple[int, ...], list[tuple[np.ndarray, np.ndarray]]]:
    """State ranks and range eigenpairs, if the range eigenvectors form a basis.

    ``w`` and ``v`` are the stacked eigenvalues (m, d) and eigenvectors
    (m, d, d) of the states' Hermitian parts. Raises RankSumMismatch or
    NotLinearlyIndependent otherwise.
    """
    pairs = []
    for lam, vecs in zip(w, v):
        keep = rank_cutoff_mask(lam, tol)
        pairs.append((lam[keep], vecs[:, keep]))
    ranks = tuple(vecs.shape[1] for _, vecs in pairs)
    if sum(ranks) != dim:
        raise RankSumMismatch(f"state ranks {ranks} sum to {sum(ranks)}, dim is {dim}")
    svals = np.linalg.svd(np.hstack([vecs for _, vecs in pairs]), compute_uv=False)
    if not svals[-1] > tol.tol_rank * svals[0]:
        raise NotLinearlyIndependent(
            f"stacked eigenvectors have singular value ratio {svals[-1] / svals[0]:.3e}"
        )
    return ranks, pairs


def _square_family(items, what: str, nonfinite) -> tuple[list[np.ndarray], int]:
    """Same-shape square matrices and their dimension (0 for none).

    A non-finite entry raises ``nonfinite``, the caller's invariant class.
    """
    mats = [as_square(x) for x in items]
    dim = mats[0].shape[0] if mats else 0
    for idx, mat in enumerate(mats):
        if mat.shape != (dim, dim):
            raise DimensionMismatch(f"{what} {idx} has shape {mat.shape}, expected {(dim, dim)}")
        if not np.all(np.isfinite(mat)):
            raise nonfinite(f"{what} {idx} has non-finite entries")
    return mats, dim


def _hermitian_stack(mats, what: str, error, tol: Tolerances) -> np.ndarray:
    """The (m, d, d) stack of Hermitian parts; ``error`` unless each is Hermitian within tol."""
    for idx, mat in enumerate(mats):
        try:
            check_hermitian(mat, tol)
        except ValueError as exc:
            raise error(f"{what} {idx}: {exc}") from exc
    stack = np.asarray(mats)
    return (stack + stack.conj().swapaxes(-2, -1)) / 2.0


def _check_psd(eigvals: np.ndarray, what: str, error, tol: Tolerances) -> None:
    """Raise ``error`` unless every row of stacked ascending eigenvalues is >= -tol_psd."""
    for idx, low in enumerate(eigvals[:, 0]):
        if low < -tol.tol_psd:
            raise error(f"{what} {idx} has eigenvalue {low:.3e}")


def _check_complete(mats, dim: int, tol: Tolerances) -> None:
    defect = float(np.linalg.norm(sum(mats) - np.eye(dim)))
    if defect > tol.tol_recon:
        raise NotComplete(f"elements sum to identity only within {defect:.3e}")


def validate_ensemble(priors, states, tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    """Check membership in the LI ensemble class and build the Ensemble.

    All states are eigendecomposed in one stacked call; its eigenvalues feed
    the PSD gate and the LI test, and the range eigenpairs the LI test
    counted build ``psi``, next to the stack of p_i rho_i. Raises
    PriorsInvalid, StateNotDensity, RankSumMismatch, or
    NotLinearlyIndependent naming the first violated invariant.
    """
    pr = np.asarray(priors, dtype=float).reshape(-1)
    mats, dim = _square_family(states, "state", StateNotDensity)
    m = len(mats)
    if m < 2:
        raise DimensionMismatch(f"an ensemble needs at least 2 states, got {m}")
    if pr.shape[0] != m:
        raise DimensionMismatch(f"{pr.shape[0]} priors for {m} states")
    if not np.all(np.isfinite(pr) & (pr > 0.0)):
        raise PriorsInvalid(f"priors must be finite and strictly positive, got {pr.tolist()}")
    if abs(pr.sum() - 1.0) > tol.tol_recon:
        raise PriorsInvalid(f"priors sum to {pr.sum()!r}, not 1")
    w, v = np.linalg.eigh(_hermitian_stack(mats, "state", StateNotDensity, tol))
    _check_psd(w, "state", StateNotDensity, tol)
    for idx, mat in enumerate(mats):
        trace = float(np.trace(mat).real)
        if abs(trace - 1.0) > tol.tol_recon:
            raise StateNotDensity(f"state {idx} has trace {trace!r}, not 1")
    ranks, pairs = _li_ranks(w, v, dim, tol)
    pr, mats = _frozen(pr), [_frozen(mat) for mat in mats]
    psi = [vecs * np.sqrt(p * np.clip(lam, 0.0, None)) for p, (lam, vecs) in zip(pr, pairs)]
    return Ensemble(
        dim=dim,
        priors=pr,
        states=tuple(mats),
        rank_signature=ranks,
        psi=_frozen(np.hstack(psi)),
        _weighted=_frozen([p * rho for p, rho in zip(pr, mats)]),
    )


def validate_projective(projectors, tol: Tolerances = DEFAULT_TOL) -> ProjectiveMeasurement:
    """Check mutual orthogonality and completeness of a projector family."""
    mats, dim = _square_family(projectors, "element", NotProjector)
    if not mats:
        raise DimensionMismatch("a measurement needs at least one element")
    for idx, p in enumerate(mats):
        defect = projector_defect(p)
        if defect > tol.tol_recon:
            raise NotProjector(f"element {idx} has projector defect {defect:.3e}")
    _check_complete(mats, dim, tol)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            cross = float(np.linalg.norm(mats[i] @ mats[j]))
            if cross > tol.tol_recon:
                raise NotOrthogonal(f"elements {i} and {j} overlap by {cross:.3e}")
    return ProjectiveMeasurement(
        dim=dim,
        projectors=tuple(_frozen(p) for p in mats),
        rank_signature=tuple(rank_eps(p, tol) for p in mats),
    )


def validate_povm(elements, tol: Tolerances = DEFAULT_TOL) -> GeneralPOVM:
    """Check PSD-ness and completeness of general POVM elements."""
    mats, dim = _square_family(elements, "element", NotPSD)
    if not mats:
        raise DimensionMismatch("a POVM needs at least one element")
    eigvals = np.linalg.eigvalsh(_hermitian_stack(mats, "element", NotPSD, tol))
    _check_psd(eigvals, "element", NotPSD, tol)
    _check_complete(mats, dim, tol)
    return GeneralPOVM(dim=dim, elements=tuple(_frozen(e) for e in mats))


def detection_profile(ensemble: Ensemble, measurement) -> list[float]:
    """Per-state detection weights p_i Tr(rho_i E_i).

    At a fixed point of the Belavkin transform these are proportional to the
    state ranks; for rank-one signatures they are all equal.
    """
    elements = check_pair(ensemble, measurement)
    return [
        float(p * np.trace(rho @ e).real)
        for p, rho, e in zip(ensemble.priors, ensemble.states, elements)
    ]


def success_probability(ensemble: Ensemble, measurement, tol: Tolerances = DEFAULT_TOL) -> float:
    """Average probability sum_i p_i Tr(rho_i E_i) of identifying the state.

    It is the sum of the detection weights (``detection_profile``),
    clamped to [0, 1] only when within tol_recon of the boundary.
    """
    value = sum(detection_profile(ensemble, measurement))
    if 1.0 < value <= 1.0 + tol.tol_recon:
        return 1.0
    if -tol.tol_recon <= value < 0.0:
        return 0.0
    return value


def random_ensemble(dim: int, rank_signature, seed: int, tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    """Seed-deterministic LI ensemble with the requested rank signature.

    Columns of a Haar unitary are partitioned into per-state eigenbases, each
    state gets random positive eigenvalues normalized to unit trace, then each
    state is conjugated by exp(i PERTURBATION H), H random Hermitian of
    Frobenius norm at most 1. Priors are a flat simplex sample. Each
    conjugation moves one state's range basis by at most PERTURBATION, so by
    Weyl's inequality the stacked range vectors, Haar columns at the start,
    keep s_min / s_max >= (1 - 0.1 sqrt(m)) / (1 + 0.1 sqrt(m)): linearly
    independent for every m <= 99. Beyond that, the one LI test, in the final
    ``validate_ensemble``, may raise NotLinearlyIndependent.
    """
    sig = check_signature(dim, rank_signature)
    rng = np.random.default_rng(seed)
    u = haar_unitary(dim, rng)
    states = []
    start = 0
    for r in sig:
        cols = u[:, start : start + r]
        start += r
        lam = rng.uniform(0.25, 1.0, size=r)
        lam /= lam.sum()
        states.append(herm((cols * lam) @ cols.conj().T))
    for i in range(len(sig)):
        gen = random_hermitian(dim, rng)
        gen /= max(1.0, float(np.linalg.norm(gen)))
        w = expi_herm(gen, PERTURBATION)
        states[i] = herm(w @ states[i] @ w.conj().T)
    priors = rng.dirichlet(np.ones(len(sig)))
    return validate_ensemble(priors, states, tol)
