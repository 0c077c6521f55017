"""Prior-weighted state ensembles, measurements, and their validators.

An ensemble is linearly independent (LI) when the union of all states'
eigenvectors (above the rank cutoff) is a linearly independent set spanning
the space; this forces the state ranks to sum to the dimension. Validators
always recompute the rank signature rather than trusting the input, since
everything downstream keys on exact ranks. The validators check all
matrices as one (m, d, d) stack; ``validate_ensemble`` forms, once, Psi from
the very range eigenpairs the LI test counted (its polar factor is the PGM,
:mod:`medli.pgm`) and the stack of weighted states p_i rho_i. Ensembles medli
builds from known factors, the two maps' outputs, go through ``_from_factors``
instead, which runs the same rank rule and LI test on the factors, with no
d x d eigendecomposition.
``_pair`` is the one product of states with measurement elements: the stack
W_i E_i, W_i = p_i rho_i, whose traces are the detection weights, and its sum
K, which the certifiers read (:mod:`medli.belavkin`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidSignature,
    MEDError,
    NotComplete,
    NotLinearlyIndependent,
    NotOrthogonal,
    NotProjective,
    NotProjector,
    NotPSD,
    PriorsInvalid,
    RankSignatureMismatch,
    RankSumMismatch,
    StateNotDensity,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_square,
    expi_herm,
    haar_unitary,
    herm,
    projector_defect,
    random_hermitian,
    rank_cutoff_mask,
)


# random_ensemble perturbs each state by exp(i PERTURBATION H), ||H||_F <= 1.
PERTURBATION = 0.1


def _frozen(arr: np.ndarray) -> np.ndarray:
    """The array itself, made read-only; callers pass only arrays they alone hold."""
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Prior-weighted list of density matrices with its rank signature.

    ``psi`` is a read-only d x d matrix Psi whose column block i, of
    ``rank_signature[i]`` columns, is a factor of p_i rho_i, so Psi Psi^dag
    = sigma. Any factor will do: Psi_i -> Psi_i Q_i, Q_i unitary, moves the
    PGM unitary's blocks by the same Q_i, so ``pgm``, ``fixpoint_check`` and
    ``solve`` are invariant under this block-unitary freedom.
    ``validate_ensemble`` takes the columns sqrt(p_i lambda_ik) v_ik over the
    range eigenpairs its LI test counted; ``_from_factors`` keeps the factors
    it was given. ``weighted_states`` returns the read-only (m, d, d) stack
    of p_i rho_i.
    """

    dim: int
    priors: np.ndarray
    states: tuple[np.ndarray, ...]
    rank_signature: tuple[int, ...]
    psi: np.ndarray = field(repr=False)
    _weighted: np.ndarray = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.states)

    def weighted_states(self) -> np.ndarray:
        """The read-only (m, d, d) stack of the products p_i * rho_i."""
        return self._weighted


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Mutually orthogonal projectors summing to the identity, and their column basis.

    ``_basis`` is a read-only d x d unitary V whose column block i spans
    projector i, Pi_i = V_i V_i^dag: the unitary medli built the measurement
    from (``pgm._measurement``), or the range eigenvectors that
    ``validate_projective`` counted in outside input. Either way a
    measurement holds the same two things, so every reader runs the same
    code on either.
    """

    dim: int
    projectors: tuple[np.ndarray, ...]
    rank_signature: tuple[int, ...]
    _basis: np.ndarray = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True, eq=False)
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


class _Pairing(NamedTuple):
    """The (m, d, d) stacks of p_i rho_i, E_i and p_i rho_i E_i, and K = sum_i p_i rho_i E_i."""

    weighted: np.ndarray
    elements: np.ndarray
    products: np.ndarray
    k: np.ndarray

    def weights(self) -> list[float]:
        """The detection weights Tr(p_i rho_i E_i), one batched trace of the products."""
        return np.trace(self.products, axis1=1, axis2=2).real.tolist()

    def success(self, tol: Tolerances) -> float:
        """The sum of the weights; within tol_recon of [0, 1] it is clamped to it."""
        value = sum(self.weights())
        near = -tol.tol_recon <= value <= 1.0 + tol.tol_recon
        return min(max(value, 0.0), 1.0) if near else value


def _pair(ensemble: Ensemble, measurement) -> _Pairing:
    """The checked elements paired with the states, and K from one batched product.

    The package's one product of states with measurement elements. The
    (m, d, d) products p_i rho_i E_i are summed over the outcome axis in
    outcome order, so K has the bits of the running sum of the m products.
    """
    elements = np.asarray(check_pair(ensemble, measurement))
    weighted = ensemble.weighted_states()
    products = weighted @ elements
    return _Pairing(weighted, elements, products, products.sum(axis=0))


def check_signature(dim: int, rank_signature) -> tuple[int, ...]:
    """The signature as a tuple of ints: at least two positive ranks summing to dim."""
    sig = tuple(int(r) for r in rank_signature)
    if len(sig) < 2 or any(r < 1 for r in sig) or sum(sig) != dim:
        raise InvalidSignature(f"signature {sig} is invalid for dim {dim}")
    return sig


def _signature_slices(signature) -> list[slice]:
    """Consecutive coordinate blocks of sizes r_1, r_2, ..., one per state."""
    ends = itertools.accumulate(signature)
    return [slice(end - r, end) for r, end in zip(signature, ends)]


def _rank_groups(signature) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each distinct rank r, ascending: the k states of rank r and their (k, r) coordinate blocks.

    The blocks are those of ``_signature_slices``, as index arrays, so one
    batched call serves every state of the same rank.
    """
    sig = np.asarray(signature)
    starts = np.cumsum(sig) - sig
    groups = []
    for r in sorted(set(signature)):
        group = np.flatnonzero(sig == r)
        groups.append((group, starts[group, None] + np.arange(r)))
    return groups


def _block_norms2(f: np.ndarray, signature) -> np.ndarray:
    """||F_i||_F^2 for each column block F_i of f: its squared column norms, summed."""
    col2 = (f.real**2 + f.imag**2).sum(axis=0)
    norms2 = np.empty(len(signature))
    for group, cols in _rank_groups(signature):
        norms2[group] = col2[cols].sum(axis=1)
    return norms2


def _li_ranks(ranks: np.ndarray, basis: np.ndarray, dim: int, tol: Tolerances) -> tuple[int, ...]:
    """The state ranks as a tuple, if they sum to dim and ``basis`` is a basis.

    ``basis`` lays the states' range vectors side by side, state by state:
    orthonormal within each state, so s_min / s_max of the whole reads only
    how independent the states are. Raises RankSumMismatch or
    NotLinearlyIndependent otherwise.
    """
    ranks = tuple(ranks.tolist())
    if sum(ranks) != dim:
        raise RankSumMismatch(f"state ranks {ranks} sum to {sum(ranks)}, dim is {dim}")
    svals = np.linalg.svd(basis, compute_uv=False)
    if not svals[-1] > tol.tol_rank * svals[0]:
        raise NotLinearlyIndependent(
            f"stacked range vectors have singular value ratio {svals[-1] / svals[0]:.3e}"
        )
    return ranks


def _first(bad: np.ndarray) -> int | None:
    """Index of the first True entry, None if there is none."""
    return int(np.argmax(bad)) if bad.any() else None


def _square_stack(items, what: str, nonfinite) -> np.ndarray:
    """A fresh (m, d, d) complex stack of same-shape square matrices.

    The first matrix of another shape raises DimensionMismatch, unless an
    earlier one has a non-finite entry: that raises ``nonfinite``, the
    caller's invariant class.
    """
    mats = [as_square(x) for x in items]
    dim = mats[0].shape[0] if mats else 0
    n = next((idx for idx, mat in enumerate(mats) if mat.shape != (dim, dim)), len(mats))
    stack = np.array(mats[:n], dtype=complex).reshape(n, dim, dim)
    if (idx := _first(~np.isfinite(stack).all(axis=(1, 2)))) is not None:
        raise nonfinite(f"{what} {idx} has non-finite entries")
    if n < len(mats):
        raise DimensionMismatch(f"{what} {n} has shape {mats[n].shape}, expected {(dim, dim)}")
    return stack


def _hermitian_part(stack: np.ndarray, what: str, error, tol: Tolerances) -> np.ndarray:
    """``herm`` of each matrix in the stack, after the package's one hermiticity rule.

    Matrix M is Hermitian when max|M - M^dag| <= tol_herm * max(1, max|M|),
    entrywise; ``error`` names the first matrix that is not.
    """
    defect = np.abs(stack - stack.conj().swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    scale = np.abs(stack).max(axis=(-2, -1), initial=1.0)
    if (idx := _first(defect > tol.tol_herm * scale)) is not None:
        raise error(f"{what} {idx}: matrix is not Hermitian: max entry defect {defect[idx]:.3e}")
    return herm(stack)


def _check_psd(eigvals: np.ndarray, what: str, error, tol: Tolerances) -> None:
    """Raise ``error`` unless every row of stacked ascending eigenvalues is >= -tol_psd."""
    if (idx := _first(eigvals[:, 0] < -tol.tol_psd)) is not None:
        raise error(f"{what} {idx} has eigenvalue {eigvals[idx, 0]:.3e}")


def _check_complete(stack: np.ndarray, tol: Tolerances) -> None:
    defect = float(np.linalg.norm(sum(stack) - np.eye(stack.shape[-1])))
    if defect > tol.tol_recon:
        raise NotComplete(f"elements sum to identity only within {defect:.3e}")


def validate_ensemble(priors, states, tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    """Check membership in the LI ensemble class and build the Ensemble.

    The states are copied into one (m, d, d) stack, and each check runs once
    over it: finiteness, hermiticity, one stacked eigendecomposition whose
    eigenvalues feed the PSD gate and the LI test, and the traces. The range
    eigenpairs the LI test counted build ``psi`` with one gather, next to the
    stack of p_i rho_i; ``states`` are read-only views of the frozen stack.
    Raises PriorsInvalid, StateNotDensity, RankSumMismatch, or
    NotLinearlyIndependent naming the first violated invariant and state.
    """
    pr = np.asarray(priors, dtype=float).flatten()
    stack = _square_stack(states, "state", StateNotDensity)
    m, dim = stack.shape[0], stack.shape[-1]
    if m < 2:
        raise DimensionMismatch(f"an ensemble needs at least 2 states, got {m}")
    if pr.shape[0] != m:
        raise DimensionMismatch(f"{pr.shape[0]} priors for {m} states")
    if not np.all(np.isfinite(pr) & (pr > 0.0)):
        raise PriorsInvalid(f"priors must be finite and strictly positive, got {pr.tolist()}")
    if abs(pr.sum() - 1.0) > tol.tol_recon:
        raise PriorsInvalid(f"priors sum to {pr.sum()!r}, not 1")
    w, v = np.linalg.eigh(_hermitian_part(stack, "state", StateNotDensity, tol))
    _check_psd(w, "state", StateNotDensity, tol)
    traces = np.trace(stack, axis1=1, axis2=2).real
    if (idx := _first(np.abs(traces - 1.0) > tol.tol_recon)) is not None:
        raise StateNotDensity(f"state {idx} has trace {float(traces[idx])!r}, not 1")
    keep = rank_cutoff_mask(w, tol)
    basis = v.transpose(1, 0, 2)[:, keep]
    ranks = _li_ranks(keep.sum(axis=1), basis, dim, tol)
    psi = basis * np.sqrt(pr[:, None] * np.clip(w, 0.0, None))[keep]
    return Ensemble(
        dim=dim,
        priors=_frozen(pr),
        states=tuple(_frozen(stack)),
        rank_signature=ranks,
        psi=_frozen(psi),
        _weighted=_frozen(pr[:, None, None] * stack),
    )


def _from_factors(f: np.ndarray, signature: tuple[int, ...], tol: Tolerances) -> Ensemble:
    """The ensemble with p_i rho_i = F_i F_i^dag / ||F||_F^2, F_i the column blocks of f.

    For ensembles medli builds and knows as factors, the outputs of the two
    maps; outside input goes through ``validate_ensemble``. No d x d matrix
    is eigendecomposed. The priors are ||F_i||_F^2 / ||F||_F^2, and the
    states F_i F_i^dag / ||F_i||_F^2 come from one batched product per
    distinct rank. One thin SVD per distinct rank, O(d r_i^2) per state,
    gives the ranks, by ``validate_ensemble``'s ``tol_rank`` rule on the
    squared singular values, and the left singular vectors, on which
    ``_li_ranks`` runs the same LI test. ``psi`` is f / ||F||_F. Raises
    StateNotDensity on a non-finite factor, then RankSumMismatch or
    NotLinearlyIndependent as ``validate_ensemble`` would.
    """
    dim = f.shape[0]
    norms2 = _block_norms2(f, signature)
    if (idx := _first(~np.isfinite(norms2))) is not None:
        raise StateNotDensity(f"state {idx} has non-finite entries")
    ranks = np.empty(len(signature), dtype=int)
    left = np.empty_like(f)
    states = np.empty((len(signature), dim, dim), dtype=complex)
    for group, cols in _rank_groups(signature):
        blocks = f[:, cols].transpose(1, 0, 2)
        u, s, _ = np.linalg.svd(blocks, full_matrices=False)
        ranks[group] = rank_cutoff_mask(s * s, tol).sum(axis=1)
        left[:, cols] = u.transpose(1, 0, 2)
        states[group] = blocks @ blocks.conj().swapaxes(-2, -1)
    ranks = _li_ranks(ranks, left, dim, tol)
    total = float(norms2.sum())
    priors = norms2 / total
    states = herm(states) / norms2[:, None, None]
    return Ensemble(
        dim=dim,
        priors=_frozen(priors),
        states=tuple(_frozen(states)),
        rank_signature=ranks,
        psi=_frozen(f / np.sqrt(total)),
        _weighted=_frozen(priors[:, None, None] * states),
    )


def validate_projective(projectors, tol: Tolerances = DEFAULT_TOL) -> ProjectiveMeasurement:
    """Check projector defects, completeness and orthogonality, by rows of P_i P_{j > i}.

    One stacked ``eigh`` gives the ranks and, from each projector's range
    eigenvectors, the column basis the measurement holds.
    """
    stack = _square_stack(projectors, "element", NotProjector)
    if not len(stack):
        raise DimensionMismatch("a measurement needs at least one element")
    for idx, p in enumerate(stack):
        defect = projector_defect(p)
        if defect > tol.tol_recon:
            raise NotProjector(f"element {idx} has projector defect {defect:.3e}")
    _check_complete(stack, tol)
    for i in range(len(stack) - 1):
        cross = np.linalg.norm(stack[i] @ stack[i + 1 :], axis=(-2, -1))
        if (j := _first(cross > tol.tol_recon)) is not None:
            raise NotOrthogonal(f"elements {i} and {i + 1 + j} overlap by {cross[j]:.3e}")
    w, v = np.linalg.eigh(herm(stack))
    keep = rank_cutoff_mask(w, tol)
    return ProjectiveMeasurement(
        dim=stack.shape[-1],
        projectors=tuple(_frozen(stack)),
        rank_signature=tuple(keep.sum(axis=1).tolist()),
        _basis=_frozen(v.transpose(1, 0, 2)[:, keep]),
    )


def rank_matched(ensemble: Ensemble, measurement, tol: Tolerances = DEFAULT_TOL) -> ProjectiveMeasurement:
    """The measurement as projectors paired with the states and of their ranks.

    The pairing is checked first: DimensionMismatch if it does not pair with
    the states, projective or not. A GeneralPOVM comes from outside (a file,
    or user arrays) and is the one kind validated here, by
    ``validate_projective``: NotProjective if it is not projective. Then
    RankSignatureMismatch if its ranks differ from the states'.
    """
    check_pair(ensemble, measurement)
    if isinstance(measurement, GeneralPOVM):
        try:
            measurement = validate_projective(measurement.elements, tol)
        except MEDError as exc:
            raise NotProjective(f"measurement is not projective: {exc}") from exc
    if not isinstance(measurement, ProjectiveMeasurement):
        raise NotProjective(f"expected projectors, got {type(measurement).__name__}")
    if measurement.rank_signature != ensemble.rank_signature:
        raise RankSignatureMismatch(
            f"projector ranks {measurement.rank_signature} != state ranks "
            f"{ensemble.rank_signature}"
        )
    return measurement


def validate_povm(elements, tol: Tolerances = DEFAULT_TOL) -> GeneralPOVM:
    """Check PSD-ness and completeness of general POVM elements."""
    stack = _square_stack(elements, "element", NotPSD)
    if not len(stack):
        raise DimensionMismatch("a POVM needs at least one element")
    eigvals = np.linalg.eigvalsh(_hermitian_part(stack, "element", NotPSD, tol))
    _check_psd(eigvals, "element", NotPSD, tol)
    _check_complete(stack, tol)
    return GeneralPOVM(dim=stack.shape[-1], elements=tuple(_frozen(stack)))


def detection_profile(ensemble: Ensemble, measurement) -> list[float]:
    """Per-state detection weights Tr(p_i rho_i E_i), the traces of ``_pair``'s products.

    At a fixed point of the Belavkin transform these are proportional to the
    state ranks; for rank-one signatures they are all equal.
    """
    return _pair(ensemble, measurement).weights()


def success_probability(ensemble: Ensemble, measurement, tol: Tolerances = DEFAULT_TOL) -> float:
    """Average probability sum_i Tr(p_i rho_i E_i) of identifying the state.

    It is the sum of the detection weights (``detection_profile``), clamped
    to [0, 1] only when within tol_recon of the boundary: the value both
    certifiers report as ``CertificationReport.success_prob``, bit for bit.
    """
    return _pair(ensemble, measurement).success(tol)


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
    for block in _signature_slices(sig):
        cols = u[:, block]
        lam = rng.uniform(0.25, 1.0, size=cols.shape[1])
        lam /= lam.sum()
        states.append(herm((cols * lam) @ cols.conj().T))
    for i in range(len(sig)):
        gen = random_hermitian(dim, rng)
        gen /= max(1.0, float(np.linalg.norm(gen)))
        w = expi_herm(gen, PERTURBATION)
        states[i] = herm(w @ states[i] @ w.conj().T)
    priors = rng.dirichlet(np.ones(len(sig)))
    return validate_ensemble(priors, states, tol)
