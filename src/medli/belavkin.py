"""The Belavkin transform between LI ensembles and its explicit inverse.

The forward map sends an ensemble P, together with an optimal dual pair
(measurement, Z), to the derived ensemble Q with q_i sigma_i = Z Pi_i Z / Tr(Z^2).
The inverse map reconstructs, from any LI ensemble Q, the unique pre-image P
whose optimal measurement is the pretty good measurement of Q. It reads the
blocks of the square root of Q's average state around each PGM projector
from one matrix, sigma^{1/2} in the PGM's frame, which comes with the PGM
from one SVD (see :mod:`medli.pgm`); in that frame each X_i is one product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import (
    Ensemble,
    ProjectiveMeasurement,
    check_pair,
    validate_ensemble,
)
from .errors import MEDError, NotOptimalPair, SolverFailed
from .linalg import DEFAULT_TOL, Tolerances, herm, hermiticity_defect
from .pgm import _measurement, _polar, _signature_slices


@dataclass(frozen=True)
class DualCertificate:
    """The dual operator Z, its trace, and per-state slack spectra.

    The certificate witnesses optimality when every slack eigenvalue is
    nonnegative within tolerance. ``herm_residual`` records how far the
    unsymmetrized sum_i p_i rho_i Pi_i was from Hermitian: a large value
    means the measurement is not even stationary, a negative slack means
    stationarity holds but the dual constraint is violated.
    """

    z: np.ndarray
    dual_value: float
    slack_min_eigs: tuple[float, ...]
    herm_residual: float

    def is_valid(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        return min(self.slack_min_eigs) >= -tol.tol_psd


@dataclass(frozen=True)
class MapArtifacts:
    """Intermediates of the inverse map: the X_i, their Schur complements, sigma^{1/2}."""

    x_ops: tuple[np.ndarray, ...]
    deltas: tuple[np.ndarray, ...]
    sigma_sqrt: np.ndarray


def stationarity_residual(ensemble: Ensemble, measurement) -> float:
    """max over i != j of || Pi_j (p_j rho_j - p_i rho_i) Pi_i ||_F."""
    elements = np.asarray(check_pair(ensemble, measurement))
    weighted = np.asarray(ensemble.weighted_states())
    worst = 0.0
    for j in range(ensemble.m):
        # row j of the pairs: one batched product over the (m, d, d) stacks
        residuals = np.linalg.norm(elements[j] @ (weighted[j] - weighted) @ elements, axis=(-2, -1))
        residuals[j] = 0.0
        worst = max(worst, float(residuals.max()))
    return worst


def dual_operator(ensemble: Ensemble, measurement) -> DualCertificate:
    """Candidate dual operator Z = sym(sum_i p_i rho_i Pi_i) with slack spectra.

    Z equals the true dual operator only when the measurement is stationary;
    callers gate on the certificate validity, not on this construction.
    """
    return _certificate(ensemble, check_pair(ensemble, measurement))


def _certificate(ensemble: Ensemble, elements, z: np.ndarray | None = None) -> DualCertificate:
    """Certificate for the dual operator z, by default sym(K), K = sum_i p_i rho_i E_i.

    K is Hermitian exactly when the measurement is stationary; its
    hermiticity residual ||K - K^dag||_F is recorded either way.
    """
    weighted = ensemble.weighted_states()
    k = np.zeros_like(weighted[0], dtype=complex)
    for w, e in zip(weighted, elements):
        k += w @ e
    if z is None:
        z = herm(k)
    slacks = np.linalg.eigvalsh(z - np.asarray(weighted))
    return DualCertificate(
        z=z,
        dual_value=float(np.trace(z).real),
        slack_min_eigs=tuple(float(low) for low in slacks[:, 0]),
        herm_residual=hermiticity_defect(k),
    )


def forward_map(
    ensemble: Ensemble,
    measurement: ProjectiveMeasurement,
    certificate: DualCertificate,
    tol: Tolerances = DEFAULT_TOL,
) -> Ensemble:
    """Derived ensemble {q_i, sigma_i} of an optimal dual pair.

    q_i = Tr(Z^2 Pi_i) / Tr(Z^2) and sigma_i = Z Pi_i Z / Tr(Z^2 Pi_i).
    Refuses to run unless the pair actually certifies: the map is only
    defined at optimal dual pairs, and solving is the caller's job.
    """
    elements = check_pair(ensemble, measurement)
    residual = stationarity_residual(ensemble, measurement)
    if residual > tol.tol_recon:
        raise NotOptimalPair(f"stationarity residual {residual:.3e} exceeds tol_recon")
    if not certificate.is_valid(tol):
        raise NotOptimalPair(
            f"dual slack eigenvalue {min(certificate.slack_min_eigs):.3e} below -tol_psd"
        )
    z = certificate.z
    z2 = z @ z
    tr_z2 = float(np.trace(z2).real)
    weights = [float(np.trace(z2 @ e).real) for e in elements]
    if min(weights) < tol.tol_psd:
        raise NotOptimalPair(
            f"outcome weight Tr(Z^2 Pi_i) = {min(weights):.3e} vanishes; "
            "not an optimal dual pair of an LI ensemble"
        )
    priors = [w / tr_z2 for w in weights]
    states = [herm(z @ e @ z) / w for w, e in zip(weights, elements)]
    derived = validate_ensemble(priors, states, tol)
    if derived.rank_signature != ensemble.rank_signature:
        raise NotOptimalPair(
            f"derived signature {derived.rank_signature} != {ensemble.rank_signature}"
        )
    return derived


def inverse_map(
    ensemble: Ensemble, tol: Tolerances = DEFAULT_TOL
) -> tuple[Ensemble, ProjectiveMeasurement, DualCertificate, MapArtifacts]:
    """Pre-image ensemble whose optimal measurement is this ensemble's PGM.

    In the PGM frame G = W^dag sigma^{1/2} W, with W the PGM unitary, the
    coordinates of block i span projector i's range and the others its
    kernel, so the blocks A, B, C of sigma^{1/2} are slices of G. The paper's
    X_i = [[A, B], [B^dag, B^dag A^{-1} B]] is then G[:, i] A^{-1} G[i, :],
    rotated back by W once, and Delta_i = C - B^dag A^{-1} B is what it leaves
    of G on the kernel coordinates. The product's block-i columns are G's up
    to round-off, so (sigma^{1/2} - X_i) Pi_i is zero to machine precision.
    The X_i are normalized into an ensemble. Each A is a principal block of
    G, so by Cauchy interlacing its smallest eigenvalue is at least G's,
    s_min >= s_min^2, which ``_polar`` has already held above tol_psd.

    Returns (P, M, C, A): the pre-image, its optimal measurement, a dual
    certificate that self-certifies with no solver involved, and the map
    intermediates.
    """
    w, frame, sigma_sqrt = _polar(ensemble, tol)
    measurement = _measurement(w, ensemble, tol)
    coords = np.arange(ensemble.dim)
    x_ops = []
    deltas = []
    for block in _signature_slices(ensemble.rank_signature):
        col = frame[:, block]
        inner = col @ np.linalg.solve(col[block], col.conj().T)
        x_ops.append(herm(w @ inner @ w.conj().T))
        rest = np.delete(coords, block)
        deltas.append(herm((frame - inner)[np.ix_(rest, rest)]))
    traces = [float(np.trace(x).real) for x in x_ops]
    total = sum(traces)
    priors = [t / total for t in traces]
    states = [x / t for x, t in zip(x_ops, traces)]
    pre_image = validate_ensemble(priors, states, tol)
    if pre_image.rank_signature != ensemble.rank_signature:
        raise MEDError(
            f"inverse map changed the rank signature: {pre_image.rank_signature} "
            f"!= {ensemble.rank_signature}"
        )
    certificate = _certificate(pre_image, measurement.projectors, sigma_sqrt / total)
    artifacts = MapArtifacts(
        x_ops=tuple(x_ops), deltas=tuple(deltas), sigma_sqrt=sigma_sqrt
    )
    return pre_image, measurement, certificate, artifacts


@dataclass(frozen=True)
class RoundtripReport:
    """Composition deviations of the transform with its inverse.

    ``p_deviation``: inverse(forward(P)) against P, elementwise on p_i rho_i.
    ``q_deviation``: forward(inverse(Q)) against Q, treating the input as Q.
    """

    p_deviation: float
    q_deviation: float


def _max_weighted_deviation(first: Ensemble, second: Ensemble) -> float:
    worst = 0.0
    for a, b in zip(first.weighted_states(), second.weighted_states()):
        worst = max(worst, float(np.abs(a - b).max()))
    return worst


def roundtrip_check(ensemble: Ensemble, solver, tol: Tolerances = DEFAULT_TOL) -> RoundtripReport:
    """Both compositions of the transform and its inverse on one input.

    ``solver`` is a callable producing a certified SolveResult for an
    ensemble; it is only used for the forward direction.
    """
    result = solver(ensemble)
    if not getattr(result, "certified", False):
        raise SolverFailed("solver did not produce a certified optimum")
    derived = forward_map(ensemble, result.measurement, result.certificate, tol)
    reconstructed, _, _, _ = inverse_map(derived, tol)
    p_dev = _max_weighted_deviation(reconstructed, ensemble)

    pre_image, measurement, certificate, _ = inverse_map(ensemble, tol)
    rederived = forward_map(pre_image, measurement, certificate, tol)
    q_dev = _max_weighted_deviation(rederived, ensemble)
    return RoundtripReport(p_deviation=p_dev, q_deviation=q_dev)
