"""The Belavkin transform between LI ensembles and its explicit inverse.

The forward map sends an ensemble P, together with an optimal dual pair
(measurement, Z), to the derived ensemble Q with q_i sigma_i = Z Pi_i Z / Tr(Z^2).
The inverse map reconstructs, from any LI ensemble Q, the unique pre-image P
whose optimal measurement is the pretty good measurement of Q. It reads the
blocks of the square root of Q's average state around each PGM projector
from one matrix, sigma^{1/2} in the PGM's frame, which comes with the PGM
from one SVD (see :mod:`medli.pgm`). Both maps know their outputs as
factors: X_i = F_i F_i^dag with F_i = W G[:, i] L_i^{-dag}, A_i = L_i L_i^dag
for the pre-image, and Z Pi_i Z = (Z V_i)(Z V_i)^dag for the image, V the
measurement's column basis. ``ensembles._from_factors`` builds each output
from its factors in O(d^3), with no eigendecomposition of its states.

Neither map pairs a measurement with states or reads a certificate off its
own numbers: :mod:`medli.certify` does both. The inverse map's report is
``certify_simplified``'s for the pre-image and its measurement, so its Z is
sym(K), K = sum_i p_i rho_i Pi_i, which equals the paper's
sigma^{1/2} / sum_j Tr X_j at the optimum; the map returns sigma^{1/2} as a
bare array beside the report. The forward map takes a pair's report and
refuses it unless the full rule (``certify._full_rule``) says Optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import OPTIMAL, CertificationReport, _full_rule, certify_simplified
from .ensembles import Ensemble, ProjectiveMeasurement, _block_norms2, _from_factors, _layout, rank_matched
from .errors import NotOptimalPair, SolverFailed
from .linalg import DEFAULT_TOL, Tolerances
from .pgm import _measurement, _polar
from .solver import solve


def forward_map(
    ensemble: Ensemble,
    measurement: ProjectiveMeasurement,
    report: CertificationReport,
    tol: Tolerances = DEFAULT_TOL,
) -> Ensemble:
    """Derived ensemble {q_i, sigma_i} of an optimal dual pair.

    q_i sigma_i = Z Pi_i Z / Tr(Z^2) = F_i F_i^dag / ||F||_F^2 for the
    column blocks F_i of F = Z V, V the rank-matched measurement's column
    basis (``rank_matched``; a GeneralPOVM of projectors gets one there), so
    q_i = Tr(Z^2 Pi_i) / Tr(Z^2) = ||F_i||_F^2 / ||F||_F^2. The image is
    built from F by ``_from_factors``, in O(d^3). ``report`` is the pair's
    ``CertificationReport``, a certifier's or ``inverse_map``'s, and Z is its
    ``z``. Refuses to run unless the full rule, read off the report, says
    Optimal: the map is only defined at optimal dual pairs, and solving and
    certifying are the caller's job, so nothing is paired here.
    """
    verdict = _full_rule(report, tol).verdict
    if verdict != OPTIMAL:
        raise NotOptimalPair(
            f"full certificate verdict {verdict}: stationarity residual "
            f"{report.stationarity_residual:.3e} (tol_recon {tol.tol_recon:.1e}), "
            f"dual slack eigenvalue {report.min_slack_eig:.3e} (-tol_psd {-tol.tol_psd:.1e})"
        )
    factors = report.z @ rank_matched(ensemble, measurement, tol)._basis
    weights = _block_norms2(factors, ensemble.rank_signature)
    if weights.min() < tol.tol_psd:
        raise NotOptimalPair(
            f"outcome weight Tr(Z^2 Pi_i) = {weights.min():.3e} vanishes; "
            "not an optimal dual pair of an LI ensemble"
        )
    return _from_factors(factors, ensemble.rank_signature, tol)


def _whitened(frame: np.ndarray, signature) -> np.ndarray:
    """G blockdiag(L_i^{-dag}), with A_i = L_i L_i^dag the diagonal blocks of G.

    Column block i, H_i = G[:, i] L_i^{-dag}, has H_i H_i^dag =
    G[:, i] A_i^{-1} G[i, :]. G is Hermitian, so H_i^dag = L_i^{-1} G[i, :]:
    one batched Cholesky and one batched solve per run of equal ranks (``_Layout.runs``).
    """
    out = np.empty_like(frame)
    for _, cols, k, r in _layout(signature).runs:
        rows = frame[cols].reshape(k, r, -1)
        chol = np.linalg.cholesky(np.einsum("iaib->iab", rows[..., cols].reshape(k, r, k, r)))
        out[:, cols] = np.linalg.solve(chol, rows).conj().transpose(2, 0, 1).reshape(-1, k * r)
    return out


def inverse_map(
    ensemble: Ensemble, tol: Tolerances = DEFAULT_TOL
) -> tuple[Ensemble, ProjectiveMeasurement, CertificationReport, np.ndarray]:
    """Pre-image ensemble whose optimal measurement is this ensemble's PGM.

    In the PGM frame G = W^dag sigma^{1/2} W, with W the PGM unitary, the
    coordinates of block i span projector i's range and the others its
    kernel, so the blocks A, B, C of sigma^{1/2} are slices of G. The paper's
    X_i = [[A, B], [B^dag, B^dag A^{-1} B]] is then G[:, i] A^{-1} G[i, :],
    and Delta_i = C - B^dag A^{-1} B is what it leaves of G on the kernel
    coordinates. With A_i = L_i L_i^dag, X_i = F_i F_i^dag for
    F_i = W G[:, i] L_i^{-dag} in ambient coordinates (``_whitened``), so the
    pre-image p_i rho_i = X_i / sum_j Tr X_j is built from F = W G
    blockdiag(L_i^{-dag}) by ``_from_factors``, with no d x d
    eigendecomposition. F_i's block-i rows in the frame are L_i, so
    (sigma^{1/2} - X_i) Pi_i is zero to machine precision. Each A is a
    principal block of G, so by Cauchy interlacing
    lambda_min(A) >= s_min >= s_max 10^-6 > 0, by ``_polar``'s gate on
    cond(sigma) = (s_max / s_min)^2, and its Cholesky factor exists.

    Returns (P, M, R, S): the pre-image, its optimal measurement, the
    pair's report, and the d x d array S = sigma^{1/2}. R is
    ``certify_simplified`` of the pair, so the pair self-certifies with no
    solver involved. The X_i are t p_i rho_i with t = sum_j Tr X_j, and the
    paper's dual operator sigma^{1/2} / t equals R's Z = sym(K) to round-off.
    """
    w, frame, sigma_sqrt = _polar(ensemble)
    measurement = _measurement(w, ensemble, tol)
    factors = w @ _whitened(frame, ensemble.rank_signature)
    pre_image = _from_factors(factors, ensemble.rank_signature, tol)
    report = certify_simplified(pre_image, measurement, tol)
    return pre_image, measurement, report, sigma_sqrt


@dataclass(frozen=True)
class RoundtripReport:
    """Composition deviations of the transform with its inverse.

    ``p_deviation``: inverse(forward(P)) against P, elementwise on p_i rho_i.
    ``q_deviation``: forward(inverse(Q)) against Q, treating the input as Q.
    """

    p_deviation: float
    q_deviation: float


def _max_weighted_deviation(first: Ensemble, second: Ensemble) -> float:
    return float(np.abs(first.weighted_states() - second.weighted_states()).max())


def roundtrip_check(ensemble: Ensemble, tol: Tolerances = DEFAULT_TOL) -> RoundtripReport:
    """Both compositions of the transform and its inverse on one input.

    The forward direction starts from ``solve``'s optimum, and raises
    SolverFailed unless the solve certifies.
    """
    result = solve(ensemble, tol)
    if not result.certified:
        raise SolverFailed("solver did not produce a certified optimum")
    derived = forward_map(ensemble, result.measurement, result.report, tol)
    reconstructed, _, _, _ = inverse_map(derived, tol)
    p_dev = _max_weighted_deviation(reconstructed, ensemble)

    pre_image, measurement, report, _ = inverse_map(ensemble, tol)
    rederived = forward_map(pre_image, measurement, report, tol)
    q_dev = _max_weighted_deviation(rederived, ensemble)
    return RoundtripReport(p_deviation=p_dev, q_deviation=q_dev)
