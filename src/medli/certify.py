"""Optimality certification and the fixed-point test.

Two certifiers are provided. The full one checks the general optimality
conditions: pairwise stationarity residuals plus PSD slacks of the candidate
dual operator. The simplified one is specific to LI ensembles with
rank-matched projective measurements, where optimality is equivalent to
sum_i p_i rho_i Pi_i being Hermitian and positive definite; it checks exactly
that, rather than smuggling the full condition back in.

Verdicts are three-tier: a check that fails by less than a factor of ten of
its tolerance yields Inconclusive instead of flipping to NotOptimal, so
certification on ill-conditioned instances fails loudly rather than silently.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .belavkin import dual_operator, stationarity_residual
from .ensembles import (
    Ensemble,
    GeneralPOVM,
    ProjectiveMeasurement,
    average_state,
    check_pair,
    validate_projective,
)
from .errors import MEDError, NotProjective, RankSignatureMismatch
from .linalg import DEFAULT_TOL, Tolerances, herm, psd_sqrt
from .pgm import pgm

OPTIMAL = "Optimal"
NOT_OPTIMAL = "NotOptimal"
INCONCLUSIVE = "Inconclusive"

_VERDICT_BAND = 10.0


@dataclass(frozen=True)
class CertificationReport:
    stationarity_residual: float
    min_slack_eig: float
    positivity_min_eig: float
    hermiticity_residual: float
    verdict: str
    dual_value: float


def _residuals(ensemble: Ensemble, measurement, tol: Tolerances) -> CertificationReport:
    """What both certifiers report; each sets the verdict by its own conditions."""
    certificate = dual_operator(ensemble, measurement, tol)
    return CertificationReport(
        stationarity_residual=stationarity_residual(ensemble, measurement),
        min_slack_eig=min(certificate.slack_min_eigs),
        positivity_min_eig=float(np.linalg.eigvalsh(certificate.z)[0]),
        hermiticity_residual=certificate.herm_residual,
        verdict=INCONCLUSIVE,
        dual_value=certificate.dual_value,
    )


def _three_tier(report: CertificationReport, ok: bool, borderline: bool) -> CertificationReport:
    verdict = OPTIMAL if ok else INCONCLUSIVE if borderline else NOT_OPTIMAL
    return dataclasses.replace(report, verdict=verdict)


def certify_full(ensemble: Ensemble, measurement, tol: Tolerances = DEFAULT_TOL) -> CertificationReport:
    """General optimality conditions for any POVM candidate.

    Optimal iff all pairwise stationarity residuals stay within tol_recon and
    every slack eigenvalue of Z - p_i rho_i is above -tol_psd.
    """
    report = _residuals(ensemble, measurement, tol)
    stationarity, slack = report.stationarity_residual, report.min_slack_eig
    ok = stationarity <= tol.tol_recon and slack >= -tol.tol_psd
    borderline = (
        stationarity <= _VERDICT_BAND * tol.tol_recon
        and slack >= -_VERDICT_BAND * tol.tol_psd
    )
    return _three_tier(report, ok, borderline)


def certify_simplified(
    ensemble: Ensemble, measurement, tol: Tolerances = DEFAULT_TOL
) -> CertificationReport:
    """Simplified conditions for rank-matched projective measurements.

    Optimal iff sum_i p_i rho_i Pi_i is Hermitian within tol_recon and PD
    above tol_psd. The full stationarity residual and slack spectrum are
    still computed for the report, but only hermiticity and positivity drive
    the verdict.
    """
    if isinstance(measurement, GeneralPOVM):
        try:
            measurement = validate_projective(measurement.elements, tol)
        except MEDError as exc:
            raise NotProjective(f"measurement is not projective: {exc}") from exc
    if not isinstance(measurement, ProjectiveMeasurement):
        raise NotProjective(f"expected projectors, got {type(measurement).__name__}")
    check_pair(ensemble, measurement)
    if measurement.rank_signature != ensemble.rank_signature:
        raise RankSignatureMismatch(
            f"projector ranks {measurement.rank_signature} != state ranks "
            f"{ensemble.rank_signature}"
        )
    report = _residuals(ensemble, measurement, tol)
    hermiticity, positivity = report.hermiticity_residual, report.positivity_min_eig
    ok = hermiticity <= tol.tol_recon and positivity > tol.tol_psd
    borderline = (
        hermiticity <= _VERDICT_BAND * tol.tol_recon
        and positivity > -_VERDICT_BAND * tol.tol_psd
    )
    return _three_tier(report, ok, borderline)


@dataclass(frozen=True)
class FixpointResult:
    is_fixed: bool
    c_estimate: float
    residual: float


def fixpoint_check(ensemble: Ensemble, tol: Tolerances = DEFAULT_TOL) -> FixpointResult:
    """Whether the ensemble's PGM is already its optimal measurement.

    Tests sum_i Pi_i rho^{1/2} Pi_i = c Id with Pi the PGM projectors and rho
    the average state. c is estimated as the trace mean, which minimizes the
    Frobenius residual and makes the test sharpest.
    """
    measurement = pgm(ensemble, tol)
    root = psd_sqrt(average_state(ensemble), tol)
    pinched = np.zeros_like(root)
    for proj in measurement.projectors:
        pinched += proj @ root @ proj
    pinched = herm(pinched)
    c_estimate = float(np.trace(pinched).real) / ensemble.dim
    residual = float(np.linalg.norm(pinched - c_estimate * np.eye(ensemble.dim)))
    return FixpointResult(
        is_fixed=residual <= tol.tol_fixpoint,
        c_estimate=c_estimate,
        residual=residual,
    )


def detection_profile(ensemble: Ensemble, measurement) -> list[float]:
    """Per-state detection weights p_i Tr(Pi_i rho_i).

    At a fixed point of the Belavkin transform these are proportional to the
    state ranks; for rank-one signatures they are all equal.
    """
    elements = check_pair(ensemble, measurement)
    return [
        float(p * np.trace(e @ rho).real)
        for p, rho, e in zip(ensemble.priors, ensemble.states, elements)
    ]
