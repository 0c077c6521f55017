"""Optimality certification and the fixed-point test.

Two certifiers are provided. The full one checks the general optimality
conditions: the stationarity residual max_i ||(K^dag - p_i rho_i) E_i||_F,
K = sum_j p_j rho_j E_j (:func:`medli.belavkin.stationarity_residual`; for
projectors it lies between the largest pairwise block norm and sqrt(m - 1)
times it), plus PSD slacks of the candidate dual operator. The simplified one is
specific to LI ensembles with rank-matched projective measurements, where
optimality is equivalent to sum_i p_i rho_i Pi_i being Hermitian and positive
definite; it checks exactly that, rather than smuggling the full condition
back in. Both numbers are in the full certifier's report, so the simplified
verdict is a second rule read off one report: ``medli certify`` builds one
report and reads both verdicts and the success probability from it, and a
report reads all its numbers off one pairing of the measurement's factors.

Verdicts are three-tier: a check that fails by less than a factor of ten of
its tolerance yields Inconclusive instead of flipping to NotOptimal, so
certification on ill-conditioned instances fails loudly rather than silently.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .belavkin import DualCertificate, dual_operator, stationarity_residual
from .ensembles import Ensemble, _pair, _signature_slices, rank_matched
from .linalg import DEFAULT_TOL, Tolerances
from .pgm import _frame, _psi_svd

OPTIMAL = "Optimal"
NOT_OPTIMAL = "NotOptimal"
INCONCLUSIVE = "Inconclusive"

_VERDICT_BAND = 10.0


@dataclass(frozen=True)
class CertificationReport:
    """Residuals and verdict of one certifier run.

    ``stationarity_residual`` is max_i ||(K^dag - p_i rho_i) E_i||_F; for
    projectors it lies between the largest pairwise block norm and sqrt(m - 1)
    times it. ``success_prob`` is ``success_probability`` of the pair, bit for
    bit. ``certificate`` is the candidate dual operator the residuals were
    read from, so a caller that needs it does not build it again.
    """

    stationarity_residual: float
    min_slack_eig: float
    positivity_min_eig: float
    hermiticity_residual: float
    verdict: str
    dual_value: float
    success_prob: float
    certificate: DualCertificate = field(repr=False, compare=False)


def _residuals(ensemble: Ensemble, measurement, tol: Tolerances) -> CertificationReport:
    """What both certifiers report; each sets the verdict by its own rule.

    The measurement is paired with the states once (``_pair``: one
    ``check_pair``, one ``weighted_states`` and one K), and the dual
    operator, the stationarity residual and the success probability (clamped
    by ``tol``) all read that pairing.
    """
    pairing = _pair(ensemble, measurement)
    certificate = dual_operator(ensemble, measurement, pairing)
    return CertificationReport(
        stationarity_residual=stationarity_residual(ensemble, measurement, pairing),
        min_slack_eig=min(certificate.slack_min_eigs),
        positivity_min_eig=float(np.linalg.eigvalsh(certificate.z)[0]),
        hermiticity_residual=certificate.herm_residual,
        verdict=INCONCLUSIVE,
        dual_value=certificate.dual_value,
        success_prob=pairing.success(tol),
        certificate=certificate,
    )


def _three_tier(report: CertificationReport, ok: bool, borderline: bool) -> CertificationReport:
    verdict = OPTIMAL if ok else INCONCLUSIVE if borderline else NOT_OPTIMAL
    return dataclasses.replace(report, verdict=verdict)


def certify_full(ensemble: Ensemble, measurement, tol: Tolerances = DEFAULT_TOL) -> CertificationReport:
    """General optimality conditions for any POVM candidate.

    Optimal iff the stationarity residual max_i ||(K^dag - p_i rho_i) E_i||_F
    stays within tol_recon and every slack eigenvalue of Z - p_i rho_i is
    above -tol_psd.
    """
    report = _residuals(ensemble, measurement, tol)
    stationarity, slack = report.stationarity_residual, report.min_slack_eig
    ok = stationarity <= tol.tol_recon and slack >= -tol.tol_psd
    borderline = (
        stationarity <= _VERDICT_BAND * tol.tol_recon
        and slack >= -_VERDICT_BAND * tol.tol_psd
    )
    return _three_tier(report, ok, borderline)


def _simplified_rule(report: CertificationReport, tol: Tolerances) -> CertificationReport:
    """The simplified verdict, read off a report of a rank-matched projective pair."""
    hermiticity, positivity = report.hermiticity_residual, report.positivity_min_eig
    ok = hermiticity <= tol.tol_recon and positivity > tol.tol_psd
    borderline = (
        hermiticity <= _VERDICT_BAND * tol.tol_recon
        and positivity > -_VERDICT_BAND * tol.tol_psd
    )
    return _three_tier(report, ok, borderline)


def certify_simplified(
    ensemble: Ensemble, measurement, tol: Tolerances = DEFAULT_TOL
) -> CertificationReport:
    """Simplified conditions for rank-matched projective measurements.

    Optimal iff sum_i p_i rho_i Pi_i is Hermitian within tol_recon and PD
    above tol_psd. The full stationarity residual and slack spectrum are
    still computed for the report, but only hermiticity and positivity drive
    the verdict. ``rank_matched`` checks the measurement, which the report
    pairs as given, as ``certify_full`` does, not as validation rebuilds it.
    """
    rank_matched(ensemble, measurement, tol)
    return _simplified_rule(_residuals(ensemble, measurement, tol), tol)


@dataclass(frozen=True)
class FixpointResult:
    is_fixed: bool
    c_estimate: float
    residual: float


def fixpoint_check(ensemble: Ensemble, tol: Tolerances = DEFAULT_TOL) -> FixpointResult:
    """Whether the ensemble's PGM is already its optimal measurement.

    Tests sum_i Pi_i rho^{1/2} Pi_i = c Id with Pi the PGM projectors and rho
    the average state. c is estimated as the trace mean, which minimizes the
    Frobenius residual and makes the test sharpest. The test is read in the
    PGM's block frame, G = W^dag rho^{1/2} W with W the PGM unitary: there the
    pinching keeps the diagonal blocks G_ii, and the Frobenius residual is
    unchanged by the unitary change of frame. G comes alone from the gated
    SVD of Psi (``pgm._frame``); neither W nor rho^{1/2} is formed.
    """
    _, s, vh = _psi_svd(ensemble)
    frame = _frame(s, vh)
    pinched = np.zeros_like(frame)
    for block in _signature_slices(ensemble.rank_signature):
        pinched[block, block] = frame[block, block]
    c_estimate = float(np.trace(frame).real) / ensemble.dim
    residual = float(np.linalg.norm(pinched - c_estimate * np.eye(ensemble.dim)))
    return FixpointResult(
        is_fixed=residual <= tol.tol_fixpoint,
        c_estimate=c_estimate,
        residual=residual,
    )

