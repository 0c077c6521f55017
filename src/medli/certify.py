"""What certifies a pair: the optimality conditions and the fixed-point test.

This module alone knows what certifies a measurement for an ensemble. One
report (``_report``) reads every number off one pairing of the
measurement's factors E_i = L_i R_i^dag with the states (``ensembles._pair``),
and forms the dual operator Z = sym(K), K = sum_j p_j rho_j E_j, nowhere
else: the stationarity residual max_i ||(K^dag - p_i rho_i) E_i||_F (for
projectors it lies between the largest pairwise block norm and sqrt(m - 1)
times it), the slack spectra of Z - p_i rho_i (Eldar-Megretski-Verghese,
IEEE TIT 49, 1007 (2003)), the positivity of Z, the hermiticity residual of
K, the dual value Tr Z and the success probability. Every report comes from
it: both certifiers', each solver restart's and the inverse map's. The
report of an ensemble with a projective measurement is made once per
tolerances and held while both live (``_held_report``), so the inverse
map's report, or a restart's, is the one both certifiers read off that
pair; its ``z`` is read-only, as every reader shares it.

Two rules read verdicts off a report. The full one (``_full_rule``) checks
the general optimality conditions, stationarity plus PSD slacks; the forward
map refuses a pair unless it says Optimal. The simplified one is specific
to LI ensembles with rank-matched projective measurements, where optimality
is equivalent to K being Hermitian and positive definite; it checks exactly
that, rather than smuggling the full condition back in.
``medli certify`` builds one report and reads both verdicts and the success
probability from it.

Verdicts are three-tier: a check that fails by less than a factor of ten of
its tolerance yields Inconclusive instead of flipping to NotOptimal, so
certification on ill-conditioned instances fails loudly rather than silently.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass, field

import numpy as np

from .ensembles import (
    Ensemble,
    ProjectiveMeasurement,
    _block_norms2,
    _frozen,
    _pair,
    _Pairing,
    _signature_slices,
    rank_matched,
)
from .linalg import DEFAULT_TOL, Tolerances, herm, hermiticity_defect
from .pgm import _frame, _psi_svd

OPTIMAL = "Optimal"
NOT_OPTIMAL = "NotOptimal"
INCONCLUSIVE = "Inconclusive"

_VERDICT_BAND = 10.0

# Each live projective measurement's unverdicted reports, keyed by the
# measurement, then its ensemble, then the tolerances: an entry goes when
# its measurement or its ensemble does.
_REPORTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class CertificationReport:
    """The numbers that certify a pair, and the verdict of one rule.

    ``stationarity_residual`` is max_i ||(K^dag - p_i rho_i) E_i||_F; for
    projectors it lies between the largest pairwise block norm and sqrt(m - 1)
    times it. ``min_slack_eig`` is the least eigenvalue of any slack
    Z - p_i rho_i, and ``positivity_min_eig`` Z's least. A large
    ``hermiticity_residual``, ||K - K^dag||_F, means the measurement is not
    even stationary, a negative slack that it is, but the dual constraint fails.
    ``dual_value`` is Tr Z, and ``success_prob`` is ``success_probability``
    of the pair, bit for bit. ``z`` is the dual operator Z = sym(K) itself,
    read-only.
    """

    stationarity_residual: float
    min_slack_eig: float
    positivity_min_eig: float
    hermiticity_residual: float
    verdict: str
    dual_value: float
    success_prob: float
    z: np.ndarray = field(repr=False, compare=False)


def _report(pairing: _Pairing, tol: Tolerances) -> CertificationReport:
    """Every number that certifies the paired measurement, Z = sym(K); verdict unset.

    With E_i = L_i R_i^dag, R_i's columns orthonormal, column block i of
    K^dag L - W L is (K^dag - p_i rho_i) L_i, whose norm is the stationarity
    residual of outcome i: O(d^3) for projectors. Summed over j, the pairwise
    conditions E_j (p_j rho_j - p_i rho_i) E_i = 0 are exactly
    (K^dag - p_i rho_i) E_i = 0, since the E_j sum to the identity. Z's
    spectrum and every slack's come from one ``eigvalsh`` of the stack
    [Z; Z - p_1 rho_1; ...; Z - p_m rho_m], and the success probability is
    clamped by ``tol``.
    """
    z = herm(pairing.k)
    spectra = np.empty((len(pairing.weighted) + 1, *z.shape), dtype=complex)
    spectra[0] = z
    np.subtract(z, pairing.weighted, out=spectra[1:])
    lowest = np.linalg.eigvalsh(spectra)[:, 0]
    columns = pairing.k.conj().T @ pairing.left - pairing.wl
    return CertificationReport(
        stationarity_residual=float(np.sqrt(_block_norms2(columns, pairing.signature).max())),
        min_slack_eig=float(lowest[1:].min()),
        positivity_min_eig=float(lowest[0]),
        hermiticity_residual=hermiticity_defect(pairing.k),
        verdict=INCONCLUSIVE,
        dual_value=float(np.trace(z).real),
        success_prob=pairing.success(tol),
        z=_frozen(z),
    )


def _held_report(ensemble: Ensemble, measurement, tol: Tolerances) -> CertificationReport:
    """``_report(_pair(ensemble, measurement), tol)``, made once per projective pair.

    A ProjectiveMeasurement holds a read-only V (``_from_basis``) and an
    ensemble read-only arrays, so the pair's report is made on its first
    call and held (``_REPORTS``) while both live; ``tol`` is part of the key,
    as the success probability's clamp reads it. A GeneralPOVM may be built
    by hand from writable arrays, so it is paired on every call. Threads that
    miss together each make the report, but ``setdefault`` keeps the first,
    so every call on a pair returns the one held report.
    """
    if not isinstance(measurement, ProjectiveMeasurement):
        return _report(_pair(ensemble, measurement), tol)
    by_tol = _REPORTS.setdefault(measurement, weakref.WeakKeyDictionary()).setdefault(ensemble, {})
    if (report := by_tol.get(tol)) is None:
        report = by_tol.setdefault(tol, _report(_pair(ensemble, measurement), tol))
    return report


def _three_tier(report: CertificationReport, ok: bool, borderline: bool) -> CertificationReport:
    verdict = OPTIMAL if ok else INCONCLUSIVE if borderline else NOT_OPTIMAL
    return dataclasses.replace(report, verdict=verdict)


def _full_rule(report: CertificationReport, tol: Tolerances) -> CertificationReport:
    """The full verdict: stationarity within tol_recon, every slack above -tol_psd."""
    stationarity, slack = report.stationarity_residual, report.min_slack_eig
    ok = stationarity <= tol.tol_recon and slack >= -tol.tol_psd
    borderline = (
        stationarity <= _VERDICT_BAND * tol.tol_recon
        and slack >= -_VERDICT_BAND * tol.tol_psd
    )
    return _three_tier(report, ok, borderline)


def certify_full(ensemble: Ensemble, measurement, tol: Tolerances = DEFAULT_TOL) -> CertificationReport:
    """General optimality conditions for any POVM candidate.

    Optimal iff the stationarity residual max_i ||(K^dag - p_i rho_i) E_i||_F
    stays within tol_recon and every slack eigenvalue of Z - p_i rho_i,
    Z = sym(K), is above -tol_psd.
    """
    return _full_rule(_held_report(ensemble, measurement, tol), tol)


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
    read off the held report (``_held_report``), but only hermiticity and
    positivity drive the verdict. ``rank_matched`` checks the measurement on
    every call; the report pairs it as given, as ``certify_full`` does, not
    as validation rebuilds it.
    """
    rank_matched(ensemble, measurement, tol)
    return _simplified_rule(_held_report(ensemble, measurement, tol), tol)


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

