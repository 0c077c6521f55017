import dataclasses
import gc
import weakref

import numpy as np
import pytest

import medli
from conftest import pure_pair, range_projectors
from medli import (
    NotProjectiveAfterPGM,
    SigmaSingular,
    certify_full,
    fixpoint_check,
    forward_map,
    inverse_map,
    pgm,
    random_ensemble,
    roundtrip_check,
    solve,
    validate_ensemble,
    validate_projective,
)
from medli.linalg import DEFAULT_TOL, haar_unitary, herm
from medli.ensembles import _layout
from medli.pgm import COND_LIMIT, _measurement, _psi_svd
from reference import (
    average_state,
    block_decompose,
    pairwise_column_squares,
    pairwise_stationarity,
    paper_x_ops,
    pgm_general,
    psd_sqrt,
    rank_eps,
    schur_complement,
)


def test_orthogonal_pair_gives_support_projectors():
    ens = validate_ensemble([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    meas = pgm(ens)
    np.testing.assert_allclose(meas.projectors[0], np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(meas.projectors[1], np.diag([0.0, 1.0]), atol=1e-12)


def test_simultaneously_diagonal_states_give_support_projectors():
    states = [np.diag([0.7, 0.3, 0.0]).astype(complex), np.diag([0.0, 0.0, 1.0]).astype(complex)]
    ens = validate_ensemble([0.4, 0.6], states)
    meas = pgm(ens)
    np.testing.assert_allclose(meas.projectors[0], np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(meas.projectors[1], np.diag([0.0, 0.0, 1.0]), atol=1e-12)


def test_pi4_pair_against_direct_two_by_two_arithmetic():
    # independent route: eigendecompose sigma by hand, build the elements inline
    ens = pure_pair(np.pi / 4)
    sigma = 0.5 * ens.states[0] + 0.5 * ens.states[1]
    w, v = np.linalg.eigh(sigma)
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    expected = [inv_root @ (0.5 * rho) @ inv_root for rho in ens.states]
    meas = pgm(ens)
    for got, want in zip(meas.projectors, expected):
        assert np.linalg.norm(got - want) < 1e-9
    for proj in meas.projectors:
        assert np.linalg.norm(proj @ proj - proj) < 1e-9
    assert np.linalg.norm(sum(meas.projectors) - np.eye(2)) < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_completeness_and_projectivity_properties(seed):
    sig = [(1, 1), (2, 1), (2, 2), (2, 1, 1)][seed % 4]
    ens = random_ensemble(sum(sig), sig, seed=seed)
    meas = pgm(ens)
    assert np.linalg.norm(sum(meas.projectors) - np.eye(ens.dim)) <= DEFAULT_TOL.tol_recon
    for proj, rank in zip(meas.projectors, ens.rank_signature):
        assert np.linalg.norm(proj @ proj - proj) <= DEFAULT_TOL.tol_recon
        assert round(float(np.trace(proj).real)) == rank
    assert meas.rank_signature == ens.rank_signature


@pytest.mark.parametrize("seed", range(4))
def test_unitary_covariance(seed):
    ens = random_ensemble(4, (2, 1, 1), seed=seed)
    rng = np.random.default_rng(900 + seed)
    u = haar_unitary(4, rng)
    conjugated = validate_ensemble(
        ens.priors, [herm(u @ rho @ u.conj().T) for rho in ens.states]
    )
    base = pgm(ens)
    rotated = pgm(conjugated)
    for proj, rot in zip(base.projectors, rotated.projectors):
        assert np.linalg.norm(rot - u @ proj @ u.conj().T) < 1e-9


def test_pgm_general_matches_pgm_elementwise():
    ens = random_ensemble(3, (1, 1, 1), seed=3)
    povm = pgm_general(ens)
    meas = pgm(ens)
    for element, proj in zip(povm.elements, meas.projectors):
        assert np.linalg.norm(element - proj) < 1e-9


def test_pgm_general_completeness_and_psd():
    ens = random_ensemble(4, (2, 1, 1), seed=5)
    povm = pgm_general(ens)
    assert np.linalg.norm(sum(povm.elements) - np.eye(4)) < 1e-10
    for element in povm.elements:
        assert np.linalg.eigvalsh(element)[0] > -1e-12


def test_sigma_conditioning_guard():
    # nearly coincident pure states pass the LI cutoff but exceed the
    # condition limit of the average state; the held singular values are
    # gated on every call, not only on the one that decomposed Psi
    theta = 1e-6
    ens = pure_pair(theta)
    _, s, _ = np.linalg.svd(ens.psi)
    assert s[0] ** 2 > COND_LIMIT * s[-1] ** 2
    for _ in range(3):
        for build in (_psi_svd, pgm, fixpoint_check, inverse_map):
            with pytest.raises(SigmaSingular, match="condition number"):
                build(ens)


def test_exactly_singular_psi_is_refused_without_division():
    # p_2 * 2e-8 underflows to 0, so Psi has an exactly zero singular value
    # although the ensemble passes validation
    ens = validate_ensemble(
        [1.0, 5e-324], [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0 - 2e-8, 2e-8])]
    )
    assert ens.rank_signature == (1, 2)
    assert np.linalg.svd(ens.psi, compute_uv=False)[-1] == 0.0
    for build in (pgm, fixpoint_check, inverse_map):
        with pytest.raises(SigmaSingular, match="condition number"):
            build(ens)


def test_psi_is_decomposed_once_per_ensemble(monkeypatch):
    # pgm, fixpoint_check, inverse_map, solve's PGM start and roundtrip_check
    # on one ensemble share one SVD of its Psi, held with the ensemble
    ens = random_ensemble(5, (2, 2, 1), seed=13)
    calls = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a is ens.psi)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    pgm(ens)
    fixpoint_check(ens)
    inverse_map(ens)
    assert solve(ens).certified
    roundtrip_check(ens)
    assert calls.count(True) == 1


def test_held_factors_are_read_only_and_shared():
    ens = random_ensemble(4, (2, 1, 1), seed=21)
    factors = _psi_svd(ens)
    assert all(a is b for a, b in zip(factors, _psi_svd(ens)))
    u, s, vh = factors
    assert u.shape == vh.shape == (4, 4) and s.shape == (4,)
    for arr in factors:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    # the held factors are the SVD of Psi itself, bit for bit
    for held, fresh in zip(factors, np.linalg.svd(ens.psi)):
        np.testing.assert_array_equal(held, fresh)
    # they live as long as their ensemble, no longer
    gone = weakref.ref(u)
    del ens, factors, u, s, vh, arr
    gc.collect()
    assert gone() is None


def _ambient_reference(ensemble, projectors):
    """sigma^{1/2}, X_i, Delta_i spectra and fixed-point residual built in the ambient basis.

    One eigendecomposition for sigma^{1/2} and one block decomposition per
    projector: the construction the polar factor replaces.
    """
    root = psd_sqrt(average_state(ensemble))
    x_ops, delta_spectra = [], []
    for proj in projectors:
        bd = block_decompose(root, proj)
        delta = schur_complement(bd)
        x_ops.append(dataclasses.replace(bd, c_block=bd.c_block - delta).reassemble())
        delta_spectra.append(np.linalg.eigvalsh(delta))
    pinched = herm(sum(proj @ root @ proj for proj in projectors))
    c_estimate = float(np.trace(pinched).real) / ensemble.dim
    residual = float(np.linalg.norm(pinched - c_estimate * np.eye(ensemble.dim)))
    return root, x_ops, delta_spectra, residual


SWEEP_SIGNATURES = [(1,) * d for d in range(2, 17)] + [
    (2,) * (d // 2) + (1,) * (d % 2) for d in range(3, 17)
]


def _signature_id(sig):
    return f"d{sum(sig)}-{'mixed' if max(sig) > 1 else 'pure'}"


SWEEP = pytest.mark.parametrize("sig", SWEEP_SIGNATURES, ids=_signature_id)


@SWEEP
def test_polar_path_matches_ambient_construction(sig):
    ens = random_ensemble(sum(sig), sig, seed=500 + sum(sig))
    meas = pgm(ens)
    assert validate_projective(meas.projectors).rank_signature == ens.rank_signature
    for proj, element in zip(meas.projectors, pgm_general(ens).elements):
        assert np.abs(proj - element).max() <= 1e-9
    root, x_ref, delta_ref, residual_ref = _ambient_reference(ens, meas.projectors)
    pre_image, _, report, sigma_sqrt = inverse_map(ens)
    assert np.abs(sigma_sqrt - root).max() <= 1e-12
    for x, want, proj, rank, spectrum in zip(
        paper_x_ops(pre_image, report, sigma_sqrt), x_ref, meas.projectors, ens.rank_signature, delta_ref
    ):
        assert np.abs(x - want).max() <= 1e-12
        assert np.linalg.norm((sigma_sqrt - x) @ proj) <= 1e-13
        assert rank_eps(x) == rank
        # Delta_i, the Schur complement: what X_i leaves of sigma^{1/2} on the kernel of Pi_i
        delta = block_decompose(sigma_sqrt - x, proj).c_block
        np.testing.assert_allclose(np.linalg.eigvalsh(delta), spectrum, rtol=0, atol=1e-12)
    assert fixpoint_check(ens).residual == pytest.approx(residual_ref, rel=0, abs=1e-14)


@pytest.mark.parametrize("sig", SWEEP_SIGNATURES + [(1,) * 32], ids=_signature_id)
def test_frame_stationarity_matches_pairwise(sig):
    # for projectors, max_i ||(K^dag - W_i) Pi_i||_F squared is the largest
    # column sum of the pairwise blocks ||Pi_j (W_j - W_i) Pi_i||^2, so it lies
    # between the largest block and sqrt(m - 1) times it; checked on the PGM,
    # the stationary pre-image pair of the inverse map, and the non-stationary
    # measurement of a Haar unitary, to round-off on entries of size <= 1
    ens = random_ensemble(sum(sig), sig, seed=500 + sum(sig))
    pre_image, stationary, _, _ = inverse_map(ens)
    haar = _measurement(haar_unitary(ens.dim, np.random.default_rng(sum(sig))), ens, DEFAULT_TOL)
    for ensemble, meas in ((ens, pgm(ens)), (pre_image, stationary), (ens, haar)):
        value = certify_full(ensemble, meas).stationarity_residual
        assert abs(value - np.sqrt(pairwise_column_squares(ensemble, meas.projectors))) <= 1e-15
        blockwise = pairwise_stationarity(ensemble, meas.projectors)
        assert blockwise - 1e-15 <= value <= np.sqrt(ensemble.m - 1) * blockwise + 1e-15
    # far from stationary, value^2 matches the column sums to 1e-14 relative
    columns = pairwise_column_squares(ens, haar.projectors)
    assert abs(certify_full(ens, haar).stationarity_residual ** 2 - columns) <= 1e-14 * columns
    assert pairwise_stationarity(ens, haar.projectors) > 1e-3


@SWEEP
def test_stored_range_pairs_and_stacked_slacks(sig):
    # Psi stored by validation, the p_i rho_i stack formed from the stored
    # states, then the slacks of one stacked spectrum against a per-state loop
    ens = random_ensemble(sum(sig), sig, seed=700 + sum(sig))
    psi, weighted = ens.psi, ens.weighted_states()
    assert psi.shape == (ens.dim, ens.dim) and weighted.shape == (ens.m, ens.dim, ens.dim)
    assert not psi.flags.writeable and not weighted.flags.writeable
    assert np.abs(psi @ psi.conj().T - average_state(ens)).max() <= 1e-12
    blocks = _layout(ens.rank_signature).slices
    for i, (block, rho, r, support) in enumerate(
        zip(blocks, ens.states, ens.rank_signature, range_projectors(ens))
    ):
        cols = psi[:, block]
        assert cols.shape == (ens.dim, r)
        assert np.abs(cols @ cols.conj().T - weighted[i]).max() <= 1e-12
        basis = np.linalg.qr(cols)[0]
        assert np.linalg.norm(basis @ basis.conj().T - support) <= 1e-9
        assert np.array_equal(weighted[i], ens.priors[i] * rho)
    pre_image, _, image_report, _ = inverse_map(ens)
    for report, weighted in (
        (certify_full(ens, pgm(ens)), ens.weighted_states()),
        (image_report, pre_image.weighted_states()),
    ):
        loop = [float(np.linalg.eigvalsh(report.z - w)[0]) for w in weighted]
        assert report.min_slack_eig == min(loop)
        assert report.positivity_min_eig == float(np.linalg.eigvalsh(report.z)[0])


def _decomposition_counter(monkeypatch):
    """A function running fn(*args) that returns the shapes numpy.linalg eigh/eigvalsh decomposed."""
    shapes = {}
    for name in ("eigh", "eigvalsh"):

        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            shapes[_name].append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def calls(fn, *args):
        shapes.update(eigh=[], eigvalsh=[])
        fn(*args)
        return {name: list(found) for name, found in shapes.items()}

    return calls


@pytest.mark.parametrize("sig", [(1,) * 8, (2, 2, 2, 1, 1)])
def test_each_state_is_decomposed_once(monkeypatch, sig):
    # validation decomposes the (m, d, d) stack of outside states once; the
    # maps build their outputs from factors and decompose no stack of them:
    # the inverse map's spectra are its report's, Z's positivity and every
    # slack in one (m + 1, d, d) stack, and the forward map reads its report,
    # decomposing nothing
    ens = random_ensemble(sum(sig), sig, seed=13)
    meas = pgm(ens)
    stack = (ens.m, ens.dim, ens.dim)
    calls = _decomposition_counter(monkeypatch)
    assert calls(validate_ensemble, ens.priors, ens.states) == {"eigh": [stack], "eigvalsh": []}
    assert calls(pgm, ens)["eigh"] == []
    assert calls(fixpoint_check, ens)["eigh"] == []
    spectra = (ens.m + 1, ens.dim, ens.dim)
    assert calls(inverse_map, ens) == {"eigh": [], "eigvalsh": [spectra]}
    pre_image, measurement, report, _ = inverse_map(ens)
    assert calls(forward_map, pre_image, measurement, report) == {"eigh": [], "eigvalsh": []}
    assert calls(certify_full, ens, meas) == {"eigh": [], "eigvalsh": [spectra]}


@pytest.mark.parametrize("sig", [(1,) * 8, (2, 2, 2, 1, 1)])
def test_projector_validation_decomposes_the_stack_once(monkeypatch, sig):
    # idempotence, ranks and the basis all come from one eigh of the (m, d, d) stack
    projectors = pgm(random_ensemble(sum(sig), sig, seed=13)).projectors
    calls = _decomposition_counter(monkeypatch)
    stack = (len(sig), sum(sig), sum(sig))
    assert calls(validate_projective, projectors) == {"eigh": [stack], "eigvalsh": []}


@pytest.mark.parametrize("sig", [(1,) * 8, (2, 2, 2, 1, 1)])
def test_solve_builds_its_measurement_without_validation(monkeypatch, sig):
    # one start, the PGM: its only spectrum is the report's stack of Z and the slacks
    ens = random_ensemble(sum(sig), sig, seed=13)
    results = []
    calls = _decomposition_counter(monkeypatch)
    spectra = calls(lambda: results.append(solve(ens)))["eigvalsh"]
    assert spectra == [(ens.m + 1, ens.dim, ens.dim)]
    assert results[0].certified
    assert results[0].measurement.rank_signature == ens.rank_signature


def test_solve_pairs_its_measurement_with_the_states_once(monkeypatch):
    # one start: the certifier's one pairing also gives the success probability,
    # and no public reader forms the product stack again
    ens = random_ensemble(5, (2, 2, 1), seed=13)
    calls = {"_pair": 0, "success_probability": 0, "detection_profile": 0}
    for name in calls:
        original = getattr(medli.ensembles, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (medli.ensembles, medli.belavkin, medli.certify, medli.solver):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    result = solve(ens)
    assert result.certified
    assert calls == {"_pair": 1, "success_probability": 0, "detection_profile": 0}


def test_measurement_checks_that_the_unitary_is_unitary():
    ens = random_ensemble(4, (2, 1, 1), seed=21)
    w = haar_unitary(4, np.random.default_rng(21))
    meas = _measurement(w, ens, DEFAULT_TOL)
    assert meas.rank_signature == ens.rank_signature
    assert validate_projective(meas.projectors).rank_signature == ens.rank_signature
    np.testing.assert_array_equal(meas.projectors[0], herm(w[:, :2] @ w[:, :2].conj().T))
    scaled = w.copy()
    scaled[:, 1] *= 1.0 + 1e-6
    with pytest.raises(NotProjectiveAfterPGM):
        _measurement(scaled, ens, DEFAULT_TOL)
