import numpy as np
import pytest

from medli.errors import NotProjector, NotPSD
from medli.linalg import DEFAULT_TOL, Tolerances, expi_herm, haar_unitary, herm
from reference import (
    BlockDecomposition,
    NotPD,
    block_decompose,
    is_pd,
    is_psd,
    psd_inv_sqrt,
    psd_sqrt,
    rank_eps,
    schur_complement,
)


def random_psd(dim, rng, rank=None):
    rank = dim if rank is None else rank
    u = haar_unitary(dim, rng)
    w = np.zeros(dim)
    w[:rank] = rng.uniform(0.1, 2.0, size=rank)
    return herm((u * w) @ u.conj().T)


def random_projector(dim, rank, rng):
    u = haar_unitary(dim, rng)
    cols = u[:, :rank]
    return herm(cols @ cols.conj().T)


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-14)

    def test_square_reconstruction(self):
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        root = psd_sqrt(mat)
        assert np.linalg.norm(root @ root - mat) < 1e-10
        assert is_psd(root)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -1e-6]))

    def test_clamps_tiny_negatives(self):
        root = psd_sqrt(np.diag([1.0, -1e-12]))
        assert is_psd(root)

    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        mat = random_psd(dim, rng, rank=int(rng.integers(1, dim + 1)))
        root = psd_sqrt(mat)
        assert np.linalg.norm(root @ root - mat) <= DEFAULT_TOL.tol_recon * np.linalg.norm(mat)


class TestPsdInvSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_inv_sqrt(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            psd_inv_sqrt(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]), atol=1e-14
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        mat = random_psd(dim, rng)
        inv_root = psd_inv_sqrt(mat)
        assert np.linalg.norm(inv_root @ mat @ inv_root - np.eye(dim)) < 1e-9

    def test_rejects_singular(self):
        with pytest.raises(NotPD):
            psd_inv_sqrt(np.diag([1.0, 0.0]))


class TestBlockDecompose:
    def test_already_diagonal(self):
        bd = block_decompose(np.diag([5.0, 7.0]), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(bd.a_block, [[5.0]], atol=1e-14)
        np.testing.assert_allclose(bd.b_block, [[0.0]], atol=1e-14)
        np.testing.assert_allclose(bd.c_block, [[7.0]], atol=1e-14)

    def test_commuting_gives_zero_off_block(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(4, rng)
        mat = herm(u @ np.diag([3.0, 2.0, 1.0, 0.5]) @ u.conj().T)
        proj = herm(u[:, :2] @ u[:, :2].conj().T)
        bd = block_decompose(mat, proj)
        assert np.linalg.norm(bd.b_block) < 1e-12

    def test_rotated_two_by_two(self):
        # rotate to the (1,1)/sqrt(2) basis by direct arithmetic
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        proj = np.outer(v, v)
        bd = block_decompose(mat, proj)
        np.testing.assert_allclose(bd.a_block, [[3.0]], atol=1e-12)
        np.testing.assert_allclose(bd.c_block, [[1.0]], atol=1e-12)
        assert np.linalg.norm(bd.b_block) < 1e-12

    def test_rejects_non_projector(self):
        with pytest.raises(NotProjector):
            block_decompose(np.eye(2), np.diag([0.5, 0.5]))

    @pytest.mark.parametrize("seed", range(8))
    def test_reassembly_identity(self, seed):
        rng = np.random.default_rng(100 + seed)
        dim = int(rng.integers(2, 7))
        rank = int(rng.integers(1, dim))
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mat = herm(z)
        proj = random_projector(dim, rank, rng)
        bd = block_decompose(mat, proj)
        assert bd.rank == rank
        assert np.linalg.norm(bd.basis @ bd.basis.conj().T - np.eye(dim)) < 1e-12
        assert np.linalg.norm(bd.reassemble() - mat) <= DEFAULT_TOL.tol_recon


class TestSchurComplement:
    def test_block_diagonal_returns_c(self):
        bd = block_decompose(np.diag([2.0, 3.0, 4.0]), np.diag([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(schur_complement(bd), np.diag([3.0, 4.0]), atol=1e-14)

    def test_scalar_case(self):
        bd = BlockDecomposition(
            a_block=np.array([[2.0 + 0j]]),
            b_block=np.array([[1.0 + 0j]]),
            c_block=np.array([[1.0 + 0j]]),
            basis=np.eye(2, dtype=complex),
            rank=1,
        )
        np.testing.assert_allclose(schur_complement(bd), [[0.5]], atol=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_pd_source_gives_pd_complement(self, seed):
        rng = np.random.default_rng(200 + seed)
        dim = int(rng.integers(3, 7))
        rank = int(rng.integers(1, dim))
        mat = random_psd(dim, rng)
        proj = random_projector(dim, rank, rng)
        delta = schur_complement(block_decompose(mat, proj))
        assert np.linalg.eigvalsh(delta)[0] > 0

    def test_rejects_singular_a_block(self):
        bd = BlockDecomposition(
            a_block=np.array([[0.0 + 0j]]),
            b_block=np.array([[1.0 + 0j]]),
            c_block=np.array([[1.0 + 0j]]),
            basis=np.eye(2, dtype=complex),
            rank=1,
        )
        with pytest.raises(NotPD):
            schur_complement(bd)


class TestRankAndPositivity:
    def test_rank_zero_matrix(self):
        assert rank_eps(np.zeros((3, 3))) == 0

    def test_rank_one_projector(self):
        proj = np.zeros((4, 4))
        proj[0, 0] = 1.0
        assert rank_eps(proj) == 1

    def test_rank_thresholding(self):
        tol = Tolerances(tol_rank=1e-10)
        assert rank_eps(np.diag([1.0, 1e-14]), tol) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_unitary_invariance(self, seed):
        rng = np.random.default_rng(300 + seed)
        dim = int(rng.integers(2, 7))
        mat = random_psd(dim, rng, rank=int(rng.integers(1, dim + 1)))
        u = haar_unitary(dim, rng)
        assert rank_eps(mat) == rank_eps(herm(u @ mat @ u.conj().T))

    def test_is_pd_identity(self):
        assert is_pd(np.eye(3))

    def test_is_pd_singular(self):
        assert not is_pd(np.diag([1.0, 0.0]))
        assert is_psd(np.diag([1.0, 0.0]))

    def test_is_psd_thresholding(self):
        assert not is_psd(np.diag([1.0, -1e-6]), Tolerances(tol_psd=1e-9))


class TestTolerances:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerances(tol_psd=-1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Tolerances(tol_recon=float("nan"))

    @pytest.mark.parametrize("value", ["x", None, [1e-9]])
    def test_rejects_non_numbers_naming_the_field(self, value):
        # numpy's isfinite would raise its own TypeError, naming no field
        with pytest.raises(ValueError, match="tol_psd must be finite and nonnegative"):
            Tolerances(tol_psd=value)

    def test_replace(self):
        tol = DEFAULT_TOL.replace(tol_psd=1e-6)
        assert tol.tol_psd == 1e-6
        assert tol.tol_rank == DEFAULT_TOL.tol_rank


def test_expi_herm_is_unitary():
    rng = np.random.default_rng(4)
    h = herm(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    u = expi_herm(h, 0.3)
    assert np.linalg.norm(u @ u.conj().T - np.eye(4)) < 1e-13
