"""Known answers from geometrically uniform (GU) ensembles.

For a pure GU ensemble the PGM is optimal with a closed-form success
probability, so the ensemble is a fixed point of the map; none of it comes
from medli's own constructions. Mixed GU ensembles are in general not fixed
points, but their unique optimum is covariant: Pi_k = U^k Pi_0 U^{-k}
(Eldar, Megretski, Verghese, IEEE TIT 50, 1198 (2004)).
"""

import numpy as np
import pytest

from conftest import gu_mixed, gu_pure
from medli import fixpoint_check, inverse_map, pgm, solve, success_probability


@pytest.mark.parametrize("dim", [4, 8, 16, 32, 64])
def test_pure_gu_is_a_fixed_point_with_the_closed_form_optimum(dim):
    ens, psi0 = gu_pure(dim, seed=dim)
    closed_form = float(np.abs(psi0).sum() ** 2 / dim)
    assert abs(success_probability(ens, pgm(ens)) - closed_form) <= 1e-12
    assert fixpoint_check(ens).is_fixed
    pre_image, _, _, _ = inverse_map(ens)
    assert np.abs(pre_image.weighted_states() - ens.weighted_states()).max() <= 1e-12
    result = solve(ens)
    assert result.certified and result.iterations == 0
    assert abs(result.success_prob - closed_form) <= 1e-12


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("dim,m,rank", [(6, 3, 2), (12, 4, 3), (12, 3, 4), (64, 8, 8)])
def test_mixed_gu_optimum_is_covariant(dim, m, rank, seed):
    ens, u = gu_mixed(dim, m, rank, seed)
    assert ens.rank_signature == (rank,) * m
    assert not fixpoint_check(ens).is_fixed
    result = solve(ens)
    assert result.certified
    first = result.measurement.projectors[0]
    for k, proj in enumerate(result.measurement.projectors):
        turn = np.linalg.matrix_power(u, k)
        assert np.abs(turn @ first @ turn.conj().T - proj).max() <= 1e-12
