import numpy as np
import pytest
from conftest import rref_oracle

from eotypes import (ConstraintError, InternalInvariantError, Subspace,
                     TwistedMap, field_new, independent_subset, null_space,
                     rank, rref, solve_matrix, standard_gram, symplectic_perp,
                     twisted_image, twisted_kernel, twisted_preimage)
from eotypes.golden import GOLDEN_HW


def test_twisted_kernel_fixtures(F5, F4):
    k = twisted_kernel(TwistedMap(F5, np.array(GOLDEN_HW), twist=1))
    assert k.rows.tolist() == [[1, 0, 0], [0, 1, 1]]
    assert twisted_kernel(TwistedMap(F5, np.zeros((3, 3), int), 1)).dim == 3
    assert twisted_kernel(TwistedMap(F4, np.array([[2]]), 1)).dim == 0


def test_twisted_image_fixtures(F5):
    full = Subspace.full(F5, 3)
    assert twisted_image(TwistedMap(F5, np.array(GOLDEN_HW), 1), full).dim == 1
    assert twisted_image(TwistedMap(F5, np.zeros((3, 3), int), 1), full).dim == 0
    W = Subspace.span(F5, np.array([[1, 2, 0], [0, 0, 1]]))
    assert twisted_image(TwistedMap(F5, np.eye(3, dtype=int), 0), W) == W


def test_twisted_preimage_fixtures(F5):
    f = TwistedMap(F5, np.array(GOLDEN_HW), 1)
    assert twisted_preimage(f, Subspace.full(F5, 3)).dim == 3
    assert twisted_preimage(f, Subspace.zero(F5, 3)) == twisted_kernel(f)
    # Verschiebung of the two-dimensional supersingular block
    v = TwistedMap(F5, np.array([[0, 1], [0, 0]]), -1)
    pre = twisted_preimage(v, Subspace.span(F5, np.array([[1, 0]])))
    assert pre.dim == 2


def test_perp_fixtures(F5):
    gram = standard_gram(F5, 3)
    lagrangian = Subspace.span(F5, np.eye(6, dtype=int)[:3])
    assert symplectic_perp(lagrangian, gram) == lagrangian
    assert symplectic_perp(Subspace.full(F5, 6), gram).dim == 0
    W = Subspace.span(F5, np.array([[0, 0, 0, 4, 0, 3]]))
    P = symplectic_perp(W, gram)
    assert P.dim == 5
    for row in P.rows:
        assert (3 * row[0] + 4 * row[2]) % 5 == 0


def test_perp_rejects_bad_gram(F5):
    W = Subspace.span(F5, np.array([[1, 0]]))
    with pytest.raises(ConstraintError):
        symplectic_perp(W, np.zeros((2, 2), int))  # singular
    with pytest.raises(ConstraintError):
        symplectic_perp(W, np.eye(2, dtype=int))  # not alternating


def test_perp_involution_and_rank_nullity_random(F9):
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = int(rng.integers(1, 5))
        gram = standard_gram(F9, g)
        k = int(rng.integers(0, 2 * g + 1))
        W = Subspace.span(F9, F9.random_elements(rng, (k, 2 * g)), ambient=2 * g)
        again = symplectic_perp(symplectic_perp(W, gram), gram)
        assert again == W
        assert W.dim + symplectic_perp(W, gram).dim == 2 * g
        M = F9.random_elements(rng, (2 * g, 2 * g))
        tw = int(rng.integers(-1, 2))
        f = TwistedMap(F9, M, tw)
        full = Subspace.full(F9, 2 * g)
        assert twisted_kernel(f).dim + twisted_image(f, full).dim == 2 * g
        assert twisted_preimage(f, twisted_image(f, full)) == full


def test_prime_field_twist_irrelevant(F5):
    rng = np.random.default_rng(9)
    for _ in range(20):
        M = F5.random_elements(rng, (4, 4))
        k0 = twisted_kernel(TwistedMap(F5, M, 0))
        k1 = twisted_kernel(TwistedMap(F5, M, 1))
        assert k0 == k1
        W = Subspace.span(F5, F5.random_elements(rng, (2, 4)))
        assert twisted_image(TwistedMap(F5, M, 0), W) == twisted_image(TwistedMap(F5, M, 1), W)


def test_rref_canonical(F5):
    rows = np.array([[2, 4, 1], [1, 2, 3]])
    R1, piv1 = rref(F5, rows)
    R2, piv2 = rref(F5, rows[::-1])
    assert np.array_equal(R1, R2) and piv1 == piv2
    assert R1[0, piv1[0]] == 1


def test_null_space_is_echelon(F5):
    M = np.array([[1, 1, 0], [0, 0, 0]])
    N = null_space(F5, M)
    R, _ = rref(F5, N)
    assert np.array_equal(N, R)
    assert rank(F5, M) + N.shape[0] == 3


def test_solve_matrix(F5):
    rng = np.random.default_rng(13)
    A = F5.random_elements(rng, (5, 3))
    X = F5.random_elements(rng, (3, 2))
    B = F5.matmul(A, X)
    sol = solve_matrix(F5, A, B)
    assert np.array_equal(F5.matmul(A, sol), B)
    # inconsistent system
    A2 = np.array([[1, 0], [1, 0]])
    with pytest.raises(InternalInvariantError):
        solve_matrix(F5, A2, np.array([1, 2]))


def test_independent_subset_input_order(F5):
    vecs = np.array([[0, 0, 0], [1, 2, 0], [2, 4, 0], [0, 1, 1]])
    kept, rows, span = independent_subset(F5, vecs)
    assert kept == [1, 3]
    assert span.dim == 2


def test_subspace_membership_and_coords(F5):
    W = Subspace.span(F5, np.array([[1, 0, 2], [0, 1, 3]]))
    v = F5.add(W.rows[0], F5.scale_int(2, W.rows[1]))
    assert W.contains(v)
    assert W.coords_of(v).tolist() == [1, 2]
    with pytest.raises(InternalInvariantError):
        W.coords_of(np.array([0, 0, 1]))


def test_extension_field_twisted_kernel(F4):
    # x -> t * x^2 + ... on GF(4)^2: kernel of [t 1; 0 0] with twist 1
    M = np.array([[2, 1], [0, 0]])
    k = twisted_kernel(TwistedMap(F4, M, 1))
    assert k.dim == 1
    # verify by direct application
    f = TwistedMap(F4, M, 1)
    img = f.apply(k.rows[0])
    assert not img.any()


DIFFERENTIAL_FIELDS = [(2, 1), (5, 1), (101, 1), (2 ** 31 - 1, 1), (2, 2), (3, 2),
                       (7, 3), (31, 2), (2, 4), (101, 3)]


def _differential_matrices(F, rng):
    """Random, rank-deficient, zero-column, all-zero and empty matrices."""
    out = [np.zeros((0, 4), np.int64), np.zeros((4, 0), np.int64),
           np.zeros((0, 0), np.int64), np.zeros((3, 5), np.int64),
           F.random_elements(rng, (24, 32)), F.random_elements(rng, (32, 24))]
    for _ in range(6):
        rows, cols = (int(x) for x in rng.integers(1, 9, 2))
        out.append(F.random_elements(rng, (rows, cols)))
        k = int(rng.integers(1, min(rows, cols) + 1))
        A, B = F.random_elements(rng, (rows, k)), F.random_elements(rng, (k, cols))
        # of rank at most k; summed term by term, since GF(2^31 - 1) refuses
        # a matmul of more than two terms
        product = np.zeros((rows, cols), np.int64)
        for t in range(k):
            product = F.add(product, F.mul(A[:, t, None], B[None, t]))
        out.append(product)
        with_zero_columns = np.zeros((rows, cols + 3), np.int64)
        keep = np.sort(rng.choice(cols + 3, cols, replace=False))
        with_zero_columns[:, keep] = product
        out.append(with_zero_columns)
        out.append(np.vstack([product, product[::-1]]))
    return out


@pytest.mark.parametrize("p,m", DIFFERENTIAL_FIELDS)
def test_rref_matches_oracle(p, m):
    F = field_new(p, m)
    rng = np.random.default_rng(p * 10 + m)
    for M in _differential_matrices(F, rng):
        R, pivots = rref(F, M)
        R_oracle, pivots_oracle = rref_oracle(F, M)
        assert R.dtype == R_oracle.dtype and R.shape == R_oracle.shape
        assert np.array_equal(R, R_oracle) and pivots == pivots_oracle


def test_rref_headroom_schedule():
    # GF(2^31 - 1) allows two unreduced steps between full reductions. At
    # step s the pivot is 1, every other entry of the pivot column is p - 1
    # or just below it and the pivot row's other entries are p - 1, so each
    # step subtracts nearly term_bound from every trailing entry: three
    # steps without a reduction would pass below int64.
    F = field_new(2 ** 31 - 1)
    assert F.max_terms == 2
    i, j = np.indices((8, 12))
    M = np.where(i == j, i + 1, np.minimum(i, j) - 1) % F.p
    R, pivots = rref(F, M)
    R_oracle, pivots_oracle = rref_oracle(F, M)
    assert pivots == tuple(range(8))
    assert np.array_equal(R, R_oracle) and pivots == pivots_oracle
