import numpy as np
import pytest
from conftest import rref_oracle

from eotypes import (ConstraintError, GradedPoly, InternalInvariantError, Subspace,
                     TwistedMap, field_new, monomial_basis,
                     null_space, plane_curve, rank, rref, solve_matrix,
                     symplectic_perp, twisted_image, twisted_kernel, twisted_preimage)
from eotypes.golden import GOLDEN_HW
from eotypes.hwtriple import _derivative_matrix


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
    lagrangian = Subspace.span(F5, np.eye(6, dtype=int)[:3])
    assert symplectic_perp(lagrangian) == lagrangian
    assert symplectic_perp(Subspace.full(F5, 6)).dim == 0
    W = Subspace.span(F5, np.array([[0, 0, 0, 4, 0, 3]]))
    P = symplectic_perp(W)
    assert P.dim == 5
    for row in P.rows:
        assert (3 * row[0] + 4 * row[2]) % 5 == 0


def test_perp_involution_and_rank_nullity_random(F9):
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = int(rng.integers(1, 5))
        k = int(rng.integers(0, 2 * g + 1))
        W = Subspace.span(F9, F9.random_elements(rng, (k, 2 * g)))
        again = symplectic_perp(symplectic_perp(W))
        assert again == W
        assert W.dim + symplectic_perp(W).dim == 2 * g
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
        solve_matrix(F5, A2, np.array([[1], [2]]))


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (101, 1), (2, 2), (3, 2), (7, 3)])
def test_kernel_and_twist_need_no_second_reduction(p, m):
    # null_space reads its basis off one reduction of M, Subspace.kernel
    # keeps that basis's pivots and Subspace.twist keeps them through sigma:
    # reducing either basis again (rref_oracle) changes neither rows nor
    # pivots.
    F = field_new(p, m)
    rng = np.random.default_rng(p * 10 + m)
    for _ in range(30):
        n, k = (int(x) for x in rng.integers(1, 8, 2))
        r = int(rng.integers(1, min(n, k) + 1))
        low_rank = F.matmul(F.random_elements(rng, (k, r)), F.random_elements(rng, (r, n)))
        for M in (F.random_elements(rng, (k, n)), low_rank, np.zeros((k, n), np.int64)):
            W = Subspace.kernel(F, M)
            assert W.ambient == n and W.dim == n - rank(F, M)
            assert not F.matmul(M, W.rows.T).any()
            assert np.array_equal(W.rows, null_space(F, M))
            for k_twist in (0, 1, -1):
                V = W.twist(k_twist)
                R, pivots = rref_oracle(F, V.rows.reshape(-1, n))
                assert np.array_equal(V.rows, R) and V.pivots == pivots
                assert np.array_equal(V.rows, F.frob(W.rows, k_twist))


def test_subspace_queries_on_rows(F9):
    rng = np.random.default_rng(3)
    W = Subspace.span(F9, F9.random_elements(rng, (2, 5)))
    inside = F9.matmul(F9.random_elements(rng, (4, 2)), W.rows)
    outside = np.vstack([inside, F9.random_elements(rng, (1, 5))])
    assert np.array_equal(W.reduce(outside), np.vstack([W.reduce(v[None]) for v in outside]))
    assert not W.reduce(inside).any()
    assert W.reduce(np.zeros((0, 5), np.int64)).shape == (0, 5)
    assert W.contains(inside) and not W.contains(outside)
    assert np.array_equal(W.coords_of(inside), np.vstack([W.coords_of(v[None]) for v in inside]))
    assert np.array_equal(F9.matmul(W.coords_of(inside), W.rows), inside)
    with pytest.raises(InternalInvariantError):
        W.coords_of(outside)


def test_zero_subspace(F9):
    Z = Subspace.zero(F9, 3)
    v = np.array([[1, 0, 5]])
    rows = np.array([[0, 0, 0], [1, 2, 3]])
    assert np.array_equal(Z.reduce(v), v) and np.array_equal(Z.reduce(rows), rows)
    assert Z.reduce(np.zeros((0, 3), np.int64)).shape == (0, 3)
    assert Z.contains(np.zeros((1, 3), np.int64)) and Z.contains(np.zeros((2, 3), np.int64))
    assert not Z.contains(v) and not Z.contains(rows)
    assert Z.coords_of(np.zeros((1, 3), np.int64)).shape == (1, 0)
    assert Z.coords_of(np.zeros((2, 3), np.int64)).shape == (2, 0)
    for bad in (v, rows):
        with pytest.raises(InternalInvariantError):
            Z.coords_of(bad)
    assert Z.is_subspace_of(Subspace.zero(F9, 3))
    rng = np.random.default_rng(5)
    f = TwistedMap(F9, F9.random_elements(rng, (4, 3)), 1)
    assert twisted_image(f, Z) == Subspace.zero(F9, 4)
    assert twisted_preimage(f, Subspace.zero(F9, 4)) == twisted_kernel(f)
    assert symplectic_perp(Subspace.zero(F9, 4)) == Subspace.full(F9, 4)


def test_subspace_membership_and_coords(F5):
    W = Subspace.span(F5, np.array([[1, 0, 2], [0, 1, 3]]))
    v = F5.add(W.rows[:1], F5.scale_int(2, W.rows[1:]))
    assert W.contains(v)
    assert W.coords_of(v).tolist() == [[1, 2]]
    with pytest.raises(InternalInvariantError):
        W.coords_of(np.array([[0, 0, 1]]))


def test_extension_field_twisted_kernel(F4):
    # x -> t * x^2 + ... on GF(4)^2: kernel of [t 1; 0 0] with twist 1
    M = np.array([[2, 1], [0, 0]])
    k = twisted_kernel(TwistedMap(F4, M, 1))
    assert k.dim == 1
    # verify by direct application
    f = TwistedMap(F4, M, 1)
    img = f.apply(k.rows.T)
    assert not img.any()


# GF(251^2) is the largest q here with an inverse table, GF(257^2) the
# smallest extension without one, and GF(1048573^3) has max_terms = 1: a
# full reduction before every step
DIFFERENTIAL_FIELDS = [(2, 1), (5, 1), (101, 1), (2 ** 31 - 1, 1), (2, 2), (3, 2),
                       (7, 3), (31, 2), (2, 4), (101, 3), (251, 2), (257, 2),
                       (1048573, 3)]


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


def test_rref_refuses_an_entry_past_its_headroom(monkeypatch):
    # test_rref_headroom_schedule's matrix with max_terms raised from 2 to
    # 8: no full reduction in its eight steps, so entries pass below int64
    # and wrap to the top, which the check at the end of the loop finds
    F = field_new(2 ** 31 - 1)
    i, j = np.indices((8, 12))
    M = np.where(i == j, i + 1, np.minimum(i, j) - 1) % F.p
    monkeypatch.setattr(F, "max_terms", 8)
    with pytest.raises(InternalInvariantError, match="int64 headroom"):
        rref(F, M)


@pytest.mark.parametrize("call,message", [
    (lambda F: rref(F, np.array([1, 2, 3])), "rref expects a matrix"),
    (lambda F: TwistedMap(F, np.array([1, 2]), 1), "twisted map needs a matrix"),
    (lambda F: twisted_image(TwistedMap(F, np.eye(2, dtype=int)), Subspace.full(F, 3)),
     "subspace ambient 3 does not match map domain 2"),
    (lambda F: twisted_preimage(TwistedMap(F, np.zeros((3, 2), int)), Subspace.full(F, 2)),
     "subspace ambient 2 does not match map codomain 3"),
], ids=["rref", "twisted-map", "image", "preimage"])
def test_argument_checks(F5, call, message):
    with pytest.raises(ConstraintError, match=message):
        call(F5)


def test_rref_worst_case_digits_without_headroom():
    # GF(1048573^3) reduces fully before every step. At the first pivot, the
    # pivot's inverse and the next three entries of its row have every digit
    # p - 1, so the scale reaches its largest products. The row's last three
    # entries scale to q - 1 and the pivot column's other entries are q - 1,
    # so the update reaches its largest products as well.
    F = field_new(1048573, 3)
    assert F.max_terms == 1
    top = F.q - 1
    M = np.full((5, 7), top)
    M[0, 0] = F.inv_scalar(top)
    M[0, 4:] = 1
    M[2:, 1:4] = F.random_elements(np.random.default_rng(5), (3, 3))
    R, pivots = rref(F, M)
    R_oracle, pivots_oracle = rref_oracle(F, M)
    assert np.array_equal(R, R_oracle) and pivots == pivots_oracle
    # both reach the largest product of two elements; x^3 = -2 leaves _red
    # sparse, so that is about a third of term_bound
    scaled = F.scale_by_inverse(F.digit_view(M[0]), F.digit_view(M[0, 0]))
    square = int(F.mul(top, top))
    assert F.from_digit_view(scaled).tolist() == [1] + [square] * 3 + [top] * 3
    update = F.mul_outer(F.digit_view(M[1:, 0]), scaled % F.p)
    largest = F.mul_digits(F.digit_view(top), F.digit_view(top)).max()
    assert scaled.max() == update.max() == largest > F.term_bound // 4


def _pivot_rows(monkeypatch, F, M):
    """The row each pivot of rank's pass is taken from: an echelon step
    updates the rows below its pivot row i, len(M) - 1 - i of them."""
    rows = []
    mul_outer = F.mul_outer

    def spy(a, b):
        rows.append(len(M) - 1 - len(a))
        return mul_outer(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(F, "mul_outer", spy)
        rank(F, M)
    return rows


def _assert_both_modes_match_oracle(F, M):
    """rref and its echelon mode against the oracle; returns rref's result."""
    R, pivots = rref(F, M)
    R_oracle, pivots_oracle = rref_oracle(F, M)
    assert np.array_equal(R, R_oracle) and pivots == pivots_oracle
    assert rank(F, M) == len(pivots)
    E, echelon_pivots = rref(F, M, _reduced=False)
    assert echelon_pivots == pivots_oracle
    assert np.array_equal(rref(F, E)[0], R_oracle)
    return R, pivots


@pytest.mark.parametrize("p,m", [(2 ** 31 - 1, 1), (1048573, 3)])
def test_rref_headroom_schedule_with_pivots_from_below(monkeypatch, p, m):
    # the schedule of test_rref_headroom_schedule (over GF(1048573^3) its
    # -1 is q - 1, every digit p - 1) below a zero row, each row twice: at
    # step s rows s.. hold the zero row and the duplicates the earlier steps
    # reduced to 0 mod p, unreduced, so every pivot row comes from below and
    # the rows copied down hold what the run has subtracted so far
    F = field_new(p, m)
    assert F.max_terms == (2 if m == 1 else 1)
    i, j = np.indices((8, 12))
    H = np.where(i == j, i + 1, np.minimum(i, j) - 1) % F.q
    M = np.vstack([np.zeros((1, 12), np.int64), np.repeat(H, 2, axis=0)])
    R, pivots = _assert_both_modes_match_oracle(F, M)
    assert pivots == tuple(range(8)) and np.array_equal(R, rref(F, H)[0])
    assert _pivot_rows(monkeypatch, F, M) == [2 * s + 1 for s in range(8)]


# (p, d, m) of the benchmark's workloads: scan-p5-d4, plane-large-p and
# ext-field
WORKLOAD_RELATIONS = [(5, 4, 1), (31, 6, 1), (53, 5, 1), (101, 4, 1),
                      (7, 4, 3), (7, 5, 2), (31, 4, 2)]


@pytest.mark.parametrize("p,d,m", WORKLOAD_RELATIONS)
def test_rref_matches_oracle_on_relation_matrices(monkeypatch, p, d, m):
    """The relation matrices of seeded plane curves, many of whose pivot
    rows come from below, reduce as the oracle does in both modes."""
    F = field_new(p, m)
    rng = np.random.default_rng(p * d + m)
    n = len(monomial_basis(3, d).exps)
    from_below = 0
    for _ in range(3):
        curve = plane_curve(F, GradedPoly(F, 3, d, F.random_elements(rng, (n,))))
        M = _derivative_matrix(curve, curve._relation_degrees)
        _assert_both_modes_match_oracle(F, M)
        rows = _pivot_rows(monkeypatch, F, M)
        from_below += sum(i > r for r, i in enumerate(rows))
    assert from_below > 0


RANK_FIELDS = [(2, 1), (5, 1), (101, 1), (2, 2), (7, 3), (31, 2), (2 ** 31 - 1, 1),
               (1048573, 3)]


@pytest.mark.parametrize("p,m", RANK_FIELDS)
def test_rank_matches_rref(p, m):
    F = field_new(p, m)
    rng = np.random.default_rng(p * 7 + m)
    for M in _differential_matrices(F, rng):
        # zero rows on top: every pivot row is swapped in from below
        for N in (M, np.vstack([np.zeros((2, M.shape[1]), np.int64), M])):
            pivots = rref(F, N)[1]
            assert rank(F, N) == len(pivots) == len(rref_oracle(F, N)[1])
            # the echelon form rank stops at spans the same rows
            E, echelon_pivots = rref(F, N, _reduced=False)
            assert echelon_pivots == pivots
            assert np.array_equal(rref(F, E)[0], rref(F, N)[0])
            assert np.array_equal(E[np.arange(len(pivots)), list(pivots)], np.ones(len(pivots)))


@pytest.mark.parametrize("p,m", [(5, 1), (7, 3)])
def test_rank_updates_only_rows_below_the_pivot(monkeypatch, p, m):
    F = field_new(p, m)
    M = F.random_elements(np.random.default_rng(3), (6, 6))
    M[np.arange(6), np.arange(6)] = 1
    M[np.tril_indices(6, -1)] = 0
    updated = []
    mul_outer = F.mul_outer

    def spy(a, b):
        updated.append(len(a))
        return mul_outer(a, b)

    monkeypatch.setattr(F, "mul_outer", spy)
    assert rank(F, M) == 6
    assert updated == [5, 4, 3, 2, 1, 0]
    updated.clear()
    rref(F, M)
    assert updated == [6] * 6
