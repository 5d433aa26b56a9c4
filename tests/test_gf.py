import time

import numpy as np
import pytest
from conftest import matmul_oracle, mul_outer_oracle, scale_by_inverse_oracle

import eotypes.gf as gf
import eotypes.polyring as polyring
import eotypes.semilinear as semilinear
from eotypes import (ConstraintError, CurveCI, GradedPoly, SingularCurveError, classify,
                     field_new, hw_triple, monomial_basis)
from eotypes.gf import is_prime


def test_prime_field_basics(F5):
    assert F5.p == 5 and F5.m == 1 and F5.q == 5
    assert F5.modulus is None
    a, b = F5(3), F5(4)
    assert (a + b).code == 2
    assert (a * b).code == 2
    assert (a - b).code == 4
    assert (-a).code == 2
    assert (a / b).code == (3 * 4) % 5  # 4^-1 = 4


def test_non_prime_rejected():
    with pytest.raises(ConstraintError):
        field_new(4)
    with pytest.raises(ConstraintError):
        field_new(1)
    with pytest.raises(ConstraintError):
        field_new(5, 0)
    with pytest.raises(ConstraintError, match="extension degree"):
        field_new(7, 1, (3, 1))  # a modulus used to be ignored at m = 1


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 101, 65537]
    composites = [0, 1, 4, 9, 91, 561, 65536]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


@pytest.mark.parametrize("call,message", [
    (lambda: is_prime(1 << 31), "too large for primality by trial division"),
    (lambda: field_new((1 << 31) + 11), r"int64 arithmetic needs p < 2\^31"),
], ids=["is-prime", "field-prime"])
def test_argument_checks(call, message):
    with pytest.raises(ConstraintError, match=message):
        call()


def test_f4_construction(F4):
    assert F4.q == 4
    assert F4.modulus == (1, 1, 1)
    t = F4.element_from_code(2)
    assert (t * t).coeffs == (1, 1)  # t^2 = t + 1


def test_reducible_modulus_rejected():
    with pytest.raises(ConstraintError):
        field_new(2, 2, (0, 0, 1))  # x^2
    with pytest.raises(ConstraintError):
        field_new(3, 2, (2, 0, 1))  # x^2 + 2 = (x-1)(x+1)


# The extension-field benchmark outcomes depend on these choices.
DEFAULT_MODULI = {(2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
                  (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1), (5, 2): (2, 0, 1),
                  (7, 2): (1, 0, 1), (7, 3): (2, 0, 0, 1), (31, 2): (1, 0, 1)}


def test_default_modulus_deterministic():
    for (p, m), modulus in DEFAULT_MODULI.items():
        assert field_new(p, m).modulus == modulus, (p, m)
    assert field_new(2, 3).modulus == field_new(2, 3).modulus
    # a user-supplied equivalent gives an equal field
    assert field_new(3, 2, (1, 0, 1)) == field_new(3, 2)


def test_frobenius_prime_field_is_identity(F5):
    assert F5(3).frobenius(1) == F5(3)
    assert F5(2).frobenius(-1) == F5(2)


def test_frobenius_f4(F4):
    t = F4.element_from_code(2)
    assert t.frobenius(1).coeffs == (1, 1)  # t -> t + 1
    assert t.frobenius(1).frobenius(-1) == t
    assert t.frobenius(2) == t  # sigma^m = id


def test_field_axioms_random(F9):
    rng = np.random.default_rng(11)
    a = F9.random_elements(rng, (200,))
    b = F9.random_elements(rng, (200,))
    sa, sb = F9.frob(a), F9.frob(b)
    assert np.array_equal(F9.frob(F9.add(a, b)), F9.add(sa, sb))
    assert np.array_equal(F9.frob(F9.mul(a, b)), F9.mul(sa, sb))
    assert np.array_equal(F9.frob(a, F9.m), a)
    assert np.array_equal(F9.frob(F9.frob(a, 1), -1), a)
    # x^q = x and nonzero inverses
    assert np.array_equal(F9.pow_int(a, F9.q), a)
    for code in range(1, F9.q):
        assert int(F9.mul(code, F9.inv_scalar(code))) == 1


def _gauss_irreducible_count(p, m):
    mobius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1}
    return sum(mobius[d] * p ** (m // d) for d in mobius if m % d == 0) // m


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
def test_accepted_moduli_match_gauss_count(p, m):
    accepted = 0
    for code in range(p ** m):
        modulus = [(code // p ** i) % p for i in range(m)] + [1]
        try:
            field_new(p, m, modulus)
        except ConstraintError:
            continue
        accepted += 1
    assert accepted == _gauss_irreducible_count(p, m)


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 2), (31, 2)])
def test_inverse_and_frobenius_exhaustive(p, m):
    F = field_new(p, m)
    a = np.arange(1, F.q)
    assert np.all(F.mul(a, F.inv(a)) == 1)
    assert all(int(F.mul(c, F.inv_scalar(c))) == 1 for c in a)
    assert np.array_equal(F.frob(a), F.pow_int(a, p))


def test_inverse_by_power_without_table():
    # q > 2^16: no inverse table, inverses are a^(q-2)
    F = field_new(101, 3)
    assert F.modulus == (1, 1, 0, 1)
    a = F.random_elements(np.random.default_rng(3), (300,))
    a = a[a != 0]
    assert np.all(F.mul(a, F.inv(a)) == 1)
    assert all(int(F.mul(c, F.inv_scalar(c))) == 1 for c in a[:20])
    assert np.array_equal(F.pow_int(F.pow_int(a, -1), -1), a)
    with pytest.raises(ZeroDivisionError):
        F.inv(np.array([1, 0]))


def test_int64_range_enforced():
    with pytest.raises(ConstraintError):
        field_new(4294967311)  # (-1)*(-1) used to wrap
    with pytest.raises(ConstraintError):
        field_new(3037000493)  # a 2x2 matmul used to wrap
    with pytest.raises(ConstraintError):
        field_new(2097143, 2)  # one product's digit planes overflow through _red
    F = field_new(2147483647)
    minus_one = np.full((2, 2), F.p - 1)
    assert F.matmul(minus_one, minus_one).tolist() == [[2, 2], [2, 2]]
    with pytest.raises(ConstraintError):
        F.matmul(np.full((2, 3), F.p - 1), np.full((3, 2), F.p - 1))


@pytest.mark.parametrize("p", [65521, 32749])
def test_matmul_exact_up_to_max_terms(p):
    # worst-case digits through the digit planes and _red, at the bound
    F = field_new(p, 2)
    k = F.max_terms
    assert 1 <= k < 1 << 20
    row = np.full((1, k), F.q - 1)
    expected = int(F.scale_int(k, F.mul(F.q - 1, F.q - 1)))
    assert int(F.matmul(row, row.T)[0, 0]) == expected
    with pytest.raises(ConstraintError):
        F.matmul(np.full((1, k + 1), F.q - 1), np.full((k + 1, 1), F.q - 1))


def test_inverse_of_zero_raises(F5, F9):
    with pytest.raises(ZeroDivisionError):
        F5.inv_scalar(0)
    with pytest.raises(ZeroDivisionError):
        F9.inv_scalar(0)


def test_matmul_extension_field_matches_scalar(F9):
    rng = np.random.default_rng(5)
    A = F9.random_elements(rng, (4, 3))
    B = F9.random_elements(rng, (3, 5))
    C = F9.matmul(A, B)
    for i in range(4):
        for j in range(5):
            acc = 0
            for k in range(3):
                acc = int(F9.add(acc, F9.mul(A[i, k], B[k, j])))
            assert acc == C[i, j]


def test_codec_roundtrip(F9):
    codes = np.arange(F9.q)
    assert np.array_equal(F9.encode(F9.decode(codes)), codes)


def test_format_parse(F5, F9):
    assert F5.format_element(3) == "3"
    assert F5.parse_element("8") == 3
    assert F9.format_element(5) == "2,1"
    assert F9.parse_element("2,1") == 5
    assert F9.parse_element("2") == 2
    assert F9.parse_element(f"{10 ** 30},1") == 10 ** 30 % 3 + 3
    with pytest.raises(ConstraintError):
        F9.parse_element("1,2,3")


def test_field_elem_wrappers(F4):
    t = F4.element_from_code(2)
    one = F4(1)
    assert t + 1 == F4.element_from_code(3)
    assert 1 + t == t + one
    assert t ** 3 == one  # t has order 3 in GF(4)*
    assert (t.inverse() * t) == one
    assert bool(F4(0)) is False
    with pytest.raises(ConstraintError):
        t + field_new(5)(1)


def test_field_elem_equality_and_conversion(F4, F5, F7):
    """An element equals an int by the int's residue, and leaves any other
    type to it; a field passes its own element through and refuses
    another field's."""
    three = F5(3)
    assert three == 8 and three == -2 and three != 2
    assert three.__eq__("3") is NotImplemented and three != "3" and three != 3.0
    assert F4.element_from_code(1) == 5 and F4.element_from_code(2) != 2
    assert F5(three) is three
    with pytest.raises(ConstraintError, match="different field"):
        F7(three)
    # the same size of field under another modulus is another field
    with pytest.raises(ConstraintError, match="different field"):
        field_new(3, 2, (2, 1, 1))(field_new(3, 2, (1, 0, 1)).element_from_code(4))


def test_element_from_code_refuses_codes_outside_the_field(F4):
    # taken mod 4, -1 would be code 3 = 1 + t, while -1 = 1 in GF(4)
    assert F4(-1) == F4.element_from_code(1) != F4.element_from_code(3)
    for code in (-1, 4, 5):
        with pytest.raises(ConstraintError):
            F4.element_from_code(code)


def test_scale_int_broadcast(F9):
    rng = np.random.default_rng(0)
    a = F9.random_elements(rng, (6,))
    w = np.array([0, 1, 2, 3, 4, 5])
    out = F9.scale_int(w, a)
    for i in range(6):
        expect = 0
        for _ in range(int(w[i]) % 3):
            expect = int(F9.add(expect, a[i]))
        # w mod p acts by repeated addition
        assert int(out[i]) == expect


def test_default_modulus_search_is_fast():
    # 102 of GF(101^3)'s first 103 candidates have a root in GF(101)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        F = field_new(101, 3)
        times.append(time.perf_counter() - t0)
    assert F.modulus == (1, 1, 0, 1)
    assert min(times) < 0.010


@pytest.mark.parametrize("p,m", [(5, 1), (2147483647, 1), (2, 4), (7, 3), (31, 2), (101, 3)])
def test_unreduced_products(p, m):
    F = field_new(p, m)
    rng = np.random.default_rng(p + m)
    a, b = F.random_elements(rng, (7,)), F.random_elements(rng, (5,))
    da, db = F.digit_view(a), F.digit_view(b)
    table = F.mul_digits(da[:, None], db[None])
    assert np.array_equal(F.mul_outer(da, db), table)
    assert np.array_equal(F.from_digit_view(table), F.mul(a[:, None], b[None]))
    # digits of q - 1 are all p - 1, the largest the products can see
    top = F.mul_digits(F.digit_view(F.q - 1), F.digit_view(F.q - 1))
    assert 0 <= table.min() and max(table.max(), top.max()) <= F.term_bound


@pytest.mark.parametrize("p,m", [(5, 1), (7, 3), (1048573, 2), (1048573, 3)])
def test_product_table_matches_mul_digits(p, m):
    # rref's pivot step scales a row by the pivot's inverse and subtracts
    # mul_outer from the trailing columns: both must hold the unreduced
    # integers of mul_digits, within term_bound
    F = field_new(p, m)
    rng = np.random.default_rng(p + m)
    # q - 1 has every digit p - 1: the largest digit view, and, as the
    # inverse of its inverse, the largest multiplication matrix to scale by
    top = np.array([F.q - 1, F.inv_scalar(F.q - 1), 1, p - 1])
    a = np.concatenate([top, F.random_elements(rng, (12,))])
    b = np.concatenate([top, F.random_elements(rng, (6,))])
    da, db = F.digit_view(a), F.digit_view(b)
    outer = F.mul_outer(da, db)
    assert np.array_equal(outer, F.mul_digits(da[:, None], db[None]))
    assert 0 <= outer.min() and outer.max() <= F.term_bound
    for s in b[b != 0]:
        inv = F.digit_view(F.inv_scalar(s))
        scaled = F.scale_by_inverse(da, F.digit_view(s))
        assert np.array_equal(scaled, F.mul_digits(da, inv))
        assert 0 <= scaled.min() and scaled.max() <= F.term_bound
        assert np.array_equal(F.from_digit_view(scaled), F.mul(a, F.inv_scalar(s)))


# Fields of the extension tests, where the large ones take exact_matmul's int64
# route.
KERNEL_FIELDS = [(2, 1), (5, 1), (101, 1), (2, 2), (7, 3), (31, 2),
                 (2147483647, 1), (1048573, 3)]


@pytest.mark.parametrize("p,m", KERNEL_FIELDS)
def test_products_match_int64_oracle(p, m):
    F = field_new(p, m)
    rng = np.random.default_rng(p + m)
    k = min(F.max_terms, 30)
    # q - 1 has every digit p - 1: the largest entry a product can see
    A = F.random_elements(rng, (7, k))
    B = F.random_elements(rng, (k, 5))
    A[0], B[:, 0] = F.q - 1, F.q - 1
    assert np.array_equal(F.matmul(A, B), matmul_oracle(F, A, B))
    assert np.array_equal(F.matmul(A[:, :1], B[:1]), matmul_oracle(F, A[:, :1], B[:1]))
    top = np.full(k, F.q - 1)
    assert np.array_equal(F.matmul(top[None], top[:, None]), matmul_oracle(F, top[None], top[:, None]))
    if m == 1:
        return
    a = np.concatenate([[F.q - 1, p - 1], F.random_elements(rng, (9,))])
    da = F.digit_view(a)
    assert np.array_equal(F.mul_outer(da, da), mul_outer_oracle(F, da, da))
    for s in a[a != 0]:
        ds = F.digit_view(s)
        assert np.array_equal(F.scale_by_inverse(da, ds), scale_by_inverse_oracle(F, da, ds))


def test_exact_matmul_past_the_float_bound_takes_int64():
    """Past terms * amax * bmax < 2^53 exact_matmul is the int64 product:
    over GF(2^31-1) a sum of max_terms = 2 products of p - 1 is
    2^63 - 2^34 + 8, which float64 rounds to 2^63 - 2^34."""
    p = 2147483647
    F = field_new(p)
    top = np.full((1, F.max_terms), p - 1)
    exact = F.max_terms * (p - 1) ** 2
    assert exact >= 1 << 53 and exact == (1 << 63) - (1 << 34) + 8
    assert int((top.astype(np.float64) @ top.T.astype(np.float64))[0, 0]) == exact - 8
    assert gf.exact_matmul(top, top.T, p - 1, p - 1).tolist() == [[exact]]
    assert F.matmul(top, top.T).tolist() == [[exact % p]]
    # GF(1048573^3): mul_outer's products x^i * b fail the bound and take
    # int64, the digit products of matmul pass it
    F = field_new(1048573, 3)
    assert F.max_terms * (F.p - 1) ** 2 < 1 << 53 <= F.m * (F.p - 1) * F._bp_max
    da = F.digit_view(np.array([F.q - 1]))
    assert np.array_equal(F.mul_outer(da, da), mul_outer_oracle(F, da, da))
    assert F.mul_outer(da, da).max() > 1 << 53


# (p, m, d) of the benchmark's workloads: scan-p5-d4, plane-large-p and
# ext-field.
WORKLOAD_CASES = [(5, 1, 4), (31, 1, 6), (53, 1, 5), (101, 1, 4),
                  (7, 3, 4), (7, 2, 5), (31, 2, 4)]


@pytest.mark.parametrize("p,m,d", WORKLOAD_CASES)
def test_workload_products_take_one_limb(monkeypatch, p, m, d):
    """Every product of the benchmark's workloads stays in the float
    kernels: each matrix product passes exact_matmul's 2^53 bound and each
    FFT product Percival's bound, so neither hands a product to its exact
    int64 route."""
    matmul_bounds, fft_bounds = [], []
    matmul, error_bound = gf.exact_matmul, polyring._fft_error_bound

    def spy_matmul(a, b, amax, bmax):
        matmul_bounds.append(a.shape[-1] * amax * bmax)
        return matmul(a, b, amax, bmax)

    def spy_bound(xa, xb, n):
        fft_bounds.append(error_bound(xa, xb, n))
        return fft_bounds[-1]

    monkeypatch.setattr(gf, "exact_matmul", spy_matmul)
    monkeypatch.setattr(polyring, "_fft_error_bound", spy_bound)
    F = field_new(p, m)
    rng = np.random.default_rng(p * d + m)
    n = len(monomial_basis(3, d).exps)
    for _ in range(3):
        curve = CurveCI(F, [GradedPoly(F, 3, d, F.random_elements(rng, (n,)))])
        try:
            classify(hw_triple(curve))
        except SingularCurveError:
            pass
    assert matmul_bounds and max(matmul_bounds) < 1 << 53
    assert all(b < 0.25 for b in fft_bounds)


@pytest.mark.parametrize("p,m", [(257, 2), (65537, 1), (1048573, 3), (2147483647, 1)])
def test_inverse_by_norm_matches_power(p, m):
    F = field_new(p, m)
    assert F._inv_table is None
    rng = np.random.default_rng(p + m)
    codes = np.concatenate([[1, p - 1, F.q - 1, p if m > 1 else 2],
                            F.random_elements(rng, (20,))])
    codes = codes[codes != 0]
    expected = F.pow_int(codes, F.q - 2)
    assert [F.inv_scalar(c) for c in codes] == expected.tolist()
    assert np.all(F.mul(codes, expected) == 1)


def test_prime_field_codes_invert_without_products(monkeypatch):
    # GF(257^2) has no inverse table: an element of GF(p), a code below p,
    # is inverted by pow in GF(p), with none of the norm identity's products
    F = field_new(257, 2)
    assert F._inv_table is None
    products = []
    mul = F.mul

    def spy(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(F, "mul", spy)
    prime = np.arange(1, F.p)
    inverses = [F.inv_scalar(c) for c in prime]
    assert products == []
    wide = F.random_elements(np.random.default_rng(21), (60,))
    wide = wide[wide >= F.p]
    assert wide.size > 50
    codes = np.concatenate([prime, wide])
    inverses += [F.inv_scalar(c) for c in wide]
    assert np.all(mul(codes, np.array(inverses)) == 1)


# Default moduli of every other (p, m) the tests build, and of a wider range
# recorded before the search ranked sigma - 1 with GF(p) arithmetic;
# DEFAULT_MODULI holds the benchmark's.
MORE_DEFAULT_MODULI = {
    (101, 3): (1, 1, 0, 1), (251, 2): (1, 0, 1), (257, 2): (3, 0, 1),
    (32749, 2): (2, 0, 1), (65521, 2): (17, 0, 1),
    (1048573, 2): (2, 0, 1), (1048573, 3): (2, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1), (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1) + (0,) * 7 + (1,), (2, 10): (1, 0, 0, 1) + (0,) * 6 + (1,),
    (2, 11): (1, 0, 1) + (0,) * 8 + (1,), (2, 12): (1, 0, 0, 1) + (0,) * 8 + (1,),
    (2, 40): (1, 0, 0, 1, 1, 1) + (0,) * 34 + (1,),
    (3, 4): (2, 1, 0, 0, 1), (3, 5): (1, 2, 0, 0, 0, 1), (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1), (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (5, 3): (1, 1, 0, 1), (5, 4): (2, 0, 0, 0, 1), (7, 4): (1, 1, 0, 0, 1),
    (11, 2): (1, 0, 1), (13, 3): (2, 0, 0, 1), (101, 2): (2, 0, 1)}


@pytest.mark.parametrize("p,m", sorted(MORE_DEFAULT_MODULI))
def test_default_modulus_unchanged(p, m):
    assert field_new(p, m).modulus == MORE_DEFAULT_MODULI[p, m]


def test_prime_field_builds_no_inverse_table(monkeypatch):
    # GF(p) inverts by pow and keeps no table, so the modulus search takes
    # the ranks of sigma - 1 in one plain GF(p); an extension field with
    # q <= 2^16 keeps its table
    built = []
    init = gf.GF.__init__

    def spy(self, p, m=1, modulus=None):
        built.append((p, m))
        init(self, p, m, modulus)

    monkeypatch.setattr(gf.GF, "__init__", spy)
    F = field_new(65521, 2)
    assert F.modulus == (17, 0, 1) and F._inv_table is None
    assert built == [(65521, 2), (65521, 1)]
    assert field_new(65521)._inv_table is None and field_new(5)._inv_table is None
    F49 = field_new(7, 2)
    assert F49._inv_table is not None
    assert np.all(F49.mul(np.arange(1, 49), F49._inv_table[1:]) == 1)


def test_default_modulus_search_ranks_over_the_prime_field(monkeypatch):
    # sigma - 1 is a matrix over GF(p): every rank the search takes runs
    # with one-digit arithmetic, in one prime field for the whole search
    ranked = []
    rank = semilinear.rank

    def spy(field, M):
        ranked.append(field)
        return rank(field, M)

    monkeypatch.setattr(semilinear, "rank", spy)
    assert field_new(3, 8).modulus == MORE_DEFAULT_MODULI[3, 8]
    assert len(ranked) > 1
    assert all(field is ranked[0] for field in ranked)
    assert (ranked[0].p, ranked[0].m, ranked[0].q) == (3, 1, 3)
