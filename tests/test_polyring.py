from math import comb, prod
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (GOLDEN_TERMS, conv_oracle, integer_power_terms, laurent_product_terms,
                      partial_derivative_oracle)
from eotypes import (ConstraintError, GradedPoly, InternalInvariantError, TClass, coeff_of,
                     field_new, gather, monomial_basis, partial_derivative, poly_mul, poly_pow,
                     polyring, t_multiply, tmul_matrix)
from eotypes.gf import is_prime
from eotypes.polyring import (_DIRECT_MAX_MULADDS, WORK_BUDGET_BYTES, MonomialBasis,
                              _conv_direct, _conv_fft, _conv_field, _fast_len, _fft_error_bound,
                              _kronecker_len, _layout, _positions, power_work_bytes)


def test_basis_fixtures():
    b1 = monomial_basis(3, 1)
    assert b1.monomials == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    b2 = monomial_basis(3, 2)
    assert b2.monomials == ((2, 0, 0), (1, 1, 0), (1, 0, 1),
                            (0, 2, 0), (0, 1, 1), (0, 0, 2))
    # plane-curve genus count: degree d-3 monomials for d = 4
    assert len(monomial_basis(3, 1)) == 3 == (4 - 1) * (4 - 2) // 2


def test_basis_counts():
    from math import comb
    for nvars in (1, 2, 3, 4):
        for degree in range(6):
            assert len(monomial_basis(nvars, degree)) == comb(degree + nvars - 1, nvars - 1)


def test_basis_errors():
    with pytest.raises(ConstraintError):
        monomial_basis(3, -1)


def test_poly_mul_fixtures(F5):
    x0 = GradedPoly.monomial(F5, 3, (1, 0, 0))
    x1 = GradedPoly.monomial(F5, 3, (0, 1, 0))
    assert poly_mul(x0, x1) == GradedPoly.monomial(F5, 3, (1, 1, 0))
    s = GradedPoly.from_terms(F5, 3, {(1, 0, 0): 1, (0, 1, 0): 1})
    d = GradedPoly.from_terms(F5, 3, {(1, 0, 0): 1, (0, 1, 0): -1})
    assert poly_mul(s, d) == GradedPoly.from_terms(F5, 3, {(2, 0, 0): 1, (0, 2, 0): -1})


def test_poly_mul_ctx_mismatch(F5, F7):
    a = GradedPoly.monomial(F5, 3, (1, 0, 0))
    b = GradedPoly.monomial(F7, 3, (1, 0, 0))
    with pytest.raises(ConstraintError):
        poly_mul(a, b)


def test_poly_mul_int64_bound():
    # at p = 2^31 - 1 one int64 sum holds two products of residues
    F = field_new(2147483647)
    two = GradedPoly.from_terms(F, 3, {(1, 0, 0): 1, (0, 1, 0): -1})
    assert poly_mul(two, two) == GradedPoly.from_terms(
        F, 3, {(2, 0, 0): 1, (1, 1, 0): -2, (0, 2, 0): 1})
    # the X0^2*X1^2 coefficient of this square sums three products
    three = GradedPoly.from_terms(F, 3, {(2, 0, 0): -1, (1, 1, 0): -1, (0, 2, 0): -1})
    with pytest.raises(ConstraintError):
        poly_mul(three, three)


def test_golden_power_against_integer_oracle(F5, golden_poly):
    f4 = poly_pow(golden_poly, 4)
    oracle = integer_power_terms(GOLDEN_TERMS, 4)
    # frozen values derived from the oracle
    assert oracle[(8, 4, 4)] == 90 and 90 % 5 == 0
    assert oracle[(3, 9, 4)] == 24 and 24 % 5 == 4
    assert coeff_of(f4, (8, 4, 4)).code == 0
    assert coeff_of(f4, (3, 9, 4)).code == 4
    for e, c in oracle.items():
        assert coeff_of(f4, e).code == c % 5
    # and the square-multiply split matches a plain product
    assert poly_mul(golden_poly, poly_pow(golden_poly, 3)) == f4


def test_poly_pow_basics(F5, golden_poly):
    one = poly_pow(golden_poly, 0)
    assert one.degree == 0 and one.coeffs.tolist() == [1]
    F2 = field_new(2)
    s = GradedPoly.from_terms(F2, 3, {(1, 0, 0): 1, (0, 1, 0): 1})
    assert poly_pow(s, 2) == GradedPoly.from_terms(F2, 3, {(2, 0, 0): 1, (0, 2, 0): 1})
    with pytest.raises(ConstraintError):
        poly_pow(golden_poly, -1)


def test_pow_additivity_random(F5):
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = GradedPoly(F5, 3, 2, rng.integers(0, 5, len(monomial_basis(3, 2))))
        assert poly_pow(a, 5) == poly_mul(poly_pow(a, 2), poly_pow(a, 3))


@pytest.mark.parametrize("p,m", [(5, 1), (101, 1), (7, 3), (31, 2)])
def test_poly_pow_matches_repeated_products(p, m):
    """a^e equals e - 1 products by a, for every e up to 40: odd exponents,
    even ones that end in squarings, and powers of two."""
    field = field_new(p, m)
    a = GradedPoly(field, 3, 2, field.random_elements(np.random.default_rng(p + m), (6,)))
    expected = poly_pow(a, 0)
    for e in range(41):
        assert poly_pow(a, e) == expected, e
        expected = poly_mul(expected, a)


def test_poly_pow_even_exponent_ends_in_a_squaring(monkeypatch, golden_poly):
    """a^50 ends in the square of a^25. An odd exponent keeps the right-to-left
    square-and-multiply: a^15 takes a*a, a*a^2, a^2*a^2, a^3*a^4, a^4*a^4 and
    a^7*a^8, in that order."""
    products = []
    original = polyring._conv_field

    def conv(field, ca, cb):
        a, b = (len(ca) - 1) // 4, (len(cb) - 1) // 4
        products.append(a if cb is ca else (a, b))
        return original(field, ca, cb)

    monkeypatch.setattr(polyring, "_conv_field", conv)
    poly_pow(golden_poly, 50)
    assert products[-1] == 25
    products.clear()
    poly_pow(golden_poly, 15)
    assert products == [1, (1, 2), 2, (3, 4), 4, (7, 8)]


def test_freshman_dream_random():
    for p in (2, 3, 5):
        field = field_new(p)
        rng = np.random.default_rng(p)
        for _ in range(5):
            a = GradedPoly(field, 3, 2, rng.integers(0, p, 6))
            b = GradedPoly(field, 3, 2, rng.integers(0, p, 6))
            assert poly_pow(a + b, p) == poly_pow(a, p) + poly_pow(b, p)


def test_mul_commutative_associative_random(F5):
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = GradedPoly(F5, 3, 2, rng.integers(0, 5, 6))
        b = GradedPoly(F5, 3, 1, rng.integers(0, 5, 3))
        c = GradedPoly(F5, 3, 3, rng.integers(0, 5, 10))
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))


def test_derivative_fixtures(F5, golden_poly):
    q = GradedPoly.monomial(F5, 3, (4, 0, 0))
    assert partial_derivative(q, 0) == GradedPoly.from_terms(F5, 3, {(3, 0, 0): 4})
    q5 = GradedPoly.monomial(F5, 3, (5, 0, 0))
    assert partial_derivative(q5, 0).is_zero()
    expected = GradedPoly.from_terms(
        F5, 3, {(3, 0, 0): 1, (1, 1, 1): 2, (0, 3, 0): 4, (0, 1, 2): 3, (0, 0, 3): 3})
    assert partial_derivative(golden_poly, 1) == expected


def test_derivative_errors(F5, golden_poly):
    with pytest.raises(ConstraintError):
        partial_derivative(golden_poly, 3)
    with pytest.raises(ConstraintError):
        partial_derivative(poly_pow(golden_poly, 0), 0)


def test_derivative_of_zero_poly_is_closed(F5):
    z = GradedPoly.zero(F5, 3, 4)
    assert partial_derivative(z, 1).is_zero()


@pytest.mark.parametrize("p,m", [(2, 1), (7, 1), (3, 2), (7, 3)])
def test_partial_derivative_matches_cube_slicing_oracle(p, m):
    """On seeded forms in 1 to 5 variables, of degrees below, at and above
    p, the partial along every variable equals conftest's
    partial_derivative_oracle, which slices the dense exponent cube."""
    field = field_new(p, m)
    rng = np.random.default_rng(10 * p + m)
    for nvars in range(1, 6):
        for degree in sorted({1, 2, 3, p, 7}):
            f = GradedPoly(field, nvars, degree, field.random_elements(
                rng, (len(monomial_basis(nvars, degree)),)))
            for j in range(nvars):
                assert partial_derivative(f, j) == partial_derivative_oracle(f, j)


def test_positions_invert_exponent_array():
    """_positions sends each basis tuple to its index, for 1 to 6 variables
    at degrees 0 to 20, and every tuple of the degree with a negative entry,
    in any variable, to len(basis)."""
    rng = np.random.default_rng(6)
    for nvars in range(1, 7):
        for degree in range(21):
            basis = MonomialBasis(nvars, degree)
            assert np.array_equal(_positions(basis, basis.exps), np.arange(len(basis)))
            for k in range(nvars if nvars > 1 else 0):
                moved = basis.exps.copy()
                shift = moved[:, k] + rng.integers(1, 4, len(moved))
                moved[:, k] -= shift
                moved[:, (k + 1) % nvars] += shift
                assert (_positions(basis, moved) == len(basis)).all()


def test_coeff_of_errors(F5, golden_poly):
    with pytest.raises(ConstraintError):
        coeff_of(golden_poly, (1, 1, 1))
    assert coeff_of(golden_poly, (2, 2, 0)).code == 0  # absent monomial
    assert coeff_of(golden_poly, (-1, 4, 1)).code == 0  # negative exponent, right degree
    m = GradedPoly.monomial(F5, 3, (1, 1, 1))
    assert coeff_of(m, (1, 1, 1)).code == 1


def test_tclass_fixtures(F5):
    t = TClass.from_laurent_terms(F5, 3, {(-2, -1, -1): 1})
    x0 = GradedPoly.monomial(F5, 3, (1, 0, 0))
    x1 = GradedPoly.monomial(F5, 3, (0, 1, 0))
    assert t_multiply(x0, t) == TClass.from_laurent_terms(F5, 3, {(-1, -1, -1): 1})
    assert t_multiply(x1, t).is_zero()


def test_tclass_basis_counts():
    from math import comb
    for nvars in (3, 4):
        for m in range(-nvars, -nvars - 4, -1):
            assert TClass.basis_size(nvars, m) == comb(-m - 1, nvars - 1)
    # degenerate degrees give the zero space
    assert TClass.basis_size(3, -2) == 0


def test_tclass_rejects_nonnegative_exponent(F5):
    with pytest.raises(ConstraintError):
        TClass.from_laurent_terms(F5, 3, {(0, -2, -2): 1})


def test_term_dict_builders(F5, F4):
    f = GradedPoly.from_terms(F5, 3, {(1, 0, 0): -1, (0, 1, 0): 7, (0, 0, 1): F5(3)})
    assert f.coeffs.tolist() == [4, 2, 3]
    gen = F4.element_from_code(2)
    t = TClass.from_laurent_terms(F4, 3, {(-2, -1, -1): gen, (-1, -1, -2): 5})
    assert t.degree == -4
    assert t.coeffs.tolist() == GradedPoly.from_terms(
        F4, 3, {(1, 0, 0): gen, (0, 0, 1): 5}).coeffs.tolist() == [2, 0, 1]
    with pytest.raises(ConstraintError, match="from_terms needs at least one term"):
        GradedPoly.from_terms(F5, 3, {})
    with pytest.raises(ConstraintError, match=r"not homogeneous: degrees \[1, 2\]"):
        GradedPoly.from_terms(F5, 3, {(1, 0, 0): 1, (1, 1, 0): 1})
    with pytest.raises(ConstraintError, match=r"Laurent exponent \(0, -2, -2\) has a non-negative"):
        TClass.from_laurent_terms(F5, 3, {(0, -2, -2): 1})
    for terms in ({}, {(-1, -1, -1): 1, (-2, -1, -1): 1}):
        with pytest.raises(ConstraintError, match="^terms are not homogeneous$"):
            TClass.from_laurent_terms(F5, 3, terms)


def test_module_action_random(F5):
    rng = np.random.default_rng(23)
    for _ in range(20):
        s1 = GradedPoly(F5, 3, 2, rng.integers(0, 5, 6))
        s2 = GradedPoly(F5, 3, 1, rng.integers(0, 5, 3))
        t = TClass(F5, 3, -9, rng.integers(0, 5, TClass.basis_size(3, -9)))
        assert t_multiply(poly_mul(s1, s2), t) == t_multiply(s1, t_multiply(s2, t))


def test_tclass_frobenius(F5):
    t = TClass.from_laurent_terms(F5, 3, {(-1, -1, -2): 2, (-2, -1, -1): 3})
    tf = t.frobenius()
    assert tf == TClass.from_laurent_terms(F5, 3, {(-5, -5, -10): 2, (-10, -5, -5): 3})


def test_extension_coefficient_multiplication(F4):
    # (t X0 + (t+1) X1)^2 = (t+1) X0^2 + t X1^2 over GF(4)
    poly = GradedPoly(F4, 3, 1, np.array([2, 3, 0]))
    sq = poly_mul(poly, poly)
    assert coeff_of(sq, (2, 0, 0)).code == 3
    assert coeff_of(sq, (0, 2, 0)).code == 2
    assert coeff_of(sq, (1, 1, 0)).code == 0


def test_t_multiply_extension_field(F4):
    gen = F4.element_from_code(2)  # the residue of the modulus variable
    tc = TClass.from_laurent_terms(F4, 3, {(-2, -1, -1): gen})
    x0 = GradedPoly(F4, 3, 1, np.array([3, 0, 0]))  # (t+1) X0
    out = t_multiply(x0, tc)
    # t*(t+1) = t^2 + t = 1
    assert out == TClass.from_laurent_terms(F4, 3, {(-1, -1, -1): 1})


def _laurent_terms(t: TClass) -> dict:
    if t.coeffs.size == 0:
        return {}
    return {tuple(-x - 1 for x in s): int(c)
            for s, c in zip(t.basis.monomials, t.coeffs) if c}


@pytest.mark.parametrize("field_name", ["F5", "F4", "F9"])
def test_t_multiply_matches_laurent_oracle(field_name, request):
    field = request.getfixturevalue(field_name)
    rng = np.random.default_rng(41)
    checked = 0
    for nvars in (3, 4):
        # (form degree, class degree); the last pair has an empty target piece
        for s_deg, t_deg in ((0, -nvars), (1, -nvars - 2), (2, -nvars - 4),
                             (3, -nvars - 3), (2, -nvars - 1)):
            size = TClass.basis_size(nvars, t_deg)
            s = GradedPoly(field, nvars, s_deg,
                           field.random_elements(rng, (len(monomial_basis(nvars, s_deg)),)))
            t = TClass(field, nvars, t_deg, field.random_elements(rng, (size,)))
            s_terms = {e: int(c) for e, c in zip(s.basis.monomials, s.coeffs) if c}
            expected = laurent_product_terms(field, s_terms, _laurent_terms(t))
            assert _laurent_terms(t_multiply(s, t)) == expected
            assert t_multiply(GradedPoly.zero(field, nvars, s_deg), t).is_zero()
            assert t_multiply(s, TClass.zero(field, nvars, t_deg)).is_zero()
            M = tmul_matrix(s, t_deg)
            assert M.shape == (TClass.basis_size(nvars, t_deg + s_deg), size)
            for k in range(size):
                unit = np.zeros(size, np.int64)
                unit[k] = 1
                column = TClass(field, nvars, s_deg + t_deg, M[:, k])
                assert _laurent_terms(column) == laurent_product_terms(
                    field, s_terms, _laurent_terms(TClass(field, nvars, t_deg, unit)))
            checked += 1
    assert checked == 10


def _lex_descending_exponents(nvars, degree):
    """Oracle: every exponent tuple of the degree, sorted graded-lex descending."""
    from itertools import product
    return sorted((e for e in product(range(degree + 1), repeat=nvars) if sum(e) == degree),
                  reverse=True)


@pytest.mark.parametrize("nvars,degree,tclass", [(3, 7, False), (4, 5, False),
                                                  (5, 4, False), (4, -9, True)])
def test_gather_matches_per_tuple_lookup(F7, nvars, degree, tclass):
    """gather equals a lookup in the basis at each tuple, 0 wherever it has a negative
    entry, on random differences of x's (shifted) degree in both the
    row-major and the variable-axis-first layout."""
    rng = np.random.default_rng(nvars)
    if tclass:
        x = TClass(F7, nvars, degree, F7.random_elements(rng, (TClass.basis_size(nvars, degree),)))
        form = GradedPoly(F7, nvars, x.shifted_degree, x.coeffs)
    else:
        x = form = GradedPoly(F7, nvars, degree,
                              F7.random_elements(rng, (len(monomial_basis(nvars, degree)),)))
    # monomials of x's degree moved by random steps of sum 0
    basis = form.basis.exps
    step = rng.integers(-2, 3, size=(6, 40, nvars))
    step[..., 0] -= step.sum(axis=-1)
    exps = basis[rng.integers(0, len(basis), size=(6, 40))] + step
    # tuples whose row-major position, negative entry and all, lands on a
    # monomial of the cube: -1 in X0 with D + 1 in X_k, and X0^D moved by
    # one from X_k to X_(k-1)
    D = form.degree
    for k in range(1, nvars):
        wrap = np.zeros((2, nvars), np.intp)
        wrap[0, [0, k]] = -1, D + 1
        wrap[1, 0] = D
        wrap[1, [k - 1, k]] += 1, -1
        exps[0, 2 * k - 2:2 * k] = wrap
    lookup = dict(zip(form.basis.monomials, form.coeffs.tolist()))
    expected = np.array([[0 if min(e) < 0 else lookup[tuple(e)] for e in row]
                         for row in exps.tolist()])
    assert (exps.min(axis=-1) < 0).any() and (exps.min(axis=-1) >= 0).any()
    assert expected.any()
    assert np.array_equal(gather(x, exps), expected)
    variable_first = np.moveaxis(np.ascontiguousarray(np.moveaxis(exps, -1, 0)), 0, -1)
    assert np.array_equal(gather(x, variable_first), expected)


def test_basis_matches_sorted_oracle():
    for nvars in (1, 2, 3, 4, 5):
        for degree in range(7):
            basis = MonomialBasis(nvars, degree)
            expected = _lex_descending_exponents(nvars, degree)
            assert basis.exps.tolist() == [list(e) for e in expected]
            assert not basis.exps.flags.writeable
            assert basis.monomials == tuple(expected)
            index = {e: i for i, e in enumerate(basis.monomials)}
            assert all(index[e] == i for i, e in enumerate(expected))
            tails = np.array([e[1:] for e in expected], np.intp).reshape(len(expected), -1)
            cube_shape = (degree + 1,) * (nvars - 1)
            assert basis.flat_idx.tolist() == (
                np.ravel_multi_index(tails.T, cube_shape).tolist() if nvars > 1 else [0])


def test_basis_beyond_work_budget_refused():
    with pytest.raises(ConstraintError, match="work budget"):
        MonomialBasis(3, 100000)


def test_basis_exponent_table_counts_against_work_budget(monkeypatch):
    """The budget covers the exponent table's build, not only the cube: at
    degree 100 in 3 variables the cube takes 81608 bytes and the table
    build 7 words for each of 5151 monomials."""
    monkeypatch.setattr(polyring, "WORK_BUDGET_BYTES", 8 * (101 ** 2 + 7 * 5151))
    assert len(MonomialBasis(3, 100)) == 5151
    monkeypatch.setattr(polyring, "WORK_BUDGET_BYTES", 8 * (101 ** 2 + 7 * 5151) - 1)
    with pytest.raises(ConstraintError, match="work budget"):
        MonomialBasis(3, 100)


def test_from_terms_refuses_malformed_tuples(F5):
    for terms in ({(2, 0): 1}, {(2, 0, 0, 0): 1}, {(3, -1, 0): 1}, {(2, 0, 0): 1, (1, 1): 2}):
        with pytest.raises(ConstraintError, match="non-negative entries"):
            GradedPoly.from_terms(F5, 3, terms)
    assert GradedPoly.from_terms(F5, 1, {(4,): 7}).coeffs.tolist() == [2]


def _balanced_planes(field, codes):
    """Digit planes of a code cube, plane axis first, in balanced residues
    of absolute value at most p/2: the FFT route's digits, in the window
    loop's format."""
    digits = np.moveaxis(field.decode(codes), -1, 0)
    return np.where(digits > field.p // 2, digits - field.p, digits)


def _random_planes(field, rng, shape, density, max_nonzeros=None):
    """Seeded codes of the given density, and their balanced digit planes;
    with max_nonzeros, only the first that many nonzeros are kept."""
    codes = field.random_elements(rng, shape) * (rng.random(shape) < density)
    if max_nonzeros is not None:
        codes = codes * (np.cumsum(codes != 0).reshape(shape) <= max_nonzeros)
    return codes, _balanced_planes(field, codes)


def _fft_product(field, x, y, out_shape):
    """The FFT route's product planes of code cubes x and y, plane axis
    first as the window loop gives them, and the (bound, balanced digit
    arrays) it computed, in a list of one."""
    tried = []
    bound = polyring._fft_error_bound

    def spy(xa, xb, n):
        tried.append((bound(xa, xb, n), xa, xb))
        return tried[-1][0]

    polyring._fft_error_bound = spy
    try:
        planes = _conv_fft(field, x, y, out_shape)
    finally:
        polyring._fft_error_bound = bound
    return np.moveaxis(planes, -1, 0), tried


def _reduced(field, planes):
    """Codes of product planes given plane axis first."""
    return field.reduce_digit_planes(np.moveaxis(planes, 0, -1))


def _unreduced_oracle(field, x, y, out_shape, bound):
    """The window loop's planes of code cubes x and y, plane axis first, as
    the FFT route returns them: on the balanced digits where the bound
    holds, and as _conv_direct gives them, on the digits in [0, p), where
    it fails."""
    if bound < 0.25:
        return conv_oracle(_balanced_planes(field, x), _balanced_planes(field, y), out_shape)
    ux, uy = (np.moveaxis(field.decode(c), -1, 0) for c in (x, y))
    return conv_oracle(ux, uy, out_shape)


@pytest.mark.parametrize("p,m", [(5, 1), (101, 1), (2, 2), (7, 3), (31, 2), (1048573, 1),
                                 (2147483647, 1), (1048573, 2)])
def test_fft_convolution_matches_window_loop(p, m):
    """The FFT route's product planes equal the exact window loop's, bit for
    bit, on seeded cubes with 1 to 4 axes, for squares and distinct
    factors. The first factor keeps at most GF.max_terms nonzeros, which
    thins it over GF(2^31-1) and GF(1048573^2) only. Where the balanced
    digits fail the a-priori bound the route returns _conv_direct's planes:
    the three large fields do that somewhere, the small ones never. A last
    case multiplies a dense factor of 400 cells by one of at most
    GF.max_terms nonzeros."""
    field = field_new(p, m)
    rng = np.random.default_rng(1000 * p + m)
    cases = past_bound = 0
    for axes in (1, 2, 3, 4):
        side = {1: 40, 2: 12, 3: 6, 4: 4}[axes]
        for density in (0.1, 0.5, 1.0):
            shape_a = tuple(int(s) for s in rng.integers(1, side + 1, axes))
            shape_b = tuple(int(s) for s in rng.integers(1, side + 1, axes))
            ca, _ = _random_planes(field, rng, shape_a, density, field.max_terms)
            cb, _ = _random_planes(field, rng, shape_b, density)
            for x, y in ((ca, cb), (ca, ca)):
                out_shape = tuple(a + b - 1 for a, b in zip(x.shape, y.shape))
                planes, tried = _fft_product(field, x, y, out_shape)
                exact = _unreduced_oracle(field, x, y, out_shape, tried[0][0])
                assert len(tried) == 1 and np.array_equal(planes, exact)
                assert np.array_equal(_conv_field(field, x, y), _reduced(field, exact))
                past_bound += tried[0][0] >= 0.25
                cases += 1
    # a long dense factor against one of at most GF.max_terms nonzeros, as
    # a sparse form times a dense power: over GF(1048573^2) only this case
    # fails the bound
    x, _ = _random_planes(field, rng, (4,), 1.0, field.max_terms)
    y, _ = _random_planes(field, rng, (400,), 1.0)
    planes, tried = _fft_product(field, x, y, (403,))
    exact = _unreduced_oracle(field, x, y, (403,), tried[0][0])
    assert np.array_equal(planes, exact)
    assert np.array_equal(_conv_field(field, x, y), _reduced(field, exact))
    past_bound += tried[0][0] >= 0.25
    assert cases == 24 and (past_bound > 0) == (p > 1000)


def test_degree_30_forms_past_the_bound_take_the_direct_route(monkeypatch):
    """Two seeded degree-30 ternary forms over GF(1048573): the a-priori
    bound on the flat arrays is about 3.1, so the FFT route hands the
    product to _conv_direct, whose planes are the window loop's on the
    digits in [0, p), bit for bit."""
    field = field_new(1048573)
    rng = np.random.default_rng(30)
    size = len(monomial_basis(3, 30))
    a, b = (GradedPoly(field, 3, 30, field.random_elements(rng, (size,))) for _ in range(2))
    out_shape = (61, 61)
    planes, tried = _fft_product(field, a._cube(), b._cube(), out_shape)
    assert len(tried) == 1 and 3 < tried[0][0] < 3.3
    exact = _unreduced_oracle(field, a._cube(), b._cube(), out_shape, tried[0][0])
    assert np.array_equal(planes, exact)
    routes = _spy_routes(monkeypatch)
    assert np.array_equal(poly_mul(a, b)._cube(), _reduced(field, exact))
    assert routes == ["fft", "direct"]


@pytest.mark.parametrize("axes", [1, 2])
def test_fft_convolution_just_inside_bound(axes):
    """Dense cubes of full-size balanced residues over GF(1000003), grown
    until one more step would leave the a-priori bound at the 1-D
    transform's length, go through the FFT and stay exact."""
    field = field_new(1000003)
    half = (field.p - 1) // 2
    rng = np.random.default_rng(axes)
    side = 1
    while True:
        trial = np.full((side + 1,) * axes, half, np.int64)
        if _fft_error_bound(trial, trial, _fast_len((2 * side + 1) ** axes)) >= 0.25:
            break
        side += 1
    out_shape = (2 * side - 1,) * axes
    for signs in (np.ones((side,) * axes, np.int64), rng.choice([-1, 1], (side,) * axes)):
        ca = half * signs % field.p
        cb = half * rng.choice([-1, 1], ca.shape) % field.p
        for x, y in ((ca, cb), (ca, ca)):
            dx, dy = _balanced_planes(field, x), _balanced_planes(field, y)
            planes, tried = _fft_product(field, x, y, out_shape)
            assert len(tried) == 1 and 0.1 < tried[0][0] < 0.25
            assert np.array_equal(planes, conv_oracle(dx, dy, out_shape))


def test_fft_above_bound_takes_the_direct_route():
    # at p = 2^31 - 1 two products of full-size residues already break the
    # a-priori bound, and the product is _conv_direct's
    field = field_new(2147483647)
    a = GradedPoly.from_terms(field, 3, {(1, 0, 0): field.p // 2, (0, 1, 0): -(field.p // 2)})
    cube = a._cube()
    out_shape = tuple(2 * s - 1 for s in cube.shape)
    h = field.p // 2
    # Percival's bound as documented: 16 (log2 N + 1) eps ||a|| ||b||, N = 3 x 3
    expected = 16 * (np.log2(9) + 1) * 2.0 ** -53 * (np.sqrt(2) * h) ** 2
    assert expected >= 0.25
    planes, tried = _fft_product(field, cube, cube, out_shape)
    assert len(tried) == 1 and tried[0][0] == pytest.approx(expected, rel=1e-12)
    assert np.array_equal(np.moveaxis(planes, 0, -1), _conv_direct(field, cube, cube, out_shape))
    assert np.array_equal(planes, _unreduced_oracle(field, cube, cube, out_shape, tried[0][0]))
    assert poly_mul(a, a) == GradedPoly.from_terms(
        field, 3, {(2, 0, 0): h * h, (1, 1, 0): -2 * h * h, (0, 2, 0): h * h})


def test_fft_error_bound_reads_the_flat_arrays():
    # the bound is Percival's on the two flat arrays at the transform length,
    # with each norm sqrt(nonzeros) * max |entry|, bit for bit; read off the
    # arrays before their layout, it is the same number
    def norm(x):
        return np.sqrt(np.count_nonzero(x)) * float(np.abs(x).max())
    rng = np.random.default_rng(8)
    for _ in range(200):
        shape = tuple(int(s) for s in rng.integers(1, 7, int(rng.integers(1, 4))))
        cells = (int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        layout = tuple(2 * s - 1 for s in shape) + tuple(2 * c - 1 for c in cells)
        n = _fast_len(prod(layout))
        top = int(rng.choice([2, 50, 1 << 20, 1 << 40]))
        xa, xb = (rng.integers(-top, top, shape + cells) for _ in range(2))
        xa[rng.random(xa.shape) < rng.random()] = 0
        xa.reshape(-1)[0] = top
        for x, y in ((xa, xb), (xa, xa)):
            expected = norm(x) * norm(y) * 2.0 ** -53 * 16 * (np.log2(n) + 1)
            assert _fft_error_bound(x, y, n) == expected
            fx = _layout(x, layout)
            assert _fft_error_bound(fx, _layout(y, layout), n) == expected


def test_budget_admitted_products_need_one_limb():
    """The worst-case product of any curve the work budget admits passes the
    FFT's a-priori bound, so it never leaves the FFT for the direct route:
    both factors carry +-p/2 in every digit of every monomial, their
    degrees split the largest admitted output degree p*d evenly (the term
    count is log-concave in the degree), over every admitted field size,
    ambient dimension and prime. The bound is taken on the flat arrays,
    m digits of each monomial, at the 1-D transform's length. The worst,
    about 0.02, belongs to a plane cubic over GF(1151); its actual cubes
    pass the bound too."""
    worst = (0.0,)
    for nvars in range(3, 8):
        k = nvars - 1
        d_min = 3 if nvars == 3 else 2 * (nvars - 2)
        for m in range(1, 63):
            fake = SimpleNamespace(m=m)
            p = 2
            while power_work_bytes(fake, nvars, p * d_min) <= WORK_BUDGET_BYTES:
                if is_prime(p) and p ** m < 2 ** 63:
                    d = d_min
                    while power_work_bytes(fake, nvars, p * (d + 1)) <= WORK_BUDGET_BYTES:
                        d += 1
                    half = -(-p * d // 2)
                    norm = (p // 2) * np.sqrt(m * comb(half + k, k))
                    log_n = np.log2(_fast_len((p * d + 1) ** k * (2 * m - 1)))
                    bound = norm ** 2 * 2.0 ** -53 * 16 * (log_n + 1)
                    worst = max(worst, (bound, nvars, m, p, d))
                p += 1
    assert worst[1:] == (3, 1, 1151, 3) and 0.02 < worst[0] < 0.025
    # the cubes themselves, the halves of degree 1727 and 1726, pass the bound
    da, db = (np.where(np.add.outer(np.arange(e + 1), np.arange(e + 1)) <= e, 1151 // 2, 0)
              for e in (1727, 1726))
    assert _fft_error_bound(da, db, _fast_len(3454 * 3454)) <= worst[0]
    assert power_work_bytes(field_new(1151), 3, 3 * 1151) <= WORK_BUDGET_BYTES


def test_fft_perturbed_inverse_transform_raises(monkeypatch, golden_poly):
    # the last product of f^12, the square of f^6, lies above the crossover
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
    with pytest.raises(InternalInvariantError, match="rounding residual"):
        poly_pow(golden_poly, 12)


def _muladds(m, shape_a, shape_b):
    """Padded multiply-adds of a product of cubes of these shapes."""
    layout = tuple(a + b - 1 for a, b in zip(shape_a, shape_b)) + (2 * m - 1,)
    return _kronecker_len(shape_a + (m,), layout) * _kronecker_len(shape_b + (m,), layout)


def _spy_routes(monkeypatch):
    """Record the route, "direct" or "fft", of every product of cubes."""
    routes = []
    direct, fft = polyring._conv_direct, polyring._conv_fft

    def spy_direct(*args):
        routes.append("direct")
        return direct(*args)

    def spy_fft(*args):
        routes.append("fft")
        return fft(*args)

    monkeypatch.setattr(polyring, "_conv_direct", spy_direct)
    monkeypatch.setattr(polyring, "_conv_fft", spy_fft)
    return routes


def test_products_take_the_route_of_their_padded_size(monkeypatch, golden_poly):
    """Products up to the crossover never call _conv_fft, products above it
    always do. One axis over GF(101) puts it between lengths 300 x n and
    300 x (n+1); f^12 of the golden quartic takes f*f, f*f^2 and the
    square of f^3 directly and the square of f^6 by FFT."""
    routes = _spy_routes(monkeypatch)
    field = field_new(101)
    x = field.random_elements(np.random.default_rng(1), (300,))
    below = _DIRECT_MAX_MULADDS // 300
    for n, route in ((below, "direct"), (below + 1, "fft")):
        y = field.random_elements(np.random.default_rng(n), (n,))
        routes.clear()
        _conv_field(field, x, y)
        assert routes == [route]
    routes.clear()
    poly_pow(golden_poly, 12)
    assert routes == ["direct", "direct", "direct", "fft"]
    rng = np.random.default_rng(2)
    for p, m in ((5, 1), (101, 1), (7, 3), (31, 2)):
        field = field_new(p, m)
        for axes in (1, 2, 3, 4):
            top, step = {1: (600, 60), 2: (20, 2), 3: (9, 1), 4: (6, 1)}[axes]
            for side in range(1, top, step):
                shape = tuple(side + int(t) for t in rng.integers(0, 3, axes))
                x = field.random_elements(rng, shape)
                y = field.random_elements(rng, tuple(s + 1 for s in shape))
                for a, b in ((x, y), (x, x)):
                    routes.clear()
                    _conv_field(field, a, b)
                    assert routes == ["direct" if _muladds(m, a.shape, b.shape)
                                      <= _DIRECT_MAX_MULADDS else "fft"]


@pytest.mark.parametrize("p,m", [(5, 1), (101, 1), (2147483647, 1), (7, 3), (31, 2),
                                 (1048573, 2)])
def test_products_match_window_loop_on_both_sides_of_crossover(monkeypatch, p, m):
    """On seeded cubes with 1 to 4 axes, squares and products of two
    different factors, at the largest side below the crossover and the
    smallest above it: the product equals the window loop's on the
    balanced digits, reduced, and below the crossover the direct route's
    planes equal the window loop's on the digits in [0, p). The first
    factor keeps at most GF.max_terms nonzeros, which thins it over
    GF(2^31-1) and GF(1048573^2) only. Above the crossover, a product
    whose balanced digits fail the FFT's a-priori bound goes on from
    _conv_fft to _conv_direct: over GF(2^31-1) only."""
    routes = _spy_routes(monkeypatch)
    field = field_new(p, m)
    rng = np.random.default_rng(2000 * p + m)
    past_bound = 0

    def shapes(axes, side):
        return (side,) * axes, tuple(side + k % 2 for k in range(axes))

    for axes in (1, 2, 3, 4):
        side = 1
        while _muladds(m, *shapes(axes, side + 1)) <= _DIRECT_MAX_MULADDS:
            side += 1
        below, side = shapes(axes, side), side + 1
        while _muladds(m, *shapes(axes, side)[:1] * 2) <= _DIRECT_MAX_MULADDS:
            side += 1
        for (shape_a, shape_b), route in ((below, "direct"), (shapes(axes, side), "fft")):
            ca, da = _random_planes(field, rng, shape_a, 0.5, field.max_terms)
            cb, db = _random_planes(field, rng, shape_b, 0.5)
            for x, dx, y, dy in ((ca, da, cb, db), (ca, da, ca, da)):
                out_shape = tuple(a + b - 1 for a, b in zip(x.shape, y.shape))
                routes.clear()
                assert np.array_equal(_conv_field(field, x, y),
                                      _reduced(field, conv_oracle(dx, dy, out_shape)))
                n = _fast_len(prod(out_shape) * (2 * m - 1))
                passed_on = int(route == "fft" and _fft_error_bound(dx, dy, n) >= 0.25)
                assert routes == [route] + ["direct"] * passed_on
                past_bound += passed_on
                if route == "direct":
                    ux, uy = (np.moveaxis(field.decode(c), -1, 0) for c in (x, y))
                    assert np.array_equal(_conv_direct(field, x, y, out_shape),
                                          np.moveaxis(conv_oracle(ux, uy, out_shape), 0, -1))
    assert (past_bound > 0) == (p == 2147483647)


def test_product_over_max_terms_refused_before_either_route(monkeypatch):
    """Three nonzeros in both factors over GF(2^31-1), whose max_terms is 2,
    raise ConstraintError before either route runs, below the crossover and
    above it."""
    routes = _spy_routes(monkeypatch)
    field = field_new(2147483647)
    assert field.max_terms == 2
    for n in (3, 1000):
        x = np.zeros(n, np.int64)
        x[:3] = field.p - 1
        assert (_muladds(1, x.shape, x.shape) > _DIRECT_MAX_MULADDS) == (n > 3)
        with pytest.raises(ConstraintError, match="overflows int64"):
            _conv_field(field, x, x)
    assert routes == []


def test_power_work_estimate_bounds_measured_peak():
    """The charge bounds the traced peak of plane powers f^(p-2), of a power
    over GF(3^4), and of a (2,3)-type power (f_1 f_2)^(p-1) over GF(31),
    whose products run on 3-axis cubes."""
    import tracemalloc
    for p, m, nvars, d, e in ((31, 1, 3, 4, 29), (7, 3, 3, 5, 5), (31, 2, 3, 4, 29),
                              (3, 4, 3, 5, 20), (31, 1, 4, 5, 30)):
        field = field_new(p, m)
        f = GradedPoly(field, nvars, d, field.random_elements(np.random.default_rng(p), (
            len(monomial_basis(nvars, d)),)))
        monomial_basis(nvars, e * d)
        tracemalloc.start()
        try:
            poly_pow(f, e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak <= power_work_bytes(field, nvars, e * d)


def test_monomial_basis_cache_is_bounded():
    limit = monomial_basis.cache_info().maxsize
    assert limit is not None and limit >= 20  # a workload uses up to 20 bases
    monomial_basis.cache_clear()
    try:
        for degree in range(limit + 10):
            monomial_basis(2, degree)
        assert monomial_basis.cache_info().currsize == limit
    finally:
        monomial_basis.cache_clear()
