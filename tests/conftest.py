import itertools
from functools import reduce

import numpy as np
import pytest

from eotypes import (CurveCI, GradedPoly, TClass, ci_q_basis, field_new, gather, hw_triple,
                     monomial_basis, null_space, poly_mul, poly_pow, rank,
                     t_multiply, theta_apply, tmul_matrix)
from eotypes.errors import ConstraintError, InternalInvariantError, PolyParseError
from eotypes.gf import DTYPE
from eotypes.hwtriple import _assert_tuple_relations
from eotypes.polyring import exponent_array

# The worked quartic written as terms, independently of its text in
# eotypes.golden; its known values live there too.
GOLDEN_TERMS = {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (3, 1, 0): 1,
                (1, 2, 1): 1, (0, 2, 2): -1, (0, 1, 3): 3}

# the worked fixture's relation-space generator, written as the degree-12
# polynomial that multiplies the inverse seventh power of X0*X1*X2
GOLDEN_U_SHIFTED = {
    (6, 6, 0): 3, (6, 5, 1): 4, (6, 4, 2): 4, (6, 3, 3): 1, (6, 2, 4): 2,
    (6, 1, 5): 2, (6, 0, 6): 3, (5, 6, 1): 4, (5, 2, 5): 4, (5, 1, 6): 2,
    (4, 6, 2): 2, (4, 5, 3): 2, (4, 4, 4): 4, (4, 2, 6): 3, (3, 5, 4): 3,
    (3, 4, 5): 2, (3, 3, 6): 1, (2, 6, 4): 4, (2, 5, 5): 1, (2, 4, 6): 2,
    (1, 6, 5): 2, (1, 5, 6): 1,
}


@pytest.fixture(scope="session")
def F5():
    return field_new(5)


@pytest.fixture(scope="session")
def F7():
    return field_new(7)


@pytest.fixture(scope="session")
def F4():
    return field_new(2, 2, (1, 1, 1))


@pytest.fixture(scope="session")
def F9():
    return field_new(3, 2)


@pytest.fixture(scope="session")
def golden_poly(F5):
    return GradedPoly.from_terms(F5, 3, GOLDEN_TERMS)


@pytest.fixture(scope="session")
def golden_curve(F5, golden_poly):
    return CurveCI(F5, [golden_poly])


@pytest.fixture(scope="session")
def golden_triple(golden_curve):
    return hw_triple(golden_curve)


@pytest.fixture(scope="session")
def fermat(F5, F7):
    def make(field, degree):
        return CurveCI(field, [GradedPoly.from_terms(
            field, 3, {(degree, 0, 0): 1, (0, degree, 0): 1, (0, 0, degree): 1})])
    return make


@pytest.fixture(scope="session")
def ci_23_curve(F5):
    """Smooth (2,3) complete intersection in P^3 over GF(5)."""
    f1 = GradedPoly.from_terms(F5, 4, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1,
                                       (0, 0, 2, 0): 1, (0, 0, 0, 2): 1})
    f2 = GradedPoly.from_terms(F5, 4, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1,
                                       (0, 0, 3, 0): 1, (0, 0, 0, 3): 1})
    return CurveCI(F5, [f1, f2])


def integer_power_terms(terms: dict, k: int) -> dict:
    """Expand (sum of terms)^k over the integers; independent oracle for
    coefficient assertions."""
    cur = {(0,) * len(next(iter(terms))): 1}
    for _ in range(k):
        nxt = {}
        for e1, c1 in cur.items():
            for e2, c2 in terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nxt[e] = nxt.get(e, 0) + c1 * c2
        cur = nxt
    return cur


def laurent_product_terms(field, form_terms: dict, class_terms: dict) -> dict:
    """Product of a form and a dual-module class, both given as
    {exponent tuple: code}: multiply every pair of monomials and keep the
    Laurent monomials whose exponents are all <= -1. Independent oracle for
    t_multiply."""
    out = {}
    for es, cs in form_terms.items():
        for et, ct in class_terms.items():
            e = tuple(a + b for a, b in zip(es, et))
            if max(e) <= -1:
                out[e] = int(field.add(out.get(e, 0), field.mul(cs, ct)))
    return {e: c for e, c in out.items() if c}


def rref_oracle(field, M):
    """Row reduction with every row operation through field.mul and
    field.sub, so every entry is reduced as it is written: the independent
    oracle of semilinear.rref's differential tests."""
    M = np.array(M, DTYPE)
    if M.ndim != 2:
        raise ConstraintError("rref expects a matrix")
    nrows, ncols = M.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        M[r] = field.mul(M[r], field.inv_scalar(int(M[r, c])))
        others = np.nonzero(M[:, c])[0]
        others = others[others != r]
        if others.size:
            M[others] = field.sub(M[others],
                                  field.mul(M[others, c][:, None], M[r][None, :]))
        pivots.append(c)
        r += 1
    return M[:r], tuple(pivots)


def matmul_oracle(field, A, B):
    """GF.matmul by int64 numpy products of digits, one per pair of digit
    planes: the independent oracle of the float64 product kernel."""
    A, B = np.asarray(A, DTYPE), np.asarray(B, DTYPE)
    if field.m == 1:
        return (A @ B) % field.p
    da, db = field.decode(A), field.decode(B)
    m = field.m
    planes = np.zeros((A.shape[0], B.shape[1], 2 * m - 1), DTYPE)
    for i in range(m):
        for j in range(m):
            planes[..., i + j] += da[..., i] @ db[..., j]
    return field.reduce_digit_planes(planes)


def mul_outer_oracle(field, a, b):
    """GF.mul_outer of digit views over GF(p^m), m > 1, as one int64
    product of a with the products x^i * b."""
    m = field.m
    return (a @ (b @ field._bp).reshape(m, -1)).reshape(len(a), len(b), m)


def scale_by_inverse_oracle(field, a, d):
    """GF.scale_by_inverse over GF(p^m), m > 1, as one int64 product of a
    with the multiplication matrix of the inverse of d."""
    p, code = field.p, field.inv_scalar(d @ field._ppow)
    return a @ np.dot([code // p ** i % p for i in range(field.m)], field._bp)


def conv_oracle(da, db, out_shape):
    """Product planes of the digit planes da and db (leading axis, m each)
    by the exact int64 window loop: one shifted add of the other cube per
    nonzero entry. The independent oracle of polyring's FFT products."""
    m = len(da)
    planes = np.zeros((2 * m - 1,) + tuple(out_shape), DTYPE)
    for i in range(m):
        for j in range(m):
            x, y = da[i], db[j]
            if np.count_nonzero(x) > np.count_nonzero(y):
                x, y = y, x
            for idx in np.argwhere(x):
                window = tuple(slice(int(s), int(s) + n) for s, n in zip(idx, y.shape))
                planes[(i + j,) + window] += x[tuple(idx)] * y
    return planes


def partial_derivative_oracle(a, j):
    """Formal d/dX_j of a form by slicing its dense exponent cube: for j = 0
    the cube cropped to the degree below, weighted by the X0 exponent; for
    j >= 1 the cube shifted down one along X_j's axis, weighted by the
    exponent it had. The independent oracle of polyring.partial_derivative."""
    field, D = a.field, a.degree
    n_axes = a.nvars - 1
    cube = a._cube()
    crop = [slice(0, D)] * n_axes
    if j == 0:
        sub = cube[tuple(crop)]
        weight = D - np.indices(sub.shape).sum(axis=0) if n_axes else np.asarray(D)
        out = field.scale_int(weight, sub)
    else:
        ax = j - 1
        crop[ax] = slice(1, D + 1)
        sub = cube[tuple(crop)]
        shape = [1] * n_axes
        shape[ax] = D
        out = field.scale_int(np.arange(1, D + 1).reshape(shape), sub)
    return GradedPoly._from_cube(field, a.nvars, D - 1, out)


def term_values(field, terms, points):
    """Values at the rows of a code array of points of the form given by
    (exponent tuple, code) pairs, by field products of powers of the
    coordinates, one monomial at a time; each power is taken once."""
    out = np.zeros(len(points), DTYPE)
    powers = {}
    for row, c in terms:
        if c:
            term = np.full(len(points), c, DTYPE)
            for j, e in enumerate(map(int, row)):
                if (j, e) not in powers:
                    powers[j, e] = field.pow_int(points[:, j], e)
                term = field.mul(term, powers[j, e])
            out = field.add(out, term)
    return out


def form_values(f, points):
    """Values of the form f at the rows of a code array of points."""
    return term_values(f.field, zip(f.basis.exps, f.coeffs), points)


def projective_points(field, nvars):
    """Every point of P^(nvars-1) over the field, each as its normalized
    representative (first nonzero coordinate 1): the rows of a code array."""
    q = field.p ** field.m
    return np.array([(0,) * lead + (1,) + rest for lead in range(nvars)
                     for rest in itertools.product(range(q), repeat=nvars - 1 - lead)], DTYPE)


def rational_singular_points(curve):
    """Every point of P^n over the curve's own field GF(p^m) where all
    defining forms vanish and their Jacobian has rank below n-1, by brute
    force over the normalized representatives (first nonzero coordinate 1),
    as tuples of codes."""
    field, nvars = curve.field, curve.nvars
    points = projective_points(field, nvars)
    on_curve = np.ones(len(points), bool)
    for f in curve.polys:
        on_curve &= form_values(f, points) == 0
    points = points[on_curve]
    jacobian = np.array([[form_values(partial_derivative_oracle(f, j), points)
                          for j in range(nvars)] for f in curve.polys], DTYPE)
    return [tuple(pt.tolist()) for pt, jac in zip(points, jacobian.transpose(2, 0, 1))
            if len(rref_oracle(field, jac)[1]) < len(curve.polys)]


def point_count(field, forms, nvars):
    """Number of points of P^(nvars-1) over the field where every form
    vanishes, each form a dict {exponent tuple: code}, by brute force over
    the normalized representatives: no polyring code. Codes below p name
    the same element of GF(p) in every GF(p^k), so forms over GF(p) count
    over an extension as they are."""
    points = projective_points(field, nvars)
    on_curve = np.ones(len(points), bool)
    for terms in forms:
        on_curve &= term_values(field, terms.items(), points) == 0
    return int(on_curve.sum())


def hasse_witt_trace(field, A, k):
    """Tr(M^k) for M = A * A^sigma * ... * A^(sigma^(m-1)) over GF(p^m),
    which lies in GF(p). For a smooth curve over GF(q) with Hasse-Witt
    matrix A, #C(GF(q^k)) = 1 - Tr(M^k) (mod p) (Manin 1961)."""
    M = np.eye(len(A), dtype=DTYPE)
    for i in range(field.m):
        M = field.matmul(M, field.frob(A, i))
    power = np.eye(len(A), dtype=DTYPE)
    for _ in range(k):
        power = field.matmul(power, M)
    trace = 0
    for x in np.diagonal(power):
        trace = int(field.add(trace, x))
    if trace >= field.p:
        raise AssertionError("Tr(M^k) does not lie in GF(p)")
    return trace


def derivative_matrix_oracle(curve, src_degrees):
    """hwtriple._derivative_matrix as one multiplication matrix per partial
    derivative and form (tmul_matrix), stacked: the independent oracle of
    its index plans."""
    return np.vstack([np.hstack([tmul_matrix(partial_derivative_oracle(f, j), m)
                                 for f, m in zip(curve.polys, src_degrees)])
                      for j in range(curve.nvars)])


def macaulay_smoothness_oracle(curve):
    """True iff the partials of a plane form generate everything in degree
    3d-5, i.e. have no common projective zero: one rank of their Macaulay
    matrix. The independent oracle of hwtriple.plane_smoothness_check."""
    f = curve.polys[0]
    target = exponent_array(3, 3 * f.degree - 5)
    diffs = target[:, None] - exponent_array(3, 2 * f.degree - 4)[None]
    cols = np.hstack([gather(partial_derivative_oracle(f, j), diffs) for j in range(3)])
    return rank(curve.field, cols) == len(target)


def pairing_matrix_oracle(curve, u):
    """hwtriple.pairing_matrix's matrix as it was gathered before the
    catalecticant reader: per component, the tuples of degree
    shifted - (d-n-1) plus each degree d-n-1 monomial, stacked."""
    nvars, k = curve.nvars, curve.d - curve.n - 1
    monos = exponent_array(nvars, k)
    return np.vstack([gather(comp, exponent_array(nvars, comp.shifted_degree - k)[:, None]
                             + monos[None]) for comp in u])


def plane_catalecticant_oracle(curve):
    """The 3 x |S_(3d-7)| catalecticant u(X_i * m) of a plane curve, as the
    smoothness check gathered it before the catalecticant reader."""
    monos = exponent_array(3, 3 * curve.d - 7)
    return gather(curve.u[0], exponent_array(3, 1)[:, None] + monos[None])


def module_action_catalecticant_oracle(u, k):
    """The catalecticant of u in degree k through the module action: row i
    is the stacked coefficients of m_i * u_l (t_multiply) over the degree k
    monomials m_i."""
    field, nvars = u[0].field, u[0].nvars
    return np.array([np.concatenate([t_multiply(GradedPoly.monomial(field, nvars, e), comp).coeffs
                                     for comp in u])
                     for e in exponent_array(nvars, k).tolist()], DTYPE)


def _determinant(rows):
    """Determinant of a square matrix of forms, by Leibniz's formula."""
    det = None
    for perm in itertools.permutations(range(len(rows))):
        term = reduce(poly_mul, (row[j] for row, j in zip(rows, perm)))
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -term if inversions % 2 else term
        det = term if det is None else det + term
    return det


def jacobian_smoothness_oracle(curve):
    """True iff the forms f_1..f_(n-1) and the (n-1)-minors of their
    Jacobian have no common projective zero, i.e. the Jacobian criterion
    certifies the curve smooth. With delta the largest of their degrees,
    that holds iff they fill S_D for D = (n+1)(delta-1)+1 (Macaulay's bound
    for an ideal of finite colength), one rank of their Macaulay matrix; a
    rank does not change under field extension."""
    nvars, k = curve.nvars, len(curve.polys)
    jacobian = [[partial_derivative_oracle(f, j) for j in range(nvars)] for f in curve.polys]
    gens = list(curve.polys) + [_determinant([[row[j] for j in cols] for row in jacobian])
                                for cols in itertools.combinations(range(nvars), k)]
    D = nvars * (max(g.degree for g in gens) - 1) + 1
    target = exponent_array(nvars, D)
    cols = np.hstack([gather(g, target[:, None] - exponent_array(nvars, D - g.degree)[None])
                      for g in gens])
    return rank(curve.field, cols) == len(target)


def independent_subset_oracle(field, vectors):
    """Indices of the vectors, in input order, that raise the rank of those
    kept before them: one oracle row reduction per vector. The independent
    oracle of semilinear.independent_subset."""
    vectors = np.asarray(vectors, DTYPE)
    kept = []
    for i in range(len(vectors)):
        if len(rref_oracle(field, vectors[kept + [i]])[1]) > len(kept):
            kept.append(i)
    return kept


def complement_oracle(field, kappa, scan):
    """Standard basis vectors, scanned in descending or ascending index
    order, that raise the rank over the kernel basis kappa, stopping at full
    rank; sorted. The independent oracle of assemble_dm's complement."""
    kappa = np.asarray(kappa, DTYPE)
    g = kappa.shape[1]
    order = range(g - 1, -1, -1) if scan == "descending" else range(g)
    rows, complement = list(kappa), []
    for i in order:
        if len(rows) == g:
            break
        e = np.eye(g, dtype=DTYPE)[i]
        if len(rref_oracle(field, rows + [e])[1]) > len(rows):
            rows.append(e)
            complement.append(i)
    return sorted(complement)


# -- the recursive-descent polynomial parser: the oracle of cli.parse_poly ---

_ORACLE_ALIASES = {"x": 0, "y": 1, "z": 2}


def _oracle_tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*^":
            tokens.append((c, c, i))
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif c == "X":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolyParseError("variable 'X' needs an index", i)
            tokens.append(("var", int(text[i + 1:j]), i))
            i = j
        elif c in _ORACLE_ALIASES:
            tokens.append(("var", _ORACLE_ALIASES[c], i))
            i += 1
        else:
            raise PolyParseError(f"unexpected character {c!r}", i)
    return tokens


class _OracleParser:
    def __init__(self, tokens, text_len):
        self.tokens = tokens
        self.pos = 0
        self.text_len = text_len

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, self.text_len)

    def take(self, kind=None):
        tok = self.peek()
        if tok[0] is None or (kind is not None and tok[0] != kind):
            raise PolyParseError(f"expected {kind or 'token'}, found {tok[0] or 'end of input'}",
                                 tok[2])
        self.pos += 1
        return tok

    def parse_poly(self):
        """Returns a list of (sign, coef or None, [(var, exp), ...])."""
        terms = []
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        terms.append(self.parse_term(sign))
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            terms.append(self.parse_term(1 if op == "+" else -1))
        tok = self.peek()
        if tok[0] is not None:
            raise PolyParseError(f"trailing input {tok[0]!r}", tok[2])
        return terms

    def parse_term(self, sign):
        kind, value, pos = self.peek()
        coef = 1
        factors = []
        if kind == "int":
            self.take()
            coef = value
            if self.peek()[0] == "*":
                self.take()
                factors = self.parse_mono()
        elif kind == "var":
            factors = self.parse_mono()
        else:
            raise PolyParseError("expected a coefficient or a variable", pos)
        return sign, coef, factors

    def parse_mono(self):
        factors = [self.parse_factor()]
        while self.peek()[0] == "*":
            self.take()
            factors.append(self.parse_factor())
        return factors

    def parse_factor(self):
        _, idx, pos = self.take("var")
        exp = 1
        if self.peek()[0] == "^":
            self.take()
            exp = self.take("int")[1]
        return idx, exp, pos


def parse_oracle(text, nvars, field):
    """Tokenizer, token triples and a recursive-descent parser, placed
    through a dict over every monomial of the degree: the independent oracle
    of cli.parse_poly. A digit that int() refuses raises ValueError."""
    terms = _OracleParser(_oracle_tokenize(text), len(text)).parse_poly()
    exps = {}
    degree = None
    for sign, coef, factors in terms:
        e = [0] * nvars
        for idx, exp, pos in factors:
            if idx >= nvars:
                raise PolyParseError(
                    f"variable X{idx} out of range (indices must be <= {nvars - 1})", pos)
            e[idx] += exp
        d = sum(e)
        if degree is None:
            degree = d
        elif d != degree:
            raise PolyParseError(
                f"polynomial is not homogeneous: term of degree {d} after degree {degree}")
        key = tuple(e)
        exps[key] = exps.get(key, 0) + sign * coef
    basis = monomial_basis(nvars, degree)
    index = {e: i for i, e in enumerate(basis.monomials)}
    coeffs = np.zeros(len(basis), DTYPE)
    for e, c in exps.items():
        coeffs[index[e]] = field.from_int(c)
    return GradedPoly(field, nvars, degree, coeffs)


# -- whole product powers: the oracle of hwtriple's split reads ---------------

def product_pm1(curve):
    """(f_1 ... f_(n-1))^(p-1), formed whole, each f_i^(p-1) as f_i * f_i^(p-2)."""
    p = curve.field.p
    return reduce(poly_mul, [poly_mul(f, poly_pow(f, p - 2)) for f in curve.polys])


def products_pm1_over(curve):
    """(f_1 ... f_(n-1))^(p-1) / f_ell for each ell, formed whole: the
    second operator's powers. A plane curve's one product is f^(p-2)."""
    p = curve.field.p
    return [reduce(poly_mul, [poly_pow(f, p - 2 if j == ell else p - 1)
                              for j, f in enumerate(curve.polys)])
            for ell in range(len(curve.polys))]


def full_product_frob_times(curve, F, rows):
    """Columns F * Frob(t) for the degree -d classes t given as rows, with F
    formed whole and read by one gather: (F * Frob(t))_c is the sum over s
    of sigma(t_s) F_(p*s+p-1-c). The route hwtriple._split_read replaced."""
    field, p, nvars = curve.field, curve.field.p, curve.nvars
    src = exponent_array(nvars, curve.d - nvars)
    tgt = exponent_array(nvars, p * curve.d - F.degree - nvars)
    return field.matmul(gather(F, (p * src + p - 1)[None] - tgt[:, None]),
                        field.frob(rows, 1).T)


# -- the general path through Frobenius T-classes: the oracle of hwtriple's ---
# -- coefficient reads ----------------------------------------------------------

def _oracle_hw_general_matrix(curve):
    field, nvars, d = curve.field, curve.nvars, curve.d
    qb = ci_q_basis(curve)
    F = product_pm1(curve)
    images = [t_multiply(F, TClass(field, nvars, -d, row).frobenius()).coeffs
              for row in qb.rows]
    return qb.coords_of(np.array(images, DTYPE)).T


def _oracle_psi_general(curve, kappa, u):
    field, nvars, d = curve.field, curve.nvars, curve.d
    qb = ci_q_basis(curve)
    products = products_pm1_over(curve)
    cols = []
    for kap in kappa:
        tau_kap = field.frob(kap, -1)
        vec = field.matmul(tau_kap[None, :], qb.rows)[0]
        t = TClass(field, nvars, -d, vec).frobenius()
        xi = tuple(t_multiply(F, t) for F in products)
        for comp in xi:
            _oracle_assert_in_dual_module(curve, comp)
        _assert_tuple_relations(curve, np.concatenate([comp.coeffs for comp in xi])[:, None])
        cols.append(theta_apply(curve, u, xi))
    return np.array(cols, DTYPE).T


def _oracle_assert_in_dual_module(curve, xi):
    for f in curve.polys:
        if not t_multiply(f, xi).is_zero():
            raise InternalInvariantError(
                "second operator image left the curve's dual module")


def general_path_oracle(curve):
    """(A_phi, kappa, A_psi) of the general complete-intersection path, with
    every Frobenius image built as a dense T-class of degree -p*d and
    multiplied one Q row and one kernel vector at a time (t_multiply)."""
    A_phi = _oracle_hw_general_matrix(curve)
    kappa = null_space(curve.field, A_phi)
    if not kappa.shape[0]:
        return A_phi, kappa, np.zeros((A_phi.shape[0], 0), DTYPE)
    return A_phi, kappa, _oracle_psi_general(curve, kappa, curve.u)


def substituted_form(field, f, M):
    """f(M * x) over field, for a form f over GF(p), p = field.p, and an
    nvars x nvars code matrix M over field: the sum over the monomials of
    f of its coefficient, lifted from GF(p), times the product of the
    powers of the rows of M as linear forms."""
    powers = [[poly_pow(GradedPoly(field, f.nvars, 1, row), k) for k in range(f.degree + 1)]
              for row in M]
    terms = [reduce(poly_mul, [powers[i][k] for i, k in enumerate(e)]).scale(int(c))
             for e, c in zip(f.basis.monomials, f.coeffs) if c]
    return reduce(lambda a, b: a + b, terms, GradedPoly.zero(field, f.nvars, f.degree))


# -- the Fermat family: a closed-form final type --------------------------------

def fermat_final_type(p, d):
    """Final type of the Fermat curve X^d + Y^d + Z^d in characteristic p,
    p not dividing d, with no field arithmetic. H^1_dR has a basis of
    eigenvectors e_t of the mu_d^2 action, one for each t = (a, b, c) with
    1 <= a, b, c <= d-1 and a + b + c = 0 (mod d). The g with a + b + c = d
    span H^0(Omega), which F kills; F sends each other e_t to a nonzero
    multiple of e_(p*t mod d), as it has rank g. V kills the image of F and
    sends each other e_s to a multiple of e_(s/p mod d). So the image under
    F and the preimage under V of a span of e_t's is one again, and every
    piece of the canonical filtration is a set of indices."""
    index = [(a, b, c) for a in range(1, d) for b in range(1, d) for c in range(1, d)
             if (a + b + c) % d == 0]
    holomorphic = {t for t in index if sum(t) == d}

    def twist(t, k):
        return tuple(k * x % d for x in t)

    def image(S):
        return frozenset(twist(t, p) for t in S if t not in holomorphic)

    ker_v, inverse = image(index), pow(p, -1, d)

    def preimage(S):
        return frozenset(s for s in index if s in ker_v or twist(s, inverse) in S)

    members = {frozenset(), frozenset(index)}
    while True:
        new = {op(S) for S in members for op in (image, preimage)} - members
        if not new:
            break
        members |= new
    chain = sorted(members, key=len)
    values = [0]
    for a, b in zip(chain, chain[1:]):
        if not a < b:
            raise AssertionError("the canonical filtration is not a chain")
        rise, width = len(image(b)) - len(image(a)), len(b) - len(a)
        if rise not in (0, width):
            raise AssertionError("the final type neither stays nor climbs by one a step")
        values += [values[-1] + (rise > 0) * k for k in range(1, width + 1)]
    return values


def fermat_form(field, d, M=None):
    """X^d + Y^d + Z^d at M * (X, Y, Z) for a 3 x 3 code matrix M (the
    identity when None): the sum of the d-th powers of the rows of M as
    linear forms."""
    rows = np.eye(3, dtype=DTYPE) if M is None else M
    return reduce(lambda a, b: a + b, (poly_pow(GradedPoly(field, 3, 1, row), d) for row in rows))
