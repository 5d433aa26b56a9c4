import itertools
from math import prod

import numpy as np
import pytest

from eotypes import CurveCI, GradedPoly, field_new, hw_triple, partial_derivative
from eotypes.errors import ConstraintError
from eotypes.gf import DTYPE

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


def rational_singular_points(curve):
    """Every GF(p)-rational point of P^n where all defining forms vanish and
    their Jacobian has rank below n-1, by brute force over the normalized
    representatives (first nonzero coordinate 1). Prime fields only."""
    field, nvars = curve.field, curve.nvars
    if field.m != 1:
        raise ConstraintError("the singular-point oracle takes a prime field")
    p = field.p
    points = [pt for pt in itertools.product(range(p), repeat=nvars)
              if any(pt) and pt[next(i for i, x in enumerate(pt) if x)] == 1]

    def value(f, pt):
        return sum(int(c) * prod(pow(x, int(e), p) for x, e in zip(pt, row))
                   for row, c in zip(f.basis.exps, f.coeffs) if c) % p

    jacobian = [[partial_derivative(f, j) for j in range(nvars)] for f in curve.polys]
    singular = []
    for pt in points:
        if any(value(f, pt) for f in curve.polys):
            continue
        jac = [[value(df, pt) for df in row] for row in jacobian]
        if len(rref_oracle(field, jac)[1]) < len(curve.polys):
            singular.append(pt)
    return singular
