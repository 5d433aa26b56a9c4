"""Dense homogeneous polynomial arithmetic over GF(p^m), together with the
negatively graded dual classes in which Hasse-Witt data live.

A homogeneous polynomial of degree D in variables X_0..X_n is a coefficient
vector over the degree-D monomials in graded-lex order (X_0 largest).
Multiplication goes through a dense "cube" representation indexed by the
exponents of X_1..X_n (X_0 is implied by homogeneity), so products are plain
integer convolutions reduced mod p.

A ``TClass`` is a class of degree m <= -(n+1) in the dual module T: a span of
Laurent monomials with every exponent <= -1, any product hitting a
non-negative exponent being discarded. It is stored through the bijection
e -> -e-1 onto ordinary monomials of degree -m-(n+1).

Every multiplication or coefficient matrix is one ``gather``: the
coefficients of a form or of a shifted T-class read off its cube at an array
of exponent differences, 0 wherever a difference has a negative entry. In
shifted exponents s*t sends source monomial a to target c with coefficient
s[a - c], so ``tmul_matrix`` and ``t_multiply`` are a gather and a matmul.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .errors import ConstraintError
from .gf import DTYPE, GF, FieldElem


class MonomialBasis:
    """All exponent tuples of a fixed total degree, graded-lex descending."""

    __slots__ = ("nvars", "degree", "monomials", "index", "cube_shape", "flat_idx")

    def __init__(self, nvars: int, degree: int):
        if nvars < 1:
            raise ConstraintError("nvars must be >= 1")
        if degree < 0:
            raise ConstraintError("degree must be >= 0")
        self.nvars = nvars
        self.degree = degree
        self.monomials = tuple(_exponents(nvars, degree))
        self.index = {e: i for i, e in enumerate(self.monomials)}
        self.cube_shape = (degree + 1,) * (nvars - 1)
        if nvars == 1:
            self.flat_idx = np.zeros(1, dtype=np.intp)
        else:
            tails = np.array([e[1:] for e in self.monomials], dtype=np.intp)
            self.flat_idx = np.ravel_multi_index(tails.T, self.cube_shape)

    def __len__(self):
        return len(self.monomials)

    def __repr__(self):
        return f"MonomialBasis(nvars={self.nvars}, degree={self.degree}, size={len(self)})"


def _exponents(nvars, degree):
    if nvars == 1:
        yield (degree,)
        return
    for e0 in range(degree, -1, -1):
        for rest in _exponents(nvars - 1, degree - e0):
            yield (e0,) + rest


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, degree: int) -> MonomialBasis:
    return MonomialBasis(nvars, degree)


def _conv_int(ca, cb):
    """Exact integer convolution of two dense exponent cubes."""
    out_shape = tuple(a + b - 1 for a, b in zip(ca.shape, cb.shape))
    out = np.zeros(out_shape, DTYPE)
    if np.count_nonzero(ca) > np.count_nonzero(cb):
        ca, cb = cb, ca
    for idx in np.argwhere(ca):
        window = tuple(slice(int(i), int(i) + s) for i, s in zip(idx, cb.shape))
        out[window] += ca[tuple(idx)] * cb
    return out


def _conv_field(field: GF, ca, cb):
    # an output entry sums at most one product per nonzero of the sparser cube
    terms = min(np.count_nonzero(ca), np.count_nonzero(cb))
    if terms > field.max_terms:
        raise ConstraintError(
            f"a product summing {terms} terms overflows int64 over {field!r}")
    if field.m == 1:
        return _conv_int(ca, cb) % field.p
    m = field.m
    da, db = field.decode(ca), field.decode(cb)
    out_shape = tuple(a + b - 1 for a, b in zip(ca.shape, cb.shape))
    planes = np.zeros(out_shape + (2 * m - 1,), DTYPE)
    for i in range(m):
        for j in range(m):
            planes[..., i + j] += _conv_int(da[..., i], db[..., j])
    return field.reduce_digit_planes(planes)


class GradedPoly:
    """Homogeneous polynomial with a dense coefficient vector of codes."""

    __slots__ = ("field", "nvars", "degree", "coeffs")

    def __init__(self, field: GF, nvars: int, degree: int, coeffs):
        basis = monomial_basis(nvars, degree)
        coeffs = np.asarray(coeffs, DTYPE)
        if coeffs.shape != (len(basis),):
            raise ConstraintError(
                f"coefficient vector has length {coeffs.shape}, expected {len(basis)}")
        self.field = field
        self.nvars = nvars
        self.degree = degree
        self.coeffs = coeffs

    @property
    def basis(self) -> MonomialBasis:
        return monomial_basis(self.nvars, self.degree)

    @classmethod
    def zero(cls, field, nvars, degree):
        return cls(field, nvars, degree, np.zeros(len(monomial_basis(nvars, degree)), DTYPE))

    @classmethod
    def from_terms(cls, field, nvars, terms):
        """Build from {exponent tuple: integer or FieldElem} pairs."""
        terms = dict(terms)
        if not terms:
            raise ConstraintError("from_terms needs at least one term; use zero()")
        degrees = {sum(e) for e in terms}
        if len(degrees) != 1:
            raise ConstraintError(f"terms are not homogeneous: degrees {sorted(degrees)}")
        poly = cls.zero(field, nvars, degrees.pop())
        basis = poly.basis
        coeffs = poly.coeffs.copy()
        for e, c in terms.items():
            code = c.code if isinstance(c, FieldElem) else field.from_int(c)
            coeffs[basis.index[tuple(e)]] = int(field.add(coeffs[basis.index[tuple(e)]], code))
        return cls(field, nvars, poly.degree, coeffs)

    @classmethod
    def monomial(cls, field, nvars, exponents, coeff=1):
        return cls.from_terms(field, nvars, {tuple(exponents): coeff})

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def _cube(self):
        cube = np.zeros(self.basis.cube_shape, DTYPE)
        cube.reshape(-1)[self.basis.flat_idx] = self.coeffs
        return cube

    @classmethod
    def _from_cube(cls, field, nvars, degree, cube):
        basis = monomial_basis(nvars, degree)
        return cls(field, nvars, degree, np.ascontiguousarray(cube).reshape(-1)[basis.flat_idx])

    def _check_compatible(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise ConstraintError("polynomials live in different rings")

    def __add__(self, other):
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ConstraintError("cannot add forms of different degrees")
        return GradedPoly(self.field, self.nvars, self.degree,
                          self.field.add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ConstraintError("cannot subtract forms of different degrees")
        return GradedPoly(self.field, self.nvars, self.degree,
                          self.field.sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return GradedPoly(self.field, self.nvars, self.degree, self.field.neg(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, GradedPoly):
            return poly_mul(self, other)
        return NotImplemented

    def __pow__(self, e):
        return poly_pow(self, e)

    def __eq__(self, other):
        return (isinstance(other, GradedPoly) and self.field == other.field
                and self.nvars == other.nvars and self.degree == other.degree
                and np.array_equal(self.coeffs, other.coeffs))

    def scale(self, c) -> "GradedPoly":
        code = c.code if isinstance(c, FieldElem) else self.field.from_int(c)
        return GradedPoly(self.field, self.nvars, self.degree,
                          self.field.mul(self.coeffs, code))

    def frobenius_coeffs(self, k: int = 1) -> "GradedPoly":
        """Apply sigma^k to every coefficient (exponents unchanged)."""
        return GradedPoly(self.field, self.nvars, self.degree,
                          self.field.frob(self.coeffs, k))

    def __str__(self):
        parts = []
        for e, c in zip(self.basis.monomials, self.coeffs):
            if c == 0:
                continue
            factors = [f"X{i}" + (f"^{k}" if k > 1 else "")
                       for i, k in enumerate(e) if k > 0]
            coef = self.field.format_element(c)
            if not factors:
                parts.append(coef)
            elif coef == "1":
                parts.append("*".join(factors))
            else:
                parts.append("*".join([coef] + factors))
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"GradedPoly({self})"


def poly_mul(a: GradedPoly, b: GradedPoly) -> GradedPoly:
    a._check_compatible(b)
    cube = _conv_field(a.field, a._cube(), b._cube())
    return GradedPoly._from_cube(a.field, a.nvars, a.degree + b.degree, cube)


def poly_pow(a: GradedPoly, e: int) -> GradedPoly:
    if e < 0:
        raise ConstraintError("negative exponent")
    result = GradedPoly.from_terms(a.field, a.nvars, {(0,) * a.nvars: 1})
    base = a
    while e > 0:
        if e & 1:
            result = poly_mul(result, base)
        if e > 1:
            base = poly_mul(base, base)
        e >>= 1
    return result


def partial_derivative(a: GradedPoly, j: int) -> GradedPoly:
    """Formal d/dX_j, homogeneous of degree deg(a)-1."""
    if not 0 <= j < a.nvars:
        raise ConstraintError(f"variable index {j} out of range for {a.nvars} variables")
    if a.degree < 1:
        raise ConstraintError("cannot differentiate a form of degree 0")
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


def coeff_of(a: GradedPoly, exponents) -> FieldElem:
    exponents = tuple(int(e) for e in exponents)
    if len(exponents) != a.nvars or sum(exponents) != a.degree:
        raise ConstraintError(
            f"exponent tuple {exponents} does not have degree {a.degree} in {a.nvars} variables")
    pos = a.basis.index.get(exponents)
    code = 0 if pos is None else int(a.coeffs[pos])
    return FieldElem(a.field, code)


class TClass:
    """Class in T of degree m <= -(n+1), stored in shifted form.

    Coefficient i belongs to the Laurent monomial X^e with e = -s-1, where s
    is the i-th ordinary monomial of degree -m-(n+1) in graded-lex order.
    Degrees above -(n+1) are allowed only as the zero space (empty vector).
    """

    __slots__ = ("field", "nvars", "degree", "coeffs")

    def __init__(self, field: GF, nvars: int, degree: int, coeffs):
        self.field = field
        self.nvars = nvars
        self.degree = degree
        size = self.basis_size(nvars, degree)
        coeffs = np.asarray(coeffs, DTYPE)
        if coeffs.shape != (size,):
            raise ConstraintError(
                f"T-class of degree {degree} needs {size} coefficients, got {coeffs.shape}")
        self.coeffs = coeffs

    @staticmethod
    def basis_size(nvars: int, degree: int) -> int:
        return comb(-degree - 1, nvars - 1) if degree <= -nvars else 0

    @property
    def shifted_degree(self) -> int:
        return -self.degree - self.nvars

    @property
    def basis(self) -> MonomialBasis:
        return monomial_basis(self.nvars, self.shifted_degree)

    @classmethod
    def zero(cls, field, nvars, degree):
        return cls(field, nvars, degree, np.zeros(cls.basis_size(nvars, degree), DTYPE))

    @classmethod
    def from_laurent_terms(cls, field, nvars, terms):
        """Build from {Laurent exponent tuple (all entries <= -1): coeff}."""
        shifted = {}
        for e, c in terms.items():
            if any(x >= 0 for x in e):
                raise ConstraintError(f"Laurent exponent {e} has a non-negative entry")
            shifted[tuple(-x - 1 for x in e)] = c
        degrees = {sum(e) for e in terms}
        if len(degrees) != 1:
            raise ConstraintError("terms are not homogeneous")
        out = cls.zero(field, nvars, degrees.pop())
        basis = out.basis
        coeffs = out.coeffs.copy()
        for s, c in shifted.items():
            code = c.code if isinstance(c, FieldElem) else field.from_int(c)
            coeffs[basis.index[s]] = int(field.add(coeffs[basis.index[s]], code))
        return cls(field, nvars, out.degree, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def _cube(self):
        cube = np.zeros(self.basis.cube_shape, DTYPE)
        cube.reshape(-1)[self.basis.flat_idx] = self.coeffs
        return cube

    def __add__(self, other):
        if (self.field != other.field or self.nvars != other.nvars
                or self.degree != other.degree):
            raise ConstraintError("T-classes live in different graded pieces")
        return TClass(self.field, self.nvars, self.degree,
                      self.field.add(self.coeffs, other.coeffs))

    def scale(self, c) -> "TClass":
        code = c.code if isinstance(c, FieldElem) else self.field.from_int(c)
        return TClass(self.field, self.nvars, self.degree,
                      self.field.mul(self.coeffs, code))

    def __eq__(self, other):
        return (isinstance(other, TClass) and self.field == other.field
                and self.nvars == other.nvars and self.degree == other.degree
                and np.array_equal(self.coeffs, other.coeffs))

    def frobenius(self) -> "TClass":
        """p-th power map: [X^e] -> sigma(c) [X^(p*e)]."""
        p = self.field.p
        out = TClass.zero(self.field, self.nvars, p * self.degree)
        if out.coeffs.size == 0:
            return out
        cube = np.zeros(out.basis.cube_shape, DTYPE)
        tails = p * exponent_array(self.nvars, self.shifted_degree)[:, 1:] + p - 1
        cube[tuple(tails.T)] = self.field.frob(self.coeffs, 1)
        return TClass(self.field, self.nvars, out.degree, cube.reshape(-1)[out.basis.flat_idx])

    def __str__(self):
        parts = []
        for s, c in zip(self.basis.monomials, self.coeffs):
            if c == 0:
                continue
            mono = "*".join(f"X{i}^{-x - 1}" for i, x in enumerate(s))
            parts.append(f"{self.field.format_element(c)}*[{mono}]")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"TClass(degree={self.degree}: {self})"


@lru_cache(maxsize=None)
def exponent_array(nvars: int, degree: int):
    """Read-only (len, nvars) array of the degree's monomials in basis order;
    empty for a negative degree."""
    if degree < 0:
        return np.zeros((0, nvars), np.intp)
    exps = np.array(monomial_basis(nvars, degree).monomials, np.intp)
    exps.flags.writeable = False
    return exps


def gather(x, exps):
    """Coefficients of a GradedPoly, or of a TClass in shifted exponents, at
    an integer array of exponent tuples along the last axis; 0 wherever a
    tuple has a negative entry. Every tuple must have x's (shifted) degree."""
    exps = np.asarray(exps)
    # row-major position in the cube, whose sides are all degree + 1
    flat = exps[..., 1:] @ (x.basis.degree + 1) ** np.arange(x.nvars - 2, -1, -1)
    valid = exps.min(axis=-1) >= 0
    return np.where(valid, x._cube().take(flat, mode="clip"), 0)


def tmul_matrix(s: GradedPoly, src_degree: int):
    """Matrix of t -> s*t from the degree src_degree piece of T."""
    src = exponent_array(s.nvars, -src_degree - s.nvars)
    tgt = exponent_array(s.nvars, -src_degree - s.degree - s.nvars)
    return gather(s, src[None] - tgt[:, None])


def t_multiply(s: GradedPoly, t: TClass) -> TClass:
    """Module action of the polynomial ring on T: the product with every
    monomial that hits a non-negative exponent discarded. This is
    tmul_matrix(s, t.degree) applied to t, gathering only the columns on the
    support of t (Frobenius images are sparse in a large source piece)."""
    if s.field != t.field or s.nvars != t.nvars:
        raise ConstraintError("polynomial and T-class live over different rings")
    support = np.flatnonzero(t.coeffs)
    src = exponent_array(s.nvars, t.shifted_degree)[support]
    tgt = exponent_array(s.nvars, t.shifted_degree - s.degree)
    image = s.field.matmul(gather(s, src[None] - tgt[:, None]), t.coeffs[support, None])
    return TClass(s.field, s.nvars, s.degree + t.degree, image[:, 0])
