"""Dense homogeneous polynomial arithmetic over GF(p^m), together with the
negatively graded dual classes in which Hasse-Witt data live.

A homogeneous polynomial of degree D in variables X_0..X_n is a coefficient
vector over the degree-D monomials in graded-lex order (X_0 largest).
Multiplication goes through a dense "cube" representation indexed by the
exponents of X_1..X_n (X_0 is implied by homogeneity): a product is the
convolution of the factors' digits (m of them over GF(p^m)), reduced once
at the end. A sum of more than ``GF.max_terms`` products is refused with
``ConstraintError`` before either route below runs.

Both routes lay out their operands one way (``_layout``), a Kronecker
substitution: each factor's digits go into an array of the output's shape
with a trailing digit axis, flattened and cut after the factor's last entry.
Digit i of one factor and j of the other land on digit i+j, and the flat
index of a sum is the sum of the flat indices, so nothing wraps and one
1-D convolution of the two flat arrays is the product laid out whole.

A small product, up to ``_DIRECT_MAX_MULADDS`` padded multiply-adds, is one
exact int64 ``np.convolve`` (``_conv_direct``) of the digits in [0, p)
with a trailing digit axis of length 2m-1. An entry of a digit plane sums
at most m*terms non-negative products, so every partial sum lies in
[0, terms*m*(p-1)^2], and after the fold through ``GF._red`` an entry is at
most terms*term_bound <= INT64_MAX: the route needs no error bound and
no rounding check.

A larger product (``_conv_fft``) is one floating-point ``np.fft.rfft`` and
``irfft`` over a length 2^a 3^b 5^c of the digits in balanced residues of
absolute value at most p/2, rounded to integers. Percival's bound on the
error of every output entry of a transform of size N = 2^n is
||a||*||b||*((6 + 3*sqrt(5))*n + sqrt(5))*eps for twiddle factors accurate
to eps = 2^-53; it is taken as 16*(log2(N) + 1)*eps*||a||*||b||, with
||a|| <= sqrt(nonzeros)*max|entry| of each flat array, and must stay below
1/4. That also keeps every exact entry below 2^47, so the rounded floats
are the integers; a rounding residual of 1/4 or more at run time is an
``InternalInvariantError``. Where the digits fail the bound (a product of
forms called directly at p far above any admitted curve's), the product is
``_conv_direct``'s, exact by the term guard alone, whatever its size. No
curve within the work budget comes near the bound (``power_work_bytes``).

A ``TClass`` is a class of degree m <= -(n+1) in the dual module T: a span of
Laurent monomials with every exponent <= -1, any product hitting a
non-negative exponent being discarded. It is stored through the bijection
e -> -e-1 onto ordinary monomials of degree -m-(n+1).

Outside the products, coefficients are read and placed by basis position,
given in closed form by ``_positions``. ``gather`` reads a form, or a
shifted T-class, at an array of exponent tuples as one take from its
coefficients with a zero appended, the zero wherever a tuple has a negative
entry. In shifted exponents s*t sends source monomial a to target c with
coefficient s[a - c], so ``tmul_matrix`` is a gather and ``t_multiply``
applies it to one class.

Where a gather's positions depend only on the shape of the case (numbers
of variables, degrees, p) and not on the curve, they are built once into a
read-only plan, kept in a bounded ``lru_cache`` keyed by those ints, and
each call is one take from the coefficients: ``_tmul_plan`` for
``tmul_matrix``, and in ``hwtriple`` the relation matrix
(``_derivative_plan``) and the catalecticants (``_catalecticant_plan``).
The exponent cube is the format of the products and of the split reads of
both Hasse-Witt operators (``hwtriple._split_read``): the entries of L and
R, read off two factor powers whose product is never formed, are one take
each from a zero-bordered copy of a factor's cube at flat offsets, whose
shape ``hwtriple._split_plan`` keeps the same way.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod

import numpy as np

from .errors import ConstraintError, InternalInvariantError
from .gf import DTYPE, GF, FieldElem


# Largest working set, in bytes, that one product of exponent cubes or one
# coefficient matrix may need; a curve that would exceed it is refused
# before the arithmetic starts.
WORK_BUDGET_BYTES = 1 << 30


def _check_work(what: str, work: int):
    """Refuse a stage whose estimated working set, in bytes, exceeds the
    work budget. Every guard of the package calls it, and it alone reads
    ``WORK_BUDGET_BYTES``, at call time."""
    if work > WORK_BUDGET_BYTES:
        raise ConstraintError(
            f"the {what} of this curve would need about {work / 2 ** 30:.3g} GiB, above the "
            f"{WORK_BUDGET_BYTES / 2 ** 30:.3g} GiB work budget")


# Padded multiply-adds of one product of exponent cubes, the product of the
# two factors' ``_kronecker_len``, up to which it is one int64 np.convolve
# (``_conv_direct``) rather than an FFT; both give the same integers. The
# FFT's fixed cost was reached near 1.2e5 multiply-adds on one axis, 1.5e5
# to 1.9e5 on two (m = 1, 2, 3) and 2e5 on three. Squarings, direct against
# FFT in us, min of 15 on a 2-vCPU VM: GF(5) ternary degree 12, 9.8e4
# multiply-adds, 62 against 90; degree 14, 1.8e5, 98 against 86; GF(31^2)
# degree 8, 1.9e5, 113 against 108; GF(7^3) degree 6, 1.8e5, 111 against
# 117; GF(101) binary degree 400, 1.6e5, 88 against 70.
_DIRECT_MAX_MULADDS = 150_000

# Float64 unit roundoff, and the constant of the FFT error bound (see the
# module docstring).
_EPS = 2.0 ** -53
_FFT_ERROR_CONSTANT = 16


class MonomialBasis:
    """All exponent tuples of a fixed total degree, graded-lex descending.

    ``exps`` is the read-only (len, nvars) array of them and ``flat_idx``
    their positions in the cube, the products' format; the tuple list
    ``monomials`` is built on first use only.

    The work budget covers the cube, 8 bytes a cell, and the build of the
    exponent table at 2*nvars+1 words a monomial. The build peaks near
    2*nvars: the tails beside ``exps``, or in the last step of
    ``_tail_exponents`` the index arrays beside the prefix rows."""

    __slots__ = ("nvars", "degree", "exps", "cube_shape", "flat_idx", "_monomials")

    def __init__(self, nvars: int, degree: int):
        if nvars < 1:
            raise ConstraintError("nvars must be >= 1")
        if degree < 0:
            raise ConstraintError("degree must be >= 0")
        self.nvars = nvars
        self.degree = degree
        self.cube_shape = (degree + 1,) * (nvars - 1)
        table_words = (2 * nvars + 1) * comb(degree + nvars - 1, nvars - 1)
        _check_work(f"degree-{degree} monomial basis in {nvars} variables",
                    8 * (prod(self.cube_shape) + table_words))
        tails = _tail_exponents(nvars - 1, degree)
        exps = np.hstack([degree - tails.sum(axis=1, keepdims=True), tails])
        exps.flags.writeable = False
        self.exps = exps
        self.flat_idx = tails @ (degree + 1) ** np.arange(nvars - 2, -1, -1, dtype=np.intp)
        self._monomials = None

    @property
    def monomials(self):
        if self._monomials is None:
            self._monomials = tuple(map(tuple, self.exps.tolist()))
        return self._monomials

    def __len__(self):
        return len(self.exps)

    def __repr__(self):
        return f"MonomialBasis(nvars={self.nvars}, degree={self.degree}, size={len(self)})"


def _tail_exponents(k: int, degree: int):
    """All k-tuples of sum <= degree, by ascending sum and graded-lex
    descending within a sum. The tuples of sum s are (s - |r|, r) for the
    rows r of the (k-1)-tuple array of sum <= s, which is a prefix of it."""
    rows = np.zeros((1, 0), np.intp)
    for j in range(k):
        # prefix length for each sum s: the number of j-tuples of sum <= s
        lens = np.array([comb(s + j, j) for s in range(degree + 1)], np.intp)
        sums = np.repeat(np.arange(degree + 1, dtype=np.intp), lens)
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        prefix = rows[np.arange(len(sums)) - starts]
        rows = np.hstack([(sums - prefix.sum(axis=1))[:, None], prefix])
    return rows


# A pipeline needs a few bases at a time (at most 20 over 300 benchmark
# curves); the bound keeps a long-lived process from holding every basis it
# ever built.
@lru_cache(maxsize=64)
def monomial_basis(nvars: int, degree: int) -> MonomialBasis:
    return MonomialBasis(nvars, degree)


@lru_cache(maxsize=None)
def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length pocketfft transforms without
    Bluestein's algorithm."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < n:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


def _fft_error_bound(xa, xb, n: int) -> float:
    """A-priori bound on the error of every entry of the FFT product, at
    length n, of two flat arrays whose nonzeros are those of xa and xb:
    Percival's bound with each array's norm bounded by sqrt(nonzeros) *
    max |entry|."""
    def norm(x):
        return np.sqrt(np.count_nonzero(x)) * float(np.abs(x).max())
    na = norm(xa)
    return na * (na if xb is xa else norm(xb)) * _EPS * _FFT_ERROR_CONSTANT * (np.log2(n) + 1)


def _kronecker_len(shape, layout) -> int:
    """Length of an array of the given shape laid out by ``_layout`` in the
    layout's shape and cut after its last entry: one more than the flat
    index of entry shape - 1 in the layout."""
    length, stride = 1, 1
    for s, n in zip(reversed(shape), reversed(layout)):
        length += (s - 1) * stride
        stride *= n
    return length


def _layout(x, layout):
    """The operand layout of both routes (module docstring): x, a cube's
    cells with their digit axis, placed at the origin of zeros
    of the layout's shape, flattened and cut after its last entry. Two
    layouts convolve to an array of length exactly prod(layout)."""
    out = np.zeros(layout, x.dtype)
    out[tuple(map(slice, x.shape))] = x
    return out.reshape(-1)[:_kronecker_len(x.shape, layout)]


def _conv_direct(field: GF, ca, cb, out_shape):
    """Unreduced product planes of two code cubes, digit axis last (2m-1),
    by one int64 ``np.convolve`` of their digits in [0, p)
    (``GF.digit_view``) laid out in the shape out_shape + (2m-1,). Squaring
    (cb is ca) lays out once."""
    m = field.m
    layout = out_shape + (2 * m - 1,)

    def flat(cube):
        return _layout(field.digit_view(cube).reshape(cube.shape + (m,)), layout)

    fa = flat(ca)
    return np.convolve(fa, fa if cb is ca else flat(cb)).reshape(layout)


def _conv_fft(field: GF, ca, cb, out_shape):
    """Unreduced product planes of two code cubes, digit axis last (2m-1),
    by one rfft/irfft of their balanced digits laid out in the shape
    out_shape + (2m-1,), or ``_conv_direct``'s where they fail the
    a-priori bound. Squaring (cb is ca) lays out and transforms once."""
    m, p = field.m, field.p

    def balanced(cube):
        digits = field.digit_view(cube).reshape(cube.shape + (m,))
        return digits - p * (digits > p // 2)

    da = balanced(ca)
    db = da if cb is ca else balanced(cb)
    layout = out_shape + (2 * m - 1,)
    n = _fast_len(prod(layout))
    if _fft_error_bound(da, db, n) >= 0.25:
        return _conv_direct(field, ca, cb, out_shape)
    spec = np.fft.rfft(_layout(da.astype(np.float64), layout), n)
    spec *= spec if db is da else np.fft.rfft(_layout(db.astype(np.float64), layout), n)
    out = np.fft.irfft(spec, n)[:prod(layout)]
    rounded = np.rint(out)
    out -= rounded
    if np.abs(out, out=out).max() >= 0.25:
        raise InternalInvariantError(
            "FFT convolution left a rounding residual of 1/4 or more inside its error bound")
    return rounded.astype(DTYPE).reshape(layout)


def _conv_field(field: GF, ca, cb):
    """Product of two dense exponent cubes of codes; pass the same array
    twice to square. Up to ``_DIRECT_MAX_MULADDS`` padded multiply-adds
    (the product of the two ``_kronecker_len`` in the direct route's
    layout) it is ``_conv_direct``, above it ``_conv_fft``. The term guard
    makes both exact (module docstring), so they give the same integers."""
    # an output entry sums at most one product per nonzero of the sparser cube
    terms = min(np.count_nonzero(ca), np.count_nonzero(cb))
    if terms > field.max_terms:
        raise ConstraintError(
            f"a product summing {terms} terms overflows int64 over {field!r}")
    if ca.ndim == 0:
        return field.mul(ca, cb)
    out_shape = tuple(a + b - 1 for a, b in zip(ca.shape, cb.shape))
    m = field.m
    layout = out_shape + (2 * m - 1,)
    conv = (_conv_direct if _kronecker_len(ca.shape + (m,), layout)
            * _kronecker_len(cb.shape + (m,), layout) <= _DIRECT_MAX_MULADDS else _conv_fft)
    return field.reduce_digit_planes(conv(field, ca, cb, out_shape))


def power_work_bytes(field: GF, nvars: int, degree: int) -> int:
    """Peak bytes of a product of exponent cubes ending in degree `degree`:
    16m-5 8-byte words per cell of the cube padded to 2^a 3^b 5^c on each
    axis. The FFT route's five live flat arrays (a layout, its spectrum,
    the inverse transform, the rounded floats and their integers) hold 2m-1
    words per output cell each, at most 15% more for the transform's
    padding, and the factors' balanced digits and their float copies m
    words per input cell each: 14m-5 words. Every product of a curve within
    the work budget passes the FFT's bound: with +-p/2 in every digit of
    every monomial of both factors it is at most about 0.02 (a plane cubic
    over GF(1151)). The direct route's two padded inputs and output
    hold 2m-1 words per output cell each, beside the factors' m digits and
    the fold's, so they stay within the bytes charged here too."""
    cells = _fast_len(degree + 1) ** (nvars - 1)
    m = field.m
    return 8 * cells * ((4 * m - 1) + 4 * (2 * m - 1) + 4 * m)


def linalg_work_bytes(field: GF, nvars: int, rows: int, cols: int) -> int:
    """Peak bytes of gathering a rows x cols coefficient matrix and reducing
    (or multiplying) it, in 8-byte words per entry: nvars exponent
    differences and one code for the gather, then the m digits of rref's
    digit view and at most 2m-1 words of one elimination step's products."""
    m = field.m
    return 8 * rows * cols * (nvars + 1 + m + 2 * m - 1)


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
        """Build from {exponent tuple: integer or FieldElem} pairs, each
        written at its basis position."""
        terms = dict(terms)
        if not terms:
            raise ConstraintError("from_terms needs at least one term; use zero()")
        if any(len(e) != nvars or min(e, default=0) < 0 for e in terms):
            raise ConstraintError(f"an exponent tuple needs {nvars} non-negative entries")
        degrees = {sum(e) for e in terms}
        if len(degrees) != 1:
            raise ConstraintError(f"terms are not homogeneous: degrees {sorted(degrees)}")
        out = cls.zero(field, nvars, degrees.pop())
        out.coeffs[_positions(out.basis, np.array(list(terms), np.intp))] = [
            c.code if isinstance(c, FieldElem) else field.from_int(c) for c in terms.values()]
        return out

    @classmethod
    def monomial(cls, field, nvars, exponents):
        return cls.from_terms(field, nvars, {tuple(exponents): 1})

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

    def __neg__(self):
        return GradedPoly(self.field, self.nvars, self.degree, self.field.neg(self.coeffs))

    def __eq__(self, other):
        return (isinstance(other, GradedPoly) and self.field == other.field
                and self.nvars == other.nvars and self.degree == other.degree
                and np.array_equal(self.coeffs, other.coeffs))

    def scale(self, c) -> "GradedPoly":
        code = c.code if isinstance(c, FieldElem) else self.field.from_int(c)
        return GradedPoly(self.field, self.nvars, self.degree,
                          self.field.mul(self.coeffs, code))

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
    ca = a._cube()
    cube = _conv_field(a.field, ca, ca if b is a else b._cube())
    return GradedPoly._from_cube(a.field, a.nvars, a.degree + b.degree, cube)


def poly_pow(a: GradedPoly, e: int) -> GradedPoly:
    """a^e on exponent cubes, e = k * 2^t with k odd: a^k by right-to-left
    square-and-multiply, then t squarings. So an even power ends in a
    squaring, which transforms once where a product of two different powers
    transforms twice, and every earlier product is at most half its size."""
    if e < 0:
        raise ConstraintError("negative exponent")
    if e == 0:
        return GradedPoly.from_terms(a.field, a.nvars, {(0,) * a.nvars: 1})
    t = (e & -e).bit_length() - 1
    result, base, k = None, a._cube(), e >> t
    while k:
        if k & 1:
            result = base if result is None else _conv_field(a.field, result, base)
        k >>= 1
        if k:
            base = _conv_field(a.field, base, base)
    for _ in range(t):
        result = _conv_field(a.field, result, result)
    return GradedPoly._from_cube(a.field, a.nvars, a.degree * e, result)


def partial_derivative(a: GradedPoly, j: int) -> GradedPoly:
    """Formal d/dX_j, homogeneous of degree deg(a)-1: the coefficient of X^e
    is (e_j + 1) * a_(e + unit_j), one gather."""
    if not 0 <= j < a.nvars:
        raise ConstraintError(f"variable index {j} out of range for {a.nvars} variables")
    if a.degree < 1:
        raise ConstraintError("cannot differentiate a form of degree 0")
    exps = exponent_array(a.nvars, a.degree - 1) + (np.arange(a.nvars) == j)
    coeffs = a.field.scale_int(exps[:, j], gather(a, exps))
    return GradedPoly(a.field, a.nvars, a.degree - 1, coeffs)


def coeff_of(a: GradedPoly, exponents) -> FieldElem:
    exponents = tuple(int(e) for e in exponents)
    if len(exponents) != a.nvars or sum(exponents) != a.degree:
        raise ConstraintError(
            f"exponent tuple {exponents} does not have degree {a.degree} in {a.nvars} variables")
    return FieldElem(a.field, int(gather(a, exponents)))


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
        return cls(field, nvars, degrees.pop(), GradedPoly.from_terms(field, nvars, shifted).coeffs)

    # a form's zero test, over the shifted basis
    is_zero = GradedPoly.is_zero

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
        if out.coeffs.size:
            exps = p * exponent_array(self.nvars, self.shifted_degree) + p - 1
            out.coeffs[_positions(out.basis, exps)] = self.field.frob(self.coeffs, 1)
        return out

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


def exponent_array(nvars: int, degree: int):
    """Read-only (len, nvars) array of the degree's monomials in basis order;
    empty for a negative degree."""
    if degree < 0:
        return np.zeros((0, nvars), np.intp)
    return monomial_basis(nvars, degree).exps


def _positions(basis: MonomialBasis, exps):
    """Position in the basis of each exponent tuple along the last axis of
    exps, the inverse of ``_tail_exponents``' order: with tail sums
    S_k = e_k + ... + e_(n-1), the sum over k = 1..n-1 of
    C(S_k + n-k-1, n-k), the count of (n-k)-tuples of sum below S_k. A
    tuple with a negative entry gets len(basis), the position of a zero
    appended to a coefficient vector. Every tuple must have the basis'
    degree."""
    exps = np.asarray(exps)
    n = basis.nvars
    pos, tail, valid = 0, 0, exps[..., 0] >= 0
    for k in range(n - 1, 0, -1):
        tail = tail + exps[..., k]
        valid &= exps[..., k] >= 0
        below = tail
        for i in range(1, n - k):
            below = below * (tail + i) // (i + 1)
        pos = pos + below
    return np.where(valid, pos, len(basis))


def gather(x, exps):
    """Coefficients of a GradedPoly, or of a TClass in shifted exponents, at
    an integer array of exponent tuples along the last axis; 0 wherever a
    tuple has a negative entry. Every tuple must have x's (shifted) degree.
    One take at the tuples' basis positions (``_positions``) from the
    coefficients, clipped, with the sentinel positions then zeroed; neither
    a cube nor a copy of the coefficients is built."""
    pos = _positions(x.basis, exps)
    out = np.asarray(x.coeffs.take(pos, mode="clip"))
    out[pos == len(x.coeffs)] = 0
    return out


def tmul_matrix(s: GradedPoly, src_degree: int):
    """Matrix of t -> s*t from the degree src_degree piece of T: one take
    from s's coefficients with a zero appended, at the positions of
    ``_tmul_plan``."""
    return np.append(s.coeffs, 0).take(_tmul_plan(s.nvars, s.degree, src_degree))


# A curve reads at most a few plans per form: the Q space and, for n >= 3,
# the relation space and the second operator's image check; the bound
# keeps a long-lived process from holding every plan it ever built.
@lru_cache(maxsize=16)
def _tmul_plan(nvars: int, degree: int, src_degree: int):
    """Read-only positions, in the coefficients of a degree-`degree` form
    with a zero appended, of its multiplication matrix from T_src_degree:
    entry (c, a) is s[a - c] in shifted exponents, the zero where a - c
    has a negative entry."""
    src = exponent_array(nvars, -src_degree - nvars)
    tgt = exponent_array(nvars, -src_degree - degree - nvars)
    plan = _positions(monomial_basis(nvars, degree), src[None] - tgt[:, None])
    plan.flags.writeable = False
    return plan


def t_multiply(s: GradedPoly, t: TClass) -> TClass:
    """Module action of the polynomial ring on T, products that hit a
    non-negative exponent discarded: tmul_matrix(s, t.degree) applied to t."""
    if s.field != t.field or s.nvars != t.nvars:
        raise ConstraintError("polynomial and T-class live over different rings")
    image = s.field.matmul(tmul_matrix(s, t.degree), t.coeffs[:, None])
    return TClass(s.field, s.nvars, s.degree + t.degree, image[:, 0])
