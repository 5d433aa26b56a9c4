"""Exact arithmetic in GF(p^m) with Frobenius twists.

Elements are stored as integer *codes* in ``[0, p^m)``: the base-p digits of
a code are the coefficients (ascending degree) of the element written in the
power basis of the modulus polynomial. All bulk operations act on numpy
int64 arrays of codes, which keeps linear algebra and polynomial convolution
exact and fast; ``FieldElem`` is a thin scalar wrapper for convenience.

Arrays of codes are treated as immutable: operations always return fresh
arrays.

For m > 1 one matrix defines the field: ``_red``, whose row t holds the
digits of x^(m+t) modulo the modulus. Products reduce through it, and the
rest derives from products: the Frobenius sigma has the digits of x^(p*j)
as column j. Inverses come from a table for q <= 2^16; otherwise
``inv_scalar`` takes the norm identity a^(-1) = N(a)^(-1) * sigma(a) ...
sigma^(m-1)(a), with N(a) in GF(p) inverted by Python's ``pow``. A monic
modulus is accepted iff sigma^m = 1 (so the ring is reduced and its factor
degrees divide m) and sigma fixes only a line (so there is one factor):
Berlekamp's test, whose rank is taken in the candidate ring itself. The
default modulus is the first accepted one in code order; a candidate with
a root in GF(p) is skipped before the test.

The product rule lives in ``mul_digits``, the unreduced product of two
*digit views* (the codes themselves for m = 1, their digits otherwise): the
2m-1 product planes folded through _red, with no reduction mod p. On digits
in [0, p) every entry it returns lies in [0, term_bound], term_bound =
m*(1 + (m-1)*(p-1))*(p-1)^2. ``mul`` reduces it to codes, and row reduction
subtracts it unreduced. For scaling by one element and for outer products
the rule is one table, ``_bp``: _bp[i, j] holds the digits of x^(i+j)
folded through _red, the integers mul_digits gives for basis elements.
Scaling by one element is a product with its multiplication matrix, its
digits @ _bp (``scale_by_inverse``), and an outer product of a and b is
one product of a with the basis times b, b @ _bp (``mul_outer``).
Supported: p < 2^31, with term_bound within int64; a sum of more than
max_terms = INT64_MAX // term_bound products raises ``ConstraintError``.

Every matrix product of the arithmetic goes through one kernel,
``exact_matmul``: the digit products of ``matmul``, and for m > 1 the
products with _bp of ``mul_outer`` and ``scale_by_inverse`` (for m = 1
these sum nothing and stay elementwise). It forms the product in float64
BLAS where that is exact, and in int64 otherwise. An integer sum whose
partial sums all stay below 2^53 is exact in float64 in any order of
summation, so a GEMM that sums the products, as OpenBLAS and the reference
BLAS do, returns the int64 product exactly when
terms * max|a| * max|b| < 2^53. The bound is a priori: each factor's
largest entry is the one its contract allows, p - 1 for digits and
m*(p-1)^2 for a product of digits with _bp. Where it fails, as over
GF(2^31-1), the product is numpy's int64 ``a @ b``, exact because every sum
it forms stays within int64: ``matmul`` refuses more than max_terms terms,
and the products of ``mul_outer`` and ``scale_by_inverse`` are
mul_digits' integers, non-negative sums of at most term_bound. Every field
of the benchmark's workloads takes the float64 product.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import ConstraintError

DTYPE = np.int64
_INT64_MAX = int(np.iinfo(DTYPE).max)

# A sum of integers whose partial sums all stay below 2^53 in absolute value
# is exact in float64, in any order of summation.
_FLOAT_EXACT = 1 << 53


def is_prime(n: int) -> bool:
    """Primality by trial division up to the square root, for n < 2^31: the
    range of every p that ``GF`` accepts."""
    if n >= 1 << 31:
        raise ConstraintError(f"{n} is too large for primality by trial division")
    return n >= 2 and all(n % b for b in range(2, isqrt(n) + 1))


def exact_matmul(a, b, amax: int, bmax: int):
    """a @ b for int64 matrices with entries of absolute value at most amax
    and bmax: the float64 BLAS product where terms * amax * bmax < 2^53,
    which makes it exact, and the int64 product otherwise (module
    docstring)."""
    if a.shape[-1] * amax * bmax < _FLOAT_EXACT:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(DTYPE)
    return a @ b


class GF:
    """The field GF(p^m), with vectorized arithmetic on code arrays."""

    def __init__(self, p: int, m: int = 1, modulus=None):
        if p >= 1 << 31:
            raise ConstraintError(f"p = {p} is too large: int64 arithmetic needs p < 2^31")
        if not is_prime(p):
            raise ConstraintError(f"p = {p} is not prime")
        if m < 1:
            raise ConstraintError(f"extension degree m = {m} must be >= 1")
        # q = p^m >= 2^m: refused before any power is formed, which for a
        # huge m would take minutes
        if m > 62:
            raise ConstraintError(f"GF({p}^{m}) is too large for int64 digit planes")
        p, m = int(p), int(m)
        self.p, self.m, self.q = p, m, p ** m
        # Largest entry of one unreduced product of digits in [0, p): a digit
        # plane gathers m products, and the m-1 high planes pass through _red.
        self.term_bound = m * (1 + (m - 1) * (p - 1)) * (p - 1) ** 2
        # Largest entry of a product of m digits in [0, p) with _bp: of the
        # products x^i * b that mul_outer takes, and of a multiplication matrix.
        self._bp_max = m * (p - 1) ** 2
        # Most terms one sum of products may hold.
        self.max_terms = _INT64_MAX // self.term_bound
        if self.q > _INT64_MAX or self.max_terms < 1:
            raise ConstraintError(f"GF({p}^{m}) is too large for int64 digit planes")
        self._ppow = np.array([p ** i for i in range(m)], DTYPE)
        self.modulus, self._inv_table = None, None
        if m == 1 and modulus is not None:
            raise ConstraintError(f"a modulus needs extension degree m > 1 (got m = 1 over Z/{p})")
        if m > 1:
            if modulus is None:
                candidates = (tuple((code // p ** i) % p for i in range(m)) + (1,)
                              for code in range(self.q))
            else:
                modulus = tuple(int(c) % p for c in modulus)
                if len(modulus) != m + 1 or modulus[-1] != 1:
                    raise ConstraintError(
                        f"modulus must be monic of degree {m} "
                        f"(got coefficient list of length {len(modulus)})")
                candidates = [modulus]
            if not self._install_first_irreducible(candidates):
                raise ConstraintError(f"modulus {modulus} is reducible over Z/{p}")
        if self.q <= 1 << 16:
            self._inv_table = self.pow_int(np.arange(self.q, dtype=DTYPE), self.q - 2)

    def _install_first_irreducible(self, candidates) -> bool:
        """Make the first irreducible monic candidate the modulus, with its
        _red, _bp and Frobenius matrices; False if no candidate is
        irreducible. The rank of sigma - 1 is taken in the candidate's own
        ring: row reduction of a matrix over GF(p) never leaves GF(p), so
        it gives the rank over GF(p) without building that field."""
        from .semilinear import rank
        p, m = self.p, self.m
        eye = np.eye(m, dtype=DTYPE)
        xs, high = np.arange(p, dtype=DTYPE), None
        for modulus in candidates:
            # A root in GF(p) makes a candidate reducible. The candidate is
            # g(x) + c_0 with g = x^m + ... + c_1 x, so it has one iff -c_0
            # is a value of g; those values serve every candidate sharing g.
            if modulus[1:] != high:
                high, g = modulus[1:], np.zeros(p, DTYPE)
                for c in reversed(high):
                    g = (g * xs + c) % p
                values = np.zeros(p, bool)
                values[g * xs % p] = True
            if values[-modulus[0] % p]:
                continue
            # x^m = -(c_0 + ... + c_(m-1) x^(m-1)), then x^(m+t+1) = x * x^(m+t)
            rows = [np.array([-c % p for c in modulus[:m]], DTYPE)]
            for _ in range(m - 2):
                prev = rows[-1]
                rows.append((np.concatenate(([0], prev[:-1])) + prev[-1] * rows[0]) % p)
            self.modulus, self._red = modulus, np.array(rows, DTYPE)
            # _bp[i, j]: the digits of x^(i+j), folded through _red
            self._bp = self._fold(np.eye(2 * m - 1, dtype=DTYPE)[np.add.outer(range(m), range(m))])
            # the code of x^j is p^j
            sigma = self.decode(self.pow_int(self._ppow, p)).T
            powers = [eye]
            for _ in range(m):
                powers.append(sigma @ powers[-1] % p)
            self._frob_mats = powers[:m]
            if np.array_equal(powers[m], eye) and rank(self, (sigma - eye) % p) == m - 1:
                return True
        return False

    # -- element codecs ----------------------------------------------------

    def decode(self, codes):
        """Code array -> digit array with a trailing axis of length m."""
        codes = np.asarray(codes, DTYPE)
        out = np.empty(codes.shape + (self.m,), DTYPE)
        c = codes
        for i in range(self.m):
            out[..., i] = c % self.p
            c = c // self.p
        return out

    def encode(self, digits):
        digits = np.asarray(digits, DTYPE) % self.p
        return digits @ self._ppow

    def from_int(self, c):
        """Image of an integer under the canonical map Z -> GF(p^m)."""
        return int(c) % self.p

    # -- digit views ---------------------------------------------------------

    def digit_view(self, codes):
        """The codes themselves for m = 1; their digits, a trailing axis of
        length m, otherwise. Entries of a digit view may leave [0, p)."""
        if self.m == 1:
            return np.asarray(codes, DTYPE)
        return self.decode(codes)

    def from_digit_view(self, digits):
        """Codes of a digit view, reducing its entries mod p."""
        if self.m == 1:
            return np.asarray(digits, DTYPE) % self.p
        return self.encode(digits)

    def mul_digits(self, a, b):
        """Unreduced product of two digit views, broadcast against each
        other. For entries in [0, p) each result entry lies in
        [0, term_bound]."""
        if self.m == 1:
            return a * b
        m = self.m
        planes = np.zeros(np.broadcast(a, b).shape[:-1] + (2 * m - 1,), DTYPE)
        for i in range(m):
            planes[..., i:i + m] += a[..., i:i + 1] * b
        return self._fold(planes)

    def mul_outer(self, a, b):
        """Unreduced products of every element of digit view a with every
        element of b, both in [0, p), shape (len(a), len(b)) plus the digit
        axis: the same integers as mul_digits(a[:, None], b[None]). Over
        GF(p^m) the product is linear in a's digits, so it is one matrix
        product of a with the products x^i * b."""
        if self.m == 1:
            return np.multiply.outer(a, b)
        m = self.m
        products = (b @ self._bp).reshape(m, -1)
        return exact_matmul(a, products, self.p - 1, self._bp_max).reshape(len(a), len(b), m)

    def scale_by_inverse(self, a, d):
        """Unreduced product of digit view a with the inverse of the nonzero
        element of digit view d, both in [0, p): the integers of
        mul_digits(a, inverse), as one product with the inverse's
        multiplication matrix, whose entries are at most
        (p-1) + (m-1)*(p-1)^2."""
        if self.m == 1:
            return a * self.inv_scalar(d)
        inverse = self.inv_scalar(d @ self._ppow) // self._ppow % self.p
        return exact_matmul(a, inverse @ self._bp, self.p - 1, self._bp_max)

    def _fold(self, planes):
        """Digit planes -> digits, through _red: the one reduction modulo
        the modulus. Nothing is reduced mod p."""
        m = self.m
        return planes[..., :m] + planes[..., m:] @ self._red

    # -- arithmetic on code arrays -----------------------------------------

    def add(self, a, b):
        return self.from_digit_view(self.digit_view(a) + self.digit_view(b))

    def sub(self, a, b):
        return self.from_digit_view(self.digit_view(a) - self.digit_view(b))

    def neg(self, a):
        return self.from_digit_view(-self.digit_view(a))

    def mul(self, a, b):
        return self.from_digit_view(self.mul_digits(self.digit_view(a), self.digit_view(b)))

    def scale_int(self, c, a):
        """Multiply codes by an integer scalar or array (image of c mod p)."""
        a = np.asarray(a, DTYPE)
        c = np.asarray(c, DTYPE) % self.p
        if self.m == 1:
            return (a * c) % self.p
        return self.encode(self.decode(a) * c[..., None])

    def reduce_digit_planes(self, planes):
        """Collapse integer digit planes (trailing axis of length 2m-1,
        indexing powers of the field generator) back to element codes."""
        planes = np.asarray(planes, DTYPE)
        if self.m == 1:
            return planes[..., 0] % self.p
        return self.encode(self._fold(planes))

    def inv_scalar(self, code):
        """Inverse of a single element: a table lookup, or the norm identity
        a^(-1) = N(a)^(-1) * sigma(a) ... sigma^(m-1)(a), where the norm
        N(a) = a * sigma(a) ... sigma^(m-1)(a) lies in GF(p)."""
        code = int(code)
        if code == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self._inv_table is not None:
            return int(self._inv_table[code])
        if self.m == 1:
            return pow(code, -1, self.p)
        conj = self.frob(code, 1)
        for k in range(2, self.m):
            conj = self.mul(conj, self.frob(code, k))
        return int(self.scale_int(pow(int(self.mul(code, conj)), -1, self.p), conj))

    def inv(self, a):
        a = np.asarray(a, DTYPE)
        if np.any(a == 0):
            raise ZeroDivisionError("0 has no inverse")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow_int(a, self.q - 2)

    def pow_int(self, a, e: int):
        if e < 0:
            return self.pow_int(self.inv(np.asarray(a, DTYPE)), -e)
        result = np.broadcast_to(np.asarray(1, DTYPE), np.shape(a)).copy()
        base = np.asarray(a, DTYPE)
        while e > 0:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frob(self, a, k: int = 1):
        """Entrywise x -> x^(p^k); k may be negative (inverse twist)."""
        a = np.asarray(a, DTYPE)
        k %= self.m
        if k == 0:
            return a.copy()
        digits = self.decode(a)
        return self.encode(digits @ self._frob_mats[k].T)

    def matmul(self, A, B):
        A = np.asarray(A, DTYPE)
        B = np.asarray(B, DTYPE)
        if A.shape[1] > self.max_terms:
            raise ConstraintError(
                f"a product summing {A.shape[1]} terms overflows int64 over {self!r}")
        if self.m == 1:
            return exact_matmul(A, B, self.p - 1, self.p - 1) % self.p
        # digit i of A times every digit of B lands on planes i .. i+m-1
        m, (rows, k), cols = self.m, A.shape, B.shape[1]
        da, db = self.decode(A), self.decode(B).reshape(k, cols * m)
        planes = np.zeros((rows, cols, 2 * m - 1), DTYPE)
        for i in range(m):
            planes[..., i:i + m] += exact_matmul(
                da[..., i], db, self.p - 1, self.p - 1).reshape(rows, cols, m)
        return self.reduce_digit_planes(planes)

    def random_elements(self, rng, shape):
        return rng.integers(0, self.q, size=shape, dtype=DTYPE)

    # -- formatting ----------------------------------------------------------

    def format_element(self, code) -> str:
        if self.m == 1:
            return str(int(code))
        return ",".join(str(int(d)) for d in self.decode(np.asarray(code, DTYPE)))

    def parse_element(self, text: str) -> int:
        # reduced first: an entry beyond int64 would not fit the digit array
        parts = [int(t) % self.p for t in text.split(",")]
        if self.m == 1:
            if len(parts) != 1:
                raise ConstraintError(f"expected a single integer, got {text!r}")
            return parts[0]
        if len(parts) > self.m:
            raise ConstraintError(f"element {text!r} has more than m={self.m} coefficients")
        parts = parts + [0] * (self.m - len(parts))
        return int(self.encode(np.array(parts, DTYPE)))

    def __call__(self, value) -> "FieldElem":
        if isinstance(value, FieldElem):
            if value.field != self:
                raise ConstraintError("element belongs to a different field")
            return value
        return FieldElem(self, self.from_int(value))

    def element_from_code(self, code: int) -> "FieldElem":
        return FieldElem(self, int(code) % self.q)

    def __eq__(self, other):
        return (isinstance(other, GF) and self.p == other.p
                and self.m == other.m and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m}; modulus={list(self.modulus)})"


def field_new(p: int, m: int = 1, modulus=None) -> GF:
    """Construct GF(p^m). With m > 1 and no modulus given, a deterministic
    search picks the first irreducible monic polynomial of degree m."""
    return GF(p, m, modulus)


class FieldElem:
    """Scalar wrapper around a field code, with operator sugar."""

    __slots__ = ("field", "code")

    def __init__(self, field: GF, code: int):
        self.field = field
        self.code = int(code)

    @property
    def coeffs(self):
        return tuple(int(d) for d in self.field.decode(np.asarray(self.code, DTYPE)))

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise ConstraintError("field mismatch")
            return other.code
        return self.field.from_int(other)

    def __add__(self, other):
        return FieldElem(self.field, int(self.field.add(self.code, self._coerce(other))))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElem(self.field, int(self.field.sub(self.code, self._coerce(other))))

    def __rsub__(self, other):
        return FieldElem(self.field, int(self.field.sub(self._coerce(other), self.code)))

    def __mul__(self, other):
        return FieldElem(self.field, int(self.field.mul(self.code, self._coerce(other))))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElem(self.field, int(self.field.neg(self.code)))

    def __truediv__(self, other):
        return self * FieldElem(self.field, self.field.inv_scalar(self._coerce(other)))

    def __pow__(self, e):
        return FieldElem(self.field, int(self.field.pow_int(self.code, e)))

    def inverse(self):
        return FieldElem(self.field, self.field.inv_scalar(self.code))

    def frobenius(self, k: int = 1) -> "FieldElem":
        """x -> x^(p^k), with negative k meaning the inverse twist."""
        return FieldElem(self.field, int(self.field.frob(self.code, k)))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.field == other.field and self.code == other.code
        if isinstance(other, int):
            return self.code == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.code))

    def __bool__(self):
        return self.code != 0

    def __int__(self):
        return self.code

    def __repr__(self):
        return f"FieldElem({self.field!r}, {self.field.format_element(self.code)})"


def frobenius(x: FieldElem, k: int = 1) -> FieldElem:
    """x^(p^k) in the element's field; frobenius(x, -1) is the inverse twist."""
    return x.frobenius(k)
