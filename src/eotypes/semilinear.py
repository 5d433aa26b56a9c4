"""Linear algebra for sigma^k-twisted maps over GF(p^m).

A twisted map is x -> A . x^(sigma^k) in column-vector convention, where the
twist applies the Frobenius entrywise. Kernels, images, preimages and
symplectic perpendiculars of subspaces are the building blocks of both the
Hasse-Witt kernel extraction and the canonical-flag construction.

Every subspace is normalized to reduced row echelon form on creation, so
subspace equality is literal equality of basis matrices and all downstream
choices are deterministic. Each subspace is reduced once: ``null_space``
reads a reduced kernel basis off one reduction, ``Subspace.kernel`` keeps its
pivots, and ``Subspace.twist`` keeps them too, as sigma fixes 0 and 1.

``rref`` is one elimination loop on the *digit view* of the matrix: the code
array itself over GF(p), its digits (rows, cols, m) over GF(p^m). An entry
is reduced mod p only where it is read: the pivot column before the pivot
search, and the pivot row before it is scaled. A pivot step makes the same
few numpy calls for every m. At step r the pivot is the first row i >= r of
the reduced column c with a nonzero digit. Row i is scaled where it lies, by
one product with the multiplication matrix of the pivot's inverse
(``GF.scale_by_inverse``), and the elimination subtracts the unreduced
products of the column and the scaled row (``GF.mul_outer``) from the
trailing columns, with no reduction; both products go through ``GF._bp``.
Then row r's trailing segment is copied to row i and the scaled row to row
r: a row swap, as rows r and below are 0 mod p left of column c, and row r,
0 in column c if i != r, is left alone by the update. Headroom: a product of
digits in [0, p) lies in [0, term_bound] (``GF.mul_digits``), so after k
steps from [0, p) every entry lies in [-k*term_bound, p), and a full
reduction mod p every ``max_terms`` = INT64_MAX // term_bound steps keeps it
within int64. Between those an entry only falls, is overwritten from [0, p)
or copied from an entry of the same run, so one at or above p can only have
wrapped; each full reduction and the end of the loop check for that.

``rank`` runs the same loop but stops at an echelon form (``rref``'s private
argument ``_reduced``): a pivot step updates only the rows below row i, as
rows r to i-1 are 0 in column c. The pivot search reads only those rows, so
the pivots are the same, and no back-substitution is done. Each update
subtracts the same integers as in the reduced form, on fewer rows, so the
headroom argument holds unchanged.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstraintError, InternalInvariantError
from .gf import DTYPE, GF


def rref(field: GF, M, _reduced=True):
    """Reduced row echelon form. Returns (R, pivot column tuple). With
    _reduced false, each pivot step updates only the rows below the pivot:
    R is then an echelon form with the same pivots."""
    M = np.asarray(M, DTYPE)
    if M.ndim != 2:
        raise ConstraintError("rref expects a matrix")
    p, nrows = field.p, M.shape[0]
    D = field.digit_view(M) % p
    pivots, steps = [], 0
    for c in range(M.shape[1]):
        r = len(pivots)
        if r == nrows:
            break
        col = D[:, c] % p
        nz = col[r:].nonzero()[0]
        if nz.size == 0:
            continue
        if steps == field.max_terms:
            _check_headroom(D, p)
            D %= p
            steps = 0
        i = r + int(nz[0])
        row = field.scale_by_inverse(D[i, c:] % p, col[i]) % p
        top = 0 if _reduced else i + 1
        D[top:, c:] -= field.mul_outer(col[top:], row)
        if i != r:
            D[i, c:] = D[r, c:]
        D[r, c:] = row
        pivots.append(c)
        steps += 1
    _check_headroom(D, p)
    return field.from_digit_view(D[:len(pivots)]), tuple(pivots)


def _check_headroom(D, p):
    """Raise if an entry of the digit view has wrapped past the bottom of
    int64: no other way leads to an entry at or above p."""
    if D.size and D.max() >= p:
        raise InternalInvariantError("row reduction exceeded its int64 headroom")


def rank(field: GF, M) -> int:
    return len(rref(field, M, _reduced=False)[1])


def null_space(field: GF, M):
    """RREF basis (rows) of {x : M x = 0}."""
    return _kernel(field, M)[0]


def _kernel(field: GF, M):
    """(rows, pivots) of the RREF basis of {x : M x = 0} from one reduction
    of M with reversed columns: a free column's basis vector is 1 there, 0 to
    its left and at every other free column, so the free columns are pivots."""
    M = np.asarray(M, DTYPE)
    ncols = M.shape[1]
    R, pivots = rref(field, M[:, ::-1])
    R, pivots = R[:, ::-1], [ncols - 1 - c for c in pivots]
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), DTYPE)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = field.neg(R[:, free].T)
    return basis, tuple(free)


def solve_matrix(field: GF, A, B):
    """Solve A X = B exactly for a matrix B; returns the solution with free
    unknowns 0.

    Raises InternalInvariantError when the system is inconsistent: every
    call site solves a system that theory guarantees to be solvable.
    """
    A = np.asarray(A, DTYPE)
    B = np.asarray(B, DTYPE)
    ncols = A.shape[1]
    R, pivots = rref(field, np.hstack([A, B]))
    if any(pc >= ncols for pc in pivots):
        raise InternalInvariantError("inconsistent linear system")
    X = np.zeros((ncols, B.shape[1]), DTYPE)
    X[list(pivots)] = R[:, ncols:]
    return X


class Subspace:
    """Subspace of k^n held as a reduced row echelon basis."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field: GF, ambient: int, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def span(cls, field: GF, rows):
        """The span of the rows of a matrix; a zero subspace comes from a
        matrix with no rows and as many columns as the ambient dimension."""
        rows = np.asarray(rows, DTYPE)
        R, piv = rref(field, rows)
        return cls(field, rows.shape[1], R, piv)

    @classmethod
    def kernel(cls, field: GF, M):
        """{x : M x = 0}, with the pivots null_space's reduction gives."""
        R, pivots = _kernel(field, M)
        return cls(field, R.shape[1], R, pivots)

    @classmethod
    def zero(cls, field: GF, ambient: int):
        return cls(field, ambient, np.zeros((0, ambient), DTYPE), ())

    @classmethod
    def full(cls, field: GF, ambient: int):
        return cls(field, ambient, np.eye(ambient, dtype=DTYPE), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def twist(self, k: int) -> "Subspace":
        """sigma^k entrywise: sigma fixes 0 and 1, so the pivots stay."""
        return Subspace(self.field, self.ambient, self.field.frob(self.rows, k), self.pivots)

    def reduce(self, v):
        """Residual of each row of a matrix after eliminating this
        subspace's pivot coordinates."""
        v = np.asarray(v, DTYPE)
        return self.field.sub(v, self.field.matmul(v[:, list(self.pivots)], self.rows))

    def contains(self, v) -> bool:
        """Whether every row of a matrix lies in the span."""
        return not self.reduce(v).any()

    def coords_of(self, v):
        """Coordinates over the echelon basis of each row of a matrix; every
        row must lie in the span."""
        if not self.contains(v):
            raise InternalInvariantError("vector does not lie in the subspace")
        return np.asarray(v, DTYPE)[:, list(self.pivots)]

    def is_subspace_of(self, other: "Subspace") -> bool:
        return other.contains(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient
                and np.array_equal(self.rows, other.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


class TwistedMap:
    """x -> A . x^(sigma^k) on column vectors."""

    __slots__ = ("field", "matrix", "twist")

    def __init__(self, field: GF, matrix, twist: int = 0):
        matrix = np.asarray(matrix, DTYPE)
        if matrix.ndim != 2:
            raise ConstraintError("twisted map needs a matrix")
        self.field = field
        self.matrix = matrix
        self.twist = twist

    @property
    def nrows(self):
        return self.matrix.shape[0]

    @property
    def ncols(self):
        return self.matrix.shape[1]

    def apply(self, vecs):
        """Apply to the columns of a matrix."""
        return self.field.matmul(self.matrix, self.field.frob(vecs, self.twist))


def twisted_kernel(f: TwistedMap) -> Subspace:
    """{x : A x^(sigma^k) = 0}: the sigma^(-k)-twist of the null space of A."""
    return Subspace.kernel(f.field, f.matrix).twist(-f.twist)


def twisted_image(f: TwistedMap, W: Subspace) -> Subspace:
    if W.ambient != f.ncols:
        raise ConstraintError(
            f"subspace ambient {W.ambient} does not match map domain {f.ncols}")
    return Subspace.span(f.field, f.apply(W.rows.T).T)


def twisted_preimage(f: TwistedMap, W: Subspace) -> Subspace:
    if W.ambient != f.nrows:
        raise ConstraintError(
            f"subspace ambient {W.ambient} does not match map codomain {f.nrows}")
    # functionals annihilating W, then pull back through the untwisted matrix
    constraints = f.field.matmul(null_space(f.field, W.rows), f.matrix)
    return Subspace.kernel(f.field, constraints).twist(-f.twist)


def symplectic_perp(W: Subspace) -> Subspace:
    """{x : b(x, w) = 0 for all w in W} for the standard form
    b(x, y) = x^T G y, G = standard_gram: the kernel of W G^T."""
    if W.ambient % 2:
        raise ConstraintError("the standard form needs an even ambient dimension")
    gram = standard_gram(W.field, W.ambient // 2)
    return Subspace.kernel(W.field, W.field.matmul(W.rows, gram.T))


def standard_gram(field: GF, g: int):
    """The one form: (0 J; -J 0), J the g x g anti-diagonal of ones."""
    J = np.eye(g, dtype=DTYPE)[::-1]
    gram = np.zeros((2 * g, 2 * g), DTYPE)
    gram[:g, g:] = J
    gram[g:, :g] = field.neg(J)
    return gram
