"""Linear algebra for sigma^k-twisted maps over GF(p^m).

A twisted map is x -> A . x^(sigma^k) in column-vector convention, where the
twist applies the Frobenius entrywise. Kernels, images, preimages and
symplectic perpendiculars of subspaces are the building blocks of both the
Hasse-Witt kernel extraction and the canonical-flag construction.

Every subspace is normalized to reduced row echelon form on creation, so
subspace equality is literal equality of basis matrices and all downstream
choices are deterministic. A greedy choice ("the vectors, in input order,
that raise the rank") is one echelon pass: the vectors that raise the rank
are exactly the pivot columns of the matrix whose columns they are.

``rref`` is one elimination loop on the *digit view* of the matrix: the code
array itself over GF(p), its digits (rows, cols, m) over GF(p^m). An entry
is reduced mod p only where it is read: the pivot column before the pivot
search, and the pivot row before it is scaled. A pivot step makes the same
few numpy calls for every m. The pivot is the first row of the reduced
column with a nonzero digit. The pivot row is scaled by one product with
the multiplication matrix of the pivot's inverse
(``GF.scale_by_inverse``), and the elimination subtracts the unreduced
products of the column and the scaled row (``GF.mul_outer``) from the
trailing columns, with no reduction; both products go through ``GF._bp``.
Headroom: a multiplication matrix has entries of at most
(p-1) + (m-1)*(p-1)^2, so a product of digits in [0, p) lies in
[0, term_bound], term_bound = m*(p-1)^2*(1 + (m-1)*(p-1)). The view starts
in [0, p), so after k steps every entry lies in [-k*term_bound, p). A full
reduction mod p every ``max_terms`` = INT64_MAX // term_bound steps keeps
it within int64. Between full reductions an entry only falls or is
overwritten from [0, p), so one at or above p can only have wrapped; each
full reduction and the end of the loop check for that.

``rank`` runs the same loop but stops at an echelon form (``rref``'s
private argument ``_reduced``): a pivot step updates only the rows below
the pivot. The pivot search reads only those rows, so the pivots are the
same, and the reduced form's back-substitution above each pivot is never
done. ``independent_subset``, which reads only the pivots, takes the same
pass. Each update subtracts the same integers as in the reduced form, on a
subset of the rows, so the headroom argument above holds unchanged.
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
        if i != r:
            D[[r, i]] = D[[i, r]]
            col[[r, i]] = col[[i, r]]
        row = field.scale_by_inverse(D[r, c:] % p, col[r]) % p
        top = 0 if _reduced else r + 1
        D[top:, c:] -= field.mul_outer(col[top:], row)
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
    M = np.asarray(M, DTYPE)
    ncols = M.shape[1]
    R, pivots = rref(field, M)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), DTYPE)
    basis[np.arange(len(free)), free] = 1
    basis[:, list(pivots)] = field.neg(R[:, free].T)
    return rref(field, basis)[0]


def solve_matrix(field: GF, A, B):
    """Solve A X = B exactly; returns the solution with free unknowns 0.

    Raises InternalInvariantError when the system is inconsistent: every
    call site solves a system that theory guarantees to be solvable.
    """
    A = np.asarray(A, DTYPE)
    B = np.asarray(B, DTYPE)
    vector = B.ndim == 1
    if vector:
        B = B[:, None]
    ncols = A.shape[1]
    R, pivots = rref(field, np.hstack([A, B]))
    if any(pc >= ncols for pc in pivots):
        raise InternalInvariantError("inconsistent linear system")
    X = np.zeros((ncols, B.shape[1]), DTYPE)
    X[list(pivots)] = R[:, ncols:]
    return X[:, 0] if vector else X


class Subspace:
    """Subspace of k^n held as a reduced row echelon basis."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field: GF, ambient: int, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def span(cls, field: GF, rows, ambient=None):
        rows = np.asarray(rows, DTYPE)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.size == 0 and ambient is not None:
            rows = rows.reshape(0, ambient)
        R, piv = rref(field, rows)
        return cls(field, rows.shape[1], R, piv)

    @classmethod
    def zero(cls, field: GF, ambient: int):
        return cls(field, ambient, np.zeros((0, ambient), DTYPE), ())

    @classmethod
    def full(cls, field: GF, ambient: int):
        return cls(field, ambient, np.eye(ambient, dtype=DTYPE), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def reduce(self, v):
        """Residual of a vector, or of each row of a matrix, after
        eliminating this subspace's pivot coordinates."""
        v = np.asarray(v, DTYPE)
        c = np.atleast_2d(v)[:, list(self.pivots)]
        return self.field.sub(v, self.field.matmul(c, self.rows).reshape(v.shape))

    def contains(self, v) -> bool:
        """Whether a vector, or every row of a matrix, lies in the span."""
        return not self.reduce(v).any()

    def coords_of(self, v):
        """Coordinates over the echelon basis of a vector, or of each row of
        a matrix; everything must lie in the span."""
        if not self.contains(v):
            raise InternalInvariantError("vector does not lie in the subspace")
        return np.asarray(v, DTYPE)[..., list(self.pivots)]

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
        """Apply to a column vector or to the columns of a matrix."""
        vecs = np.asarray(vecs, DTYPE)
        vector = vecs.ndim == 1
        if vector:
            vecs = vecs[:, None]
        out = self.field.matmul(self.matrix, self.field.frob(vecs, self.twist))
        return out[:, 0] if vector else out


def twisted_kernel(f: TwistedMap) -> Subspace:
    """{x : A x^(sigma^k) = 0}: the sigma^(-k)-twist of the null space of A."""
    linear = null_space(f.field, f.matrix)
    return Subspace.span(f.field, f.field.frob(linear, -f.twist), ambient=f.ncols)


def twisted_image(f: TwistedMap, W: Subspace) -> Subspace:
    if W.ambient != f.ncols:
        raise ConstraintError(
            f"subspace ambient {W.ambient} does not match map domain {f.ncols}")
    return Subspace.span(f.field, f.apply(W.rows.T).T, ambient=f.nrows)


def twisted_preimage(f: TwistedMap, W: Subspace) -> Subspace:
    if W.ambient != f.nrows:
        raise ConstraintError(
            f"subspace ambient {W.ambient} does not match map codomain {f.nrows}")
    # functionals annihilating W, then pull back through the untwisted matrix
    constraints = f.field.matmul(null_space(f.field, W.rows), f.matrix)
    untwisted = null_space(f.field, constraints)
    return Subspace.span(f.field, f.field.frob(untwisted, -f.twist), ambient=f.ncols)


def check_alternating(field: GF, gram) -> None:
    gram = np.asarray(gram, DTYPE)
    if gram.shape[0] != gram.shape[1]:
        raise ConstraintError("gram matrix must be square")
    if not np.array_equal(gram, field.neg(gram.T)) or np.diagonal(gram).any():
        raise ConstraintError("gram matrix is not alternating")
    if rank(field, gram) != gram.shape[0]:
        raise ConstraintError("gram matrix is singular")


def symplectic_perp(W: Subspace, gram) -> Subspace:
    """{x : b(x, w) = 0 for all w in W} for b(x, y) = x^T gram y."""
    field = W.field
    check_alternating(field, gram)
    gram = np.asarray(gram, DTYPE)
    if W.ambient != gram.shape[0]:
        raise ConstraintError("subspace ambient does not match gram size")
    constraints = field.matmul(W.rows, gram.T)
    return Subspace.span(field, null_space(field, constraints), ambient=W.ambient)


def independent_subset(field: GF, vectors):
    """The vectors, in input order, that raise the rank: the pivot columns
    of the matrix whose columns they are.

    Returns (kept indices, kept vectors as rows, Subspace spanned).
    """
    vectors = np.asarray(vectors, DTYPE)
    if vectors.ndim == 1:
        vectors = vectors[None, :]
    if not vectors.size:
        raise ConstraintError("independent_subset needs an ambient dimension")
    kept = list(rref(field, vectors.T, _reduced=False)[1])
    return kept, vectors[kept], Subspace.span(field, vectors[kept])


def standard_gram(field: GF, g: int):
    """Block form (0 J; -J 0) with J the g x g anti-diagonal of ones."""
    J = np.eye(g, dtype=DTYPE)[::-1]
    gram = np.zeros((2 * g, 2 * g), DTYPE)
    gram[:g, g:] = J
    gram[g:, :g] = field.neg(J)
    return gram
