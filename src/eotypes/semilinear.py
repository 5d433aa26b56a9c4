"""Linear algebra for sigma^k-twisted maps over GF(p^m).

A twisted map is x -> A . x^(sigma^k) in column-vector convention, where the
twist applies the Frobenius entrywise. Kernels, images, preimages and
symplectic perpendiculars of subspaces are the building blocks of both the
Hasse-Witt kernel extraction and the canonical-flag construction.

Every subspace is normalized to reduced row echelon form on creation, so
subspace equality is literal equality of basis matrices and all downstream
choices ("maximal independent subset in input order") are deterministic.

``rref`` is one elimination loop on the *digit view* of the matrix: the code
array itself over GF(p), its digits (rows, cols, m) over GF(p^m). An entry
is reduced mod p only where it is read: the pivot column before the pivot
search, and the pivot row before it is scaled by the pivot's inverse. The
elimination subtracts the unreduced products of that column and row
(``GF.mul_outer``) from the trailing columns, with no reduction. Headroom:
the view starts in [0, p), and a step subtracts products of digits in
[0, p), each in [0, term_bound], so after k steps every entry lies in
[-k*term_bound, p). A full reduction mod p every ``max_terms`` =
INT64_MAX // term_bound steps keeps it within int64. Between full
reductions an entry only falls or is overwritten from [0, p), so one at or
above p can only have wrapped; each full reduction and the end of the loop
check for that.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstraintError, InternalInvariantError
from .gf import DTYPE, GF


def rref(field: GF, M):
    """Reduced row echelon form. Returns (R, pivot column tuple)."""
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
        codes = field.from_digit_view(col[r:])
        nz = codes.nonzero()[0]
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
        inv = field.digit_view(field.inv_scalar(codes[nz[0]]))
        row = field.mul_digits(D[r, c:] % p, inv) % p
        D[:, c:] -= field.mul_outer(col, row)
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
    return rref(field, M)[0].shape[0]


def null_space(field: GF, M):
    """RREF basis (rows) of {x : M x = 0}."""
    M = np.asarray(M, DTYPE)
    ncols = M.shape[1]
    R, pivots = rref(field, M)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = np.zeros((len(free), ncols), DTYPE)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = field.neg(R[i, fc])
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
    for i, pc in enumerate(pivots):
        X[pc] = R[i, ncols:]
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
        """Residual of v after eliminating this subspace's pivot coordinates."""
        v = np.asarray(v, DTYPE)
        if self.dim == 0:
            return v.copy()
        c = v[list(self.pivots)]
        return self.field.sub(v, self.field.matmul(c[None, :], self.rows)[0])

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

    def coords_of(self, v):
        """Coordinates of v over the echelon basis; v must lie in the span."""
        v = np.asarray(v, DTYPE)
        c = v[list(self.pivots)]
        if self.dim:
            recon = self.field.matmul(c[None, :], self.rows)[0]
        else:
            recon = np.zeros(self.ambient, DTYPE)
        if not np.array_equal(recon, v):
            raise InternalInvariantError("vector does not lie in the subspace")
        return c

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(row) for row in self.rows)

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
    if W.dim == 0:
        return Subspace.zero(f.field, f.nrows)
    return Subspace.span(f.field, f.apply(W.rows.T).T, ambient=f.nrows)


def twisted_preimage(f: TwistedMap, W: Subspace) -> Subspace:
    if W.ambient != f.nrows:
        raise ConstraintError(
            f"subspace ambient {W.ambient} does not match map codomain {f.nrows}")
    # functionals annihilating W, then pull back through the untwisted matrix
    annihilator = null_space(f.field, W.rows) if W.dim else np.eye(f.nrows, dtype=DTYPE)
    constraints = f.field.matmul(annihilator, f.matrix)
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
    if W.dim == 0:
        return Subspace.full(field, W.ambient)
    constraints = field.matmul(W.rows, gram.T)
    return Subspace.span(field, null_space(field, constraints), ambient=W.ambient)


def independent_subset(field: GF, vectors):
    """Scan vectors in input order, keeping those that raise the rank.

    Returns (kept indices, kept vectors as rows, Subspace spanned).
    """
    vectors = np.asarray(vectors, DTYPE)
    if vectors.ndim == 1:
        vectors = vectors[None, :]
    kept = []
    current = Subspace.zero(field, vectors.shape[1]) if vectors.size else None
    if current is None:
        raise ConstraintError("independent_subset needs an ambient dimension")
    for i, v in enumerate(vectors):
        if not current.contains(v):
            kept.append(i)
            current = Subspace.span(field, np.vstack([current.rows, v[None, :]]))
    return kept, vectors[kept], current


def standard_gram(field: GF, g: int):
    """Block form (0 J; -J 0) with J the g x g anti-diagonal of ones."""
    J = np.eye(g, dtype=DTYPE)[::-1]
    gram = np.zeros((2 * g, 2 * g), DTYPE)
    gram[:g, g:] = J
    gram[g:, :g] = field.neg(J)
    return gram
