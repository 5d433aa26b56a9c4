"""Polarized Dieudonne modules: assembly from Hasse-Witt triples, the reverse
construction, axiom validation, and the cyclic-word standard modules that act
as an independent classification oracle.

Basis convention for the 2g-dimensional module: e_1..e_g followed by the dual
basis in reversed order (dual of e_g first), with the standard alternating
form (0 J; -J 0), J the anti-diagonal of ones. It is the one form: no
function takes another, and ``semilinear.standard_gram`` builds its matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstraintError
from .gf import DTYPE, GF
from .hwtriple import HWTriple
from .semilinear import (Subspace, TwistedMap, null_space, rank, rref,
                         solve_matrix, standard_gram, twisted_image,
                         twisted_kernel)


class PolarizedDM:
    """2g-dimensional module with Frobenius matrix A_F on the first-half
    coordinates, over the standard form. F is zero on the second half, so
    the forced V has Ker V = (Im F)^perp; the data is a module iff the
    columns of A_F are independent and span an isotropic space (checked here)."""

    __slots__ = ("field", "g", "A_F")

    def __init__(self, field: GF, A_F):
        A_F = np.asarray(A_F, DTYPE)
        if A_F.ndim != 2 or A_F.shape[0] != 2 * A_F.shape[1]:
            raise ConstraintError("Frobenius block must be 2g x g")
        g = A_F.shape[1]
        if rank(field, A_F) != g:
            raise ConstraintError("Frobenius block has dependent columns")
        # A_F^T G A_F = U^T J L - (U^T J L)^T for the halves U, L of A_F
        form = field.matmul(A_F[:g].T, A_F[g:][::-1])
        if not np.array_equal(form, form.T):
            raise ConstraintError("the image of the Frobenius block is not isotropic")
        self.field = field
        self.g = g
        self.A_F = A_F

    def __repr__(self):
        return f"PolarizedDM(g={self.g}, {self.field!r})"


def assemble_dm(triple: HWTriple, scan: str = "descending") -> PolarizedDM:
    """Build the module of a triple: pick a complement of the kernel out of
    standard basis vectors (scanned in descending index order by default),
    route complement coordinates through the first operator and kernel
    coordinates through the second, writing dual rows bottom-up.

    The complement is the basis vectors that raise the rank after the
    kernel basis: e_j is skipped iff a kernel vector is 1 at j and 0 at
    every coordinate scanned before j, iff j is a pivot of kappa with its
    columns in reverse scan order (kappa itself for the descending scan)."""
    field, g, h = triple.field, triple.g, triple.h
    if scan not in ("descending", "ascending"):
        raise ConstraintError(f"unknown scan order {scan!r}")
    reverse = list(range(g) if scan == "descending" else range(g - 1, -1, -1))
    pivots = {reverse[c] for c in rref(field, triple.kappa[:, reverse])[1]}
    complement = [j for j in range(g) if j not in pivots]
    decomp = np.zeros((g, g), DTYPE)
    decomp[complement, np.arange(g - h)] = 1
    decomp[:, g - h:] = triple.kappa.T
    # coords[:, j] expresses e_j over (complement vectors, kernel basis)
    coords = solve_matrix(field, decomp, np.eye(g, dtype=DTYPE))
    a, b = coords[:g - h], coords[g - h:]
    upper = field.matmul(triple.A_phi[:, complement], a)
    lower = field.matmul(triple.A_psi, b)[::-1, :]
    return PolarizedDM(field, np.vstack([upper, lower]))


def _dagger(M):
    """Reflection in the anti-diagonal."""
    return M[::-1, ::-1].T


def full_fv_matrices(dm: PolarizedDM):
    """(full_F, full_V): F is the block extended by zero columns, V is
    forced by the polarization identity (dagger recipe, inverse-twisted)."""
    field, g = dm.field, dm.g
    full_F = np.hstack([dm.A_F, np.zeros((2 * g, g), DTYPE)])
    A = full_F[:g, :g]
    B = full_F[:g, g:]
    C = full_F[g:, :g]
    D = full_F[g:, g:]
    V = np.block([[_dagger(D), field.neg(_dagger(B))],
                  [field.neg(_dagger(C)), _dagger(A)]])
    return full_F, field.frob(V, -1)


def validate_dm(full_F, full_V, field: GF):
    """Check the module axioms under the standard form; returns the list of
    violated ones. An odd dimension raises ConstraintError.

    The three checked axioms make both kernels maximal isotropic, so no
    check of that is made. For x, y in Ker F = Im V, y = Vz and
    b(x, y)^p = b(Fx, z) = 0. For Fx, v in Ker V = Im F,
    b(Fx, v) = b(x, Vv)^p = 0. Their dimensions add to
    dim Ker F + dim Im F = 2g, and no isotropic subspace of the
    nondegenerate form has dimension above g, so each has dimension g."""
    return _axioms(full_F, full_V, field, polarized=True)[0]


def validate_unpolarized(full_F, full_V, field: GF):
    """Kernel-image axioms only, for modules carried without a form (the
    cyclic standard modules are classified through F and V alone); the
    first of validate_dm's checks on a polarized module."""
    return _axioms(full_F, full_V, field, polarized=False)[0]


def _axioms(full_F, full_V, field: GF, polarized: bool):
    """(violations, Ker F): the kernel-image axioms and, if polarized, the
    identity of the standard form. Each kernel is reduced once, and dm_to_hw
    reuses Ker F."""
    full_F, full_V = np.asarray(full_F, DTYPE), np.asarray(full_V, DTYPE)
    n = full_F.shape[0]
    if polarized and n % 2:
        raise ConstraintError(f"the standard form needs an even dimension, got {n}")
    fmap, vmap = TwistedMap(field, full_F, 1), TwistedMap(field, full_V, -1)
    ker_f = twisted_kernel(fmap)
    full = Subspace.full(field, n)
    violations = []
    if ker_f != twisted_image(vmap, full):
        violations.append("Ker F != Im V")
    if twisted_kernel(vmap) != twisted_image(fmap, full):
        violations.append("Ker V != Im F")
    if polarized:
        gram = standard_gram(field, n // 2)
        lhs = field.matmul(full_F.T, gram)
        rhs = field.frob(field.matmul(gram, full_V), 1)
        if not np.array_equal(lhs, rhs):
            violations.append("b(Fx,y) != b(x,Vy)^p")
    return violations, ker_f


def dm_to_hw(full_F, full_V, field: GF) -> HWTriple:
    """Reverse construction under the standard form: quotient by Ker F with
    the echelon-complement section, the induced operator, and pairing
    against Frobenius values; ConstraintError where validate_dm objects."""
    violations, ker = _axioms(full_F, full_V, field, polarized=True)
    if violations:
        raise ConstraintError(f"module axioms violated: {violations}")
    full_F = np.asarray(full_F, DTYPE)
    comp = [i for i in range(ker.ambient) if i not in ker.pivots]
    g = len(comp)
    A_phi = ker.reduce(full_F[:, comp].T)[:, comp].T
    kappa = null_space(field, A_phi)
    # lifts of the twisted-kernel vectors' sigma-images, one per column
    lift = np.zeros((ker.ambient, kappa.shape[0]), DTYPE)
    lift[comp] = kappa.T
    gram = standard_gram(field, g)
    A_psi = field.matmul(gram, field.matmul(full_F, lift))[comp]
    return HWTriple(field, g, A_phi, kappa, A_psi)


class KraftWord:
    """Cyclic word in the letters F and V, canonicalized up to rotation."""

    __slots__ = ("word",)

    def __init__(self, word):
        word = tuple(word)
        if not word or any(x not in ("F", "V") for x in word):
            raise ConstraintError("a cyclic word needs letters 'F' and 'V'")
        self.word = word

    @property
    def q(self) -> int:
        return len(self.word)

    def canonical(self) -> "KraftWord":
        w = self.word
        return KraftWord(min(w[i:] + w[:i] for i in range(len(w))))

    def check_dual(self) -> "KraftWord":
        return KraftWord(tuple("F" if x == "V" else "V" for x in self.word))

    def is_self_paired_admissible(self) -> bool:
        """Admissible as a single self-paired cycle: even length with the
        opposite letter half a turn away."""
        q = self.q
        if q % 2:
            return False
        r = q // 2
        return all(self.word[(i + r) % q] != self.word[i] for i in range(q))

    def __repr__(self):
        return f"KraftWord({''.join(self.word)})"


def standard_module(word, field: GF, a=None):
    """(F, V) matrices of the cyclic standard module: F sends e_i to
    a_i e_(i+1) on F-letters, V sends a_i e_(i+1) back to e_i on V-letters,
    everything else forced to zero by the kernel-image axioms."""
    word = word.word if isinstance(word, KraftWord) else tuple(word)
    q = len(word)
    if a is None:
        a = [1] * q
    a = [int(c) for c in a]  # entries are field codes
    if len(a) != q or any(not 0 < c < field.q for c in a):
        raise ConstraintError("coefficients must be nonzero field codes, one per letter")
    F = np.zeros((q, q), DTYPE)
    V = np.zeros((q, q), DTYPE)
    for i, letter in enumerate(word):
        nxt = (i + 1) % q
        if letter == "F":
            F[nxt, i] = a[i]
        else:
            # V is an inverse-twisted map, so V(e_(i+1)) = tau(a_i)^(-1) e_i
            V[i, nxt] = field.inv_scalar(int(field.frob(np.asarray(a[i]), -1)))
    return F, V


def _canonical_words(q):
    seen = set()
    out = []
    for bits in range(2 ** q):
        word = tuple("F" if (bits >> i) & 1 else "V" for i in range(q))
        canon = KraftWord(word).canonical()
        if canon.word not in seen:
            seen.add(canon.word)
            out.append(canon)
    return out


def _atoms(g):
    """All building blocks up to symplectic dimension 2g, with labels."""
    atoms = []
    for q in range(2, 2 * g + 1, 2):
        for word in _canonical_words(q):
            if word.is_self_paired_admissible():
                atoms.append(("cycle", word, q))
    for q in range(1, g + 1):
        for word in _canonical_words(q):
            dual = word.check_dual().canonical()
            if word.word <= dual.word:
                atoms.append(("pair", word, 2 * q))
    return atoms


def enumerate_polarized_dms(g: int):
    """Every direct sum of admissible self-paired cycles and dual pairs of
    total symplectic dimension 2g, realized as explicit (F, V) matrices over
    GF(2), for g up to 4.

    Returns a list of dicts with keys F, V, label.
    """
    if g > 4:
        raise ConstraintError(f"genus {g} exceeds the enumeration bound 4")
    field = GF(2)
    atoms = _atoms(g)
    results = []

    def blocks_of(atom):
        kind, word, _ = atom
        if kind == "cycle":
            return [standard_module(word, field)]
        return [standard_module(word, field),
                standard_module(word.check_dual(), field)]

    def label_of(atom):
        kind, word, _ = atom
        text = "".join(word.word)
        return f"cycle[{text}]" if kind == "cycle" else f"pair[{text}]"

    def rec(start, remaining, chosen):
        if remaining == 0:
            fs, vs = [], []
            for atom in chosen:
                for F, V in blocks_of(atom):
                    fs.append(F)
                    vs.append(V)
            results.append({
                "F": _block_diag(fs),
                "V": _block_diag(vs),
                "label": " + ".join(label_of(a) for a in chosen),
            })
            return
        for idx in range(start, len(atoms)):
            dim = atoms[idx][2]
            if dim <= remaining:
                rec(idx, remaining - dim, chosen + [atoms[idx]])

    rec(0, 2 * g, [])
    return results


def _block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), DTYPE)
    pos = 0
    for b in blocks:
        k = b.shape[0]
        out[pos:pos + k, pos:pos + k] = b
        pos += k
    return out


def random_hw_triple(field: GF, g: int, rng) -> HWTriple:
    """Random valid triple: arbitrary first operator, second operator built
    from an annihilator basis times a random invertible block (the target
    identification is the standard coordinate pairing)."""
    A_phi = field.random_elements(rng, (g, g))
    kappa = null_space(field, A_phi)
    h = kappa.shape[0]
    if h:
        ann = null_space(field, A_phi.T)
        while True:
            R = field.random_elements(rng, (h, h))
            if rank(field, R) == h:
                break
        A_psi = field.matmul(ann.T, R)
    else:
        A_psi = np.zeros((g, 0), DTYPE)
    return HWTriple(field, g, A_phi, kappa, A_psi)
