"""Polarized Dieudonne modules: assembly from Hasse-Witt triples, the reverse
construction, axiom validation, and the cyclic-word standard modules that act
as an independent classification oracle.

Basis convention for the 2g-dimensional module: e_1..e_g followed by the dual
basis in reversed order (dual of e_g first), with the standard alternating
form (0 J; -J 0), J the anti-diagonal of ones.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstraintError
from .gf import DTYPE, GF
from .hwtriple import HWTriple
from .semilinear import (Subspace, TwistedMap, null_space, rank, solve_matrix,
                         standard_gram, symplectic_perp, twisted_image,
                         twisted_kernel)


class PolarizedDM:
    """2g-dimensional module with Frobenius matrix A_F on the first-half
    coordinates (columns independent), over the standard alternating form."""

    __slots__ = ("field", "g", "A_F", "gram")

    def __init__(self, field: GF, A_F):
        A_F = np.asarray(A_F, DTYPE)
        if A_F.ndim != 2 or A_F.shape[0] != 2 * A_F.shape[1]:
            raise ConstraintError("Frobenius block must be 2g x g")
        g = A_F.shape[1]
        if rank(field, A_F) != g:
            raise ConstraintError("Frobenius block has dependent columns")
        self.field = field
        self.g = g
        self.A_F = A_F
        self.gram = standard_gram(field, g)

    def __repr__(self):
        return f"PolarizedDM(g={self.g}, {self.field!r})"


def assemble_dm(triple: HWTriple, scan: str = "descending") -> PolarizedDM:
    """Build the module of a triple: pick a complement of the kernel out of
    standard basis vectors (scanned in descending index order by default),
    route complement coordinates through the first operator and kernel
    coordinates through the second, writing dual rows bottom-up."""
    field, g, h = triple.field, triple.g, triple.h
    if scan == "descending":
        order = range(g - 1, -1, -1)
    elif scan == "ascending":
        order = range(g)
    else:
        raise ConstraintError(f"unknown scan order {scan!r}")
    current = Subspace.span(field, triple.kappa, ambient=g)
    complement = []
    for i in order:
        if len(complement) == g - h:
            break
        e = np.zeros(g, DTYPE)
        e[i] = 1
        if not current.contains(e):
            complement.append(i)
            current = Subspace.span(field, np.vstack([current.rows, e[None, :]]))
    complement.sort()
    decomp = np.zeros((g, g), DTYPE)
    for col, i in enumerate(complement):
        decomp[i, col] = 1
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


def validate_dm(full_F, full_V, gram, field: GF):
    """Check the module axioms; returns the list of violated ones."""
    full_F = np.asarray(full_F, DTYPE)
    full_V = np.asarray(full_V, DTYPE)
    gram = np.asarray(gram, DTYPE)
    n = full_F.shape[0]
    violations = []
    if (not np.array_equal(gram, field.neg(gram.T))) or np.diagonal(gram).any():
        violations.append("form not alternating")
    if rank(field, gram) != n:
        violations.append("form degenerate")
    violations += validate_unpolarized(full_F, full_V, field)
    lhs = field.matmul(full_F.T, gram)
    rhs = field.frob(field.matmul(gram, full_V), 1)
    if not np.array_equal(lhs, rhs):
        violations.append("b(Fx,y) != b(x,Vy)^p")
    for name, ker in (("Ker F", twisted_kernel(TwistedMap(field, full_F, 1))),
                      ("Ker V", twisted_kernel(TwistedMap(field, full_V, -1)))):
        if 2 * ker.dim != n or not ker.is_subspace_of(symplectic_perp(ker, gram)):
            violations.append(f"{name} not maximal isotropic")
    return violations


def validate_unpolarized(full_F, full_V, field: GF):
    """Kernel-image axioms only, for modules carried without a form (the
    cyclic standard modules are classified through F and V alone); the
    first of validate_dm's checks on a polarized module."""
    full_F = np.asarray(full_F, DTYPE)
    full_V = np.asarray(full_V, DTYPE)
    n = full_F.shape[0]
    fmap = TwistedMap(field, full_F, 1)
    vmap = TwistedMap(field, full_V, -1)
    full = Subspace.full(field, n)
    violations = []
    if twisted_kernel(fmap) != twisted_image(vmap, full):
        violations.append("Ker F != Im V")
    if twisted_kernel(vmap) != twisted_image(fmap, full):
        violations.append("Ker V != Im F")
    return violations


def dm_to_hw(full_F, full_V, gram, field: GF) -> HWTriple:
    """Reverse construction: quotient by Ker F with the echelon-complement
    section, the induced operator, and pairing against Frobenius values."""
    violations = validate_dm(full_F, full_V, gram, field)
    if violations:
        raise ConstraintError(f"module axioms violated: {violations}")
    full_F = np.asarray(full_F, DTYPE)
    gram = np.asarray(gram, DTYPE)
    n = full_F.shape[0]
    ker = twisted_kernel(TwistedMap(field, full_F, 1))
    comp = [i for i in range(n) if i not in set(ker.pivots)]
    g = len(comp)

    def project(vec):
        return ker.reduce(vec)[comp]

    A_phi = np.zeros((g, g), DTYPE)
    for col, i in enumerate(comp):
        A_phi[:, col] = project(full_F[:, i])
    kappa = null_space(field, A_phi)
    h = kappa.shape[0]
    A_psi = np.zeros((g, h), DTYPE)
    for j in range(h):
        lift = np.zeros(n, DTYPE)
        lift[comp] = kappa[j]  # sigma of the twisted-kernel vector's lift
        fv = field.matmul(full_F, lift[:, None])[:, 0]
        A_psi[:, j] = field.matmul(gram, fv[:, None])[:, 0][comp]
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

    def __eq__(self, other):
        return isinstance(other, KraftWord) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

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
    a = [int(c) % field.q for c in a]  # entries are field codes
    if len(a) != q or any(c == 0 for c in a):
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


def enumerate_polarized_dms(g: int, field: GF | None = None, bound: int = 4):
    """Every direct sum of admissible self-paired cycles and dual pairs of
    total symplectic dimension 2g, realized as explicit (F, V) matrices.

    Returns a list of dicts with keys F, V, label.
    """
    if g > bound:
        raise ConstraintError(f"genus {g} exceeds the enumeration bound {bound}")
    if field is None:
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
