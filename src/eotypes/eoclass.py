"""Classification of a polarized Dieudonne module into its Ekedahl-Oort
type: canonical-flag final type, minimal Weyl coset representative, p-rank,
a-number and stratum dimension.

Two independent routes compute the final type: the table algorithm driven by
the 2g x g Frobenius block and symplectic perpendiculars, and a saturation of
the flag {0, M} under the Frobenius image and Verschiebung preimage. They
must agree wherever both apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dieudonne import PolarizedDM, assemble_dm
from .errors import ConstraintError, InternalInvariantError
from .gf import DTYPE, GF
from .hwtriple import CurveCI, HWTriple, fast_path_tag, hw_triple
from .semilinear import (Subspace, TwistedMap, rank, symplectic_perp,
                         twisted_image, twisted_preimage)


class FinalType:
    """The dimension profile f(0..2g) of Frobenius images along a full
    refinement of the canonical flag."""

    __slots__ = ("values",)

    def __init__(self, values):
        values = tuple(int(v) for v in values)
        if len(values) % 2 != 1:
            raise InternalInvariantError("final type must have odd length 2g+1")
        g = (len(values) - 1) // 2
        if values[0] != 0 or values[-1] != g:
            raise InternalInvariantError("final type endpoints must be 0 and g")
        for i in range(2 * g):
            if not values[i] <= values[i + 1] <= values[i] + 1:
                raise InternalInvariantError("final type must grow by steps of 0 or 1")
        for i in range(2 * g + 1):
            if values[2 * g - i] != values[i] + g - i:
                raise InternalInvariantError("final type violates symplectic duality")
        self.values = values

    @property
    def g(self) -> int:
        return (len(self.values) - 1) // 2

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __eq__(self, other):
        return isinstance(other, FinalType) and self.values == other.values

    def __repr__(self):
        return f"FinalType{self.values}"


class WeylCoset:
    """Minimal-length coset representative as a one-line permutation of
    {1..2g} (value at position i is w(i))."""

    __slots__ = ("one_line",)

    def __init__(self, one_line):
        w = tuple(int(x) for x in one_line)
        n = len(w)
        if n % 2 or sorted(w) != list(range(1, n + 1)):
            raise InternalInvariantError("not a permutation of 1..2g")
        g = n // 2
        for i in range(1, n + 1):
            if w[i - 1] + w[n - i] != n + 1:
                raise InternalInvariantError("permutation is not in the Weyl group")
        low = [x for x in w if x <= g]
        high = [x for x in w if x > g]
        if low != sorted(low) or high != sorted(high):
            raise InternalInvariantError("permutation is not a minimal coset representative")
        self.one_line = w

    @property
    def g(self) -> int:
        return len(self.one_line) // 2

    def __eq__(self, other):
        return isinstance(other, WeylCoset) and self.one_line == other.one_line

    def __hash__(self):
        return hash(self.one_line)

    def __repr__(self):
        return f"WeylCoset{list(self.one_line)}"


@dataclass
class EOResult:
    weyl: WeylCoset
    final_type: FinalType
    p_rank: int
    a_number: int
    stratum_dim: int

    @property
    def fast_tag(self) -> str:
        return fast_path_tag(self.a_number, self.weyl.g)

    def __str__(self):
        return (f"w={list(self.weyl.one_line)} ({weyl_word(self.weyl)}), "
                f"f={list(self.final_type.values)}, p-rank {self.p_rank}, "
                f"a-number {self.a_number}, stratum dim {self.stratum_dim} "
                f"[{self.fast_tag}]")


def _fill_by_dichotomy(f, n):
    """Complete a partially defined f: between known values it is either
    flat or grows by one per step; anything else is invalid data."""
    out = dict(f)
    i = 1
    while i < n:
        if i in out:
            i += 1
            continue
        a = i  # first undefined; out[a-1] is defined
        b = a
        while b not in out:
            b += 1
        if out[b] == out[a - 1]:
            for k in range(a, b):
                out[k] = out[a - 1]
        elif out[b] == out[a - 1] + (b - a + 1):
            for k in range(a, b):
                out[k] = out[a - 1] + (k - a + 1)
        else:
            raise InternalInvariantError(
                "final type dichotomy violated: invalid Dieudonne data")
        i = b + 1
    return [out[k] for k in range(n + 1)]


def final_type_from_AF(dm: PolarizedDM) -> FinalType:
    """Table algorithm on the Frobenius block of a module, whose construction
    checked its shape and rank: grow bases at known flag dimensions, record
    image ranks, store each image's reduced basis and its perpendicular under
    the standard form, then interpolate (F(W) is spanned by F of any basis)."""
    field, g, A_F = dm.field, dm.g, dm.A_F
    n = 2 * g
    basis = {
        0: np.zeros((0, n), DTYPE),
        g: A_F.T.copy(),
        2 * g: np.eye(n, dtype=DTYPE),
    }
    f = {0: 0, 2 * g: g}
    while True:
        pending = [i for i in range(1, 2 * g + 1) if i in basis and i not in f]
        if not pending:
            break
        i = pending[0]
        images = field.matmul(A_F, field.frob(basis[i][:, :g].T, 1)).T
        span = Subspace.span(field, images)
        f[i] = fi = span.dim
        if fi not in basis:
            basis[fi] = span.rows
            if 2 * g - fi not in basis:
                basis[2 * g - fi] = symplectic_perp(span).rows
    return FinalType(_fill_by_dichotomy(f, 2 * g))


def final_type_from_FV(full_F, full_V, field: GF) -> FinalType:
    """Independent route: saturate {0, M} under the Frobenius image and the
    Verschiebung preimage, then read image dimensions along the flag."""
    full_F = np.asarray(full_F, DTYPE)
    n = full_F.shape[0]
    fmap = TwistedMap(field, full_F, 1)
    vmap = TwistedMap(field, np.asarray(full_V, DTYPE), -1)
    members = [Subspace.zero(field, n), Subspace.full(field, n)]
    for _ in range(2 * n):
        new = []
        for W in members:
            for cand in (twisted_image(fmap, W), twisted_preimage(vmap, W)):
                if not any(cand == M for M in members + new):
                    new.append(cand)
        if not new:
            break
        members.extend(new)
    else:
        raise InternalInvariantError("canonical flag did not stabilize")
    members.sort(key=lambda W: W.dim)
    for a, b in zip(members, members[1:]):
        if a.dim == b.dim or not a.is_subspace_of(b):
            raise InternalInvariantError("canonical flag is not a chain")
    f = {W.dim: twisted_image(fmap, W).dim for W in members}
    return FinalType(_fill_by_dichotomy(f, n))


def weyl_from_final_type(f: FinalType) -> WeylCoset:
    """Positions where f repeats carry 1..g in order; the rest carry
    g+1..2g in order. There are g of each: a FinalType runs from 0 to g in
    2g steps of 0 or 1."""
    g = f.g
    flats = [j for j in range(1, 2 * g + 1) if f[j] == f[j - 1]]
    w = [0] * (2 * g)
    for m, j in enumerate(flats, start=1):
        w[j - 1] = m
    rises = [i for i in range(1, 2 * g + 1) if f[i] != f[i - 1]]
    for m, i in enumerate(rises, start=1):
        w[i - 1] = g + m
    return WeylCoset(w)


def final_type_from_weyl(w: WeylCoset) -> FinalType:
    g = w.g
    values = [0]
    for i in range(1, 2 * g + 1):
        values.append(values[-1] + (1 if w.one_line[i - 1] > g else 0))
    return FinalType(values)


def invariants_from_weyl(w: WeylCoset):
    """(p_rank, a_number, stratum_dim) read off the minimal representative."""
    g, one = w.g, w.one_line
    p_rank = sum(1 for i in range(1, g + 1) if one[i - 1] == i + g)
    a_number = sum(1 for i in range(1, g + 1) if one[i - 1] <= g)
    f = final_type_from_weyl(w)
    stratum_dim = sum(f[i] for i in range(1, g + 1))
    return p_rank, a_number, stratum_dim


def weyl_word(w: WeylCoset) -> str:
    """Reduced word of the representative as a product of simple
    reflections, peeled off by right descents; 'id' for the identity.

    Every element other than the identity has a descent i <= g, w(i) >
    w(i+1): with w(1) < ... < w(g+1), w(g) < w(g+1) = 2g+1-w(g) forces
    w(g) <= g, so w(1..g) = 1..g, and w(g+1..2g) = g+1..2g by symmetry.
    Peeling s_i swaps the descent pair and, for i < g, its mirror, also a
    descent; each swap lowers the inversion count by one, so the loop
    ends."""
    g = w.g
    n = 2 * g
    cur = list(w.one_line)
    letters = []
    while cur != list(range(1, n + 1)):
        i = next(i for i in range(1, g + 1) if cur[i - 1] > cur[i])
        cur[i - 1], cur[i] = cur[i], cur[i - 1]
        if i < g:
            cur[n - i - 1], cur[n - i] = cur[n - i], cur[n - i - 1]
        letters.append(i)
    if not letters:
        return "id"
    return "*".join(f"s{i}" for i in reversed(letters))


def stable_rank(field: GF, A) -> int:
    """Rank of the g-fold twisted self-composite of a g x g operator."""
    A = np.asarray(A, DTYPE)
    g = A.shape[0]
    S = A.copy()
    for k in range(1, g):
        S = field.matmul(S, field.frob(A, k))
    return rank(field, S)


def _result_from_final_type(f: FinalType) -> EOResult:
    w = weyl_from_final_type(f)
    return EOResult(w, f, *invariants_from_weyl(w))


# The two fast-path types of g = 1..64; the bound keeps a long-lived process
# from holding every genus it ever met.
@lru_cache(maxsize=128)
def _fast_path_type(g: int, superspecial: bool):
    """The minimal coset, final type and invariants of the ordinary or the
    superspecial type of genus g, the fields of its ``EOResult``, built
    once: none of them can change."""
    f = FinalType([max(0, i - g) if superspecial else min(i, g) for i in range(2 * g + 1)])
    w = weyl_from_final_type(f)
    return (w, f, *invariants_from_weyl(w))


def ordinary_result(g: int) -> EOResult:
    return EOResult(*_fast_path_type(g, False))


def superspecial_result(g: int) -> EOResult:
    return EOResult(*_fast_path_type(g, True))


def classify(obj) -> EOResult:
    """End-to-end classification of a curve, a Hasse-Witt triple, or a
    polarized Dieudonne module."""
    if isinstance(obj, CurveCI):
        return classify(hw_triple(obj))
    if isinstance(obj, HWTriple):
        return _classify_triple(obj)
    if isinstance(obj, PolarizedDM):
        return _result_from_final_type(final_type_from_AF(obj))
    raise ConstraintError(f"cannot classify an object of type {type(obj).__name__}")


def _classify_triple(triple: HWTriple) -> EOResult:
    g = triple.g
    if triple.fast_tag == "ordinary":
        res = ordinary_result(g)
    elif triple.fast_tag == "superspecial":
        res = superspecial_result(g)
    else:
        res = classify(assemble_dm(triple))
    # consistency formulas tying the coset back to the triple
    if res.a_number != triple.h or res.a_number != g - res.final_type[g]:
        raise InternalInvariantError("a-number does not match the kernel dimension")
    if res.p_rank != stable_rank(triple.field, triple.A_phi):
        raise InternalInvariantError("p-rank does not match the stable rank")
    return res
