"""Hasse-Witt triples of complete intersection curves.

For a smooth curve cut out by forms f_1..f_(n-1) in P^n (char p not dividing
any degree), the triple consists of the space Q of dual classes in degree -d,
the Hasse-Witt operator on it, and the second operator from the kernel of the
first into the annihilator of its image, both read by coefficient
bookkeeping off products F * Frob(t) (``_frob_times``): F is
(f_1...f_(n-1))^(p-1) for the first and that power over f_l for the second,
one table per form. One reader (``_split_read``) takes every coefficient of F
it needs as one product of two takes from two factors whose product is F, so
F itself is never formed, for every n: a plane curve's factors are the half
powers f^a and f^(p-1-a), a = (p-1)/2, or f^(p-2-a) and f^a, and a space
curve's are one form's power and the product of the others' (p-1) powers.

Smoothness is read off the generator u of the duality's relation space U,
which the second operator needs anyway: a curve in P^n is smooth iff
dim U = 1 and the catalecticant of u in degree 1 has rank n + 1
(``plane_smoothness_check``). The same reader (``_catalecticant``) in
degree d-n-1 is the duality pairing (``pairing_matrix``). One builder,
``_relation_matrix``, stacks the relations of U: U is its null space, and
the second operator's image is checked by one product with it.

What the readers take from where depends only on the case (n, the
degrees, p), not on the curve, and is built once into read-only plans kept
in bounded caches keyed by those ints: the relation matrix's positions
(``_derivative_plan``), the catalecticants' (``_catalecticant_plan``) and
the split reader's shapes (``_split_plan``). Every work guard still runs
on each call, before the plan is read, through ``polyring._check_work``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from math import comb, prod
from typing import NamedTuple

import numpy as np

from .errors import ConstraintError, InternalInvariantError, SingularCurveError
from .gf import DTYPE, GF
from . import polyring
from .polyring import (GradedPoly, TClass, _check_work, _positions, exponent_array,
                       linalg_work_bytes, monomial_basis, poly_mul, poly_pow,
                       power_work_bytes, tmul_matrix)
from .semilinear import Subspace, null_space, rank, rref, solve_matrix


class CurveCI:
    """Complete intersection curve Z(f_1, ..., f_(n-1)) in P^n."""

    def __init__(self, field: GF, polys):
        polys = list(polys)
        if not polys:
            raise ConstraintError("a curve needs at least one defining form")
        nvars = polys[0].nvars
        n = nvars - 1
        if n < 2:
            raise ConstraintError("ambient projective dimension must be >= 2")
        if len(polys) != n - 1:
            raise ConstraintError(
                f"a curve in P^{n} needs {n - 1} forms, got {len(polys)}")
        for f in polys:
            if f.field != field or f.nvars != nvars:
                raise ConstraintError("defining forms live in different rings")
            if f.degree < 2:
                raise ConstraintError("defining forms must have degree >= 2")
            if f.degree % field.p == 0:
                raise ConstraintError(
                    f"characteristic {field.p} divides the degree {f.degree}")
        self.field = field
        self.n = n
        self.nvars = nvars
        self.polys = polys
        self.degrees = tuple(f.degree for f in polys)
        self.d = sum(self.degrees)
        if n == 2 and self.d < 3:
            raise ConstraintError("a plane curve must have degree >= 3")
        check_power_budget(field, nvars, self.d)
        self._formed = {}

    def __repr__(self):
        return f"CurveCI(P^{self.n}, degrees={self.degrees}, {self.field!r})"

    def _split(self, ell: int, e: int):
        """Two factors whose product is f_ell^e times f_j^(p-1) for every
        j != ell, each as its degree and a tuple of (form index, exponent)
        pairs. A plane curve's are f^(e-a) and f^a, a = (p-1)//2, so that no
        power above f^(p-1-a) is formed; otherwise they are f_ell^e and the
        product of the other forms' (p-1) powers."""
        p, d = self.field.p, self.d
        if self.n == 2:
            a = (p - 1) // 2
            return ((e - a) * d, ((0, e - a),)), (a * d, ((0, a),))
        others = tuple((j, p - 1) for j in range(len(self.polys)) if j != ell)
        return (e * self.degrees[ell], ((ell, e),)), ((p - 1) * (d - self.degrees[ell]), others)

    def _factor(self, factor) -> GradedPoly:
        """The product of f_j^e over the pairs (j, e) of a factor; every
        power and product is formed once per curve."""
        if factor not in self._formed:
            self._formed[factor] = (
                poly_pow(self.polys[factor[0][0]], factor[0][1]) if len(factor) == 1
                else reduce(poly_mul, [self._factor((pair,)) for pair in factor]))
        return self._formed[factor]

    @cached_property
    def q_basis(self) -> Subspace:
        """Echelon basis of Q: the joint kernel of multiplication by each f_i
        on the degree -d piece of the dual module; the whole piece where
        d - deg f_i <= n for every i, as f_i * t then has no class to land
        in (every plane curve, and the (2,2), (2,3), (3,3) and (2,2,2) ones)."""
        field, nvars, d = self.field, self.nvars, self.d
        rows = sum(TClass.basis_size(nvars, f.degree - d) for f in self.polys)
        ambient = TClass.basis_size(nvars, -d)
        if rows == 0:
            return Subspace.full(field, ambient)
        _check_work("Q space", linalg_work_bytes(field, nvars, rows, ambient))
        return Subspace.kernel(field, _membership_matrix(self, -d))

    @cached_property
    def _relations(self):
        """Echelon basis (rows) of the relation space U behind the duality,
        in degrees n+1-2d-deg f_l. On a plane curve U decides smoothness
        (``plane_smoothness_check``), so its guard bears that check's name."""
        return null_space(self.field, _relation_matrix(
            self, self._relation_degrees, "smoothness check" if self.n == 2 else "relation space"))

    @property
    def _relation_degrees(self):
        return [self.n + 1 - 2 * self.d - f.degree for f in self.polys]

    @cached_property
    def u(self):
        """Generator of the one-dimensional relation space behind the
        duality, as a tuple of T-classes (one per defining form), first
        nonzero coordinate 1: ``null_space`` returns reduced echelon rows."""
        field, kernel = self.field, self._relations
        if kernel.shape[0] != 1:
            raise SingularCurveError(
                f"curve fails smoothness necessary condition: dim U = {kernel.shape[0]} != 1")
        degrees = self._relation_degrees
        sizes = [TClass.basis_size(self.nvars, m) for m in degrees]
        parts = np.split(kernel[0], np.cumsum(sizes)[:-1])
        return tuple(TClass(field, self.nvars, m, part) for m, part in zip(degrees, parts))

    @cached_property
    def mu(self):
        """Pairing matrix of the generator u (``pairing_matrix``)."""
        return pairing_matrix(self, self.u)

    def _mu_of(self, u):
        return self.mu if u is self.u else pairing_matrix(self, u)


def check_power_budget(field: GF, nvars: int, d: int):
    """Refuse a curve of total degree d before any of its powers is formed.
    It forms only the split reader's factors (``CurveCI._split``): a plane
    curve's half powers f^a and f^(p-1-a), and f^(p-2-a) when the kernel is
    nonzero, and a space curve's f_i^(p-1), f_i^(p-2) and products of the
    (p-1) powers of all forms but one, of degree at most
    (p-1)*(d - min deg f_i). No product power (f_1...f_(n-1))^(p-1) and no
    Frobenius image of degree -p*d is formed. The charge on degree p*d is
    kept unchanged as an upper bound on every one of them."""
    _check_work("powers", power_work_bytes(field, nvars, field.p * d))


def plane_curve(field: GF, f: GradedPoly) -> CurveCI:
    return CurveCI(field, [f])


def genus(curve: CurveCI) -> int:
    """Arithmetic genus 1 + deg(C) (d-n-1) / 2, for a plane curve
    (d-1)(d-2)/2; for n >= 3 cross-checked against dim Q. It is an integer
    >= 1 for every curve ``CurveCI`` admits. deg(C), the product of the
    degrees, is even unless every degree is odd, and then d = n-1 mod 2 and
    d-n-1 is even. d-n-1 >= 0: d >= 3 for n = 2, and d >= 2(n-1) for
    n >= 3, as every degree is >= 2. For a complete intersection the
    degrees fix dim Q, so it differs only where the forms are not one, as
    X0^4 and X0^5 in P^3: dim Q = 52 against g = 51."""
    g = 1 + prod(curve.degrees) * (curve.d - curve.n - 1) // 2
    if curve.n >= 3 and curve.q_basis.dim != g:
        raise ConstraintError(f"the forms are not a complete intersection: "
                              f"dim Q = {curve.q_basis.dim} differs from the genus {g}")
    return g


def plane_smoothness_check(curve: CurveCI) -> bool:
    """True iff the curve is smooth: dim U = 1 (``CurveCI.u``, which the
    second operator reuses) and the catalecticant of u in degree 1
    (``_catalecticant``), whose row i is X_i * u, has rank n + 1. The name
    predates the check's reach to every n.

    A class of T of degree -k-n-1 is a functional on S_k: t(s) is the
    coefficient of 1/(X0...Xn) in s * t, and s' * t is s -> t(s' * s).

    Singular => dim U != 1 or rank 1, for every n. Let P, over the
    algebraic closure, be a point of the curve where
    sum_l lambda_l * grad f_l(P) = 0 for some lambda != 0. Evaluation at P
    kills f_k times anything, so the tuple (lambda_l * ev_P)_l lies in each
    component's dual module and satisfies the relations
    sum_l (d f_l / dX_j) * xi_l = 0: it lies in U tensored up. If
    dim U = 1, u is a multiple of it, and as X_i * ev_P = P_i * ev_P,
    every row is a multiple of one vector.

    Smooth => dim U = 1 and rank 3, for plane curves (p does not divide d,
    which ``CurveCI`` asserts). U is the annihilator of J_(3d-6),
    J = (df/dX_0, df/dX_1, df/dX_2). By Euler's identity a common zero of
    the partials is a singular point, so there is none, the partials are a
    regular sequence, and S/J is Gorenstein with socle degree 3d-6. Then
    dim U = dim (S/J)_(3d-6) = 1, and the rank is dim (S/J)_1 = 3: J has no
    linear forms, and (S/J)_1 pairs perfectly with (S/J)_(3d-7) through u.

    Smooth => rank n + 1 for n >= 3 and genus g >= 2, given dim U = 1 and
    the rank-g pairing, which ``hw_triple`` checks first. If a linear form
    l had l * u = 0, l times every form of degree d-n-2 >= 0 would lie in
    the pairing's kernel. That kernel holds the forms of degree d-n-1 that
    vanish on C, as u's components lie in the dual module; they have
    codimension g (C is projectively normal, with canonical sheaf
    O_C(d-n-1)), so by the rank it holds no more. C is irreducible and in
    no hyperplane, so every form of degree d-n-2 would vanish on C:
    impossible. Genus 1 in P^3, the (2,2) curves, is checked against the
    Jacobian criterion in the tests, not proved. Any rank other than 1 or
    n + 1 is an ``InternalInvariantError``."""
    if curve._relations.shape[0] != 1:
        return False
    r = rank(curve.field, _catalecticant(curve, curve.u, 1))
    if r not in (1, curve.nvars):
        raise InternalInvariantError(f"the catalecticant of u has rank {r}, not 1 or n + 1")
    return r == curve.nvars


def _catalecticant(curve: CurveCI, u, k: int):
    """The catalecticant of the stacked tuple u in degree k: row i is
    m_i * u over the degree k monomials m_i. It is one take from u's
    components laid end to end, at the positions of ``_catalecticant_plan``.
    It has no more rows than the relation matrix of U, guarded before it,
    and columns of no higher degree, so its guard refuses no curve that got
    this far."""
    nvars = curve.nvars
    _check_work("smoothness check", linalg_work_bytes(
        curve.field, nvars, comb(k + nvars - 1, nvars - 1),
        sum(TClass.basis_size(nvars, comp.degree + k) for comp in u)))
    plan = _catalecticant_plan(nvars, k, *(comp.shifted_degree for comp in u))
    return np.concatenate([comp.coeffs for comp in u]).take(plan)


# A plane curve needs the plans of degrees 1 and d-3, so a plane workload
# of degrees 4..6 needs five; the bound keeps a long-lived process from
# holding every plan it ever built.
@lru_cache(maxsize=8)
def _catalecticant_plan(nvars: int, k: int, *shifted_degrees: int):
    """Read-only positions, in the coefficients of components of the given
    shifted degrees laid end to end, of the catalecticant in degree k:
    entry (i, t) of block l is at the basis position of m_i + t in
    component l, t over the monomials of its degree less k. Every such
    sum is a monomial, so no position is a sentinel."""
    monos = exponent_array(nvars, k)
    blocks, offset = [], 0
    for s in shifted_degrees:
        basis = monomial_basis(nvars, s)
        tails = exponent_array(nvars, s - k)
        blocks.append(_positions(basis, monos[:, None] + tails[None]) + offset)
        offset += len(basis)
    plan = np.hstack(blocks)
    plan.flags.writeable = False
    return plan


def hasse_witt_matrix(curve: CurveCI):
    """Matrix of the Hasse-Witt operator: left action, twist 1. Column j is
    F * Frob(q_j), F = (f_1...f_(n-1))^(p-1), in the coordinates of the Q
    basis rows q_j. F is split at the form of largest degree, so that the
    product of the other forms' powers is the least. Where Q is the whole
    degree -d piece its basis is the identity, and the matrix is the
    reader's own (``_frob_times``)."""
    qb = curve.q_basis
    split = curve._split(curve.degrees.index(max(curve.degrees)), curve.field.p - 1)
    if qb.dim == qb.ambient:
        return _frob_times(curve, split, None, "Hasse-Witt matrix")
    return qb.coords_of(_frob_times(curve, split, qb.rows, "Hasse-Witt matrix").T).T


def _frob_times(curve: CurveCI, split, rows, what: str):
    """Columns F * Frob(t), F the product of the two factors of split
    (``CurveCI._split``), for the degree -d classes t given as rows, or for
    every basis class when rows is None. In shifted exponents
    (F * Frob(t))_c = sum over s of sigma(t_s) F_(p*s+p-1-c), so no
    Frobenius image is formed, and F_(p*s+p-1-c) is read off the factors
    (``_split_read``) with the targets c as the m_i and c_j = p*s_j + p-1."""
    field = curve.field
    G = _split_read(curve, split, what)
    return G if rows is None else field.matmul(G, field.frob(rows, 1).T)


def _split_read(curve: CurveCI, split, what: str):
    """G[i, j] = (P*Q)_(c_j - m_i) for ``_frob_times``' exponent rows m_i
    and c_j, P and Q the two factors of split, P the one of lower degree.
    Splitting P*Q at z = m_i + (the exponent taken from P), G[i, j] is the
    sum over z of degree deg P + deg m_i of P_(z - m_i) Q_(c_j - z), so
    G = L R^T with L[i, z] = P_(z - m_i) and R[j, z] = Q_(c_j - z); P*Q is
    never formed.

    On the cube axes (the exponents of X1..Xn), Q_(c_j - z) = Q'_(z - s_j)
    for the cube Q' of Q flipped on every axis and s_j = c_j - (D, ..., D),
    D = deg Q. Reading P at z - m_i or Q' at z - s_j is reading a cube of
    degree deg at z - o, which on each axis lies in [-max o, top - min o],
    top = deg z. The cube is copied once into the corner of a zero cube of
    side k > max(deg + max(0, max o), top - min o), so that L and R are
    each one take at the flat offsets zf - of: those of the z less those
    of the o. A read whose X0 exponent would be negative lands on a zero
    of the factor's cube. One with a negative entry borrows from the axes
    before it, and on the last such axis lands at k + (that entry) > deg,
    past the factor's cube; a negative flat offset counts from the end.
    The copies' sides, strides and bytes and the offsets of depend on the
    curve only through (n, p, d, deg P, deg Q), and ``_split_plan`` builds
    them once. What grows with |z| is built on every call and not kept:
    the copies, the zf and the index matrices zf - of, one at a time.

    The two copies, the |m| x |c| result and one column of L and R must fit
    the work budget together, checked before either factor is formed.
    Beyond the budget left by the copies, L[:, blk] R[:, blk]^T is summed
    over blocks of the widest column range it allows (one block on every
    curve of the benchmark), all read from the same two copies. The width
    reads ``polyring.WORK_BUDGET_BYTES`` at call time, as the check does.

    The copies are never what refuses a curve that reaches the reader in
    ``hw_triple``. With e = d-n-1 and t = deg m_i, their sides are
    deg P + t + 1 and max(D + 1, pd - n - p + 1) on n axes: Q's offsets
    have max o <= p(e+1) - 1 - D, and pd - n - p + 1 exceeds D plus that
    by (p-1)(n-1) + 1. ``check_power_budget`` admits p*d <= 3455 for n = 2,
    224 for n = 3, 53 for n = 4, 24 for n = 5 and nothing above: 15,616
    configurations (n, degrees, p, m), all swept. There the copies take at
    most 18% of the power charge (the second operator of a plane curve at
    p = 2, where both factors are 1), under 16 bytes a cell of the
    degree-p*d cube where 88 or more are charged. Each of the 4,032
    configurations that pass the relation-space guard, which ``hw_triple``
    runs before either operator, passes this guard for both operators.

    A block's product sums at most |z| terms, and ``GF.matmul`` refuses
    more than ``max_terms``. No admitted curve gets there: |z| < 6M, while
    max_terms is at least 8.2e9 over every field that admits a curve
    (GF(571^3) is the least)."""
    field, nvars = curve.field, curve.nvars
    axes = nvars - 1
    (lo_degree, lo), (hi_degree, hi) = sorted(split)
    plan = _split_plan(nvars, field.p, curve.d, lo_degree, hi_degree)
    column = linalg_work_bytes(field, nvars, plan.rows + plan.cols, 1)
    _check_work(what, plan.copy_bytes + max(
        linalg_work_bytes(field, nvars, plan.rows, plan.cols), column))
    width = (polyring.WORK_BUDGET_BYTES - plan.copy_bytes) // column
    P, Q = curve._factor(lo), curve._factor(hi)
    lo_cube = P._cube()
    cubes = (lo_cube, (lo_cube if Q is P else Q._cube())[(slice(None, None, -1),) * axes])
    z = exponent_array(nvars, plan.top)[:, 1:]
    copies, zf = [], []
    for cube, deg, side, strides in zip(cubes, (lo_degree, hi_degree), plan.sides, plan.strides):
        copies.append(np.zeros((side,) * axes, DTYPE))
        copies[-1][(slice(deg + 1),) * axes] = cube
        zf.append(z @ strides)
    G = None
    for start in range(0, len(z), width):
        L, R = (copy.take(f[None, start:start + width] - o[:, None])
                for copy, f, o in zip(copies, zf, plan.offsets))
        block = field.matmul(L, R.T)
        G = block if G is None else field.add(G, block)
    return G


class _SplitPlan(NamedTuple):
    rows: int          # |m|
    cols: int          # |c|
    top: int           # the degree of every z
    sides: tuple       # of the bordered copies of P and of Q flipped
    strides: tuple     # of each copy's flat offsets
    offsets: tuple     # the flat offsets of the o of each read
    copy_bytes: int


# Each operator reads through one plan per (p, d) and form, so a plane
# workload of three cases needs six; the bound keeps a long-lived process
# from holding every plan it ever built.
@lru_cache(maxsize=16)
def _split_plan(nvars: int, p: int, d: int, lo_degree: int, hi_degree: int) -> _SplitPlan:
    """The shape of ``_split_read``'s copies for a curve in nvars variables
    of total degree d over a field of characteristic p and factors of
    degrees lo_degree <= hi_degree: m the targets of degree
    p*d - nvars - lo_degree - hi_degree and c = p*s + p-1 over the s of
    degree d - nvars (``_frob_times``). Every array is read-only."""
    axes = nvars - 1
    m = exponent_array(nvars, p * d - nvars - lo_degree - hi_degree)
    c = p * exponent_array(nvars, d - nvars) + p - 1
    top = lo_degree + int(m[0].sum())
    # for P and for Q flipped: the degree, and the offsets o of the reads
    # z - o on the cube axes
    reads = ((lo_degree, m[:, 1:]), (hi_degree, c[:, 1:] - hi_degree))
    sides = tuple(max(deg + 1 + max(0, int(o.max())), top - int(o.min()) + 1)
                  for deg, o in reads)
    strides = tuple(side ** np.arange(axes - 1, -1, -1) for side in sides)
    offsets = tuple(o @ s for (_, o), s in zip(reads, strides))
    for array in strides + offsets:
        array.flags.writeable = False
    return _SplitPlan(len(m), len(c), top, sides, strides, offsets,
                      8 * sum(side ** axes for side in sides))


def _relation_matrix(curve: CurveCI, src_degrees, stage: str):
    """Matrix of the relations of U on stacked tuples (xi_l) in degrees
    src_degrees, charged under stage before it is built: the derivative
    relations sum_l (d f_l / dX_j) * xi_l = 0 for every j and, for n >= 3,
    each xi_l in the curve's dual module, f_k * xi_l = 0 for every k.

    A plane curve needs no membership rows. By Euler's identity
    d * f = sum_j X_j * df/dX_j, d * (f * xi) = sum_j X_j * (df/dX_j * xi)
    is 0 where the derivative rows hold, and p does not divide d
    (``CurveCI`` asserts it), so f * xi = 0. With several forms it gives
    only sum_l deg f_l * (f_l * xi_l) = 0, so space curves keep them."""
    nvars = curve.nvars
    sizes = [TClass.basis_size(nvars, m) for m in src_degrees]
    members = src_degrees if curve.n >= 3 else []
    # every sum_l (d f_l / dX_j) * xi_l lies in one degree
    rows = nvars * TClass.basis_size(nvars, src_degrees[0] + curve.degrees[0] - 1) + sum(
        TClass.basis_size(nvars, m + f.degree) for m in members for f in curve.polys)
    _check_work(stage, linalg_work_bytes(curve.field, nvars, rows, sum(sizes)))
    ends = np.cumsum(sizes)
    return np.vstack([_derivative_matrix(curve, src_degrees)] + [
        np.pad(_membership_matrix(curve, m), ((0, 0), (end - size, ends[-1] - end)))
        for m, size, end in zip(members, sizes, ends)])


def _membership_matrix(curve: CurveCI, src_degree: int):
    """Matrix of t -> (f_k * t)_k from T_src_degree, stacked over the forms:
    its kernel is that degree's piece of the curve's dual module."""
    return np.vstack([tmul_matrix(f, src_degree) for f in curve.polys])


def _derivative_matrix(curve: CurveCI, src_degrees):
    """Matrix of the tuple (xi_l) in degrees src_degrees to the tuple over j
    of sum_l (d f_l / dX_j) * xi_l, on stacked coefficient vectors: per
    form, one take (``_derivative_plan``) from the coefficients of its
    partials, each written at the monomial it came from."""
    blocks = []
    for f, m in zip(curve.polys, src_degrees):
        partials = curve.field.scale_int(f.basis.exps.T, f.coeffs)
        table = np.append(partials, np.zeros((f.nvars, 1), DTYPE), axis=1)
        blocks.append(table.take(_derivative_plan(f.nvars, f.degree, m)))
    return np.hstack(blocks)


# A plane workload needs two plans per degree (the relation space and the
# second operator's check), so at most six; the bound keeps a long-lived
# process from holding every plan it ever built.
@lru_cache(maxsize=8)
def _derivative_plan(nvars: int, degree: int, src_degree: int):
    """Read-only positions, in the flat table of a degree-`degree` form's
    partials (row j holds e_j * f_e at the basis position of e, then one
    zero), of the matrix from T_src_degree: xi -> (df/dX_j * xi)_j, stacked
    over j. In shifted exponents entry (j, t; s) is (df/dX_j)_(s-t) =
    e_j * f_e with e = s - t + (the unit vector j); where e has a negative
    entry it is row j's zero. Built one unit vector at a time, the plan
    peaks near 3.5 words an entry, itself included, within the nvars + 3m
    that ``linalg_work_bytes`` charges for the matrix."""
    basis = monomial_basis(nvars, degree)
    src = exponent_array(nvars, -src_degree - nvars)
    tgt = exponent_array(nvars, -src_degree - degree + 1 - nvars)
    e = src[None] - tgt[:, None]
    plan = np.empty((nvars, len(tgt), len(src)), np.intp)
    for j in range(nvars):
        e[..., j] += 1
        plan[j] = _positions(basis, e) + j * (len(basis) + 1)
        e[..., j] -= 1
    plan = plan.reshape(nvars * len(tgt), len(src))
    plan.flags.writeable = False
    return plan


def psi_matrix(curve: CurveCI, kappa, u):
    """Columns are the second operator's values on the twisted kernel basis,
    h > 0 rows (``hw_triple`` calls it only then), written in the dual of
    the Q basis: column j is theta of (F_l * Frob(tau(kappa_j) . Q))_l,
    F_l = f_l^(p-2) times the other forms' (p-1) powers, one read per form
    (``_frob_times``); a plane curve's F_0 = f^(p-2) is read off f^(p-2-a)
    and f^a. The images, tuples in degrees -d - deg f_l, must satisfy the
    relations of U, checked by one product with ``_relation_matrix``. That
    matrix is d-n-1 >= 0 degrees above U's and no larger, so its charge
    refuses no curve that reached the second operator."""
    field, d = curve.field, curve.d
    rows = field.matmul(field.frob(np.asarray(kappa, DTYPE), -1), curve.q_basis.rows)
    xi_cols = np.vstack([_frob_times(curve, curve._split(ell, field.p - 2), rows,
                                     "second operator") for ell in range(len(curve.polys))])
    relations = _relation_matrix(curve, [-d - f.degree for f in curve.polys], "second operator")
    if field.matmul(relations, xi_cols).any():
        raise InternalInvariantError("second operator image violates the relations of U")
    return _dual_coords(curve, curve._mu_of(u), xi_cols)


def pairing_matrix(curve: CurveCI, u):
    """Matrix mu of the duality pairing fixed by u: the catalecticant of u in
    degree d-n-1 (``_catalecticant``) transposed, so that column j is
    monos[j] * u. A rank other than g raises ``SingularCurveError``."""
    mu = _catalecticant(curve, u, curve.d - curve.n - 1).T
    if rank(curve.field, mu) != genus(curve):
        raise SingularCurveError("duality pairing is degenerate")
    return mu


def theta_apply(curve: CurveCI, u, xi):
    """Coordinates in the dual of the Q basis of a tuple class xi,
    through the perfect pairing fixed by the generator u."""
    xi_vec = np.concatenate([comp.coeffs for comp in xi])
    return _dual_coords(curve, curve._mu_of(u), xi_vec[:, None])[:, 0]


def _dual_coords(curve: CurveCI, mu, xi_cols):
    """theta on each column, a stacked tuple class, for the pairing mu; the
    pairing of the degree d-n-1 monomials against the Q basis is qb.rows."""
    return curve.field.matmul(curve.q_basis.rows, solve_matrix(curve.field, mu, xi_cols))


def fast_path_tag(a_number: int, g: int) -> str:
    """ordinary iff a = 0, superspecial iff a = g, else interesting. A
    triple's a is h; a minimal coset's p-rank is g iff a = 0."""
    if a_number == 0:
        return "ordinary"
    return "superspecial" if a_number == g else "interesting"


class HWTriple:
    """Hasse-Witt data: the operator matrix, the echelon basis of its linear
    null space, and the second operator's matrix on the twisted kernel."""

    __slots__ = ("field", "g", "A_phi", "kappa", "A_psi")

    def __init__(self, field: GF, g: int, A_phi, kappa, A_psi):
        self.field = field
        self.g = g
        self.A_phi = np.asarray(A_phi, DTYPE)
        self.kappa = np.asarray(kappa, DTYPE).reshape(-1, g)
        self.A_psi = np.asarray(A_psi, DTYPE).reshape(g, -1)
        self.validate()

    @property
    def h(self) -> int:
        return self.kappa.shape[0]

    @property
    def fast_tag(self) -> str:
        return fast_path_tag(self.h, self.g)

    def validate(self):
        field, g, h = self.field, self.g, self.h
        if self.A_phi.shape != (g, g) or self.A_psi.shape != (g, h):
            raise InternalInvariantError("triple matrices have inconsistent shapes")
        if not np.array_equal(rref(field, self.kappa)[0], self.kappa):
            raise InternalInvariantError("kernel basis is not in echelon form")
        if self.kappa.shape[0] and np.count_nonzero(
                field.matmul(self.A_phi, self.kappa.T)):
            raise InternalInvariantError("kernel basis is not in the null space")
        if rank(field, self.A_phi) != g - h:
            raise InternalInvariantError("kernel basis does not span the null space")
        if rank(field, self.A_psi) != h:
            raise InternalInvariantError("second operator is not injective")
        if h and np.count_nonzero(field.matmul(self.A_psi.T, self.A_phi)):
            raise InternalInvariantError(
                "second operator does not annihilate the image of the first")

    def __repr__(self):
        return f"HWTriple(g={self.g}, h={self.h}, tag={self.fast_tag})"


def hw_triple(curve: CurveCI) -> HWTriple:
    """Full pipeline from a curve to its Hasse-Witt triple. For n >= 3,
    dim Q = g, dim U = 1 and a perfect pairing are checked first, also at h = 0."""
    field = curve.field
    g = genus(curve)
    if curve.n >= 3:
        curve.mu
    if not plane_smoothness_check(curve):
        raise SingularCurveError(f"the {'plane' if curve.n == 2 else 'space'} curve is singular")
    A_phi = hasse_witt_matrix(curve)
    kappa = null_space(field, A_phi)
    if kappa.shape[0]:
        A_psi = psi_matrix(curve, kappa, curve.u)
    else:
        A_psi = np.zeros((g, 0), DTYPE)
    return HWTriple(field, g, A_phi, kappa, A_psi)
