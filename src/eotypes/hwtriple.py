"""Hasse-Witt triples of complete intersection curves.

For a smooth curve cut out by forms f_1..f_(n-1) in P^n (char p not dividing
any degree), the triple consists of the space Q of dual classes in degree -d,
the Hasse-Witt operator on it, and the second operator from the kernel of the
first into the annihilator of its image. The plane-curve path extracts both
operators by pure coefficient bookkeeping: the Hasse-Witt matrix off the half
power f^((p-1)/2), as one product of two takes of its coefficients, and the
second operator off f^(p-2), formed only when the kernel is nonzero. The
general path gathers both from products F * Frob(t) (``_frob_times``).

Smoothness is read off the generator u of the duality's relation space U,
which the second operator needs anyway: a curve in P^n is smooth iff
dim U = 1 and the catalecticant of u in degree 1 has rank n + 1
(``plane_smoothness_check``). The same reader (``_catalecticant``) in
degree d-n-1 is the duality pairing (``pairing_matrix``). The relation
matrix is one take per form from the coefficients of its partials
(``_derivative_plan``).
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from math import prod

import numpy as np

from .errors import ConstraintError, InternalInvariantError, SingularCurveError
from .gf import DTYPE, GF
from .polyring import (WORK_BUDGET_BYTES, GradedPoly, TClass, _positions, exponent_array,
                       gather, linalg_work_bytes, monomial_basis, poly_mul, poly_pow,
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

    def __repr__(self):
        return f"CurveCI(P^{self.n}, degrees={self.degrees}, {self.field!r})"

    @cached_property
    def _powers_pm2(self):
        """f_i^(p-2) for each defining form; on the plane path only the
        second operator reads it."""
        return tuple(poly_pow(f, self.field.p - 2) for f in self.polys)

    @cached_property
    def _powers_pm1(self):
        """f_i^(p-1), each formed as f_i * f_i^(p-2); the general path only."""
        return tuple(poly_mul(f, fp) for f, fp in zip(self.polys, self._powers_pm2))

    @cached_property
    def _product_pm1(self) -> GradedPoly:
        """(f_1 ... f_(n-1))^(p-1)."""
        return reduce(poly_mul, self._powers_pm1)

    @cached_property
    def _products_pm1_over(self):
        """(f_1 ... f_(n-1))^(p-1) / f_ell, for each ell."""
        pm1, pm2 = self._powers_pm1, self._powers_pm2
        return tuple(reduce(poly_mul, pm1[:ell] + pm2[ell:ell + 1] + pm1[ell + 1:])
                     for ell in range(len(self.polys)))

    @cached_property
    def q_basis(self) -> Subspace:
        """Echelon basis of Q: the joint kernel of multiplication by each f_i
        on the degree -d piece of the dual module."""
        field, nvars, d = self.field, self.nvars, self.d
        rows = sum(TClass.basis_size(nvars, f.degree - d) for f in self.polys)
        _check_work("Q space", linalg_work_bytes(
            field, nvars, rows, TClass.basis_size(nvars, -d)))
        blocks = np.vstack([tmul_matrix(f, -d) for f in self.polys])
        sub = Subspace.span(field, null_space(field, blocks),
                            ambient=TClass.basis_size(nvars, -d))
        if self.n == 2 and sub.dim != (d - 1) * (d - 2) // 2:
            raise InternalInvariantError("plane curve Q space has wrong dimension")
        return sub

    @cached_property
    def _relations(self):
        """Echelon basis (rows) of the relation space U behind the duality:
        the tuples (xi_l) in degrees n+1-2d-deg f_l with
        sum_l (d f_l / dX_j) * xi_l = 0 for every j and, for n >= 3, each
        xi_l in the curve's dual module. On a plane curve U decides
        smoothness (``plane_smoothness_check``), so its guard bears that
        check's name there."""
        field, nvars, d, n = self.field, self.nvars, self.d, self.n
        src_degrees = self._relation_degrees
        sizes = [TClass.basis_size(nvars, m) for m in src_degrees]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        rows = nvars * TClass.basis_size(nvars, n - 2 * d)
        if n >= 3:
            rows += sum(TClass.basis_size(nvars, m + f.degree)
                        for m in src_degrees for f in self.polys)
        _check_work("smoothness check" if n == 2 else "relation space",
                    linalg_work_bytes(field, nvars, rows, int(offsets[-1])))
        blocks = [_derivative_matrix(self, src_degrees)]
        if n >= 3:
            # membership of each component in the curve's dual module
            for ell, m in enumerate(src_degrees):
                for f in self.polys:
                    block = np.zeros((TClass.basis_size(nvars, m + f.degree),
                                      int(offsets[-1])), DTYPE)
                    block[:, offsets[ell]:offsets[ell + 1]] = tmul_matrix(f, m)
                    blocks.append(block)
        return null_space(field, np.vstack(blocks))

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
    The largest cube it builds is (f_1...f_(n-1))^(p-1), of degree (p-1)*d;
    no Frobenius image of degree -p*d is formed. The check is on p*d, which
    bounds that cube and f^(p-2)."""
    _check_work("powers", power_work_bytes(field, nvars, field.p * d))


def _check_work(what: str, work: int):
    if work > WORK_BUDGET_BYTES:
        raise ConstraintError(
            f"the {what} of this curve would need about {work / 2 ** 30:.3g} GiB, above the "
            f"{WORK_BUDGET_BYTES / 2 ** 30:.3g} GiB work budget")


def plane_curve(field: GF, f: GradedPoly) -> CurveCI:
    return CurveCI(field, [f])


def genus(curve: CurveCI) -> int:
    """Arithmetic genus; for n >= 3 cross-checked against dim Q."""
    if curve.n == 2:
        d = curve.d
        g = (d - 1) * (d - 2) // 2
    else:
        deg = prod(curve.degrees)
        twice = deg * (curve.d - curve.n - 1)
        if twice % 2:
            raise InternalInvariantError("genus formula did not give an integer")
        g = 1 + twice // 2
    if g < 1:
        raise ConstraintError("genus 0 configurations are not supported")
    if curve.n >= 3 and ci_q_basis(curve).dim != g:
        raise SingularCurveError(
            f"dim Q = {ci_q_basis(curve).dim} differs from the genus {g}")
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
    m_i * u over the degree k monomials m_i, one gather per component. It
    has no more rows than the relation matrix that ``CurveCI._relations``
    guarded, and columns of no higher degree, so its guard refuses no curve
    that got this far."""
    monos = exponent_array(curve.nvars, k)
    tails = [exponent_array(curve.nvars, comp.shifted_degree - k) for comp in u]
    _check_work("smoothness check", linalg_work_bytes(
        curve.field, curve.nvars, len(monos), sum(map(len, tails))))
    return np.hstack([gather(comp, monos[:, None] + t[None]) for comp, t in zip(u, tails)])


def ci_q_basis(curve: CurveCI) -> Subspace:
    """Echelon basis of Q, computed once per curve (``CurveCI.q_basis``)."""
    return curve.q_basis


def hasse_witt_matrix(curve: CurveCI):
    """Matrix of the Hasse-Witt operator: left action, twist 1."""
    if curve.n == 2:
        return _hw_plane_matrix(curve)
    return _hw_general_matrix(curve)


def _hw_plane_matrix(curve: CurveCI):
    """A[i, j] = [f^(p-1)]_(c_j - m_i) with c_j = p*m_j + (p-1) over the
    degree d-3 monomials m_i, read off the half powers lo = f^a and
    hi = f^(p-1-a), a = (p-1)//2: one form for odd p, and 1 and f for p = 2.
    Splitting f^(p-1) = lo * hi at z = m_i + (the exponent taken from lo),
    A[i, j] = sum over z of degree (a+1)d - 3 of lo_(z - m_i) hi_(c_j - z),
    so A = L R^T with L[i, z] = lo_(z - m_i) and R[j, z] = hi_(c_j - z). The
    whole f^(p-2) is never formed here; psi forms it when h > 0.

    On the exponents of X1 and X2, hi_(c_j - z) = hi'_(z - s_j) for the
    cube hi' of hi flipped on both axes and s_j = c_j - (D, D), D = deg hi.
    lo and hi' are each copied once into a zero border wide enough for
    every z - m_i or z - s_j, so that L and R are each one take at the flat
    offsets zf - sf: those of the z in the copy less those of the m_i or
    the s_j. A difference with a negative entry, or whose X0 exponent
    would be negative, lands on a zero of the copy, so no difference array
    is built.

    The two copies, the g x g result and one column of L and R must fit the
    work budget together. The copies are never what refuses a curve that
    ``check_power_budget`` admitted: lo's side is (a+2)d - 5 <= pd and hi''s
    at most p(d-3) + (a+1)d - 2 < 2pd, so together they take under 40 bytes
    a cell of the degree-p*d cube, where a product ending in that degree is
    charged at least 88. The largest pair within the budget is 235 MB
    (p = 37, d = 93). L and R are guarded as one 2g x |z| matrix: beyond
    the budget left by the copies, L[:, blk] R[:, blk]^T is summed over
    blocks of the widest column range it allows (one block on every plane
    case of the benchmark), all read from the same two copies.

    A block's product sums at most |z| terms, and ``GF.matmul`` refuses more
    than ``max_terms``. No admitted curve gets there: the power check admits
    p*d <= 3455, so (a+1)d - 3 < 2pd/3 and |z| < 2.7M, while max_terms is at
    least 8.2e9 over every field that admits a curve (GF(571^3) is the
    least)."""
    field, p, d = curve.field, curve.field.p, curve.d
    md = exponent_array(3, d - 3)
    g = len(md)
    a = (p - 1) // 2
    top = (a + 1) * d - 3  # the largest exponent of X1 or X2 in a z
    # for lo and for hi flipped: the degree, and the offsets o of the reads
    # z - o on the exponents of X1 and X2, which lie in [-max o, top - min o]
    D = (p - 1 - a) * d
    reads = ((a * d, md[:, 1:]), (D, p * md[:, 1:] + (p - 1 - D)))
    before = [max(0, int(o.max())) for _, o in reads]
    sides = [b + max(deg + 1, top - int(o.min()) + 1) for b, (deg, o) in zip(before, reads)]
    copy_bytes = 8 * sum(side * side for side in sides)
    column = linalg_work_bytes(field, 3, 2 * g, 1)
    _check_work("Hasse-Witt matrix",
                copy_bytes + max(linalg_work_bytes(field, 3, g, g), column))
    width = (WORK_BUDGET_BYTES - copy_bytes) // column
    lo = poly_pow(curve.polys[0], a)
    hi = lo if 2 * a == p - 1 else poly_pow(curve.polys[0], p - 1 - a)
    cube = lo._cube()
    cubes = (cube, (cube if hi is lo else hi._cube())[::-1, ::-1])
    _, z1, z2 = exponent_array(3, top).T
    bordered, zf, of = [], [], []
    for cube, (_, o), b, side in zip(cubes, reads, before, sides):
        bordered.append(_bordered(cube, b, side))
        zf.append(z1 * side + z2 + b * (side + 1))
        of.append(o[:, 0] * side + o[:, 1])
    A = np.zeros((g, g), DTYPE)
    for start in range(0, len(z1), width):
        L, R = (c.take(f[None, start:start + width] - o[:, None])
                for c, f, o in zip(bordered, zf, of))
        A = field.add(A, field.matmul(L, R.T))
    return A


def _bordered(cube, before: int, side: int):
    """A side x side array of zeros holding the square cube at (before, before)."""
    out = np.zeros((side, side), DTYPE)
    out[before:before + len(cube), before:before + len(cube)] = cube
    return out


def _frob_times(curve: CurveCI, F: GradedPoly, rows):
    """Rows of F * Frob(t) for the degree -d classes t given as rows. In
    shifted exponents (F * Frob(t))_c = sum over s of sigma(t_s) F[p*s+p-1-c],
    so no Frobenius image is formed. As d >= n+1, the |T_-d| x |T_(deg F-p*d)|
    gather is no larger than the relation-space matrix ``curve.mu`` guards."""
    field, p, nvars = curve.field, curve.field.p, curve.nvars
    src = exponent_array(nvars, curve.d - nvars)
    tgt = exponent_array(nvars, p * curve.d - F.degree - nvars)
    return field.matmul(field.frob(rows, 1), gather(F, (p * src + p - 1)[:, None] - tgt[None]))


def _hw_general_matrix(curve: CurveCI):
    qb = ci_q_basis(curve)
    return qb.coords_of(_frob_times(curve, curve._product_pm1, qb.rows)).T


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


def u_generator(curve: CurveCI):
    """The duality's relation-space generator, computed once (``CurveCI.u``)."""
    return curve.u


def psi_matrix(curve: CurveCI, A_phi, kappa, u):
    """Columns are the second operator's values on the twisted kernel basis,
    written in the dual of the Q basis."""
    g = A_phi.shape[0]
    kappa = np.asarray(kappa, DTYPE)
    h = kappa.shape[0]
    if h == 0:
        return np.zeros((g, 0), DTYPE)
    if curve.n == 2:
        return _psi_plane(curve, kappa, u)
    return _psi_general(curve, kappa, u)


def _psi_plane(curve: CurveCI, kappa, u):
    field, p, d = curve.field, curve.field.p, curve.d
    mu = curve._mu_of(u)
    md = exponent_array(3, d - 3)
    big = exponent_array(3, 2 * d - 3)
    # C[j, i] = coefficient of X^(p*m_j + p - 1 - M_i) in f^(p-2)
    C = gather(curve._powers_pm2[0], p * md[:, None] + (p - 1) - big[None])
    K = field.matmul(kappa, C)
    _assert_tuple_relations(curve, K.T)
    # transpose(A_psi) . transpose(mu) = kappa . C
    return solve_matrix(field, mu, K.T)


def _psi_general(curve: CurveCI, kappa, u):
    """Column j is theta of (F_l * Frob(tau(kappa_j) . Q))_l, F_l = curve._products_pm1_over[l]."""
    field, d = curve.field, curve.d
    rows = field.matmul(field.frob(kappa, -1), ci_q_basis(curve).rows)
    comps = [_frob_times(curve, F, rows).T for F in curve._products_pm1_over]
    if any(field.matmul(tmul_matrix(f, -d - f_l.degree), comp).any()
           for comp, f_l in zip(comps, curve.polys) for f in curve.polys):
        raise InternalInvariantError("second operator image left the curve's dual module")
    xi_cols = np.vstack(comps)
    _assert_tuple_relations(curve, xi_cols)
    return _dual_coords(curve, curve._mu_of(u), xi_cols)


def _assert_tuple_relations(curve: CurveCI, xi_cols):
    """Each column, a stacked tuple in degrees -d - deg f_l, must satisfy
    sum_l (d f_l / dX_j) * xi_l = 0 for every j."""
    M = _derivative_matrix(curve, [-curve.d - f.degree for f in curve.polys])
    if curve.field.matmul(M, xi_cols).any():
        raise InternalInvariantError(
            "second operator image violates the derivative relations")


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
    return curve.field.matmul(ci_q_basis(curve).rows, solve_matrix(curve.field, mu, xi_cols))


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
        """ordinary (h = 0), superspecial (first operator zero) or interesting."""
        if self.h == 0:
            return "ordinary"
        return "interesting" if self.A_phi.any() else "superspecial"

    def validate(self):
        field, g, h = self.field, self.g, self.h
        if self.A_phi.shape != (g, g) or self.A_psi.shape != (g, h):
            raise InternalInvariantError("triple matrices have inconsistent shapes")
        if not np.array_equal(rref(field, self.kappa)[0], self.kappa):
            raise InternalInvariantError("kernel basis is not in echelon form")
        if self.kappa.shape[0] and np.count_nonzero(
                field.matmul(self.A_phi, self.kappa.T)):
            raise InternalInvariantError("kernel basis is not in the null space")
        if rank(field, self.A_psi) != h:
            raise InternalInvariantError("second operator is not injective")
        if h and np.count_nonzero(field.matmul(self.A_psi.T, self.A_phi)):
            raise InternalInvariantError(
                "second operator does not annihilate the image of the first")

    def __repr__(self):
        return f"HWTriple(g={self.g}, h={self.h}, tag={self.fast_tag})"


def hw_triple(curve: CurveCI, check_smooth: bool = True) -> HWTriple:
    """Full pipeline from a curve to its Hasse-Witt triple. For n >= 3,
    dim Q = g, dim U = 1 and a perfect pairing are checked first, also at h = 0."""
    field = curve.field
    g = genus(curve)
    if curve.n >= 3:
        curve.mu
    if check_smooth and not plane_smoothness_check(curve):
        raise SingularCurveError(f"the {'plane' if curve.n == 2 else 'space'} curve is singular")
    A_phi = hasse_witt_matrix(curve)
    kappa = null_space(field, A_phi)
    if kappa.shape[0]:
        A_psi = psi_matrix(curve, A_phi, kappa, u_generator(curve))
    else:
        A_psi = np.zeros((g, 0), DTYPE)
    return HWTriple(field, g, A_phi, kappa, A_psi)
