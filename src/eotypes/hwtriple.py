"""Hasse-Witt triples of complete intersection curves.

For a smooth curve cut out by forms f_1..f_(n-1) in P^n (char p not dividing
any degree), the triple consists of the space Q of dual classes in degree -d,
the Hasse-Witt operator on it, and the second operator from the kernel of the
first into the annihilator of its image. The plane-curve path extracts both
operators by pure coefficient bookkeeping in f^(p-1) and f^(p-2); the general
path multiplies classes through the dual module directly.
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import comb, prod

import numpy as np

from .errors import ConstraintError, InternalInvariantError, SingularCurveError
from .gf import DTYPE, GF
from .polyring import (WORK_BUDGET_BYTES, GradedPoly, TClass, exponent_array, gather,
                       linalg_work_bytes, partial_derivative, poly_mul, poly_pow,
                       power_work_bytes, t_multiply, tmul_matrix)
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
        # p*d bounds the degree of every cube the curve builds: f^(p-2),
        # (f_1...f_(n-1))^(p-1) and the Frobenius images of degree -p*d
        _check_work("powers", power_work_bytes(field, nvars, field.p * self.d))

    def __repr__(self):
        return f"CurveCI(P^{self.n}, degrees={self.degrees}, {self.field!r})"

    @cached_property
    def _powers_pm2(self):
        """f_i^(p-2) for each defining form."""
        return tuple(poly_pow(f, self.field.p - 2) for f in self.polys)

    @cached_property
    def _powers_pm1(self):
        """f_i^(p-1), each formed as f_i * f_i^(p-2); the general path only
        (the plane path reads the coefficients it needs off f^(p-2))."""
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
    def u(self):
        """Generator of the one-dimensional relation space behind the
        duality, as a tuple of T-classes (one per defining form), first
        nonzero coordinate normalized to 1."""
        field, nvars, d, n = self.field, self.nvars, self.d, self.n
        src_degrees = [n + 1 - 2 * d - f.degree for f in self.polys]
        sizes = [TClass.basis_size(nvars, m) for m in src_degrees]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        rows = nvars * TClass.basis_size(nvars, n - 2 * d)
        if n >= 3:
            rows += sum(TClass.basis_size(nvars, m + f.degree)
                        for m in src_degrees for f in self.polys)
        _check_work("relation space", linalg_work_bytes(field, nvars, rows, int(offsets[-1])))
        blocks = [_derivative_matrix(self, src_degrees)]
        if n >= 3:
            # membership of each component in the curve's dual module
            for ell, m in enumerate(src_degrees):
                for f in self.polys:
                    block = np.zeros((TClass.basis_size(nvars, m + f.degree),
                                      int(offsets[-1])), DTYPE)
                    block[:, offsets[ell]:offsets[ell + 1]] = tmul_matrix(f, m)
                    blocks.append(block)
        kernel = null_space(field, np.vstack(blocks))
        if kernel.shape[0] != 1:
            raise SingularCurveError(
                f"curve fails smoothness necessary condition: dim U = {kernel.shape[0]} != 1")
        vec = kernel[0]
        first = int(np.nonzero(vec)[0][0])
        vec = field.mul(vec, field.inv_scalar(int(vec[first])))
        return tuple(TClass(field, nvars, m, vec[offsets[i]:offsets[i + 1]])
                     for i, m in enumerate(src_degrees))

    @cached_property
    def mu(self):
        """Pairing matrix of the generator u (``pairing_matrix``)."""
        return pairing_matrix(self, self.u)


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
    """True iff the partials of f generate everything in degree 3d-5,
    i.e. they have no common projective zero."""
    if curve.n != 2:
        raise ConstraintError("smoothness check only implemented for plane curves")
    f = curve.polys[0]
    # one row per monomial of degree 3d-5, one column per partial derivative
    # and monomial of degree 2d-4
    _check_work("smoothness check", linalg_work_bytes(
        curve.field, 3, comb(3 * f.degree - 3, 2), 3 * comb(2 * f.degree - 2, 2)))
    target = exponent_array(3, 3 * f.degree - 5)
    diffs = target[:, None] - exponent_array(3, 2 * f.degree - 4)[None]
    cols = np.hstack([gather(partial_derivative(f, j), diffs) for j in range(3)])
    return rank(curve.field, cols) == len(target)


def ci_q_basis(curve: CurveCI) -> Subspace:
    """Echelon basis of Q, computed once per curve (``CurveCI.q_basis``)."""
    return curve.q_basis


def hasse_witt_matrix(curve: CurveCI):
    """Matrix of the Hasse-Witt operator: left action, twist 1."""
    if curve.n == 2:
        return _hw_plane_matrix(curve)
    return _hw_general_matrix(curve)


def _hw_plane_matrix(curve: CurveCI):
    field, p = curve.field, curve.field.p
    f = curve.polys[0]
    md = exponent_array(3, curve.d - 3)
    g = len(md)
    support = np.flatnonzero(f.coeffs)
    _check_work("Hasse-Witt matrix", linalg_work_bytes(field, 3, g * g, len(support)))
    # A[i, j] = coefficient of e_ij = p*m_j + p - 1 - m_i in f^(p-1) = f * f^(p-2),
    # that is sum over the terms c_t X^t of f of c_t [f^(p-2)]_(e_ij - t)
    e = p * md[None] + (p - 1) - md[:, None]
    shifted = gather(curve._powers_pm2[0], e[:, :, None] - exponent_array(3, f.degree)[support])
    return field.matmul(shifted.reshape(g * g, -1), f.coeffs[support, None]).reshape(g, g)


def _hw_general_matrix(curve: CurveCI):
    field, nvars, d = curve.field, curve.nvars, curve.d
    qb = ci_q_basis(curve)
    F = curve._product_pm1
    cols = []
    for row in qb.rows:
        t = TClass(field, nvars, -d, row)
        image = t_multiply(F, t.frobenius())
        cols.append(qb.coords_of(image.coeffs))
    return np.array(cols, DTYPE).T


def _derivative_matrix(curve: CurveCI, src_degrees):
    """Matrix of the tuple (xi_l) in degrees src_degrees to the tuple over j
    of sum_l (d f_l / dX_j) * xi_l, on stacked coefficient vectors."""
    return np.vstack([np.hstack([tmul_matrix(partial_derivative(f, j), m)
                                 for f, m in zip(curve.polys, src_degrees)])
                      for j in range(curve.nvars)])


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
    mu = pairing_matrix(curve, u)
    md = exponent_array(3, d - 3)
    big = exponent_array(3, 2 * d - 3)
    # C[j, i] = coefficient of X^(p*m_j + p - 1 - M_i) in f^(p-2)
    C = gather(curve._powers_pm2[0], p * md[:, None] + (p - 1) - big[None])
    K = field.matmul(kappa, C)
    _assert_tuple_relations(curve, K.T)
    # transpose(A_psi) . transpose(mu) = kappa . C
    return solve_matrix(field, mu, K.T)


def _psi_general(curve: CurveCI, kappa, u):
    field, nvars, d = curve.field, curve.nvars, curve.d
    qb = ci_q_basis(curve)
    cols = []
    for kap in kappa:
        tau_kap = field.frob(kap, -1)
        vec = field.matmul(tau_kap[None, :], qb.rows)[0]
        t = TClass(field, nvars, -d, vec).frobenius()
        xi = tuple(t_multiply(F, t) for F in curve._products_pm1_over)
        for comp in xi:
            _assert_in_dual_module(curve, comp)
        _assert_tuple_relations(curve, np.concatenate([comp.coeffs for comp in xi])[:, None])
        cols.append(theta_apply(curve, u, xi))
    return np.array(cols, DTYPE).T


def _assert_in_dual_module(curve: CurveCI, xi: TClass):
    for f in curve.polys:
        if not t_multiply(f, xi).is_zero():
            raise InternalInvariantError(
                "second operator image left the curve's dual module")


def _assert_tuple_relations(curve: CurveCI, xi_cols):
    """Each column, a stacked tuple in degrees -d - deg f_l, must satisfy
    sum_l (d f_l / dX_j) * xi_l = 0 for every j."""
    M = _derivative_matrix(curve, [-curve.d - f.degree for f in curve.polys])
    if curve.field.matmul(M, xi_cols).any():
        raise InternalInvariantError(
            "second operator image violates the derivative relations")


def pairing_matrix(curve: CurveCI, u):
    """Matrix mu whose column j is the stacked tuple monos[j] * u (degree
    d-n-1 monomials); a rank other than g raises ``SingularCurveError``."""
    field, nvars, k = curve.field, curve.nvars, curve.d - curve.n - 1
    monos = exponent_array(nvars, k)
    mu = np.vstack([gather(comp, exponent_array(nvars, comp.shifted_degree - k)[:, None]
                           + monos[None]) for comp in u])
    if rank(field, mu) != genus(curve):
        raise SingularCurveError("duality pairing is degenerate")
    return mu


def theta_apply(curve: CurveCI, u, xi):
    """Coordinates in the dual of the Q basis of a tuple class xi,
    through the perfect pairing fixed by the generator u."""
    field, qb = curve.field, ci_q_basis(curve)
    mu = curve.mu if u is curve.u else pairing_matrix(curve, u)
    xi_vec = np.concatenate([comp.coeffs for comp in xi])
    # the pairing of the degree d-n-1 monomials against the Q basis is qb.rows
    return field.matmul(qb.rows, solve_matrix(field, mu, xi_vec)[:, None])[:, 0]


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
    """Full pipeline from a curve to its Hasse-Witt triple."""
    field = curve.field
    if curve.n == 2 and check_smooth and not plane_smoothness_check(curve):
        raise SingularCurveError("the plane curve is singular")
    g = genus(curve)
    if curve.n >= 3:
        curve.mu  # dim U = 1 and a perfect pairing: necessary, also at h = 0
    A_phi = hasse_witt_matrix(curve)
    kappa = null_space(field, A_phi)
    if kappa.shape[0]:
        A_psi = psi_matrix(curve, A_phi, kappa, u_generator(curve))
    else:
        A_psi = np.zeros((g, 0), DTYPE)
    return HWTriple(field, g, A_phi, kappa, A_psi)
