import hashlib
import itertools

import numpy as np
import pytest

from conftest import (GOLDEN_TERMS, GOLDEN_U_SHIFTED, derivative_matrix_oracle, form_values,
                      full_product_frob_times, general_path_oracle, hasse_witt_trace,
                      integer_power_terms,
                      jacobian_smoothness_oracle, macaulay_smoothness_oracle,
                      module_action_catalecticant_oracle, pairing_matrix_oracle,
                      plane_catalecticant_oracle, point_count, product_pm1,
                      products_pm1_over, rational_singular_points)
from eotypes import (ConstraintError, CurveCI, GradedPoly, HWTriple, InternalInvariantError,
                     SingularCurveError, partial_derivative,
                     TClass, classify, field_new, genus, hasse_witt_matrix,
                     hw_triple, monomial_basis, plane_curve,
                     plane_smoothness_check, psi_matrix, rank, t_multiply,
                     theta_apply)
from eotypes import eoclass, hwtriple, polyring
from eotypes.cli import parse_poly
from eotypes.golden import GOLDEN_HW, GOLDEN_KAPPA, GOLDEN_PSI_COLS, GOLDEN_TEXT
from eotypes.hwtriple import (_catalecticant, _derivative_matrix, _derivative_plan, _frob_times,
                              _relation_matrix)
from eotypes.polyring import (WORK_BUDGET_BYTES, MonomialBasis, gather, linalg_work_bytes,
                              poly_mul, poly_pow, tmul_matrix)
from eotypes.semilinear import null_space


def fermat_curve(field, degree):
    return plane_curve(field, GradedPoly.from_terms(
        field, 3, {(degree, 0, 0): 1, (0, degree, 0): 1, (0, 0, degree): 1}))


def test_genus_fixtures(F5, golden_curve, ci_23_curve):
    assert genus(golden_curve) == 3
    assert genus(fermat_curve(F5, 3)) == 1
    assert genus(ci_23_curve) == 4


def test_curve_constraints(F5, F7):
    with pytest.raises(ConstraintError):  # p | d
        plane_curve(field_new(2), GradedPoly.from_terms(
            field_new(2), 3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
    with pytest.raises(ConstraintError):  # plane degree < 3
        plane_curve(F7, GradedPoly.from_terms(F7, 3, {(2, 0, 0): 1, (0, 2, 0): 1}))
    with pytest.raises(ConstraintError):  # wrong number of forms in P^3
        CurveCI(F5, [GradedPoly.from_terms(F5, 4, {(2, 0, 0, 0): 1})])


@pytest.mark.parametrize("call,message", [
    (lambda F: CurveCI(F, []), "a curve needs at least one defining form"),
    (lambda F: CurveCI(F, [GradedPoly.from_terms(F, 2, {(3, 0): 1, (0, 3): 1})]),
     "ambient projective dimension must be >= 2"),
    (lambda F: CurveCI(F, [fermat_curve(field_new(7), 3).polys[0]]),
     "defining forms live in different rings"),
], ids=["no-forms", "projective-line", "rings"])
def test_argument_checks(F5, call, message):
    with pytest.raises(ConstraintError, match=message):
        call(F5)


def test_forms_with_a_common_factor_fail_at_dim_q(F7):
    # X0^4 and X0^5 share X0^4, of degree n + 1 = 4: X0^5 = X0 * X0^4 lies
    # in the degree d-n-1 = 5 part of (X0^4), so the forms cut out one
    # dimension fewer there than a complete intersection, and dim Q = g + 1
    curve = CurveCI(F7, [GradedPoly.monomial(F7, 4, (4, 0, 0, 0)),
                         GradedPoly.monomial(F7, 4, (5, 0, 0, 0))])
    with pytest.raises(ConstraintError, match="not a complete intersection: "
                       "dim Q = 52 differs from the genus 51"):
        genus(curve)


def test_smoothness_fixtures(F5, F7, golden_curve):
    assert plane_smoothness_check(golden_curve) is True
    assert plane_smoothness_check(
        plane_curve(F5, GradedPoly.from_terms(F5, 3, {(4, 0, 0): 1}))) is False
    assert plane_smoothness_check(fermat_curve(F7, 4)) is True
    assert plane_smoothness_check(
        plane_curve(F5, GradedPoly.from_terms(F5, 3, {(4, 0, 0): 1, (0, 4, 0): 1}))) is False


def test_hasse_witt_golden(golden_curve):
    assert hasse_witt_matrix(golden_curve).tolist() == GOLDEN_HW


def test_hasse_witt_fermat_cubics(F5, F7):
    # multinomial oracle: coefficient of (X0 X1 X2)^(p-1) in (sum of cubes)^(p-1)
    cubes = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
    oracle7 = integer_power_terms(cubes, 6)
    assert oracle7[(6, 6, 6)] == 90 and 90 % 7 == 6
    assert hasse_witt_matrix(fermat_curve(F7, 3)).tolist() == [[6]]
    oracle5 = integer_power_terms(cubes, 4)
    assert (4, 4, 4) not in oracle5  # 3a = 4 has no solution
    assert hasse_witt_matrix(fermat_curve(F5, 3)).tolist() == [[0]]


def test_hasse_witt_fermat_quartic_f7_vanishes(F7):
    # every entry needs exponents divisible by 4 out of {6, 13, 5, 12}
    A = hasse_witt_matrix(fermat_curve(F7, 4))
    assert not A.any()


def test_ci_q_basis(F5, golden_curve, ci_23_curve):
    qb = golden_curve.q_basis
    assert qb.dim == 3
    assert np.array_equal(qb.rows, np.eye(3, dtype=np.int64))  # full dual piece
    assert ci_23_curve.q_basis.dim == 4


def test_u_generator_golden(F5, golden_curve):
    u = golden_curve.u
    assert len(u) == 1 and u[0].degree == -9
    expected = TClass.from_laurent_terms(
        F5, 3, {tuple(x - 7 for x in e): c for e, c in GOLDEN_U_SHIFTED.items()})
    assert u[0] == expected


def test_u_generator_fermat_quartic(F5):
    u = fermat_curve(F5, 4).u
    assert u[0] == TClass.from_laurent_terms(F5, 3, {(-3, -3, -3): 1})


def test_u_generator_singular_raises(F5):
    bad = plane_curve(F5, GradedPoly.from_terms(F5, 3, {(4, 0, 0): 1, (0, 4, 0): 1}))
    with pytest.raises(SingularCurveError):
        bad.u


def test_psi_golden(golden_triple):
    assert golden_triple.A_psi[:, 0].tolist() == GOLDEN_PSI_COLS[0]
    assert golden_triple.A_psi[:, 1].tolist() == GOLDEN_PSI_COLS[1]
    assert golden_triple.kappa.tolist() == GOLDEN_KAPPA
    assert golden_triple.fast_tag == "interesting"


def test_psi_empty_for_ordinary(F7):
    t = hw_triple(fermat_curve(F7, 3))
    assert t.fast_tag == "ordinary"
    assert t.A_psi.shape == (1, 0)


def test_psi_fermat_quartic_f7_invertible(F7):
    t = hw_triple(fermat_curve(F7, 4))
    assert t.fast_tag == "superspecial"
    assert t.A_psi.shape == (3, 3)
    assert rank(F7, t.A_psi) == 3


def test_u_rescaling_scales_psi_inversely(F5, golden_curve, golden_triple):
    u = golden_curve.u
    for lam in (2, 3, 4):
        scaled = tuple(comp.scale(lam) for comp in u)
        psi = psi_matrix(golden_curve, golden_triple.kappa, scaled)
        inv = F5.inv_scalar(lam)
        assert np.array_equal(psi, F5.mul(golden_triple.A_psi, inv))


def test_pairing_dual_basis_identity(F5, golden_curve):
    """Multiplying the basis monomials against the dual classes realizes the
    identity pairing matrix in the plane case."""
    d = golden_curve.d
    md = monomial_basis(3, d - 3).monomials
    qb = golden_curve.q_basis
    P = np.zeros((3, 3), np.int64)
    for i, row in enumerate(qb.rows):
        q = TClass(F5, 3, -d, row)
        for j, mono in enumerate(md):
            out = t_multiply(GradedPoly.monomial(F5, 3, mono), q)
            P[i, j] = out.coeffs[0]
    assert np.array_equal(P, np.eye(3, dtype=np.int64))


def test_theta_apply_plane_dual_basis(F5, golden_curve):
    u = golden_curve.u
    for i, mono in enumerate(monomial_basis(3, 1).monomials):
        xi = tuple(t_multiply(GradedPoly.monomial(F5, 3, mono), comp) for comp in u)
        coords = theta_apply(golden_curve, u, xi)
        expected = np.zeros(3, np.int64)
        expected[i] = 1
        assert np.array_equal(coords, expected)


def test_theta_apply_rejects_degenerate_pairing(golden_curve, ci_23_curve):
    for curve in (golden_curve, ci_23_curve):
        zero = tuple(TClass.zero(curve.field, curve.nvars, comp.degree)
                     for comp in curve.u)
        with pytest.raises(SingularCurveError, match="duality pairing is degenerate"):
            theta_apply(curve, zero, zero)


def test_plane_and_general_paths_agree(F5, F7, F9, golden_curve):
    """On plane curves the Hasse-Witt matrix read off the half powers equals
    the gather from the whole f^(p-1) (conftest's full-product oracle), and
    the second operator agrees with the dense Frobenius-class route
    (conftest's general_path_oracle): the golden quartic plus seeded random
    smooth quartics and quintics."""
    rng = np.random.default_rng(11)
    curves = [golden_curve]
    for field in (F5, F7, F9):
        for d in (4, 5):
            if d % field.p == 0:
                continue
            size = len(monomial_basis(3, d))
            for _ in range(8):
                curve = plane_curve(field, GradedPoly(
                    field, 3, d, field.random_elements(rng, (size,))))
                if plane_smoothness_check(curve):
                    curves.append(curve)
    with_kernel = 0
    for curve in curves:
        t = hw_triple(curve)
        A_gen = full_product_frob_times(curve, product_pm1(curve), curve.q_basis.rows)
        assert np.array_equal(A_gen, t.A_phi)
        kappa = null_space(curve.field, A_gen)
        if kappa.shape[0]:
            with_kernel += 1
            assert np.array_equal(general_path_oracle(curve)[2], t.A_psi)
    assert (len(curves), with_kernel) == (36, 6)


def test_general_path_matches_frobenius_class_oracle(F4, F5, F7, F9):
    """The split reads give the triple of the route through dense Frobenius
    T-classes (conftest's general_path_oracle) on seeded space curves, and
    on plane quartics over GF(3^2)."""
    F3 = field_new(3)
    plan = [((2, 3), F5, 10), ((2, 3), F7, 6), ((2, 4), F9, 3), ((3, 3), F4, 12),
            ((2, 2, 2), F3, 10), ((2, 2, 2), F9, 4), ((4,), F9, 30)]
    rng = np.random.default_rng(1)
    classified, with_kernel = [], []
    for degrees, field, count in plan:
        nvars = len(degrees) + 2
        for _ in range(count):
            curve = CurveCI(field, [GradedPoly(field, nvars, d, field.random_elements(
                rng, (len(monomial_basis(nvars, d)),))) for d in degrees])
            try:
                t = hw_triple(curve)
            except SingularCurveError:
                continue
            A_phi, kappa, A_psi = general_path_oracle(curve)
            assert np.array_equal(hasse_witt_matrix(curve), A_phi)
            assert np.array_equal(t.A_phi, A_phi) and np.array_equal(t.kappa, kappa)
            if t.h:
                assert np.array_equal(psi_matrix(curve, kappa, curve.u), A_psi)
                with_kernel.append(field.m)
            assert np.array_equal(t.A_psi, A_psi)
            classified.append(field.m)
    # curves classified, those with h > 0, and those of them over GF(p^2)
    assert (len(classified), len(with_kernel), with_kernel.count(2)) == (60, 17, 8)


def test_psi_general_refuses_image_outside_dual_module(ci_23_curve):
    """A vector outside the kernel sends the second operator's image out of
    the curve's dual module, off the relations of U, and the check says so."""
    with pytest.raises(InternalInvariantError,
                       match="second operator image violates the relations of U"):
        psi_matrix(ci_23_curve, [[1, 0, 0, 0]], ci_23_curve.u)


def test_psi_plane_refuses_image_off_derivative_relations(golden_curve):
    """A vector outside the golden quartic's kernel gives an image that
    leaves the dual module, so by Euler's identity it also breaks the
    derivative relations, and the one check of the relations of U says so."""
    with pytest.raises(InternalInvariantError,
                       match="second operator image violates the relations of U"):
        psi_matrix(golden_curve, np.array([[0, 0, 1]]), golden_curve.u)


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (3, 2), (5, 2)])
def test_plane_derivative_relations_imply_dual_module_membership(p, m):
    """By Euler's identity d * f = sum_j X_j * df/dX_j, and p not dividing
    d, the derivative relations give f * xi = 0, so a plane curve's
    relation matrix has no membership rows. On seeded plane curves of
    degree 3..6, every null-space vector of the derivative rows at the
    second operator's degree -2d is killed by tmul_matrix(f, -2d)."""
    field = field_new(p, m)
    rng = np.random.default_rng(10 * p + m)
    for d in (d for d in range(3, 7) if d % p):
        f = GradedPoly(field, 3, d, field.random_elements(rng, (len(monomial_basis(3, d)),)))
        curve = plane_curve(field, f)
        relations = _relation_matrix(curve, [-2 * d], "second operator")
        assert np.array_equal(relations, _derivative_matrix(curve, [-2 * d]))
        kernel = null_space(field, relations)
        assert kernel.shape[0] > 0
        assert not field.matmul(tmul_matrix(f, -2 * d), kernel.T).any()


def test_space_curve_derivative_relations_miss_dual_module_membership(ci_23_curve):
    """With several forms Euler's identity gives only
    sum_l deg f_l * (f_l * xi_l) = 0: on the (2,3) curve the derivative
    rows alone admit tuples outside the dual module at the degrees of U
    and of the second operator's image, so its relation matrix keeps the
    membership rows, and U is one-dimensional only with them."""
    curve, field = ci_23_curve, ci_23_curve.field
    for degrees in (curve._relation_degrees, [-curve.d - f.degree for f in curve.polys]):
        kernel = null_space(field, _derivative_matrix(curve, degrees))
        assert field.matmul(_relation_matrix(curve, degrees, "relation space"), kernel.T).any()
    relations = _relation_matrix(curve, curve._relation_degrees, "relation space")
    assert null_space(field, relations).shape[0] == 1


def test_triple_refuses_kernel_short_of_the_null_space(F5):
    """kappa must span the whole null space of A_phi: h = g - rank A_phi.
    A zero A_phi with a one-row kernel in echelon form, in the null space
    and with an injective second operator, is refused."""
    with pytest.raises(InternalInvariantError,
                       match="kernel basis does not span the null space"):
        HWTriple(F5, 2, np.zeros((2, 2), int), [[1, 0]], [[1], [0]])
    assert HWTriple(F5, 2, np.zeros((2, 2), int), np.eye(2, dtype=int), np.eye(2, dtype=int)).h == 2


# Each case corrupts one matrix of the golden triple, A_phi = [[0, 4, 1],
# [0, 2, 3], [0, 2, 3]], kappa = [[1, 0, 0], [0, 1, 1]], so that exactly
# one check fails: the earlier checks all hold.
@pytest.mark.parametrize("corrupt,message", [
    ({"A_phi": np.array(GOLDEN_HW)[:, :2]}, "triple matrices have inconsistent shapes"),
    ({"kappa": np.array(GOLDEN_KAPPA)[::-1]}, "kernel basis is not in echelon form"),
    ({"kappa": [[1, 0, 0], [0, 1, 0]]}, "kernel basis is not in the null space"),
    ({"A_psi": [[3, 3], [1, 1], [3, 3]]}, "second operator is not injective"),
    ({"A_psi": [[1, 0], [0, 1], [0, 0]]},
     "second operator does not annihilate the image of the first"),
], ids=["shapes", "echelon", "null-space", "injective", "annihilates-image"])
def test_triple_checks_fire(F5, golden_triple, corrupt, message):
    parts = {"A_phi": golden_triple.A_phi, "kappa": golden_triple.kappa,
             "A_psi": golden_triple.A_psi, **corrupt}
    with pytest.raises(InternalInvariantError, match=message):
        HWTriple(F5, 3, parts["A_phi"], parts["kappa"], parts["A_psi"])


def test_triple_invariants_random_smooth_curves():
    rng = np.random.default_rng(77)
    checked = 0
    for p in (5, 7, 11):
        field = field_new(p)
        for d in (4, 5):
            if d % p == 0:
                continue
            basis = monomial_basis(3, d)
            g = (d - 1) * (d - 2) // 2
            trials = 0
            while trials < 6:
                f = GradedPoly(field, 3, d, rng.integers(0, p, len(basis)))
                curve = plane_curve(field, f)
                if not plane_smoothness_check(curve):
                    continue
                trials += 1
                t = hw_triple(curve)
                assert t.g == g == curve.q_basis.dim
                assert rank(field, t.A_psi) == t.h
                if t.h:
                    assert not field.matmul(t.A_psi.T, t.A_phi).any()
                checked += 1
    assert checked == 30


def test_ci_23_triple(ci_23_curve):
    t = hw_triple(ci_23_curve)
    assert t.g == 4
    u = ci_23_curve.u
    assert len(u) == 2
    assert t.fast_tag == "ordinary"


def test_ci_interesting_fixture(F5):
    """(2,3) intersection with a nontrivial kernel, exercising the general
    second-operator path."""
    rng = np.random.default_rng(2024)
    b2, b3 = ({e: i for i, e in enumerate(monomial_basis(4, d).monomials)} for d in (2, 3))
    for _ in range(3):  # seed 2024 hits h = 1 on the third draw
        f1 = GradedPoly(F5, 4, 2, rng.integers(0, 5, len(b2)))
        f2 = GradedPoly(F5, 4, 3, rng.integers(0, 5, len(b3)))
    curve = CurveCI(F5, [f1, f2])
    t = hw_triple(curve)
    assert t.g == 4 and t.h == 1 and t.fast_tag == "interesting"
    assert rank(F5, t.A_psi) == 1
    assert not F5.matmul(t.A_psi.T, t.A_phi).any()


def test_genus_zero_rejected(F5):
    # a plane conic is blocked before the genus computation
    with pytest.raises(ConstraintError):
        plane_curve(F5, GradedPoly.from_terms(F5, 3, {(2, 0, 0): 1, (0, 1, 1): 1}))


def test_classification_invariant_under_base_extension(F9):
    """A curve defined over the prime field classifies identically over an
    extension: the invariants are geometric."""
    from eotypes import classify
    F3 = field_new(3)
    quartic = {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    r3 = classify(plane_curve(F3, GradedPoly.from_terms(F3, 3, quartic)))
    r9 = classify(plane_curve(F9, GradedPoly.from_terms(F9, 3, quartic)))
    assert r3.weyl == r9.weyl and r3.final_type == r9.final_type


def test_extension_field_curve_pipeline(F9):
    """Quartics with coefficients outside the prime field run the whole
    twist-sensitive pipeline; seed 99 hits a nontrivial kernel."""
    from eotypes import (assemble_dm, classify, final_type_from_AF,
                         final_type_from_FV, full_fv_matrices)
    rng = np.random.default_rng(99)
    basis = monomial_basis(3, 4)
    tags = []
    done = 0
    while done < 4:
        f = GradedPoly(F9, 3, 4, F9.random_elements(rng, (len(basis),)))
        curve = plane_curve(F9, f)
        if not plane_smoothness_check(curve):
            continue
        done += 1
        t = hw_triple(curve)
        res = classify(t)
        dm = assemble_dm(t)
        full_F, full_V = full_fv_matrices(dm)
        assert final_type_from_AF(dm) == \
            final_type_from_FV(full_F, full_V, F9) == res.final_type
        tags.append(t.fast_tag)
    assert "interesting" in tags


@pytest.mark.parametrize("p,m,degrees", [
    (5, 1, (3, 4, 6, 7)), (31, 1, (3, 4, 5, 6, 7)), (3, 2, (4, 5, 7)), (2, 1, (3, 5, 7)),
    (3, 1, (4, 5, 7)), (7, 1, (3, 4, 5, 6)), (101, 1, (3, 4, 5, 6, 7)), (2, 2, (3, 5, 7)),
    (7, 3, (3, 4, 5, 6)), (31, 2, (3, 4, 5, 6, 7))])
def test_hw_plane_matrix_matches_full_product(p, m, degrees):
    """The plane Hasse-Witt matrix read off the half powers equals the
    gather from the full product f * f^(p-2) it replaces, on random forms,
    the Fermat curve of each degree and, over GF(5), the golden quartic."""
    field = field_new(p, m)
    rng = np.random.default_rng(97 * p + m)
    for d in degrees:
        md = monomial_basis(3, d - 3).exps
        forms = [GradedPoly(field, 3, d, field.random_elements(rng, (len(monomial_basis(3, d)),)))
                 for _ in range(4)] + [fermat_curve(field, d).polys[0]]
        if (p, m, d) == (5, 1, 4):
            forms.append(GradedPoly.from_terms(field, 3, GOLDEN_TERMS))
        for f in forms:
            full = poly_mul(f, poly_pow(f, p - 2))
            expected = gather(full, p * md[None] + (p - 1) - md[:, None])
            assert np.array_equal(hasse_witt_matrix(plane_curve(field, f)), expected)


@pytest.mark.parametrize("p,m,degrees", [
    (2, 1, (3,)), (2, 1, (5,)), (3, 1, (4,)), (3, 1, (5,)), (5, 1, (4,)), (7, 1, (4,)),
    (7, 1, (5,)), (13, 1, (4,)), (31, 1, (4,)), (101, 1, (4,)), (3, 2, (4,)), (7, 3, (4,)),
    (31, 2, (4,)), (5, 1, (2, 3)), (7, 1, (2, 3)), (3, 2, (2, 4)), (2, 2, (3, 3)),
    (2, 1, (3, 3)), (3, 1, (2, 2, 2)), (5, 1, (2, 2, 2))],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_split_read_matches_full_product_oracle(p, m, degrees):
    """A_phi and each psi_l table, read off two factor powers, equal the
    gather from the whole product F_l (conftest's full-product oracle) on
    three seeded curves: plane curves at p = 2, 3, 5, 7, 13, 31 and 101, so
    that (p-1)/2 takes both parities, and over GF(3^2), GF(7^3) and
    GF(31^2); (2,3), (2,4), (3,3) and (2,2,2) curves. The psi tables are
    taken on the Q basis rows, so every curve runs them, whatever its h."""
    for seed in range(3):
        curve = _seeded_curve(p, m, degrees, 10 * seed + len(degrees))
        qb = curve.q_basis
        expected = full_product_frob_times(curve, product_pm1(curve), qb.rows)
        assert np.array_equal(hasse_witt_matrix(curve), qb.coords_of(expected.T).T)
        for ell, F in enumerate(products_pm1_over(curve)):
            table = _frob_times(curve, curve._split(ell, p - 2), qb.rows, "second operator")
            assert np.array_equal(table, full_product_frob_times(curve, F, qb.rows))


# (p, m, d, curves): p = 2, p = 1 and 3 (mod 4), so that (p-1)/2 is even and
# odd, degrees up to 7, and extension fields
PINNED_PLANE_CASES = [
    (2, 1, 5, 12), (3, 1, 4, 15), (5, 1, 4, 20), (7, 1, 4, 15), (13, 1, 4, 12), (17, 1, 5, 8),
    (29, 1, 4, 8), (31, 1, 5, 8), (37, 1, 4, 8), (53, 1, 4, 8), (101, 1, 4, 8), (11, 1, 6, 6),
    (31, 1, 6, 4), (13, 1, 7, 3), (3, 2, 4, 10), (5, 2, 4, 10), (7, 2, 5, 6), (7, 3, 4, 6),
    (31, 2, 4, 6)]


def test_plane_triples_pinned():
    """Seeded random plane curves keep their outputs: the SHA-256 of every
    A_phi, kappa, A_psi, tag and Weyl coset, or of the rejection, in order."""
    digest, tags = hashlib.sha256(), {}
    for p, m, d, count in PINNED_PLANE_CASES:
        field = field_new(p, m)
        rng = np.random.default_rng(1000 * p + 10 * m + d)
        for _ in range(count):
            f = GradedPoly(field, 3, d, field.random_elements(rng, (len(monomial_basis(3, d)),)))
            try:
                t = hw_triple(plane_curve(field, f))
            except SingularCurveError:
                digest.update(b"singular;")
                tags["singular"] = tags.get("singular", 0) + 1
                continue
            for M in (t.A_phi, t.kappa, t.A_psi):
                digest.update(repr(M.shape).encode() + M.astype("<i8").tobytes())
            digest.update(f"{t.fast_tag}{classify(t).weyl.one_line};".encode())
            tags[t.fast_tag] = tags.get(t.fast_tag, 0) + 1
    assert tags == {"ordinary": 133, "interesting": 12, "singular": 28}
    assert digest.hexdigest() == (
        "a215079b05d5db780c5151fcab0f523215554a684b133880ca4601c2f23020b8")


# (p, degrees, curves): (2,3) curves in P^3 and (2,2,2) curves in P^4, each
# case with at least one curve of h > 0 over GF(7), GF(11) or GF(3); their
# products run on 3- and 4-axis cubes, most of them by FFT
PINNED_SPACE_CASES = [
    (7, (2, 3), 12), (11, (2, 3), 8), (31, (2, 3), 1), (3, (2, 2, 2), 12), (7, (2, 2, 2), 2)]


def test_space_triples_pinned():
    """Seeded random space curves keep their outputs: the SHA-256 of every
    A_phi, kappa, A_psi, tag and Weyl coset, or of the rejection, in order."""
    digest, tags = hashlib.sha256(), {}
    for p, degrees, count in PINNED_SPACE_CASES:
        field, nvars = field_new(p), len(degrees) + 2
        rng = np.random.default_rng(100 * p + nvars)
        for _ in range(count):
            try:
                t = hw_triple(_random_curve(field, nvars, degrees, rng))
            except SingularCurveError as exc:
                digest.update(f"rejected: {exc};".encode())
                tags["rejected"] = tags.get("rejected", 0) + 1
                continue
            for M in (t.A_phi, t.kappa, t.A_psi):
                digest.update(repr(M.shape).encode() + M.astype("<i8").tobytes())
            digest.update(f"{t.fast_tag}{classify(t).weyl.one_line};".encode())
            key = f"{t.fast_tag} n={nvars - 1}" if t.h else t.fast_tag
            tags[key] = tags.get(key, 0) + 1
    assert tags == {"ordinary": 20, "interesting n=3": 2, "interesting n=4": 2, "rejected": 11}
    assert digest.hexdigest() == (
        "64625e6bd72f157d2bc21cfce4f6c306f7181568066538cc91f6d7dc5ea7875f")


def test_plane_path_forms_half_power_unless_psi_runs(monkeypatch, F5):
    """An ordinary plane curve forms no power above (p-1)/2; a curve with
    h > 0 forms f^(p-2-a) beside it for the second operator, a = (p-1)/2,
    and never f^(p-2): at p = 5, f^1."""
    formed = []
    original = hwtriple.poly_pow
    monkeypatch.setattr(hwtriple, "poly_pow", lambda f, e: formed.append(e) or original(f, e))
    field = field_new(101)
    rng = np.random.default_rng(0)
    curve = plane_curve(field, GradedPoly(field, 3, 4, field.random_elements(rng, (15,))))
    assert hw_triple(curve).fast_tag == "ordinary"
    assert formed == [50]
    formed.clear()
    assert hw_triple(plane_curve(F5, GradedPoly.from_terms(F5, 3, GOLDEN_TERMS))).h > 0
    assert formed == [2, 1]


class _CountedReads(np.ndarray):
    """A bordered copy that records the width of every take from it."""

    widths = None

    def take(self, indices, *args, **kwargs):
        self.widths.append(indices.shape[1])
        return np.asarray(self).take(indices, *args, **kwargs)


class _RecordedNumpy:
    """numpy as hwtriple sees it, with every zero cube of the given number
    of axes kept and its takes counted: the split reader's bordered
    copies."""

    def __init__(self, axes):
        self.axes, self.copies, self.widths = axes, [], []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype=float):
        out = np.zeros(shape, dtype)
        if np.ndim(shape) == 1 and len(shape) == self.axes and len(set(shape)) == 1:
            out = out.view(_CountedReads)
            out.widths = self.widths
            self.copies.append(out)
        return out


def _record_split_reads(monkeypatch, curve):
    """Keep the split reader's copies and count their reads."""
    recorded = _RecordedNumpy(curve.nvars - 1)
    monkeypatch.setattr(hwtriple, "np", recorded)
    return recorded


def _seeded_curve(p, m, degrees, seed):
    field = field_new(p, m)
    if len(degrees) == 1:
        return plane_curve(field, GradedPoly(field, 3, degrees[0], field.random_elements(
            np.random.default_rng(seed), (len(monomial_basis(3, degrees[0])),))))
    return _random_curve(field, len(degrees) + 2, degrees, np.random.default_rng(seed))


@pytest.mark.parametrize("p,m,d", [(2, 1, 5), (31, 1, 5), (3, 2, 4), (7, 3, 4),
                                   pytest.param(31, 1, (2, 3), id="31-1-(2,3)")])
def test_hw_plane_matrix_in_column_blocks_matches_one_block(monkeypatch, p, m, d):
    """With a work budget that fits the two bordered copies and half of the
    columns of L and R, the block sum equals the one-block matrix, on
    plane curves and a (2,3) curve. Both blocks read the same two copies,
    and each formed power has its cube built once, not once per block."""
    curve = _seeded_curve(p, m, d if isinstance(d, tuple) else (d,), p + sum(np.atleast_1d(d)))
    field, nvars = curve.field, curve.nvars
    g = TClass.basis_size(nvars, -curve.d)
    split = curve._split(curve.degrees.index(max(curve.degrees)), p - 1)
    columns = len(monomial_basis(nvars, min(split)[0] + curve.d - nvars))
    recorded = _record_split_reads(monkeypatch, curve)
    whole = hasse_witt_matrix(curve)
    assert len(recorded.copies) == 2 and recorded.widths == [columns, columns]
    copy_bytes = sum(c.nbytes for c in recorded.copies)
    recorded.copies.clear()
    recorded.widths.clear()
    curve._formed.clear()
    formed, cubes = [], []
    original_pow, original_cube = hwtriple.poly_pow, GradedPoly._cube
    monkeypatch.setattr(hwtriple, "poly_pow",
                        lambda f, e: formed.append(original_pow(f, e)) or formed[-1])
    monkeypatch.setattr(GradedPoly, "_cube", lambda x: cubes.append(x) or original_cube(x))
    monkeypatch.setattr(polyring, "WORK_BUDGET_BYTES",
                        copy_bytes + linalg_work_bytes(field, nvars, 2 * g, -(-columns // 2)))
    assert np.array_equal(hasse_witt_matrix(curve), whole)
    assert len(recorded.widths) == 4 and sum(recorded.widths) == 2 * columns
    assert len(recorded.copies) == 2
    assert len(formed) == len(set(split))
    assert [id(x) for x in cubes if all(x is not f for f in curve.polys)] == \
        [id(x) for x in formed]


def test_hw_plane_matrix_copies_counted_in_budget(monkeypatch):
    """The Hasse-Witt estimate is the two bordered copies plus the larger of
    the g x g result and one column of L and R: at exactly that budget the
    matrix is read; one byte less refuses the curve before any power or copy
    is formed. On a plane quartic over GF(101) and a (2,3) curve over
    GF(31)."""
    curves = [(_seeded_curve(101, 1, (4,), 0), 3, [50]),
              (_seeded_curve(31, 1, (2, 3), 0), 4, [30, 30])]
    original_pow = hwtriple.poly_pow
    formed = []
    monkeypatch.setattr(hwtriple, "poly_pow", lambda f, e: formed.append(e) or original_pow(f, e))
    for curve, g, powers in curves:
        monkeypatch.setattr(polyring, "WORK_BUDGET_BYTES", WORK_BUDGET_BYTES)
        recorded = _record_split_reads(monkeypatch, curve)
        whole = hasse_witt_matrix(curve)
        need = sum(c.nbytes for c in recorded.copies) + max(
            linalg_work_bytes(curve.field, curve.nvars, g, g),
            linalg_work_bytes(curve.field, curve.nvars, 2 * g, 1))
        curve._formed.clear()
        recorded.copies.clear()
        formed.clear()
        monkeypatch.setattr(polyring, "WORK_BUDGET_BYTES", need)
        assert np.array_equal(hasse_witt_matrix(curve), whole)
        assert formed == powers and len(recorded.copies) == 2
        curve._formed.clear()
        recorded.copies.clear()
        formed.clear()
        monkeypatch.setattr(polyring, "WORK_BUDGET_BYTES", need - 1)
        with pytest.raises(ConstraintError, match="Hasse-Witt matrix"):
            hasse_witt_matrix(curve)
        assert formed == [] and recorded.copies == []


def test_hw_plane_matrix_copies_beyond_budget_exit_3(monkeypatch, capsys):
    """Through the command line, a budget below the bordered copies exits 3
    and names the Hasse-Witt matrix (the power check, which would refuse
    first at such a budget, is switched off here)."""
    from eotypes import cli
    monkeypatch.setattr(cli, "check_power_budget", lambda *args: None)
    monkeypatch.setattr(hwtriple, "check_power_budget", lambda *args: None)
    monkeypatch.setattr(polyring, "WORK_BUDGET_BYTES", 1 << 19)
    assert cli.main(["eotype", "--p", "101", "--f", "x^4+y^4+z^4+x*y^2*z"]) == 3
    assert "Hasse-Witt matrix" in capsys.readouterr().err


def test_hw_plane_matrix_result_beyond_budget_refused(monkeypatch, F7):
    """A g x g result above the budget is refused even when one column of
    L and R fits it."""
    curve = fermat_curve(F7, 6)
    monkeypatch.setattr(polyring, "WORK_BUDGET_BYTES", linalg_work_bytes(F7, 3, 10, 5))
    with pytest.raises(ConstraintError, match="work budget"):
        hasse_witt_matrix(curve)


def test_curve_beyond_work_budget_refused():
    big = field_new(1000003)
    with pytest.raises(ConstraintError, match="work budget"):
        fermat_curve(big, 4)


def _ci_24_curve(field, quadric):
    """A (2,4) curve in P^3: its Q is a kernel in a nonempty matrix, where
    that of a plane or a (2,3) curve is the whole degree -d piece."""
    quartic = GradedPoly.from_terms(field, 4, {(4, 0, 0, 0): 1, (0, 4, 0, 0): 1,
                                               (0, 0, 4, 0): 1, (0, 0, 0, 4): 1})
    return CurveCI(field, [quadric, quartic])


def test_linear_algebra_budget_sizes_the_matrices_it_guards(monkeypatch, F5, ci_23_curve):
    # each estimate must be taken on the shape of the matrix then gathered
    estimated, reduced = [], []
    monkeypatch.setattr(hwtriple, "linalg_work_bytes",
                        lambda field, nvars, rows, cols: estimated.append((rows, cols)) or 0)
    for owner, name in ((hwtriple, "null_space"), (hwtriple, "rank"),
                        (hwtriple.Subspace, "kernel")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda field, M, original=original:
                            reduced.append(np.shape(M)) or original(field, M))
    plane = fermat_curve(F5, 4)
    plane_smoothness_check(plane)
    for curve in (plane, CurveCI(F5, ci_23_curve.polys), _ci_24_curve(F5, ci_23_curve.polys[0])):
        curve.q_basis
        curve.u
        # the second operator's image check, one product with this matrix
        reduced.append(_relation_matrix(
            curve, [-curve.d - f.degree for f in curve.polys], "second operator").shape)
    assert estimated == reduced and (1, 10) in estimated


def test_linear_algebra_beyond_work_budget_refused(monkeypatch, F5, ci_23_curve):
    plane = fermat_curve(F5, 4)
    curve = CurveCI(F5, ci_23_curve.polys)
    curve_24 = _ci_24_curve(F5, ci_23_curve.polys[0])
    monkeypatch.setattr(polyring, "WORK_BUDGET_BYTES", 100)
    for compute in (lambda: plane_smoothness_check(plane), lambda: curve_24.q_basis,
                    lambda: curve.u, lambda: hasse_witt_matrix(plane)):
        with pytest.raises(ConstraintError, match="work budget"):
            compute()


def test_one_budget_binding_guards_every_stage(monkeypatch, F7):
    """Lowering polyring.WORK_BUDGET_BYTES alone refuses the smoothness
    check, the Hasse-Witt matrix and a monomial basis, each naming its
    stage: every guard compares against that one binding, and hwtriple
    keeps no copy of it. The plans are built first, at the full budget."""
    hasse_witt_matrix(fermat_curve(F7, 5))
    curve = fermat_curve(F7, 5)
    monkeypatch.setattr(polyring, "WORK_BUDGET_BYTES", 100)
    assert not hasattr(hwtriple, "WORK_BUDGET_BYTES")
    for compute, stage in ((lambda: plane_smoothness_check(curve), "smoothness check"),
                           (lambda: hasse_witt_matrix(curve), "Hasse-Witt matrix"),
                           (lambda: MonomialBasis(3, 5), "degree-5 monomial basis in 3 variables")):
        with pytest.raises(ConstraintError, match=f"^the {stage} of this curve .*work budget$"):
            compute()


def test_catalecticant_guard_runs_with_a_warm_plan(monkeypatch, F7):
    """With its plan cached, each catalecticant is still guarded: at its
    estimate it is read, one byte less refuses it. On the Fermat quintic
    over GF(7), in degree 1 (3 x 45) and in the pairing's degree 2 (6 x 36)."""
    curve = fermat_curve(F7, 5)
    assert plane_smoothness_check(curve)
    for k, rows, cols in ((1, 3, 45), (2, 6, 36)):
        monkeypatch.setattr(polyring, "WORK_BUDGET_BYTES", WORK_BUDGET_BYTES)
        expected = _catalecticant(curve, curve.u, k)
        assert expected.shape == (rows, cols)
        need = linalg_work_bytes(F7, 3, rows, cols)
        monkeypatch.setattr(polyring, "WORK_BUDGET_BYTES", need)
        assert np.array_equal(_catalecticant(curve, curve.u, k), expected)
        monkeypatch.setattr(polyring, "WORK_BUDGET_BYTES", need - 1)
        with pytest.raises(ConstraintError, match="smoothness check"):
            _catalecticant(curve, curve.u, k)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_ci_23_rational_singular_point_rejected(p):
    """Seeded (2,3) curves in P^3, every other one forced singular at
    (1:0:0:0) (no X0^2 in the quadric, no X0^3 or X0^2*X_i in the cubic).
    Every curve with a GF(p)-rational singular point, which a brute-force
    search finds, raises SingularCurveError through dim U or the pairing,
    also where h = 0. The check is necessary, not a certificate; for these
    seeds the curves without one all classify."""
    field = field_new(p)
    rng = np.random.default_rng(p)
    b2, b3 = ({e: i for i, e in enumerate(monomial_basis(4, d).monomials)} for d in (2, 3))
    singular = 0
    for draw in range(6):
        c2 = field.random_elements(rng, (len(b2),))
        c3 = field.random_elements(rng, (len(b3),))
        if draw % 2 == 0:
            c2[b2[(2, 0, 0, 0)]] = 0
            for e in ((3, 0, 0, 0), (2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1)):
                c3[b3[e]] = 0
        curve = CurveCI(field, [GradedPoly(field, 4, 2, c2), GradedPoly(field, 4, 3, c3)])
        points = rational_singular_points(curve)
        assert draw % 2 or (1, 0, 0, 0) in points
        if points:
            singular += 1
            with pytest.raises(SingularCurveError, match="dim U|pairing"):
                hw_triple(curve)
        else:
            assert hw_triple(curve).g == 4
    assert singular >= 3


def _record_ranks(monkeypatch):
    """Wrap hwtriple.rank so that every rank it returns is kept; returns
    the list."""
    ranks = []
    original = hwtriple.rank
    monkeypatch.setattr(hwtriple, "rank",
                        lambda field, M: ranks.append(original(field, M)) or ranks[-1])
    return ranks


def test_plane_smoothness_matches_macaulay_oracle(monkeypatch):
    """On seeded dense and sparse plane curves of degree 3..6, the check
    read off u agrees with the Macaulay rank of the partials (conftest's
    macaulay_smoothness_oracle). The catalecticant is ranked only where
    dim U = 1, and takes exactly the two ranks the proof allows: 3 on the
    smooth curves and 1 on the singular ones."""
    ranks = _record_ranks(monkeypatch)
    rng = np.random.default_rng(2718)
    outcomes = {}
    for p, m in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (7, 3), (31, 2)]:
        field = field_new(p, m)
        for d in range(3, 7):
            if d % p == 0:
                continue
            size = len(monomial_basis(3, d))
            for draw in range(8):
                coeffs = field.random_elements(rng, (size,))
                if draw % 2:  # sparse: about half of the monomials
                    coeffs[rng.random(size) < 0.5] = 0
                curve = plane_curve(field, GradedPoly(field, 3, d, coeffs))
                ranks.clear()
                smooth = plane_smoothness_check(curve)
                assert smooth == macaulay_smoothness_oracle(curve)
                dim_u = curve._relations.shape[0]
                assert len(ranks) == (dim_u == 1)
                key = (smooth, f"rank {ranks[0]}" if ranks else "dim U != 1")
                outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes == {(True, "rank 3"): 119, (False, "rank 1"): 20, (False, "dim U != 1"): 45}


def _plane_form(field, terms):
    """The pipeline's form of a dict {exponent tuple: code}."""
    return GradedPoly.from_terms(field, 3, {e: field.element_from_code(c)
                                            for e, c in terms.items()})


def test_hasse_witt_matrix_matches_point_counts():
    """Manin's congruence #C(GF(q^k)) = 1 - Tr(M^k) (mod p) on seeded plane
    curves the pipeline classifies: over GF(p) for k = 1, 2 and over GF(p^2)
    for k = 1. The counts are brute force over P^2 (conftest.point_count)
    and share no code with polyring, whose products give A_phi."""
    rng = np.random.default_rng(1961)
    checked = []
    for p, m, d, draws in ((3, 1, 4, 6), (5, 1, 4, 6), (7, 1, 5, 3), (7, 1, 4, 3),
                           (11, 1, 4, 2), (2, 2, 5, 3), (3, 2, 4, 4), (5, 2, 4, 3),
                           (7, 2, 4, 2)):
        field = field_new(p, m)
        counted = [field] if m == 2 else [field, field_new(p, 2)]
        monos = [(d - i - j, i, j) for i in range(d + 1) for j in range(d + 1 - i)]
        for _ in range(draws):
            terms = dict(zip(monos, field.random_elements(rng, (len(monos),)).tolist()))
            try:
                A = hw_triple(plane_curve(field, _plane_form(field, terms))).A_phi
            except SingularCurveError:
                continue
            for k, ext in enumerate(counted, 1):
                assert point_count(ext, [terms], 3) % p == (1 - hasse_witt_trace(field, A, k)) % p
            checked.append((p, m))
    assert len(checked) == 29 and checked.count((7, 2)) == 2


def test_ci_23_hasse_witt_matrix_matches_point_counts(ci_23_curve):
    """The congruence on the smooth (2,3) curve in P^3 over GF(5), whose
    A_phi comes from the general path, for k = 1, 2."""
    field, A = ci_23_curve.field, hw_triple(ci_23_curve).A_phi
    forms = [{e: 1 for e in ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))},
             {e: 1 for e in ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3))}]
    for k, ext in enumerate((field_new(5), field_new(5, 2)), 1):
        assert point_count(ext, forms, 4) % 5 == (1 - hasse_witt_trace(field, A, k)) % 5


def test_seeded_ci_23_curves_match_point_counts():
    """The congruence on seeded (2,3) curves in P^3 that the pipeline
    classifies, one of them with h > 0: over GF(5) for k = 1, 2 and over
    GF(7) for k = 1."""
    rng = np.random.default_rng(3)
    checked = []
    for p, draws in ((5, 2), (7, 1)):
        field = field_new(p)
        counted = (field, field_new(p, 2)) if p == 5 else (field,)
        for _ in range(draws):
            curve = _random_curve(field, 4, (2, 3), rng)
            forms = [dict(zip(f.basis.monomials, f.coeffs.tolist())) for f in curve.polys]
            try:
                t = hw_triple(curve)
            except SingularCurveError:
                continue
            for k, ext in enumerate(counted, 1):
                assert point_count(ext, forms, 4) % p == (
                    1 - hasse_witt_trace(field, t.A_phi, k)) % p
            checked.append((p, t.h))
    assert checked == [(5, 1), (5, 0), (7, 0)]


def test_seeded_ci_222_curves_match_point_counts():
    """The congruence on seeded (2,2,2) curves in P^4 that the pipeline
    classifies, one of them with h > 0: over GF(3) for k = 1, 2 and over
    GF(5) for k = 1. Four of the six draws are rejected with dim U > 1."""
    rng = np.random.default_rng(5)
    checked = []
    for p, draws in ((3, 4), (5, 2)):
        field = field_new(p)
        counted = (field, field_new(p, 2)) if p == 3 else (field,)
        for _ in range(draws):
            curve = _random_curve(field, 5, (2, 2, 2), rng)
            forms = [dict(zip(f.basis.monomials, f.coeffs.tolist())) for f in curve.polys]
            try:
                t = hw_triple(curve)
            except SingularCurveError:
                continue
            for k, ext in enumerate(counted, 1):
                assert point_count(ext, forms, 5) % p == (
                    1 - hasse_witt_trace(field, t.A_phi, k)) % p
            checked.append((p, t.h))
    assert checked == [(3, 1), (5, 0)]


def test_every_smooth_plane_cubic_over_gf2_matches_point_counts():
    """All 1024 ternary cubics over GF(2): the pipeline classifies exactly
    those the Macaulay oracle finds smooth, and each of them satisfies the
    congruence for k = 1, 2, with A_phi the 1 x 1 Hasse invariant. Every
    singular point of a plane cubic over GF(2) lies over GF(2), GF(4) or
    GF(8), and conftest.rational_singular_points over those three fields
    also leaves 336 smooth cubics."""
    F2, F4 = field_new(2), field_new(2, 2)
    monos = [(3 - i - j, i, j) for i in range(4) for j in range(4 - i)]
    smooth = supersingular = 0
    for bits in itertools.product((0, 1), repeat=len(monos)):
        terms = dict(zip(monos, bits))
        curve = plane_curve(F2, _plane_form(F2, terms))
        try:
            A = hw_triple(curve).A_phi
        except SingularCurveError:
            assert not macaulay_smoothness_oracle(curve)
            continue
        assert macaulay_smoothness_oracle(curve)
        for k, ext in ((1, F2), (2, F4)):
            assert point_count(ext, [terms], 3) % 2 == (1 - hasse_witt_trace(F2, A, k)) % 2
        smooth += 1
        supersingular += not A.any()
    assert (smooth, supersingular) == (336, 168)


def test_catalecticant_of_rank_two_is_an_internal_error(F5):
    """No relation space has a generator whose catalecticant has rank 2;
    the sum of evaluation at (1:0:0) and at (0:1:0), put in place of u,
    has one, and the check refuses it as an internal error."""
    curve = plane_curve(F5, GradedPoly.from_terms(F5, 3, GOLDEN_TERMS))
    u = TClass.from_laurent_terms(F5, 3, {(-7, -1, -1): 1, (-1, -7, -1): 1})
    curve.__dict__.update(_relations=u.coeffs[None], u=(u,))
    with pytest.raises(InternalInvariantError, match="catalecticant of u has rank 2"):
        plane_smoothness_check(curve)


def test_relation_space_reduced_once_per_plane_curve(monkeypatch, F5):
    """hw_triple reduces the relation matrix of a plane curve once: the
    smoothness check computes u and the second operator of an h > 0 curve
    reuses it, and no Macaulay matrix is ranked."""
    reduced, ranked = [], []
    for name, seen in (("null_space", reduced), ("rank", ranked)):
        original = getattr(hwtriple, name)
        monkeypatch.setattr(hwtriple, name, lambda field, M, original=original, seen=seen:
                            seen.append(np.shape(M)) or original(field, M))
    F101 = field_new(101)
    ordinary = GradedPoly(F101, 3, 4, F101.random_elements(np.random.default_rng(0), (15,)))
    golden = GradedPoly.from_terms(F5, 3, GOLDEN_TERMS)
    for f, with_kernel in ((golden, True), (ordinary, False)):
        reduced.clear()
        ranked.clear()
        assert (hw_triple(plane_curve(f.field, f)).h > 0) == with_kernel
        assert reduced.count((30, 28)) == 1
        assert (36, 45) not in ranked and (3, 21) in ranked


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (101, 1), (3, 2), (7, 3)])
def test_derivative_matrix_matches_partials_oracle(p, m):
    """The relation matrix and the second operator's check matrix, one take
    per form through an index plan, equal the stacked multiplication
    matrices of the partials (conftest's derivative_matrix_oracle) on
    seeded plane curves of degree 3..6 and, where the power budget admits
    them, (2,3) and (2,2,2) curves."""
    field = field_new(p, m)
    rng = np.random.default_rng(p * m)
    curves = [plane_curve(field, GradedPoly(field, 3, d, field.random_elements(
        rng, (len(monomial_basis(3, d)),)))) for d in range(3, 7) if d % p]
    for degrees in ((2, 3), (2, 2, 2)):
        if p ** m <= 9 and all(d % p for d in degrees):
            nvars = len(degrees) + 2
            curves.append(CurveCI(field, [GradedPoly(field, nvars, d, field.random_elements(
                rng, (len(monomial_basis(nvars, d)),))) for d in degrees]))
    for curve in curves:
        for src_degrees in (curve._relation_degrees, [-curve.d - f.degree for f in curve.polys]):
            assert np.array_equal(_derivative_matrix(curve, src_degrees),
                                  derivative_matrix_oracle(curve, src_degrees))


def test_derivative_plan_cache_is_bounded():
    """A plane workload of degrees 4..6 needs six plans, which the cache
    keeps; more plans than its bound leave it at the bound."""
    limit = _derivative_plan.cache_info().maxsize
    assert limit is not None and limit >= 6
    _derivative_plan.cache_clear()
    try:
        for d in (4, 5, 6):
            for src_degree in (3 - 3 * d, -2 * d):
                _derivative_plan(3, d, src_degree)
        assert _derivative_plan.cache_info().currsize == 6
        for d in range(3, 3 + limit):
            _derivative_plan(3, d, -2 * d)
        assert _derivative_plan.cache_info().currsize == limit
    finally:
        _derivative_plan.cache_clear()


# every cache of a curve-independent plan or result
_PLAN_CACHES = (hwtriple._derivative_plan, hwtriple._catalecticant_plan, hwtriple._split_plan,
                polyring._tmul_plan, eoclass._fast_path_type)


def test_plans_built_cold_or_read_warm_give_the_same_results(ci_23_curve):
    """Each curve of a mixed list, classified with every plan cache cleared
    before it and again warm in shuffled order, gives the same triple and
    result: plane quartics, quintics and sextics over GF(p), GF(p^2) and
    GF(p^3) and a (2,3) curve, of every fast-path tag, five with h > 0."""
    plane = [(5, 1, GOLDEN_TEXT), (3, 1, "x^4+y^4+z^4"),
             (7, 3, "x^4+3*x*y^3+y^4+z^4+x*y*z^2"),
             (7, 2, "5*x^5+3*x^2*y^2*z+6*x*y^4+2*y^5+5*y*z^4"), (3, 2, "x^5+y^5+z^5"),
             (11, 1, "x^5+y^5+z^5"), (7, 1, "x^6+y^6+z^6"),
             (11, 1, "x^6+y^6+z^6+x^2*y^2*z^2")]
    makers = [lambda p=p, m=m, text=text: plane_curve(
        field_new(p, m), parse_poly(text, 3, field_new(p, m))) for p, m, text in plane]
    makers.append(lambda: CurveCI(ci_23_curve.field, ci_23_curve.polys))
    cold = []
    for make in makers:
        for cache in _PLAN_CACHES:
            cache.cache_clear()
        triple = hw_triple(make())
        cold.append((triple, classify(triple)))
    assert {res.fast_tag for _, res in cold} == {"ordinary", "superspecial", "interesting"}
    assert sum(triple.h > 0 for triple, _ in cold) >= 5
    for make in makers:
        classify(hw_triple(make()))
    hits = [cache.cache_info().hits for cache in _PLAN_CACHES]
    for i in np.random.default_rng(27).permutation(len(makers)):
        triple = hw_triple(makers[i]())
        expected, expected_result = cold[i]
        for name in ("A_phi", "kappa", "A_psi"):
            assert np.array_equal(getattr(triple, name), getattr(expected, name))
        assert classify(triple) == expected_result
    assert all(cache.cache_info().hits > h for cache, h in zip(_PLAN_CACHES, hits))


def _assert_bounded(cache, needed, more, arrays=lambda plan: [plan]):
    """The keys a workload needs stay cached; more keys than the bound leave
    the cache at its bound. Every array of a plan is read-only."""
    limit = cache.cache_info().maxsize
    assert limit is not None and limit >= len(needed)
    cache.cache_clear()
    try:
        plans = [cache(*key) for key in needed]
        assert cache.cache_info().currsize == len(needed)
        assert not any(a.flags.writeable for plan in plans for a in arrays(plan))
        for key in itertools.islice(more, limit):
            cache(*key)
        assert cache.cache_info().currsize == limit
    finally:
        cache.cache_clear()


def test_catalecticant_plan_cache_is_bounded():
    """A plane workload of degrees 4..6 needs five plans, in degrees 1 and
    d-3 of u's one component, of shifted degree 3d-6; they are one plan at
    d = 4."""
    _assert_bounded(hwtriple._catalecticant_plan,
                    sorted({(3, k, 3 * d - 6) for d in (4, 5, 6) for k in (1, d - 3)}),
                    ((3, 1, s) for s in itertools.count(20)))


def test_split_plan_cache_is_bounded():
    """plane-large-p's three cases need six plans, a Hasse-Witt and a
    second-operator split each: f^a against f^a and f^(a-1) against f^a,
    a = (p-1)/2."""
    needed = [(3, p, d, e * d, (p - 1) // 2 * d) for p, d in ((31, 6), (53, 5), (101, 4))
              for e in ((p - 1) // 2, (p - 3) // 2)]
    _assert_bounded(hwtriple._split_plan, needed,
                    ((3, 5, d, 2 * d, 2 * d) for d in itertools.count(7)),
                    lambda plan: plan.strides + plan.offsets)


def test_tmul_plan_cache_is_bounded():
    """A plane workload of degrees 4..6 needs three plans, for the second
    operator's dual-module check, and a (2,3) curve six: each form from
    the relation space's degrees -8 and -9 and the check's -7 and -8."""
    needed = [(3, d, -2 * d) for d in (4, 5, 6)]
    needed += [(4, f, m) for f in (2, 3) for m in (-7, -8, -9)]
    _assert_bounded(polyring._tmul_plan, needed, ((3, 2, m) for m in itertools.count(-4, -1)))


def test_fast_path_results_are_built_once_and_returned_fresh():
    """The fast-path types of g = 1..10 stay cached and more genera leave
    the cache at its bound; each call returns a new, equal result, so a
    caller that changes one changes no other."""
    _assert_bounded(eoclass._fast_path_type,
                    [(g, kind) for g in range(1, 11) for kind in (False, True)],
                    ((g, False) for g in itertools.count(11)), lambda plan: [])
    for build in (eoclass.ordinary_result, eoclass.superspecial_result):
        first, second = build(4), build(4)
        assert first is not second and first == second
        first.p_rank = -1
        assert build(4) == second and build(4).p_rank == second.p_rank != -1


def _singular_at(field, coeffs, d, a, b):
    """The degree-d plane form with these coefficients but those of X0^d,
    X0^(d-1)*X1 and X0^(d-1)*X2 replaced so that it and its partials
    vanish at (1 : a : b)."""
    index = {e: i for i, e in enumerate(monomial_basis(3, d).monomials)}
    c0, c1, c2 = (index[e] for e in ((d, 0, 0), (d - 1, 1, 0), (d - 1, 0, 1)))
    coeffs = coeffs.copy()
    coeffs[[c0, c1, c2]] = 0
    f = GradedPoly(field, 3, d, coeffs)
    point = np.array([[1, a, b]])
    r0, r1, r2 = (int(form_values(g, point)[0])
                  for g in (f, partial_derivative(f, 1), partial_derivative(f, 2)))
    coeffs[c1], coeffs[c2] = field.neg(r1), field.neg(r2)
    coeffs[c0] = field.neg(field.add(r0, field.add(field.mul(a, coeffs[c1]),
                                                   field.mul(b, coeffs[c2]))))
    return GradedPoly(field, 3, d, coeffs)


@pytest.mark.parametrize("p", [5, 7])
def test_plane_curve_singular_off_the_prime_field_rejected(monkeypatch, p):
    """Seeded quartics over GF(p^2), forced singular at a point (1 : a : b)
    with a outside GF(p), are rejected. The search over GF(p^2) finds the
    point, and a curve whose only singular point it is has dim U = 1, so
    the catalecticant of u takes rank 1."""
    field = field_new(p, 2)
    rng = np.random.default_rng(p)
    ranks = _record_ranks(monkeypatch)
    rank_one = 0
    for _ in range(3):
        a, b = int(rng.integers(p, p * p)), int(rng.integers(0, p * p))
        f = _singular_at(field, field.random_elements(rng, (15,)), 4, a, b)
        curve = plane_curve(field, f)
        assert (1, a, b) in rational_singular_points(curve)
        ranks.clear()
        with pytest.raises(SingularCurveError, match="the plane curve is singular"):
            hw_triple(curve)
        if curve._relations.shape[0] == 1:
            assert ranks == [1]
            rank_one += 1
    assert rank_one >= 1


@pytest.mark.parametrize("p", [5, 7])
def test_prime_field_curve_singular_at_conjugate_pair_rejected_through_dim_u(p):
    """Seeded quartics over GF(p) whose coefficients solve the GF(p)-linear
    conditions for a singular point P = (1 : a : b) with a outside GF(p),
    so that P and its conjugate are both singular. Over GF(p^2) the search
    finds both; over GF(p) the curve is rejected with dim U >= 2, as
    evaluation at P and at its conjugate both lie in U."""
    field, ext = field_new(p), field_new(p, 2)
    exps = monomial_basis(3, 4).exps
    rng = np.random.default_rng(10 + p)
    for _ in range(2):
        a, b = int(rng.integers(p, p * p)), int(rng.integers(0, p * p))
        point = np.array([[1, a, b]])
        # each monomial, and each partial in X1 and X2 of each monomial, at P
        values = [[int(form_values(g, point)[0]) for g in (mono, partial_derivative(mono, 1),
                                                           partial_derivative(mono, 2))]
                  for mono in (GradedPoly.monomial(ext, 3, e) for e in exps.tolist())]
        conditions = ext.decode(np.array(values, np.int64)).reshape(len(exps), -1).T
        solutions = null_space(field, conditions)
        coeffs = rng.integers(0, p, len(solutions)) @ solutions % p
        assert coeffs.any()
        conjugate = (1,) + tuple(int(x) for x in ext.frob(np.array([a, b]), 1))
        found = rational_singular_points(plane_curve(ext, GradedPoly(ext, 3, 4, coeffs)))
        assert (1, a, b) in found and conjugate in found
        curve = plane_curve(field, GradedPoly(field, 3, 4, coeffs))
        with pytest.raises(SingularCurveError, match="the plane curve is singular"):
            hw_triple(curve)
        assert curve._relations.shape[0] >= 2


@pytest.mark.parametrize("p", [5, 7])
def test_ci_23_singular_at_conjugate_pair_rejected(p):
    """Seeded (2,3) curves over GF(p) whose coefficients solve the
    GF(p)-linear conditions f_1(P) = f_2(P) = 0 and grad f_2(P) = 0 at a
    point P = (1 : a : b : c) with a outside GF(p), so that P and its
    conjugate are both singular (the X0 partial of f_2 vanishes by Euler's
    identity). Each is rejected with dim U >= 2, also where the GF(p)
    search finds no singular point."""
    field, ext = field_new(p), field_new(p, 2)
    rng = np.random.default_rng(20 + p)
    unseen = 0
    for _ in range(3):
        point = np.array([[1, int(rng.integers(p, p * p)), *rng.integers(0, p * p, 2)]])
        forms = []
        for degree, partials in ((2, []), (3, [1, 2, 3])):
            monos = [GradedPoly.monomial(ext, 4, e) for e in monomial_basis(4, degree).monomials]
            # each monomial, and each of the given partials of each monomial, at P
            values = [[int(form_values(g, point)[0])
                       for g in [mono] + [partial_derivative(mono, j) for j in partials]]
                      for mono in monos]
            conditions = ext.decode(np.array(values, np.int64)).reshape(len(monos), -1).T
            solutions = null_space(field, conditions)
            coeffs = rng.integers(0, p, len(solutions)) @ solutions % p
            assert coeffs.any()
            forms.append(GradedPoly(field, 4, degree, coeffs))
        # both forms and every partial of f_2 vanish at P and its conjugate
        lifted = [GradedPoly(ext, 4, f.degree, f.coeffs) for f in forms]
        checks = lifted + [partial_derivative(lifted[1], j) for j in range(4)]
        conjugate = np.concatenate([[1], ext.frob(point[0, 1:], 1)])
        for pt in (point, conjugate[None]):
            assert not any(form_values(g, pt)[0] for g in checks)
        curve = CurveCI(field, forms)
        unseen += not rational_singular_points(curve)
        with pytest.raises(SingularCurveError, match="dim U"):
            hw_triple(curve)
        assert curve._relations.shape[0] >= 2
    assert unseen >= 1


@pytest.mark.parametrize("p", [3, 5])
def test_ci_222_singular_at_conjugate_pair_rejected(p):
    """Seeded (2,2,2) curves over GF(p) whose coefficients solve the
    GF(p)-linear conditions f_1(P) = f_2(P) = f_3(P) = 0 and
    d f_3 / d X_j (P) = 0 for j = 1..4 at a point P = (1 : a : b : c : e)
    with a outside GF(p), so that P and its conjugate are both singular
    (the X0 partial of f_3 vanishes by Euler's identity). Each is rejected
    by the dim U check, with dim U = 4..8 over GF(3) and 2 over GF(5); over
    GF(5) the GF(p) search finds no singular point."""
    field, ext = field_new(p), field_new(p, 2)
    rng = np.random.default_rng(30 + p)
    monos = [GradedPoly.monomial(ext, 5, e) for e in monomial_basis(5, 2).monomials]
    unseen = 0
    for _ in range(3):
        point = np.array([[1, int(rng.integers(p, p * p)), *rng.integers(0, p * p, 3)]])
        forms = []
        for partials in ([], [], [1, 2, 3, 4]):
            # each monomial, and each of the given partials of each monomial, at P
            values = [[int(form_values(g, point)[0])
                       for g in [mono] + [partial_derivative(mono, j) for j in partials]]
                      for mono in monos]
            conditions = ext.decode(np.array(values, np.int64)).reshape(len(monos), -1).T
            solutions = null_space(field, conditions)
            coeffs = rng.integers(0, p, len(solutions)) @ solutions % p
            assert coeffs.any()
            forms.append(GradedPoly(field, 5, 2, coeffs))
        # the three forms and every partial of f_3 vanish at P and its conjugate
        lifted = [GradedPoly(ext, 5, 2, f.coeffs) for f in forms]
        checks = lifted + [partial_derivative(lifted[2], j) for j in range(5)]
        conjugate = np.concatenate([[1], ext.frob(point[0, 1:], 1)])
        for pt in (point, conjugate[None]):
            assert not any(form_values(g, pt)[0] for g in checks)
        curve = CurveCI(field, forms)
        unseen += not rational_singular_points(curve)
        with pytest.raises(SingularCurveError, match="dim U"):
            hw_triple(curve)
        assert curve._relations.shape[0] >= 2
    assert unseen == (3 if p == 5 else 0)


def test_space_curve_checks_certify_smoothness_in_genus_4():
    """On seeded (2,3) curves the existing n >= 3 checks (dim Q = g,
    dim U = 1, a rank-g pairing) reject exactly the curves that the
    Jacobian criterion (conftest's jacobian_smoothness_oracle) finds
    singular: a singular point puts a multiple of evaluation at it in U, so
    dim U = 1 leaves the pairing rank 1 < g (``pairing_matrix``). Every
    other curve is forced singular at (1:0:0:0)."""
    b2, b3 = ({e: i for i, e in enumerate(monomial_basis(4, d).monomials)} for d in (2, 3))
    rng = np.random.default_rng(23)
    outcomes = {}
    for field, count in ((field_new(5), 6), (field_new(7), 6), (field_new(11), 2),
                         (field_new(5, 2), 4), (field_new(7, 2), 2)):
        for draw in range(count):
            c2 = field.random_elements(rng, (len(b2),))
            c3 = field.random_elements(rng, (len(b3),))
            if draw % 2 == 0:
                c2[b2[(2, 0, 0, 0)]] = 0
                for e in ((3, 0, 0, 0), (2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1)):
                    c3[b3[e]] = 0
            curve = CurveCI(field, [GradedPoly(field, 4, 2, c2), GradedPoly(field, 4, 3, c3)])
            smooth = jacobian_smoothness_oracle(curve)
            try:
                accepted = hw_triple(curve).g == 4
            except SingularCurveError:
                accepted = False
            assert accepted == smooth
            outcomes[smooth] = outcomes.get(smooth, 0) + 1
    assert outcomes == {True: 10, False: 10}


def _random_curve(field, nvars, degrees, rng):
    return CurveCI(field, [GradedPoly(field, nvars, d, field.random_elements(
        rng, (len(monomial_basis(nvars, d)),))) for d in degrees])


def test_u_first_nonzero_coordinate_is_one():
    """u is the null space's reduced echelon row as it stands: its first
    nonzero coordinate is 1 on seeded smooth plane quartics and (2,3)
    curves over GF(p) and GF(p^2), two of each within ten draws; a draw
    with dim U != 1 is skipped."""
    rng = np.random.default_rng(14)
    for field in (field_new(5), field_new(7), field_new(5, 2), field_new(7, 2)):
        for nvars, degrees in ((3, (4,)), (4, (2, 3))):
            checked = 0
            for _ in range(10):
                try:
                    u = _random_curve(field, nvars, degrees, rng).u
                except SingularCurveError:
                    continue
                vec = np.concatenate([comp.coeffs for comp in u])
                assert vec[np.flatnonzero(vec)[0]] == field.from_int(1)
                checked += 1
                if checked == 2:
                    break
            assert checked == 2


def test_hw_triple_forms_no_product_power(monkeypatch):
    """hw_triple forms no polynomial of degree (p-1)*d: the largest it forms
    is (p-1)*(d - min deg f_i), on the seeded smooth (2,3) curve over GF(31)
    and a seeded (2,2,2) curve over GF(7) with h > 0, whose second operator
    reads through pairwise products. The (2,3) curve's traced peak stays
    under 48 MiB: 38.4 MiB measured, against 135 MiB when (f_1 f_2)^30 was
    formed whole."""
    import tracemalloc
    formed = []
    original = GradedPoly._from_cube.__func__
    monkeypatch.setattr(GradedPoly, "_from_cube", classmethod(
        lambda cls, field, nvars, degree, cube:
        formed.append(degree) or original(cls, field, nvars, degree, cube)))
    for p, degrees, seed, h in ((31, (2, 3), 0, 0), (7, (2, 2, 2), 9, 1)):
        curve = _random_curve(field_new(p), len(degrees) + 2, degrees,
                              np.random.default_rng(seed))
        curve.mu  # dim U = 1 and a perfect pairing, before the traced run
        formed.clear()
        tracemalloc.start()
        try:
            t = hw_triple(curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.h == h
        assert max(formed) == (p - 1) * (curve.d - min(degrees)) < (p - 1) * curve.d
        if degrees == (2, 3):
            assert peak < 48 * 2 ** 20


def test_catalecticant_matches_earlier_gathers():
    """The one catalecticant reader equals the earlier pairing gather in
    degree d-n-1 (transposed) and the earlier plane gather in degree 1,
    and the module action in both degrees, on seeded plane, (2,2), (2,3)
    and (2,2,2) curves with dim U = 1 over GF(p) and GF(p^2)."""
    rng = np.random.default_rng(16)
    cases = [(3, (d,)) for d in range(3, 7)] + [(4, (2, 2)), (4, (2, 3)), (5, (2, 2, 2))]
    read = {}
    for field in (field_new(3), field_new(5), field_new(7), field_new(3, 2)):
        for nvars, degrees in cases * 2:
            if any(d % field.p == 0 for d in degrees) or (nvars == 5 and field.q > 3):
                continue
            curve = _random_curve(field, nvars, degrees, rng)
            try:
                u = curve.u
            except SingularCurveError:
                continue
            k = curve.d - curve.n - 1
            pairing, linear = _catalecticant(curve, u, k), _catalecticant(curve, u, 1)
            assert np.array_equal(pairing.T, pairing_matrix_oracle(curve, u))
            assert np.array_equal(pairing, module_action_catalecticant_oracle(u, k))
            assert np.array_equal(linear, module_action_catalecticant_oracle(u, 1))
            if nvars == 3:
                assert np.array_equal(linear, plane_catalecticant_oracle(curve))
            read[nvars] = read.get(nvars, 0) + 1
    assert read == {3: 18, 4: 11, 5: 2}


def _genus_one_forms(field, rng, draw):
    """Coefficients of two quadrics in P^3: dense, sparse (about half of
    the monomials zero) or, for draw = 2 mod 3, singular at (1:0:0:0), with
    no X0^2 term and the gradient of the second form there a multiple of
    the first's."""
    b2 = {e: i for i, e in enumerate(monomial_basis(4, 2).monomials)}
    forms = [field.random_elements(rng, (len(b2),)) for _ in range(2)]
    if draw % 3 == 1:
        for c in forms:
            c[rng.random(len(b2)) < 0.5] = 0
    elif draw % 3 == 2:
        scale = field.random_elements(rng, ())
        for c in forms:
            c[b2[(2, 0, 0, 0)]] = 0
        for e in ((1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)):
            forms[1][b2[e]] = field.mul(scale, forms[0][b2[e]])
    return forms


def test_genus_one_space_curves_classified_iff_smooth(monkeypatch):
    """Seeded (2,2) curves in P^3, the only complete intersections with
    n >= 3 and genus 1, where dim U = 1 and a rank-1 pairing certify
    nothing. Each is classified iff the Jacobian criterion (conftest's
    jacobian_smoothness_oracle) finds it smooth, and where the checks
    before it pass, the catalecticant of u in degree 1 takes rank 4 on the
    smooth curves and rank 1 on the singular ones."""
    ranks = []
    original = hwtriple.rank
    monkeypatch.setattr(hwtriple, "rank", lambda field, M: ranks.append(
        (np.shape(M), original(field, M))) or ranks[-1][1])
    rng = np.random.default_rng(22)
    outcomes = {}
    for p, m in ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2)):
        field = field_new(p, m)
        for draw in range(18):
            curve = CurveCI(field, [GradedPoly(field, 4, 2, c)
                                    for c in _genus_one_forms(field, rng, draw)])
            smooth = jacobian_smoothness_oracle(curve)
            ranks.clear()
            try:
                classify(hw_triple(curve))
                rejected = None
            except SingularCurveError as exc:
                rejected = next(w for w in ("dim Q", "dim U", "pairing", "singular")
                                if w in str(exc))
            assert (rejected is None) == smooth, (field, draw, rejected)
            cat = [r for shape, r in ranks if shape[0] == 4]
            key = (smooth, f"rank {cat[0]}" if cat else rejected)
            outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes == {(True, "rank 4"): 53, (False, "rank 1"): 41, (False, "dim U"): 32}
