import numpy as np
import pytest

from conftest import GOLDEN_U_SHIFTED, integer_power_terms
from eotypes import (ConstraintError, CurveCI, GradedPoly, SingularCurveError,
                     TClass, ci_q_basis, field_new, genus, hasse_witt_matrix,
                     hw_triple, monomial_basis, plane_curve,
                     plane_smoothness_check, psi_matrix, rank, t_multiply,
                     theta_apply, u_generator)
from eotypes.golden import GOLDEN_HW, GOLDEN_KAPPA, GOLDEN_PSI_COLS
from eotypes.hwtriple import _hw_general_matrix, _hw_plane_matrix, _psi_general
from eotypes.polyring import gather, poly_mul
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
    qb = ci_q_basis(golden_curve)
    assert qb.dim == 3
    assert np.array_equal(qb.rows, np.eye(3, dtype=np.int64))  # full dual piece
    assert ci_q_basis(ci_23_curve).dim == 4


def test_u_generator_golden(F5, golden_curve):
    u = u_generator(golden_curve)
    assert len(u) == 1 and u[0].degree == -9
    expected = TClass.from_laurent_terms(
        F5, 3, {tuple(x - 7 for x in e): c for e, c in GOLDEN_U_SHIFTED.items()})
    assert u[0] == expected


def test_u_generator_fermat_quartic(F5):
    u = u_generator(fermat_curve(F5, 4))
    assert u[0] == TClass.from_laurent_terms(F5, 3, {(-3, -3, -3): 1})


def test_u_generator_singular_raises(F5):
    bad = plane_curve(F5, GradedPoly.from_terms(F5, 3, {(4, 0, 0): 1, (0, 4, 0): 1}))
    with pytest.raises(SingularCurveError):
        u_generator(bad)


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
    u = u_generator(golden_curve)
    for lam in (2, 3, 4):
        scaled = tuple(comp.scale(lam) for comp in u)
        psi = psi_matrix(golden_curve, golden_triple.A_phi, golden_triple.kappa, scaled)
        inv = F5.inv_scalar(lam)
        assert np.array_equal(psi, F5.mul(golden_triple.A_psi, inv))


def test_pairing_dual_basis_identity(F5, golden_curve):
    """Multiplying the basis monomials against the dual classes realizes the
    identity pairing matrix in the plane case."""
    d = golden_curve.d
    md = monomial_basis(3, d - 3).monomials
    qb = ci_q_basis(golden_curve)
    P = np.zeros((3, 3), np.int64)
    for i, row in enumerate(qb.rows):
        q = TClass(F5, 3, -d, row)
        for j, mono in enumerate(md):
            out = t_multiply(GradedPoly.monomial(F5, 3, mono), q)
            P[i, j] = out.coeffs[0]
    assert np.array_equal(P, np.eye(3, dtype=np.int64))


def test_theta_apply_plane_dual_basis(F5, golden_curve):
    u = u_generator(golden_curve)
    for i, mono in enumerate(monomial_basis(3, 1).monomials):
        xi = tuple(t_multiply(GradedPoly.monomial(F5, 3, mono), comp) for comp in u)
        coords = theta_apply(golden_curve, u, xi)
        expected = np.zeros(3, np.int64)
        expected[i] = 1
        assert np.array_equal(coords, expected)


def test_theta_apply_rejects_degenerate_pairing(golden_curve, ci_23_curve):
    for curve in (golden_curve, ci_23_curve):
        zero = tuple(TClass.zero(curve.field, curve.nvars, comp.degree)
                     for comp in u_generator(curve))
        with pytest.raises(SingularCurveError, match="duality pairing is degenerate"):
            theta_apply(curve, zero, zero)


def test_plane_and_general_paths_agree(F5, F7, F9, golden_curve):
    """The general complete-intersection path, run on plane curves, gives
    the plane path's triple: the golden quartic plus seeded random smooth
    quartics and quintics."""
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
        A_gen = _hw_general_matrix(curve)
        assert np.array_equal(A_gen, t.A_phi)
        kappa = null_space(curve.field, A_gen)
        if kappa.shape[0]:
            with_kernel += 1
            psi_gen = _psi_general(curve, kappa, u_generator(curve))
            assert np.array_equal(psi_gen, t.A_psi)
    assert (len(curves), with_kernel) == (36, 6)


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
                assert t.g == g == ci_q_basis(curve).dim
                assert rank(field, t.A_psi) == t.h
                if t.h:
                    assert not field.matmul(t.A_psi.T, t.A_phi).any()
                checked += 1
    assert checked == 30


def test_ci_23_triple(ci_23_curve):
    t = hw_triple(ci_23_curve)
    assert t.g == 4
    u = u_generator(ci_23_curve)
    assert len(u) == 2
    assert t.fast_tag == "ordinary"


def test_ci_interesting_fixture(F5):
    """(2,3) intersection with a nontrivial kernel, exercising the general
    second-operator path."""
    rng = np.random.default_rng(2024)
    b2, b3 = monomial_basis(4, 2), monomial_basis(4, 3)
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
        assert final_type_from_AF(dm.A_F, dm.gram, F9) == \
            final_type_from_FV(full_F, full_V, F9) == res.final_type
        tags.append(t.fast_tag)
    assert "interesting" in tags


@pytest.mark.parametrize("p,m,degrees", [(5, 1, (4, 6)), (31, 1, (4, 5)), (3, 2, (4, 5))])
def test_hw_plane_matrix_matches_full_product(p, m, degrees):
    """The coefficient-only Hasse-Witt matrix equals the gather from the
    full product f * f^(p-2) it replaces (GF(5) takes sextics for quintics,
    since 5 divides 5)."""
    field = field_new(p, m)
    rng = np.random.default_rng(97 * p + m)
    for d in degrees:
        md = monomial_basis(3, d - 3).exps
        for _ in range(4):
            curve = plane_curve(field, GradedPoly(
                field, 3, d, field.random_elements(rng, (len(monomial_basis(3, d)),))))
            full = poly_mul(curve.polys[0], curve._powers_pm2[0])
            expected = gather(full, p * md[None] + (p - 1) - md[:, None])
            assert np.array_equal(_hw_plane_matrix(curve), expected)


def test_curve_beyond_work_budget_refused():
    big = field_new(1000003)
    with pytest.raises(ConstraintError, match="work budget"):
        fermat_curve(big, 4)
