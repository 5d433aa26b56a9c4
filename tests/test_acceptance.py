"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
output. Every tolerance here is exact equality; timing budgets are wall
clock upper bounds.
"""

import io
import time

import numpy as np

from conftest import integer_power_terms
from eotypes import (GradedPoly, HWTriple, assemble_dm,
                     classify, enumerate_polarized_dms, field_new,
                     final_type_from_AF, final_type_from_FV,
                     full_fv_matrices, genus, hw_triple, monomial_basis,
                     plane_curve, plane_smoothness_check, psi_matrix,
                     random_hw_triple, rank, stable_rank,
                     symplectic_perp, t_multiply, validate_dm,
                     weyl_from_final_type, weyl_word)
from eotypes.cli import parse_poly, run_scan
from eotypes.golden import (GOLDEN_AF, GOLDEN_FINAL_TYPE, GOLDEN_KAPPA, GOLDEN_PSI_COLS,
                            GOLDEN_TEXT, GOLDEN_V, GOLDEN_WEYL, GOLDEN_WEYL_WORD)
from eotypes.semilinear import Subspace, TwistedMap, twisted_image, twisted_kernel, twisted_preimage


def test_criterion_1_golden_example(F5):
    """Worked quartic over GF(5): every displayed quantity, exactly."""
    start = time.perf_counter()
    f = parse_poly(GOLDEN_TEXT, 3, F5)
    curve = plane_curve(F5, f)
    triple = hw_triple(curve)
    dm = assemble_dm(triple)
    full_F, full_V = full_fv_matrices(dm)
    result = classify(triple)
    elapsed = time.perf_counter() - start
    assert triple.A_phi.tolist() == [[0, 4, 1], [0, 2, 3], [0, 2, 3]]
    assert triple.kappa.tolist() == GOLDEN_KAPPA
    assert triple.A_psi[:, 0].tolist() == GOLDEN_PSI_COLS[0]
    assert triple.A_psi[:, 1].tolist() == GOLDEN_PSI_COLS[1]
    assert dm.A_F.tolist() == GOLDEN_AF
    assert full_V.tolist() == GOLDEN_V
    assert result.final_type.values == GOLDEN_FINAL_TYPE
    assert result.weyl.one_line == GOLDEN_WEYL
    assert weyl_word(result.weyl) == GOLDEN_WEYL_WORD
    assert result.p_rank == 0 and result.a_number == 2 and result.stratum_dim == 2
    assert elapsed < 1.0, f"golden example took {elapsed:.3f}s"
    print(f"\nACCEPTANCE 1 (golden example, {elapsed * 1000:.0f} ms): PASS")


def test_criterion_2_elliptic_fast_paths(F5, F7):
    """Fermat cubics: ordinary over GF(7), supersingular over GF(5)."""
    cubes = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
    oracle7 = integer_power_terms(cubes, 6)
    assert oracle7[(6, 6, 6)] == 90 and 90 % 7 == 6  # 6!/(2!2!2!)
    oracle5 = integer_power_terms(cubes, 4)
    assert (4, 4, 4) not in oracle5  # 3a = 4 unsolvable
    t7 = hw_triple(plane_curve(F7, GradedPoly.from_terms(F7, 3, cubes)))
    assert t7.A_phi.tolist() == [[6]] and t7.fast_tag == "ordinary"
    r7 = classify(t7)
    assert r7.p_rank == 1 and r7.a_number == 0
    t5 = hw_triple(plane_curve(F5, GradedPoly.from_terms(F5, 3, cubes)))
    assert t5.A_phi.tolist() == [[0]] and t5.fast_tag == "superspecial"
    r5 = classify(t5)
    assert r5.p_rank == 0 and r5.a_number == 1
    print("ACCEPTANCE 2 (elliptic fast paths): PASS")


def test_criterion_3_superspecial_detection(F7):
    """Fermat quartic over GF(7) is superspecial, by exponent matching."""
    # entry (i, j) needs the coefficient of X^(7 d_j + 6 - d_i) in a sum of
    # fourth powers; all three components must be divisible by 4 and the
    # achievable components are {6, 13, 5, 12}: impossible for all three
    for i in range(3):
        for j in range(3):
            comps = [7 * (1 if k == j else 0) + 6 - (1 if k == i else 0)
                     for k in range(3)]
            assert any(c % 4 for c in comps)
    quartic = GradedPoly.from_terms(F7, 3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    t = hw_triple(plane_curve(F7, quartic))
    assert not t.A_phi.any() and t.fast_tag == "superspecial"
    res = classify(t)
    assert res.weyl.one_line == (1, 2, 3, 4, 5, 6)
    assert res.a_number == 3 and res.stratum_dim == 0
    print("ACCEPTANCE 3 (superspecial detection): PASS")


def test_criterion_4_oracle_enumeration():
    """Module census realizes exactly 2^g classes at g = 1, 2, 3, 4."""
    start = time.perf_counter()
    field = field_new(2)
    for g, expected in ((1, 2), (2, 4), (3, 8), (4, 16)):
        outs = set()
        for mod in enumerate_polarized_dms(g):
            ft = final_type_from_FV(mod["F"], mod["V"], field)
            outs.add(weyl_from_final_type(ft).one_line)
        assert len(outs) == expected, (g, sorted(outs))
        if g == 3:
            assert (1, 4, 2, 5, 3, 6) in outs
            assert (1, 2, 4, 3, 5, 6) in outs
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"enumeration took {elapsed:.2f}s"
    print(f"ACCEPTANCE 4 (oracle enumeration, {elapsed:.2f} s): PASS")


def test_criterion_5a_dm_axioms(F5):
    rng = np.random.default_rng(510)
    for _ in range(100):
        g = int(rng.integers(1, 5))
        dm = assemble_dm(random_hw_triple(F5, g, rng))
        full_F, full_V = full_fv_matrices(dm)
        assert validate_dm(full_F, full_V, F5) == []
    print("ACCEPTANCE 5a (module axioms on 100 assembled modules): PASS")


def test_criterion_5b_invariances(F5, golden_curve, golden_triple):
    rng = np.random.default_rng(520)
    # operator scaling and complement-scan choice on random triples
    for _ in range(100):
        g = int(rng.integers(1, 5))
        t = random_hw_triple(F5, g, rng)
        c = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))
        scaled = HWTriple(F5, g, F5.scale_int(c, t.A_phi), t.kappa,
                          F5.scale_int(d, t.A_psi))
        base = classify(t)
        assert classify(scaled).weyl == base.weyl
        assert classify(assemble_dm(t, scan="ascending")).weyl == \
            classify(assemble_dm(t, scan="descending")).weyl == base.weyl
    # rescaling the duality generator on the fixture curve
    u = golden_curve.u
    base = classify(golden_triple)
    for _ in range(100):
        lam = int(rng.integers(1, 5))
        scaled_u = tuple(comp.scale(lam) for comp in u)
        psi = psi_matrix(golden_curve, golden_triple.kappa, scaled_u)
        t = HWTriple(F5, 3, golden_triple.A_phi, golden_triple.kappa, psi)
        assert classify(t).weyl == base.weyl
    print("ACCEPTANCE 5b (scaling and complement invariance): PASS")


def test_criterion_5c_path_agreement(F5):
    rng = np.random.default_rng(530)
    for _ in range(100):
        g = int(rng.integers(1, 5))
        dm = assemble_dm(random_hw_triple(F5, g, rng))
        full_F, full_V = full_fv_matrices(dm)
        assert final_type_from_AF(dm) == \
            final_type_from_FV(full_F, full_V, F5)
    print("ACCEPTANCE 5c (final-type path agreement): PASS")


def test_criterion_5d_semilinear_properties(F9):
    rng = np.random.default_rng(540)
    for _ in range(100):
        g = int(rng.integers(1, 5))
        k = int(rng.integers(0, 2 * g + 1))
        W = Subspace.span(F9, F9.random_elements(rng, (k, 2 * g)))
        assert symplectic_perp(symplectic_perp(W)) == W
        fmap = TwistedMap(F9, F9.random_elements(rng, (2 * g, 2 * g)),
                          int(rng.integers(-1, 2)))
        full = Subspace.full(F9, 2 * g)
        assert twisted_kernel(fmap).dim + twisted_image(fmap, full).dim == 2 * g
        assert twisted_preimage(fmap, twisted_image(fmap, full)) == full
    print("ACCEPTANCE 5d (perpendicular involution, rank-nullity): PASS")


def test_criterion_5e_random_smooth_curves():
    rng = np.random.default_rng(550)
    combos = [(5, 4), (7, 4), (7, 5), (11, 4), (11, 5)]
    checked = 0
    for p, d in combos:
        field = field_new(p)
        basis = monomial_basis(3, d)
        done = 0
        while done < 20:
            f = GradedPoly(field, 3, d, rng.integers(0, p, len(basis)))
            curve = plane_curve(field, f)
            if not plane_smoothness_check(curve):
                continue
            done += 1
            g = genus(curve)
            assert curve.q_basis.dim == g
            u = curve.u
            md = monomial_basis(3, d - 3).monomials
            B = np.array([t_multiply(GradedPoly.monomial(field, 3, m), u[0]).coeffs
                          for m in md])
            assert rank(field, B) == g  # pairing perfectness
            checked += 1
    assert checked == 100
    print("ACCEPTANCE 5e (dim Q = genus, perfect pairing on 100 curves): PASS")


def test_criterion_6_consistency_formulas(F5, F7):
    rng = np.random.default_rng(600)
    basis = monomial_basis(3, 4)
    classified = 0
    samples = 0
    while classified < 25 and samples < 300:
        samples += 1
        f = GradedPoly(F5, 3, 4, rng.integers(0, 5, len(basis)))
        curve = plane_curve(F5, f)
        if not plane_smoothness_check(curve):
            continue
        t = hw_triple(curve)
        res = classify(t)
        g = t.g
        assert res.a_number == t.h == g - res.final_type[g]
        assert res.p_rank == stable_rank(F5, t.A_phi)
        assert res.p_rank == sum(1 for i in range(1, g + 1)
                                 if res.weyl.one_line[i - 1] == i + g)
        classified += 1
    assert classified == 25
    # and on the named fixtures
    for field, terms in ((F7, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}),
                         (F7, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})):
        t = hw_triple(plane_curve(field, GradedPoly.from_terms(field, 3, terms)))
        res = classify(t)
        assert res.a_number == t.h == t.g - res.final_type[t.g]
        assert res.p_rank == stable_rank(field, t.A_phi)
    print("ACCEPTANCE 6 (consistency formulas on classified curves): PASS")


def test_criterion_7_scan_throughput():
    start = time.perf_counter()
    buf1 = io.StringIO()
    stats = run_scan(5, 4, 200, seed=7, out=buf1)
    elapsed = time.perf_counter() - start
    buf2 = io.StringIO()
    run_scan(5, 4, 200, seed=7, out=buf2)
    assert buf1.getvalue() == buf2.getvalue()
    valid = {weyl_from_final_type(final_type_from_FV(m["F"], m["V"], field_new(2))).one_line
             for m in enumerate_polarized_dms(3)}
    assert set(stats["hist"]) <= valid
    assert sum(stats["hist"].values()) + stats["singular"] == 200
    assert elapsed < 60.0, f"scan took {elapsed:.1f}s"
    print(f"ACCEPTANCE 7 (scan 200 curves in {elapsed:.2f} s, deterministic): PASS")


def test_criterion_8_general_ci_path(ci_23_curve):
    assert genus(ci_23_curve) == 4
    assert ci_23_curve.q_basis.dim == 4
    u = ci_23_curve.u
    assert len(u) == 2  # one component per defining form, jointly unique
    triple = hw_triple(ci_23_curve)  # HWTriple invariants validated inside
    result = classify(triple)  # FinalType and WeylCoset validated inside
    assert result.final_type.g == 4
    assert len(result.weyl.one_line) == 8
    print(f"ACCEPTANCE 8 (smooth (2,3) intersection in P^3): PASS [{result}]")
