import itertools
import sys

import numpy as np
import pytest
from conftest import complement_oracle, module_axioms_oracle

from eotypes import (ConstraintError, HWTriple, KraftWord, PolarizedDM,
                     assemble_dm, classify, dm_to_hw, enumerate_polarized_dms,
                     field_new, full_fv_matrices, null_space, random_hw_triple,
                     rank, semilinear, standard_gram, standard_module,
                     symplectic_perp, validate_dm, validate_unpolarized)
from eotypes.dieudonne import _block_diag
from eotypes.golden import GOLDEN_AF, GOLDEN_V
from eotypes.semilinear import Subspace


def test_assemble_golden(golden_triple):
    dm = assemble_dm(golden_triple)
    assert dm.A_F.tolist() == GOLDEN_AF


def test_assemble_ordinary_and_superspecial(F5):
    # ordinary: empty kernel forces the complement to be everything
    A_phi = np.array([[1, 0], [0, 2]])
    t = HWTriple(F5, 2, A_phi, np.zeros((0, 2), int), np.zeros((2, 0), int))
    dm = assemble_dm(t)
    assert dm.A_F.tolist() == [[1, 0], [0, 2], [0, 0], [0, 0]]
    # superspecial: zero operator forces kernel coordinates everywhere
    A_psi = np.array([[1, 2], [3, 4]])
    t2 = HWTriple(F5, 2, np.zeros((2, 2), int), np.eye(2, dtype=int), A_psi)
    dm2 = assemble_dm(t2)
    assert dm2.A_F.tolist() == [[0, 0], [0, 0], [3, 4], [1, 2]]


def test_full_fv_golden(golden_triple):
    dm = assemble_dm(golden_triple)
    full_F, full_V = full_fv_matrices(dm)
    assert full_F[:, :3].tolist() == GOLDEN_AF
    assert not full_F[:, 3:].any()
    assert full_V.tolist() == GOLDEN_V
    assert validate_dm(full_F, full_V, dm.field) == []


def test_validate_dm_detects_violations(F5, golden_triple):
    dm = assemble_dm(golden_triple)
    full_F, full_V = full_fv_matrices(dm)
    # single-entry perturbation breaks the pairing identity
    bad_V = full_V.copy()
    bad_V[4, 2] = (bad_V[4, 2] + 1) % 5
    assert "b(Fx,y) != b(x,Vy)^p" in validate_dm(full_F, bad_V, F5)
    # zero V against an invertible block breaks the kernel-image axiom
    viol = validate_dm(np.array([[1, 0], [0, 0]]), np.zeros((2, 2), int), F5)
    assert "Ker F != Im V" in viol


def test_dm_to_hw_roundtrip_golden(F5, golden_triple):
    dm = assemble_dm(golden_triple)
    full_F, full_V = full_fv_matrices(dm)
    t2 = dm_to_hw(full_F, full_V, F5)
    assert classify(t2).weyl == classify(golden_triple).weyl


def test_dm_to_hw_g1_standard_modules(F5):
    # the self-paired supersingular cycle carries the standard form when its
    # coefficients multiply to -1 (code 4 is -1 in GF(25))
    F25 = field_new(5, 2)
    Fs, Vs = standard_module(("F", "V"), F25, a=[1, 4])
    assert validate_dm(Fs, Vs, F25) == []
    t = dm_to_hw(Fs, Vs, F25)
    assert t.A_phi.tolist() == [[0]] and t.h == 1 and t.A_psi.shape == (1, 1)
    assert t.A_psi[0, 0] != 0
    # the ordinary dual pair carries the standard form as-is
    Ford = _block_diag([standard_module(("F",), F5)[0], standard_module(("V",), F5)[0]])
    Vord = _block_diag([standard_module(("F",), F5)[1], standard_module(("V",), F5)[1]])
    t2 = dm_to_hw(Ford, Vord, F5)
    assert t2.h == 0 and t2.A_phi[0, 0] != 0


def test_dm_to_hw_rejects_invalid(F5):
    with pytest.raises(ConstraintError):
        dm_to_hw(np.array([[1, 0], [0, 0]]), np.zeros((2, 2), int), F5)


def test_validate_dm_agrees_with_the_brute_force_axioms(monkeypatch):
    """validate_dm checks three axioms; the oracle checks those and that
    Ker F and Ker V are maximal isotropic, which the three imply. They agree
    on every 2 x 2 pair over GF(2), and over GF(3) on seeded random pairs,
    modules and modules with one entry changed; no perpendicular is taken."""
    real = semilinear.symplectic_perp
    perps = []

    def spy(W):
        perps.append(W)
        return real(W)

    for module in [m for name, m in sys.modules.items()
                   if name.startswith("eotypes") and getattr(m, "symplectic_perp", None) is real]:
        monkeypatch.setattr(module, "symplectic_perp", spy)
    F2, F3 = field_new(2), field_new(3)
    matrices = [np.array(e).reshape(2, 2) for e in itertools.product(range(2), repeat=4)]
    cases = [(F2, F, V) for F in matrices for V in matrices]
    rng = np.random.default_rng(28)
    for _ in range(60):
        cases.append((F3, F3.random_elements(rng, (4, 4)), F3.random_elements(rng, (4, 4))))
        F, V = full_fv_matrices(assemble_dm(random_hw_triple(F3, 2, rng)))
        changed = F.copy()
        i, j = rng.integers(0, 4, 2)
        changed[i, j] = (changed[i, j] + rng.integers(1, 3)) % 3
        cases += [(F3, F, V), (F3, changed, V)]
    verdicts = [(field.p, module_axioms_oracle(field, F, V)) for field, F, V in cases]
    assert verdicts == [(field.p, validate_dm(F, V, field) == []) for field, F, V in cases]
    assert {(2, True), (2, False), (3, True), (3, False)} <= set(verdicts)
    assert perps == []


@pytest.mark.parametrize("call,message", [
    (lambda t: PolarizedDM(t.field, np.zeros((3, 2), int)), "must be 2g x g"),
    (lambda t: assemble_dm(t, scan="sideways"), "unknown scan order 'sideways'"),
    (lambda t: KraftWord(()), "needs letters"),
    (lambda t: KraftWord("FX"), "needs letters"),
], ids=["block-shape", "scan-order", "empty-word", "bad-letter"])
def test_argument_checks(golden_triple, call, message):
    with pytest.raises(ConstraintError, match=message):
        call(golden_triple)


def test_odd_ambient_dimension_refused(F5):
    """The standard form exists only in even dimension: the perpendicular,
    the module axioms and the reverse construction all refuse an odd one."""
    with pytest.raises(ConstraintError, match="even"):
        symplectic_perp(Subspace.span(F5, np.array([[1, 0, 0]])))
    F, V = np.eye(3, dtype=int), np.zeros((3, 3), int)
    for check in (validate_dm, dm_to_hw):
        with pytest.raises(ConstraintError, match="even"):
            check(F, V, F5)


def test_standard_module_fixtures(F5):
    Fm, Vm = standard_module(("F", "V"), F5)
    # F(e_1) = e_2, F(e_2) = 0, V(e_1) = e_2, V(e_2) = 0
    assert Fm.tolist() == [[0, 0], [1, 0]]
    assert Vm.tolist() == [[0, 0], [1, 0]]
    assert validate_unpolarized(Fm, Vm, F5) == []
    Fo, Vo = standard_module(("F",), F5)
    assert Fo.tolist() == [[1]] and Vo.tolist() == [[0]]
    with pytest.raises(ConstraintError):
        standard_module(("F", "V"), F5, a=[1, 0])


def test_standard_module_refuses_codes_outside_the_field():
    # taken mod 25, -1 would be code 24 and 26 would be 1, neither of them -1
    F25 = field_new(5, 2)
    for a in ([1, -1], [1, 26], [1, 25]):
        with pytest.raises(ConstraintError):
            standard_module(("F", "V"), F25, a=a)


def test_standard_module_extension_twist():
    F9 = field_new(3, 2)
    t_code = 3  # generator
    Fm, Vm = standard_module(("F", "V"), F9, a=[t_code, t_code])
    assert validate_unpolarized(Fm, Vm, F9) == []


def test_kraft_word_canonicalization():
    w = KraftWord(("V", "F", "F"))
    assert w.canonical().word == ("F", "F", "V")
    assert w.check_dual().word == ("F", "V", "V")
    assert KraftWord(("F", "V")).is_self_paired_admissible()
    assert not KraftWord(("F", "F")).is_self_paired_admissible()
    assert KraftWord(("F", "F", "V", "V")).is_self_paired_admissible()
    assert not KraftWord(("F", "V", "F", "V")).is_self_paired_admissible()


def test_enumeration_counts_and_axioms():
    F2 = field_new(2)
    sizes = {1: 2, 2: 6, 3: 14}
    for g, expected in sizes.items():
        mods = enumerate_polarized_dms(g)
        assert len(mods) == expected
        for m in mods:
            assert m["F"].shape == (2 * g, 2 * g)
            assert validate_unpolarized(m["F"], m["V"], F2) == []
    with pytest.raises(ConstraintError):
        enumerate_polarized_dms(5)


def test_enumeration_rejects_inadmissible_cycles():
    labels = [m["label"] for m in enumerate_polarized_dms(2)]
    assert not any("cycle[FF]" in lab or "cycle[VV]" in lab for lab in labels)
    assert not any("cycle[FVFV]" in lab for lab in labels)


def test_roundtrip_property_random(F5):
    rng = np.random.default_rng(101)
    for _ in range(100):
        g = int(rng.integers(1, 5))
        t = random_hw_triple(F5, g, rng)
        dm = assemble_dm(t)
        full_F, full_V = full_fv_matrices(dm)
        assert validate_dm(full_F, full_V, F5) == []
        t2 = dm_to_hw(full_F, full_V, F5)
        assert classify(t2).weyl == classify(t).weyl


def test_ker_f_reduced_once(F5, golden_triple, monkeypatch):
    """validate_unpolarized's kernel-image check, validate_dm's isotropy
    check and dm_to_hw's quotient all use Ker F: full_F is reduced once
    per call, on the golden module (h = 2) and a seeded one with h = 1."""
    kernel, seen = semilinear._kernel, []

    def spy(field, M):
        seen.append(np.array(M))
        return kernel(field, M)
    monkeypatch.setattr(semilinear, "_kernel", spy)
    for t in (golden_triple, random_hw_triple(F5, 3, np.random.default_rng(0))):
        full_F, full_V = full_fv_matrices(assemble_dm(t))
        for call in (validate_dm, dm_to_hw):
            seen.clear()
            call(full_F, full_V, F5)
            assert sum(np.array_equal(M, full_F) for M in seen) == 1


def test_complement_choice_invariance(F5):
    rng = np.random.default_rng(55)
    for _ in range(100):
        g = int(rng.integers(1, 5))
        t = random_hw_triple(F5, g, rng)
        wd = classify(assemble_dm(t, scan="descending")).weyl
        wa = classify(assemble_dm(t, scan="ascending")).weyl
        assert wd == wa


def test_assembled_image_isotropic(F5):
    rng = np.random.default_rng(61)
    for _ in range(50):
        g = int(rng.integers(1, 5))
        t = random_hw_triple(F5, g, rng)
        dm = assemble_dm(t)
        assert rank(F5, dm.A_F) == g
        image = Subspace.span(F5, dm.A_F.T)
        assert image.is_subspace_of(symplectic_perp(image))


def test_polarized_dm_rejects_dependent_columns(F5):
    with pytest.raises(ConstraintError):
        PolarizedDM(F5, np.zeros((4, 2), int))


@pytest.mark.parametrize("p,m", [(5, 1), (3, 2), (7, 3)])
def test_polarized_dm_refuses_exactly_non_isotropic_images(p, m):
    """PolarizedDM refuses a Frobenius block of independent columns exactly
    when A_F^T gram A_F, formed in full, is nonzero; assembled modules, and
    blocks whose second half is zero, pass."""
    field = field_new(p, m)
    rng = np.random.default_rng(p * m)
    refused = 0
    for _ in range(40):
        g = int(rng.integers(1, 5))
        A_F = field.random_elements(rng, (2 * g, g))
        if rng.random() < 0.3:
            A_F[g:] = 0
        if rank(field, A_F) != g:
            continue
        form = field.matmul(A_F.T, field.matmul(standard_gram(field, g), A_F))
        if form.any():
            refused += 1
            with pytest.raises(ConstraintError, match="isotropic"):
                PolarizedDM(field, A_F)
        else:
            PolarizedDM(field, A_F)
        assemble_dm(random_hw_triple(field, g, rng))
    assert refused >= 10


def _triple_with_kernel(F, g, h, rng):
    """Random valid triple whose first operator has rank g - h."""
    while True:
        A_phi = F.matmul(F.random_elements(rng, (g, g - h)),
                         F.random_elements(rng, (g - h, g)))
        if rank(F, A_phi) == g - h:
            break
    while True:
        R = F.random_elements(rng, (h, h))
        if rank(F, R) == h:
            break
    A_psi = F.matmul(null_space(F, A_phi.T).T, R)
    return HWTriple(F, g, A_phi, null_space(F, A_phi), A_psi)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (101, 1), (2, 2),
                                 (3, 2), (5, 2), (2, 3), (7, 3)])
def test_complement_matches_oracle(p, m):
    # A column of the assembled block's lower half is zero exactly on the
    # complement: there the kernel coordinates vanish, elsewhere they do not
    # and the second operator is injective. assemble_dm reads the complement
    # off one reduction of kappa; the oracle is the greedy scan.
    F = field_new(p, m)
    rng = np.random.default_rng(p * 10 + m)
    for g in range(1, 7):
        for h in sorted({0, g // 2, g - 1, g}):
            t = _triple_with_kernel(F, g, h, rng)
            assert t.h == h
            for scan in ("descending", "ascending"):
                A_F = assemble_dm(t, scan).A_F
                complement = complement_oracle(F, t.kappa, scan)
                assert np.flatnonzero(~A_F[g:].any(axis=0)).tolist() == complement
                assert np.array_equal(A_F[:g, complement], t.A_phi[:, complement])
