import hashlib
import json
import random
import time
import tracemalloc

import numpy as np
import pytest
from conftest import parse_oracle

from eotypes import ConstraintError, GradedPoly, PolyParseError, cli, golden, monomial_basis
from eotypes.cli import (build_report, main, parse_poly, read_dm_file,
                         render_poly, validate_report)
from eotypes.eoclass import (WeylCoset, final_type_from_weyl,
                             invariants_from_weyl)
from eotypes.golden import GOLDEN_AF, GOLDEN_TEXT, GOLDEN_WEYL, GOLDEN_WEYL_WORD


def test_parse_golden(F5, golden_poly):
    assert parse_poly(GOLDEN_TEXT, 3, F5) == golden_poly


def test_parse_aliases(F7):
    fermat = parse_poly("x^3+y^3+z^3", 3, F7)
    assert fermat == GradedPoly.from_terms(
        F7, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})


def test_parse_coefficients_and_signs(F5):
    p1 = parse_poly("-2*X0^2+7*X0*X1", 3, F5)
    assert p1 == GradedPoly.from_terms(F5, 3, {(2, 0, 0): -2, (1, 1, 0): 7})
    p2 = parse_poly("X0*X0*X1", 3, F5)  # repeated factors accumulate
    assert p2 == GradedPoly.from_terms(F5, 3, {(2, 1, 0): 1})
    const = parse_poly("3", 3, F5)
    assert const.degree == 0 and const.coeffs.tolist() == [3]


def test_parse_errors(F5):
    with pytest.raises(PolyParseError):
        parse_poly("X0+X1^2", 3, F5)  # not homogeneous
    with pytest.raises(PolyParseError) as exc:
        parse_poly("X0^2+X9^2", 3, F5)  # unknown variable index
    assert "X9" in str(exc.value)
    with pytest.raises(PolyParseError) as exc:
        parse_poly("X0^2+$", 3, F5)
    assert "position" in str(exc.value)
    with pytest.raises(PolyParseError):
        parse_poly("X^2", 3, F5)  # bare X needs an index
    with pytest.raises(PolyParseError):
        parse_poly("X0^2 X1", 3, F5)  # missing operator


# pieces of the differential strings: every token of the grammar, the
# characters around it, and digits of other scripts ("٣" is a decimal
# digit, "²" is not)
_DIGIT_PIECES = ["0", "1", "2", "3", "7", "12", "٣"]
_OTHER_PIECES = ["X0", "X1", "X2", "X3", "X", "x", "y", "z", "^", "*", "+", "-",
                 " ", "\t", "$", "²"]


def _differential_tokens(rng):
    """A seeded token list: half from a random degree-d form, half drawn
    freely, then edited at up to two places. A digit token never follows
    a digit token, so no integer has more than two digits."""
    pieces = _DIGIT_PIECES + _OTHER_PIECES
    if rng.random() < 0.5:
        d = rng.randint(1, 4)
        tokens = []
        for t in range(rng.randint(1, 3)):
            if t:
                tokens.append(rng.choice(["+", "-", " + ", "\t-"]))
            elif rng.random() < 0.3:
                tokens.append("-")
            if rng.random() < 0.5:
                tokens += [str(rng.randrange(20)), "*"]
            left = d
            while left:
                k = rng.randint(1, left)
                tokens.append(rng.choice(["x", "y", "z", "X0", "X1", "X2"]))
                tokens += ["^", str(k)] if k > 1 or rng.random() < 0.2 else []
                tokens += ["*"] if k < left else []
                left -= k
    else:
        tokens = rng.choices(pieces, k=rng.randrange(12))
    for _ in range(rng.randrange(3)):
        i, action = rng.randint(0, len(tokens)), rng.randrange(3)
        if action == 0 and i < len(tokens):
            del tokens[i]
        else:
            tokens[i:i + (action == 2)] = [rng.choice(pieces)]
    kept = []
    for t in tokens:
        if not (kept and t.isdecimal() and kept[-1].isdecimal()):
            kept.append(t)
    return kept


def test_parse_matches_recursive_descent_oracle(F5):
    """On 100,000 seeded strings parse_poly returns what the recursive-
    descent oracle returns, or both refuse; the oracle's ValueError (a digit
    int() cannot read) counts as a refusal. A refusal of parse_poly is a
    PolyParseError, or a ConstraintError where the oracle gives one too."""
    rng = random.Random(0)
    outcomes = {"same": 0, "refused": 0}
    for _ in range(100_000):
        text = "".join(_differential_tokens(rng))
        nvars = 3 if rng.random() < 0.8 else 4
        try:
            expected = parse_oracle(text, nvars, F5)
        except (PolyParseError, ConstraintError, ValueError) as exc:
            expected = type(exc)
        try:
            got = parse_poly(text, nvars, F5)
        except (PolyParseError, ConstraintError) as exc:
            got = type(exc)
        if isinstance(got, GradedPoly):
            assert got == expected, text
            outcomes["same"] += 1
        else:
            assert expected is got or (got is PolyParseError and expected is ValueError), text
            outcomes["refused"] += 1
    assert min(outcomes.values()) >= 20_000, outcomes


@pytest.mark.parametrize("text", ["X0^²+X1^2+X2^2", "7" * 5000 + "*x^2+y^2+z^2",
                                  "x^2+y^" + "1" * 4400 + "+z^2"],
                         ids=["superscript-exponent", "5000-digit-coefficient",
                              "4400-digit-exponent"])
def test_undecodable_integers_exit_2(capsys, text):
    assert main(["eotype", "--p", "5", "--f", text]) == 2
    assert "parse error" in capsys.readouterr().err


def test_huge_degree_refused_quickly(capsys):
    t0 = time.perf_counter()
    try:
        assert main(["eotype", "--p", "7", "--f", "x^3000+y^3000+z^3000"]) == 3
    finally:
        monomial_basis.cache_clear()
    assert time.perf_counter() - t0 < 2
    assert "work budget" in capsys.readouterr().err


def test_huge_degree_refused_before_any_form_is_placed(capsys):
    """The powers' budget is checked from the parsed degrees, so a refused
    form leaves no basis in the cache and allocates next to nothing."""
    monomial_basis.cache_clear()
    tracemalloc.start()
    try:
        code = main(["eotype", "--p", "7", "--f", "x^3000+y^3000+z^3000"])
        peak = tracemalloc.get_traced_memory()[1]
        cached = monomial_basis.cache_info().currsize
    finally:
        tracemalloc.stop()
        monomial_basis.cache_clear()
    assert code == 3
    assert cached == 0
    assert peak < 5 * 2 ** 20
    assert "powers of this curve" in capsys.readouterr().err


def test_parse_error_in_any_form_exits_2(capsys):
    """Every form is parsed before any is placed: a malformed second form
    exits 2 even after a first form too large to place."""
    monomial_basis.cache_clear()
    try:
        assert main(["eotype", "--p", "5", "--n", "3", "--f", "X0^2000+X1^2000",
                     "--f2", "X0^3+X1^2"]) == 2
        assert monomial_basis.cache_info().currsize == 0
    finally:
        monomial_basis.cache_clear()
    assert "not homogeneous" in capsys.readouterr().err


def test_render_roundtrip_random(F5):
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        coeffs = rng.integers(0, 5, len(monomial_basis(3, d)))
        poly = GradedPoly(F5, 3, d, coeffs)
        if poly.is_zero():
            continue
        assert parse_poly(render_poly(poly), 3, F5) == poly


def test_cmd_eotype_json(capsys):
    code = main(["eotype", "--p", "5", "--f", GOLDEN_TEXT, "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    validate_report(report)
    assert report["weyl_one_line"] == list(GOLDEN_WEYL)
    assert report["hasse_witt"] == [[0, 4, 1], [0, 2, 3], [0, 2, 3]]
    assert report["a_number"] == 2 and report["p_rank"] == 0
    assert report["weyl_word"] == GOLDEN_WEYL_WORD
    assert report["fast_tag"] == "interesting"
    assert "smoothness" not in report  # a checked curve's report is unchanged


def test_cmd_eotype_text(capsys):
    assert main(["eotype", "--p", "5", "--f", GOLDEN_TEXT]) == 0
    out = capsys.readouterr().out
    assert "s3*s2" in out and "p-rank 0" in out


def test_exit_codes(capsys):
    assert main(["eotype", "--p", "4", "--f", "x^4+y^4+z^4"]) == 3  # not prime
    assert main(["eotype", "--p", "2", "--f", "x^4+y^4+z^4"]) == 3  # p | d
    assert main(["eotype", "--p", "5", "--f", "X0^4+X1^4"]) == 4  # singular
    assert main(["eotype", "--p", "5", "--f", "X0+X1^2"]) == 2  # parse error
    capsys.readouterr()


def test_space_curve_on_reducible_quadric_exits_singular(capsys):
    # x*y = 0 splits the curve into two plane cubics meeting in three points;
    # the ordinary path now checks dim U = 1 as well
    assert main(["eotype", "--p", "7", "--n", "3", "--f", "x*y",
                 "--f2", "X0^3+X1^3+X2^3+X3^3"]) == 4
    assert "dim U = 3" in capsys.readouterr().err


def test_cmd_hw(capsys):
    assert main(["hw", "--p", "5", "--f", GOLDEN_TEXT, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hasse_witt"] == [[0, 4, 1], [0, 2, 3], [0, 2, 3]]
    assert payload["kernel_basis"] == [[1, 0, 0], [0, 1, 1]]
    assert payload["second_operator"] == [[3, 3], [1, 3], [3, 1]]


def test_classify_dm_command(tmp_path, capsys):
    path = tmp_path / "module.txt"
    lines = ["3 5 1"] + [" ".join(str(x) for x in row) for row in GOLDEN_AF]
    path.write_text("\n".join(lines) + "\n")
    field, A_F = read_dm_file(str(path))
    assert field.p == 5 and A_F.shape == (6, 3)
    assert main(["classify-dm", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["weyl_one_line"] == list(GOLDEN_WEYL)
    assert payload["stratum_dim"] == 2


def test_classify_dm_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 5 1\n0 0\n0 0\n0 0\n0 0\n")
    assert main(["classify-dm", str(path)]) == 3  # dependent columns
    path2 = tmp_path / "short.txt"
    path2.write_text("2 5 1\n1 0\n")
    assert main(["classify-dm", str(path2)]) == 2
    capsys.readouterr()


def test_classify_dm_refuses_non_isotropic_image(tmp_path, capsys):
    # Im F = <e1, e4> with b(e1, e4) = 1: independent columns, but no module
    path = tmp_path / "module.txt"
    path.write_text("2 5 1\n1 0\n0 0\n0 0\n0 1\n")
    assert main(["classify-dm", str(path)]) == 3
    assert "isotropic" in capsys.readouterr().err


def test_classify_dm_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "module.txt"
    path.write_bytes(b"\xff\xfe\x00\x01")
    assert main(["classify-dm", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_classify_dm_p_beyond_int64_range(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("1 3037000493 1\n0\n1\n")
    assert main(["classify-dm", str(path)]) == 3
    capsys.readouterr()


def test_classify_dm_missing_file(tmp_path, capsys):
    assert main(["classify-dm", str(tmp_path / "absent.txt")]) == 3
    err = capsys.readouterr().err
    assert "absent.txt" in err and len(err.strip().splitlines()) == 1


def test_out_path_in_missing_directory(tmp_path, capsys):
    out = tmp_path / "absent" / "report.txt"
    assert main(["eotype", "--p", "7", "--f", "x^3+y^3+z^3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "report.txt" in err and len(err.strip().splitlines()) == 1


def test_scan_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scan", "--p", "5", "--d", "4", "--count", "60",
                 "--seed", "7", "--out", str(out1)]) == 0
    assert main(["scan", "--p", "5", "--d", "4", "--count", "60",
                 "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "weyl_one_line,final_type,p_rank,a_number,stratum_dim,count"
    assert lines[-1].startswith("TOTAL")
    assert lines[-2].startswith("SINGULAR")
    singular = int(lines[-2].split(",")[-1])
    smooth = sum(int(ln.split(",")[-1]) for ln in lines[1:-2])
    assert smooth + singular == 60


# SHA-256 of the seed-7 scan CSVs, recorded while the plane smoothness check
# was still the Macaulay rank of the partials: a changed rejection or class
# changes them
SCAN_CENSUS = {
    (2, 5, 60): "8f4810bd81c576fa531fde7716bc6a5b28472bd4680d229ea5d8c4bf66a39d1d",
    (5, 4, 200): "6d33f260a5dd748e9394042189506f130dde4ad8986ecaf9b1ec76c64ea736bc",
    (31, 5, 60): "eb3e3f5d331de52d8693ac16f773f40c81da10217541cecc67d55ca19c4cdb35",
}


@pytest.mark.parametrize("p,d,count", sorted(SCAN_CENSUS))
def test_scan_census_pinned(tmp_path, p, d, count):
    out = tmp_path / "census.csv"
    assert main(["scan", "--p", str(p), "--d", str(d), "--count", str(count),
                 "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_CENSUS[(p, d, count)]


def test_scan_rows_match_their_coset(capsys):
    assert main(["scan", "--p", "3", "--d", "4", "--count", "60"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:-2]
    assert len(rows) >= 3
    for row in rows:
        w, f, p_rank, a_number, dim, _ = row.split(",")
        coset = WeylCoset([int(x) for x in w.split()])
        assert f == " ".join(map(str, final_type_from_weyl(coset).values))
        assert (int(p_rank), int(a_number), int(dim)) == invariants_from_weyl(coset, coset.g)


@pytest.mark.parametrize("flag,value", [("--count", "-3"), ("--seed", "-1")])
def test_scan_rejects_negative_count_and_seed(flag, value, capsys):
    args = {"--count": "10", "--seed": "0", flag: value}
    argv = ["scan", "--p", "5", "--d", "4"] + [x for kv in args.items() for x in kv]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-negative" in captured.err and len(captured.err.strip().splitlines()) == 1


def test_scan_zero_count(capsys):
    assert main(["scan", "--p", "5", "--d", "4", "--count", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["SINGULAR,,,,,0", "TOTAL,,,,,0"]


def test_scan_genus_one_types(tmp_path):
    out = tmp_path / "g1.csv"
    assert main(["scan", "--p", "5", "--d", "3", "--count", "50",
                 "--seed", "1", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:-2]
    for row in rows:
        w = row.split(",")[0]
        assert w in ("1 2", "2 1")  # supersingular or ordinary elliptic


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 20 and "FAIL" not in out


def test_selftest_corrupted_names_first_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(golden, "GOLDEN_HW", [[1, 4, 1]] + golden.GOLDEN_HW[1:])
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "CHECK hasse-witt matrix: FAIL" in out


def test_report_schema_rejects_bad(golden_curve, golden_triple):
    from eotypes import classify
    from eotypes.errors import InternalInvariantError
    report = build_report(golden_curve, golden_triple, classify(golden_triple),
                          {"total_s": 0.0})
    bad = dict(report)
    bad.pop("genus")
    with pytest.raises(InternalInvariantError):
        validate_report(bad)
    bad2 = dict(report)
    bad2["final_type"] = [0, 0]
    with pytest.raises(InternalInvariantError):
        validate_report(bad2)


def test_extension_field_flags(capsys):
    # quartic over GF(9): exercises --ext and --modulus plumbing
    code = main(["eotype", "--p", "3", "--ext", "2", "--modulus", "1,0,1",
                 "--f", "x^4+y^4+z^4", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ext_degree"] == 2 and report["genus"] == 3
    validate_report(report)


@pytest.mark.parametrize("command", ["eotype", "hw"])
def test_extension_degree_zero_exits_3(capsys, command):
    # --ext 0 used to fall back to m = 1 and classify over GF(5)
    assert main([command, "--p", "5", "--ext", "0", "--f", "x^3+y^3+z^3"]) == 3
    assert "extension degree m = 0" in capsys.readouterr().err


def test_huge_extension_degree_exits_3_fast(tmp_path, capsys):
    # q = 5^(10^8) used to be formed before it was refused: eotype ran for
    # minutes, and m = 10^7 took seconds in both commands
    path = tmp_path / "module.txt"
    path.write_text("1 5 100000000\n1\n0\n")
    for argv in (["eotype", "--p", "5", "--ext", "100000000", "--f", "x^3+y^3+z^3"],
                 ["classify-dm", str(path)]):
        t0 = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - t0 < 1.0
        assert "GF(5^100000000) is too large" in capsys.readouterr().err


def test_abbreviated_flags_are_refused(capsys):
    # "--m 2" used to expand to "--modulus 2" and classify over GF(7)
    for argv in (["eotype", "--p", "7", "--m", "2", "--f", "x^3+y^3+z^3"],
                 ["hw", "--p", "7", "--e", "2", "--f", "x^3+y^3+z^3"],
                 ["scan", "--p", "5", "--d", "4", "--count", "3", "--se", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_modulus_without_extension_exits_3(capsys):
    assert main(["eotype", "--p", "7", "--modulus", "3,1", "--f", "x^3+y^3+z^3"]) == 3
    assert "extension degree" in capsys.readouterr().err


def test_empty_modulus_exits_3(capsys):
    # an empty --modulus used to fall back to the default modulus and exit 0
    assert main(["eotype", "--p", "7", "--ext", "2", "--modulus", "",
                 "--f", "X0^3+X1^3+X2^3"]) == 3
    assert "is not a comma-separated integer list" in capsys.readouterr().err


def test_eotype_beyond_work_budget_exits_fast(capsys):
    t0 = time.perf_counter()
    assert main(["eotype", "--p", "1000003", "--f", "x^4+y^4+z^4"]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "work budget" in capsys.readouterr().err


def test_linear_algebra_beyond_work_budget_exits_fast(capsys):
    # the smoothness matrix of a degree-301 plane curve would be 1.59 TiB
    t0 = time.perf_counter()
    assert main(["eotype", "--p", "5", "--f", "x^301+y^301+z^301"]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "smoothness check" in err and "work budget" in err


NODAL_CUBIC = "y^2*z - x^3 - x^2*z"


def test_skip_smoothness_is_an_unknown_flag(capsys):
    """No flag skips the smoothness check: the nodal cubic, which it once
    let through as ordinary with exit 0, exits 4, and --skip-smoothness
    exits 2 as an unknown flag for both commands."""
    assert main(["eotype", "--p", "7", "--f", NODAL_CUBIC]) == 4
    capsys.readouterr()
    for command in ("eotype", "hw"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--p", "7", "--f", NODAL_CUBIC, "--skip-smoothness"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --skip-smoothness" in capsys.readouterr().err


def test_unwritable_out_fails_before_any_work(tmp_path, monkeypatch, capsys):
    def computed(*args, **kwargs):
        raise AssertionError("the curve was computed before --out was opened")
    monkeypatch.setattr(cli, "hw_triple", computed)
    out = tmp_path / "absent" / "report.txt"
    for command in ("eotype", "hw"):
        assert main([command, "--p", "101", "--f", "x^4+y^4+z^4+x*y^2*z",
                     "--out", str(out)]) == 3
    assert "report.txt" in capsys.readouterr().err


def test_failing_curve_leaves_out_file_untouched(tmp_path, capsys):
    fresh = tmp_path / "fresh.txt"
    for command in ("eotype", "hw"):
        assert main([command, "--p", "5", "--f", "X0^4+X1^4", "--out", str(fresh)]) == 4
        assert not fresh.exists()
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier report\n")
    assert main(["eotype", "--p", "5", "--f", "X0^4+X1^4", "--out", str(kept)]) == 4
    assert kept.read_text() == "earlier report\n"
    # a success replaces all of a longer earlier content
    kept.write_text("x" * 10000)
    assert main(["eotype", "--p", "5", "--f", GOLDEN_TEXT, "--json", "--out", str(kept)]) == 0
    validate_report(json.loads(kept.read_text()))
    capsys.readouterr()


def test_out_to_a_character_device(capsys):
    """/dev/null reports itself seekable but cannot be truncated; the
    report is written to it and the command exits 0."""
    for command in ("eotype", "hw"):
        assert main([command, "--p", "7", "--f", "x^3+y^3+z^3", "--out", "/dev/null"]) == 0
    assert capsys.readouterr().err == ""


GENUS_ONE_SINGULAR = ["--n", "3", "--f", "X0*X1+X2*X3", "--f2", "X0*X1+X1^2+X2^2+X3^2"]


@pytest.mark.parametrize("p", [5, 7, 11])
def test_singular_genus_one_space_curve_exits_4(capsys, p):
    """Both forms vanish at (1:0:0:0) with equal gradients there, so the
    (2,2) curve is singular. dim Q = g, dim U = 1 and the rank-1 pairing
    all pass it; the catalecticant of u in degree 1 has rank 1, so it
    exits 4."""
    assert main(["eotype", "--p", str(p), *GENUS_ONE_SINGULAR]) == 4
    assert "the space curve is singular" in capsys.readouterr().err
