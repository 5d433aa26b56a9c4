import json
import time

import numpy as np
import pytest

from eotypes import GradedPoly, PolyParseError, cli, monomial_basis
from eotypes.cli import (build_report, main, parse_poly, read_dm_file,
                         render_poly, validate_report)
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


def test_skip_smoothness_flag(capsys):
    # singular input sneaks past the check but trips the rank-1 relation space
    code = main(["eotype", "--p", "5", "--f", "X0^4+X1^4", "--skip-smoothness"])
    assert code == 4
    capsys.readouterr()


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


def test_selftest_corrupted_names_first_mismatch(capsys):
    assert main(["selftest", "--corrupt"]) == 1
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


def test_skipped_smoothness_is_recorded(capsys):
    assert main(["eotype", "--p", "7", "--f", NODAL_CUBIC]) == 4
    capsys.readouterr()
    assert main(["eotype", "--p", "7", "--f", NODAL_CUBIC, "--skip-smoothness", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    validate_report(report)
    assert report["smoothness"] == "skipped"
    assert report["genus"] == 1 and report["fast_tag"] == "ordinary"
    assert main(["eotype", "--p", "7", "--f", NODAL_CUBIC, "--skip-smoothness"]) == 0
    assert "smoothness: skipped" in capsys.readouterr().out.splitlines()
    assert main(["hw", "--p", "7", "--f", NODAL_CUBIC, "--skip-smoothness", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["smoothness"] == "skipped"
    assert main(["hw", "--p", "7", "--f", NODAL_CUBIC, "--skip-smoothness"]) == 0
    assert "smoothness: skipped" in capsys.readouterr().out.splitlines()
    assert main(["hw", "--p", "5", "--f", GOLDEN_TEXT]) == 0
    assert "smoothness" not in capsys.readouterr().out


def test_report_smoothness_field_only_says_skipped(golden_curve, golden_triple):
    from eotypes import classify
    from eotypes.errors import InternalInvariantError
    result = classify(golden_triple)
    report = build_report(golden_curve, golden_triple, result, {}, smoothness_skipped=True)
    assert report["smoothness"] == "skipped"
    with pytest.raises(InternalInvariantError):
        validate_report(dict(report, smoothness="checked"))


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
