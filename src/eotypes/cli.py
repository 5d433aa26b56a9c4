"""Command-line surface: polynomial parser, classification commands,
machine-readable reports, batch census and the built-in self-test.

Commands: eotype, hw, classify-dm, scan, selftest. Forms follow the grammar
above ``_TERM``; files are read and written as UTF-8.
Exit codes: 2 parse error, 3 constraint violation or unreadable/unwritable
file, 4 singular curve, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import re
import stat
import sys
import time

import numpy as np

from . import golden
from .dieudonne import PolarizedDM, enumerate_polarized_dms, assemble_dm, full_fv_matrices
from .eoclass import (EOResult, classify, final_type_from_FV, weyl_from_final_type,
                      weyl_word)
from .errors import (ConstraintError, InternalInvariantError, PolyParseError,
                     SingularCurveError)
from .gf import GF, field_new
from .hwtriple import CurveCI, check_power_budget, hw_triple
from .polyring import GradedPoly, monomial_basis

EXIT_PARSE = 2
EXIT_CONSTRAINT = 3
EXIT_SINGULAR = 4
EXIT_INTERNAL = 5

_VAR_ALIASES = {"x": 0, "y": 1, "z": 2}


# -- polynomial expression parser -------------------------------------------

# A form is a sum of terms, with any whitespace between two tokens:
#   form   = ["-"] term { ("+" | "-") term }
#   term   = INT | INT "*" mono | mono
#   mono   = factor { "*" factor }
#   factor = ("X" INT | "x" | "y" | "z") ["^" INT]
# INT is \d+, the decimal digits of every script: exactly what int() reads.
# _TERM matches one term and the sign before it, starting where the previous
# match ended; its "*" after a coefficient comes only with a monomial.
_FACTOR = r"(?:X(\d+)|([xyz]))(?:\s*\^\s*(\d+))?"
_FACTOR_RE = re.compile(_FACTOR)
_TERM = re.compile(rf"\s*(?P<sign>[+-]?)\s*(?P<coef>\d+)?"
                   rf"(?P<mono>(?(coef)\s*\*\s*){_FACTOR}(?:\s*\*\s*{_FACTOR})*)?\s*")


def _int(match, group) -> int:
    try:
        return int(match[group])
    except ValueError:  # more digits than the interpreter converts
        raise PolyParseError(f"integer of {len(match[group])} digits is too long",
                             match.start(group)) from None


def parse_poly(text: str, nvars: int, ctx: GF) -> GradedPoly:
    """Parse a homogeneous polynomial expression into canonical dense form."""
    return GradedPoly.from_terms(ctx, nvars, _parse_terms(text, nvars))


def _parse_terms(text: str, nvars: int) -> dict:
    """The terms of a form as {exponent tuple: integer}, all of one degree;
    nothing of that degree is built."""
    terms, degree, pos = {}, None, 0
    while pos < len(text) or not terms:
        m = _TERM.match(text, pos)
        signs = ("", "-") if pos == 0 else ("+", "-")
        if m["sign"] not in signs or not (m["coef"] or m["mono"]):
            raise PolyParseError("expected a term" if pos == 0 else "expected '+' or '-' "
                                 "and a term", pos)
        e = [0] * nvars
        if m["mono"]:
            for f in _FACTOR_RE.finditer(text, m.start("mono"), m.end("mono")):
                idx = _VAR_ALIASES[f[2]] if f[2] else _int(f, 1)
                if idx >= nvars:
                    raise PolyParseError(
                        f"variable X{idx} out of range (indices must be <= {nvars - 1})",
                        f.start())
                e[idx] += _int(f, 3) if f[3] else 1
        if degree is None:
            degree = sum(e)
        elif sum(e) != degree:
            raise PolyParseError(f"polynomial is not homogeneous: term of degree {sum(e)} "
                                 f"after degree {degree}", m.start("sign"))
        coef = _int(m, "coef") if m["coef"] else 1
        key = tuple(e)
        terms[key] = terms.get(key, 0) + (-coef if m["sign"] == "-" else coef)
        pos = m.end()
    return terms


# -- reports ------------------------------------------------------------------

_REPORT_FIELDS = {
    "p": int,
    "ext_degree": int,
    "n": int,
    "degrees": list,
    "genus": int,
    "hasse_witt": list,
    "a_number": int,
    "p_rank": int,
    "final_type": list,
    "weyl_one_line": list,
    "weyl_word": str,
    "stratum_dim": int,
    "fast_tag": str,
    "timings": dict,
}


def validate_report(report: dict) -> None:
    for key, typ in _REPORT_FIELDS.items():
        if key not in report:
            raise InternalInvariantError(f"report is missing field {key!r}")
        if not isinstance(report[key], typ):
            raise InternalInvariantError(f"report field {key!r} has the wrong type")
    if len(report["final_type"]) != 2 * report["genus"] + 1:
        raise InternalInvariantError("final_type length must be 2g+1")
    if json.loads(json.dumps(report)) != report:
        raise InternalInvariantError("report does not round-trip through JSON")


def _matrix_entries(field: GF, M):
    if field.m == 1:
        return [[int(x) for x in row] for row in M]
    return [[[int(d) for d in field.decode(np.asarray(x))] for x in row] for row in M]


def build_report(curve: CurveCI, triple, result: EOResult, timings: dict) -> dict:
    """The report of a classified curve."""
    field = curve.field
    report = {
        "p": field.p,
        "ext_degree": field.m,
        "n": curve.n,
        "degrees": list(curve.degrees),
        "genus": triple.g,
        "hasse_witt": _matrix_entries(field, triple.A_phi),
        "a_number": result.a_number,
        "p_rank": result.p_rank,
        "final_type": list(result.final_type.values),
        "weyl_one_line": list(result.weyl.one_line),
        "weyl_word": weyl_word(result.weyl),
        "stratum_dim": result.stratum_dim,
        "fast_tag": result.fast_tag,
        "timings": timings,
    }
    validate_report(report)
    return report


def _print_report(report: dict, out):
    print(f"field: GF({report['p']}" +
          (f"^{report['ext_degree']})" if report["ext_degree"] > 1 else ")"), file=out)
    print(f"curve: degrees {report['degrees']} in P^{report['n']}, genus {report['genus']}",
          file=out)
    print("hasse-witt matrix:", file=out)
    for row in report["hasse_witt"]:
        print("  " + " ".join(str(x) for x in row), file=out)
    print(f"fast tag: {report['fast_tag']}", file=out)
    print(f"final type: {report['final_type']}", file=out)
    print(f"weyl coset: {report['weyl_one_line']}  ({report['weyl_word']})", file=out)
    print(f"p-rank {report['p_rank']}, a-number {report['a_number']}, "
          f"stratum dim {report['stratum_dim']}", file=out)


# -- command implementations --------------------------------------------------

def _field_from_args(args) -> GF:
    modulus = None
    if getattr(args, "modulus", None) is not None:
        try:
            modulus = tuple(int(c) for c in args.modulus.split(","))
        except ValueError:
            raise ConstraintError(f"modulus {args.modulus!r} is not a comma-separated "
                                  "integer list") from None
    return field_new(args.p, getattr(args, "ext", 1), modulus)


def _curve_from_args(args, field: GF) -> CurveCI:
    n = args.n
    texts = [args.f] + [getattr(args, f"f{i}") for i in range(2, 9)
                        if getattr(args, f"f{i}", None)]
    if len(texts) != n - 1:
        raise ConstraintError(f"a curve in P^{n} needs {n - 1} forms, got {len(texts)}")
    # every form is parsed, and the powers' budget checked from the degrees,
    # before any form is placed in its degree's basis
    terms = [_parse_terms(t, n + 1) for t in texts]
    check_power_budget(field, n + 1, sum(sum(next(iter(t))) for t in terms))
    return CurveCI(field, [GradedPoly.from_terms(field, n + 1, t) for t in terms])


@contextlib.contextmanager
def _output(args):
    """Stdout, or a buffer for the --out file when it is given. The file is
    opened before the block runs, so an unwritable path fails before any
    work, and written only when the block succeeds: a failing command leaves
    an existing file as it was and creates none. Only a regular file is
    truncated after the write; a device such as /dev/null is not."""
    path = getattr(args, "out", None)
    if not path:
        yield sys.stdout
        return
    try:
        fd, created = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
    except FileExistsError:
        fd, created = os.open(path, os.O_WRONLY), False
    with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
        buf = io.StringIO()
        try:
            yield buf
        except BaseException:
            if created:
                os.remove(path)
            raise
        fh.write(buf.getvalue())
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def cmd_eotype(args) -> int:
    with _output(args) as out:
        field = _field_from_args(args)
        curve = _curve_from_args(args, field)
        t0 = time.perf_counter()
        triple = hw_triple(curve)
        t1 = time.perf_counter()
        result = classify(triple)
        t2 = time.perf_counter()
        report = build_report(curve, triple, result, {
            "hw_triple_s": t1 - t0, "classify_s": t2 - t1, "total_s": t2 - t0})
        if args.json:
            json.dump(report, out, indent=2)
            out.write("\n")
        else:
            _print_report(report, out)
    return 0


def cmd_hw(args) -> int:
    with _output(args) as out:
        field = _field_from_args(args)
        curve = _curve_from_args(args, field)
        triple = hw_triple(curve)
        if args.json:
            payload = {
                "p": field.p,
                "ext_degree": field.m,
                "n": curve.n,
                "degrees": list(curve.degrees),
                "genus": triple.g,
                "fast_tag": triple.fast_tag,
                "hasse_witt": _matrix_entries(field, triple.A_phi),
                "kernel_basis": _matrix_entries(field, triple.kappa),
                "second_operator": _matrix_entries(field, triple.A_psi),
            }
            json.dump(payload, out, indent=2)
            out.write("\n")
        else:
            print(f"genus {triple.g}, tag {triple.fast_tag}", file=out)
            print("hasse-witt matrix:", file=out)
            for row in triple.A_phi:
                print("  " + " ".join(field.format_element(x) for x in row), file=out)
            print(f"kernel basis ({triple.h} rows):", file=out)
            for row in triple.kappa:
                print("  " + " ".join(field.format_element(x) for x in row), file=out)
            print("second operator columns:", file=out)
            for row in triple.A_psi:
                print("  " + " ".join(field.format_element(x) for x in row), file=out)
    return 0


def read_dm_file(path: str):
    """Matrix file in UTF-8: first line 'g p m', then 2g rows of g entries each."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise PolyParseError(f"matrix file is not UTF-8: {exc.reason}", exc.start) from None
    if not lines:
        raise PolyParseError("empty matrix file")
    head = lines[0].split()
    if len(head) != 3:
        raise PolyParseError("first line must be 'g p m'")
    try:
        g, p, m = (int(x) for x in head)
    except ValueError:
        raise PolyParseError(f"non-integer header {lines[0]!r}") from None
    field = field_new(p, m)
    if len(lines) != 1 + 2 * g:
        raise PolyParseError(f"expected {2 * g} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        entries = ln.split()
        if len(entries) != g:
            raise PolyParseError(f"expected {g} entries per row, found {len(entries)}")
        try:
            rows.append([field.parse_element(e) for e in entries])
        except ValueError:
            raise PolyParseError(f"non-integer matrix entry in row {ln!r}") from None
        except ConstraintError as exc:
            raise PolyParseError(f"{exc} in row {ln!r}") from None
    return field, np.array(rows)


def cmd_classify_dm(args) -> int:
    with _output(args) as out:
        field, A_F = read_dm_file(args.file)
        dm = PolarizedDM(field, A_F)
        result = classify(dm)
        if args.json:
            payload = {
                "p": field.p,
                "ext_degree": field.m,
                "g": dm.g,
                "final_type": list(result.final_type.values),
                "weyl_one_line": list(result.weyl.one_line),
                "weyl_word": weyl_word(result.weyl),
                "p_rank": result.p_rank,
                "a_number": result.a_number,
                "stratum_dim": result.stratum_dim,
                "fast_tag": result.fast_tag,
            }
            json.dump(payload, out, indent=2)
            out.write("\n")
        else:
            print(str(result), file=out)
    return 0


def run_scan(p: int, d: int, count: int, seed: int, out) -> dict:
    """Sample random degree-d plane forms, classify the smooth ones, and
    write a deterministic histogram as CSV."""
    if count < 0 or seed < 0:
        raise ConstraintError(f"count and seed must be non-negative, got {count} and {seed}")
    field = field_new(p)
    basis = monomial_basis(3, d)
    rng = np.random.default_rng(seed)
    hist, results = {}, {}  # per Weyl coset: count, and one result
    singular = 0
    for index in range(count):
        coeffs = rng.integers(0, p, size=len(basis), dtype=np.int64)
        f = GradedPoly(field, 3, d, coeffs)
        try:
            curve = CurveCI(field, [f])
            result = classify(curve)
        except SingularCurveError:
            singular += 1
            continue
        except InternalInvariantError:
            print(f"internal error at sample index {index}", file=sys.stderr)
            raise
        w = result.weyl.one_line
        hist[w] = hist.get(w, 0) + 1
        results.setdefault(w, result)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["weyl_one_line", "final_type", "p_rank", "a_number",
                     "stratum_dim", "count"])
    for w in sorted(hist):
        res = results[w]
        writer.writerow([" ".join(map(str, w)), " ".join(map(str, res.final_type.values)),
                         res.p_rank, res.a_number, res.stratum_dim, hist[w]])
    writer.writerow(["SINGULAR", "", "", "", "", singular])
    writer.writerow(["TOTAL", "", "", "", "", count])
    return {"hist": hist, "singular": singular}


def cmd_scan(args) -> int:
    with _output(args) as out:
        run_scan(args.p, args.d, args.count, args.seed, out)
    return 0


# -- selftest -----------------------------------------------------------------

def _golden_checks():
    """(name, expected, actual) triples for the worked fixture curve."""
    F5 = field_new(5)
    curve = CurveCI(F5, [parse_poly(golden.GOLDEN_TEXT, 3, F5)])
    triple = hw_triple(curve)
    dm = assemble_dm(triple)
    full_F, full_V = full_fv_matrices(dm)
    result = classify(triple)
    yield ("hasse-witt matrix", golden.GOLDEN_HW, triple.A_phi.tolist())
    yield ("kernel basis", golden.GOLDEN_KAPPA, triple.kappa.tolist())
    yield ("second operator on e_0", golden.GOLDEN_PSI_COLS[0], triple.A_psi[:, 0].tolist())
    yield ("second operator on e_1+e_2", golden.GOLDEN_PSI_COLS[1],
           triple.A_psi[:, 1].tolist())
    yield ("frobenius block", golden.GOLDEN_AF, dm.A_F.tolist())
    yield ("verschiebung matrix", golden.GOLDEN_V, full_V.tolist())
    yield ("final type", list(golden.GOLDEN_FINAL_TYPE), list(result.final_type.values))
    yield ("weyl coset", list(golden.GOLDEN_WEYL), list(result.weyl.one_line))
    yield ("weyl word", golden.GOLDEN_WEYL_WORD, weyl_word(result.weyl))
    p_rank, a_number, stratum_dim = golden.GOLDEN_INVARIANTS
    yield ("p-rank", p_rank, result.p_rank)
    yield ("a-number", a_number, result.a_number)
    yield ("stratum dimension", stratum_dim, result.stratum_dim)
    F7 = field_new(7)
    cubic7 = classify(CurveCI(F7, [parse_poly("x^3+y^3+z^3", 3, F7)]))
    yield ("fermat cubic over GF(7)", "ordinary", cubic7.fast_tag)
    cubic5 = classify(CurveCI(F5, [parse_poly("x^3+y^3+z^3", 3, F5)]))
    yield ("fermat cubic over GF(5)", "superspecial", cubic5.fast_tag)
    quartic7 = classify(CurveCI(F7, [parse_poly("x^4+y^4+z^4", 3, F7)]))
    yield ("fermat quartic over GF(7)", [1, 2, 3, 4, 5, 6], list(quartic7.weyl.one_line))
    for g, expect in ((1, 2), (2, 4), (3, 8)):
        F2 = field_new(2)
        outs = {weyl_from_final_type(final_type_from_FV(m["F"], m["V"], F2)).one_line
                for m in enumerate_polarized_dms(g)}
        yield (f"distinct classes at genus {g}", expect, len(outs))
        if g == 3:
            yield ("census contains [1,4,2,5,3,6]", True, (1, 4, 2, 5, 3, 6) in outs)
            yield ("census contains [1,2,4,3,5,6]", True, (1, 2, 4, 3, 5, 6) in outs)


def cmd_selftest(args) -> int:
    failures = 0
    for name, expected, actual in _golden_checks():
        if expected == actual:
            print(f"CHECK {name}: PASS")
        else:
            print(f"CHECK {name}: FAIL (expected {expected}, got {actual})")
            failures += 1
    print("selftest:", "PASS" if failures == 0 else f"FAIL ({failures} mismatches)")
    return 0 if failures == 0 else 1


# -- entry point --------------------------------------------------------------

def _add_curve_flags(sp):
    sp.add_argument("--p", type=int, required=True, help="field characteristic")
    sp.add_argument("--ext", type=int, default=1, help="extension degree m")
    sp.add_argument("--modulus", type=str, default=None,
                    help="modulus coefficients 'c0,c1,...,1' (ascending)")
    sp.add_argument("--n", type=int, default=2, help="ambient projective dimension")
    sp.add_argument("--f", type=str, required=True, help="defining form")
    for i in range(2, 9):
        sp.add_argument(f"--f{i}", type=str, default=None,
                        help=argparse.SUPPRESS)
    sp.add_argument("--json", action="store_true", help="emit JSON")
    sp.add_argument("--out", type=str, default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: "--m 2" must not quietly mean "--modulus 2"
    parser = argparse.ArgumentParser(
        prog="eotypes", allow_abbrev=False,
        description="Ekedahl-Oort types of complete intersection curves "
                    "over finite fields")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eotype", allow_abbrev=False, help="classify a curve")
    _add_curve_flags(sp)
    sp.set_defaults(func=cmd_eotype)

    sp = sub.add_parser("hw", allow_abbrev=False, help="print the Hasse-Witt triple of a curve")
    _add_curve_flags(sp)
    sp.set_defaults(func=cmd_hw)

    sp = sub.add_parser("classify-dm", allow_abbrev=False,
                        help="classify a Dieudonne module from a matrix file")
    sp.add_argument("file", help="text file: 'g p m' then 2g rows of g entries")
    sp.add_argument("--json", action="store_true", help="emit JSON")
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=cmd_classify_dm)

    sp = sub.add_parser("scan", allow_abbrev=False, help="census of random plane curves")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=str, default=None, help="CSV output path")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("selftest", allow_abbrev=False, help="verify the built-in fixtures")
    sp.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SingularCurveError as exc:
        print(f"singular curve: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
