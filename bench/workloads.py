"""Seeded curve streams for the benchmark's workloads.

A stream is plain data: the field, the degree and the coefficient codes of
a plane curve (and, for the command-line workload, the text of its
form). The library sees an input only inside the timed region; nothing here
imports it.

Coefficient vectors follow the library's monomial order (graded lex,
descending, X0 largest); ``run.py`` checks at set-up that the two orders
agree.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

NVARS = 3


@dataclass(frozen=True)
class Case:
    """Plane curves of degree d over GF(p^m)."""

    p: int
    d: int
    m: int = 1


@dataclass(frozen=True)
class CurveInput:
    index: int
    case: Case
    coeffs: np.ndarray     # int64 codes, one per monomial of degree d
    text: str | None       # set only for workloads that parse text


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple           # visited round-robin, one curve each
    block: int             # curves per throughput block (whole rounds)
    parse_text: bool       # time parse_poly and build_report as `eotype` does
    trace_blocks_per_s: float  # traced-run size, see run.py


# plane-large-p and ext-field visit their cases in rising cost. Each case
# takes a cluster of per-curve times, and with three equal slots the median
# curve falls inside the middle cluster, not in a gap between two clusters.
WORKLOADS = {w.name: w for w in (
    Workload(
        "scan-p5-d4",
        "random quartics over GF(5) drawn as run_scan draws them: smoothness "
        "check and linear algebra dominate",
        (Case(5, 4),), 250, False, 0.15),
    Workload(
        "plane-large-p",
        "random plane curves at large p, parsed from text as eotype does: "
        "the power f^(p-2) dominates and nearly all are ordinary",
        (Case(31, 6), Case(53, 5), Case(101, 4)), 3, True, 0.12),
    Workload(
        "ext-field",
        "random plane quartics and quintics over GF(7^3), GF(7^2) and GF(31^2): "
        "the only curves whose products go through gf's digit planes",
        (Case(7, 4, 3), Case(7, 5, 2), Case(31, 4, 2)), 9, False, 0.3),
)}


@functools.lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple:
    """Exponent tuples of one degree, graded lex descending, X0 largest."""
    if nvars == 1:
        return ((degree,),)
    return tuple((e0,) + rest for e0 in range(degree, -1, -1)
                 for rest in monomials(nvars - 1, degree - e0))


def render(coeffs, degree: int) -> str:
    """Text of a plane form in the command line's syntax."""
    terms = []
    for c, e in zip(coeffs, monomials(NVARS, degree)):
        if c:
            factors = "*".join(f"X{j}^{k}" for j, k in enumerate(e) if k)
            terms.append(f"{int(c)}*{factors}")
    return "+".join(terms)


def stream(workload: Workload, seed: int):
    """Endless, seed-determined sequence of CurveInput."""
    rng = np.random.default_rng(seed)
    for index, case in enumerate(itertools.cycle(workload.cases)):
        coeffs = rng.integers(0, case.p ** case.m,
                              size=len(monomials(NVARS, case.d)), dtype=np.int64)
        text = render(coeffs, case.d) if workload.parse_text else None
        yield CurveInput(index, case, coeffs, text)
