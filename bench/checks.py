"""Outcome records and output checks, all run outside the timed region.

Every curve ends in one outcome string:

    "<tag> w=<Weyl one-line> f=<final type>"   classified (tag: ordinary,
                                               superspecial or interesting)
    "singular:<check>"                         rejected with SingularCurveError
    "error:<exception type>"                   any other exception (a failure)

At the default seed each outcome must equal the one in ``reference.json``,
recorded from the pipeline as it stood when the benchmark was defined, so a
change in which curves are accepted shows up as a failure, not as a speed
change. At every seed classified curves are cross-checked through routes
the timed pipeline does not take.
"""

from __future__ import annotations

import json
import string
from collections import Counter
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
_SYMBOLS = string.digits + string.ascii_letters

# SingularCurveError messages of the library, keyed to the check that raised.
_REJECTIONS = (
    ("the plane curve is singular", "smoothness"),
    ("dim U", "dim_u"),
    ("pairing", "pairing"),
)
REJECTION_CHECKS = tuple(check for _, check in _REJECTIONS)
TAGS = ("ordinary", "superspecial", "interesting")

# Interesting curves are classified through the module, so every one is
# cross-checked. Fast-path curves skip the module in the timed pipeline and
# the cross-check costs about as much as the curve itself, so only every
# FAST_PATH_SAMPLE-th curve of the stream gets it.
FAST_PATH_SAMPLE = 16


def rejecting_check(exc) -> str:
    message = str(exc)
    for needle, check in _REJECTIONS:
        if needle in message:
            return check
    return "other"


def classified_outcome(result) -> str:
    w = ",".join(map(str, result.weyl.one_line))
    f = ",".join(map(str, result.final_type.values))
    return f"{result.fast_tag} w={w} f={f}"


def outcome_counts(outcomes) -> dict:
    """Singular draws by rejecting check, classified curves by tag, errors."""
    counts = Counter()
    for outcome in outcomes:
        if outcome.startswith("singular:"):
            counts["rejected." + outcome.split(":", 1)[1]] += 1
        elif outcome.startswith("error:"):
            counts["error"] += 1
        else:
            counts["tag." + outcome.split(" ", 1)[0]] += 1
    return dict(sorted(counts.items()))


def check_record(eo, index, rec, expected) -> list:
    """Problems found with one curve's outcome; empty when it passes."""
    problems = []
    if expected is not None and rec.outcome != expected:
        problems.append(f"outcome {rec.outcome!r} differs from reference {expected!r}")
    if rec.outcome.startswith("error:"):
        problems.append(f"raised {rec.error}")
    elif not rec.outcome.startswith("singular:"):
        if rec.result.fast_tag == "interesting" or index % FAST_PATH_SAMPLE == 0:
            problems += _cross_check(eo, rec)
        if rec.report is not None:
            problems += _check_report(rec)
    return problems


def _cross_check(eo, rec) -> list:
    triple, result = rec.triple, rec.result
    problems = []
    dm = eo.assemble_dm(triple)
    fv = eo.final_type_from_FV(*eo.full_fv_matrices(dm), triple.field)
    if fv != result.final_type:
        problems.append(f"F/V saturation gives {fv}, the pipeline {result.final_type}")
    ascending = eo.classify(eo.assemble_dm(triple, "ascending"))
    if ascending.weyl != result.weyl or ascending.final_type != result.final_type:
        problems.append(f"ascending assembly gives {ascending.weyl}, "
                        f"the pipeline {result.weyl}")
    if eo.weyl_from_final_type(result.final_type) != result.weyl:
        problems.append("Weyl coset does not match the final type")
    return problems


def _check_report(rec) -> list:
    report, result = rec.report, rec.result
    if (report["weyl_one_line"] != list(result.weyl.one_line)
            or report["final_type"] != list(result.final_type.values)
            or report["fast_tag"] != result.fast_tag
            or report["genus"] != rec.triple.g):
        return ["report disagrees with the result"]
    return []


def encode_reference(outcomes) -> dict:
    """Distinct outcomes plus one character per curve indexing them."""
    distinct = list(dict.fromkeys(outcomes))
    if len(distinct) > len(_SYMBOLS):
        raise ValueError("too many distinct outcomes to encode")
    return {"outcomes": distinct,
            "sequence": "".join(_SYMBOLS[distinct.index(o)] for o in outcomes)}


def load_reference(workload_name: str, seed: int):
    """Reference outcomes for the stream's first curves, or None when the
    seed is not the default one."""
    if seed != DEFAULT_SEED:
        return None
    entry = json.loads(REFERENCE.read_text())["workloads"][workload_name]
    return [entry["outcomes"][_SYMBOLS.index(c)] for c in entry["sequence"]]
