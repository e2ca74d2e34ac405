"""Expected reports in closed form, and the checks a benchmark run must pass.

Nothing here imports geobench: the expected values come from what
`inputs.py` recorded it planted. A matched pair whose predicted point is its
gold point shifted by Δφ in latitude is R·|Δφ| km apart (Δφ in radians), so
every metric of the report follows from counts and latitude offsets.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from statistics import fmean, median

EARTH_RADIUS_KM = 6371.0088
THRESHOLD_KM = 161.0
D_MAX_KM = 20039.0

METRIC_KEYS = ("precision", "recall", "f_score", "accuracy", "mean", "median", "acc_at_161", "auc")
COUNT_KEYS = ("gold", "predicted", "matched", "resolved", "unresolved_matched")
_FAILED = re.compile(r"(\d+) documents failed")


class CheckFailed(Exception):
    """A run's output disagrees with what the inputs imply."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"check {check!r} failed: {detail}")


def expected_report(gold: int, predicted: int, matched: int, lat_shifts_deg: list[float]) -> dict:
    """The metrics and counts of a complete-corpus report with every prediction resolved."""
    precision = matched / predicted if predicted else 0.0
    recall = matched / gold if gold else 0.0
    f_score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    distances = [EARTH_RADIUS_KM * math.radians(abs(shift)) for shift in lat_shifts_deg]
    out = {
        "precision": precision,
        "recall": recall,
        "f_score": f_score,
        "accuracy": recall,  # matched / gold, as recall on a complete corpus
        "mean": None,
        "median": None,
        "acc_at_161": None,
        "auc": None,
        "counts": {"gold": gold, "predicted": predicted, "matched": matched, "resolved": matched,
                   "unresolved_matched": 0},
    }
    if distances:
        out["mean"] = fmean(distances)
        out["median"] = median(distances)
        out["acc_at_161"] = sum(d <= THRESHOLD_KM for d in distances) / len(distances)
        out["auc"] = fmean(math.log1p(min(d, D_MAX_KM)) for d in distances) / math.log1p(D_MAX_KM)
    return out


def expected_builtin(truth: dict, gated: bool, caseless_text: bool = False) -> dict:
    """Expected report of the builtin baseline on the builtin corpus.

    With the capitalization gate on, a lowercased corpus yields no match at
    all; otherwise the builtin finds exactly the spans the generator listed,
    and each resolves to its name's most populous candidate.
    """
    top_lat = truth["top_lat"]
    gold = predicted = matched = 0
    shifts: list[float] = []
    for doc in truth["documents"]:
        found = [] if gated and caseless_text else doc["gated" if gated else "ungated"]
        gold_lat = {(s, e): lat for s, e, lat in doc["gold"]}
        gold += len(doc["gold"])
        predicted += len(found)
        for start, end, name in found:
            if (start, end) in gold_lat:
                matched += 1
                shifts.append(top_lat[name] - gold_lat[(start, end)])
    return expected_report(gold, predicted, matched, shifts)


def expected_overlap(truth: dict) -> dict:
    """Expected report of a replay geoparser on the overlap corpus.

    In every chain gold i pairs with prediction i, so each gold span is
    matched and its error is the recorded latitude offset of prediction i.
    """
    gold = predicted = 0
    shifts: list[float] = []
    for doc in truth["documents"]:
        gold += sum(doc["chains"])
        predicted += doc["predictions"]
        shifts.extend(p - g for g, p in doc["pairs"])
    return expected_report(gold, predicted, gold, shifts)


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def failed_documents(report: dict) -> int:
    """Documents the harness reported as failed (scored as zero predictions)."""
    return sum(int(m.group(1)) for w in report.get("warnings", []) for m in [_FAILED.search(w)] if m)


def check_closed_form(report: dict, expected: dict, check: str = "closed-form") -> None:
    counts = report.get("counts", {})
    for key in COUNT_KEYS:
        if counts.get(key) != expected["counts"][key]:
            raise CheckFailed(check, f"{report.get('geoparser')}/{report.get('corpus')}: counts.{key} is "
                                     f"{counts.get(key)!r}, expected {expected['counts'][key]!r}")
    for key in METRIC_KEYS:
        if not _close(report.get(key), expected[key]):
            raise CheckFailed(check, f"{report.get('geoparser')}/{report.get('corpus')}: {key} is "
                                     f"{report.get(key)!r}, expected {expected[key]!r}")


def check_no_failures(report: dict) -> None:
    failed = failed_documents(report)
    if failed:
        raise CheckFailed("no-failed-documents", f"{report.get('geoparser')}/{report.get('corpus')}: "
                                                 f"{failed} documents failed")


def check_agree(a: dict, b: dict) -> None:
    """Two geoparsers that returned the same predictions must score the same."""
    for key in (*METRIC_KEYS, "counts"):
        if a.get(key) != b.get(key):
            raise CheckFailed("adapters-agree", f"{key}: {a.get('geoparser')} has {a.get(key)!r}, "
                                                f"{b.get('geoparser')} has {b.get(key)!r}")


def check_identical(run_dir: Path, reference_dir: Path) -> None:
    """Every report and leaderboard of a run equals the reference run's, byte for byte."""
    names = sorted(p.relative_to(reference_dir) for sub in ("reports", "leaderboards")
                   for p in (reference_dir / sub).glob("*.json"))
    got = sorted(p.relative_to(run_dir) for sub in ("reports", "leaderboards") for p in (run_dir / sub).glob("*.json"))
    if got != names or not names:
        raise CheckFailed("same-as-priming-run", f"run wrote {[str(n) for n in got]}, priming run wrote "
                                                 f"{[str(n) for n in names]}")
    for name in names:
        if (run_dir / name).read_bytes() != (reference_dir / name).read_bytes():
            raise CheckFailed("same-as-priming-run", f"{name} differs from the priming run's")
