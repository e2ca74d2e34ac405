"""Each output check accepts a correct report and rejects a corrupted one."""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import scoring  # noqa: E402
from scoring import CheckFailed  # noqa: E402


def _report(expected: dict, geoparser: str = "g") -> dict:
    return {**expected, "counts": dict(expected["counts"]), "warnings": [], "geoparser": geoparser,
            "corpus": "c", "config": {}}


@pytest.fixture(scope="module")
def truths(tmp_path_factory):
    base = tmp_path_factory.mktemp("inputs")
    builtin = inputs.generate(base / "b", 9, "builtin", inputs.TOY)
    overlap = inputs.generate(base / "o", 9, "overlap", inputs.TOY)
    return tuple(json.loads(p["truth"].read_text()) for p in (builtin, overlap))


def test_closed_form_rejects_a_changed_count_or_metric(truths):
    expected = scoring.expected_builtin(truths[0], gated=True)
    scoring.check_closed_form(_report(expected), expected)
    bad = _report(expected)
    bad["counts"]["matched"] -= 1
    with pytest.raises(CheckFailed, match="counts.matched"):
        scoring.check_closed_form(bad, expected)
    bad = _report(expected)
    bad["mean"] *= 1 + 1e-6
    with pytest.raises(CheckFailed, match="mean"):
        scoring.check_closed_form(bad, expected)


def test_gate_and_lowercase_change_the_expected_report(truths):
    gated = scoring.expected_builtin(truths[0], gated=True)
    ungated = scoring.expected_builtin(truths[0], gated=False)
    lowered = scoring.expected_builtin(truths[0], gated=True, caseless_text=True)
    assert gated["counts"]["gold"] == ungated["counts"]["gold"] == lowered["counts"]["gold"]
    assert ungated["counts"]["matched"] > gated["counts"]["matched"]
    assert lowered["counts"]["predicted"] == 0 and lowered["mean"] is None


def test_overlap_chains_reject_a_shifted_pairing(truths):
    expected = scoring.expected_overlap(truths[1])
    scoring.check_closed_form(_report(expected), expected, "overlap-chains")
    # pairing gold i with prediction i+1 inside each chain changes the distances
    shifted = copy.deepcopy(truths[1])
    for doc in shifted["documents"]:
        golds = [g for g, _ in doc["pairs"]]
        preds = [p for _, p in doc["pairs"]]
        doc["pairs"] = [[g, p] for g, p in zip(golds, preds[1:] + preds[:1])]
    with pytest.raises(CheckFailed, match="overlap-chains"):
        scoring.check_closed_form(_report(scoring.expected_overlap(shifted)), expected, "overlap-chains")


def test_failed_documents_are_counted_and_rejected(truths):
    report = _report(scoring.expected_overlap(truths[1]))
    scoring.check_no_failures(report)
    report["warnings"] = ["3 documents failed and scored zero predictions: o00001, o00004, o00007"]
    assert scoring.failed_documents(report) == 3
    with pytest.raises(CheckFailed, match="no-failed-documents"):
        scoring.check_no_failures(report)


def test_adapters_must_agree(truths):
    expected = scoring.expected_overlap(truths[1])
    a, b = _report(expected, "replay-process"), _report(expected, "replay-http")
    scoring.check_agree(a, b)
    b["auc"] += 1e-12
    with pytest.raises(CheckFailed, match="adapters-agree"):
        scoring.check_agree(a, b)


def test_same_as_priming_run_is_byte_for_byte(tmp_path):
    for run in ("primed", "run"):
        for sub in ("reports", "leaderboards"):
            (tmp_path / run / sub).mkdir(parents=True)
            (tmp_path / run / sub / "c.json").write_text('{"recall": 1.0}\n')
    scoring.check_identical(tmp_path / "run", tmp_path / "primed")
    (tmp_path / "run" / "reports" / "c.json").write_text('{"recall": 1.0} \n')
    with pytest.raises(CheckFailed, match="same-as-priming-run"):
        scoring.check_identical(tmp_path / "run", tmp_path / "primed")
    (tmp_path / "run" / "reports" / "c.json").unlink()
    with pytest.raises(CheckFailed, match="same-as-priming-run"):
        scoring.check_identical(tmp_path / "run", tmp_path / "primed")
