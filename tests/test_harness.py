import csv
import gc
import hashlib
import io
import json
import os
import re
import shutil
import weakref
from pathlib import Path

import pytest

from geobench import (
    AdapterError,
    CorpusFormatError,
    EvalReport,
    GeoparserSpec,
    MetricsConfig,
    RunConfigError,
    compare,
    degrade_case,
    evaluate,
    load_corpus,
    load_run_config,
    render_report,
    run_benchmark,
    save_index,
)
from geobench.adapters import ProcessGeoparser
from geobench.corpus import Corpus, Document
from geobench.geoparser import BUILTIN_VERSION, BuiltinGeoparser
from geobench.harness import (
    CorpusSource,
    Leaderboard,
    RunConfig,
    _cache_path,
    cache_predictions,
    corpus_digest,
    load_cached,
    load_leaderboards,
)
from geobench.metrics import SCORING_VERSION, align, score_document
from geobench import gazetteer as gazetteer_module
from geobench import harness as harness_module
from helpers import (
    geonames_row,
    gold_replay_fixture,
    smoke_corpus_and_gazetteer,
    write_corpus_files,
    write_replay_child,
)

BUILTIN = GeoparserSpec("builtin-baseline", "baseline")


def replay_spec(tmp_path, fixture, identifier="replay"):
    command = write_replay_child(tmp_path, fixture)
    return GeoparserSpec("external-process", identifier, {"command": command, "timeout": 30})


class TestEvaluate:
    def test_gold_replay_is_perfect(self, tmp_path):
        corpus, _ = smoke_corpus_and_gazetteer(6)
        spec = replay_spec(tmp_path, gold_replay_fixture(corpus))
        report = evaluate(spec, corpus)
        assert (report.precision, report.recall, report.f_score) == (1.0, 1.0, 1.0)
        assert (report.mean_km, report.median_km) == (0.0, 0.0)
        assert report.acc_at_161 == 1.0
        assert report.auc == 0.0
        assert report.unresolved_matched == 0

    def test_empty_geoparser_scores_zero(self, tmp_path):
        corpus, _ = smoke_corpus_and_gazetteer(4)
        spec = replay_spec(tmp_path, {})
        report = evaluate(spec, corpus)
        assert (report.precision, report.recall, report.f_score) == (0.0, 0.0, 0.0)
        assert report.accuracy == 0.0
        assert report.mean_km is None and report.median_km is None
        assert report.acc_at_161 is None and report.auc is None

    def test_builtin_on_smoke_corpus(self):
        corpus, gazetteer = smoke_corpus_and_gazetteer(10)
        report = evaluate(BUILTIN, corpus, gazetteer)
        assert report.f_score == 1.0
        assert report.mean_km == 0.0

    def test_micro_aggregation_matches_per_document_sums(self):
        corpus, gazetteer = smoke_corpus_and_gazetteer(7)
        report = evaluate(BUILTIN, corpus, gazetteer)
        parser = BuiltinGeoparser(gazetteer)
        gold = pred = matched = 0
        for doc in corpus.documents:
            predictions, _ = parser.parse_document(doc)
            matching = align(doc.gold, predictions)
            gold += len(doc.gold)
            pred += len(predictions)
            matched += len(matching.pairs)
        assert (report.gold, report.predicted, report.matched) == (gold, pred, matched)

    def test_partial_corpus_suppresses_precision(self, tmp_path):
        corpus, gazetteer = smoke_corpus_and_gazetteer(4)
        partial = Corpus(corpus.name, corpus.documents, "partial")
        report = evaluate(BUILTIN, partial, gazetteer)
        assert report.precision is None and report.recall is None and report.f_score is None
        assert report.accuracy == 1.0

    def test_workers_do_not_change_result(self):
        corpus, gazetteer = smoke_corpus_and_gazetteer(12)
        one = evaluate(BUILTIN, corpus, gazetteer, workers=1)
        eight = evaluate(BUILTIN, corpus, gazetteer, workers=8)
        assert one == eight

    def test_recognition_only_corpus_single_warning(self, tmp_path):
        # gold spans without coordinates: recognition scores, one pooled
        # distance warning, no distance metrics
        corpus, gazetteer = smoke_corpus_and_gazetteer(5)
        from dataclasses import replace

        stripped = Corpus(
            corpus.name,
            tuple(
                replace(d, gold=tuple(replace(t, point=None) for t in d.gold)) for d in corpus.documents
            ),
            corpus.completeness,
        )
        report = evaluate(BUILTIN, stripped, gazetteer)
        assert report.f_score == 1.0
        assert report.resolved == 5  # predictions carried points even though gold did not
        assert report.mean_km is None
        skip_warnings = [w for w in report.warnings if "no coordinates" in w]
        assert skip_warnings == ["distance: 5 matched pairs skipped (gold annotation has no coordinates)"]

    def test_match_mode_flows_through(self, tmp_path):
        corpus, _ = smoke_corpus_and_gazetteer(3)
        # predictions shifted one character: misses exact, hits overlap
        fixture = {
            doc.id: [{"start": t.start + 1, "end": t.end, "name": doc.text[t.start + 1 : t.end]} for t in doc.gold]
            for doc in corpus.documents
        }
        spec = replay_spec(tmp_path, fixture)
        exact = evaluate(spec, corpus, config=MetricsConfig(match_mode="exact"))
        overlap = evaluate(spec, corpus, config=MetricsConfig(match_mode="overlap"))
        assert exact.matched == 0
        assert overlap.matched == len(corpus.documents)


def flaky_child(tmp_path, fail_ids):
    script = tmp_path / "flaky.py"
    script.write_text(
        "import json, sys\n"
        f"fail = set(json.loads({json.dumps(json.dumps(sorted(fail_ids)))}))\n"
        "for line in sys.stdin:\n"
        "    request = json.loads(line)\n"
        "    if request['id'] in fail:\n"
        "        print('garbage', flush=True)\n"
        "    else:\n"
        "        print(json.dumps({'id': request['id'], 'toponyms': []}), flush=True)\n",
        encoding="utf-8",
    )
    import sys

    return [sys.executable, str(script)]


class TestFailurePolicy:
    def test_small_failure_fraction_scores_zero_with_warning(self, tmp_path):
        corpus, _ = smoke_corpus_and_gazetteer(20)
        fail_ids = [corpus.documents[0].id, corpus.documents[1].id]  # exactly 10%
        spec = GeoparserSpec("external-process", "flaky", {"command": flaky_child(tmp_path, fail_ids)})
        report = evaluate(spec, corpus)
        assert any("2 documents failed" in w for w in report.warnings)
        assert report.predicted == 0

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
    def test_abort_above_ten_percent(self, tmp_path, cache, workers):
        corpus, _ = smoke_corpus_and_gazetteer(20)
        fail_ids = [d.id for d in corpus.documents[:3]]  # 15%
        spec = GeoparserSpec("external-process", "flaky", {"command": flaky_child(tmp_path, fail_ids)})
        cache_dir = tmp_path / "cache" if cache else None
        with pytest.raises(AdapterError) as caught:
            evaluate(spec, corpus, cache_dir=cache_dir, workers=workers)
        assert str(caught.value) == (
            "geoparser 'flaky' failed on 3/20 documents of corpus 'smoke' "
            "(first error: response is not valid JSON: Expecting value: line 1 column 1 (char 0))"
        )
        assert not [p for p in tmp_path.rglob("*") if p.is_file() and p.parent != tmp_path]  # no entry, no .tmp


class Tracked(list):
    """A document's predictions, counted while they are alive."""


class PredictionCensus:
    """Counts the Tracked prediction lists alive, noting the count whenever the next document's are about to be made."""

    def __init__(self):
        self.alive = 0
        self.before_each = []

    def _dropped(self):
        self.alive -= 1

    def wrap(self, make):
        """`make`, returning (predictions, dropped), with its predictions Tracked."""

        def made(*args):
            self.before_each.append(self.alive)
            predictions, dropped = make(*args)
            tracked = Tracked(predictions)
            self.alive += 1
            weakref.finalize(tracked, self._dropped)
            return tracked, dropped

        return made


class TestOneDocumentAtATime:
    @pytest.mark.parametrize("source", ["builtin", "external", "cache hit"])
    def test_at_most_one_documents_predictions_are_alive(self, tmp_path, monkeypatch, source):
        corpus, gazetteer = smoke_corpus_and_gazetteer(12)
        spec = replay_spec(tmp_path, gold_replay_fixture(corpus)) if source == "external" else BUILTIN
        expected = evaluate(spec, corpus, gazetteer, cache_dir=tmp_path / "cache")
        census = PredictionCensus()
        if source == "cache hit":
            monkeypatch.setattr(harness_module, "parse_response", census.wrap(harness_module.parse_response))
            monkeypatch.setattr(harness_module, "_parse_all", lambda *a, **k: pytest.fail("prediction cache missed"))
            cache_dir = tmp_path / "cache"
        else:  # parsed on the calling thread, the external geoparser at one worker
            owner = ProcessGeoparser if source == "external" else BuiltinGeoparser
            monkeypatch.setattr(owner, "parse_document", census.wrap(owner.parse_document))
            cache_dir = tmp_path / "other-cache"
        assert evaluate(spec, corpus, gazetteer, cache_dir=cache_dir, workers=1) == expected
        assert len(census.before_each) == len(corpus.documents)
        # only the document before, whose predictions the caller still holds while it asks for the next
        assert max(census.before_each) == 1
        assert census.alive == 0


def builtin_cache_path(cache_dir, corpus, gazetteer):
    """The prediction-cache file that evaluate reads and writes for BUILTIN on this corpus and gazetteer."""
    return _cache_path(cache_dir, BUILTIN, corpus.name, corpus_digest(corpus), gazetteer)


def store_predictions(corpus, predictions, path):
    """cache_predictions of a warning-free parse that made `predictions` ({doc_id: predictions})."""
    return cache_predictions(((doc, predictions[doc.id]) for doc in corpus.documents), path, [])


class TestCache:
    def test_write_then_read_identical(self, tmp_path):
        corpus, gazetteer = smoke_corpus_and_gazetteer(5)
        parser = BuiltinGeoparser(gazetteer)
        predictions = {doc.id: parser.parse_document(doc)[0] for doc in corpus.documents}
        path = builtin_cache_path(tmp_path, corpus, gazetteer)
        assert store_predictions(corpus, predictions, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        decoded = {doc.id: harness_module.parse_response(doc, line) for doc, line in zip(corpus.documents, lines)}
        assert decoded == {doc_id: (p, 0) for doc_id, p in predictions.items()}  # entry ids and points survive
        config = MetricsConfig()
        expected = [score_document(doc, predictions[doc.id], config) for doc in corpus.documents]
        assert load_cached(corpus, path, config) == expected

    def test_corpus_edit_is_a_miss(self, tmp_path):
        corpus, gazetteer = smoke_corpus_and_gazetteer(3)
        nothing = {doc.id: [] for doc in corpus.documents}
        store_predictions(corpus, nothing, builtin_cache_path(tmp_path, corpus, gazetteer))
        edited_docs = (corpus.documents[0],) + tuple(
            Document(d.id, d.text + "!", d.gold, d.source) for d in corpus.documents[1:]
        )
        edited = Corpus(corpus.name, edited_docs, corpus.completeness)
        assert load_cached(edited, builtin_cache_path(tmp_path, edited, gazetteer), MetricsConfig()) is None

    def test_gazetteer_digest_in_builtin_key(self, tmp_path):
        corpus, gazetteer = smoke_corpus_and_gazetteer(3)
        _, other_gazetteer = smoke_corpus_and_gazetteer(4)
        nothing = {doc.id: [] for doc in corpus.documents}
        store_predictions(corpus, nothing, builtin_cache_path(tmp_path, corpus, gazetteer))
        assert load_cached(corpus, builtin_cache_path(tmp_path, corpus, other_gazetteer), MetricsConfig()) is None

    @pytest.mark.parametrize("line", [1, -1], ids=["middle", "last"])
    def test_corrupt_line_recomputes_with_warning(self, tmp_path, caplog, line):
        corpus, gazetteer = smoke_corpus_and_gazetteer(3)
        first = evaluate(BUILTIN, corpus, gazetteer, cache_dir=tmp_path)
        cache_file = next(tmp_path.glob("*.jsonl"))
        stored = cache_file.read_bytes()
        lines = cache_file.read_text().splitlines()
        lines[line] = "{broken"
        cache_file.write_text("\n".join(lines) + "\n")
        caplog.clear()
        report = evaluate(BUILTIN, corpus, gazetteer, cache_dir=tmp_path)
        assert [r.getMessage() for r in caplog.records if "corrupt" in r.getMessage()] == [
            f"cache entry {cache_file.name} corrupt (response is not valid JSON: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)); recomputing"
        ]
        assert report == first  # recomputed; the warning is logged, never part of the report
        no_cache = evaluate(BUILTIN, corpus, gazetteer)
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(no_cache.to_dict(), sort_keys=True)
        assert cache_file.read_bytes() == stored  # the entry was rewritten
        caplog.clear()
        evaluate(BUILTIN, corpus, gazetteer, cache_dir=tmp_path)
        assert not caplog.records

    @pytest.mark.parametrize("edit", ["swap", "cut", "extra"])
    def test_reordered_or_truncated_file_is_corrupt(self, tmp_path, caplog, edit):
        corpus, gazetteer = smoke_corpus_and_gazetteer(4)
        evaluate(BUILTIN, corpus, gazetteer, cache_dir=tmp_path)
        cache_file = next(tmp_path.glob("*.jsonl"))
        lines = cache_file.read_text().splitlines(keepends=True)
        edited = {"swap": [lines[1], lines[0], *lines[2:]], "cut": lines[:-1], "extra": [*lines, lines[0]]}[edit]
        cache_file.write_text("".join(edited))
        report = evaluate(BUILTIN, corpus, gazetteer, cache_dir=tmp_path)
        assert any("corrupt" in r.getMessage() for r in caplog.records)
        if edit != "swap":
            count = {"cut": 3, "extra": 5}[edit]
            assert f"({count} lines for 4 documents)" in caplog.records[0].getMessage()
        assert report == evaluate(BUILTIN, corpus, gazetteer)

    @pytest.mark.parametrize("failed", [0, 1], ids=["dropped", "dropped-and-failed"])
    def test_hit_keeps_the_dropped_prediction_warning(self, tmp_path, failed):
        corpus, _ = smoke_corpus_and_gazetteer(10)
        fixture = gold_replay_fixture(corpus)
        for items in list(fixture.values())[:3]:
            items.append({"start": 0, "end": 10**6, "name": "out of bounds"})
        if failed:  # 1 of 10 documents, at the abort limit
            fixture[corpus.documents[6].id] = "not a list"
        spec = replay_spec(tmp_path, fixture)
        fresh = json.dumps(evaluate(spec, corpus).to_dict(), sort_keys=True)
        assert "3 invalid predictions dropped" in fresh
        assert ("1 documents failed and scored zero predictions: " in fresh) is bool(failed)
        for workers in (1, 4, 1):
            again = evaluate(spec, corpus, cache_dir=tmp_path / "cache", workers=workers)
            assert json.dumps(again.to_dict(), sort_keys=True) == fresh
            # only a warning-free parse is stored: no entry, no temporary file, no score
            assert not [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]

    def test_unwritable_cache_dir_is_logged_not_fatal(self, tmp_path, caplog):
        corpus, gazetteer = smoke_corpus_and_gazetteer(3)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        report = evaluate(BUILTIN, corpus, gazetteer, cache_dir=blocker / "cache")
        assert report == evaluate(BUILTIN, corpus, gazetteer)
        assert any("not written" in r.getMessage() for r in caplog.records)

    def test_parameters_in_key(self, tmp_path):
        # same identifier and cache dir, different parameters: the second run must not reuse the first
        corpus, gazetteer = smoke_corpus_and_gazetteer(5)
        lowered = degrade_case(corpus)
        strict = GeoparserSpec("builtin-baseline", "b", {"require_capitalized": True})
        loose = GeoparserSpec("builtin-baseline", "b", {"require_capitalized": False})
        assert evaluate(strict, lowered, gazetteer, cache_dir=tmp_path).recall == 0.0
        assert evaluate(loose, lowered, gazetteer, cache_dir=tmp_path).recall == 1.0

    def test_corpus_hashed_once_per_evaluation(self, tmp_path, monkeypatch):
        from geobench import harness

        calls = []
        original = harness.corpus_digest
        monkeypatch.setattr(harness, "corpus_digest", lambda corpus: calls.append(1) or original(corpus))
        corpus, gazetteer = smoke_corpus_and_gazetteer(3)
        evaluate(BUILTIN, corpus, gazetteer, cache_dir=tmp_path)  # miss, then store
        assert len(calls) == 1

    def test_cli_decodes_with_the_collector_off_and_hands_it_back(self, tmp_path, monkeypatch):
        from geobench import corpus as corpus_module
        from geobench.cli import main

        corpus, gazetteer = smoke_corpus_and_gazetteer(3)
        corpus_path, manifest_path = write_corpus_files(corpus, tmp_path)
        save_index(gazetteer, tmp_path / "gaz.index")
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "corpora": [{"path": corpus_path.name, "manifest": manifest_path.name}],
                    "gazetteer": {"path": "gaz.index", "schema": "index"},
                    "geoparsers": [{"kind": "builtin-baseline", "identifier": "baseline"}],
                    "cache_dir": "cache",
                }
            ),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "cold")]) == 0
        seen = []

        def probe(function):
            return lambda *args: seen.append((function.__name__, gc.isenabled())) or function(*args)

        monkeypatch.setattr(corpus_module, "_document_error", probe(corpus_module._document_error))
        monkeypatch.setattr(harness_module, "parse_response", probe(harness_module.parse_response))
        was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        try:
            for valid in (True, False):
                if not valid:  # the corpus's last line fails to decode: a data error
                    lines = corpus_path.read_text(encoding="utf-8").splitlines()
                    corpus_path.write_text("\n".join(lines[:-1] + ["{broken"]) + "\n", encoding="utf-8")
                for caller_enabled in (True, False):
                    # no score entries, so the run decodes the corpus and then its cached predictions
                    shutil.rmtree(tmp_path / "cache" / "scores", ignore_errors=True)
                    (gc.enable if caller_enabled else gc.disable)()
                    seen.clear()
                    out = tmp_path / f"run-{valid}-{caller_enabled}"
                    assert main(["run", "--config", str(config), "--out", str(out)]) == (0 if valid else 2)
                    assert gc.isenabled() is caller_enabled
                    assert gc.get_freeze_count() == frozen
                    decoded = {"_document_error", "parse_response"} if valid else {"_document_error"}
                    assert {name for name, _ in seen} == decoded
                    assert not any(enabled for _, enabled in seen)
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_cached_evaluate_equals_fresh(self, tmp_path):
        corpus, gazetteer = smoke_corpus_and_gazetteer(6)
        fresh = evaluate(BUILTIN, corpus, gazetteer)
        evaluate(BUILTIN, corpus, gazetteer, cache_dir=tmp_path)
        cached = evaluate(BUILTIN, corpus, gazetteer, cache_dir=tmp_path)
        assert cached == fresh

    @pytest.mark.parametrize("fold", [True, False], ids=["folded", "plain"])
    def test_a_stoplist_normalized_with_the_fold_flag_is_cached_with_its_predictions(self, tmp_path, monkeypatch, fold):
        from geobench.corpus import GeoPoint
        from geobench.gazetteer import Gazetteer, GazetteerEntry

        gazetteer = Gazetteer.from_entries([GazetteerEntry(1, "Réunion", (), GeoPoint(-21.1, 55.5))], fold)
        spec = GeoparserSpec("builtin-baseline", "b", {"extra_stopwords": ["Réunion"]})
        corpus = Corpus("c", (Document("d", "Visit Réunion now", ()),))
        assert evaluate(spec, corpus, gazetteer, cache_dir=tmp_path).predicted == 0
        monkeypatch.setattr(harness_module, "_parse_all", lambda *a, **k: pytest.fail("prediction cache missed"))
        assert evaluate(spec, corpus, gazetteer, cache_dir=tmp_path).predicted == 0


def report_with(identifier, corpus="demo", f_score=None, accuracy=None, **kwargs):
    base = dict(
        precision=None, recall=None, f_score=f_score, accuracy=accuracy,
        mean_km=None, median_km=None, acc_at_161=None, auc=None,
        gold=0, predicted=0, matched=0, resolved=0, unresolved_matched=0,
        warnings=[], geoparser=identifier, corpus=corpus,
    )
    base.update(kwargs)
    return identifier, EvalReport(**base)


class TestCompare:
    def test_orders_descending_by_f_score(self):
        rows = [report_with("a", f_score=0.5), report_with("b", f_score=0.9), report_with("c", f_score=0.7)]
        board = compare(rows, "complete")
        assert [identifier for identifier, _ in board.rows] == ["b", "c", "a"]
        assert board.ordering_key == "f_score"

    def test_partial_orders_by_accuracy(self):
        rows = [report_with("a", accuracy=0.463), report_with("b", accuracy=0.447), report_with("c", accuracy=0.9)]
        board = compare(rows, "partial")
        assert [identifier for identifier, _ in board.rows] == ["c", "a", "b"]
        assert board.ordering_key == "accuracy"

    def test_ties_break_by_id_ascending(self):
        rows = [report_with("zeta", f_score=0.5), report_with("alpha", f_score=0.5)]
        board = compare(rows, "complete")
        assert [identifier for identifier, _ in board.rows] == ["alpha", "zeta"]

    def test_mixed_corpora_rejected(self):
        rows = [report_with("a", corpus="one", f_score=0.5), report_with("b", corpus="two", f_score=0.4)]
        with pytest.raises(ValueError, match="different corpora"):
            compare(rows, "complete")


def geovirus_like_row():
    # a leaderboard row shaped like a published news-corpus result
    return EvalReport(
        precision=0.917, recall=0.916, f_score=0.917, accuracy=None,
        mean_km=770.337, median_km=48.676, acc_at_161=0.655, auc=0.378,
        gold=0, predicted=0, matched=0, resolved=0, unresolved_matched=0,
        warnings=[], geoparser="DM_NLP+Pop", corpus="news",
    )


class TestRender:
    def test_text_single_row(self):
        board = Leaderboard("news", "f_score", (("DM_NLP+Pop", geovirus_like_row()),))
        text = render_report(board, "text").decode()
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 2  # header + one data row
        assert lines[0].split() == [
            "geoparser", "precision", "recall", "f_score", "accuracy", "mean", "median", "auc", "acc_at_161",
        ]
        assert "0.917" in lines[1]
        assert "770.337" in lines[1]
        assert "-" in lines[1]  # suppressed accuracy

    def test_csv_round_trips_at_three_decimals(self):
        board = Leaderboard("news", "f_score", (("DM_NLP+Pop", geovirus_like_row()),))
        raw = render_report(board, "csv").decode()
        rows = list(csv.reader(io.StringIO(raw)))
        assert rows[0][0] == "geoparser"
        record = dict(zip(rows[0], rows[1]))
        assert record["f_score"] == "0.917"
        assert record["mean"] == "770.337"
        assert record["median"] == "48.676"
        assert record["acc_at_161"] == "0.655"
        assert record["auc"] == "0.378"
        assert record["accuracy"] == ""

    def test_json_rows(self):
        board = Leaderboard("news", "f_score", (("DM_NLP+Pop", geovirus_like_row()),))
        payload = json.loads(render_report(board, "json"))
        assert payload["corpus"] == "news"
        row = payload["rows"][0]
        assert row["geoparser"] == "DM_NLP+Pop"
        assert row["f_score"] == 0.917
        assert row["accuracy"] is None

    def test_unknown_format(self):
        board = Leaderboard("news", "f_score", ())
        with pytest.raises(ValueError):
            render_report(board, "xml")

    def test_rendered_rows_are_totally_ordered(self):
        import random

        rng = random.Random(61)
        rows = [report_with(f"g{i:02d}", f_score=rng.choice([0.2, 0.5, 0.5, 0.9])) for i in range(12)]
        board = compare(rows, "complete")
        raw = render_report(board, "csv").decode()
        parsed = list(csv.reader(io.StringIO(raw)))
        header, data = parsed[0], parsed[1:]
        scores = [(row[header.index("f_score")], row[0]) for row in data]
        for (score_a, id_a), (score_b, id_b) in zip(scores, scores[1:]):
            assert score_a > score_b or (score_a == score_b and id_a < id_b)


class TestRunConfig:
    def test_needs_corpus_and_geoparser(self):
        with pytest.raises(RunConfigError):
            RunConfig(corpora=(), gazetteer_path="x", geoparsers=(BUILTIN,))
        with pytest.raises(RunConfigError):
            RunConfig(corpora=(CorpusSource("c", "p"),), gazetteer_path="x", geoparsers=())

    def test_unique_names(self):
        sources = (CorpusSource("c", "p1"), CorpusSource("c", "p2"))
        with pytest.raises(RunConfigError, match="unique"):
            RunConfig(corpora=sources, gazetteer_path="x", geoparsers=(BUILTIN,))

    @pytest.mark.parametrize(
        "corpora, identifiers, shared",
        [
            (("news web", "news_web"), ("baseline",), "news_web__baseline.json"),
            (("news",), ("a b", "a_b"), "news__a_b.json"),
            (("a__b", "a"), ("c", "b__c"), "a__b__c.json"),
        ],
        ids=["corpora", "geoparsers", "joined"],
    )
    def test_names_that_share_a_file_name(self, corpora, identifiers, shared):
        sources = tuple(CorpusSource(name, f"{i}.jsonl") for i, name in enumerate(corpora))
        specs = tuple(GeoparserSpec("builtin-baseline", identifier) for identifier in identifiers)
        with pytest.raises(RunConfigError, match=f"several evaluations would write reports/{shared}$"):
            RunConfig(corpora=sources, gazetteer_path="x", geoparsers=specs)

    @pytest.mark.parametrize("field", [{"fold_diacritics": "no"}, {"parallelism": 1.5}, {"parallelism": True}], ids=repr)
    def test_scalars_made_in_code_are_checked_as_when_loaded(self, field):
        with pytest.raises(RunConfigError, match=next(iter(field))):
            RunConfig(corpora=(CorpusSource("c", "p"),), gazetteer_path="x", geoparsers=(BUILTIN,), **field)

    @pytest.mark.parametrize(
        "schema",
        [{"id": 0, "name": 1, "lat": True, "lon": 5}, {"id": 0, "name": 1, "lat": 4, "lon": 5, "country ": 8}, "tsv"],
        ids=["bool", "unknown-key", "unknown-name"],
    )
    def test_gazetteer_schema_checked_in_code(self, schema):
        with pytest.raises(RunConfigError, match="gazetteer schema"):
            RunConfig(corpora=(CorpusSource("c", "p"),), gazetteer_path="x", gazetteer_schema=schema, geoparsers=(BUILTIN,))

    @pytest.mark.parametrize("schema", ["geonames", "index", {"id": 4, "name": 0, "lat": 1, "lon": 2}])
    def test_gazetteer_schema_accepted(self, schema):
        config = RunConfig(corpora=(CorpusSource("c", "p"),), gazetteer_path="x", gazetteer_schema=schema, geoparsers=(BUILTIN,))
        assert config.gazetteer_schema == schema

    def test_load_from_json_with_manifest(self, tmp_path):
        corpus, gazetteer = smoke_corpus_and_gazetteer(3, name="demo")
        corpus_path, manifest_path = write_corpus_files(corpus, tmp_path)
        from geobench import save_index

        save_index(gazetteer, tmp_path / "gaz.index")
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps(
                {
                    "corpora": [{"path": corpus_path.name, "manifest": manifest_path.name}],
                    "gazetteer": {"path": "gaz.index", "schema": "index"},
                    "geoparsers": [{"kind": "builtin-baseline", "identifier": "baseline"}],
                    "metrics": {"match_mode": "overlap"},
                    "parallelism": 2,
                }
            ),
            encoding="utf-8",
        )
        config = load_run_config(config_path)
        assert config.corpora[0].name == "demo"
        assert config.corpora[0].completeness == "complete"
        assert config.corpora[0].path == str(corpus_path)  # resolved relative to the config
        assert config.metrics.match_mode == "overlap"
        assert config.parallelism == 2

    @pytest.mark.parametrize(
        "patch",
        [
            {"gazetteer": {"path": "g.tsv", "fold_diacritics": "false"}},
            {"parallelism": True},
            {"parallelism": 2.9},
            {"parallelism": "2"},
        ],
        ids=["fold-string", "parallelism-bool", "parallelism-float", "parallelism-string"],
    )
    def test_scalars_are_not_coerced(self, tmp_path, patch):
        raw = {
            "corpora": [{"name": "c", "path": "c.jsonl"}],
            "gazetteer": {"path": "g.tsv"},
            "geoparsers": [{"kind": "builtin-baseline", "identifier": "b"}],
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**raw, **patch}), encoding="utf-8")
        with pytest.raises(RunConfigError, match="fold_diacritics|parallelism"):
            load_run_config(path)

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{]", encoding="utf-8")
        with pytest.raises(RunConfigError, match="malformed"):
            load_run_config(path)


class TestRunBenchmark:
    def test_writes_reports_and_leaderboards(self, tmp_path):
        corpus, gazetteer = smoke_corpus_and_gazetteer(4, name="demo")
        corpus_path, _ = write_corpus_files(corpus, tmp_path)
        from geobench import save_index

        save_index(gazetteer, tmp_path / "gaz.index")
        config = RunConfig(
            corpora=(CorpusSource("demo", str(corpus_path)),),
            gazetteer_path=str(tmp_path / "gaz.index"),
            gazetteer_schema="index",
            geoparsers=(BUILTIN, GeoparserSpec("builtin-baseline", "no-caps", {"require_capitalized": False})),
            cache_dir=str(tmp_path / "cache"),
        )
        out = tmp_path / "run1"
        boards = run_benchmark(config, out)
        assert (out / "reports" / "demo__baseline.json").exists()
        assert (out / "reports" / "demo__no-caps.json").exists()
        assert (out / "run_config.json").exists()
        reloaded = load_leaderboards(out)
        assert set(reloaded) == {"demo"}
        assert [identifier for identifier, _ in reloaded["demo"].rows] == [
            identifier for identifier, _ in boards["demo"].rows
        ]
        report = json.loads((out / "reports" / "demo__baseline.json").read_text())
        assert report["f_score"] == 1.0

    def test_external_only_run_skips_gazetteer(self, tmp_path):
        corpus, _ = smoke_corpus_and_gazetteer(4, name="demo")
        corpus_path, _ = write_corpus_files(corpus, tmp_path)
        config = RunConfig(
            corpora=(CorpusSource("demo", str(corpus_path)),),
            gazetteer_path=str(tmp_path / "missing.tsv"),
            geoparsers=(replay_spec(tmp_path, gold_replay_fixture(corpus)),),
        )
        boards = run_benchmark(config, tmp_path / "run", use_cache=False)
        assert boards["demo"].rows[0][1].f_score == 1.0

    def test_byte_identical_across_worker_counts(self, tmp_path):
        corpus, gazetteer = smoke_corpus_and_gazetteer(10, name="demo")
        corpus_path, _ = write_corpus_files(corpus, tmp_path)
        from geobench import save_index

        save_index(gazetteer, tmp_path / "gaz.index")
        config = RunConfig(
            corpora=(CorpusSource("demo", str(corpus_path)),),
            gazetteer_path=str(tmp_path / "gaz.index"),
            gazetteer_schema="index",
            geoparsers=(BUILTIN,),
        )
        run_benchmark(config, tmp_path / "w1", workers=1, use_cache=False)
        run_benchmark(config, tmp_path / "w8", workers=8, use_cache=False)
        first = (tmp_path / "w1" / "reports" / "demo__baseline.json").read_bytes()
        second = (tmp_path / "w8" / "reports" / "demo__baseline.json").read_bytes()
        assert first == second

    def two_corpora_two_builtins(self, tmp_path, cache=True):
        from dataclasses import replace

        corpus, gazetteer = smoke_corpus_and_gazetteer(8, name="demo")
        lowered = replace(degrade_case(corpus), name="lower")
        paths = [write_corpus_files(c, tmp_path)[0] for c in (corpus, lowered)]
        from geobench import save_index

        save_index(gazetteer, tmp_path / "gaz.index")
        return RunConfig(
            corpora=tuple(CorpusSource(c.name, str(path)) for c, path in zip((corpus, lowered), paths)),
            gazetteer_path=str(tmp_path / "gaz.index"),
            gazetteer_schema="index",
            geoparsers=(BUILTIN, GeoparserSpec("builtin-baseline", "no-caps", {"require_capitalized": False})),
            cache_dir=str(tmp_path / "cache") if cache else None,
        )

    def test_each_corpus_hashed_once_per_run(self, tmp_path, monkeypatch):
        config = self.two_corpora_two_builtins(tmp_path)
        calls = []
        original = harness_module.corpus_digest
        monkeypatch.setattr(harness_module, "corpus_digest", lambda corpus: calls.append(corpus.name) or original(corpus))
        run_benchmark(config, tmp_path / "cold")  # every evaluation misses, then stores
        assert calls == ["demo", "lower"]
        names = sorted(p.name for p in (tmp_path / "cache").iterdir())
        # the same file names as when each evaluation hashed the corpus itself
        calls.clear()
        monkeypatch.setattr(harness_module, "_parse_all", lambda *a, **k: pytest.fail("cache missed"))
        gazetteer = harness_module.load_gazetteer_for_run(config)
        for source in config.corpora:
            corpus = harness_module.load_corpus(source.path, source.completeness, source.name)
            for spec in config.geoparsers:
                evaluate(spec, corpus, gazetteer, cache_dir=config.cache_dir)
        assert len(calls) == 4
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == names

    @staticmethod
    def assert_same_run(first, second):
        files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    @staticmethod
    def cache_files(config):
        return sorted(p.name for p in Path(config.cache_dir).glob("*.jsonl"))

    def refuse_parsing(self, monkeypatch):
        monkeypatch.setattr(harness_module, "_parse_all", lambda *a, **k: pytest.fail("cache missed"))

    @staticmethod
    def warnings(caplog):
        return [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]

    def test_second_run_remembers_each_corpus_key(self, tmp_path, monkeypatch):
        config = self.two_corpora_two_builtins(tmp_path)
        run_benchmark(config, tmp_path / "cold")
        calls = []
        monkeypatch.setattr(harness_module, "corpus_digest", lambda corpus: calls.append(corpus.name))
        self.refuse_parsing(monkeypatch)
        run_benchmark(config, tmp_path / "warm")
        assert calls == []
        self.assert_same_run(tmp_path / "cold", tmp_path / "warm")

    def test_deleted_corpus_keys_still_hit(self, tmp_path, monkeypatch):
        import shutil

        config = self.two_corpora_two_builtins(tmp_path)
        run_benchmark(config, tmp_path / "cold")
        names = self.cache_files(config)
        shutil.rmtree(Path(config.cache_dir) / "corpora")
        self.refuse_parsing(monkeypatch)
        run_benchmark(config, tmp_path / "warm")
        assert self.cache_files(config) == names
        assert len(list((Path(config.cache_dir) / "corpora").iterdir())) == 2  # remembered again
        self.assert_same_run(tmp_path / "cold", tmp_path / "warm")

    def test_garbage_corpus_key_is_logged_and_recomputed(self, tmp_path, monkeypatch, caplog):
        config = self.two_corpora_two_builtins(tmp_path)
        run_benchmark(config, tmp_path / "cold")
        entry = sorted((Path(config.cache_dir) / "corpora").iterdir())[0]
        remembered = entry.read_bytes()
        entry.write_bytes(b"garbage\n")
        self.refuse_parsing(monkeypatch)
        caplog.clear()
        run_benchmark(config, tmp_path / "warm")
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"corpus key {entry.name} corrupt (not a corpus digest and a newline); recomputing"]
        assert entry.read_bytes() == remembered
        self.assert_same_run(tmp_path / "cold", tmp_path / "warm")

    # each cache store: the name its log messages give an entry, and where its entries are under the cache directory
    STORES = {"corpus key": "corpora/*", "cache entry": "*.jsonl", "score entry": "scores/*"}

    @pytest.mark.parametrize("case", ["missing", "garbage", "directory", "unwritable-parent"])
    @pytest.mark.parametrize("what", list(STORES))
    def test_every_cache_store_keeps_the_one_entry_policy(self, tmp_path, caplog, what, case):
        config = self.two_corpora_two_builtins(tmp_path)
        cache = Path(config.cache_dir)
        run_benchmark(config, tmp_path / "fresh", use_cache=False)
        if case == "unwritable-parent":  # a file where the entries' directory goes: the cache itself for predictions
            parent = cache if what == "cache entry" else cache / self.STORES[what].split("/")[0]
            parent.parent.mkdir(parents=True, exist_ok=True)
            parent.write_text("")
        else:
            run_benchmark(config, tmp_path / "cold")
            if what == "cache entry":
                shutil.rmtree(cache / "scores")  # else no evaluation reads a prediction-cache entry
            entry = sorted(cache.glob(self.STORES[what]))[0]
            stored = entry.read_bytes()
            entry.unlink()
            if case == "garbage":
                entry.write_bytes(b"garbage\n")
            elif case == "directory":
                entry.mkdir()
        caplog.clear()
        run_benchmark(config, tmp_path / "run")
        self.assert_same_run(tmp_path / "fresh", tmp_path / "run")
        warnings = self.warnings(caplog)
        if case == "missing":
            assert warnings == []  # a silent miss
            assert entry.read_bytes() == stored
        elif case == "unwritable-parent":
            assert all(" not written (" in w for w in warnings)
            assert len([w for w in warnings if w.startswith(f"{what} ")]) == {"corpus key": 2}.get(what, 4)
        else:
            corrupt, *rest = warnings
            assert corrupt.startswith(f"{what} {entry.name} corrupt (") and corrupt.endswith("); recomputing")
            if case == "garbage":
                assert rest == []
                assert entry.read_bytes() == stored  # recomputed and stored again
            else:  # the directory is still in the way of the recomputed entry
                assert len(rest) == 1 and rest[0].startswith(f"{what} {entry.name} not written (")

    def test_corpus_key_of_a_non_canonical_file(self, tmp_path):
        corpus_path = tmp_path / "odd.jsonl"
        record = {
            "toponyms": [
                {"name": "Berlin", "lon": 13.4, "lat": 52, "end": 20, "start": 14},
                {"end": 10, "start": 5, "name": "Paris"},
            ],
            "text": "From Paris to Berlin.",
            "id": "d1",
        }
        corpus_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        _, gazetteer = smoke_corpus_and_gazetteer(2)
        from geobench import save_index

        save_index(gazetteer, tmp_path / "gaz.index")
        config = RunConfig(
            corpora=(CorpusSource("odd", str(corpus_path)),),
            gazetteer_path=str(tmp_path / "gaz.index"),
            gazetteer_schema="index",
            geoparsers=(BUILTIN,),
            cache_dir=str(tmp_path / "cache"),
        )
        run_benchmark(config, tmp_path / "run")
        entry = tmp_path / "cache" / "corpora" / hashlib.sha256(corpus_path.read_bytes()).hexdigest()
        assert entry.read_text(encoding="ascii") == corpus_digest(harness_module.load_corpus(corpus_path)) + "\n"

    def test_edited_corpus_file_gets_a_new_key(self, tmp_path):
        config = self.two_corpora_two_builtins(tmp_path)
        run_benchmark(config, tmp_path / "first")
        corpora = Path(config.cache_dir) / "corpora"
        before = {p.name for p in corpora.iterdir()}
        path = Path(config.corpora[0].path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[1:]), encoding="utf-8")
        names = self.cache_files(config)
        run_benchmark(config, tmp_path / "second")
        assert {p.name for p in corpora.iterdir()} - before == {hashlib.sha256(path.read_bytes()).hexdigest()}
        assert len(set(self.cache_files(config)) - set(names)) == 2  # both geoparsers missed

    @pytest.mark.parametrize("primed", [False, True], ids=["cold", "one-score-deleted"])
    def test_corpus_rewritten_after_its_hash_is_refused_on_a_miss(self, tmp_path, monkeypatch, primed):
        config = self.two_corpora_two_builtins(tmp_path)
        cache = Path(config.cache_dir)
        if primed:  # the corpus key is remembered and one geoparser misses
            run_benchmark(config, tmp_path / "first")
            demo = config.corpora[0].name
            next(e for e in (cache / "scores").iterdir() if json.loads(e.read_bytes())["corpus"] == demo).unlink()
        stored = {p: p.read_bytes() for p in cache.rglob("*") if p.is_file()}
        path = Path(config.corpora[0].path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        real_hash = harness_module.hash_file

        def hash_then_rewrite(file, hasher, offset=0):
            digest = real_hash(file, hasher, offset)
            if Path(file) == path:
                path.write_text("".join(lines[1:]), encoding="utf-8")
            return digest

        monkeypatch.setattr(harness_module, "hash_file", hash_then_rewrite)
        changed = f"corpus file {re.escape(str(path))} changed while the run read it"
        with pytest.raises(CorpusFormatError, match=changed):
            run_benchmark(config, tmp_path / "run")
        # no prediction-cache, score or corpus-key entry was written under the old key
        assert {p: p.read_bytes() for p in cache.rglob("*") if p.is_file()} == stored

    def test_unwritable_corpus_key_is_logged_not_fatal(self, tmp_path, caplog):
        config = self.two_corpora_two_builtins(tmp_path)
        Path(config.cache_dir).mkdir()
        (Path(config.cache_dir) / "corpora").write_text("")
        run_benchmark(config, tmp_path / "first")
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 2 and all(" not written (" in w for w in warnings)
        assert len(self.cache_files(config)) == 4
        run_benchmark(config, tmp_path / "second")
        self.assert_same_run(tmp_path / "first", tmp_path / "second")

    @staticmethod
    def log_parses(monkeypatch):
        """Log each builtin parse as (process id, on the main thread)."""
        import threading

        original = BuiltinGeoparser.parse_document
        parses = []

        def record(self, doc):
            parses.append((os.getpid(), threading.get_ident() == threading.main_thread().ident))
            return original(self, doc)

        monkeypatch.setattr(BuiltinGeoparser, "parse_document", record)
        return parses

    def test_builtin_parses_on_the_calling_thread(self, tmp_path, monkeypatch):
        config = self.two_corpora_two_builtins(tmp_path, cache=False)
        parses = self.log_parses(monkeypatch)
        run_benchmark(config, tmp_path / "w4", workers=4)
        assert len(parses) == 2 * 2 * 8  # corpora x geoparsers x documents
        assert set(parses) == {(os.getpid(), True)}  # one process, one thread
        run_benchmark(config, tmp_path / "w1", workers=1)
        run_benchmark(config, tmp_path / "w2", workers=2)
        for sub in ("reports", "leaderboards"):
            produced = sorted((tmp_path / "w2" / sub).iterdir())
            assert [p.name for p in produced] == [p.name for p in sorted((tmp_path / "w1" / sub).iterdir())]
            for path in produced:
                assert path.read_bytes() == (tmp_path / "w1" / sub / path.name).read_bytes()
        echoed = [json.loads((tmp_path / run / "run_config.json").read_text()) for run in ("w1", "w2")]
        assert [e.pop("parallelism") for e in echoed] == [1, 2]
        assert echoed[0] == echoed[1]

    def test_cold_and_warm_runs_are_identical_at_any_worker_count(self, tmp_path, monkeypatch):
        config = self.two_corpora_two_builtins(tmp_path)
        for workers in (1, 2, 8):
            run_benchmark(config, tmp_path / f"cold-w{workers}", workers=workers)
            with monkeypatch.context() as patch:  # every warm report comes from its score entry
                self.refuse_parsing(patch)
                patch.setattr(harness_module, "load_corpus", lambda *a, **k: pytest.fail("corpus loaded"))
                run_benchmark(config, tmp_path / f"warm-w{workers}", workers=workers)
            Path(config.cache_dir).rename(tmp_path / f"cache-w{workers}")
        assert len(list((tmp_path / "cache-w1").glob("*.jsonl"))) == 4
        assert len(list((tmp_path / "cache-w1" / "corpora").iterdir())) == 2
        assert len(list((tmp_path / "cache-w1" / "scores").iterdir())) == 4
        # a report with metric warnings is stored too: the builtin finds nothing in the lower-cased corpus
        assert json.loads((tmp_path / "warm-w1" / "reports" / "lower__baseline.json").read_text())["warnings"]
        for workers in (1, 2, 8):
            self.assert_same_run(tmp_path / "cache-w1", tmp_path / f"cache-w{workers}")
            for run in (f"cold-w{workers}", f"warm-w{workers}"):
                echo = tmp_path / run / "run_config.json"
                text = echo.read_text(encoding="utf-8")
                assert f'"parallelism": {workers}\n' in text  # the one line that names the worker count
                echo.write_text(text.replace(f'"parallelism": {workers}\n', '"parallelism": 1\n'), encoding="utf-8")
                self.assert_same_run(tmp_path / "cold-w1", tmp_path / run)

    @pytest.mark.parametrize("damage", ["none", "scores-deleted", "truncated", "no-counts", "other-corpus"])
    def test_damaged_score_entries_fall_back_to_the_predictions(self, tmp_path, monkeypatch, caplog, damage):
        import shutil

        config = self.two_corpora_two_builtins(tmp_path)
        run_benchmark(config, tmp_path / "cold")
        scores = Path(config.cache_dir) / "scores"
        stored = {p.name: p.read_bytes() for p in scores.iterdir()}
        entry = scores / sorted(stored)[0]
        if damage == "scores-deleted":
            shutil.rmtree(scores)
        elif damage == "truncated":
            entry.write_bytes(stored[entry.name][: len(stored[entry.name]) // 2])
        elif damage == "no-counts":  # reads as a report, with every count 0
            raw = json.loads(stored[entry.name])
            entry.write_text(json.dumps({k: v for k, v in raw.items() if k != "counts"}), encoding="utf-8")
        elif damage == "other-corpus":
            entry.write_text(json.dumps({**json.loads(stored[entry.name]), "corpus": "other"}), encoding="utf-8")
        self.refuse_parsing(monkeypatch)
        caplog.clear()
        run_benchmark(config, tmp_path / "warm")
        self.assert_same_run(tmp_path / "cold", tmp_path / "warm")
        warnings = self.warnings(caplog)
        if damage not in ("none", "scores-deleted"):
            assert len(warnings) == 1
            assert warnings[0].startswith(f"score entry {entry.name} corrupt (")
            assert warnings[0].endswith("); recomputing")
        else:
            assert warnings == []  # a missing entry is a silent miss
        assert {p.name: p.read_bytes() for p in scores.iterdir()} == stored  # stored again

    def test_score_entry_of_another_corpus_name_with_the_same_file_name(self, tmp_path, monkeypatch, caplog):
        from dataclasses import replace

        config = self.two_corpora_two_builtins(tmp_path)
        demo, lower = config.corpora
        first = replace(config, corpora=(replace(demo, name="demo x"), lower))
        second = replace(config, corpora=(replace(demo, name="demo_x"), lower))
        run_benchmark(first, tmp_path / "first")
        run_benchmark(second, tmp_path / "fresh", use_cache=False)
        self.refuse_parsing(monkeypatch)  # "demo x" and "demo_x" share each prediction-cache file
        caplog.clear()
        run_benchmark(second, tmp_path / "second")
        self.assert_same_run(tmp_path / "fresh", tmp_path / "second")
        assert json.loads((tmp_path / "second" / "reports" / "demo_x__baseline.json").read_text())["corpus"] == "demo_x"
        assert [w.split(" (")[1] for w in self.warnings(caplog)] == [
            "the report of 'baseline' on 'demo x'); recomputing",
            "the report of 'no-caps' on 'demo x'); recomputing",
        ]

    @pytest.mark.parametrize("change", ["metrics", "completeness"])
    def test_changed_metrics_or_completeness_misses_the_score_but_hits_the_predictions(
        self, tmp_path, monkeypatch, change
    ):
        from dataclasses import replace

        config = self.two_corpora_two_builtins(tmp_path)
        run_benchmark(config, tmp_path / "first")
        predictions = self.cache_files(config)
        scores = Path(config.cache_dir) / "scores"
        before = {p.name for p in scores.iterdir()}
        if change == "metrics":
            changed = replace(config, metrics=MetricsConfig(threshold_km=100.0))
        else:
            changed = replace(config, corpora=tuple(replace(c, completeness="partial") for c in config.corpora))
        run_benchmark(changed, tmp_path / "fresh", use_cache=False)
        self.refuse_parsing(monkeypatch)
        run_benchmark(changed, tmp_path / "changed")
        self.assert_same_run(tmp_path / "fresh", tmp_path / "changed")
        report = "reports/demo__baseline.json"
        assert (tmp_path / "changed" / report).read_bytes() != (tmp_path / "first" / report).read_bytes()
        assert self.cache_files(config) == predictions
        assert len({p.name for p in scores.iterdir()} - before) == 4  # one new entry per evaluation

    def test_unwritable_score_entries_are_logged_not_fatal(self, tmp_path, caplog):
        config = self.two_corpora_two_builtins(tmp_path)
        Path(config.cache_dir).mkdir()
        (Path(config.cache_dir) / "scores").write_text("")
        for run in ("first", "second"):
            caplog.clear()
            run_benchmark(config, tmp_path / run)
            warnings = self.warnings(caplog)
            assert len(warnings) == 4 and all(w.startswith("score entry ") and " not written (" in w for w in warnings)
        assert len(self.cache_files(config)) == 4
        run_benchmark(config, tmp_path / "no-cache", use_cache=False)
        self.assert_same_run(tmp_path / "no-cache", tmp_path / "first")
        self.assert_same_run(tmp_path / "no-cache", tmp_path / "second")

    def test_unreadable_corpus_file_is_a_corpus_error(self, tmp_path):
        from dataclasses import replace

        config = self.two_corpora_two_builtins(tmp_path)
        missing = replace(config, corpora=(replace(config.corpora[0], path=str(tmp_path / "absent.jsonl")),))
        for use_cache in (True, False):
            with pytest.raises(CorpusFormatError, match="^cannot read corpus file .*absent.jsonl"):
                run_benchmark(missing, tmp_path / "run", use_cache=use_cache)

    @staticmethod
    def raised_at(config, out, workers):
        with pytest.raises(Exception) as caught:
            run_benchmark(config, out, workers=workers)
        return type(caught.value), str(caught.value)

    def test_corrupt_later_corpus_fails_as_at_one_worker(self, tmp_path):
        config = self.two_corpora_two_builtins(tmp_path, cache=False)
        with open(config.corpora[1].path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        first = self.raised_at(config, tmp_path / "w1", 1)
        assert first[0] is CorpusFormatError and ":9: malformed JSON" in first[1]
        assert self.raised_at(config, tmp_path / "w2", 2) == first
        self.assert_same_run(tmp_path / "w1", tmp_path / "w2")  # the first corpus written, nothing more

    def test_aborting_external_geoparser_fails_as_at_one_worker(self, tmp_path):
        from dataclasses import replace

        config = self.two_corpora_two_builtins(tmp_path, cache=False)
        fail_ids = [d.id for d in load_corpus(config.corpora[0].path).documents[:3]]  # 3 of 8, in both corpora
        flaky = GeoparserSpec("external-process", "flaky", {"command": flaky_child(tmp_path, fail_ids)})
        config = replace(config, geoparsers=(BUILTIN, flaky))
        first = self.raised_at(config, tmp_path / "w1", 1)
        assert first[0] is AdapterError and "failed on 3/8 documents of corpus 'demo'" in first[1]
        assert self.raised_at(config, tmp_path / "w2", 2) == first

    def test_more_corpora_than_workers(self, tmp_path, monkeypatch):
        from dataclasses import replace

        config = self.two_corpora_two_builtins(tmp_path, cache=False)
        demo, lower = config.corpora
        again = (replace(demo, name="again"), replace(lower, name="lower-again"), replace(demo, name="last"))
        config = replace(config, corpora=(demo, lower, *again))
        parses = self.log_parses(monkeypatch)
        run_benchmark(config, tmp_path / "w2", workers=2)
        assert len(parses) == 5 * 2 * 8
        run_benchmark(config, tmp_path / "w1", workers=1)
        for sub in ("reports", "leaderboards"):
            self.assert_same_run(tmp_path / "w1" / sub, tmp_path / "w2" / sub)

    def test_index_run_hits_cache_primed_by_tsv_run(self, tmp_path, monkeypatch):
        from geobench import ingest_gazetteer, save_index

        corpus, gazetteer = smoke_corpus_and_gazetteer(6, name="demo")
        corpus_path, _ = write_corpus_files(corpus, tmp_path)
        tsv = tmp_path / "gaz.tsv"
        tsv.write_text(
            "".join(
                geonames_row(e.id, e.primary_name, e.point.lat, e.point.lon, e.population, country=e.country) + "\n"
                for e in gazetteer.entries.values()
            ),
            encoding="utf-8",
        )
        save_index(ingest_gazetteer(tsv)[0], tmp_path / "gaz.index")
        specs = (BUILTIN, GeoparserSpec("builtin-baseline", "no-caps", {"require_capitalized": False}))
        primed = RunConfig(
            corpora=(CorpusSource("demo", str(corpus_path)),),
            gazetteer_path=str(tsv),
            geoparsers=specs,
            cache_dir=str(tmp_path / "cache"),
        )
        run_benchmark(primed, tmp_path / "primed")

        def refuse(*args, **kwargs):
            raise AssertionError("a cached evaluation parsed documents or gazetteer rows")

        monkeypatch.setattr(harness_module, "_parse_all", refuse)
        monkeypatch.setattr(gazetteer_module, "_read_rows", refuse)
        cached = RunConfig(
            corpora=primed.corpora,
            gazetteer_path=str(tmp_path / "gaz.index"),
            gazetteer_schema="index",
            geoparsers=specs,
            cache_dir=primed.cache_dir,
        )
        run_benchmark(cached, tmp_path / "cached")
        for sub in ("reports", "leaderboards"):
            produced = sorted((tmp_path / "cached" / sub).iterdir())
            assert [p.name for p in produced] == [p.name for p in sorted((tmp_path / "primed" / sub).iterdir())]
            for path in produced:
                assert path.read_bytes() == (tmp_path / "primed" / sub / path.name).read_bytes()


class TestScoringVersion:
    @staticmethod
    def scoring_fixture(tmp_path) -> Path:
        """A run config whose reports exercise every metric, warning and both leaderboard orders.

        The builtin also predicts the planted non-place "Flood", so precision is below recall; a third of the
        gazetteer points are moved 0.75 and 1.5 degrees north of the gold, so errors straddle 161 km; the
        lower-cased copy of the corpus is partially annotated.
        """
        from dataclasses import replace

        from geobench.corpus import GeoPoint
        from geobench.gazetteer import Gazetteer, GazetteerEntry

        corpus, gazetteer = smoke_corpus_and_gazetteer(20, name="smoke")
        entries = [
            replace(e, point=GeoPoint(e.point.lat + (i % 3) * 0.75, e.point.lon))
            for i, e in enumerate(gazetteer.entries.values())
        ]
        entries.append(GazetteerEntry(1, "Flood", (), GeoPoint(0.0, 0.0), "P", "PPL", 5, "XX"))
        save_index(Gazetteer.from_entries(entries), tmp_path / "gaz.index")
        lowered = replace(degrade_case(corpus), name="lower", completeness="partial")
        corpora = []
        for c in (corpus, lowered):
            path, manifest = write_corpus_files(c, tmp_path)
            corpora.append({"path": path.name, "manifest": manifest.name})
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({
                "corpora": corpora,
                "gazetteer": {"path": "gaz.index", "schema": "index"},
                "geoparsers": [
                    {"kind": "builtin-baseline", "identifier": "baseline"},
                    {"kind": "builtin-baseline", "identifier": "no-caps", "parameters": {"require_capitalized": False}},
                ],
                "cache_dir": "cache",
            }),
            encoding="utf-8",
        )
        return config

    @staticmethod
    def output_digest(run_dir: Path) -> str:
        h = hashlib.sha256()
        for sub in ("reports", "leaderboards"):
            for path in sorted((run_dir / sub).iterdir()):
                h.update(f"{sub}/{path.name}\n".encode())
                h.update(path.read_bytes())
        return h.hexdigest()

    def test_report_bytes_are_pinned_with_the_scoring_version(self, tmp_path):
        # A change to these bytes must come with a bump of metrics.SCORING_VERSION, so that no stored score
        # computed by the old code is read as the new code's; then update both values here.
        from geobench.cli import main

        config = self.scoring_fixture(tmp_path)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run"), "--no-cache"]) == 0
        assert not (tmp_path / "cache").exists()
        assert (SCORING_VERSION, self.output_digest(tmp_path / "run")) == (
            1,
            "6cbdfc708b0935472d8fd4ef70fd2428a0986335d2a460b64a41e97f153bd756",
        )

    @staticmethod
    def prediction_digest(cache_dir: Path) -> str:
        # each prediction-cache file's bytes under its geoparser and corpus; not its key, which the version moves
        h = hashlib.sha256()
        for path in sorted(cache_dir.glob("*.jsonl")):
            h.update(f"{path.name.rsplit('__', 1)[0]}\n".encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def test_prediction_bytes_are_pinned_with_the_builtin_version(self, tmp_path):
        # A change to these bytes must come with a bump of geoparser.BUILTIN_VERSION, so that no prediction cached
        # by the old builtin is read as the new builtin's; then update both values here.
        from geobench.cli import main

        config = self.scoring_fixture(tmp_path)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        assert len(list((tmp_path / "cache").glob("*.jsonl"))) == 4
        assert (BUILTIN_VERSION, self.prediction_digest(tmp_path / "cache")) == (
            1,
            "b6ef19052f66c8891527e1424e34418cadf4a21f28dcb7acdc9733244696b44a",
        )

    def test_a_bumped_builtin_version_reparses_predictions_cached_by_the_old_builtin(self, tmp_path, monkeypatch):
        config = load_run_config(self.scoring_fixture(tmp_path))
        run_benchmark(config, tmp_path / "primed")
        real_parse = BuiltinGeoparser.parse_document

        def parse_without_flood(parser, document):  # a fix to the builtin: "Flood" is no place
            predictions, dropped = real_parse(parser, document)
            return [p for p in predictions if p.name.casefold() != "flood"], dropped

        monkeypatch.setattr(BuiltinGeoparser, "parse_document", parse_without_flood)
        run_benchmark(config, tmp_path / "fresh", use_cache=False)
        assert self.output_digest(tmp_path / "fresh") != self.output_digest(tmp_path / "primed")
        run_benchmark(config, tmp_path / "stale")  # the caches hide the fix until the version moves
        assert self.output_digest(tmp_path / "stale") == self.output_digest(tmp_path / "primed")
        monkeypatch.setattr(harness_module, "BUILTIN_VERSION", BUILTIN_VERSION + 1)
        run_benchmark(config, tmp_path / "reparsed")
        TestRunBenchmark.assert_same_run(tmp_path / "fresh" / "reports", tmp_path / "reparsed" / "reports")
        TestRunBenchmark.assert_same_run(tmp_path / "fresh" / "leaderboards", tmp_path / "reparsed" / "leaderboards")

    def test_a_bumped_version_misses_scores_stored_by_the_old_scoring(self, tmp_path, monkeypatch):
        from geobench import metrics as metrics_module

        config = load_run_config(self.scoring_fixture(tmp_path))
        run_benchmark(config, tmp_path / "primed")
        monkeypatch.setattr(metrics_module, "_f1", lambda precision, recall: precision * recall)
        run_benchmark(config, tmp_path / "fresh", use_cache=False)
        assert self.output_digest(tmp_path / "fresh") != self.output_digest(tmp_path / "primed")
        run_benchmark(config, tmp_path / "stale")  # the score entries hide the change until the version moves
        assert self.output_digest(tmp_path / "stale") == self.output_digest(tmp_path / "primed")
        monkeypatch.setattr(harness_module, "SCORING_VERSION", SCORING_VERSION + 1)
        monkeypatch.setattr(harness_module, "_parse_all", lambda *a, **k: pytest.fail("prediction cache missed"))
        run_benchmark(config, tmp_path / "warm")
        TestRunBenchmark.assert_same_run(tmp_path / "fresh" / "reports", tmp_path / "warm" / "reports")
        TestRunBenchmark.assert_same_run(tmp_path / "fresh" / "leaderboards", tmp_path / "warm" / "leaderboards")
