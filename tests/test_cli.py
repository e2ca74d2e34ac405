import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import geobench
from geobench import RunConfigError, load_run_config, save_index
from geobench.cli import main
from helpers import geonames_row, smoke_corpus_and_gazetteer, write_corpus_files


@pytest.fixture
def run_setup(tmp_path):
    """A corpus, gazetteer index, and run config on disk; returns the config path."""
    corpus, gazetteer = smoke_corpus_and_gazetteer(6, name="demo")
    corpus_path, manifest_path = write_corpus_files(corpus, tmp_path)
    save_index(gazetteer, tmp_path / "gaz.index")
    config_path = tmp_path / "run.json"
    config_path.write_text(
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
    return config_path


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "ingest" in capsys.readouterr().out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument(self, capsys):
        assert main(["ingest"]) == 1
        assert "error" in capsys.readouterr().err


class TestIngest:
    def test_summary_json(self, tmp_path, capsys):
        corpus, _ = smoke_corpus_and_gazetteer(3, name="demo")
        corpus_path, manifest_path = write_corpus_files(corpus, tmp_path)
        assert main(["ingest", "--corpus", str(corpus_path), "--manifest", str(manifest_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["name"] == "demo"
        assert summary["document_count"] == 3
        assert summary["toponym_count"] == 3
        assert summary["valid"] is True

    def test_bad_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "d", "text": "hi", "toponyms": [{"start": 0, "end": 99, "name": "hi"}]}\n')
        assert main(["ingest", "--corpus", str(bad)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_empty_document_id_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "text": "hi"}\n{"id": "", "text": "hi"}\n')
        assert main(["ingest", "--corpus", str(bad)]) == 2
        assert "bad.jsonl:2: empty document id" in capsys.readouterr().err

    def test_lone_surrogate_escape_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "text": "hi"}\n{"id": "b", "text": "hi \\ud800"}\n', encoding="utf-8")
        assert main(["ingest", "--corpus", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"geobench: data error: {bad}:2: a string holds a lone surrogate (\\uD800-\\uDFFF), which UTF-8 cannot "
            "encode (document 'b')\n"
        )


class TestGazetteerCommand:
    def test_ingest_and_out_index(self, tmp_path, capsys):
        table = tmp_path / "places.tsv"
        table.write_text(
            geonames_row(1, "Paris", 48.85, 2.35, population=2140000)
            + "\n"
            + geonames_row(2, "Oops", 95.0, 0.0)
            + "\n",
            encoding="utf-8",
        )
        index_path = tmp_path / "out.index"
        code = main(["gazetteer", "--input", str(table), "--out-index", str(index_path)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["entries"] == 1
        assert summary["rows_skipped"] == 1
        assert index_path.exists()

    def test_custom_schema_file(self, tmp_path, capsys):
        table = tmp_path / "places.tsv"
        table.write_text("Lima\t-12.05\t-77.04\t9\n", encoding="utf-8")
        schema = tmp_path / "map.json"
        schema.write_text(json.dumps({"name": 0, "lat": 1, "lon": 2, "id": 3}), encoding="utf-8")
        assert main(["gazetteer", "--input", str(table), "--schema", str(schema)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 1

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["gazetteer", "--input", str(tmp_path / "nope.tsv")]) == 2

    def test_unwritable_out_index_is_data_error_naming_it(self, tmp_path, capsys):
        table = tmp_path / "places.tsv"
        table.write_text(geonames_row(1, "Paris", 48.85, 2.35) + "\n", encoding="utf-8")
        out_index = table / "x.index"  # under a file, not a directory
        assert main(["gazetteer", "--input", str(table), "--out-index", str(out_index)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("geobench: data error: ") and str(out_index) in err[0]


class TestRunReportCompare:
    def test_end_to_end(self, run_setup, tmp_path, capsys):
        out = tmp_path / "run-dir"
        assert main(["run", "--config", str(run_setup), "--out", str(out)]) == 0
        capsys.readouterr()

        assert main(["report", "--run-dir", str(out), "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "baseline" in text and "1.000" in text

        assert main(["report", "--run-dir", str(out), "--format", "csv", "--corpus", "demo"]) == 0
        csv_text = capsys.readouterr().out
        assert csv_text.splitlines()[0].startswith("geoparser,precision")

        assert main(["report", "--run-dir", str(out), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["geoparser"] == "baseline"

        assert main(["compare", "--run-dir", str(out), "--corpus", "demo"]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_compare_unknown_corpus(self, run_setup, tmp_path, capsys):
        out = tmp_path / "run-dir"
        assert main(["run", "--config", str(run_setup), "--out", str(out)]) == 0
        assert main(["compare", "--run-dir", str(out), "--corpus", "nope"]) == 2

    def test_report_on_non_run_dir(self, tmp_path):
        assert main(["report", "--run-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["report", "compare"])
    @pytest.mark.parametrize(
        "content",
        [
            "{}",
            "[1]",
            '{"corpus": "demo", "ordering_key": "f_score", "rows": [[]]}',
            '{"corpus": 5, "ordering_key": "f_score", "rows": []}',
            '{"corpus": "demo", "ordering_key": "f_score", "rows": [{"geoparser": 5, "report": {}}]}',
            '{"corpus": "demo", "ordering_key": "f_score", "rows": [{"geoparser": "baseline", "report": '
            '{"recall": 1.0, "f_score": 1.0, "accuracy": 1.0, "mean": 0.0, "median": 0.0, "acc_at_161": 1.0, '
            '"auc": 0.0, "warnings": [], "geoparser": "baseline", "corpus": "demo", "config": {}}}]}',
        ],
        ids=["no-rows", "not-an-object", "row-not-an-object", "corpus-number", "geoparser-number",
             "report-without-precision-and-counts"],
    )
    def test_malformed_leaderboard_is_data_error_naming_the_file(self, run_setup, tmp_path, capsys, command, content):
        out = tmp_path / "run-dir"
        assert main(["run", "--config", str(run_setup), "--out", str(out)]) == 0
        (out / "leaderboards" / "demo.json").write_text(content, encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--run-dir", str(out), "--corpus", "demo"]) == 2
        assert f"malformed leaderboard {out / 'leaderboards' / 'demo.json'}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "compare"])
    def test_leaderboard_metric_not_a_number_is_data_error_naming_file_and_field(self, run_setup, tmp_path, capsys, command):
        out = tmp_path / "run-dir"
        assert main(["run", "--config", str(run_setup), "--out", str(out)]) == 0
        board_path = out / "leaderboards" / "demo.json"
        board = json.loads(board_path.read_text(encoding="utf-8"))
        board["rows"][0]["report"]["f_score"] = "abc"
        board_path.write_text(json.dumps(board), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--run-dir", str(out), "--corpus", "demo"]) == 2
        err = capsys.readouterr().err
        assert f"malformed leaderboard {board_path}" in err
        assert "f_score must be a number or null, got 'abc'" in err

    @pytest.mark.parametrize(
        "schema", [{"id": False, "name": True, "lat": 4, "lon": 5}, {"id": 0, "name": 1, "lat": 4, "lon": 5, "populaton": 14}],
        ids=["bools", "unknown-key"],
    )
    def test_bad_column_map_exits_before_any_ingest(self, run_setup, tmp_path, capsys, monkeypatch, schema):
        (tmp_path / "gaz.tsv").write_text(geonames_row(1, "Paris", 48.85, 2.35) + "\n", encoding="utf-8")
        raw = json.loads(run_setup.read_text(encoding="utf-8"))
        raw["gazetteer"] = {"path": "gaz.tsv", "schema": schema}
        run_setup.write_text(json.dumps(raw), encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("the gazetteer was ingested")

        monkeypatch.setattr(geobench.harness, "ingest_gazetteer", refuse)
        assert main(["run", "--config", str(run_setup), "--out", str(tmp_path / "o")]) == 2
        assert "gazetteer schema: column map" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_config_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("{]", encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "raw, named",
        [
            ([], "the run config"),
            ({"corpora": [], "gazetteer": "x"}, "gazetteer"),
            ({"corpora": ["c.jsonl"], "gazetteer": {"path": "g.tsv"}}, "corpora[0]"),
            (
                {"corpora": [{"name": "c", "path": "c.jsonl"}], "gazetteer": {"path": "g.tsv"}, "geoparsers": [7]},
                "geoparsers[0]",
            ),
        ],
        ids=["top-level-list", "gazetteer-string", "corpus-not-object", "geoparser-not-object"],
    )
    def test_config_part_not_an_object_is_data_error(self, tmp_path, capsys, raw, named):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"{named} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("parameters", ["abc", [1], 3], ids=["string", "list", "number"])
    def test_geoparser_parameters_not_an_object_is_data_error(self, run_setup, tmp_path, capsys, parameters):
        raw = json.loads(run_setup.read_text(encoding="utf-8"))
        raw["geoparsers"].append({"kind": "external-process", "identifier": "odd", "parameters": parameters})
        run_setup.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(run_setup), "--out", str(tmp_path / "o")]) == 2
        assert f"geoparsers[1] parameters must be a JSON object, got {parameters!r}" in capsys.readouterr().err

    def test_null_geoparser_parameters_still_run_under_their_own_key(self, run_setup, tmp_path):
        raw = json.loads(run_setup.read_text(encoding="utf-8"))
        raw["geoparsers"][0]["parameters"] = None
        run_setup.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(run_setup), "--out", str(tmp_path / "o")]) == 0
        # the key hashes [kind, null], as before null was checked
        assert [p.name for p in (run_setup.parent / "cache").glob("*.jsonl")] == ["baseline__demo__987f72ad09b26758.jsonl"]

    def test_broken_adapter_is_adapter_error(self, tmp_path, capsys):
        corpus, _ = smoke_corpus_and_gazetteer(4, name="demo")
        corpus_path, _ = write_corpus_files(corpus, tmp_path)
        gazetteer_table = tmp_path / "gaz.tsv"
        gazetteer_table.write_text(geonames_row(1, "Paris", 48.85, 2.35) + "\n", encoding="utf-8")
        child = tmp_path / "bad_child.py"
        child.write_text("import sys\nfor line in sys.stdin:\n    print('garbage', flush=True)\n", encoding="utf-8")
        import sys

        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "corpora": [{"name": "demo", "path": corpus_path.name}],
                    "gazetteer": {"path": "gaz.tsv", "schema": "geonames"},
                    "geoparsers": [
                        {
                            "kind": "external-process",
                            "identifier": "broken",
                            "parameters": {"command": [sys.executable, str(child)]},
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
        assert "adapter error" in capsys.readouterr().err

    def test_corpus_names_that_share_a_file_name_are_data_error(self, run_setup, tmp_path, capsys):
        raw = json.loads(run_setup.read_text(encoding="utf-8"))
        corpus = raw["corpora"][0]["path"]
        raw["corpora"] = [{"name": "news web", "path": corpus}, {"name": "news_web", "path": corpus}]
        run_setup.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--config", str(run_setup), "--out", str(out)]) == 2
        assert "several evaluations would write reports/news_web__baseline.json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["identifier", "corpus name", "manifest name"])
    def test_lone_surrogate_in_a_name_is_data_error_before_the_run(self, run_setup, tmp_path, capsys, where):
        # a report and a leaderboard hold these names, and `geobench report` could not write them out
        raw = json.loads(run_setup.read_text(encoding="utf-8"))
        if where == "identifier":
            raw["geoparsers"][0]["identifier"] = "base\ud800line"
            named = "geoparser identifier 'base\\ud800line'"
        elif where == "corpus name":
            raw["corpora"][0]["name"] = "c\ud800x"
            named = "corpus name 'c\\ud800x'"
        else:
            manifest = run_setup.parent / raw["corpora"][0]["manifest"]
            manifest.write_text(json.dumps({"name": "c\ud800x", "completeness": "complete"}), encoding="utf-8")
            named = "corpus name 'c\\ud800x'"
        run_setup.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--config", str(run_setup), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"geobench: data error: {named} holds a lone surrogate (\\uD800-\\uDFFF), which UTF-8 cannot encode\n"
        )
        assert not out.exists()

    def test_zero_timeout_is_data_error(self, tmp_path, capsys):
        corpus, _ = smoke_corpus_and_gazetteer(2, name="demo")
        corpus_path, _ = write_corpus_files(corpus, tmp_path)
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "corpora": [{"name": "demo", "path": corpus_path.name}],
                    "gazetteer": {"path": "unused.tsv"},
                    "geoparsers": [
                        {
                            "kind": "external-process",
                            "identifier": "zero",
                            "parameters": {"command": [sys.executable, "-c", "pass"], "timeout": 0},
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "timeout" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "geoparser, named",
        [
            ({"kind": "builtin-baseline", "parameters": {"max_ngram": "5"}}, "max_ngram must be an integer"),
            ({"kind": "builtin-baseline", "parameters": {"require_capitalized": "no"}}, "require_capitalized"),
            ({"kind": "builtin-baseline", "parameters": {"extra_stopwords": "abc"}}, "extra_stopwords"),
            ({"kind": "builtin-baseline", "parameters": {"max_ngrams": 3}}, "unknown builtin-baseline parameter"),
            ({"kind": "external-process", "parameters": {"command": ["python3", 5]}}, "parameters.command"),
            ({"kind": "external-http", "parameters": {"endpoint": "ftp://h/"}}, "parameters.endpoint"),
        ],
        ids=["max_ngram-string", "flag-string", "stopwords-string", "unknown-key", "command-element", "endpoint-ftp"],
    )
    def test_bad_geoparser_parameter_is_data_error_before_the_gazetteer_loads(
        self, run_setup, tmp_path, capsys, monkeypatch, geoparser, named
    ):
        from geobench import harness

        monkeypatch.setattr(harness, "load_gazetteer_for_run", lambda config: pytest.fail("gazetteer loaded"))
        raw = json.loads(run_setup.read_text(encoding="utf-8"))
        raw["geoparsers"].append({"identifier": "odd", **geoparser})
        run_setup.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--config", str(run_setup), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_stderr_marks_each_evaluation_then_the_run_directory(self, run_setup, tmp_path):
        # a benchmark of `geobench run` ends its set-up time at the first line starting "evaluating "
        raw = json.loads(run_setup.read_text(encoding="utf-8"))
        raw["geoparsers"].append(
            {"kind": "builtin-baseline", "identifier": "no-caps", "parameters": {"require_capitalized": False}}
        )
        run_setup.write_text(json.dumps(raw), encoding="utf-8")
        src = str(Path(geobench.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

        def run(out):
            command = [sys.executable, "-m", "geobench.cli", "run", "--config", str(run_setup), "--out", str(out)]
            result = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
            assert result.returncode == 0, result.stderr
            return result.stderr.splitlines()

        evaluating = ["evaluating baseline on demo", "evaluating no-caps on demo"]
        assert run(tmp_path / "r1") == [*evaluating, f"run written to {tmp_path / 'r1'}"]
        cache_file = next((run_setup.parent / "cache").glob("baseline__demo__*.jsonl"))
        cache_file.write_text("{broken\n", encoding="utf-8")
        shutil.rmtree(run_setup.parent / "cache" / "scores")  # else no report reads the broken file
        lines = run(tmp_path / "r2")
        assert [lines[0], *lines[2:]] == [*evaluating, f"run written to {tmp_path / 'r2'}"]
        assert lines[1].startswith(f"cache entry {cache_file.name} corrupt (")
        assert lines[1].endswith("); recomputing")

    def test_no_cache_flag(self, run_setup, tmp_path):
        out = tmp_path / "run-dir"
        assert main(["run", "--config", str(run_setup), "--out", str(out), "--no-cache"]) == 0
        assert not (run_setup.parent / "cache").exists()
        assert main(["run", "--config", str(run_setup), "--out", str(tmp_path / "o2")]) == 0
        assert (run_setup.parent / "cache").exists()

    def test_unwritable_run_directory_is_data_error_naming_it(self, run_setup, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("a file, not a directory", encoding="utf-8")
        assert main(["run", "--config", str(run_setup), "--out", str(out)]) == 2
        err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("geobench:")]
        assert len(err) == 1 and err[0].startswith("geobench: data error: ") and str(out) in err[0]

    def test_lone_surrogate_fails_cached_and_uncached_runs_alike(self, run_setup, tmp_path, capsys):
        corpus_path = run_setup.parent / "demo.jsonl"
        with open(corpus_path, "a", encoding="utf-8") as fh:
            fh.write('{"id": "zz", "text": "hi \\ud800"}\n')
        errors = []
        for run, flags in (("cached", []), ("uncached", ["--no-cache"])):
            assert main(["run", "--config", str(run_setup), "--out", str(tmp_path / run), *flags]) == 2
            errors.append([line for line in capsys.readouterr().err.splitlines() if line.startswith("geobench:")])
        assert errors[0] == errors[1]
        assert errors[0] == [
            f"geobench: data error: {corpus_path}:7: a string holds a lone surrogate (\\uD800-\\uDFFF), which UTF-8 "
            "cannot encode (document 'zz')"
        ]

    @pytest.mark.parametrize("completeness", ["bogus", 5, None], ids=repr)
    def test_bad_corpus_completeness_refuses_the_config_before_any_report(
        self, run_setup, tmp_path, capsys, completeness
    ):
        raw = json.loads(run_setup.read_text(encoding="utf-8"))
        path = raw["corpora"][0]["path"]
        raw["corpora"] = [{"name": "a", "path": path}, {"name": "b", "path": path, "completeness": completeness}]
        run_setup.write_text(json.dumps(raw), encoding="utf-8")
        message = f"corpus 'b': completeness must be one of ('complete', 'partial'), got {completeness!r}"
        with pytest.raises(RunConfigError, match=f"^{re.escape(message)}$"):
            load_run_config(run_setup)
        out = tmp_path / "run-dir"
        assert main(["run", "--config", str(run_setup), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"geobench: data error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_data_error(self, run_setup, tmp_path, capsys, workers):
        out = tmp_path / "run-dir"
        assert main(["run", "--config", str(run_setup), "--out", str(out), "--workers", workers]) == 2
        assert "parallelism must be >= 1" in capsys.readouterr().err
        assert not (out / "run_config.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ingest", "--corpus", "{bad}"], "{bad}: not UTF-8: "),
        (["gazetteer", "--input", "{bad}"], "{bad}: malformed gazetteer rows: "),
        (["run", "--config", "{bad}", "--out", "{tmp}/out"], "malformed run config {bad}: "),
        (["ingest", "--corpus", "{tmp}/c.jsonl", "--manifest", "{bad}"], "malformed manifest {bad}: "),
        (["gazetteer", "--input", "{tmp}/gaz.tsv", "--schema", "{bad}"], "cannot read column map {bad}: "),
    ],
    ids=["corpus", "table", "run-config", "manifest", "column-map"],
)
def test_file_that_is_not_utf8_is_data_error_naming_the_file(tmp_path, capsys, argv, message):
    bad = tmp_path / "bad"
    bad.write_bytes(b'{"id": "\xff"}\n')
    (tmp_path / "c.jsonl").write_text('{"id": "a", "text": "hi"}\n', encoding="utf-8")
    (tmp_path / "gaz.tsv").write_text(geonames_row(1, "Paris", 48.85, 2.35) + "\n", encoding="utf-8")
    assert main([arg.format(bad=bad, tmp=tmp_path) for arg in argv]) == 2
    expected = message.format(bad=bad) + "'utf-8' codec can't decode byte 0xff"
    assert f"geobench: data error: {expected}" in capsys.readouterr().err
