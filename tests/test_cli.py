import json

import pytest

from geobench import save_index
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

    def test_malformed_config_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("{]", encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

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

    def test_no_cache_flag(self, run_setup, tmp_path):
        out = tmp_path / "run-dir"
        assert main(["run", "--config", str(run_setup), "--out", str(out), "--no-cache"]) == 0
        assert not (run_setup.parent / "cache").exists()
        assert main(["run", "--config", str(run_setup), "--out", str(tmp_path / "o2")]) == 0
        assert (run_setup.parent / "cache").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_data_error(self, run_setup, tmp_path, capsys, workers):
        out = tmp_path / "run-dir"
        assert main(["run", "--config", str(run_setup), "--out", str(out), "--workers", workers]) == 2
        assert "parallelism must be >= 1" in capsys.readouterr().err
        assert not (out / "run_config.json").exists()
