import ast
import importlib.util
import re
import sys
from pathlib import Path

LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"


def load_tool(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_loc():
    return load_tool(LOC)


def test_loc_counts_code_and_docstrings_but_no_blank_or_comment_line():
    text = '"""Doc.\n\nMore."""\n\n# comment\nx = 1  # trailing comment\n    # indented comment\n   \n'
    assert load_loc().count_lines(text) == 3


def test_loc_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (tmp_path / "a.py").write_text("# only a comment\n", encoding="utf-8")
    assert load_loc().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["    0 a.py", "    2 b.py", "    2 total", ""]


ROOT = LOC.parents[1]
SURFACE = {
    "GeoparserSpec",
    "MetricsConfig", "EvalReport",
    "evaluate", "compare", "render_report", "run_benchmark", "load_run_config", "RunConfigError",
    "ingest_gazetteer", "load_index", "save_index", "GazetteerError",
    "load_corpus", "degrade_case", "CorpusFormatError",
    "AdapterError",
}


def test_package_exports_exactly_the_library_surface():
    import geobench

    assert len(geobench.__all__) == len(SURFACE) == 17
    assert set(geobench.__all__) == SURFACE
    assert all(hasattr(geobench, name) for name in geobench.__all__)


def test_readme_library_use_imports_only_the_surface():
    import geobench

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^from geobench import \(([^)]*)\)", section, re.M)
    names = re.findall(r"\w+", block.group(1))
    assert names and set(names) <= set(geobench.__all__)


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # bench/tracer.py replaces each (module, attribute path) of SPANS and HOT by name, and fails on a missing one
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    tables = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANS", "HOT")
    }
    paths = [(row.elts[0].value, row.elts[1].value) for table in tables.values() for row in table.elts]
    assert set(tables) == {"SPANS", "HOT"} and len(paths) > 20
    for module_name, path in paths:
        owner = importlib.import_module(f"geobench.{module_name}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"geobench.{module_name}.{path}"
            owner = getattr(owner, attr)


def load_floor_check():
    return load_tool(ROOT / "tools" / "floor_check.py")


def test_floor_check_names_the_oldest_allowed_python(tmp_path):
    floor = load_floor_check()
    assert floor.oldest_python() == "python3.11"
    (tmp_path / "pyproject.toml").write_text('[project]\nrequires-python = ">=3.12"\n', encoding="utf-8")
    assert floor.oldest_python(tmp_path / "pyproject.toml") == "python3.12"


def test_floor_check_skips_without_that_python(monkeypatch, capsys):
    floor = load_floor_check()
    monkeypatch.setattr(floor.shutil, "which", lambda name: None)
    assert floor.main([]) == 0
    assert capsys.readouterr().out == "floor check skipped: python3.11 is not installed or does not run\n"


def test_floor_check_passes_on_this_python():
    # the same checks the tool runs on the oldest python, here on the interpreter running the tests
    assert load_floor_check().check(sys.executable) == []


def test_floor_check_reports_a_failing_run(monkeypatch):
    floor = load_floor_check()
    monkeypatch.setattr(floor, "CHILD", "import sys\nsys.exit(5)\n")  # every request fails, so the run aborts
    failures = floor.check(sys.executable)
    assert len(failures) == 1 and failures[0].startswith("cold run exited 3")
