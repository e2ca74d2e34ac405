import importlib.util
from pathlib import Path

LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"


def load_loc():
    spec = importlib.util.spec_from_file_location("loc", LOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loc_counts_code_and_docstrings_but_no_blank_or_comment_line():
    text = '"""Doc.\n\nMore."""\n\n# comment\nx = 1  # trailing comment\n    # indented comment\n   \n'
    assert load_loc().count_lines(text) == 3


def test_loc_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (tmp_path / "a.py").write_text("# only a comment\n", encoding="utf-8")
    assert load_loc().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["    0 a.py", "    2 b.py", "    2 total", ""]
