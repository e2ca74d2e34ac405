"""Check the package on the oldest Python that pyproject.toml allows.

    python3 tools/floor_check.py

Finds `python3.N` for the lowest version in `requires-python`. If that
interpreter is installed, it byte-compiles every module of src/geobench
with it, builds a gazetteer index with `geobench gazetteer`, and runs a
small `geobench run` twice over the same cache, once cold and once warm,
with a builtin and an external-process geoparser. The two runs must exit
0 and write byte-identical reports and leaderboards. If the interpreter is
not installed, it says so and skips. Exit status 0 when the check passed
or was skipped, 1 when it failed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

COMPILE = """\
import pathlib, sys
for path in sorted(pathlib.Path(sys.argv[1]).rglob("*.py")):
    compile(path.read_bytes(), str(path), "exec")
"""

# answers each request with one prediction: the text's first word
CHILD = """\
import json, sys
for line in sys.stdin:
    request = json.loads(line)
    word = request["text"].split()[0]
    print(json.dumps({"id": request["id"], "toponyms": [{"start": 0, "end": len(word), "name": word}]}), flush=True)
"""

PLACES = [
    (1, "Berlin", 52.52, 13.405, 3645000),
    (2, "Paris", 48.8566, 2.3522, 2140000),
    (3, "York", 53.96, -1.08, 153717),
]


def oldest_python(pyproject: Path = ROOT / "pyproject.toml") -> str:
    """The command name of the oldest interpreter `requires-python` allows, such as "python3.11"."""
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', pyproject.read_text(encoding="utf-8"), re.M)
    if found is None:
        raise ValueError(f"{pyproject} names no lower bound in requires-python")
    return f"python{found.group(1)}.{found.group(2)}"


def runnable(python: str) -> str | None:
    """The full path of `python` if it is installed and runs as that version, else None."""
    path = shutil.which(python)
    if path is None:
        return None
    version = subprocess.run(
        [path, "-c", "import sys; print(*sys.version_info[:2], sep='.')"], capture_output=True, text=True
    )
    # a version manager's shim can stand on the PATH for a version it will not start
    if version.returncode != 0 or f"python{version.stdout.strip()}" != python:
        return None
    return path


def write_inputs(work: Path, python: str) -> Path:
    """A corpus, a gazetteer table, a replay child and a run config under `work`; returns the config path."""
    documents = []
    for i, (_, name, lat, lon, _) in enumerate(PLACES):
        text = f"{name} is where the meeting took place."
        toponym = {"start": 0, "end": len(name), "name": name, "lat": lat, "lon": lon}
        documents.append(json.dumps({"id": f"d{i}", "text": text, "toponyms": [toponym]}))
    (work / "news.jsonl").write_text("\n".join(documents) + "\n", encoding="utf-8")
    rows = [
        f"{i}\t{name}\t\t\t{lat}\t{lon}\tP\tPPL\tXX\t\t\t\t\t\t{population}\t\t\t\t"
        for i, name, lat, lon, population in PLACES
    ]
    (work / "places.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (work / "child.py").write_text(CHILD, encoding="utf-8")
    config = {
        "corpora": [{"name": "news", "path": "news.jsonl"}],
        "gazetteer": {"path": "places.index", "schema": "index"},
        "geoparsers": [
            {"kind": "builtin-baseline", "identifier": "builtin"},
            {"kind": "external-process", "identifier": "child", "parameters": {"command": [python, "child.py"]}},
        ],
        "cache_dir": "cache",
        "parallelism": 2,
    }
    path = work / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def written(run_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in sorted(run_dir.glob("*/*.json"))}


def check(python: str) -> list[str]:
    """Run the checks with the interpreter at `python`; returns what failed (nothing on success)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")])))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    compiled = subprocess.run([python, "-c", COMPILE, str(SOURCE / "geobench")], capture_output=True, text=True)
    if compiled.returncode != 0:
        return [f"byte-compiling src/geobench failed:\n{compiled.stderr}"]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        config = write_inputs(work, python)
        steps = [
            ("gazetteer", ["gazetteer", "--input", "places.tsv", "--out-index", "places.index"]),
            ("cold run", ["run", "--config", str(config), "--out", "cold"]),
            ("warm run", ["run", "--config", str(config), "--out", "warm"]),
        ]
        for name, args in steps:
            done = subprocess.run(
                [python, "-m", "geobench.cli", *args], cwd=work, env=env, capture_output=True, text=True, timeout=120
            )
            if done.returncode != 0:
                return [f"{name} exited {done.returncode}:\n{done.stderr}"]
        cold, warm = written(work / "cold"), written(work / "warm")
        failures = []
        if len(cold) != 3:  # two reports and one leaderboard
            failures.append(f"the cold run wrote {sorted(cold)}")
        if cold != warm:
            failures.append("the warm run's reports or leaderboards differ from the cold run's")
    return failures


def main(argv: list[str]) -> int:
    name = oldest_python()
    python = runnable(name)
    if python is None:
        print(f"floor check skipped: {name} is not installed or does not run")
        return 0
    failures = check(python)
    for failure in failures:
        print(f"floor check failed on {name}: {failure}")
    if not failures:
        print(f"floor check passed on {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
