"""Benchmark of `geobench run`: three workloads, end-to-end and per-layer figures.

    python3 bench/run.py --workload builtin-cold --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout (it runs `src/geobench`). The
inputs are made from the seed before any timing. Each round is one fresh
`geobench run` process on the workload's run config; rounds repeat until
the next one would end more than half a round after `--seconds`. Every
round's reports are checked against values derived from the inputs alone
(see scoring.py).

With `--trace 0` the last line of stdout is a JSON object with the medians
over rounds of the end-to-end metrics: wall_s (process start to exit),
setup_s (process start to the harness's first "evaluating" line, i.e. the
gazetteer and the first corpus loaded), docs_per_s (document evaluations
per second after set-up) and peak_rss_mb. With `--trace 1` rounds alternate
between untraced and traced under tracer.py, starting untraced; the JSON
then holds the per-layer metrics of layers.py, as medians over the traced
rounds, and the trace of the last traced round is kept under
bench/out/traces/.

Exit status 0 on success; 1, with no result printed, when a check fails
(the message names the workload and the check) or geobench fails; 2 when
there is no source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import layers  # noqa: E402
import scoring  # noqa: E402
from scoring import CheckFailed  # noqa: E402

# Threads never outnumber cores: the builtin is CPU-bound Python.
WORKERS = min(2, os.cpu_count() or 1)
SETUP_MARKER = b"evaluating "
# A round that takes longer than this is killed: the whole run has 180 s.
ROUND_TIMEOUT_S = 150


class RunError(Exception):
    """A geobench process failed or never started parsing."""


@dataclass
class Round:
    wall_s: float
    setup_s: float
    rss_mb: float
    trace: dict | None = None


def _env() -> dict[str, str]:
    """The environment that makes `import geobench` load this checkout's source."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def geobench_run(config: Path, out: Path, trace_out: Path | None = None) -> Round:
    """Run `geobench run` once in a fresh process and time it from outside."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "geobench.cli"]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_out)]
    cmd += ["run", "--config", str(config), "--out", str(out)]
    start = time.perf_counter()
    # a session of its own, so that killing it also kills the geoparser children it starts
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env=_env(), start_new_session=True)
    watchdog = threading.Timer(ROUND_TIMEOUT_S, _kill_group, (proc,))
    watchdog.start()
    setup_end = None
    stderr = []
    try:
        with proc.stderr:
            for line in proc.stderr:
                if setup_end is None and line.startswith(SETUP_MARKER):
                    setup_end = time.perf_counter()
                stderr.append(line)
        # wait4, not wait: only it reports the child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc)
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = b"".join(stderr[-5:]).decode("utf-8", "replace")
        raise RunError(f"geobench run exited with {proc.returncode}: {tail}")
    if setup_end is None:
        raise RunError("geobench run printed no 'evaluating' line, so set-up has no end")
    trace = None
    if trace_out is not None:
        trace = json.loads(trace_out.read_text(encoding="utf-8"))
    return Round(end - start, setup_end - start, usage.ru_maxrss / 1024, trace)


def _read_report(run_dir: Path, corpus: str, geoparser: str) -> dict:
    return json.loads((run_dir / "reports" / f"{corpus}__{geoparser}.json").read_text(encoding="utf-8"))


def _prepare(name: str, work: Path, seed: int, sizes: inputs.Sizes):
    """Write a workload's inputs; return their paths, document count and expected reports."""
    workload = WORKLOADS[name]
    paths = inputs.generate(work / "inputs", seed, workload.kind, sizes)
    truth = json.loads(paths["truth"].read_text(encoding="utf-8"))
    return paths, len(truth["documents"]), workload.expected_reports(truth)


def _prepare_in_child(name: str, work: Path, seed: int, sizes: inputs.Sizes):
    """`_prepare` in a child process, which has ended when this returns."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--prepare", name, str(work), str(seed), json.dumps(asdict(sizes))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, timeout=ROUND_TIMEOUT_S)
    return pickle.loads(proc.stdout)


class Workload:
    """Inputs, run config and checks of one workload, in a work directory."""

    name = ""
    kind = "builtin"
    closed_form_check = "closed-form"

    def __init__(self, work: Path, seed: int, sizes: inputs.Sizes):
        self.work = work
        self.config = work / "run.json"
        self.out = work / "run"
        # A child's peak RSS counts its parent's peak at the fork, so the
        # measuring process must stay small: the inputs are made elsewhere.
        self.paths, self.documents, self.expected = _prepare_in_child(self.name, work, seed, sizes)

    @staticmethod
    def expected_reports(truth: dict) -> dict[tuple[str, str], dict]:
        """Expected report of each (corpus, geoparser) of the run config."""
        raise NotImplementedError

    @property
    def evaluations(self) -> int:
        """Document evaluations (documents x geoparsers) in one round."""
        return len(self.expected) * self.documents

    def write_config(self, config: dict) -> None:
        self.config.write_text(json.dumps(config, indent=2), encoding="utf-8")

    def before_round(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self, run_dir: Path) -> int:
        """Check a run's reports; returns how many documents failed."""
        failed = 0
        for (corpus, geoparser), expected in self.expected.items():
            report = _read_report(run_dir, corpus, geoparser)
            failed += scoring.failed_documents(report)
            scoring.check_no_failures(report)
            scoring.check_closed_form(report, expected, self.closed_form_check)
        return failed

    def close(self) -> None:
        pass


class BuiltinCold(Workload):
    """Builtin baseline, one worker, empty cache: ingest, lookup, recognize, resolve."""

    name = "builtin-cold"

    @staticmethod
    def expected_reports(truth):
        return {("synth", "builtin"): scoring.expected_builtin(truth, gated=True)}

    def __init__(self, work, seed, sizes):
        super().__init__(work, seed, sizes)
        self.cache = work / "cache"
        self.write_config({
            "corpora": [{"name": "synth", "path": str(self.paths["corpus"])}],
            "gazetteer": {"path": str(self.paths["gazetteer"])},
            "geoparsers": [{"kind": "builtin-baseline", "identifier": "builtin"}],
            "cache_dir": str(self.cache),
            "parallelism": 1,
        })

    def before_round(self):
        super().before_round()
        shutil.rmtree(self.cache, ignore_errors=True)


class BuiltinWarm(Workload):
    """Index load and cached predictions: digests, cache reads, exact scoring."""

    name = "builtin-warm"
    kind = "warm"

    @staticmethod
    def expected_reports(truth):
        return {
            ("synth", "builtin"): scoring.expected_builtin(truth, gated=True),
            ("synth", "builtin-caseless"): scoring.expected_builtin(truth, gated=False),
            ("synth-lower", "builtin"): scoring.expected_builtin(truth, gated=True, caseless_text=True),
            ("synth-lower", "builtin-caseless"): scoring.expected_builtin(truth, gated=False),
        }

    def __init__(self, work, seed, sizes):
        super().__init__(work, seed, sizes)
        index = work / "gazetteer.index"
        self.write_config({
            "corpora": [{"name": "synth", "path": str(self.paths["corpus"])},
                        {"name": "synth-lower", "path": str(self.paths["lowercased"])}],
            "gazetteer": {"path": str(index), "schema": "index"},
            "geoparsers": [{"kind": "builtin-baseline", "identifier": "builtin"},
                           {"kind": "builtin-baseline", "identifier": "builtin-caseless",
                            "parameters": {"require_capitalized": False}}],
            "cache_dir": str(work / "cache"),
            "parallelism": WORKERS,
        })
        # untimed: the index and the primed cache come from the code under test
        subprocess.run([sys.executable, "-m", "geobench.cli", "gazetteer", "--input", str(self.paths["gazetteer"]),
                        "--out-index", str(index)], check=True, stdout=subprocess.DEVNULL, env=_env())
        self.primed = work / "primed"
        geobench_run(self.config, self.primed)
        super().check(self.primed)

    def check(self, run_dir):
        failed = super().check(run_dir)
        scoring.check_identical(run_dir, self.primed)
        return failed


class ExternalOverlap(Workload):
    """Process and HTTP replay geoparsers, overlap matching: round trips and alignment."""

    name = "external-overlap"
    kind = "overlap"
    closed_form_check = "overlap-chains"

    @staticmethod
    def expected_reports(truth):
        expected = scoring.expected_overlap(truth)
        return {("chains", "replay-process"): expected, ("chains", "replay-http"): expected}

    def __init__(self, work, seed, sizes):
        super().__init__(work, seed, sizes)
        replay = [sys.executable, str(BENCH / "replay.py")]
        fixture = str(self.paths["replay"])
        self.server = subprocess.Popen([*replay, "http", fixture], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            port = int(self.server.stdout.readline())
        except ValueError:
            self.close()
            raise RunError("the replay HTTP server did not start") from None
        except BaseException:
            self.close()
            raise
        self.write_config({
            "corpora": [{"name": "chains", "path": str(self.paths["corpus"])}],
            "gazetteer": {"path": str(self.paths["gazetteer"])},
            "geoparsers": [
                {"kind": "external-process", "identifier": "replay-process",
                 "parameters": {"command": [*replay, "process", fixture]}},
                {"kind": "external-http", "identifier": "replay-http",
                 "parameters": {"endpoint": f"http://127.0.0.1:{port}"}},
            ],
            "metrics": {"match_mode": "overlap"},
            "parallelism": WORKERS,
        })

    def check(self, run_dir):
        failed = super().check(run_dir)
        scoring.check_agree(_read_report(run_dir, "chains", "replay-process"),
                            _read_report(run_dir, "chains", "replay-http"))
        return failed

    def close(self):
        if self.server.poll() is None:
            self.server.stdin.close()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()


WORKLOADS = {w.name: w for w in (BuiltinCold, BuiltinWarm, ExternalOverlap)}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: Workload, seconds: float, trace: bool, units: dict[str, str]) -> dict:
    """Run and check rounds until the time is up; summarize them."""
    rounds: list[Round] = []
    failed = 0
    durations = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        workload.before_round()
        traced = trace and len(rounds) % 2 == 1  # untraced rounds are the reference for the overhead
        trace_out = workload.work / "last-trace.json" if traced else None
        rounds.append(geobench_run(workload.config, workload.out, trace_out))
        failed += workload.check(workload.out)
        r = rounds[-1]
        print(f"round {len(rounds)}{' traced' if traced else ''}: wall {r.wall_s:.3f} s, setup {r.setup_s:.3f} s, "
              f"peak RSS {r.rss_mb:.1f} MB", file=sys.stderr)
        durations.append(time.perf_counter() - round_start)
        # stop when the next round would end more than half a round late,
        # so that the number of rounds hardly varies between runs
        enough = len(rounds) >= (2 if trace else 1)
        if enough and time.perf_counter() - started + median(durations) / 2 > seconds:
            break
    result = {"correct": True, "attempted": len(rounds) * workload.evaluations, "failed": failed}
    if not trace:
        result["metrics"] = {
            "wall_s": _metric(median(r.wall_s for r in rounds), "s"),
            "setup_s": _metric(median(r.setup_s for r in rounds), "s"),
            "docs_per_s": _metric(median(workload.evaluations / (r.wall_s - r.setup_s) for r in rounds), "1/s"),
            "peak_rss_mb": _metric(median(r.rss_mb for r in rounds), "MB"),
        }
        return result
    traced = [r for r in rounds if r.trace is not None]
    untraced = [r for r in rounds if r.trace is None]
    per_round = [layers.layer_metrics(r.trace) for r in traced]
    values = {name: median(m[name] for m in per_round) for name in per_round[0]}
    # both walls are timed from outside the process, start to exit
    values["cli.trace_overhead_s"] = median(r.wall_s for r in traced) - median(r.wall_s for r in untraced)
    result["metrics"] = {name: _metric(value, units[name]) for name, value in values.items()}
    self_s = layers.self_times(traced[-1].trace)
    for layer, seconds_ in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"self time {layer:10s} {seconds_:8.3f} s", file=sys.stderr)
    return result


def per_layer_units() -> dict[str, str]:
    """Units of the per-layer metrics, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run(name: str, seed: int, seconds: float, trace: bool, sizes: inputs.Sizes = inputs.Sizes(),
        out: Path = BENCH / "out") -> dict:
    """Set up one workload in `out`, measure it, and clean up; returns the result object."""
    work = out / f"work-{name}-{seed}-{os.getpid()}"
    trace_dir = out / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    workload = None
    try:
        workload = WORKLOADS[name](work, seed, sizes)
        result = measure(workload, seconds, trace, per_layer_units())
        if trace:
            shutil.copyfile(work / "last-trace.json", trace_dir / f"{name}-seed{seed}.json")
        return result
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "geobench" / "cli.py").is_file():
        print(f"bench: no geobench source tree at {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (CheckFailed, RunError, subprocess.SubprocessError) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--prepare"]:  # the child of _prepare_in_child
        name, work, seed, sizes = sys.argv[2:]
        prepared = _prepare(name, Path(work), int(seed), inputs.Sizes(**json.loads(sizes)))
        sys.stdout.buffer.write(pickle.dumps(prepared))
        sys.exit(0)
    # on SIGTERM, still stop the server and remove the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
