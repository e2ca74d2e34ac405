"""Evaluation runs: orchestration, prediction and score caches, leaderboards, rendering.

evaluate() runs one geoparser over one corpus and scores each document as
its predictions arrive, from the parse or from the prediction cache, so no
evaluation holds a corpus's predictions; run_benchmark() drives a whole
RunConfig and writes reports and per-corpus leaderboards to a run
directory. Reports are deterministic: documents are dispatched to workers
in any order, and metrics.pool_outcomes pools their outcomes in document-id
order, so worker count never changes output bytes. The three caches (corpus
keys, predictions, scores) share one entry policy: _read_entry and _store.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import tempfile
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from io import StringIO
from pathlib import Path

from .adapters import AdapterError, AdapterProtocolError, parse_response
from .corpus import (
    _SURROGATE,
    Corpus,
    CorpusFormatError,
    check_completeness,
    document_to_json_line,
    hash_file,
    is_json_int,
    is_json_number,
    load_corpus,
    load_manifest,
)
from .gazetteer import Gazetteer, GazetteerError, _check_schema, ingest_gazetteer, load_index
from .geoparser import BUILTIN_VERSION, GeoparserSpec, PredictedToponym, create_geoparser
from .metrics import (
    REPORT_METRICS,
    SCORING_VERSION,
    DocumentOutcome,
    EvalReport,
    MetricsConfig,
    pool_outcomes,
    score_document,
)

# Text/CSV column order for rendered leaderboards.
METRIC_COLUMNS = ("precision", "recall", "f_score", "accuracy", "mean", "median", "auc", "acc_at_161")

# More than this fraction of documents failing aborts the run; at or below
# it, failed documents score as zero predictions and are listed in warnings.
FAILURE_ABORT_FRACTION = 0.10

# run messages: progress at INFO, cache entries, score entries and corpus keys that were corrupt or not written
# at WARNING
log = logging.getLogger(__name__)

# a remembered corpus key: one corpus_digest and a newline
_DIGEST_LINE = re.compile(r"[0-9a-f]{64}\n")


class RunConfigError(Exception):
    """A run configuration file is malformed or inconsistent."""


@dataclass(frozen=True, slots=True)
class CorpusSource:
    name: str
    path: str
    completeness: str = "complete"


@dataclass(frozen=True)
class RunConfig:
    """Everything one benchmark run needs; mirrors the run-config JSON."""

    corpora: tuple[CorpusSource, ...]
    gazetteer_path: str
    gazetteer_schema: object = "geonames"  # "geonames" | "index" | column map
    fold_diacritics: bool = False
    geoparsers: tuple[GeoparserSpec, ...] = ()
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    cache_dir: str | None = None
    parallelism: int = 1

    def __post_init__(self):
        if not self.corpora:
            raise RunConfigError("run config needs at least one corpus")
        if not self.geoparsers:
            raise RunConfigError("run config needs at least one geoparser")
        names = [c.name for c in self.corpora]
        if len(set(names)) != len(names):
            raise RunConfigError("corpus names must be unique")
        for c in self.corpora:  # checked here, so that a bad corpus fails the run before any report is written
            try:
                check_completeness(c.completeness, f"corpus {c.name!r}: ")
            except CorpusFormatError as exc:
                raise RunConfigError(str(exc)) from None
        ids = [g.identifier for g in self.geoparsers]
        if len(set(ids)) != len(ids):
            raise RunConfigError("geoparser identifiers must be unique")
        # distinct names can still share a file name: _safe_name replaces characters, and "__" joins the parts
        shared = [n for n, k in Counter(_report_name(c, g) for c in names for g in ids).items() if k > 1]
        if shared:
            raise RunConfigError(
                f"corpus names and geoparser identifiers must give distinct file names; several evaluations would "
                f"write reports/{shared[0]}"
            )
        # a report and a leaderboard hold these names, and no UTF-8 file can hold a lone surrogate
        for what, values in (("corpus name", names), ("geoparser identifier", ids)):
            for value in values:
                if _SURROGATE.search(value):
                    raise RunConfigError(
                        f"{what} {value!r} holds a lone surrogate (\\uD800-\\uDFFF), which UTF-8 cannot encode"
                    )
        if self.gazetteer_schema != "index":
            try:
                _check_schema(self.gazetteer_schema)
            except GazetteerError as exc:
                raise RunConfigError(f"gazetteer schema: {exc}") from None
        if not isinstance(self.fold_diacritics, bool):
            raise RunConfigError(f"gazetteer fold_diacritics must be true or false, got {self.fold_diacritics!r}")
        if not is_json_int(self.parallelism) or self.parallelism < 1:
            raise RunConfigError(f"parallelism must be >= 1 and a JSON integer, got {self.parallelism!r}")


def load_run_config(path: str | Path) -> RunConfig:
    """Parse a RunConfig JSON file (see README for the schema)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise RunConfigError(f"cannot read run config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RunConfigError(f"malformed run config {path}: {exc}") from None
    base = Path(path).parent

    def _resolve(p: str) -> str:
        q = Path(p)
        return str(q if q.is_absolute() else base / q)

    def _object(value, what: str) -> dict:
        if not isinstance(value, dict):
            raise TypeError(f"{what} must be a JSON object, got {value!r}")
        return value

    try:
        raw = _object(raw, "the run config")
        corpora = []
        for i, item in enumerate(raw.get("corpora", [])):
            item = _object(item, f"corpora[{i}]")
            if "manifest" in item:
                manifest = load_manifest(_resolve(item["manifest"]))
                name = item.get("name", manifest["name"])
                completeness = manifest["completeness"]
            else:
                name = item["name"]
                completeness = item.get("completeness", "complete")
            corpora.append(CorpusSource(name=name, path=_resolve(item["path"]), completeness=completeness))
        gaz = _object(raw.get("gazetteer", {}), "gazetteer")
        geoparsers = []
        for i, item in enumerate(raw.get("geoparsers", [])):
            item = _object(item, f"geoparsers[{i}]")
            parameters = item.get("parameters", {})
            if parameters is not None:  # null runs on the defaults, under a cache key of its own
                _object(parameters, f"geoparsers[{i}] parameters")
            geoparsers.append(GeoparserSpec(kind=item["kind"], identifier=item["identifier"], parameters=parameters))
        metrics = MetricsConfig(**raw.get("metrics", {}))
        cache_dir = raw.get("cache_dir")
        return RunConfig(
            corpora=tuple(corpora),
            gazetteer_path=_resolve(gaz["path"]),
            gazetteer_schema=gaz.get("schema", "geonames"),
            fold_diacritics=gaz.get("fold_diacritics", False),
            geoparsers=tuple(geoparsers),
            metrics=metrics,
            cache_dir=_resolve(cache_dir) if cache_dir else None,
            parallelism=raw.get("parallelism", 1),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RunConfigError(f"invalid run config {path}: {exc}") from None


def load_gazetteer_for_run(config: RunConfig) -> Gazetteer:
    if config.gazetteer_schema == "index":
        return load_index(config.gazetteer_path)
    gazetteer, _ = ingest_gazetteer(config.gazetteer_path, config.gazetteer_schema, config.fold_diacritics)
    return gazetteer


# ---------------------------------------------------------------------------
# Prediction and score caches


def corpus_digest(corpus: Corpus) -> str:
    h = hashlib.sha256()
    for doc in corpus.documents:
        h.update(document_to_json_line(doc).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _read_entry(path: Path, what: str, decode):
    """`decode` of the cache entry at `path`, opened as text, or None on a miss: the read policy of every cache.

    A missing entry is a silent miss. One that cannot be read, or whose
    content `decode` refuses, is logged as corrupt and is a miss too.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return decode(fh)
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, AttributeError, TypeError, ValueError, AdapterProtocolError) as exc:
        log.warning("%s %s corrupt (%s); recomputing", what, path.name, exc)
        return None


def _store(path: Path, lines, what: str) -> bool:
    """Write the lines to `path` through a temporary file beside it, atomically; a failed write is logged."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
        return True
    except OSError as exc:
        log.warning("%s %s not written (%s)", what, path.name, exc)
        return False
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _remembered_digest(fh) -> str:
    # a corpus key, <cache_dir>/corpora/<sha256 of the corpus file's bytes>, holds its corpus_digest and a newline
    remembered = fh.read()
    if not _DIGEST_LINE.fullmatch(remembered):
        raise ValueError("not a corpus digest and a newline")
    return remembered[:-1]


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name) or "_"


def _report_name(corpus_name: str, identifier: str) -> str:
    return f"{_safe_name(corpus_name)}__{_safe_name(identifier)}.json"


def _cache_path(
    cache_dir, spec: GeoparserSpec, corpus_name: str, corpus_hash: str, gazetteer: Gazetteer | None
) -> Path:
    # keyed on everything predictions depend on: the spec, the corpus and, for the builtin, its code and the gazetteer
    h = hashlib.sha256()
    h.update(json.dumps([spec.kind, spec.parameters], sort_keys=True).encode())
    h.update(corpus_hash.encode())
    if spec.kind == "builtin-baseline" and gazetteer is not None:
        h.update(f"builtin version {BUILTIN_VERSION}\n".encode())
        h.update(gazetteer.digest().encode())
    return Path(cache_dir) / f"{_safe_name(spec.identifier)}__{_safe_name(corpus_name)}__{h.hexdigest()[:16]}.jsonl"


def _score_path(prediction_path: Path, config: MetricsConfig, completeness: str) -> Path:
    # a report depends on the scoring code, its predictions, the metrics config and (through precision) the corpus
    # completeness
    key = json.dumps([SCORING_VERSION, prediction_path.name, config.to_dict(), completeness], sort_keys=True)
    return prediction_path.parent / "scores" / hashlib.sha256(key.encode()).hexdigest()


def _stored_report(identifier: str, corpus_name: str, fh) -> EvalReport:
    # a score entry's report, if it reads back as exactly that report and names this geoparser and corpus: a
    # prediction-cache file name, and so a score key, is shared by names that differ only in what _safe_name replaces
    raw = json.loads(fh.read())
    report = EvalReport.from_dict(raw)
    if report.to_dict() != raw:
        raise ValueError("not a report as geobench writes it")
    if (report.geoparser, report.corpus) != (identifier, corpus_name):
        raise ValueError(f"the report of {report.geoparser!r} on {report.corpus!r}")
    return report


def _prediction_to_wire(p: PredictedToponym) -> dict:
    out: dict = {"start": p.start, "end": p.end, "name": p.name}
    if p.point is not None:
        out["lat"] = p.point.lat
        out["lon"] = p.point.lon
    if p.entry_id is not None:
        out["entry_id"] = p.entry_id
    return out


class _Unstored(Exception):
    """Ends the lines of a parse that must leave no cache entry; _store then removes its temporary file."""


def cache_predictions(parsed, path: Path, warnings: list[str]) -> bool:
    """Store each (document, predictions) of `parsed` at `path` (a _cache_path) as it arrives: whether they were.

    Each document becomes one adapter response line in a temporary file
    beside `path` (_store). The file becomes the entry only if `warnings` is
    still empty once `parsed` ends, so that a hit reproduces a warning-free
    parse; a parse with warnings, or one that raises, leaves neither entry
    nor temporary file. A failed write stops reading `parsed` early, and the
    caller reads the rest.
    """

    def lines():
        for doc, predictions in parsed:
            toponyms = [_prediction_to_wire(p) for p in predictions]
            yield json.dumps({"id": doc.id, "toponyms": toponyms}, ensure_ascii=False, sort_keys=True) + "\n"
        if warnings:
            raise _Unstored

    try:
        return _store(path, lines(), "cache entry")
    except _Unstored:
        return False


def load_cached(corpus: Corpus, path: Path, config: MetricsConfig) -> list[DocumentOutcome] | None:
    """Score the predictions cached at `path` (a _cache_path): their outcomes, or None on a miss or a corrupt entry.

    The file holds one adapter response per document, in corpus order, and
    is read one line at a time through the adapters' decoder; each line is
    scored, and its predictions dropped, before the next is read. A line
    count or id that does not match the corpus, or any dropped prediction,
    makes the entry corrupt (_read_entry), and the outcomes scored so far are
    discarded.
    """

    def decode(fh) -> list[DocumentOutcome]:
        outcomes = []
        # zip takes the next document first, so it stops before reading a line past the last document
        for doc, line in zip(corpus.documents, fh):
            predictions, dropped = parse_response(doc, line)
            if dropped:
                raise ValueError(f"{dropped} invalid predictions for {doc.id!r}")
            outcomes.append(score_document(doc, predictions, config))
        count = len(outcomes) + sum(1 for _ in fh)
        if count != len(corpus.documents):
            raise ValueError(f"{count} lines for {len(corpus.documents)} documents")
        return outcomes

    return _read_entry(path, "cache entry", decode)


# ---------------------------------------------------------------------------
# Evaluation


def _parse_all(spec, corpus, gazetteer, workers, warnings: list[str]):
    """Yield (document, predictions) for every document, in corpus order, under the failure policy.

    A failed document yields zero predictions. Once the last one is yielded,
    the policy runs: if more than FAILURE_ABORT_FRACTION failed, an
    AdapterError cites the lowest failed id; otherwise the failed ids, and a
    count of dropped predictions, go into `warnings`. The builtin, CPU-bound,
    parses on the calling thread, as does any geoparser at one worker. With
    more, worker threads parse ahead through pool.map, each lazily creating
    its own geoparser so that no two threads share a child, and hand the
    documents back in corpus order as the caller takes them.
    """
    local = threading.local()
    instances = []
    instances_lock = threading.Lock()

    def get_parser():
        parser = getattr(local, "parser", None)
        if parser is None:
            parser = create_geoparser(spec, gazetteer)
            local.parser = parser
            with instances_lock:
                instances.append(parser)
        return parser

    def work(doc):
        try:
            predictions, dropped = get_parser().parse_document(doc)
            return doc, predictions, dropped, None
        except AdapterError as exc:
            return doc, [], 0, str(exc)

    errors: dict[str, str] = {}
    dropped_total = 0
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 and spec.kind != "builtin-baseline" else None
    try:
        for doc, predictions, dropped, error in (map if pool is None else pool.map)(work, corpus.documents):
            if error is not None:
                errors[doc.id] = error
            dropped_total += dropped
            yield doc, predictions
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)  # a caller that stops early leaves no document to parse
        for parser in instances:
            parser.close()
    failed = sorted(errors)
    if len(failed) > FAILURE_ABORT_FRACTION * len(corpus.documents):
        raise AdapterError(
            f"geoparser {spec.identifier!r} failed on {len(failed)}/{len(corpus.documents)} documents "
            f"of corpus {corpus.name!r} (first error: {errors[failed[0]]})"
        )
    if failed:
        shown = ", ".join(failed[:10]) + (", ..." if len(failed) > 10 else "")
        warnings.append(f"{len(failed)} documents failed and scored zero predictions: {shown}")
    if dropped_total:
        warnings.append(f"{dropped_total} invalid predictions dropped")


def _scored(parsed, config: MetricsConfig, outcomes: list[DocumentOutcome]):
    """Pass on each (document, predictions) of `parsed` once its outcome is in `outcomes`."""
    for doc, predictions in parsed:
        outcomes.append(score_document(doc, predictions, config))
        yield doc, predictions


def evaluate(
    spec: GeoparserSpec,
    corpus: Corpus,
    gazetteer: Gazetteer | None = None,
    config: MetricsConfig | None = None,
    *,
    cache_dir: str | Path | None = None,
    workers: int = 1,
    corpus_hash: str | None = None,
) -> EvalReport:
    """Run one geoparser over one corpus and score it, one document at a time, then pool the outcomes.

    The predictions come from the prediction cache (load_cached) or, on a
    miss, from _parse_all, written to the cache as they arrive
    (cache_predictions). Either way each document is scored as its
    predictions arrive and they are then dropped, so an evaluation never
    holds a corpus's predictions; metrics.pool_outcomes folds the outcomes.
    With a `cache_dir`, a warning-free parse is stored, and the report is
    stored as a score entry whenever its predictions are in the prediction
    cache, so never beside a parse that one timeout made. `corpus_hash` is
    the corpus's `corpus_digest`, for callers that evaluate it several times.
    """
    config = config or MetricsConfig()
    outcomes = cache_path = None
    warnings: list[str] = []
    if cache_dir is not None:
        cache_path = _cache_path(cache_dir, spec, corpus.name, corpus_hash or corpus_digest(corpus), gazetteer)
        outcomes = load_cached(corpus, cache_path, config)
    cached = outcomes is not None
    if not cached:
        outcomes = []
        parsed = _scored(_parse_all(spec, corpus, gazetteer, workers, warnings), config, outcomes)
        cached = cache_path is not None and cache_predictions(parsed, cache_path, warnings)
        for _ in parsed:  # the documents no store took: without a cache, or after a failed write
            pass
    report = pool_outcomes(outcomes, config, corpus.completeness, warnings, spec.identifier, corpus.name)
    if cached:
        stored = json.dumps(report.to_dict(), sort_keys=True) + "\n"
        _store(_score_path(cache_path, config, corpus.completeness), [stored], "score entry")
    return report


# ---------------------------------------------------------------------------
# Leaderboards


@dataclass(frozen=True, slots=True)
class Leaderboard:
    corpus: str
    ordering_key: str  # "f_score" | "accuracy"
    rows: tuple[tuple[str, EvalReport], ...]


def compare(reports: list[tuple[str, EvalReport]], completeness: str = "complete") -> Leaderboard:
    """Order geoparser reports from one corpus into a leaderboard.

    Complete corpora rank by F1, partially annotated ones by accuracy;
    ties break by geoparser id ascending.
    """
    corpora = {report.corpus for _, report in reports}
    if len(corpora) > 1:
        raise ValueError(f"reports come from different corpora: {sorted(corpora)}")
    key = "accuracy" if completeness == "partial" else "f_score"

    def sort_key(row):
        identifier, report = row
        value = getattr(report, key)
        return (-(value if value is not None else 0.0), identifier)

    rows = tuple(sorted(reports, key=sort_key))
    corpus = next(iter(corpora)) if corpora else ""
    return Leaderboard(corpus=corpus, ordering_key=key, rows=rows)


def _format_cell(value, blank: str) -> str:
    return blank if value is None else f"{value:.3f}"


def render_report(board: Leaderboard, format: str = "text") -> bytes:
    """Render a leaderboard as a text table, CSV, or JSON byte stream.

    Ratios and kilometer values are printed with 3 decimal places;
    suppressed or absent metrics render as "-" (text), an empty cell
    (CSV), or null (JSON).
    """
    table = [(name, [getattr(report, REPORT_METRICS[c]) for c in METRIC_COLUMNS]) for name, report in board.rows]
    if format == "text":
        header = ["geoparser", *METRIC_COLUMNS]
        lines = [header]
        for identifier, values in table:
            lines.append([identifier, *(_format_cell(value, "-") for value in values)])
        widths = [max(len(row[i]) for row in lines) for i in range(len(header))]
        out = StringIO()
        out.write(f"# {board.corpus} (ordered by {board.ordering_key})\n")
        for row in lines:
            cells = [row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
            out.write("  ".join(cells).rstrip() + "\n")
        return out.getvalue().encode("utf-8")
    if format == "csv":
        import csv

        out = StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["geoparser", *METRIC_COLUMNS])
        for identifier, values in table:
            writer.writerow([identifier, *(_format_cell(value, "") for value in values)])
        return out.getvalue().encode("utf-8")
    if format == "json":
        rows = [
            {"geoparser": identifier, **{c: None if v is None else round(v, 3) for c, v in zip(METRIC_COLUMNS, values)}}
            for identifier, values in table
        ]
        payload = {"corpus": board.corpus, "ordering_key": board.ordering_key, "rows": rows}
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")


def leaderboard_to_dict(board: Leaderboard) -> dict:
    return {
        "corpus": board.corpus,
        "ordering_key": board.ordering_key,
        "rows": [{"geoparser": identifier, "report": report.to_dict()} for identifier, report in board.rows],
    }


def leaderboard_from_dict(raw: dict) -> Leaderboard:
    rows = tuple((row["geoparser"], EvalReport.from_dict(row["report"])) for row in raw["rows"])
    return Leaderboard(corpus=raw["corpus"], ordering_key=raw["ordering_key"], rows=rows)


# ---------------------------------------------------------------------------
# Whole-run driver


def _dump_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_hashed_corpus(source: CorpusSource, file_hash: str) -> Corpus:
    """Load a corpus from its file's bytes, refusing them unless their sha256 is still `file_hash`.

    The bytes parsed are exactly the bytes checked, so a corpus is never
    scored or cached under the key of a file that changed after it was hashed.
    """
    try:
        data = Path(source.path).read_bytes()
    except OSError as exc:
        raise CorpusFormatError(f"cannot read corpus file {source.path}: {exc}") from exc
    if hashlib.sha256(data).hexdigest() != file_hash:
        raise CorpusFormatError(f"corpus file {source.path} changed while the run read it; run again")
    return load_corpus(source.path, source.completeness, source.name, data=data)


def _evaluate_corpus(
    config: RunConfig, gazetteer: Gazetteer | None, cache_dir: str | None, workers: int, source: CorpusSource
) -> list[tuple[str, EvalReport]]:
    """Evaluate every geoparser on one corpus, in config order.

    With a cache, the corpus file is hashed in chunks, holding none of its
    bytes, to find its corpus key. If that key is remembered, each geoparser
    whose score entry is usable gets its report from that entry. Only when
    some geoparser misses is the file read again: its bytes must hash to the
    same key, or the corpus is refused with a CorpusFormatError, and exactly
    those bytes are parsed.
    """
    corpus = corpus_hash = None
    reports = [None] * len(config.geoparsers)
    if cache_dir is None:
        corpus = load_corpus(source.path, source.completeness, source.name)
    else:
        try:
            file_hash = hash_file(source.path, hashlib.sha256())
        except OSError as exc:
            raise CorpusFormatError(f"cannot read corpus file {source.path}: {exc}") from exc
        key = Path(cache_dir) / "corpora" / file_hash
        corpus_hash = _read_entry(key, "corpus key", _remembered_digest)
        if corpus_hash is not None:
            for i, spec in enumerate(config.geoparsers):
                predictions = _cache_path(cache_dir, spec, source.name, corpus_hash, gazetteer)
                score = _score_path(predictions, config.metrics, source.completeness)
                reports[i] = _read_entry(score, "score entry", partial(_stored_report, spec.identifier, source.name))
        if None in reports:
            corpus = _load_hashed_corpus(source, file_hash)
    rows = []
    for spec, report in zip(config.geoparsers, reports):
        log.info("evaluating %s on %s", spec.identifier, source.name)  # after the corpus load, if there is one
        if report is None:
            if cache_dir is not None and corpus_hash is None:  # once per corpus, as part of its first evaluation
                corpus_hash = corpus_digest(corpus)
                _store(key, [corpus_hash + "\n"], "corpus key")
            report = evaluate(
                spec, corpus, gazetteer, config.metrics, cache_dir=cache_dir, workers=workers, corpus_hash=corpus_hash
            )
        rows.append((spec.identifier, report))
    return rows


def run_benchmark(
    config: RunConfig,
    out_dir: str | Path,
    *,
    workers: int | None = None,
    use_cache: bool = True,
) -> dict[str, Leaderboard]:
    """Evaluate every (geoparser, corpus) pair and write a run directory.

    Produces reports/<corpus>__<geoparser>.json, one leaderboard per
    corpus under leaderboards/, and an echo of the effective run config.
    Corpora are evaluated one after another in this process; `workers` is
    the number of threads that parse for an external geoparser. Output bytes
    are independent of the worker count.
    """
    workers = config.parallelism if workers is None else workers
    config = replace(config, parallelism=workers)  # RunConfig rejects a count below 1
    out = Path(out_dir)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    (out / "leaderboards").mkdir(parents=True, exist_ok=True)
    cache_dir = config.cache_dir if use_cache else None

    # only the builtin reads the gazetteer; external-only runs skip the load
    gazetteer = None
    if any(spec.kind == "builtin-baseline" for spec in config.geoparsers):
        gazetteer = load_gazetteer_for_run(config)
        if cache_dir is not None:
            gazetteer.digest()  # the builtin's cache key, computed in set-up rather than in the first evaluation
    boards: dict[str, Leaderboard] = {}
    for source in config.corpora:
        rows = _evaluate_corpus(config, gazetteer, cache_dir, workers, source)
        for identifier, report in rows:
            _dump_json(report.to_dict(), out / "reports" / _report_name(source.name, identifier))
        board = compare(rows, source.completeness)
        boards[source.name] = board
        _dump_json(leaderboard_to_dict(board), out / "leaderboards" / f"{_safe_name(source.name)}.json")
    _dump_json(
        {
            "corpora": [{"name": c.name, "path": c.path, "completeness": c.completeness} for c in config.corpora],
            "gazetteer": {"path": config.gazetteer_path, "schema": config.gazetteer_schema,
                          "fold_diacritics": config.fold_diacritics},
            "geoparsers": [
                {"kind": g.kind, "identifier": g.identifier, "parameters": g.parameters} for g in config.geoparsers
            ],
            "metrics": config.metrics.to_dict(),
            "cache_dir": config.cache_dir,
            "parallelism": workers,
        },
        out / "run_config.json",
    )
    return boards


def load_leaderboards(run_dir: str | Path) -> dict[str, Leaderboard]:
    """Read the leaderboards written by run_benchmark."""
    boards = {}
    board_dir = Path(run_dir) / "leaderboards"
    if not board_dir.is_dir():
        raise RunConfigError(f"{run_dir} has no leaderboards/ directory (not a run directory?)")
    for path in sorted(board_dir.glob("*.json")):
        try:
            board = leaderboard_from_dict(json.loads(path.read_bytes()))
            if not all(isinstance(name, str) for name in (board.corpus, *(row[0] for row in board.rows))):
                raise TypeError("a corpus name or geoparser id is not a string")
            for identifier, report in board.rows:
                for key, name in REPORT_METRICS.items():
                    value = getattr(report, name)
                    if value is not None and not is_json_number(value):
                        raise TypeError(f"geoparser {identifier!r}: {key} must be a number or null, got {value!r}")
        except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
            raise RunConfigError(f"malformed leaderboard {path}: {exc!r}") from None
        boards[board.corpus] = board
    return boards
