"""Evaluation runs: orchestration, prediction and score caches, leaderboards, rendering.

evaluate() runs one geoparser over one corpus and micro-averages the
results into an EvalReport; run_benchmark() drives a whole RunConfig and
writes reports and per-corpus leaderboards to a run directory. Reports are
deterministic: documents are dispatched to workers in any order but merged
and aggregated in document-id order, so worker count never changes output
bytes.
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
from io import StringIO
from pathlib import Path

from .adapters import AdapterError, AdapterProtocolError, parse_response
from .corpus import (
    Corpus,
    CorpusFormatError,
    document_to_json_line,
    gc_paused,
    is_json_int,
    is_json_number,
    load_corpus,
    load_manifest,
)
from .gazetteer import Gazetteer, GazetteerError, _check_schema, ingest_gazetteer, load_index
from .geoparser import GeoparserSpec, PredictedToponym, RecognizerConfig, create_geoparser
from .metrics import (
    REPORT_METRICS,
    SCORING_VERSION,
    EvalReport,
    MetricsConfig,
    align,
    build_report,
    distance_errors,
    warn_missing_gold,
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
_DIGEST_LINE = re.compile(rb"[0-9a-f]{64}\n")


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
    except json.JSONDecodeError as exc:
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


def _remembered_digest(entry: Path) -> str | None:
    """The corpus_digest remembered in <cache_dir>/corpora/<sha256 of the corpus file's bytes>, or None.

    The digest renders every document again, so it is remembered and
    computed only for file bytes not seen before. An entry that holds no
    digest is logged and counts as not remembered.
    """
    try:
        remembered = entry.read_bytes()
    except OSError:
        return None  # not remembered yet; if it cannot be written either, that is logged by _remember_digest
    if _DIGEST_LINE.fullmatch(remembered):
        return remembered[:-1].decode("ascii")
    log.warning("corpus key %s corrupt; recomputing", entry.name)
    return None


def _remember_digest(entry: Path, digest: str) -> None:
    try:
        _write_atomically(entry, [digest + "\n"])
    except OSError as exc:
        log.warning("corpus key %s not written (%s)", entry.name, exc)


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name) or "_"


def _report_name(corpus_name: str, identifier: str) -> str:
    return f"{_safe_name(corpus_name)}__{_safe_name(identifier)}.json"


def _cache_path(
    cache_dir, spec: GeoparserSpec, corpus_name: str, corpus_hash: str, gazetteer: Gazetteer | None
) -> Path:
    # keyed on everything predictions depend on: the spec, the corpus and (builtin only) the gazetteer
    h = hashlib.sha256()
    h.update(json.dumps([spec.kind, spec.parameters], sort_keys=True).encode())
    h.update(corpus_hash.encode())
    if spec.kind == "builtin-baseline" and gazetteer is not None:
        h.update(gazetteer.digest().encode())
        # Stopwords are normalized with the gazetteer's fold flag. A spec whose stoplist folding changes gets a key
        # of its own, so that no entry written while its stopwords went unfolded is read as its predictions.
        if gazetteer.fold_diacritics:
            stoplists = {RecognizerConfig.from_parameters(spec.parameters or {}, f).stoplist for f in (True, False)}
            if len(stoplists) > 1:
                h.update(b"folded stopwords")
    return Path(cache_dir) / f"{_safe_name(spec.identifier)}__{_safe_name(corpus_name)}__{h.hexdigest()[:16]}.jsonl"


def _score_path(prediction_path: Path, config: MetricsConfig, completeness: str) -> Path:
    # a report depends on the scoring code, its predictions, the metrics config and (through precision) the corpus
    # completeness
    key = json.dumps([SCORING_VERSION, prediction_path.name, config.to_dict(), completeness], sort_keys=True)
    return prediction_path.parent / "scores" / hashlib.sha256(key.encode()).hexdigest()


def _load_score(path: Path, identifier: str, corpus_name: str) -> EvalReport | None:
    """The report stored at `path`, or None on a miss or a corrupt entry (logged).

    An entry is used only if it reads back as exactly the report it holds
    and names this geoparser and corpus: a prediction-cache file name, and
    so a score key, is shared by names that differ only in what _safe_name
    replaces.
    """
    try:
        raw = json.loads(path.read_bytes())
        report = EvalReport.from_dict(raw)
        if report.to_dict() != raw:
            raise ValueError("not a report as geobench writes it")
        if (report.geoparser, report.corpus) != (identifier, corpus_name):
            raise ValueError(f"the report of {report.geoparser!r} on {report.corpus!r}")
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, AttributeError, TypeError, ValueError) as exc:
        log.warning("score entry %s corrupt (%s); recomputing", path.name, exc)
        return None
    return report


def _prediction_to_wire(p: PredictedToponym) -> dict:
    out: dict = {"start": p.start, "end": p.end, "name": p.name}
    if p.point is not None:
        out["lat"] = p.point.lat
        out["lon"] = p.point.lon
    if p.entry_id is not None:
        out["entry_id"] = p.entry_id
    return out


def cache_predictions(corpus: Corpus, predictions: dict[str, list[PredictedToponym]], path: Path) -> None:
    """Store per-document predictions at `path` (a _cache_path) in adapter-response format, atomically."""
    lines = (
        json.dumps(
            {"id": doc.id, "toponyms": [_prediction_to_wire(p) for p in predictions[doc.id]]},
            ensure_ascii=False,
            sort_keys=True,
        )
        + "\n"
        for doc in corpus.documents
    )
    _write_atomically(path, lines)


def _write_atomically(path: Path, lines) -> None:
    """Write the lines to a temporary file beside `path`, then move it into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_cached(corpus: Corpus, path: Path) -> dict[str, list[PredictedToponym]] | None:
    """Reload the predictions cached at `path` (a _cache_path), or None on a miss or a corrupt entry.

    The file holds one adapter response per document, in corpus order, and
    is read through the adapters' decoder, with the cyclic GC held off. A
    line count or id that does not match the corpus, or any dropped
    prediction, makes the entry corrupt: that is logged and the predictions
    are recomputed.
    """
    if not path.exists():
        return None
    loaded: dict[str, list[PredictedToponym]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
        if len(lines) != len(corpus.documents):
            raise ValueError(f"{len(lines)} lines for {len(corpus.documents)} documents")
        with gc_paused():
            for doc, line in zip(corpus.documents, lines):
                predictions, dropped = parse_response(doc, line)
                if dropped:
                    raise ValueError(f"{dropped} invalid predictions for {doc.id!r}")
                loaded[doc.id] = predictions
    except (OSError, ValueError, AdapterProtocolError) as exc:
        log.warning("cache entry %s corrupt (%s); recomputing", path.name, exc)
        return None
    return loaded


# ---------------------------------------------------------------------------
# Evaluation


def _parse_all(spec, corpus, gazetteer, workers):
    """Parse every document; returns {doc_id: (preds, dropped, error_msg)}.

    Each worker thread lazily creates its own geoparser instance, so
    external-process adapters never share a child across threads. The
    builtin is CPU-bound Python, which threads only slow down, so it always
    parses on the calling thread.
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
            return doc.id, (predictions, dropped, None)
        except AdapterError as exc:
            return doc.id, ([], 0, str(exc))

    try:
        if workers <= 1 or spec.kind == "builtin-baseline":
            results = dict(work(doc) for doc in corpus.documents)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = dict(pool.map(work, corpus.documents))
    finally:
        for parser in instances:
            parser.close()
    return results


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
    """Run one geoparser over one corpus and score it.

    Counts are pooled over documents (micro-averaging) in document-id
    order. Documents whose adapter call failed score as zero predictions
    and are listed in the report warnings; if more than 10% fail the run
    aborts with an AdapterError. `corpus_hash` is the corpus's
    `corpus_digest`, for callers that evaluate one corpus several times.
    With a `cache_dir`, the report is also stored as a score entry whenever
    its predictions are in the prediction cache: read from it, or stored in
    it after a warning-free parse.
    """
    config = config or MetricsConfig()
    warnings: list[str] = []

    predictions = cache_path = None
    if cache_dir is not None:
        cache_path = _cache_path(cache_dir, spec, corpus.name, corpus_hash or corpus_digest(corpus), gazetteer)
        predictions = load_cached(corpus, cache_path)
    cached = predictions is not None
    if predictions is None:
        results = _parse_all(spec, corpus, gazetteer, workers)
        failed = sorted(doc_id for doc_id, (_, _, err) in results.items() if err is not None)
        if corpus.documents and len(failed) > FAILURE_ABORT_FRACTION * len(corpus.documents):
            first = next(err for _, (_, _, err) in sorted(results.items()) if err is not None)
            raise AdapterError(
                f"geoparser {spec.identifier!r} failed on {len(failed)}/{len(corpus.documents)} documents "
                f"of corpus {corpus.name!r} (first error: {first})"
            )
        if failed:
            shown = ", ".join(failed[:10]) + (", ..." if len(failed) > 10 else "")
            warnings.append(f"{len(failed)} documents failed and scored zero predictions: {shown}")
        dropped_total = sum(dropped for _, dropped, _ in results.values())
        if dropped_total:
            warnings.append(f"{dropped_total} invalid predictions dropped")
        predictions = {doc_id: preds for doc_id, (preds, _, _) in results.items()}
        if cache_dir is not None and not warnings:  # so that a hit reproduces this report
            try:
                cache_predictions(corpus, predictions, cache_path)
                cached = True
            except OSError as exc:
                log.warning("cache entry %s not written (%s)", cache_path.name, exc)

    gold_total = pred_total = matched_total = unresolved_total = missing_gold_total = 0
    pooled_distances: list[float] = []
    for doc in sorted(corpus.documents, key=lambda d: d.id):
        preds = predictions[doc.id]
        matching = align(doc.gold, preds, config.match_mode)
        gold_total += len(doc.gold)
        pred_total += len(preds)
        matched_total += len(matching.pairs)
        errors = distance_errors(matching, doc.gold, preds, config.earth_radius_km)
        unresolved_total += errors.unresolved_matched
        missing_gold_total += errors.missing_gold_points
        pooled_distances.extend(errors.distances)
    warn_missing_gold(missing_gold_total, warnings)

    report = build_report(
        gold_count=gold_total,
        pred_count=pred_total,
        matched=matched_total,
        unresolved_matched=unresolved_total,
        distances=pooled_distances,
        config=config,
        completeness=corpus.completeness,
        warnings=warnings,
        geoparser=spec.identifier,
        corpus=corpus.name,
    )
    if cached:  # not beside a parse that failed or dropped predictions, so never a report that one timeout made
        score_path = _score_path(cache_path, config, corpus.completeness)
        try:
            _write_atomically(score_path, [json.dumps(report.to_dict(), sort_keys=True) + "\n"])
        except OSError as exc:
            log.warning("score entry %s not written (%s)", score_path.name, exc)
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


def _evaluate_corpus(
    config: RunConfig, gazetteer: Gazetteer | None, cache_dir: str | None, workers: int, source: CorpusSource
) -> list[tuple[str, EvalReport]]:
    """Evaluate every geoparser on one corpus, in config order.

    With a cache, the corpus file is read once and its bytes hashed. If their
    corpus key is remembered, each geoparser whose score entry is usable gets
    its report from that entry, and the corpus is parsed from the same bytes
    only when some geoparser misses.
    """
    corpus = corpus_hash = None
    reports = [None] * len(config.geoparsers)
    if cache_dir is None:
        corpus = load_corpus(source.path, source.completeness, source.name)
    else:
        try:
            data = Path(source.path).read_bytes()
        except OSError as exc:
            raise CorpusFormatError(f"cannot read corpus file {source.path}: {exc}") from exc
        key = Path(cache_dir) / "corpora" / hashlib.sha256(data).hexdigest()
        corpus_hash = _remembered_digest(key)
        if corpus_hash is not None:
            for i, spec in enumerate(config.geoparsers):
                predictions = _cache_path(cache_dir, spec, source.name, corpus_hash, gazetteer)
                score = _score_path(predictions, config.metrics, source.completeness)
                reports[i] = _load_score(score, spec.identifier, source.name)
        if None in reports:
            corpus = load_corpus(source.path, source.completeness, source.name, data=data)
        del data  # so that the file's bytes do not add to the evaluations' peak memory
    rows = []
    for spec, report in zip(config.geoparsers, reports):
        log.info("evaluating %s on %s", spec.identifier, source.name)  # after the corpus load, if there is one
        if report is None:
            if cache_dir is not None and corpus_hash is None:  # once per corpus, as part of its first evaluation
                corpus_hash = corpus_digest(corpus)
                _remember_digest(key, corpus_hash)
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
