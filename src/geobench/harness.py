"""Evaluation runs: orchestration, prediction cache, leaderboards, rendering.

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
import os
import re
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from io import StringIO
from pathlib import Path

from .adapters import AdapterError
from .corpus import Corpus, document_to_json_line, load_corpus, load_manifest
from .gazetteer import Gazetteer, ingest_gazetteer, load_index
from .geoparser import GeoparserSpec, PredictedToponym, coerce_predictions, create_geoparser
from .metrics import EvalReport, MetricsConfig, align, build_report, distance_errors, warn_missing_gold

# Text/CSV column order for rendered leaderboards.
METRIC_COLUMNS = ("precision", "recall", "f_score", "accuracy", "mean", "median", "auc", "acc_at_161")

# More than this fraction of documents failing aborts the run; at or below
# it, failed documents score as zero predictions and are listed in warnings.
FAILURE_ABORT_FRACTION = 0.10


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
        if self.parallelism < 1:
            raise RunConfigError("parallelism must be >= 1")


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

    try:
        corpora = []
        for item in raw.get("corpora", []):
            if "manifest" in item:
                manifest = load_manifest(_resolve(item["manifest"]))
                name = item.get("name", manifest["name"])
                completeness = manifest["completeness"]
            else:
                name = item["name"]
                completeness = item.get("completeness", "complete")
            corpora.append(CorpusSource(name=name, path=_resolve(item["path"]), completeness=completeness))
        gaz = raw.get("gazetteer", {})
        geoparsers = tuple(
            GeoparserSpec(
                kind=item["kind"],
                identifier=item["identifier"],
                parameters=item.get("parameters", {}),
            )
            for item in raw.get("geoparsers", [])
        )
        metrics = MetricsConfig(**raw.get("metrics", {}))
        cache_dir = raw.get("cache_dir")
        return RunConfig(
            corpora=tuple(corpora),
            gazetteer_path=_resolve(gaz["path"]),
            gazetteer_schema=gaz.get("schema", "geonames"),
            fold_diacritics=bool(gaz.get("fold_diacritics", False)),
            geoparsers=geoparsers,
            metrics=metrics,
            cache_dir=_resolve(cache_dir) if cache_dir else None,
            parallelism=int(raw.get("parallelism", 1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RunConfigError(f"invalid run config {path}: {exc}") from None


def load_gazetteer_for_run(config: RunConfig) -> Gazetteer:
    if config.gazetteer_schema == "index":
        return load_index(config.gazetteer_path)
    gazetteer, _ = ingest_gazetteer(config.gazetteer_path, config.gazetteer_schema, config.fold_diacritics)
    return gazetteer


# ---------------------------------------------------------------------------
# Prediction cache


def corpus_digest(corpus: Corpus) -> str:
    h = hashlib.sha256()
    for doc in corpus.documents:
        h.update(document_to_json_line(doc).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name) or "_"


def _cache_path(
    cache_dir, spec: GeoparserSpec, corpus: Corpus, gazetteer: Gazetteer | None, corpus_hash: str | None = None
) -> Path:
    # keyed on everything predictions depend on: the spec, the corpus and (builtin only) the gazetteer
    h = hashlib.sha256()
    h.update(json.dumps([spec.kind, spec.parameters], sort_keys=True).encode())
    h.update((corpus_hash or corpus_digest(corpus)).encode())
    if spec.kind == "builtin-baseline" and gazetteer is not None:
        h.update(gazetteer.digest().encode())
    return Path(cache_dir) / f"{_safe_name(spec.identifier)}__{_safe_name(corpus.name)}__{h.hexdigest()[:16]}.jsonl"


def _prediction_to_wire(p: PredictedToponym) -> dict:
    out: dict = {"start": p.start, "end": p.end, "name": p.name}
    if p.point is not None:
        out["lat"] = p.point.lat
        out["lon"] = p.point.lon
    if p.entry_id is not None:
        out["entry_id"] = p.entry_id
    return out


def cache_predictions(
    spec: GeoparserSpec,
    corpus: Corpus,
    predictions: dict[str, list[PredictedToponym]],
    cache_dir: str | Path,
    gazetteer: Gazetteer | None = None,
    *,
    path: Path | None = None,
) -> Path:
    """Store per-document predictions in adapter-response format, atomically (at `path` if given)."""
    path = path or _cache_path(cache_dir, spec, corpus, gazetteer)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for doc in corpus.documents:
                line = json.dumps(
                    {"id": doc.id, "toponyms": [_prediction_to_wire(p) for p in predictions[doc.id]]},
                    ensure_ascii=False,
                    sort_keys=True,
                )
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_cached(
    spec: GeoparserSpec,
    corpus: Corpus,
    cache_dir: str | Path,
    gazetteer: Gazetteer | None = None,
    warnings: list[str] | None = None,
    *,
    path: Path | None = None,
) -> dict[str, list[PredictedToponym]] | None:
    """Reload cached predictions (from `path` if given), or None on a miss or a corrupt entry."""
    path = path or _cache_path(cache_dir, spec, corpus, gazetteer)
    if not path.exists():
        return None
    texts = {doc.id: doc.text for doc in corpus.documents}
    loaded: dict[str, list[PredictedToponym]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                doc_id = record["id"]
                if doc_id not in texts or doc_id in loaded:
                    raise ValueError(f"unexpected document id {doc_id!r}")
                predictions, dropped = coerce_predictions(texts[doc_id], record["toponyms"])
                if dropped:
                    raise ValueError(f"{dropped} invalid predictions for {doc_id!r}")
                loaded[doc_id] = predictions
    except (OSError, ValueError, KeyError, TypeError) as exc:
        if warnings is not None:
            warnings.append(f"cache entry {path.name} corrupt ({exc}); recomputing")
        return None
    if set(loaded) != set(texts):
        if warnings is not None:
            warnings.append(f"cache entry {path.name} incomplete; recomputing")
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
    """
    config = config or MetricsConfig()
    warnings: list[str] = []

    predictions = cache_path = None
    if cache_dir is not None:
        cache_path = _cache_path(cache_dir, spec, corpus, gazetteer, corpus_hash)
        predictions = load_cached(spec, corpus, cache_dir, gazetteer, warnings, path=cache_path)
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
        if cache_dir is not None and not failed:
            cache_predictions(spec, corpus, predictions, cache_dir, gazetteer, path=cache_path)

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

    return build_report(
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


def _metric_value(report: EvalReport, column: str):
    return {"mean": report.mean_km, "median": report.median_km}.get(column, getattr(report, column, None))


def _format_cell(value, blank: str) -> str:
    return blank if value is None else f"{value:.3f}"


def render_report(board: Leaderboard, format: str = "text-table") -> bytes:
    """Render a leaderboard as a text table, CSV, or JSON byte stream.

    Ratios and kilometer values are printed with 3 decimal places;
    suppressed or absent metrics render as "-" (text), an empty cell
    (CSV), or null (JSON).
    """
    if format in ("text-table", "text"):
        header = ["geoparser", *METRIC_COLUMNS]
        lines = [header]
        for identifier, report in board.rows:
            lines.append([identifier, *(_format_cell(_metric_value(report, c), "-") for c in METRIC_COLUMNS)])
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
        for identifier, report in board.rows:
            writer.writerow([identifier, *(_format_cell(_metric_value(report, c), "") for c in METRIC_COLUMNS)])
        return out.getvalue().encode("utf-8")
    if format == "json":
        rows = []
        for identifier, report in board.rows:
            row = {"geoparser": identifier}
            for column in METRIC_COLUMNS:
                value = _metric_value(report, column)
                row[column] = None if value is None else round(value, 3)
            rows.append(row)
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


def run_benchmark(
    config: RunConfig,
    out_dir: str | Path,
    *,
    workers: int | None = None,
    use_cache: bool = True,
    progress=None,
) -> dict[str, Leaderboard]:
    """Evaluate every (geoparser, corpus) pair and write a run directory.

    Produces reports/<corpus>__<geoparser>.json, one leaderboard per
    corpus under leaderboards/, and an echo of the effective run config.
    Output bytes are independent of the worker count.
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
        corpus = load_corpus(source.path, source.completeness, source.name)
        corpus_hash = None
        rows = []
        for spec in config.geoparsers:
            if progress:
                progress(f"evaluating {spec.identifier} on {source.name}")
            if cache_dir is not None and corpus_hash is None:
                corpus_hash = corpus_digest(corpus)  # once per corpus, as part of its first evaluation
            report = evaluate(
                spec, corpus, gazetteer, config.metrics, cache_dir=cache_dir, workers=workers, corpus_hash=corpus_hash
            )
            _dump_json(report.to_dict(), out / "reports" / f"{_safe_name(source.name)}__{_safe_name(spec.identifier)}.json")
            rows.append((spec.identifier, report))
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
        with open(path, encoding="utf-8") as fh:
            board = leaderboard_from_dict(json.load(fh))
        boards[board.corpus] = board
    return boards
