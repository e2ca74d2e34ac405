"""Command-line interface.

Subcommands: ingest (validate and summarize a corpus), gazetteer (ingest a
place table and save it as an index file; like a run, it builds no name
index), run (evaluate geoparsers per a run-config JSON), report and compare
(render leaderboards from a run directory).

Exit codes: 0 success, 1 usage error, 2 data error, 3 adapter error.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import sys
from dataclasses import asdict, replace

from .adapters import AdapterError
from .corpus import CorpusFormatError, corpus_stats, load_corpus, load_manifest
from .gazetteer import GazetteerError, ingest_gazetteer, save_index
from .harness import (
    RunConfigError,
    load_leaderboards,
    load_run_config,
    render_report,
    run_benchmark,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ADAPTER = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geobench", description="Benchmark geoparsers on annotated corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and summarize a corpus file")
    p.add_argument("--corpus", required=True, help="corpus file (JSON lines)")
    p.add_argument("--manifest", help="manifest JSON with name and completeness")
    p.add_argument("--completeness", choices=["complete", "partial"], default="complete",
                   help="used when no manifest is given")

    p = sub.add_parser("gazetteer", help="ingest a place table and report diagnostics "
                       "(names_indexed counts its lexicon's names; no name index is built)")
    p.add_argument("--input", required=True, help="tab-separated place table")
    p.add_argument("--schema", default="geonames", help="'geonames' or a JSON column-map file")
    p.add_argument("--fold-diacritics", action="store_true", help="index names with diacritics stripped")
    p.add_argument("--out-index", help="save the ingested places to this index file")

    p = sub.add_parser("run", help="evaluate geoparsers per a run-config JSON")
    p.add_argument("--config", required=True, help="RunConfig JSON file")
    p.add_argument("--out", required=True, help="run directory to write")
    p.add_argument("--workers", type=int, help="override the config's parallelism")
    p.add_argument("--match-mode", choices=["exact", "overlap"], help="override span matching mode")
    p.add_argument("--no-cache", action="store_true", help="ignore and do not write the prediction cache")

    p = sub.add_parser("report", help="render leaderboards from a run directory")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--corpus", help="render only this corpus")

    p = sub.add_parser("compare", help="print one corpus leaderboard as text")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(format="text")  # the same as report --format text --corpus
    return parser


def _cmd_ingest(args) -> int:
    if args.manifest:
        manifest = load_manifest(args.manifest)
        name, completeness = manifest["name"], manifest["completeness"]
    else:
        name, completeness = None, args.completeness
    corpus = load_corpus(args.corpus, completeness, name)
    summary = {"name": corpus.name, "completeness": corpus.completeness, **asdict(corpus_stats(corpus)), "valid": True}
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_gazetteer(args) -> int:
    if args.schema == "geonames":
        schema = "geonames"
    else:
        try:
            with open(args.schema, encoding="utf-8") as fh:
                schema = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise GazetteerError(f"cannot read column map {args.schema}: {exc}") from None
    gazetteer, stats = ingest_gazetteer(args.input, schema, args.fold_diacritics)
    if args.out_index:
        save_index(gazetteer, args.out_index)
    print(
        json.dumps(
            {
                "entries": len(gazetteer),
                "names_indexed": len(gazetteer.lexicon()),
                "rows_read": stats.rows_read,
                "rows_skipped": stats.rows_skipped,
                "skip_reasons": stats.skip_reasons,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_run_config(args.config)
    if args.match_mode:
        config = replace(config, metrics=replace(config.metrics, match_mode=args.match_mode))
    run_benchmark(config, args.out, workers=args.workers, use_cache=not args.no_cache)
    print(f"run written to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    boards = load_leaderboards(args.run_dir)
    if args.corpus is not None:
        if args.corpus not in boards:
            raise RunConfigError(f"no leaderboard for corpus {args.corpus!r} in {args.run_dir}")
        boards = {args.corpus: boards[args.corpus]}
    chunks = [render_report(board, args.format) for _, board in sorted(boards.items())]
    out = sys.stdout.buffer
    if args.format == "json" and len(chunks) != 1:
        payload = [json.loads(c) for c in chunks]
        out.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    else:
        # one board per block; use --corpus for a single machine-readable csv
        out.write(b"\n".join(chunks))
    out.flush()
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "gazetteer": _cmd_gazetteer,
    "run": _cmd_run,
    "report": _cmd_report,
    "compare": _cmd_report,
}


def main(argv=None) -> int:
    # run messages (the harness's progress and cache warnings) print bare on stderr
    logging.basicConfig(format="%(message)s", level=logging.INFO)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 1
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # A command builds many long-lived objects and no garbage cycles, so the
    # cyclic collector would only rescan them; the caller gets its setting back.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command](args)
    # every input read raises its own error naming the file, so an OSError here is a failed write
    except (CorpusFormatError, GazetteerError, RunConfigError, ValueError, OSError) as exc:
        print(f"geobench: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AdapterError as exc:
        print(f"geobench: adapter error: {exc}", file=sys.stderr)
        return EXIT_ADAPTER
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
