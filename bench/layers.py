"""Per-layer metrics and per-layer self time, derived from a trace file.

A trace is what `tracer.py` writes: spans [id, name, start, end, parent,
thread, ok, info] and summed hot calls [name, parent, calls, seconds,
seconds outside nested hot calls, hits].
The layer of a span is the module prefix of its name ("harness.evaluate"
belongs to "harness").
"""

from __future__ import annotations

import math
from collections import defaultdict


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Every per-layer metric of one traced run (0 where the layer did no work)."""
    spans = defaultdict(list)
    for span in trace["spans"]:
        spans[span[1]].append(span)
    hot = defaultdict(lambda: [0, 0.0, 0])
    for name, _parent, calls, seconds, _own, hits in trace["hot"]:
        row = hot[name]
        row[0] += calls
        row[1] += seconds
        row[2] += hits

    def total(name):
        return sum(s[3] - s[2] for s in spans[name])

    ingest_s = total("gazetteer.ingest_gazetteer")
    rows = sum(s[7] or 0 for s in spans["gazetteer.ingest_gazetteer"])
    lookup_calls, lookup_s, lookup_hits = hot["gazetteer.Gazetteer.lookup"]
    recognize_s = total("geoparser.recognize_lexicon")
    tokens = sum(s[7] or 0 for s in spans["geoparser.recognize_lexicon"])
    resolve_calls, resolve_s, _ = hot["geoparser.resolve_population"]

    # A child's first answer waits for the child to start; later ones are round trips.
    child_start_s = 0.0
    first_pending: dict[int, float] = {}
    process_rtt: list[float] = []
    events = sorted(spans["adapters.ProcessGeoparser.__init__"] + spans["adapters.ProcessGeoparser.parse_document"],
                    key=lambda s: s[2])
    for span in events:
        duration = span[3] - span[2]
        if span[1].endswith("__init__"):
            first_pending[span[7]] = duration
        elif span[7] in first_pending:
            child_start_s += first_pending.pop(span[7]) + duration
        else:
            process_rtt.append(duration * 1000)
    http_rtt = [(s[3] - s[2]) * 1000 for s in spans["adapters.HttpGeoparser.parse_document"]]
    adapter_calls = spans["adapters.ProcessGeoparser.parse_document"] + spans["adapters.HttpGeoparser.parse_document"]

    def align(mode):
        picked = [s for s in spans["metrics.align"] if s[7] and s[7][0] == mode]
        return sum(s[3] - s[2] for s in picked), picked

    exact_s, exact = align("exact")
    overlap_s, overlap = align("overlap")
    loads = spans["harness.load_cached"]
    return {
        "corpus.load_s": total("corpus.load_corpus"),
        "gazetteer.ingest_s": ingest_s,
        "gazetteer.ingest_rows_per_s": _rate(rows, ingest_s),
        "gazetteer.load_index_s": total("gazetteer.load_index"),
        "gazetteer.digest_s": total("gazetteer.Gazetteer.digest"),
        "gazetteer.lookup_calls": lookup_calls,
        "gazetteer.lookup_hit_ratio": lookup_hits / lookup_calls if lookup_calls else 0.0,
        "gazetteer.lookups_per_s": _rate(lookup_calls, lookup_s),
        "geoparser.recognize_s": recognize_s,
        "geoparser.tokens_per_s": _rate(tokens, recognize_s),
        "geoparser.lookups_per_token": lookup_calls / tokens if tokens else 0.0,
        "geoparser.resolve_s": resolve_s,
        "geoparser.mentions_per_s": _rate(resolve_calls, resolve_s),
        "geoparser.coerce_s": total("geoparser.coerce_predictions"),
        "adapters.child_start_s": child_start_s,
        "adapters.process_rtt_p50_ms": percentile(process_rtt, 50),
        "adapters.process_rtt_p99_ms": percentile(process_rtt, 99),
        "adapters.http_rtt_p50_ms": percentile(http_rtt, 50),
        "adapters.http_rtt_p99_ms": percentile(http_rtt, 99),
        "adapters.requests": len(adapter_calls),
        "adapters.failed": sum(1 for s in adapter_calls if not s[6]),
        "metrics.align_exact_s": exact_s,
        "metrics.align_exact_pairs_per_s": _rate(sum(s[7][1] for s in exact), exact_s),
        "metrics.align_overlap_s": overlap_s,
        "metrics.align_overlap_spans_per_s": _rate(sum(s[7][2] for s in overlap), overlap_s),
        "metrics.distance_s": total("metrics.distance_errors"),
        "metrics.build_report_s": total("metrics.build_report"),
        "harness.gazetteer_load_s": total("harness.load_gazetteer_for_run"),
        "harness.evaluate_s": total("harness.evaluate"),
        "harness.parse_busy_s": total("geoparser.BuiltinGeoparser.parse_document") + sum(
            s[3] - s[2] for s in adapter_calls),
        "harness.corpus_digest_s": total("harness.corpus_digest"),
        "harness.corpus_digest_calls": len(spans["harness.corpus_digest"]),
        "harness.cache_load_s": total("harness.load_cached"),
        "harness.cache_hits": sum(1 for s in loads if s[7] is True),
        "harness.cache_store_s": total("harness.cache_predictions"),
        "harness.cache_misses": sum(1 for s in loads if s[7] is False),
        "harness.write_s": total("harness._dump_json"),
        "cli.run_s": total("cli.run"),
    }


def self_times(trace: dict) -> dict[str, float]:
    """Seconds each layer spent in its own code, children excluded.

    A span's self time is its duration minus the union of its child spans'
    intervals (clipped to it) and minus the time of the hot calls made in
    it. Worker-thread children can overlap each other, hence the union; a
    hot call nested in another counts once, for its own layer.
    """
    children = defaultdict(list)
    for span in trace["spans"]:
        children[span[4]].append((span[2], span[3]))
    hot_time = defaultdict(float)
    layers: dict[str, float] = defaultdict(float)
    for name, parent, _calls, _seconds, own, _hits in trace["hot"]:
        hot_time[parent] += own
        layers[name.split(".")[0]] += own
    for span in trace["spans"]:
        start, end = span[2], span[3]
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children[span[0]]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        layers[span[1].split(".")[0]] += max(0.0, end - start - covered - hot_time[span[0]])
    return dict(layers)
