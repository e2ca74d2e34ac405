"""Acceptance suite.

Each test prints one pass/fail line (visible with `pytest -s`); run times
for the scale and smoke checks are asserted, not just observed.
"""

import json
import math
import random
import time
import tracemalloc
from contextlib import contextmanager

import pytest

from geobench import (
    GeoparserSpec,
    compare,
    degrade_case,
    evaluate,
    ingest_gazetteer,
    load_index,
    run_benchmark,
    save_index,
)
from geobench.corpus import GeoPoint, GoldToponym
from geobench.gazetteer import Gazetteer, GazetteerEntry, normalize_name
from geobench.geoparser import PredictedToponym, resolve_population
from geobench.harness import CorpusSource, RunConfig
from geobench.metrics import EvalReport, align, auc_distance, build_report, distance_errors, geodesic_distance
from geobench.cli import main as cli_main
from helpers import smoke_corpus_and_gazetteer, write_corpus_files


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


# ---------------------------------------------------------------------------
# 1. metric fuzz against an independent brute-force reference


def ref_haversine(a, b, radius=6371.0088):
    lat1, lat2 = math.radians(a.lat), math.radians(b.lat)
    s = (
        math.sin(math.radians(b.lat - a.lat) / 2) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin(math.radians(b.lon - a.lon) / 2) ** 2
    )
    return radius * 2 * math.atan2(math.sqrt(s), math.sqrt(max(0.0, 1.0 - s)))


def ref_all_metrics(gold, pred):
    """Brute-force reference for all eight metrics, exact span matching."""
    pairs = []
    used = set()
    for i, g in enumerate(gold):
        for j, p in enumerate(pred):
            if j not in used and (p.start, p.end) == (g.start, g.end):
                pairs.append((i, j))
                used.add(j)
                break
    matched = len(pairs)
    precision = matched / len(pred) if pred else 0.0
    recall = matched / len(gold) if gold else 0.0
    f_score = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    accuracy = matched / len(gold) if gold else 0.0
    distances = [
        ref_haversine(gold[i].point, pred[j].point)
        for i, j in pairs
        if pred[j].point is not None and gold[i].point is not None
    ]
    if distances:
        mean = sum(distances) / len(distances)
        ordered = sorted(distances)
        middle = len(ordered) // 2
        med = ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2
        acc161 = sum(1 for d in distances if d <= 161.0) / len(distances)
        auc = sum(math.log(1 + min(d, 20039.0)) for d in distances) / (len(distances) * math.log(1 + 20039.0))
    else:
        mean = med = acc161 = auc = None
    return precision, recall, f_score, accuracy, mean, med, acc161, auc


def random_instance(rng):
    def spans(limit):
        out = set()
        for _ in range(rng.randrange(0, limit + 1)):
            start = rng.randrange(0, 100)
            out.add((start, start + rng.randrange(1, 10)))
        return sorted(out)

    def point():
        return GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180)) if rng.random() < 0.8 else None

    gold = [GoldToponym(s, e, "g", point=point()) for s, e in spans(12)]
    pred = [PredictedToponym(s, e, "g", point=point()) for s, e in spans(12)]
    return gold, pred


def test_metric_fuzz_matches_brute_force_reference():
    with criterion("metric oracle fuzz, 1000 instances, tolerance 1e-9, < 10 s"):
        rng = random.Random(20390)
        started = time.perf_counter()
        for _ in range(1000):
            gold, pred = random_instance(rng)
            matching = align(gold, pred, "exact")
            errors = distance_errors(matching, gold, pred)
            report = build_report(
                gold_count=len(gold),
                pred_count=len(pred),
                matched=len(matching.pairs),
                unresolved_matched=errors.unresolved_matched,
                distances=errors.distances,
            )

            expected = ref_all_metrics(gold, pred)
            got = (
                report.precision, report.recall, report.f_score, report.accuracy,
                report.mean_km, report.median_km, report.acc_at_161, report.auc,
            )
            for ours, reference in zip(got, expected):
                if reference is None:
                    assert ours is None
                else:
                    assert ours == pytest.approx(reference, abs=1e-9)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"fuzz took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. geodesic spot checks


def test_geodesic_known_distances():
    with criterion("geodesic: identical, antipodal, London-Paris"):
        paris = GeoPoint(48.8566, 2.3522)
        assert geodesic_distance(paris, paris) == 0.0

        antipodal = geodesic_distance(GeoPoint(0, 0), GeoPoint(0, 180))
        assert antipodal == pytest.approx(math.pi * 6371.0088, rel=1e-6)

        import mpmath as mp

        mp.mp.dps = 50

        def oracle(lat1, lon1, lat2, lon2):
            rad = mp.pi / 180
            lat1, lon1, lat2, lon2 = (mp.mpf(x) * rad for x in (lat1, lon1, lat2, lon2))
            h = mp.sin((lat2 - lat1) / 2) ** 2 + mp.cos(lat1) * mp.cos(lat2) * mp.sin((lon2 - lon1) / 2) ** 2
            return 2 * mp.mpf("6371.0088") * mp.asin(mp.sqrt(h))

        expected = float(oracle("51.5074", "-0.1278", "48.8566", "2.3522"))
        got = geodesic_distance(GeoPoint(51.5074, -0.1278), paris)
        assert got == pytest.approx(expected, rel=0.005)
        assert got == pytest.approx(343.6, abs=0.1)


# ---------------------------------------------------------------------------
# 3. AUC endpoints and monotonicity


def test_auc_endpoints_and_monotonicity():
    with criterion("AUC: zero and d_max endpoints, 100 monotone perturbations"):
        assert auc_distance([0.0] * 7, 20039.0) == 0.0
        assert auc_distance([20039.0] * 7, 20039.0) == pytest.approx(1.0, abs=1e-12)
        rng = random.Random(161)
        for _ in range(100):
            values = [rng.uniform(0, 20039) for _ in range(rng.randrange(1, 12))]
            bumped = values.copy()
            i = rng.randrange(len(values))
            bumped[i] = min(20039.0, bumped[i] + rng.uniform(0, 4000))
            assert auc_distance(bumped, 20039.0) >= auc_distance(values, 20039.0) - 1e-15


# ---------------------------------------------------------------------------
# 4. population resolver fixture


def resolver_fixture():
    entries = [
        GazetteerEntry(7, "Georgia", (), GeoPoint(42.32, 43.36), population=0),
        GazetteerEntry(42, "Georgia", (), GeoPoint(32.75, -83.5), population=0),
        GazetteerEntry(3, "Springfield", (), GeoPoint(39.8, -89.64), population=116250),
        GazetteerEntry(11, "Springfield", (), GeoPoint(37.21, -93.3), population=169176),
        GazetteerEntry(12, "Springfield", (), GeoPoint(42.1, -72.59), population=155929),
        GazetteerEntry(20, "Arlington", (), GeoPoint(32.74, -97.11), population=398854),
        GazetteerEntry(21, "Arlington", (), GeoPoint(38.88, -77.1), population=398854),
        GazetteerEntry(30, "Reykjavik", (), GeoPoint(64.15, -21.94), population=128793),
        GazetteerEntry(31, "Ulan Bator", ("Ulaanbaatar",), GeoPoint(47.92, 106.92), population=1396288),
        GazetteerEntry(32, "Suva", (), GeoPoint(-18.14, 178.44), population=88271),
    ]
    return Gazetteer.from_entries(entries)


def test_population_resolver_fixture():
    with criterion("resolver: 30 scripted lookups on a 10-entry gazetteer, ties by id"):
        gazetteer = resolver_fixture()
        script = [
            ("Georgia", 7),  # population tie 0 vs 0: smallest id wins
            ("georgia", 7),
            ("GEORGIA", 7),
            ("Springfield", 11),  # strict population argmax
            ("springfield", 11),
            (" Springfield ", 11),
            ("Arlington", 20),  # population tie: smallest id wins
            ("arlington", 20),
            ("ARLINGTON", 20),
            ("Reykjavik", 30),
            ("reykjavik", 30),
            ("Ulan Bator", 31),
            ("Ulaanbaatar", 31),  # alternate name resolves too
            ("ulan  bator", 31),
            ("Suva", 32),
        ]
        script = script * 2  # 30 scripted lookups
        assert len(script) == 30
        hits = sum(resolve_population(name, gazetteer).id == expected for name, expected in script)
        assert hits == 30


# ---------------------------------------------------------------------------
# 5. leaderboard ordering reproduces published score columns


def score_report(identifier, corpus, **metric):
    return EvalReport(
        precision=None, recall=None, f_score=metric.get("f_score"), accuracy=metric.get("accuracy"),
        mean_km=None, median_km=None, acc_at_161=None, auc=None,
        gold=0, predicted=0, matched=0, resolved=0, unresolved_matched=0,
        warnings=[], geoparser=identifier, corpus=corpus,
    )


def test_leaderboard_reproduces_published_orderings():
    with criterion("leaderboard: published F1 and accuracy columns reproduce row order"):
        f_scores = [
            ("DM_NLP+Pop", 0.917),
            ("StanfordNER", 0.915),
            ("UniMelb+Pop", 0.908),
            ("UArizona", 0.873),
            ("CamCoder", 0.866),
            ("TopoCluster", 0.844),
            ("GeoTxt", 0.786),
            ("CLAVIN", 0.750),
            ("DBpedia", 0.693),
            ("Edinburgh", 0.678),
            ("SpaCyNER", 0.499),
        ]
        rows = [(name, score_report(name, "news", f_score=value)) for name, value in f_scores]
        rng = random.Random(2)
        shuffled = rows.copy()
        rng.shuffle(shuffled)
        board = compare(shuffled, "complete")
        assert [identifier for identifier, _ in board.rows] == [name for name, _ in f_scores]

        accuracies = [
            ("GeoTxt", 0.463),
            ("DBpedia", 0.447),
            ("UniMelb+Pop", 0.379),
            ("TopoCluster", 0.158),
            ("DM_NLP+Pop", 0.097),
            ("UArizona", 0.036),
            ("StanfordNER", 0.01),
            ("CamCoder", 0.004),
            ("SpacyNER", 0.004),  # tie with CamCoder: id ascending
            ("CLAVIN", 0.0),
            ("Edinburgh", 0.0),  # tie with CLAVIN: id ascending
        ]
        rows = [(name, score_report(name, "web", accuracy=value)) for name, value in accuracies]
        shuffled = rows.copy()
        rng.shuffle(shuffled)
        board = compare(shuffled, "partial")
        assert board.ordering_key == "accuracy"
        assert [identifier for identifier, _ in board.rows] == [name for name, _ in accuracies]


# ---------------------------------------------------------------------------
# 6 + 7. end-to-end smoke and the case-degradation failure mode


def test_end_to_end_smoke_builtin_baseline():
    with criterion("end-to-end smoke: builtin baseline is perfect on planted corpus, < 5 s"):
        started = time.perf_counter()
        corpus, gazetteer = smoke_corpus_and_gazetteer(20)
        report = evaluate(GeoparserSpec("builtin-baseline", "baseline"), corpus, gazetteer)
        elapsed = time.perf_counter() - started
        assert report.f_score == 1.0
        assert report.mean_km == 0.0
        assert report.median_km == 0.0
        assert report.acc_at_161 == 1.0
        assert report.auc == 0.0
        assert elapsed < 5.0, f"smoke run took {elapsed:.1f}s"


def test_case_degradation_failure_mode():
    with criterion("case degradation: capitalization gate fails caseless text, flag off recovers"):
        corpus, gazetteer = smoke_corpus_and_gazetteer(20)
        degraded = degrade_case(corpus)
        gated = evaluate(GeoparserSpec("builtin-baseline", "gated"), degraded, gazetteer)
        assert gated.recall == 0.0
        ungated = evaluate(
            GeoparserSpec("builtin-baseline", "ungated", {"require_capitalized": False}), degraded, gazetteer
        )
        assert ungated.recall == 1.0


# ---------------------------------------------------------------------------
# 8. scale: million-row gazetteer


def generate_big_table(path, total_rows=1_000_000):
    """Synthetic GeoNames-layout table; returns its own valid-row count."""
    valid = 0
    buffer = []
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(total_rows):
            if i % 997 == 0:
                buffer.append(f"{i}\tBad{i}\t\t\t95.0\t0.0\tP\tPPL\tXX\t\t\t\t\t\t1\t\t\t\t")
            else:
                lat = -89.9 + (i % 1795) * 0.1
                lon = -179.9 + (i % 3595) * 0.1
                alt = f"Alt{i},Shared{i % 5000}" if i % 3 == 0 else ""
                buffer.append(
                    f"{i}\tPlace{i}\t\t{alt}\t{lat:.1f}\t{lon:.1f}\tP\tPPL\tXX\t\t\t\t\t\t{(i * 37) % 1000000}\t\t\t\t"
                )
                valid += 1
            if len(buffer) >= 20000:
                fh.write("\n".join(buffer) + "\n")
                buffer.clear()
        if buffer:
            fh.write("\n".join(buffer) + "\n")
    return valid


def test_million_row_gazetteer_scale(tmp_path):
    with criterion("scale: 1M-row ingest and digest < 60 s, 10k lookups < 1 s, linear-scan oracle on 500 names"):
        table = tmp_path / "big.tsv"
        expected_valid = generate_big_table(table)

        started = time.perf_counter()
        gazetteer, stats = ingest_gazetteer(table)
        gazetteer.digest()  # the cache key: part of what a cold run pays before its first evaluation
        gazetteer.index  # built on first use, so the lookups below time only the lookups
        ingest_seconds = time.perf_counter() - started
        assert ingest_seconds < 60.0, f"ingest, digest and name index took {ingest_seconds:.1f}s"
        assert len(gazetteer) == expected_valid
        assert stats.rows_read == 1_000_000
        assert stats.rows_skipped == 1_000_000 - expected_valid

        rng = random.Random(99)
        queries = [f"place{rng.randrange(1_000_000)}" for _ in range(6000)]
        queries += [f"shared{rng.randrange(5000)}" for _ in range(2000)]
        queries += [f"nosuchplace{i}" for i in range(2000)]
        started = time.perf_counter()
        results = [gazetteer.lookup(q) for q in queries]
        lookup_seconds = time.perf_counter() - started
        assert lookup_seconds < 1.0, f"10k lookups took {lookup_seconds:.2f}s"
        assert any(results)

        # single-pass linear scan over all entries as the oracle
        sampled = rng.sample(queries, 500)
        wanted = {normalize_name(q) for q in sampled}
        scanned = {key: [] for key in wanted}
        for entry in gazetteer.entries.values():
            for name in (entry.primary_name, *entry.alternate_names):
                key = normalize_name(name)
                if key in scanned:
                    scanned[key].append(entry.id)
        for query in sampled:
            expected_ids = sorted(scanned[normalize_name(query)])
            assert [e.id for e in gazetteer.lookup(query)] == expected_ids


def test_ingested_rows_hold_little_memory(tmp_path):
    # a floor, not a target: an ingest builds only the columns, and an ingested row holds about 190 bytes; with
    # the name index built at ingest a row held about 470, and with one GazetteerEntry and one GeoPoint about 640
    with criterion("scale: a 20k-row ingest holds < 300 bytes per row afterwards"):
        table = tmp_path / "table.tsv"
        expected_valid = generate_big_table(table, total_rows=20_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gazetteer, _ = ingest_gazetteer(table)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(gazetteer) == expected_valid
        per_row = held / expected_valid
        assert per_row < 300, f"an ingested row holds {per_row:.0f} bytes"


def test_what_a_builtin_run_holds_of_a_gazetteer_is_little_memory(tmp_path):
    # a floor, not a target: the columns, the lexicon and the head table hold about 420 bytes per row; with the
    # lexicon and the head table derived from a name index, which the gazetteer then also held, about 560
    with criterion("scale: a 20k-row ingest with its lexicon and head table holds < 480 bytes per row"):
        table = tmp_path / "table.tsv"
        expected_valid = generate_big_table(table, total_rows=20_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gazetteer, _ = ingest_gazetteer(table)
            assert gazetteer.lexicon() and gazetteer.head_limits()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(gazetteer) == expected_valid
        per_row = held / expected_valid
        assert per_row < 480, f"a row holds {per_row:.0f} bytes with the lexicon and the head table"


def saved_big_index(directory):
    """A saved index of a 20k-row table; returns (its path, the size of its body in bytes, its place count)."""
    table = directory / "table.tsv"
    places = generate_big_table(table, total_rows=20_000)
    gazetteer, _ = ingest_gazetteer(table)
    path = directory / "big.index"
    save_index(gazetteer, path)
    with open(path, "rb") as fh:
        header = fh.readline()
    return path, path.stat().st_size - len(header), places


def test_loaded_index_holds_none_of_its_body(tmp_path):
    with criterion("scale: a loaded 20k-row index holds < 64 KB until its rows are used"):
        path, body_size, places = saved_big_index(tmp_path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_index(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert body_size > 1_000_000
        assert held < 64 * 1024, f"a loaded index holds {held} bytes"
        assert len(loaded) == places  # the rows are read and parsed on first use


def test_first_use_of_a_loaded_index_streams_its_body(tmp_path):
    # a floor, not a target: streaming the body's lines into the parser peaks about 1.0x the body above what the
    # parse keeps; decoding the whole body and splitting it into a list of lines peaked about 4.1x above it
    with criterion("scale: parsing a loaded 20k-row index peaks < 2x its body above the tables it keeps"):
        path, body_size, places = saved_big_index(tmp_path)
        loaded = load_index(path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            columns = loaded.columns
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(columns) == places
        transient = peak - held
        assert transient < 2 * body_size, f"the parse peaked {transient} bytes above the {held - before} it keeps"


def test_warm_run_over_an_index_peaks_below_its_body(tmp_path):
    with criterion("scale: a primed run over a 20k-row index traces a peak below the index body"):
        path, body_size, _ = saved_big_index(tmp_path)
        corpus, _ = smoke_corpus_and_gazetteer(20, name="demo")
        corpus_path, _ = write_corpus_files(corpus, tmp_path)
        config = RunConfig(
            corpora=(CorpusSource("demo", str(corpus_path)),),
            gazetteer_path=str(path),
            gazetteer_schema="index",
            geoparsers=(GeoparserSpec("builtin-baseline", "builtin"),),
            cache_dir=str(tmp_path / "cache"),
        )
        run_benchmark(config, tmp_path / "cold")
        tracemalloc.start()
        try:
            run_benchmark(config, tmp_path / "warm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = "reports/demo__builtin.json"
        assert (tmp_path / "warm" / report).read_bytes() == (tmp_path / "cold" / report).read_bytes()
        assert peak < body_size, f"a warm run peaked at {peak} bytes; the index body is {body_size}"


# ---------------------------------------------------------------------------
# 9. determinism across worker counts, through the CLI


def test_run_reports_byte_identical_across_workers(tmp_path):
    with criterion("determinism: run with workers=1 and workers=8 is byte-identical"):
        corpus, gazetteer = smoke_corpus_and_gazetteer(16, name="demo")
        corpus_path, manifest_path = write_corpus_files(corpus, tmp_path)
        save_index(gazetteer, tmp_path / "gaz.index")
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps(
                {
                    "corpora": [{"path": corpus_path.name, "manifest": manifest_path.name}],
                    "gazetteer": {"path": "gaz.index", "schema": "index"},
                    "geoparsers": [{"kind": "builtin-baseline", "identifier": "baseline"}],
                }
            ),
            encoding="utf-8",
        )
        first = tmp_path / "run-w1"
        second = tmp_path / "run-w8"
        assert cli_main(["run", "--config", str(config_path), "--out", str(first), "--workers", "1", "--no-cache"]) == 0
        assert cli_main(["run", "--config", str(config_path), "--out", str(second), "--workers", "8", "--no-cache"]) == 0
        report_1 = (first / "reports" / "demo__baseline.json").read_bytes()
        report_8 = (second / "reports" / "demo__baseline.json").read_bytes()
        assert report_1 == report_8
        board_1 = (first / "leaderboards" / "demo.json").read_bytes()
        board_8 = (second / "leaderboards" / "demo.json").read_bytes()
        assert board_1 == board_8
