import gc
import json
import logging
import random
import re
import sys
import threading
import time
import unicodedata

import pytest

from geobench import (
    CorpusFormatError,
    GazetteerError,
    MetricsConfig,
    evaluate,
    ingest_gazetteer,
    load_corpus,
    load_index,
    save_index,
)
from geobench.cli import main
from geobench.corpus import Corpus, Document, GeoPoint
from geobench import gazetteer as gazetteer_module
from geobench.gazetteer import GEONAMES_COLUMNS, Gazetteer, GazetteerEntry, IngestStats, PlaceColumns, normalize_name
from geobench.geoparser import BuiltinGeoparser, GeoparserSpec, create_geoparser, resolve_population
from geobench.harness import CorpusSource, RunConfig, _cache_path, load_cached, run_benchmark
from helpers import geonames_row, smoke_corpus_and_gazetteer, write_corpus_files


def write_index(path, body: bytes) -> None:
    """Write an index file whose header holds the digest of `body`, whatever rows the body holds."""
    h = gazetteer_module._digest_hasher(False)
    h.update(body)
    header = {**gazetteer_module._INDEX_HEADER, "fold_diacritics": False, "digest": h.hexdigest()}
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)


class TestNormalizeName:
    def test_whitespace_collapsed(self):
        assert normalize_name("  New   York ") == "new york"

    def test_casefold(self):
        assert normalize_name("PARIS") == "paris"

    def test_diacritics_folded(self):
        assert normalize_name("São Paulo", fold_diacritics=True) == "sao paulo"

    def test_diacritics_kept_by_default(self):
        assert normalize_name("São Paulo") == "são paulo"

    def test_fold_agrees_with_decomposition_oracle(self):
        # oracle: compatibility-decompose and drop nonspacing marks by category
        def fold_oracle(s):
            folded = " ".join(s.split()).casefold()
            return "".join(c for c in unicodedata.normalize("NFKD", folded) if unicodedata.category(c) != "Mn")

        for name in ["São Paulo", "Córdoba", "Besançon", "Łódź", "Reykjavík", "Zürich", "İstanbul"]:
            assert normalize_name(name, fold_diacritics=True) == fold_oracle(name)

    def test_idempotent_fuzz(self):
        rng = random.Random(7)
        alphabet = "aA éÉ\tßİ ñÑ çÇ  oO東 京"
        for _ in range(300):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
            for fold in (False, True):
                once = normalize_name(s, fold)
                assert normalize_name(once, fold) == once


def three_row_fixture(tmp_path):
    path = tmp_path / "gaz.tsv"
    rows = [
        geonames_row(10, "Paris", 48.8566, 2.3522, population=2140000, country="FR"),
        geonames_row(20, "Paris", 33.6609, -95.5555, population=25000, country="US"),
        geonames_row(30, "Berlin", 52.52, 13.405, population=3645000, country="DE"),
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestIngest:
    def test_three_row_fixture(self, tmp_path):
        gazetteer, stats = ingest_gazetteer(three_row_fixture(tmp_path))
        assert len(gazetteer) == 3
        assert stats.rows_ingested == 3
        assert stats.rows_skipped == 0
        assert [e.id for e in gazetteer.lookup("paris")] == [10, 20]

    def test_out_of_range_lat_skipped(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        rows = [
            geonames_row(1, "Nowhere", 91.0, 0.0),
            geonames_row(2, "Somewhere", 10.0, 10.0),
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        gazetteer, stats = ingest_gazetteer(path)
        assert len(gazetteer) == 1
        assert stats.rows_skipped == 1
        assert stats.skip_reasons == {"coordinate out of range": 1}

    def test_skip_reasons_tallied(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        rows = [
            geonames_row(1, "Good", 1.0, 1.0, population=5),
            "short\trow",
            geonames_row(2, "", 2.0, 2.0),
            geonames_row(3, "BadLat", 1.0, 1.0).replace("1.0", "abc", 1),
            geonames_row(4, "BadPop", 4.0, 4.0, population=7).replace("\t7", "\tx"),
            geonames_row(1, "DupId", 5.0, 5.0),
            geonames_row(6, "NegPop", 6.0, 6.0, population=-3),
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        gazetteer, stats = ingest_gazetteer(path)
        assert len(gazetteer) == 1
        assert stats.rows_read == 7
        assert stats.rows_skipped == 6
        assert stats.skip_reasons == {
            "short row": 1,
            "empty name": 1,
            "bad coordinate": 1,
            "bad population": 2,
            "duplicate id": 1,
        }

    def test_values_beyond_64_bits_skipped(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        rows = [
            geonames_row(2**63, "BigId", 1.0, 1.0),
            geonames_row(-(2**63) - 1, "SmallId", 1.0, 1.0),
            geonames_row(3, "BigPop", 1.0, 1.0, population=2**63),
            geonames_row(2**63 - 1, "Edge", 1.0, 1.0, population=2**63 - 1),
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        gazetteer, stats = ingest_gazetteer(path)
        assert stats.skip_reasons == {"bad id": 2, "bad population": 1}
        assert [(e.id, e.population) for e in gazetteer.lookup("edge")] == [(2**63 - 1, 2**63 - 1)]

    def test_alternates_indexed(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text(geonames_row(7, "New York City", 40.7, -74.0, alternates="New York,NYC") + "\n")
        gazetteer, _ = ingest_gazetteer(path)
        assert [e.id for e in gazetteer.lookup("nyc")] == [7]
        assert [e.id for e in gazetteer.lookup("new york")] == [7]

    def test_empty_population_is_zero(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text(geonames_row(7, "Tinytown", 1.0, 1.0).replace("\t0", "\t") + "\n")
        gazetteer, stats = ingest_gazetteer(path)
        assert stats.rows_skipped == 0
        assert gazetteer.entries[7].population == 0

    def test_custom_column_map(self, tmp_path):
        path = tmp_path / "places.tsv"
        path.write_text("Lima\t-12.05\t-77.04\t100\t9\nCusco\t-13.53\t-71.97\t50\t11\n", encoding="utf-8")
        schema = {"name": 0, "lat": 1, "lon": 2, "population": 3, "id": 4}
        gazetteer, stats = ingest_gazetteer(path, schema)
        assert stats.rows_ingested == 2
        assert gazetteer.lookup("lima")[0].population == 100

    def test_last_column_read_ends_the_line(self, tmp_path):
        path = tmp_path / "places.tsv"
        path.write_text("9\tLima\t-12.05\t-77.04\t\n11\tCusco\t-13.53\t-71.97\t50\n", encoding="utf-8")
        schema = {"id": 0, "name": 1, "lat": 2, "lon": 3, "population": 4}
        gazetteer, stats = ingest_gazetteer(path, schema)
        assert stats.rows_skipped == 0
        assert [gazetteer.entries[i].population for i in (9, 11)] == [0, 50]

    def test_schema_missing_key_rejected(self, tmp_path):
        with pytest.raises(GazetteerError, match="missing required key"):
            ingest_gazetteer(three_row_fixture(tmp_path), {"name": 0, "lat": 1, "lon": 2})

    @pytest.mark.parametrize(
        "schema, message",
        [
            ({"id": False, "name": True, "lat": 4, "lon": 5}, "entry 'id' must be a non-negative integer, got False"),
            ({"id": 0, "name": 1, "lat": 4.0, "lon": 5}, "entry 'lat' must be a non-negative integer, got 4.0"),
            ({"id": 0, "name": 1, "lat": 4, "lon": -5}, "entry 'lon' must be a non-negative integer, got -5"),
            ({"id": 0, "name": 1, "lat": 4, "lon": 5, "populaton": 14}, "unknown key 'populaton'"),
        ],
        ids=["bools", "float", "negative", "unknown-key"],
    )
    def test_schema_refused(self, tmp_path, schema, message):
        with pytest.raises(GazetteerError, match=re.escape(message)):
            ingest_gazetteer(three_row_fixture(tmp_path), schema)

    def test_zero_valid_rows(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text(geonames_row(1, "Nowhere", 91.0, 0.0) + "\n", encoding="utf-8")
        with pytest.raises(GazetteerError, match="no valid rows"):
            ingest_gazetteer(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(GazetteerError, match="cannot read"):
            ingest_gazetteer(tmp_path / "missing.tsv")

    def test_bytes_that_are_not_utf8_are_refused_naming_the_file(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_bytes(geonames_row(1, "Paris", 48.85, 2.35).encode() + b"\n" + b"2\t\xff\n")
        with pytest.raises(GazetteerError, match=re.escape(f"{path}: malformed gazetteer rows: 'utf-8' codec")):
            ingest_gazetteer(path)

    def test_fold_diacritics_flag(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text(geonames_row(1, "São Paulo", -23.55, -46.63) + "\n", encoding="utf-8")
        plain, _ = ingest_gazetteer(path)
        folded, _ = ingest_gazetteer(path, fold_diacritics=True)
        assert plain.lookup("sao paulo") == []
        assert [e.id for e in folded.lookup("sao paulo")] == [1]


def keyed_rows(ascending: bool) -> list[str]:
    """Eleven rows: four valid ones, one per skip reason, a repeated id, and alternates padded with spaces.

    With `ascending`, the valid rows come in id order (the repeated id still
    comes after a higher one); otherwise they do not.
    """
    zurich = geonames_row(30, "Zürich", 47.3769, 8.5417, 402762, " Zuerich , Zurich ,, ", country="CH")
    sao_paulo = geonames_row(10, "São Paulo", -23.5505, -46.6333, 12325232, "Sao Paulo,  Sampa", country="BR")
    paris = geonames_row(20, "Paris", 48.8566, 2.3522, 2138551, "  Paname ", feature_code="PPLC", country="FR")
    osaka = geonames_row(5, "Ōsaka", 34.6937, 135.5023, 2691185, " Osaka ", "A", "ADM2", "JP")
    skipped = [
        "short\trow",
        geonames_row(99, "BadId", 1.0, 1.0).replace("99", "9x9", 1),
        geonames_row(40, "", 2.0, 2.0),
        geonames_row(41, "BadLat", 3.0, 3.0).replace("3.0", "abc", 1),
        geonames_row(42, "Nowhere", 91.0, 0.0),
        geonames_row(43, "BadPop", 4.0, 4.0, population=7).replace("\t7", "\tx"),
    ]
    repeated = geonames_row(10, "Duplicate", 5.0, 5.0)
    if ascending:
        return [osaka, sao_paulo, *skipped, paris, zurich, repeated]
    return [zurich, sao_paulo, skipped[0], paris, *skipped[1:], repeated, osaka]


def write_rows(path, rows):
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


# Computed from keyed_rows(False). The builtin's prediction-cache file names hash the digest, so these values
# must never change. The names also hash geoparser.BUILTIN_VERSION, and move only when it is bumped.
KEYED_DIGESTS = {
    False: "5f8fc0cda02327e9e32f67220da96f9f550502e458d265950d9a579ba1e22e91",
    True: "efcbac066285383248058d3cc517f6570ca7930223ad3383841859bf5471036e",
}
KEYED_CACHE_NAMES = {
    False: ["builtin__fixture__a7c520e8847540a5.jsonl", "builtin-stop__fixture__c9c07f067428b43f.jsonl"],
    True: ["builtin__fixture__3c3d70741346ae65.jsonl", "builtin-stop__fixture__20912544b14f461e.jsonl"],
}


class TestDigest:
    @pytest.mark.parametrize("ascending", [False, True], ids=["unsorted", "ascending"])
    @pytest.mark.parametrize("fold", [False, True], ids=["plain", "folded"])
    def test_pinned_digest_and_cache_names(self, tmp_path, fold, ascending):
        gazetteer, stats = ingest_gazetteer(write_rows(tmp_path / "gaz.tsv", keyed_rows(ascending)), fold_diacritics=fold)
        assert sorted(gazetteer.entries) == [5, 10, 20, 30]
        assert stats.skip_reasons == {
            "short row": 1,
            "bad id": 1,
            "empty name": 1,
            "bad coordinate": 1,
            "coordinate out of range": 1,
            "bad population": 1,
            "duplicate id": 1,
        }
        assert gazetteer.entries[30].alternate_names == ("Zuerich", "Zurich")
        assert gazetteer.digest() == KEYED_DIGESTS[fold]
        specs = [
            GeoparserSpec("builtin-baseline", "builtin"),
            GeoparserSpec("builtin-baseline", "builtin-stop", {"extra_stopwords": ["Zürich"]}),
        ]
        names = [_cache_path(tmp_path, spec, "fixture", "0" * 64, gazetteer).name for spec in specs]
        assert names == KEYED_CACHE_NAMES[fold]

    @pytest.mark.parametrize("ascending", [False, True], ids=["unsorted", "ascending"])
    @pytest.mark.parametrize("fold", [False, True], ids=["plain", "folded"])
    def test_ingested_rendered_and_saved_digests_agree(self, tmp_path, fold, ascending):
        tsv = write_rows(tmp_path / "gaz.tsv", keyed_rows(ascending))
        ingested, _ = ingest_gazetteer(tsv, fold_diacritics=fold)
        rendered = Gazetteer.from_entries(ingested.entries.values(), fold)
        save_index(ingested, tmp_path / "gaz.index")
        header = json.loads((tmp_path / "gaz.index").read_bytes().split(b"\n", 1)[0])
        assert ingested.digest() == rendered.digest() == header["digest"] == load_index(tmp_path / "gaz.index").digest()
        assert ingested.index == rendered.index

    @pytest.mark.parametrize("use_cache", [True, False], ids=["cached", "no-cache"])
    def test_a_run_digests_a_tsv_gazetteer_in_set_up_and_only_with_a_cache(self, tmp_path, monkeypatch, caplog, use_cache):
        # A benchmark's documents per second count from the first "evaluating" line, so hashing the gazetteer
        # after it would be charged to the evaluations.
        corpus_path, _ = write_corpus_files(Corpus("c", (Document("d", "From Paris to Zürich", ()),)), tmp_path)
        config = RunConfig(
            corpora=(CorpusSource("c", str(corpus_path)),),
            gazetteer_path=str(write_rows(tmp_path / "gaz.tsv", keyed_rows(ascending=True))),
            geoparsers=(
                GeoparserSpec("builtin-baseline", "b"),
                GeoparserSpec("builtin-baseline", "no-caps", {"require_capitalized": False}),
            ),
            cache_dir=str(tmp_path / "cache"),
        )
        calls = []  # per call: whether it renders the rows, and the "evaluating" lines logged before it
        real_digest = Gazetteer.digest

        def digest(gazetteer):
            logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("evaluating ")]
            calls.append((gazetteer._digest is None, logged))
            return real_digest(gazetteer)

        monkeypatch.setattr(Gazetteer, "digest", digest)
        caplog.set_level(logging.INFO, logger="geobench.harness")
        run_benchmark(config, tmp_path / "run", use_cache=use_cache)
        assert [r.getMessage() for r in caplog.records] == ["evaluating b on c", "evaluating no-caps on c"]
        if use_cache:
            assert calls[0] == (True, [])
            assert not any(renders for renders, _ in calls[1:])
        else:
            assert calls == []

    def test_unsorted_ingest_keeps_posting_lists_ascending(self, tmp_path):
        rows = [geonames_row(i, "Springfield", 1.0, 1.0, alternates="Shelbyville") for i in (9, 3, 7, 1)]
        gazetteer, _ = ingest_gazetteer(write_rows(tmp_path / "gaz.tsv", rows))
        assert sorted(gazetteer.index) == ["shelbyville", "springfield"]
        for name in ("Springfield", "Shelbyville"):
            assert [e.id for e in gazetteer.lookup(name)] == [1, 3, 7, 9]


class TestLookup:
    def test_absent_name_empty(self):
        gazetteer = Gazetteer.from_entries([GazetteerEntry(1, "Berlin", (), GeoPoint(52.52, 13.405))])
        assert gazetteer.lookup("Atlantis") == []

    def test_lookup_normalizes_queries(self):
        gazetteer = Gazetteer.from_entries([GazetteerEntry(1, "New York", (), GeoPoint(40.7, -74.0))])
        for query in ["new york", " NEW   YORK ", "New York"]:
            assert gazetteer.lookup(query) == gazetteer.lookup(normalize_name(query))


def random_gazetteer(rng, size):
    syllables = ["ka", "ri", "mo", "ta", "lu", "ve", "zo", "nim", "bar", "sul"]

    def make_name():
        return " ".join(
            "".join(rng.choice(syllables) for _ in range(rng.randrange(1, 3))).title()
            for _ in range(rng.randrange(1, 3))
        )

    entries = []
    for i in range(size):
        alternates = tuple(make_name() for _ in range(rng.randrange(0, 3)))
        entries.append(
            GazetteerEntry(
                id=i + 1,
                primary_name=make_name(),
                alternate_names=alternates,
                point=GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180)),
                population=rng.randrange(0, 10_000_000),
            )
        )
    return entries, Gazetteer.from_entries(entries)


class TestProperties:
    def test_index_completeness(self):
        rng = random.Random(11)
        entries, gazetteer = random_gazetteer(rng, 400)
        for entry in entries:
            for name in (entry.primary_name, *entry.alternate_names):
                assert entry.id in [e.id for e in gazetteer.lookup(name)]

    def test_lookup_equals_linear_scan(self):
        # oracle: scan all entries with the same normalized-name predicate
        rng = random.Random(13)
        entries, gazetteer = random_gazetteer(rng, 10_000)
        all_names = [n for e in entries for n in (e.primary_name, *e.alternate_names)]
        queries = rng.sample(all_names, 400) + ["Atlantis", "zz top", ""] + [rng.choice(all_names).upper() for _ in range(97)]
        assert len(queries) == 500
        for query in queries:
            key = normalize_name(query)
            expected = sorted(
                e.id for e in entries if any(normalize_name(n) == key for n in (e.primary_name, *e.alternate_names))
            )
            assert [e.id for e in gazetteer.lookup(query)] == expected

    def test_posting_lists_ascending(self):
        rng = random.Random(17)
        entries, _ = random_gazetteer(rng, 500)
        rng.shuffle(entries)  # rows out of id order
        gazetteer = Gazetteer.from_entries(entries)
        for key in gazetteer.index:
            ids = [e.id for e in gazetteer.lookup(key)]
            assert ids == sorted(set(ids))


class TestFromEntries:
    def test_duplicate_id_rejected(self):
        e = GazetteerEntry(1, "A", (), GeoPoint(0, 0))
        with pytest.raises(GazetteerError, match="duplicate entry id"):
            Gazetteer.from_entries([e, e])

    def test_empty_primary_rejected(self):
        with pytest.raises(GazetteerError, match="empty primary name"):
            Gazetteer.from_entries([GazetteerEntry(1, "", (), GeoPoint(0, 0))])

    def test_invalid_point_rejected(self):
        with pytest.raises(GazetteerError, match="coordinate out of range"):
            Gazetteer.from_entries([GazetteerEntry(1, "A", (), GeoPoint(95, 0))])

    def test_negative_population_rejected(self):
        with pytest.raises(GazetteerError, match="negative population"):
            Gazetteer.from_entries([GazetteerEntry(1, "A", (), GeoPoint(0, 0), population=-1)])

    @pytest.mark.parametrize(
        "entry",
        [
            GazetteerEntry(2**63, "A", (), GeoPoint(0, 0)),
            GazetteerEntry(1, "A", (), GeoPoint(0, 0), population=2**63),
            GazetteerEntry(1, "A", (), GeoPoint(0, 0), population=1.5),
            GazetteerEntry(1.0, "A", (), GeoPoint(0, 0)),
        ],
        ids=["id", "population", "float-population", "float-id"],
    )
    def test_values_not_64_bit_integers_rejected(self, entry):
        with pytest.raises(GazetteerError, match="not an integer within 64 bits"):
            Gazetteer.from_entries([entry])


class TestIndexFile:
    def test_save_load_round_trip(self, tmp_path):
        rng = random.Random(19)
        _, gazetteer = random_gazetteer(rng, 50)
        path = tmp_path / "gaz.index"
        save_index(gazetteer, path)
        reloaded = load_index(path)
        assert reloaded.entries == gazetteer.entries
        assert reloaded.index == gazetteer.index
        assert reloaded.digest() == gazetteer.digest()

    def test_load_rejects_non_index(self, tmp_path):
        path = tmp_path / "bogus"
        path.write_text('{"something": "else"}\n', encoding="utf-8")
        with pytest.raises(GazetteerError, match="not a saved gazetteer index"):
            load_index(path)

    def test_round_trip_keeps_fold_flag(self, tmp_path):
        entries = [GazetteerEntry(1, "São Paulo", ("Sampa",), GeoPoint(-23.55, -46.63), "P", "PPLA", 12_000_000, "BR")]
        gazetteer = Gazetteer.from_entries(entries, fold_diacritics=True)
        path = tmp_path / "gaz.index"
        save_index(gazetteer, path)
        reloaded = load_index(path)
        assert reloaded.fold_diacritics
        assert reloaded.entries == gazetteer.entries
        assert reloaded.index == gazetteer.index
        assert reloaded.digest() == gazetteer.digest()
        assert [e.id for e in reloaded.lookup("sao paulo")] == [1]

    @pytest.mark.parametrize(
        "entry",
        [
            GazetteerEntry(42, "Springfield", ("Spring,field",), GeoPoint(0, 0)),
            GazetteerEntry(42, "Spring\tfield", (), GeoPoint(0, 0)),
            GazetteerEntry(42, " Springfield", (), GeoPoint(0, 0)),
        ],
        ids=["comma-in-alternate", "tab-in-name", "surrounding-whitespace"],
    )
    def test_save_rejects_entry_that_does_not_read_back(self, tmp_path, entry):
        gazetteer = Gazetteer.from_entries([GazetteerEntry(1, "Shelbyville", (), GeoPoint(0, 0)), entry])
        with pytest.raises(GazetteerError, match="entry 42"):
            save_index(gazetteer, tmp_path / "gaz.index")
        assert not (tmp_path / "gaz.index").exists()  # no truncated index that would load

    def test_load_rejects_old_json_lines_index(self, tmp_path):
        path = tmp_path / "old.index"
        path.write_text(
            '{"format": "geobench-index", "fold_diacritics": false}\n'
            '{"alternates": [], "country": "", "feature_class": "", "feature_code": "", '
            '"id": 1, "lat": 0.0, "lon": 0.0, "name": "A", "population": 0}\n',
            encoding="utf-8",
        )
        with pytest.raises(GazetteerError, match="rebuild it with `geobench gazetteer --out-index`"):
            load_index(path)

    def test_load_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "gaz.index"
        save_index(Gazetteer.from_entries([GazetteerEntry(1, "A", (), GeoPoint(0, 0))]), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(geonames_row(2, "B", 95.0, 0.0) + "\n")
        with pytest.raises(GazetteerError, match="malformed index rows"):
            load_index(path)

    def test_index_body_repeating_an_id_is_refused_when_parsed(self, tmp_path):
        path = tmp_path / "gaz.index"
        write_index(path, b"1\tA\t\t0.0\t0.0\t\t\t0\t\n1\tB\t\t1.0\t1.0\t\t\t0\t\n")  # two digest rows with id 1
        loaded = load_index(path)
        with pytest.raises(GazetteerError, match="1 malformed index rows {'duplicate id': 1}"):
            loaded.entries

    def test_index_body_that_is_not_utf8_is_refused_naming_the_file(self, tmp_path):
        path = tmp_path / "gaz.index"
        write_index(path, b"1\tA\t\t0.0\t0.0\t\t\t0\t\n2\t\xff\t\t1.0\t1.0\t\t\t0\t\n")
        loaded = load_index(path)
        with pytest.raises(GazetteerError, match=re.escape(f"{path}: malformed index rows: 'utf-8' codec")):
            loaded.entries

    def test_load_rejects_altered_body(self, tmp_path):
        path = tmp_path / "gaz.index"
        entries = [GazetteerEntry(1, "Alpha", (), GeoPoint(12.5, 3.25)), GazetteerEntry(2, "Beta", (), GeoPoint(-45.75, 100.0))]
        save_index(Gazetteer.from_entries(entries), path)
        saved = path.read_bytes()
        assert saved.count(b"\t-45.75\t") == 1
        path.write_bytes(saved.replace(b"\t-45.75\t", b"\t-45.76\t"))
        with pytest.raises(GazetteerError):
            load_index(path)

    def test_load_rejects_index_with_no_entries(self, tmp_path):
        header = {**gazetteer_module._INDEX_HEADER, "fold_diacritics": False}
        header["digest"] = gazetteer_module._digest_hasher(False).hexdigest()  # the digest of an empty body
        path = tmp_path / "gaz.index"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n")
        with pytest.raises(GazetteerError, match="no entries in index file"):
            load_index(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(GazetteerError, match="cannot read index file"):
            load_index(tmp_path / "missing.index")

    @pytest.mark.parametrize("rewrite", ["other-gazetteer", "same-header"])
    def test_index_rewritten_after_load_is_refused_when_parsed(self, tmp_path, monkeypatch, rewrite):
        path = tmp_path / "gaz.index"
        first = Gazetteer.from_entries([GazetteerEntry(1, "Alpha", (), GeoPoint(12.5, 3.25))])
        save_index(first, path)
        loaded = load_index(path)
        if rewrite == "other-gazetteer":
            save_index(Gazetteer.from_entries([GazetteerEntry(2, "Beta", (), GeoPoint(1.0, 2.0))]), path)
        else:  # a body edited under the header the load checked
            path.write_bytes(path.read_bytes().replace(b"\tAlpha\t", b"\tAlphb\t"))
        parses = []
        real_rows = gazetteer_module._read_rows

        def counting_rows(*args, **kwargs):
            parses.append(1)
            return real_rows(*args, **kwargs)

        monkeypatch.setattr(gazetteer_module, "_read_rows", counting_rows)
        with pytest.raises(GazetteerError, match=re.escape(f"{path}: the index file changed after it was loaded")):
            loaded.lexicon()
        assert parses == []  # no columns were built from the new body
        assert loaded.digest() == first.digest()

    def test_load_rejects_geonames_rows_index(self, tmp_path):
        path = tmp_path / "old.index"
        path.write_text(
            '{"format": "geobench-index", "layout": "geonames-rows", "fold_diacritics": false}\n'
            + geonames_row(1, "A", 0.0, 0.0)
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(GazetteerError, match="rebuild it with `geobench gazetteer --out-index`"):
            load_index(path)

    def test_names_with_unicode_line_breaks_round_trip(self, tmp_path):
        entries = [
            GazetteerEntry(1, "Upper\u2028Town", ("Nel\x85Ville",), GeoPoint(1.5, 2.5)),
            GazetteerEntry(2, "File\x1cSep", ("Para\u2029Graph",), GeoPoint(-3.5, 4.5)),
        ]
        gazetteer = Gazetteer.from_entries(entries)
        path = tmp_path / "gaz.index"
        save_index(gazetteer, path)
        reloaded = load_index(path)
        assert reloaded.entries == gazetteer.entries
        assert reloaded.index == gazetteer.index
        assert reloaded.digest() == gazetteer.digest()

    def test_load_parses_no_row(self, tmp_path, monkeypatch):
        tsv = three_row_fixture(tmp_path)
        ingested, _ = ingest_gazetteer(tsv)
        save_index(ingested, tmp_path / "gaz.index")

        def refuse(*args, **kwargs):
            raise AssertionError("row parsed while loading")

        monkeypatch.setattr(gazetteer_module, "_read_rows", refuse)
        loaded = load_index(tmp_path / "gaz.index")
        assert loaded.digest() == ingested.digest()

    def test_concurrent_first_use_parses_rows_once(self, tmp_path, monkeypatch):
        entries, built = random_gazetteer(random.Random(29), 2000)
        path = tmp_path / "gaz.index"
        save_index(built, path)
        loaded = load_index(path)
        parses = []
        real_rows = gazetteer_module._read_rows

        def counting_rows(*args, **kwargs):
            parses.append(1)
            return real_rows(*args, **kwargs)

        monkeypatch.setattr(gazetteer_module, "_read_rows", counting_rows)
        name = entries[7].primary_name
        touches = [loaded.lexicon, lambda: loaded.entries, lambda: loaded.lookup(name)]
        expected = [built.lexicon(), built.entries, built.lookup(name)]
        barrier = threading.Barrier(8)
        results = [None] * 8

        def first_touch(i):
            barrier.wait(timeout=30)
            results[i] = touches[i % 3]()

        threads = [threading.Thread(target=first_touch, args=(i,), daemon=True) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(parses) == 1
        assert results == [expected[i % 3] for i in range(8)]
        assert [touch() for touch in touches] == expected
        assert len(parses) == 1  # later uses read the parsed rows, not the file


class TestBuildCost:
    def test_low_cardinality_fields_interned(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        rows = [
            geonames_row(1, "Alpha", 1.0, 1.0, feature_class="A", feature_code="ADM2H", country="ZZ"),
            geonames_row(2, "Beta", 2.0, 2.0, feature_class="A", feature_code="ADM2H", country="ZZ"),
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        gazetteer, _ = ingest_gazetteer(path)
        a, b = gazetteer.entries[1], gazetteer.entries[2]
        assert a.feature_code is b.feature_code
        assert a.country is b.country

    @pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("valid", [True, False], ids=["loads", "raises"])
    def test_gc_state_restored(self, tmp_path, caller_enabled, valid):
        # each bulk load leaves the collector on or off, and nothing frozen, as its caller had it
        corpus, gazetteer = smoke_corpus_and_gazetteer(3)
        corpus_path, _ = write_corpus_files(corpus, tmp_path)
        evaluate(GeoparserSpec("builtin-baseline", "baseline"), corpus, gazetteer, cache_dir=tmp_path / "cache")
        cache_file = next((tmp_path / "cache").glob("*.jsonl"))
        tsv = tmp_path / "gaz.tsv"
        tsv.write_text(geonames_row(1, "Nowhere", 45.0 if valid else 91.0, 0.0) + "\n", encoding="utf-8")
        index = tmp_path / "gaz.index"
        write_index(index, f"1\tA\t\t{0.0 if valid else 95.0}\t0.0\t\t\t0\t\n".encode())
        if not valid:  # the last line of each file fails to decode
            for path in (corpus_path, cache_file):
                lines = path.read_text(encoding="utf-8").splitlines()
                path.write_text("\n".join(lines[:-1] + ["{broken"]) + "\n", encoding="utf-8")
        was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        try:
            (gc.enable if caller_enabled else gc.disable)()
            for load, error in (
                (lambda: load_corpus(corpus_path), CorpusFormatError),
                (lambda: load_cached(corpus, cache_file, MetricsConfig()), None),  # a corrupt entry is a miss
                (lambda: ingest_gazetteer(tsv), GazetteerError),
                (lambda: load_index(index).columns, GazetteerError),  # the first use parses the body
            ):
                if valid or error is None:
                    assert (load() is not None) is valid
                else:
                    with pytest.raises(error):
                        load()
                assert gc.isenabled() is caller_enabled
                assert gc.get_freeze_count() == frozen
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_lookup_leaves_the_collector_to_its_caller(self, monkeypatch):
        # a thread inside lookup must not undo another thread's gc.disable()
        gazetteer = Gazetteer.from_entries([GazetteerEntry(1, "A", (), GeoPoint(0, 0))])
        entered, release = threading.Event(), threading.Event()
        real_entries = PlaceColumns.entries

        def held_entries(columns, rows):
            entered.set()
            release.wait(30)
            return real_entries(columns, rows)

        monkeypatch.setattr(PlaceColumns, "entries", held_entries)
        found = []
        thread = threading.Thread(target=lambda: found.extend(gazetteer.lookup("A")), daemon=True)
        was_enabled = gc.isenabled()
        try:
            gc.enable()
            thread.start()
            assert entered.wait(30)
            gc.disable()
            release.set()
            thread.join(30)
            assert gc.isenabled() is False
        finally:
            release.set()
            (gc.enable if was_enabled else gc.disable)()
        assert not thread.is_alive()
        assert [entry.id for entry in found] == [1]

    def test_a_builtin_run_over_an_ingested_table_builds_no_entry(self, tmp_path, monkeypatch):
        built = []
        real_init = GazetteerEntry.__init__

        def counting_init(entry, entry_id, *args, **kwargs):
            built.append(entry_id)
            real_init(entry, entry_id, *args, **kwargs)

        # the constructor is the only way an entry is made, the columns' builder included
        monkeypatch.setattr(GazetteerEntry, "__init__", counting_init)
        gazetteer, _ = ingest_gazetteer(write_rows(tmp_path / "gaz.tsv", keyed_rows(ascending=False)))
        assert gazetteer.digest() == KEYED_DIGESTS[False]
        assert gazetteer.lexicon() and gazetteer.lexicon(primary_only=True) and gazetteer.head_limits()
        documents = [Document("a", "From Paris to Zürich and Ōsaka.", ()), Document("b", "Sampa, then Paname.", ())]
        predicted = []
        for parameters in ({}, {"primary_names_only": True}):
            parser = create_geoparser(GeoparserSpec("builtin-baseline", "b", parameters), gazetteer)
            predicted.append([p.entry_id for document in documents for p in parser.parse_document(document)[0]])
        assert predicted == [[20, 30, 5, 10, 20], [20, 30, 5]]
        assert built == []
        assert [e.id for e in gazetteer.lookup("Paris")] == [20]
        assert GazetteerEntry(1, "A", (), GeoPoint(0, 0)).id == 1
        assert built == [20, 1]  # the wrapper sees the entries that are built

    def test_loading_derives_no_lexicon(self, tmp_path, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("derived table built while loading")

        monkeypatch.setattr(Gazetteer, "_resolve_names", refuse)
        monkeypatch.setattr(Gazetteer, "_head_limits", refuse)
        gazetteer, _ = ingest_gazetteer(three_row_fixture(tmp_path))
        save_index(gazetteer, tmp_path / "gaz.index")
        load_index(tmp_path / "gaz.index")

    def test_no_run_path_builds_the_name_index(self, tmp_path, monkeypatch, capsys):
        # only `lookup` and `index` read the posting lists
        tsv = write_rows(tmp_path / "gaz.tsv", keyed_rows(ascending=False))
        documents = (Document("a", "From Paris to Zürich and Ōsaka.", ()), Document("b", "Sampa, then Paname.", ()))
        corpus_path, _ = write_corpus_files(Corpus("c", documents), tmp_path)
        real_name_index = gazetteer_module._name_index

        def refuse(*args):
            raise AssertionError("name index built")

        monkeypatch.setattr(gazetteer_module, "_name_index", refuse)
        index = tmp_path / "gaz.index"
        assert main(["gazetteer", "--input", str(tsv), "--out-index", str(index)]) == 0
        names_indexed = json.loads(capsys.readouterr().out)["names_indexed"]
        reports = []
        for path, schema in ((tsv, "geonames"), (index, "index")):
            config = RunConfig(
                corpora=(CorpusSource("c", str(corpus_path)),),
                gazetteer_path=str(path),
                gazetteer_schema=schema,
                geoparsers=(
                    GeoparserSpec("builtin-baseline", "b"),
                    GeoparserSpec("builtin-baseline", "p", {"primary_names_only": True}),
                ),
                cache_dir=str(tmp_path / f"cache-{schema}"),
            )
            run_benchmark(config, tmp_path / schema)
            reports.append([(tmp_path / schema / "reports" / f"c__{g}.json").read_bytes() for g in ("b", "p")])
        assert reports[0] == reports[1]
        assert [json.loads(r)["counts"]["predicted"] for r in reports[0]] == [5, 3]

        monkeypatch.setattr(gazetteer_module, "_name_index", real_name_index)
        gazetteer, _ = ingest_gazetteer(tsv)
        assert "index" not in gazetteer._derived
        places = gazetteer.entries.values()
        for query in ["Sampa", " zurich", "PARIS", "Ōsaka", "Atlantis"]:
            key = normalize_name(query)
            scanned = sorted(e.id for e in places if key in map(normalize_name, (e.primary_name, *e.alternate_names)))
            assert [e.id for e in gazetteer.lookup(query)] == scanned
        assert "index" in gazetteer._derived  # the first lookup built it
        assert names_indexed == len(gazetteer.index) == len(gazetteer.lexicon()) == 10


def reference_read_rows(lines, cols, stats):
    """`_read_rows` with the duplicate-id rule applied through a set from the first row: the reference."""
    columns, seen = PlaceColumns(), set()
    for line in lines:
        row_stats = IngestStats()
        parsed = gazetteer_module._read_rows([line], cols, row_stats)  # one row: it cannot repeat an id
        stats.rows_read += 1
        if row_stats.rows_skipped:
            (reason,) = row_stats.skip_reasons
            stats.skip(reason)
        elif parsed.ids[0] in seen:
            stats.skip("duplicate id")
        else:
            seen.add(parsed.ids[0])
            columns.append(*parsed.fields(0))
    return columns


def id_table(rng):
    """Ids that ascend, then may stop ascending part-way, with repeats before and after the break."""
    ids = sorted(rng.sample(range(-20, 60), rng.randrange(0, 14)))
    for _ in range(rng.randrange(0, 5)):
        position = rng.randrange(len(ids) + 1)
        repeat = rng.random() < 0.6 and ids[:position]
        ids.insert(position, rng.choice(ids[:position]) if repeat else rng.randrange(-25, 65))
    return ids


class TestDuplicateIds:
    @pytest.mark.parametrize(
        "rows",
        [
            [(1, True), (2, True), (3, True)],
            [(1, True), (1, True), (2, True)],  # a repeat while ascending
            [(5, True), (3, True), (5, True), (3, True), (4, True)],  # repeats after the break
            [(1, True), (2, False), (2, True), (2, True)],  # an invalid row's id reused by a valid row
            [(3, True), (1, False), (2, True), (1, True), (2, True)],  # the same after the break
            [(-(2**63), True), (-(2**63), True), (2**63 - 1, True), (2**63 - 1, True)],
        ],
        ids=["ascending", "repeat-before-break", "repeats-after-break", "invalid-then-reused",
             "invalid-then-reused-after-break", "int64-ends"],
    )
    def test_examples(self, rows):
        self.check(rows)

    def test_against_a_set_based_reader(self):
        rng = random.Random(31)
        for _ in range(500):
            self.check([(entry_id, rng.random() < 0.8) for entry_id in id_table(rng)])

    @staticmethod
    def check(rows):
        # an invalid row has an out-of-range latitude; the names tell apart rows that share an id
        lines = [geonames_row(i, f"Place{n}", 1.0 if valid else 91.0, 2.0) + "\n" for n, (i, valid) in enumerate(rows)]
        got_stats, want_stats = IngestStats(), IngestStats()
        got = gazetteer_module._read_rows(lines, GEONAMES_COLUMNS, got_stats)
        want = reference_read_rows(lines, GEONAMES_COLUMNS, want_stats)
        assert [got.fields(r) for r in range(len(got))] == [want.fields(r) for r in range(len(want))], rows
        assert got_stats == want_stats, rows


class TestLexicon:
    def test_resolves_like_population_rule(self):
        _, gazetteer = random_gazetteer(random.Random(23), 200)
        lexicon = gazetteer.lexicon()
        assert lexicon.keys() == gazetteer.index.keys()
        for key, row in lexicon.items():
            candidates = gazetteer.lookup(key)
            best = max(e.population for e in candidates)
            expected = min((e for e in candidates if e.population == best), key=lambda e: e.id)
            assert gazetteer.columns.entries([row]) == [expected]

    def test_primary_only_keeps_primary_names(self):
        entries = [
            GazetteerEntry(1, "Paris", ("Paname",), GeoPoint(48.86, 2.35), population=2_000_000),
            GazetteerEntry(2, "Lutetia", ("Paris",), GeoPoint(48.85, 2.34), population=9_000_000),
        ]
        gazetteer = Gazetteer.from_entries(entries)
        ids = gazetteer.columns.ids
        assert ids[gazetteer.lexicon()["paris"]] == 2
        assert ids[gazetteer.lexicon(primary_only=True)["paris"]] == 1
        assert "paname" not in gazetteer.lexicon(primary_only=True)
        assert gazetteer.lexicon() is gazetteer.lexicon()

    def test_ties_on_an_unsorted_table_resolve_to_the_smallest_id(self, tmp_path):
        # ids descend, so the first row of each tie is its largest id
        rows = [
            geonames_row(40, "Springfield", 40.0, -40.0, population=500, alternates="Ogdenville"),
            geonames_row(30, "Springfield", 30.0, -30.0, population=500, alternates="Ogdenville"),
            geonames_row(20, "Springfield", 20.0, -20.0, population=100, alternates="Ogdenville"),
            geonames_row(30, "Springfield", 35.0, -35.0, population=900),  # repeats id 30: skipped
            geonames_row(10, "Shelbyville", 10.0, -10.0, population=500),
        ]
        gazetteer, stats = ingest_gazetteer(write_rows(tmp_path / "gaz.tsv", rows))
        assert stats.skip_reasons == {"duplicate id": 1}
        for name, primary_only in [("Springfield", False), ("Springfield", True), ("Ogdenville", False)]:
            assert resolve_population(name, gazetteer, primary_only).id == 30
            assert gazetteer.columns.ids[gazetteer.lexicon(primary_only)[normalize_name(name)]] == 30
        predictions, _ = BuiltinGeoparser(gazetteer).parse_document(Document("d", "Springfield or Ogdenville?", ()))
        assert [(p.name, p.entry_id, p.point) for p in predictions] == [
            ("Springfield", 30, GeoPoint(30.0, -30.0)),
            ("Ogdenville", 30, GeoPoint(30.0, -30.0)),
        ]
        by_id = sorted(rows, key=lambda row: int(row.split("\t", 1)[0]))  # stable: the first id 30 stays first
        assert gazetteer.digest() == ingest_gazetteer(write_rows(tmp_path / "sorted.tsv", by_id))[0].digest()

    def test_head_limits(self):
        entries = [
            GazetteerEntry(1, "New York City", ("New York",), GeoPoint(40.71, -74.0)),
            GazetteerEntry(2, "Newark", (), GeoPoint(40.74, -74.17)),
            GazetteerEntry(3, "'s-Hertogenbosch", (), GeoPoint(51.69, 5.3)),
        ]
        heads = Gazetteer.from_entries(entries).head_limits()
        assert heads == {"new": len("new york city"), "newark": len("newark")}
