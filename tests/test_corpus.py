import gc
import hashlib
import json
import re
import threading

import pytest

from geobench import CorpusFormatError, degrade_case, load_corpus
from geobench import corpus as corpus_module
from geobench.corpus import Corpus, Document, GeoPoint, GoldToponym, corpus_stats, hash_file, load_manifest
from helpers import save_corpus, write_corpus_files

CHUNK = 1 << 18  # hashlib.file_digest reads this many bytes at a time

def write_lines(path, records):
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n", encoding="utf-8")


BERLIN_DOC = {
    "id": "d1",
    "text": "Berlin is cold.",
    "toponyms": [{"start": 0, "end": 6, "name": "Berlin", "lat": 52.52, "lon": 13.405}],
}


class TestLoad:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [BERLIN_DOC])
        corpus = load_corpus(path, "complete", "mini")
        assert corpus.name == "mini"
        assert len(corpus.documents) == 1
        doc = corpus.documents[0]
        assert len(doc.gold) == 1
        assert doc.gold[0].name == "Berlin"
        assert doc.gold[0].point == GeoPoint(52.52, 13.405)
        assert doc.source == "mini"

    def test_surface_form_mismatch(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = dict(BERLIN_DOC, toponyms=[{"start": 0, "end": 6, "name": "Munich"}])
        write_lines(path, [record])
        with pytest.raises(CorpusFormatError, match="mismatch.*d1"):
            load_corpus(path)

    def test_offset_out_of_bounds(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = dict(BERLIN_DOC, toponyms=[{"start": 0, "end": 99, "name": "Berlin"}])
        write_lines(path, [record])
        with pytest.raises(CorpusFormatError, match="out of bounds"):
            load_corpus(path)

    def test_coordinate_out_of_range(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = dict(BERLIN_DOC, toponyms=[{"start": 0, "end": 6, "name": "Berlin", "lat": 91.0, "lon": 0.0}])
        write_lines(path, [record])
        with pytest.raises(CorpusFormatError, match="coordinate out of range"):
            load_corpus(path)

    @pytest.mark.parametrize("coordinate", ["lat", "lon"])
    def test_integer_coordinate_beyond_float_is_a_format_error(self, tmp_path, coordinate):

        path = tmp_path / "c.jsonl"
        toponym = {"start": 0, "end": 6, "name": "Berlin", "lat": 52, "lon": 13}
        toponym[coordinate] = 10**400  # a 401-digit JSON integer
        write_lines(path, [dict(BERLIN_DOC, toponyms=[toponym])])
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}:1: document 'd1': coordinate out of range")):
            load_corpus(path)

    def test_malformed_json_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(BERLIN_DOC) + "\n{oops\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":2:"):
            load_corpus(path)

    def test_bytes_that_are_not_utf8_are_a_format_error_naming_the_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(json.dumps(BERLIN_DOC).encode() + b'\n{"id": "d2", "text": "\xff"}\n')
        message = f"{path}: not UTF-8: 'utf-8' codec can't decode byte 0xff"
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            load_corpus(path)

    def test_one_sided_coordinates_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = dict(BERLIN_DOC, toponyms=[{"start": 0, "end": 6, "name": "Berlin", "lat": 52.52}])
        write_lines(path, [record])
        with pytest.raises(CorpusFormatError, match="only one of lat/lon"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "toponym, message",
        [
            ({"start": False, "end": True, "name": "B"}, "wrong types"),
            ({"start": 0, "end": 6, "name": "Berlin", "lat": True, "lon": False}, "non-numeric coordinates"),
        ],
        ids=["bool-offsets", "bool-coordinates"],
    )
    def test_bools_are_not_numbers(self, tmp_path, toponym, message):
        path = tmp_path / "c.jsonl"
        write_lines(path, [dict(BERLIN_DOC, toponyms=[toponym])])
        with pytest.raises(CorpusFormatError, match=message):
            load_corpus(path)

    def test_duplicate_document_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [BERLIN_DOC, BERLIN_DOC])
        with pytest.raises(CorpusFormatError, match="duplicate document id"):
            load_corpus(path)

    def test_empty_document_id_names_its_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [BERLIN_DOC, dict(BERLIN_DOC, id="")])
        with pytest.raises(CorpusFormatError, match=r"c\.jsonl:2: empty document id"):
            load_corpus(path)

    def test_spans_sorted_on_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {
            "id": "d1",
            "text": "From Paris to Berlin.",
            "toponyms": [
                {"start": 14, "end": 20, "name": "Berlin"},
                {"start": 5, "end": 10, "name": "Paris"},
            ],
        }
        write_lines(path, [record])
        corpus = load_corpus(path)
        assert [t.name for t in corpus.documents[0].gold] == ["Paris", "Berlin"]

    @pytest.mark.parametrize(
        "records, completeness, message",
        [
            (
                [{"id": "d1", "text": "short", "toponyms": [{"start": 0, "end": 99, "name": "short"}]}],
                "complete",
                "{path}:1: span (0, 99) out of bounds for text of length 5 (document 'd1')",
            ),
            (
                [dict(BERLIN_DOC, toponyms=[{"start": 0, "end": 6, "name": "Berlin"}] * 2)],
                "complete",
                "{path}:1: duplicate span (0, 6) (document 'd1')",
            ),
            (  # the gold is sorted first, so twins apart in the file still meet
                [dict(BERLIN_DOC, toponyms=[{"start": 0, "end": 6, "name": "Berlin"},
                                            {"start": 10, "end": 14, "name": "cold"},
                                            {"start": 0, "end": 6, "name": "Berlin"}])],
                "complete",
                "{path}:1: duplicate span (0, 6) (document 'd1')",
            ),
            (
                [dict(BERLIN_DOC, toponyms=[{"start": 0, "end": 6, "name": "Munich"}])],
                "complete",
                "{path}:1: span (0, 6) surface form mismatch: annotated 'Munich', text has 'Berlin' (document 'd1')",
            ),
            (  # the first rule broken is the one named
                [dict(BERLIN_DOC, toponyms=[{"start": 0, "end": 6, "name": "Munich", "kind": "mountain"}])],
                "complete",
                "{path}:1: span (0, 6) surface form mismatch: annotated 'Munich', text has 'Berlin' (document 'd1')",
            ),
            (
                [dict(BERLIN_DOC, toponyms=[{"start": 0, "end": 6, "name": "Berlin", "lat": 12, "lon": 999}])],
                "complete",
                "{path}:1: coordinate out of range at span (0, 6): GeoPoint(lat=12.0, lon=999.0) (document 'd1')",
            ),
            (
                [dict(BERLIN_DOC, toponyms=[{"start": 0, "end": 6, "name": "Berlin", "kind": "mountain"}])],
                "complete",
                "{path}:1: unknown toponym kind 'mountain' at span (0, 6) (document 'd1')",
            ),
            ([BERLIN_DOC, BERLIN_DOC], "complete", "{path}:2: duplicate document id (document 'd1')"),
            ([BERLIN_DOC, dict(BERLIN_DOC, id="")], "complete", "{path}:2: empty document id (document '')"),
            ([BERLIN_DOC], "sorta", "completeness must be one of ('complete', 'partial'), got 'sorta'"),
        ],
        ids=[
            "span-out-of-bounds", "duplicate-span", "duplicate-span-apart", "surface-form-mismatch",
            "first-rule-wins", "coordinate-out-of-range", "unknown-kind", "duplicate-document-id",
            "empty-document-id", "bad-completeness",
        ],
    )
    def test_each_rule_refuses_the_corpus_with_its_message(self, tmp_path, records, completeness, message):
        path = tmp_path / "c.jsonl"
        write_lines(path, records)
        with pytest.raises(CorpusFormatError) as caught:
            load_corpus(path, completeness)
        assert str(caught.value) == message.format(path=path)

    @pytest.mark.parametrize(
        "record",
        [
            '{"id": "d2", "text": "hi \\ud800"}',
            '{"id": "d2", "text": "hi \\uDFFF"}',
            '{"id": "d2", "text": "hi", "toponyms": [{"start": 0, "end": 2, "name": "hi", "gazetteer_id": "\\udc00"}]}',
        ],
        ids=["high", "low-upper-case-hex", "gazetteer-id"],
    )
    def test_lone_surrogate_escape_is_refused_naming_line_and_document(self, tmp_path, record):
        # UTF-8 refuses a literal surrogate, but a JSON escape of one decodes to a string no file or hash can encode
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d1", "text": "hi"}\n' + record + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as caught:
            load_corpus(path)
        assert str(caught.value) == (
            f"{path}:2: a string holds a lone surrogate (\\uD800-\\uDFFF), which UTF-8 cannot encode (document 'd2')"
        )

    def test_surrogate_pair_and_escaped_backslash_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d1", "text": "\\ud83c\\udf0d \\\\ud800"}\n', encoding="utf-8")
        assert load_corpus(path).documents[0].text == "\U0001F30D \\ud800"

    def test_bad_completeness_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [BERLIN_DOC])
        with pytest.raises(CorpusFormatError, match="completeness"):
            load_corpus(path, "half")

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="cannot read"):
            load_corpus(tmp_path / "absent.jsonl")

    @pytest.mark.parametrize(
        "body",
        [
            b'{"id": "a", "text": "x"}\r\n\r\n{"text": "y", "id": "b"}\r{"id": "c", "text": "\xc3\xa9"}',
            b'{"id": "a", "text": "x"}\n\n{"id": "b", "text": "y"}\r\n{oops\n',
            b'{"id": "a", "text": "x"}\n{"id": "b", "text": "\xff"}\n',
        ],
        ids=["mixed-line-ends", "malformed-line-4", "not-utf-8"],
    )
    def test_hashing_the_bytes_changes_nothing_else(self, tmp_path, body):
        # a caller that reads the bytes to hash them parses those bytes: the corpus or the error is the file's
        path = tmp_path / "c.jsonl"
        path.write_bytes(body)
        outcomes = []
        for data in (None, body):
            try:
                outcomes.append(load_corpus(path, data=data))
            except CorpusFormatError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_load_leaves_the_collector_to_another_thread(self, tmp_path, monkeypatch):
        # a thread inside load_corpus must not undo another thread's gc.disable()
        path = tmp_path / "c.jsonl"
        write_lines(path, [BERLIN_DOC])
        entered, release = threading.Event(), threading.Event()
        real_document_error = corpus_module._document_error

        def held_document_error(doc, seen_ids):
            entered.set()
            release.wait(30)
            return real_document_error(doc, seen_ids)

        monkeypatch.setattr(corpus_module, "_document_error", held_document_error)
        loaded = []
        thread = threading.Thread(target=lambda: loaded.append(load_corpus(path)), daemon=True)
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
        assert [doc.id for doc in loaded[0].documents] == ["d1"]

    def test_kind_and_gazetteer_id_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = dict(
            BERLIN_DOC,
            toponyms=[
                {"start": 0, "end": 6, "name": "Berlin", "lat": 52.52, "lon": 13.405,
                 "gazetteer_id": "2950159", "kind": "admin-unit"}
            ],
        )
        write_lines(path, [record])
        top = load_corpus(path).documents[0].gold[0]
        assert top.gazetteer_id == "2950159"
        assert top.kind == "admin-unit"

    @pytest.mark.parametrize("gazetteer_id", [[1, 2], 2950159, {"id": "2950159"}, True])
    def test_gazetteer_id_that_is_not_a_string_is_refused_naming_line_and_document(self, tmp_path, gazetteer_id):
        path = tmp_path / "c.jsonl"
        berlin = {"start": 0, "end": 6, "name": "Berlin", "gazetteer_id": gazetteer_id}
        write_lines(path, [dict(BERLIN_DOC, id="d0"), dict(BERLIN_DOC, toponyms=[berlin])])
        message = f"{path}:2: document 'd1': gazetteer_id of 'Berlin' must be a string, got {gazetteer_id!r}"
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            load_corpus(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = dict(BERLIN_DOC, toponyms=[{"start": 0, "end": 6, "name": "Berlin", "kind": "mountain"}])
        write_lines(path, [record])
        with pytest.raises(CorpusFormatError, match="unknown toponym kind"):
            load_corpus(path)


class TestStats:
    def test_empty_corpus(self):
        stats = corpus_stats(Corpus("c", ()))
        assert (stats.document_count, stats.toponym_count) == (0, 0)
        assert stats.mean_tokens_per_document == 0
        assert stats.toponyms_with_coordinates == 0

    def test_mean_tokens(self):
        docs = (
            Document("a", "one two three", ()),
            Document("b", "one two three four five", ()),
        )
        assert corpus_stats(Corpus("c", docs)).mean_tokens_per_document == 4.0

    def test_counts(self):
        doc = Document(
            "a",
            "Berlin and Paris",
            (GoldToponym(0, 6, "Berlin", point=GeoPoint(52.52, 13.405)), GoldToponym(11, 16, "Paris")),
        )
        stats = corpus_stats(Corpus("c", (doc,)))
        assert stats.document_count == 1
        assert stats.toponym_count == 2
        assert stats.toponyms_with_coordinates == 1


class TestDegradeCase:
    def test_basic(self):
        doc = Document("d", "Visit Paris", (GoldToponym(6, 11, "Paris"),))
        out = degrade_case(Corpus("c", (doc,)))
        got = out.documents[0]
        assert got.text == "visit paris"
        assert got.gold[0] == GoldToponym(6, 11, "paris")

    def test_idempotent(self):
        doc = Document("d", "Visit PARIS and Berlin", (GoldToponym(6, 11, "PARIS"),))
        once = degrade_case(Corpus("c", (doc,)))
        assert degrade_case(once) == once

    def test_already_lowercase_identity(self):
        doc = Document("d", "visit paris", (GoldToponym(6, 11, "paris"),))
        corpus = Corpus("c", (doc,))
        assert degrade_case(corpus) == corpus

    def test_preserves_counts_points_and_offsets(self):
        point = GeoPoint(48.8566, 2.3522)
        doc = Document("d", "Visit Paris", (GoldToponym(6, 11, "Paris", point=point, kind="admin-unit"),))
        got = degrade_case(Corpus("c", (doc,))).documents[0]
        assert (got.gold[0].start, got.gold[0].end) == (6, 11)
        assert got.gold[0].point == point
        assert got.gold[0].kind == "admin-unit"

    def test_length_changing_scalars_preserved(self):
        # oracle: enumerate every scalar whose lowercase mapping is not a
        # single scalar, straight from the case tables
        changing = [chr(c) for c in range(0x110000) if len(chr(c).lower()) != 1]
        assert changing  # U+0130 at minimum
        for ch in changing:
            text = f"x{ch}x Paris"
            doc = Document("d", text, (GoldToponym(4, 9, "Paris"),))
            got = degrade_case(Corpus("c", (doc,))).documents[0]
            assert len(got.text) == len(text)
            assert got.text[1] == ch
            assert got.gold[0] == GoldToponym(4, 9, "paris")
        # a sibling scalar with an ordinary mapping still lowercases
        assert degrade_case(Corpus("c", (Document("d", "É", ()),))).documents[0].text == "é"


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        docs = (
            Document("a", "Berlin is cold.", (GoldToponym(0, 6, "Berlin", point=GeoPoint(52.52, 13.405)),), "rt"),
            Document("b", "São Paulo é grande", (GoldToponym(0, 9, "São Paulo", kind="admin-unit"),), "rt"),
            Document("c", "no toponyms here", (), "rt"),
        )
        corpus = Corpus("rt", docs, "partial")
        path = tmp_path / "rt.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path, "partial", "rt") == corpus

    def test_save_load_identity_fuzz(self, tmp_path):
        import random

        rng = random.Random(67)
        alphabet = "ab éßÉ中.\n\t'\"\\ -"
        for trial in range(25):
            docs = []
            for d in range(rng.randrange(0, 5)):
                text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 40)))
                spans = set()
                for _ in range(rng.randrange(0, 4)):
                    start = rng.randrange(0, len(text))
                    spans.add((start, min(len(text), start + rng.randrange(1, 6))))
                gold = tuple(
                    GoldToponym(s, e, text[s:e],
                                point=GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
                                if rng.random() < 0.5 else None)
                    for s, e in sorted(spans)
                )
                docs.append(Document(f"doc{d}", text, gold, source="fuzz"))
            corpus = Corpus("fuzz", tuple(docs), rng.choice(["complete", "partial"]))
            path = tmp_path / f"fuzz{trial}.jsonl"
            save_corpus(corpus, path)
            assert load_corpus(path, corpus.completeness, "fuzz") == corpus

    def test_manifest_round_trip(self, tmp_path):
        _, path = write_corpus_files(Corpus("m", (), "partial"), tmp_path)
        assert load_manifest(path) == {"name": "m", "completeness": "partial"}

    def test_manifest_rejects_bad_completeness(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"name": "x", "completeness": "mostly"}', encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_manifest(path)


class TestHashFile:
    @pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    @pytest.mark.parametrize("offset", [0, 1, CHUNK])
    def test_hashes_the_bytes_from_the_offset(self, tmp_path, size, offset):
        data = bytes(i * 7 % 251 for i in range(size))
        path = tmp_path / "data.bin"
        path.write_bytes(data)
        expected = hashlib.sha256(b"prefix" + data[offset:]).hexdigest()
        assert hash_file(path, hashlib.sha256(b"prefix"), offset) == expected

    def test_unreadable_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            hash_file(tmp_path / "missing", hashlib.sha256())
