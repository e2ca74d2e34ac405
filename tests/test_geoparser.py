import random
import re
import sys
import threading
from collections import Counter

import pytest

from geobench import GeoparserSpec, degrade_case
from geobench.corpus import Document, GeoPoint
from geobench.gazetteer import Gazetteer, GazetteerEntry, normalize_name
from geobench.geoparser import (
    BuiltinGeoparser,
    NoCandidateError,
    RecognizerConfig,
    coerce_predictions,
    create_geoparser,
    default_stoplist,
    recognize_lexicon,
    resolve_population,
)
from helpers import (
    reference_recognize_lexicon,
    reference_resolve_population,
    small_gazetteer,
    smoke_corpus_and_gazetteer,
)


class TestRecognize:
    def test_single_name_offsets(self):
        doc = Document("d", "I visited Berlin yesterday", ())
        spans = recognize_lexicon(doc, small_gazetteer())
        assert spans == [(10, 16, "Berlin")]

    def test_capitalization_gate(self):
        gazetteer = small_gazetteer()
        doc = Document("d", "new york city", ())
        assert recognize_lexicon(doc, gazetteer) == []
        config = RecognizerConfig(require_capitalized=False)
        assert recognize_lexicon(doc, gazetteer, config) == [(0, 13, "new york city")]

    def test_longest_match_wins(self):
        doc = Document("d", "in New York today", ())
        spans = recognize_lexicon(doc, small_gazetteer())
        assert spans == [(3, 11, "New York")]

    def test_max_ngram_limits_match(self):
        gazetteer = small_gazetteer()
        doc = Document("d", "New York City here", ())
        assert recognize_lexicon(doc, gazetteer)[0].name == "New York City"
        config = RecognizerConfig(max_ngram=2)
        assert recognize_lexicon(doc, gazetteer, config)[0].name == "New York"

    def test_stoplist_blocks_whole_ngram_only(self):
        entries = [
            GazetteerEntry(1, "Of", (), GeoPoint(40.26, 40.26)),
            GazetteerEntry(2, "Isle of Man", (), GeoPoint(54.23, -4.55)),
        ]
        gazetteer = Gazetteer.from_entries(entries)
        doc = Document("d", "Of the Isle of Man", ())
        spans = recognize_lexicon(doc, gazetteer)
        assert spans == [(7, 18, "Isle of Man")]

    def test_stoplist_membership_is_normalized(self):
        gazetteer = Gazetteer.from_entries([GazetteerEntry(1, "Mobile", (), GeoPoint(30.69, -88.04))])
        config = RecognizerConfig(stoplist=frozenset({"mobile"}))
        doc = Document("d", "Mobile is a city", ())
        assert recognize_lexicon(doc, gazetteer, config) == []
        assert recognize_lexicon(doc, gazetteer, RecognizerConfig(stoplist=frozenset())) != []

    def test_primary_names_only(self):
        gazetteer = small_gazetteer()  # "New York" is only an alternate name; "York" is primary
        doc = Document("d", "New York is big", ())
        assert recognize_lexicon(doc, gazetteer)[0].name == "New York"
        config = RecognizerConfig(primary_names_only=True)
        assert recognize_lexicon(doc, gazetteer, config) == [(4, 8, "York")]

    def test_spans_non_overlapping_sorted_and_in_gazetteer(self):
        rng = random.Random(53)
        corpus, gazetteer = smoke_corpus_and_gazetteer(26)
        names = [e.primary_name for e in gazetteer.entries.values()]
        for _ in range(50):
            words = []
            for _ in range(rng.randrange(1, 30)):
                words.append(rng.choice(names) if rng.random() < 0.4 else rng.choice(["the", "Fox", "ran", "to"]))
            doc = Document("d", " ".join(words), ())
            spans = recognize_lexicon(doc, gazetteer)
            for a, b in zip(spans, spans[1:]):
                assert a.end <= b.start
            for span in spans:
                assert doc.text[span.start : span.end] == span.name
                assert gazetteer.lookup(span.name)

    def test_min_ngram_config(self):
        with pytest.raises(ValueError):
            RecognizerConfig(max_ngram=0)


class TestResolve:
    def test_population_argmax(self):
        entry = resolve_population("Paris", small_gazetteer())
        assert entry.id == 1
        assert entry.country == "FR"

    def test_no_candidate(self):
        with pytest.raises(NoCandidateError):
            resolve_population("Atlantis", small_gazetteer())

    def test_tie_smallest_id(self):
        entries = [
            GazetteerEntry(42, "Twin", (), GeoPoint(1, 1), population=0),
            GazetteerEntry(7, "Twin", (), GeoPoint(2, 2), population=0),
        ]
        gazetteer = Gazetteer.from_entries(entries)
        assert resolve_population("Twin", gazetteer).id == 7

    def test_maximal_by_exhaustive_comparison(self):
        gazetteer = small_gazetteer()
        for name in ["Paris", "Berlin", "York", "New York"]:
            winner = resolve_population(name, gazetteer)
            for candidate in gazetteer.lookup(name):
                assert winner.population >= candidate.population

    def test_primary_only_restricts_candidates(self):
        gazetteer = small_gazetteer()
        assert resolve_population("Paname", gazetteer).id == 1
        with pytest.raises(NoCandidateError):
            resolve_population("Paname", gazetteer, primary_only=True)


# Pieces of fuzzed names and texts: ASCII words, separators, and characters
# whose normalization changes length or drops them: "ß" folds to "ss", "İ"
# to "i" plus a combining dot, U+0345 to a Greek iota, a decomposed "é"
# loses its accent when folding, "ﬁ" expands to "fi", "Ⅷ" lowercases.
FUZZ_WORDS = ("a", "b", "on", "new", "york", "ss", "fi", "i", "viii", "ke", "la")
FUZZ_ODD = ("ß", "İ", "\u0345", "e\u0301", "é", "ﬁ", "Ⅷ")
# The separators include non-ASCII ones, no-break space, en dash and ideographic space, after which a token
# that is no head is still scanned.
FUZZ_SEPARATORS = ("-", "'", ".", "\t", " ", "  ", "   ", " - ", "\u00a0", "\u2013", "\u3000")


def _fuzz_piece(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.55:
        word = rng.choice(FUZZ_WORDS)
        return rng.choice((word, word.capitalize(), word.upper()))
    if roll < 0.75:
        return rng.choice(FUZZ_ODD)
    return rng.choice(FUZZ_SEPARATORS)


def _fuzz_name(rng: random.Random) -> str:
    while True:
        name = "".join(_fuzz_piece(rng) for _ in range(rng.randrange(1, 6))).strip()
        if name:
            return name


def _fuzz_case(rng: random.Random, fold: bool):
    entries = []
    for i, entry_id in enumerate(rng.sample(range(1, 1000), rng.randrange(1, 12))):
        alternates = tuple(_fuzz_name(rng) for _ in range(rng.randrange(0, 3)))
        point = GeoPoint(i, i)
        entries.append(GazetteerEntry(entry_id, _fuzz_name(rng), alternates, point, population=rng.randrange(3)))
    gazetteer = Gazetteer.from_entries(entries, fold)
    names = [name for e in entries for name in e.names()]
    pieces = []
    for _ in range(rng.randrange(1, 25)):
        if rng.random() < 0.3:
            name = rng.choice(names)
            pieces.append(rng.choice((name, name.upper(), name.lower(), name.title())))
        else:
            pieces.append(_fuzz_piece(rng))
        if rng.random() < 0.5:
            pieces.append(rng.choice(FUZZ_SEPARATORS))
    return gazetteer, Document("d", "".join(pieces), ()), names


def _reference_parse(document, gazetteer, config):
    out = []
    for span in reference_recognize_lexicon(document, gazetteer, config):
        try:
            entry_id = reference_resolve_population(span.name, gazetteer, config.primary_names_only).id
        except NoCandidateError:
            entry_id = None
        out.append((span.start, span.end, span.name, entry_id))
    return out


def _parse(document, gazetteer, config):
    predictions, _ = BuiltinGeoparser(gazetteer, config).parse_document(document)
    return [(p.start, p.end, p.name, p.entry_id) for p in predictions]


class TestMatchesReference:
    """The lexicon recognizer and resolver against the per-n-gram lookup they replaced."""

    def test_fuzz(self):
        rng = random.Random(4)
        checked = 0
        for _ in range(150):
            for fold in (False, True):
                gazetteer, doc, names = _fuzz_case(rng, fold)
                stopped = frozenset({normalize_name(rng.choice(names), fold)})
                for stoplist in (frozenset(), stopped):
                    for require_capitalized in (True, False):
                        for primary_names_only in (False, True):
                            for max_ngram in (1, 3, 5):
                                config = RecognizerConfig(max_ngram, require_capitalized, stoplist, primary_names_only)
                                assert _parse(doc, gazetteer, config) == _reference_parse(doc, gazetteer, config), (
                                    doc.text,
                                    config,
                                    [e for e in gazetteer.entries.values()],
                                )
                                checked += 1
        assert checked == 150 * 2 * 2 * 2 * 2 * 3

    def test_accent_separator_folds_away(self):
        # the accent between "Re" and "union" is no word character, so it
        # parts two tokens, yet folding removes it: "reunion" is one word
        gazetteer = Gazetteer.from_entries([GazetteerEntry(1, "Réunion", (), GeoPoint(-21.1, 55.5))], True)
        doc = Document("d", "Visit Re\u0301union now", ())
        config = RecognizerConfig()
        assert _parse(doc, gazetteer, config) == [(6, 14, "Re\u0301union", 1)]
        assert _parse(doc, gazetteer, config) == _reference_parse(doc, gazetteer, config)

    def test_dotted_capital_i(self):
        # "İ" case-folds to "i" plus a combining dot, which is no word character
        gazetteer = Gazetteer.from_entries([GazetteerEntry(1, "İzmir", (), GeoPoint(38.4, 27.1))])
        doc = Document("d", "İzmir Bay", ())
        config = RecognizerConfig()
        assert _parse(doc, gazetteer, config) == [(0, 5, "İzmir", 1)]
        assert _parse(doc, gazetteer, config) == _reference_parse(doc, gazetteer, config)

    @pytest.mark.parametrize("fold", [False, True])
    def test_non_head_token_before_a_non_ascii_separator_inside_a_name(self, fold):
        # U+0345 is no word character, so it parts "Ke" from "la", but it case-folds to a Greek iota, which is
        # one: "Ke" is no head, yet starts the one-word name "keιla"
        gazetteer = Gazetteer.from_entries([GazetteerEntry(1, "Ke\u0345la", (), GeoPoint(1, 1))], fold)
        assert "ke" not in gazetteer.head_limits()
        doc = Document("d", "Visit Ke\u0345la now", ())
        config = RecognizerConfig()
        assert _parse(doc, gazetteer, config) == [(6, 11, "Ke\u0345la", 1)]
        assert _parse(doc, gazetteer, config) == _reference_parse(doc, gazetteer, config)

    def test_no_word_character_is_whitespace(self):
        # so an unfolded token, a run of word characters, normalizes to its case-fold
        word = re.compile(r"\w")
        chars = map(chr, range(sys.maxunicode + 1))
        assert [c for c in chars if word.fullmatch(c) and c.split() != [c]] == []

    def test_stoplisted_longest_ngram_yields_to_shorter(self):
        entries = [
            GazetteerEntry(1, "New", (), GeoPoint(1, 1)),
            GazetteerEntry(2, "New York", (), GeoPoint(2, 2)),
            GazetteerEntry(3, "York", (), GeoPoint(3, 3)),
        ]
        gazetteer = Gazetteer.from_entries(entries)
        doc = Document("d", "New York", ())
        config = RecognizerConfig(stoplist=frozenset({"new york"}))
        assert _parse(doc, gazetteer, config) == [(0, 3, "New", 1), (4, 8, "York", 3)]
        assert _parse(doc, gazetteer, config) == _reference_parse(doc, gazetteer, config)

    def test_concurrent_first_parses_build_lexicon_once(self, monkeypatch):
        corpus, gazetteer = smoke_corpus_and_gazetteer(20)
        builds = Counter()

        def counted(name):
            build = getattr(Gazetteer, name)

            def wrapper(self, *args):
                builds[(name, *args)] += 1
                threading.Event().wait(0.05)  # a window for a second builder to enter
                return build(self, *args)

            monkeypatch.setattr(Gazetteer, name, wrapper)

        counted("_resolve_names")
        counted("_head_limits")
        parser = BuiltinGeoparser(gazetteer)
        barrier = threading.Barrier(8)
        results = {}

        def work(slot):
            barrier.wait(timeout=10)
            results[slot] = [parser.parse_document(doc)[0] for doc in corpus.documents]

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert builds == {("_resolve_names", False): 1, ("_head_limits",): 1}
        assert len(results) == 8 and all(r == results[0] for r in results.values())


class TestParse:
    def test_builtin_composition(self):
        gazetteer = Gazetteer.from_entries([GazetteerEntry(3, "Berlin", (), GeoPoint(52.52, 13.405))])
        doc = Document("d", "I visited Berlin yesterday", ())
        spec = GeoparserSpec("builtin-baseline", "baseline")
        predictions, dropped = create_geoparser(spec, gazetteer).parse_document(doc)
        assert dropped == 0
        assert len(predictions) == 1
        got = predictions[0]
        assert (got.start, got.end, got.name) == (10, 16, "Berlin")
        assert got.point == GeoPoint(52.52, 13.405)
        assert got.entry_id == 3

    def test_builtin_deterministic(self):
        corpus, gazetteer = smoke_corpus_and_gazetteer(5)
        parser = BuiltinGeoparser(gazetteer)
        for doc in corpus.documents:
            first, _ = parser.parse_document(doc)
            second, _ = parser.parse_document(doc)
            assert first == second

    def test_builtin_finds_planted_toponyms(self):
        corpus, gazetteer = smoke_corpus_and_gazetteer(8)
        parser = BuiltinGeoparser(gazetteer)
        for doc in corpus.documents:
            predictions, dropped = parser.parse_document(doc)
            assert dropped == 0
            assert [(p.start, p.end) for p in predictions] == [(g.start, g.end) for g in doc.gold]
            assert all(p.point == g.point for p, g in zip(predictions, doc.gold))

    def test_case_degraded_behavior(self):
        corpus, gazetteer = smoke_corpus_and_gazetteer(4)
        degraded = degrade_case(corpus)
        gated = BuiltinGeoparser(gazetteer)
        ungated = BuiltinGeoparser(gazetteer, RecognizerConfig(require_capitalized=False))
        for doc in degraded.documents:
            assert gated.parse_document(doc)[0] == []
            predictions, _ = ungated.parse_document(doc)
            assert [(p.start, p.end) for p in predictions] == [(g.start, g.end) for g in doc.gold]


class TestSpecAndFactory:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeoparserSpec("neural", "x")
        with pytest.raises(ValueError):
            GeoparserSpec("builtin-baseline", "")

    def test_builtin_needs_gazetteer(self):
        with pytest.raises(ValueError, match="needs a gazetteer"):
            create_geoparser(GeoparserSpec("builtin-baseline", "b"))

    def test_builtin_parameters(self):
        gazetteer = small_gazetteer()
        spec = GeoparserSpec(
            "builtin-baseline",
            "custom",
            {"max_ngram": 2, "require_capitalized": False, "extra_stopwords": ["Berlin"]},
        )
        parser = create_geoparser(spec, gazetteer)
        assert parser.config.max_ngram == 2
        assert not parser.config.require_capitalized
        assert "berlin" in parser.config.stoplist
        assert parser.parse_document(Document("d", "visit berlin", ()))[0] == []

    @pytest.mark.parametrize(
        "parameters",
        [
            {"max_ngram": "5"},
            {"max_ngram": 2.5},
            {"max_ngram": True},
            {"max_ngram": 0},
            {"require_capitalized": "no"},
            {"no_default_stoplist": 1},
            {"primary_names_only": None},
            {"extra_stopwords": "abc"},
            {"extra_stopwords": ["Nice", 3]},
            {"max_ngrams": 3},
        ],
        ids=repr,
    )
    def test_bad_builtin_parameter_is_rejected_with_the_spec(self, parameters):
        with pytest.raises(ValueError, match=next(iter(parameters))):
            GeoparserSpec("builtin-baseline", "b", parameters)

    def test_every_builtin_parameter_of_the_right_type_is_accepted(self):
        parameters = {
            "max_ngram": 1,
            "require_capitalized": False,
            "no_default_stoplist": True,
            "primary_names_only": True,
            "extra_stopwords": [],
        }
        config = create_geoparser(GeoparserSpec("builtin-baseline", "b", parameters), small_gazetteer()).config
        assert config == RecognizerConfig(1, False, frozenset(), True)

    @pytest.mark.parametrize(
        "spec",
        [
            ("external-process", {"command": ["python3", 5]}),
            ("external-process", {"command": "python3 child.py"}),
            ("external-process", {"command": ["python3"], "timeout": "5"}),
            ("external-http", {"endpoint": 8080}),
            ("external-http", {"endpoint": "http://127.0.0.1:9/", "timeout": 0}),
            ("external-http", {"endpoint": "ftp://h/"}),
            ("external-http", {"endpoint": "http://u:p@h/"}),
            ("external-http", {"endpoint": "http://h:99999"}),
        ],
        ids=repr,
    )
    def test_bad_external_parameter_is_rejected_with_the_spec(self, spec):
        kind, parameters = spec
        with pytest.raises(ValueError):
            GeoparserSpec(kind, "x", parameters)

    @pytest.mark.parametrize("fold", [False, True])
    def test_a_stopword_blocks_its_name_with_diacritics_folded_or_not(self, fold):
        gazetteer = Gazetteer.from_entries([GazetteerEntry(1, "Réunion", (), GeoPoint(-21.1, 55.5))], fold)
        spec = GeoparserSpec("builtin-baseline", "b", {"extra_stopwords": ["Réunion"]})
        assert create_geoparser(spec, gazetteer).parse_document(Document("d", "Visit Réunion now", ())) == ([], 0)
        assert normalize_name("Réunion", fold) in create_geoparser(spec, gazetteer).config.stoplist

    def test_process_spec_needs_command(self):
        with pytest.raises(ValueError, match="command"):
            create_geoparser(GeoparserSpec("external-process", "p"))

    def test_http_spec_needs_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            create_geoparser(GeoparserSpec("external-http", "h"))


class TestCoercePredictions:
    TEXT = "Berlin and Paris brace"

    def test_valid_items_pass(self):
        predictions, dropped = coerce_predictions(
            self.TEXT,
            [{"start": 11, "end": 16, "name": "Paris", "lat": 48.85, "lon": 2.35}, {"start": 0, "end": 6, "name": "Berlin"}],
        )
        assert dropped == 0
        assert [(p.start, p.end) for p in predictions] == [(0, 6), (11, 16)]  # sorted
        assert predictions[1].point == GeoPoint(48.85, 2.35)
        assert predictions[0].point is None

    def test_out_of_bounds_span_dropped(self):
        predictions, dropped = coerce_predictions(self.TEXT, [{"start": 0, "end": 10_000, "name": "x"}])
        assert predictions == [] and dropped == 1

    def test_name_mismatch_dropped(self):
        predictions, dropped = coerce_predictions(self.TEXT, [{"start": 0, "end": 6, "name": "Munich"}])
        assert predictions == [] and dropped == 1

    def test_missing_name_filled_from_slice(self):
        predictions, dropped = coerce_predictions(self.TEXT, [{"start": 0, "end": 6}])
        assert dropped == 0 and predictions[0].name == "Berlin"

    def test_half_coordinates_dropped(self):
        predictions, dropped = coerce_predictions(self.TEXT, [{"start": 0, "end": 6, "name": "Berlin", "lat": 1.0}])
        assert predictions == [] and dropped == 1

    def test_out_of_range_point_dropped(self):
        item = {"start": 0, "end": 6, "name": "Berlin", "lat": 95.0, "lon": 0.0}
        predictions, dropped = coerce_predictions(self.TEXT, [item])
        assert predictions == [] and dropped == 1

    @pytest.mark.parametrize(
        "item",
        [
            {"start": False, "end": True, "name": "B"},
            {"start": 0, "end": 6, "name": "Berlin", "lat": True, "lon": False},
        ],
        ids=["bool-offsets", "bool-coordinates"],
    )
    def test_bools_are_not_numbers(self, item):
        predictions, dropped = coerce_predictions(self.TEXT, [item])
        assert predictions == [] and dropped == 1

    def test_bool_entry_id_becomes_none(self):
        predictions, dropped = coerce_predictions(self.TEXT, [{"start": 0, "end": 6, "entry_id": True}])
        assert dropped == 0 and predictions[0].entry_id is None

    @pytest.mark.parametrize(
        "lat, lon",
        [(10**400, 0), (0, -(10**400)), (float("nan"), 0.0), (0.0, float("inf"))],
        ids=["lat-beyond-float", "lon-beyond-float", "nan", "inf"],
    )
    def test_unusable_coordinate_dropped_and_counted(self, lat, lon):
        items = [{"start": 0, "end": 6, "name": "Berlin", "lat": lat, "lon": lon}, {"start": 11, "end": 16}]
        predictions, dropped = coerce_predictions(self.TEXT, items)
        assert dropped == 1
        assert [(p.start, p.end) for p in predictions] == [(11, 16)]

    def test_non_dict_items_dropped(self):
        predictions, dropped = coerce_predictions(self.TEXT, ["junk", 7])
        assert predictions == [] and dropped == 2


def test_default_stoplist_loaded():
    stoplist = default_stoplist()
    assert "of" in stoplist
    assert 40 <= len(stoplist) <= 80
    assert all(w == w.casefold() for w in stoplist)
