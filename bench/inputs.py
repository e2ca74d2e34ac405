"""Deterministic synthetic inputs for the geobench benchmark.

Everything here is a pure function of the seed and the sizes: the same seed
gives the same bytes. Alongside each input the generator records what it
planted, so that the checks in `scoring.py` can derive every expected metric
without running the recognizer or `geobench.metrics`:

* the gazetteer: a 19-column GeoNames-layout TSV. Names are built from a
  place-token vocabulary that shares no token with the filler vocabulary of
  the documents, so an n-gram can only match a gazetteer name when it is a
  planted mention. All entries of one group share a longitude, so resolving
  a name to another candidate of its group is a pure latitude shift.
* the builtin corpus: documents dense in capitalized filler words, with
  planted mentions of five kinds (see MENTION_KINDS). The truth file lists
  each gold span, the spans the builtin must find with and without the
  capitalization gate, and each planted name's most populous candidate.
* the overlap corpus: chains of adjacent gold spans; the replayed
  predictions bridge gold i and gold i+1, and each replayed point is its
  gold point shifted by a recorded latitude offset.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# The builtin's default stoplist when this benchmark was written. No
# generated place token may be one of these words, or the builtin would drop
# a mention the truth file expects it to find.
STOPWORDS = frozenset(
    """a along an and as at be best by came come deal down early
    east for he home house in is it man many march may media mobile
    most much nice none normal north of on or over page park post price
    reading said sale says so south split the to union university up was west
    why young""".split()
)
# Default-stoplist words that are also place names ("Nice", "Reading", ...):
# the builtin must never predict them, whatever the gate.
STOPLISTED_PLACES = ("Mobile", "Nice", "Reading", "Split", "Deal", "March", "Union", "Normal", "Young", "Park")

_PLACE_ONSETS = ("b", "d", "g", "k", "l", "m", "n", "r", "s", "t", "v", "z")
_PLACE_VOWELS = ("a", "e", "i", "o", "u", "ay", "ei")
_PLACE_SUFFIXES = ("", "a", "on", "burg", "ville", "stad", "ham", "ia", "or", "ek")
_FILLER_ONSETS = ("br", "cl", "dr", "fl", "gr", "pl", "pr", "sh", "st", "th", "tr", "wh", "ch", "sp")
_FILLER_VOWELS = ("a", "e", "i", "o", "u", "ea", "oo")
_FILLER_SUFFIXES = ("er", "ment", "ing", "ist", "ance", "ure", "ous", "al")

# Mention kinds of the builtin corpus: (gold?, written capitalized?, in the
# gazetteer and not stoplisted?) decide what the builtin finds.
MENTION_KINDS = (
    ("gold", 0.66),  # capitalized gazetteer name, annotated: found
    ("spurious", 0.10),  # capitalized gazetteer name, not annotated: found, false positive
    ("lower", 0.10),  # lowercase gazetteer name, annotated: found only without the gate
    ("stoplisted", 0.07),  # annotated stoplist place name: never found
    ("unknown", 0.07),  # annotated name missing from the gazetteer: never found
)
# Latitude offsets (degrees) between candidates of one group. Every
# resulting distance keeps clear of the 161 km threshold (1.448 degrees),
# so acc@161 cannot flip on rounding.
_GROUP_OFFSETS = (0.0, 0.25, 0.6, 1.1, 2.5, 4.0, 7.5, 12.0)
_REPLAY_OFFSETS = (0.0, 0.05, 0.3, 0.9, 1.2, 1.9, 3.3, 6.0, 9.5, 15.0)


@dataclass(frozen=True)
class Sizes:
    gazetteer_rows: int = 200_000
    builtin_docs: int = 2_000
    builtin_tokens: int = 200  # approximate tokens per builtin document
    overlap_docs: int = 1_600


TOY = Sizes(gazetteer_rows=3_000, builtin_docs=30, builtin_tokens=60, overlap_docs=20)


def _pick(rng: random.Random, seq):
    # random() is cheaper than choice() and just as reproducible
    return seq[int(rng.random() * len(seq))]


def _words(rng: random.Random, onsets, vowels, suffixes, count: int, exclude) -> list[str]:
    out: list[str] = []
    seen = set(exclude)
    r = rng.random
    n_on, n_vo, n_su = len(onsets), len(vowels), len(suffixes)
    while len(out) < count:
        word = onsets[int(r() * n_on)] + vowels[int(r() * n_vo)] + onsets[int(r() * n_on)] + vowels[int(r() * n_vo)]
        if r() < 0.5:
            word += onsets[int(r() * n_on)] + vowels[int(r() * n_vo)]
        word += suffixes[int(r() * n_su)]
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _geonames_row(entry_id: int, name: str, alternates: list[str], lat: float, lon: float, population: int) -> str:
    alts = ",".join(alternates)
    return f"{entry_id}\t{name}\t{name}\t{alts}\t{lat!r}\t{lon!r}\tP\tPPL\tXX\t\t\t\t\t\t{population}\t\t\tEtc/UTC\t2020-07-15"


class Gazetteer:
    """The generated place table plus the generator's own name index."""

    def __init__(self, rng: random.Random, rows: int):
        place_tokens = _words(rng, _PLACE_ONSETS, _PLACE_VOWELS, _PLACE_SUFFIXES, max(rows // 3, 500), STOPWORDS)
        self.place_tokens = [t.capitalize() for t in place_tokens]
        lower_places = set(place_tokens) | STOPWORDS
        self.filler = _words(rng, _FILLER_ONSETS, _FILLER_VOWELS, _FILLER_SUFFIXES, 3_000, lower_places)
        self.unknown = [t.capitalize() for t in _words(rng, _PLACE_ONSETS, _PLACE_VOWELS, ("ix",), 500, lower_places)]
        self.lines: list[str] = []
        self.candidates: dict[str, list[tuple[int, float, float, int]]] = {}  # name -> (id, lat, lon, pop)
        self._used: set[str] = set()
        for name in STOPLISTED_PLACES:
            self._group(rng, name, [], 1)
        # a few names shared by groups far apart, as with real "Springfield"s
        shared = [self._fresh_name(rng) for _ in range(max(rows // 400, 2))]
        while len(self.lines) < rows:
            name = _pick(rng, shared) if rng.random() < 0.04 else self._fresh_name(rng)
            aliases = [self._fresh_name(rng) for _ in range(_pick(rng, (0, 0, 0, 1, 1, 2)))]
            size = _pick(rng, (1, 1, 1, 1, 2, 2, 3, 4))
            self._group(rng, name, aliases, min(size, rows - len(self.lines)))
        stoplisted = {s.lower() for s in STOPLISTED_PLACES}
        self.names = sorted(n for n in self.candidates if n not in stoplisted)

    def _fresh_name(self, rng: random.Random) -> str:
        r, tokens = rng.random, self.place_tokens
        n = len(tokens)
        while True:
            u = r()
            name = tokens[int(r() * n)]
            if u >= 0.6:
                name += " " + tokens[int(r() * n)]
            if u >= 0.9:
                name += " " + tokens[int(r() * n)]
            key = name.lower()
            if key not in self._used:
                self._used.add(key)
                return name

    def _group(self, rng: random.Random, name: str, aliases: list[str], size: int) -> None:
        base, lon = _point(rng)
        first = int(rng.random() * len(_GROUP_OFFSETS))
        for j in range(size):
            # a step of 3 through the 8 offsets never repeats one
            offset = _GROUP_OFFSETS[(first + 3 * j) % len(_GROUP_OFFSETS)]
            entry_id = 1_000_000 + len(self.lines)
            lat = round(base + offset, 4)
            population = int(rng.random() * 5_000_000)
            carried = [a for a in aliases if rng.random() < 0.7] if aliases else aliases
            self.lines.append(_geonames_row(entry_id, name, carried, lat, lon, population))
            for n in (name, *carried):
                self.candidates.setdefault(n.lower(), []).append((entry_id, lat, lon, population))

    def top(self, name: str) -> tuple[int, float, float, int]:
        """The candidate the population resolver must pick (ties: smallest id)."""
        return max(self.candidates[name.lower()], key=lambda c: (c[3], -c[0]))


def _point(rng: random.Random) -> tuple[float, float]:
    return round(-60.0 + 120.0 * rng.random(), 4), round(-179.0 + 358.0 * rng.random(), 4)


def _filler_word(rng: random.Random, gaz: Gazetteer) -> str:
    word = _pick(rng, gaz.filler)
    return word.capitalize() if rng.random() < 0.45 else word


class _Doc:
    def __init__(self):
        self.parts: list[str] = []
        self.length = 0

    def add(self, text: str) -> tuple[int, int]:
        if self.parts:
            self.parts.append(" ")
            self.length += 1
        start = self.length
        self.parts.append(text)
        self.length += len(text)
        return start, self.length

    def text(self) -> str:
        return "".join(self.parts)


def _builtin_corpus(rng: random.Random, gaz: Gazetteer, docs: int, tokens: int):
    corpus_lines, truth_docs = [], []
    for d in range(docs):
        doc = _Doc()
        gold, gated, ungated = [], [], []
        words = 0
        while words < tokens:
            # a sentence: capitalized filler first, so a mention never starts one
            doc.add(_pick(rng, gaz.filler).capitalize())
            words += 1
            for _ in range(rng.randint(6, 16)):
                if rng.random() < 0.12:
                    u = rng.random()
                    for kind, weight in MENTION_KINDS:
                        u -= weight
                        if u < 0:
                            break
                    if kind == "stoplisted":
                        name = _pick(rng, STOPLISTED_PLACES)
                    elif kind == "unknown":
                        name = _pick(rng, gaz.unknown)
                    else:
                        name = _pick(rng, gaz.names).title()
                    written = name.lower() if kind == "lower" else name
                    start, end = doc.add(written)
                    words += name.count(" ") + 1
                    if kind != "spurious":
                        gold.append((start, end, written, kind, name))
                    if kind in ("gold", "spurious"):
                        gated.append([start, end, name.lower()])
                    if kind in ("gold", "spurious", "lower"):
                        ungated.append([start, end, name.lower()])
                doc.add(_filler_word(rng, gaz))  # so a mention never touches another
                words += 1
            doc.parts[-1] += "."
            doc.length += 1
        text = doc.text()
        toponyms, truth_gold = [], []
        for start, end, written, kind, name in gold:
            if kind in ("stoplisted", "unknown"):
                lat, lon = _point(rng)
            else:
                cands = gaz.candidates[name.lower()]
                # a name whose candidates share a longitude may be annotated
                # with any of them; otherwise with the most populous one
                if len({c[2] for c in cands}) == 1 and rng.random() < 0.3:
                    _, lat, lon, _ = _pick(rng, cands)
                else:
                    _, lat, lon, _ = gaz.top(name)
            toponyms.append({"start": start, "end": end, "name": written, "lat": lat, "lon": lon})
            truth_gold.append([start, end, lat])
        doc_id = f"d{d:05d}"
        corpus_lines.append(json.dumps({"id": doc_id, "text": text, "toponyms": toponyms}, sort_keys=True))
        truth_docs.append({"id": doc_id, "gold": truth_gold, "gated": gated, "ungated": ungated})
    names = sorted({s[2] for t in truth_docs for s in t["ungated"]})
    top_lat = {n: gaz.top(n)[1] for n in names}
    return corpus_lines, {"documents": truth_docs, "top_lat": top_lat}


def _overlap_corpus(rng: random.Random, gaz: Gazetteer, docs: int):
    corpus_lines, replay, truth_docs = [], {}, []
    for d in range(docs):
        doc = _Doc()
        gold, preds, chains = [], [], []
        for _ in range(rng.randint(2, 4)):
            for _ in range(rng.randint(3, 8)):
                doc.add(_filler_word(rng, gaz))
            chain = []
            for _ in range(rng.randint(3, 8)):
                start, end = doc.add(_pick(rng, gaz.place_tokens))
                lat, lon = _point(rng)
                chain.append((start, end, lat, lon))
            tail_start, _ = doc.add(_filler_word(rng, gaz))
            chain_preds = []
            for i, (start, end, lat, lon) in enumerate(chain):
                # prediction i runs from inside gold i to inside gold i+1
                p_end = chain[i + 1][0] + 2 if i + 1 < len(chain) else tail_start + 1
                offset = _pick(rng, _REPLAY_OFFSETS) * _pick(rng, (-1, 1))
                chain_preds.append((start + 1, p_end, round(lat + offset, 4), lon, offset))
            gold.extend(chain)
            preds.extend(chain_preds)
            chains.append(len(chain))
        # one unannotated prediction on filler text: a false positive
        fp_start, fp_end = doc.add(_pick(rng, gaz.filler))
        doc.add(_filler_word(rng, gaz) + ".")
        text = doc.text()
        doc_id = f"o{d:05d}"
        toponyms = [{"start": s, "end": e, "name": text[s:e], "lat": lat, "lon": lon} for s, e, lat, lon in gold]
        wire = [{"start": s, "end": e, "name": text[s:e], "lat": lat, "lon": lon} for s, e, lat, lon, _ in preds]
        wire.append({"start": fp_start, "end": fp_end, "name": text[fp_start:fp_end], "lat": 0.0, "lon": 0.0})
        corpus_lines.append(json.dumps({"id": doc_id, "text": text, "toponyms": toponyms}, sort_keys=True))
        replay[doc_id] = sorted(wire, key=lambda p: (p["start"], p["end"]))
        truth_docs.append(
            {
                "id": doc_id,
                "chains": chains,
                "predictions": len(wire),
                # gold i of the doc pairs with chain prediction i
                "pairs": [[g[2], p[2]] for g, p in zip(gold, preds)],
            }
        )
    return corpus_lines, replay, {"documents": truth_docs}


def _lowercased(line: str) -> str:
    doc = json.loads(line)
    doc["text"] = doc["text"].lower()
    for toponym in doc["toponyms"]:
        toponym["name"] = toponym["name"].lower()
    return json.dumps(doc, sort_keys=True)


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(directory: Path, seed: int, kind: str, sizes: Sizes = Sizes()) -> dict[str, Path]:
    """Write the inputs of one seed into `directory` and return their paths.

    Every kind gets the same gazetteer for a seed. "builtin" adds the
    builtin corpus; "warm" the same corpus plus its lowercased copy (for
    this ASCII text, exactly what `degrade_case` makes); "overlap" the
    overlap corpus and its replay fixture. Each corpus comes with its truth
    file.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    gaz = Gazetteer(rng, sizes.gazetteer_rows)
    paths = {"gazetteer": directory / "gazetteer.tsv"}
    _write(paths["gazetteer"], gaz.lines)
    if kind == "overlap":
        corpus, replay, truth = _overlap_corpus(rng, gaz, sizes.overlap_docs)
        paths["replay"] = directory / "replay.json"
        paths["replay"].write_text(json.dumps(replay, sort_keys=True), encoding="utf-8")
    else:
        corpus, truth = _builtin_corpus(rng, gaz, sizes.builtin_docs, sizes.builtin_tokens)
        if kind == "warm":
            paths["lowercased"] = directory / "corpus-lower.jsonl"
            _write(paths["lowercased"], [_lowercased(line) for line in corpus])
    paths["corpus"] = directory / "corpus.jsonl"
    paths["truth"] = directory / "truth.json"
    _write(paths["corpus"], corpus)
    paths["truth"].write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")
    return paths
