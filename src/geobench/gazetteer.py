"""Gazetteer ingestion and candidate lookup by normalized name.

Reads tab-separated place tables, either in the standard 19-column GeoNames
layout or with a user-supplied column map, into parallel columns with one
row per place. Loading builds only the columns; the tables keyed by
normalized name (primary and alternate) are derived from them on first
use. The built gazetteer is immutable and safe for unlimited concurrent
readers.
"""

from __future__ import annotations

import hashlib
import io
import json
import operator
import re
import sys
import threading
import unicodedata
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path

from .corpus import GeoPoint, hash_file, is_json_int

# Zero-based column indices of the GeoNames allCountries.txt layout.
GEONAMES_COLUMNS = {
    "id": 0,
    "name": 1,
    "alternates": 3,
    "lat": 4,
    "lon": 5,
    "feature_class": 6,
    "feature_code": 7,
    "country": 8,
    "population": 14,
}
_REQUIRED_COLUMNS = ("id", "name", "lat", "lon")

# Ids and populations are held in 64-bit signed columns.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

# A word: the recognizer's token, and the head of a name in the head table.
WORD = re.compile(r"\w+")


class GazetteerError(Exception):
    """A gazetteer could not be built or loaded."""


@dataclass(slots=True)
class GazetteerEntry:
    """One place: a new copy of a row of the gazetteer's columns, so changing it changes nothing the gazetteer holds."""

    id: int
    primary_name: str
    alternate_names: tuple[str, ...]
    point: GeoPoint
    feature_class: str = ""
    feature_code: str = ""
    population: int = 0
    country: str = ""


class PlaceColumns:
    """Places as parallel columns, one row per place, in the order they were read.

    Ids, coordinates and populations are held unboxed; the three
    low-cardinality columns hold interned strings. A GazetteerEntry is
    built from a row only when a caller asks for one.
    """

    __slots__ = ("ids", "names", "alternates", "lat", "lon", "feature_class", "feature_code", "population", "country")

    def __init__(self):
        self.ids = array("q")
        self.names: list[str] = []
        self.alternates: list[tuple[str, ...]] = []
        self.lat = array("d")
        self.lon = array("d")
        self.feature_class: list[str] = []
        self.feature_code: list[str] = []
        self.population = array("q")
        self.country: list[str] = []

    def _columns(self) -> tuple:
        # in the order of a digest row's fields
        return (
            self.ids,
            self.names,
            self.alternates,
            self.lat,
            self.lon,
            self.feature_class,
            self.feature_code,
            self.population,
            self.country,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def append(self, *fields) -> None:
        """Add a row: id, name, alternates, lat, lon, feature class, feature code, population, country."""
        for column, value in zip(self._columns(), fields, strict=True):
            column.append(value)

    def fields(self, row: int) -> tuple:
        """A row's values, in the order `append` takes them."""
        return tuple(column[row] for column in self._columns())

    def entries(self, rows) -> list[GazetteerEntry]:
        """A new GazetteerEntry for each of `rows`, in their order."""
        ids, names, alternates, lat, lon, fcl, fco, population, country = self._columns()
        return [
            GazetteerEntry(
                ids[r], names[r], alternates[r], GeoPoint(lat[r], lon[r]), fcl[r], fco[r], population[r], country[r]
            )
            for r in rows
        ]

    def ascending(self) -> bool:
        """Whether the ids ascend with the row numbers."""
        ids = self.ids
        return all(map(operator.lt, ids, islice(ids, 1, None)))

    def id_order(self) -> list[int] | None:
        """The row numbers in ascending id order, or None if the rows already are in it."""
        if self.ascending():
            return None
        return sorted(range(len(self.ids)), key=self.ids.__getitem__)

    def in_id_order(self, order: list[int] | None) -> Iterator[tuple]:
        """Each row's values, as `fields` gives them, in the order `id_order` returned."""
        if order is None:
            return zip(*self._columns())
        return zip(*(map(column.__getitem__, order) for column in self._columns()))


@dataclass(slots=True)
class IngestStats:
    """Tally of rows seen and skipped while ingesting a place table."""

    rows_read: int = 0
    rows_ingested: int = 0
    rows_skipped: int = 0
    skip_reasons: dict[str, int] = field(default_factory=dict)

    def skip(self, reason: str) -> None:
        self.rows_skipped += 1
        self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + 1


def normalize_name(name: str, fold_diacritics: bool = False) -> str:
    """Trim, collapse internal whitespace, and case-fold a place name.

    With `fold_diacritics`, combining marks are stripped after canonical
    decomposition ("São Paulo" -> "sao paulo"). Idempotent under both flags.
    """
    out = " ".join(name.split()).casefold()
    if fold_diacritics:
        out = "".join(c for c in unicodedata.normalize("NFD", out) if not unicodedata.combining(c))
    return out


class Gazetteer:
    """Immutable place table, held as PlaceColumns, with tables by normalized name derived on first use.

    Loading builds only the columns. A builtin run reads two tables, both
    derived from the name columns on first use and never saved: the
    lexicon (each name's resolved row) and the head table. The index maps
    every normalized primary and alternate name to the rows of the places
    carrying it, in ascending id order so that tie-breaking is
    reproducible; it is built on the first `lookup` or use of `index`, and
    a run never builds it. A gazetteer loaded from a saved index reads its
    rows from the file and parses them into columns on first use as well.
    GazetteerEntry values are built, through their constructor and anew on
    each call, only for `entries`, `lookup` and
    `geoparser.resolve_population`; a run reads the columns.
    """

    def __init__(self, columns: PlaceColumns, fold_diacritics: bool):
        self.fold_diacritics = fold_diacritics
        self._digest: str | None = None
        self._derived: dict = {"columns": columns}
        # reentrant: the lexicon and the name index read `columns`, which may itself be parsed on first use, and
        # the head table reads the lexicon; a run derives only the lexicon and the head table, never the index
        self._derive_lock = threading.RLock()
        # a loaded index's path and body offset: where its rows are read from on first use
        self._index_body: tuple[str, int] | None = None

    @classmethod
    def _from_index_body(cls, source: str, offset: int, fold_diacritics: bool, digest: str) -> "Gazetteer":
        """A gazetteer whose digest is known and whose rows are read and parsed on first use of `columns`."""
        gazetteer = cls(PlaceColumns(), fold_diacritics)
        del gazetteer._derived["columns"]
        gazetteer._digest = digest
        gazetteer._index_body = (source, offset)
        return gazetteer

    @property
    def columns(self) -> PlaceColumns:
        """The places, one row each, the only table loading builds; the derived tables hold row numbers into them."""
        return self._derive("columns", self._parse_index_body)

    @property
    def index(self) -> dict[str, list[int]]:
        """Normalized name -> the rows of the places carrying it, in ascending id order: built on first use."""
        return self._derive("index", lambda: _name_index(self.columns, self.fold_diacritics))

    @property
    def entries(self) -> dict[int, GazetteerEntry]:
        """Every place as a GazetteerEntry, keyed by id, in row order: built anew on each use."""
        columns = self.columns
        return dict(zip(columns.ids, columns.entries(range(len(columns)))))

    @classmethod
    def from_entries(cls, entries, fold_diacritics: bool = False) -> "Gazetteer":
        """Build a gazetteer from GazetteerEntry values, validating each: a builder for tests and tools."""
        columns = PlaceColumns()
        seen: set[int] = set()
        for entry in entries:
            if entry.id in seen:
                raise GazetteerError(f"duplicate entry id {entry.id}")
            if not entry.primary_name:
                raise GazetteerError(f"entry {entry.id}: empty primary name")
            if entry.population < 0:
                raise GazetteerError(f"entry {entry.id}: negative population")
            if not entry.point.is_valid():
                raise GazetteerError(f"entry {entry.id}: coordinate out of range: {entry.point}")
            if not all(isinstance(v, int) and _INT64_MIN <= v <= _INT64_MAX for v in (entry.id, entry.population)):
                raise GazetteerError(f"entry {entry.id}: id or population is not an integer within 64 bits")
            seen.add(entry.id)
            columns.append(
                entry.id,
                entry.primary_name,
                entry.alternate_names,
                entry.point.lat,
                entry.point.lon,
                entry.feature_class,
                entry.feature_code,
                entry.population,
                entry.country,
            )
        return cls(columns, fold_diacritics)

    def lookup(self, name: str) -> list[GazetteerEntry]:
        """Entries whose primary or alternate normalized name equals the query, ascending id: new ones on each call."""
        return self.columns.entries(self.index.get(normalize_name(name, self.fold_diacritics), ()))

    def lexicon(self, primary_only: bool = False) -> dict[str, int]:
        """Normalized name -> the row of its resolved place: the most populous candidate, smallest id on ties.

        With `primary_only`, a name's candidates are only the places whose
        normalized primary name it is; names left with none are omitted.
        Built on first use from the name columns, without the index, and
        memoized per flag.
        """
        return self._derive(("lexicon", primary_only), lambda: self._resolve_names(primary_only))

    def head_limits(self) -> dict[str, int]:
        """Leading word of a normalized name -> length of the longest name starting with it.

        Names that start with no word character have no head; a text
        n-gram that starts a word can match a name only if that word is a
        head and the n-gram is no longer than its limit. Built on first use
        from the keys of `lexicon()`, which are the index's keys.
        """
        return self._derive("heads", self._head_limits)

    def _derive(self, slot, build):
        # double-checked so that threads parsing at once build a table once
        table = self._derived.get(slot)
        if table is None:
            with self._derive_lock:
                table = self._derived.get(slot)
                if table is None:
                    table = self._derived[slot] = build()
        return table

    def _parse_index_body(self) -> PlaceColumns:
        source, offset = self._index_body
        try:
            with open(source, "rb") as fh:
                fh.seek(offset)
                body = fh.read()
        except OSError as exc:
            raise GazetteerError(f"cannot read index file {source}: {exc}") from exc
        # load_index hashed the file as it was then; parse nothing that is not those bytes
        h = _digest_hasher(self.fold_diacritics)
        h.update(body)
        if h.hexdigest() != self._digest:
            raise GazetteerError(f"{source}: the index file changed after it was loaded; load it again")
        stats = IngestStats()
        # line by line, as a TSV is read; newline="\n" ends a line at "\n" only, not at a "\r" in a name
        lines = io.TextIOWrapper(io.BytesIO(body), encoding="utf-8", newline="\n")
        columns = _read_text_rows(lines, _DIGEST_COLUMNS, stats, f"{source}: malformed index rows")
        if stats.rows_skipped:  # a repeated id too
            raise GazetteerError(f"{source}: {stats.rows_skipped} malformed index rows {stats.skip_reasons}")
        return columns

    def _resolve_names(self, primary_only: bool) -> dict[str, int]:
        # One pass over the names, keeping each key's best row so far. The
        # rule (most populous, then smallest id) is a total order over rows,
        # so the order the names are visited in cannot change the result.
        columns = self.columns
        ids, population = columns.ids, columns.population
        fold = self.fold_diacritics
        primary = map(str.casefold, map(" ".join, map(str.split, columns.names)))  # normalize_name, unrolled
        if fold:
            primary = map(normalize_name, primary, repeat(True))
        sources = [enumerate(primary)]
        if not primary_only:
            alternates = enumerate(columns.alternates)
            sources.append((row, normalize_name(name, fold)) for row, names in alternates if names for name in names)
        lexicon: dict[str, int] = {}
        get = lexicon.get
        for named in sources:
            for row, key in named:
                best = get(key)
                if best is None:
                    if key:
                        lexicon[key] = row
                elif population[row] > population[best] or (
                    population[row] == population[best] and ids[row] < ids[best]
                ):
                    lexicon[key] = row
        return lexicon

    def _head_limits(self) -> dict[str, int]:
        heads: dict[str, int] = {}
        match = WORD.match
        for key in self.lexicon():  # the same keys as the index
            head = match(key)
            if head is not None:
                head = head.group()
                if len(key) > heads.get(head, 0):
                    heads[head] = len(key)
        return heads

    def __len__(self) -> int:
        return len(self.columns.ids)

    def digest(self) -> str:
        """Content digest over all places, in id order, and the fold flag (memoized).

        The first call renders each place's digest row from the columns in
        id order and hashes the rows. A gazetteer from `load_index` already
        knows its digest: the index header holds it, and the load checked
        it against the body bytes.
        """
        if self._digest is None:
            h = _digest_hasher(self.fold_diacritics)
            columns = self.columns
            for line in _digest_rows(columns.in_id_order(columns.id_order())):
                h.update(line.encode("utf-8"))
            self._digest = h.hexdigest()
        return self._digest


def _digest_hasher(fold_diacritics: bool):
    return hashlib.sha256(f"fold={fold_diacritics}\n".encode())


def _digest_rows(places) -> Iterator[str]:
    """The lines `digest()` hashes, one per place of `places` (`PlaceColumns.in_id_order`).

    A saved index's body is these lines.
    """
    for entry_id, name, alternates, lat, lon, fcl, fco, population, country in places:
        yield f"{entry_id}\t{name}\t{','.join(alternates)}\t{lat!r}\t{lon!r}\t{fcl}\t{fco}\t{population}\t{country}\n"


# The fields of a digest row, as a column map for the row parser.
_DIGEST_COLUMNS = {
    "id": 0,
    "name": 1,
    "alternates": 2,
    "lat": 3,
    "lon": 4,
    "feature_class": 5,
    "feature_code": 6,
    "population": 7,
    "country": 8,
}


def _check_schema(schema) -> dict:
    """The column map of a schema: "geonames", or a map from GEONAMES_COLUMNS keys to JSON integers >= 0."""
    if schema == "geonames":
        return GEONAMES_COLUMNS
    if not isinstance(schema, dict):
        raise GazetteerError(f"schema must be 'geonames' or a column map, got {schema!r}")
    for key in _REQUIRED_COLUMNS:
        if key not in schema:
            raise GazetteerError(f"column map missing required key {key!r}")
    for key, col in schema.items():
        if key not in GEONAMES_COLUMNS:
            raise GazetteerError(f"column map has unknown key {key!r}; the keys are {', '.join(GEONAMES_COLUMNS)}")
        if not is_json_int(col) or col < 0:
            raise GazetteerError(f"column map entry {key!r} must be a non-negative integer, got {col!r}")
    return schema


def _name_index(columns: PlaceColumns, fold_diacritics: bool) -> dict[str, list[int]]:
    """Normalized name -> the rows of the places carrying it, in ascending id order (the one indexing rule).

    One pass over the name columns, on first use: a run never makes it. A
    posting list fills in row order, so the lists are sorted by id
    afterwards only if the ids do not ascend with the rows.
    """
    index: dict[str, list[int]] = {}
    get = index.get
    for row, (name, alternates) in enumerate(zip(columns.names, columns.alternates)):
        for each in (name, *alternates):
            key = " ".join(each.split()).casefold()  # normalize_name, inlined: this runs for every name of every row
            if fold_diacritics:
                key = normalize_name(key, True)
            if key:
                postings = get(key)
                if postings is None:
                    index[key] = [row]
                elif postings[-1] != row:
                    postings.append(row)
    if not columns.ascending():
        by_id = columns.ids.__getitem__
        for postings in index.values():
            postings.sort(key=by_id)
    return index


def _read_rows(lines, cols: dict, stats: IngestStats) -> PlaceColumns:
    """The one reader of tab-separated place rows: returns the place columns.

    In one pass over the lines, each row is parsed and validated, a row
    repeating an earlier id is skipped, and the place is appended to the
    columns in row order. No GazetteerEntry is built and no table by name
    is derived. Invalid and repeated rows are tallied in `stats`. While the
    accepted ids ascend, as in index bodies and GeoNames dumps, a repeat is
    found with no set of ids; the first id that does not ascend builds one.
    """
    id_c, name_c = cols["id"], cols["name"]
    lat_c, lon_c = cols["lat"], cols["lon"]
    alt_c = cols.get("alternates")
    pop_c = cols.get("population")
    fcl_c = cols.get("feature_class")
    fco_c = cols.get("feature_code")
    cty_c = cols.get("country")
    max_col = max(cols.values())
    split_at = max_col + 1  # columns past the last one read stay in one unsplit tail
    intern = sys.intern
    columns = PlaceColumns()
    # one bound append per column: this loop runs for every row of the table
    add_id, add_name, add_alternates, add_lat, add_lon, add_fcl, add_fco, add_population, add_country = (
        column.append for column in columns._columns()
    )
    last = _INT64_MIN - 1  # the last id accepted while the ids ascend
    seen: set[int] | None = None  # every id accepted, once they have not ascended
    for line in lines:
        stats.rows_read += 1
        parts = line.split("\t", split_at)
        if len(parts) <= split_at:
            if len(parts) <= max_col:
                stats.skip("short row")
                continue
            parts[max_col] = parts[max_col].rstrip("\n")  # the last column read ends the line
        try:
            entry_id = int(parts[id_c])
        except ValueError:
            stats.skip("bad id")
            continue
        if not _INT64_MIN <= entry_id <= _INT64_MAX:
            stats.skip("bad id")
            continue
        name = parts[name_c].strip()
        if not name:
            stats.skip("empty name")
            continue
        try:
            lat = float(parts[lat_c])
            lon = float(parts[lon_c])
        except ValueError:
            stats.skip("bad coordinate")
            continue
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):  # NaN fails every comparison
            stats.skip("coordinate out of range")
            continue
        population = 0
        if pop_c is not None and parts[pop_c]:
            try:
                population = int(parts[pop_c])
            except ValueError:
                stats.skip("bad population")
                continue
            if not 0 <= population <= _INT64_MAX:
                stats.skip("bad population")
                continue
        if seen is None and entry_id > last:
            last = entry_id
        else:
            if seen is None:
                seen = set(columns.ids)
            if entry_id in seen:
                stats.skip("duplicate id")
                continue
            seen.add(entry_id)
        alternates = ()
        if alt_c is not None and parts[alt_c]:
            alternates = tuple(a.strip() for a in parts[alt_c].split(",") if a.strip())
        add_id(entry_id)
        add_name(name)
        add_alternates(alternates)
        add_lat(lat)
        add_lon(lon)
        # few distinct values over many rows: one shared string each
        add_fcl(intern(parts[fcl_c].strip()) if fcl_c is not None else "")
        add_fco(intern(parts[fco_c].strip()) if fco_c is not None else "")
        add_population(population)
        add_country(intern(parts[cty_c].strip()) if cty_c is not None else "")
    return columns


def _read_text_rows(fh, cols: dict, stats: IngestStats, what: str) -> PlaceColumns:
    """`_read_rows` over the lines of a text stream; bytes that are not UTF-8 raise a GazetteerError led by `what`."""
    try:
        return _read_rows(fh, cols, stats)
    except UnicodeDecodeError as exc:
        raise GazetteerError(f"{what}: {exc}") from None


def ingest_gazetteer(
    path: str | Path, schema="geonames", fold_diacritics: bool = False
) -> tuple[Gazetteer, IngestStats]:
    """Ingest a tab-separated place table in one pass over its rows.

    `schema` is "geonames" for the 19-column GeoNames layout or a dict of
    zero-based column indices with at least id/name/lat/lon (optional:
    alternates, population, feature_class, feature_code, country). Rows
    violating field constraints, and later rows repeating an id, are
    skipped and tallied in the returned IngestStats, not fatal; an
    unreadable file or zero valid rows is.

    One pass, reading the file line by line, fills the place columns, and
    builds no GazetteerEntry. The ingest builds only the columns and hashes
    nothing: the lexicon and head table a builtin run reads, the name index
    that only `lookup` reads, and `digest()` are each built on first use,
    so a caller that needs none of them never pays for it.
    """
    cols = _check_schema(schema)
    stats = IngestStats()
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise GazetteerError(f"cannot read gazetteer file {path}: {exc}") from exc
    with fh:
        columns = _read_text_rows(fh, cols, stats, f"{path}: malformed gazetteer rows")
    stats.rows_ingested = len(columns)
    if not columns:
        raise GazetteerError(f"no valid rows in gazetteer file {path}")
    return Gazetteer(columns, fold_diacritics), stats


# A saved index is this JSON header line, which also holds the fold flag and
# the digest, followed by the digest rows of all places in id order: the
# body is exactly what `digest()` hashes after its fold line. An index
# without this layout marker predates it.
_INDEX_HEADER = {"format": "geobench-index", "layout": "digest-rows"}


def save_index(gazetteer: Gazetteer, path: str | Path) -> None:
    """Write a built gazetteer to an index file reloadable by load_index.

    Raises GazetteerError, naming the entry, if a place would not read
    back equal to itself (say, a name with a tab or an alternate name with
    a comma).
    """
    columns = gazetteer.columns
    order = columns.id_order()
    rows = list(_digest_rows(columns.in_id_order(order)))
    # all checked before the file is opened, so a refused entry leaves no partial index
    reread = _read_rows(rows, _DIGEST_COLUMNS, IngestStats())
    # the rows are in id order, so each row read back sits at its own position until the first that does not
    for position, (place, line) in enumerate(zip(columns.in_id_order(order), rows)):
        if line.count("\n") != 1 or position >= len(reread) or reread.fields(position) != place:
            raise GazetteerError(f"entry {place[0]} cannot be saved: its fields do not survive an index row")
    body = "".join(rows).encode("utf-8")
    h = _digest_hasher(gazetteer.fold_diacritics)
    h.update(body)
    header = {**_INDEX_HEADER, "fold_diacritics": gazetteer.fold_diacritics, "digest": h.hexdigest()}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(body)


def load_index(path: str | Path) -> Gazetteer:
    """Reload a gazetteer written by save_index.

    The body is hashed straight from the file, in chunks, and checked
    against the digest in the header; a file that fails the check is
    refused. The gazetteer keeps only the path, the body's offset, the fold
    flag and the digest, so a caller that needs only `digest()` holds none
    of the body. On first use of the columns, the body is
    read again, checked against the digest once more (a file changed since
    the load is refused) and parsed.
    """
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            offset = fh.tell()
    except OSError as exc:
        raise GazetteerError(f"cannot read index file {path}: {exc}") from exc
    try:
        header = json.loads(header_line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GazetteerError(f"malformed index header in {path}: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != _INDEX_HEADER["format"]:
        raise GazetteerError(f"{path} is not a saved gazetteer index")
    if header.get("layout") != _INDEX_HEADER["layout"]:
        raise GazetteerError(
            f"{path} is a gazetteer index in an older layout; rebuild it with `geobench gazetteer --out-index`"
        )
    fold = header.get("fold_diacritics", False)
    try:
        digest = hash_file(path, _digest_hasher(fold), offset)
    except OSError as exc:
        raise GazetteerError(f"cannot read index file {path}: {exc}") from exc
    if digest != header.get("digest"):
        raise GazetteerError(f"{path}: malformed index rows: the body does not match the digest in its header")
    if digest == _digest_hasher(fold).hexdigest():  # the digest of an empty body
        raise GazetteerError(f"no entries in index file {path}")
    return Gazetteer._from_index_body(str(path), offset, fold, digest)
