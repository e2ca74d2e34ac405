"""The benchmark's inputs are a pure function of the seed."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402


def _bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("kind", ["builtin", "warm", "overlap"])
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, kind):
    inputs.generate(tmp_path / "a", 5, kind, inputs.TOY)
    inputs.generate(tmp_path / "b", 5, kind, inputs.TOY)
    inputs.generate(tmp_path / "c", 6, kind, inputs.TOY)
    first, again, other = (_bytes(tmp_path / d) for d in "abc")
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)


def test_gazetteer_names_never_share_a_token_with_filler():
    import random

    gaz = inputs.Gazetteer(random.Random(3), inputs.TOY.gazetteer_rows)
    place = {t.lower() for name in gaz.candidates for t in name.split()}
    assert not place & set(gaz.filler)
    assert not place & {u.lower() for u in gaz.unknown}
