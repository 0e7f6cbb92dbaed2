import json
from pathlib import Path

from sbk.combing import comb
from sbk.words import parse_word

GOLDEN = Path(__file__).resolve().parent / "golden_comb.json"


def test_golden_comb_corpus():
    # frozen combed forms, written by make_golden_comb.py
    with open(GOLDEN) as fh:
        entries = json.load(fh)
    assert len(entries) > 400
    for m, word, expected in entries:
        got = comb(m, parse_word(word)).to_json()
        assert json.dumps(got) == json.dumps(expected), (m, word)
