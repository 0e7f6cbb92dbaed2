import hashlib
import json
from pathlib import Path

from sbk.combing import build_action_table, comb
from sbk.presentations import build_gamma_rp2
from sbk.words import Word, format_gen, parse_word

GOLDEN = Path(__file__).resolve().parent / "golden_comb.json"

# sha256(...)[:16] of the sorted action-table rows and kernel parts per m,
# and of the gamma-rp2 relator text per (m, p), recorded while both were
# still written out case by case, before they were derived from the one
# statement of the conjugation relations and of the section
TABLE_DIGESTS = {
    1: "e3b0c44298fc1c14", 2: "116fe18717e1d5bb", 3: "e5fa696339aef5dd",
    4: "a9e847d5cbda6eda", 5: "5d5b0904f88f1e43", 6: "ad3e594e2ed0136f",
}
RELATOR_DIGESTS = {
    (1, 1): "0de87d31ecd8bbb3", (1, 2): "bba5ad454ed8c3d4", (1, 3): "26af271784087478",
    (2, 1): "f7c5c52c3d56f46e", (2, 2): "379b4f8b922dc58d", (2, 3): "2ca1066725f2224d",
    (3, 1): "99a0f46c6b324aef", (3, 2): "fd39716f901d1a32", (3, 3): "981d6685f7b842aa",
    (4, 1): "f7288be59c3b82c0", (4, 2): "db08471a3e0ca1de", (4, 3): "1adf2d57fbb956b1",
    (5, 1): "4159743fffc960fe", (5, 2): "1da5766094c36f3a", (5, 3): "e1946d945e2dd417",
    (6, 1): "7bec3ed83b769e2c", (6, 2): "409cb9c8caa2407d", (6, 3): "1e70835d188a456a",
}


def test_golden_comb_corpus():
    # frozen combed forms, written by make_golden_comb.py
    with open(GOLDEN) as fh:
        entries = json.load(fh)
    assert len(entries) > 400
    for m, word, expected in entries:
        got = comb(m, parse_word(word)).to_json()
        assert json.dumps(got) == json.dumps(expected), (m, word)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _table_lines(m):
    table = build_action_table(m)
    lines = [f"{format_gen(x)} {sign} {format_gen(b)}: {Word(image)}"
             for (x, sign), row_map in table.maps.items() for b, image in row_map.items()]
    lines += [f"kappa {format_gen(x)} {sign}: {Word(part)}"
              for (x, sign), part in table.kappa.items()]
    return sorted(lines)


def test_action_tables_and_relators_pinned():
    # the round trip certifies the rows at m = 5, 6 only up to inverse pairs;
    # these pins fix every row, kernel part and relator exactly
    assert {m: _digest(_table_lines(m)) for m in TABLE_DIGESTS} == TABLE_DIGESTS
    got = {(m, p): _digest([str(r) for r in build_gamma_rp2(m, p).relators])
           for m, p in RELATOR_DIGESTS}
    assert got == RELATOR_DIGESTS
