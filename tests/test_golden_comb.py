import hashlib
import json
from pathlib import Path

from sbk.combing import build_action_table, comb
from sbk.presentations import build_gamma_rp2, build_gamma_s2
from sbk.words import Word, format_gen, parse_word

GOLDEN = Path(__file__).resolve().parent / "golden_comb.json"
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

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
# sha256(...)[:16] of the gamma-s2 relator text per (n, m), recorded while the
# sphere relation was still written out in build_gamma_s2; at n = 1 its
# right-hand side is empty, so only these pins see the sign of that side
S2_RELATOR_DIGESTS = {
    (1, 1): "89ad2a693d62fec0", (1, 2): "92dceaaee45102ca", (1, 3): "774574f47cb2f934",
    (1, 4): "e6410b405c7e2474", (2, 1): "064b2f5501bb6aa4", (2, 2): "e737d63420003954",
    (2, 3): "be3291f3f0f65789", (2, 4): "ce0f21d9488b2b21", (3, 1): "77eec4afce1151d9",
    (3, 2): "2fcf4d3b9d4d0244", (3, 3): "42a613e4f2ed7456", (3, 4): "6c5c6617317e0c69",
    (4, 1): "3a9bf69acf7d2bf8", (4, 2): "6f24b7e789753add", (4, 3): "557de3ef7b6b10b2",
    (4, 4): "10be68494883cb5e",
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
    lines = [f"{format_gen(x)} {sign} {format_gen(b)}: {Word(table.row(x, sign, b))}"
             for x, sign in table.maps for b in table.basis]
    lines += [f"kappa {format_gen(x)} {sign}: {Word(table.decode_letters(tail))}"
              for (x, sign), (_, tail) in table.steps.items()]
    return sorted(lines)


def test_action_tables_and_relators_pinned():
    # the round trip certifies the rows at m = 5, 6 only up to inverse pairs;
    # these pins fix every row, kernel part and relator exactly
    assert {m: _digest(_table_lines(m)) for m in TABLE_DIGESTS} == TABLE_DIGESTS
    got = {(m, p): _digest([str(r) for r in build_gamma_rp2(m, p).relators])
           for m, p in RELATOR_DIGESTS}
    assert got == RELATOR_DIGESTS


def test_sphere_relators_pinned():
    got = {(n, m): _digest([str(r) for r in build_gamma_s2(n, m).relators])
           for n, m in S2_RELATOR_DIGESTS}
    assert got == S2_RELATOR_DIGESTS


def test_powers_match_pinned_digests():
    # the benchmark's digests of comb(m, g^N) for its seven (m, g), every N
    # from 1 to 160: the powers from N = 8 on are written out from their
    # closed forms (this test only reads that file)
    pinned = json.loads(EXPECTED.read_text())["powers"]
    keys = {tuple(key.split()[:2]) for key in pinned}
    assert len(keys) == 7 and len(pinned) == 7 * 160
    mismatches = []
    for m, name in sorted(keys):
        gen = parse_word(name)
        for n in range(1, 161):
            key = f"{m} {name} {n}"
            got = comb(int(m), gen ** n).to_json()
            if _digest([json.dumps(got)]) != pinned[key]:
                mismatches.append(key)
    assert mismatches == []
