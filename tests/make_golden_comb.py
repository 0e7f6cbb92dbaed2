"""Write tests/golden_comb.json, the golden corpus of combed forms.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden_comb.py

Each entry is ``[m, word, combed form]`` with the word in the text grammar
and the combed form as ``CombedForm.to_json()``.  The corpus covers, for
m = 1..4, every relator of the two-puncture presentation, seeded random
words over the combing alphabet plus the eliminated letters A[j-1,j], and
small powers g^N of every such letter.  test_golden_comb.py checks that
``comb`` still reproduces every entry byte for byte; regenerate the file
only when the combed forms are meant to change.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from sbk.combing import comb, x_alphabet
from sbk.presentations import build_gamma_rp2
from sbk.words import Word, gen_a, parse_word

PATH = Path(__file__).resolve().parent / "golden_comb.json"
SEED = 70839
WORDS_PER_M = 60
MAX_LEN = {1: 10, 2: 10, 3: 6, 4: 4}
POWERS = (2, 3, 7, -5)


def corpus_words() -> list[tuple[int, str]]:
    rng = random.Random(SEED)
    out: list[tuple[int, str]] = []
    for m in range(1, 5):
        out += [(m, str(r)) for r in build_gamma_rp2(m, 2).relators]
        alphabet = x_alphabet(m) + tuple(gen_a(j - 1, j) for j in range(3, m + 3))
        for _ in range(WORDS_PER_M):
            w = Word.from_letters(
                (rng.choice(alphabet), rng.choice((1, -1)))
                for _ in range(rng.randint(0, MAX_LEN[m]))
            )
            out.append((m, str(w)))
        out += [(m, str(Word.of(g, n))) for g in alphabet for n in POWERS]
    return out


def main() -> None:
    entries = [[m, word, comb(m, parse_word(word)).to_json()]
               for m, word in corpus_words()]
    with open(PATH, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {PATH}")


if __name__ == "__main__":
    main()
