"""Regenerate expected.json: the digests the powers and cli workloads
check their outputs against.

    python3 perfbench/make_expected.py

Run it only to record the outputs of a commit whose combed forms and
JSON payloads are known to be right; the benchmark then requires every
later commit to reproduce them byte for byte.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent)]

import workloads as wl  # noqa: E402
from sbk.combing import comb  # noqa: E402
from sbk.words import Word, parse_word  # noqa: E402

CATALOGUE_SEED = 70839


def main() -> int:
    powers = {}
    for m, names in wl.Powers.gens.items():
        for name in names:
            gen = parse_word(name).letters[0][0]
            for n in range(1, wl.Powers.max_n + 1):
                powers[wl.power_key(m, name, n)] = wl.form_digest(comb(m, Word.of(gen) ** n))
            print(f"powers m={m} {name}: N=1..{wl.Powers.max_n}", file=sys.stderr)
    env = wl.cli_env()
    cli = []
    for argv in wl.cli_catalogue(random.Random(CATALOGUE_SEED)):
        rc, out = wl.run_cli(argv, env)
        docs = wl.json_documents(out)
        if rc not in (0, 2) or docs is None or len(docs) != 1:
            raise SystemExit(f"catalogue entry {argv} gave exit {rc} and output {out!r}")
        if tuple(argv) == wl.VERIFY_ARGV and docs[0]["pass"] is not True:
            raise SystemExit("verify did not pass")
        cli.append([argv, rc, wl.digest(out)])
    print(f"cli: {len(cli)} commands", file=sys.stderr)
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump({"powers": powers, "cli": cli}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
