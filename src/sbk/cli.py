"""Command-line front end.

All results are printed as JSON on stdout; human-readable notes go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage or
input error, or an input that ran out of memory.  The environment
variable ``SBK_SEED`` seeds the randomized verification cases.

Each command imports the modules it runs, and only once its input has
been read, so that a call loads and compiles no more of sbk than it uses.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

# the largest strand count `sbk nf` accepts: every level's action table is
# built whatever the word, O(m^3) words in all; a cold `sbk nf --m 16` with
# `--word "rho[3]"` or `--word "rho[3] A[1,18]^-2"` takes 0.39 to 0.61 s and
# 33 MB max RSS (ten child runs each, no bytecode cache), and the comb of
# `rho[3]` at m = 40 takes 18 s and 640 MB (Python 3.11, 2-core Xeon)
NF_MAX_M = 16

# the largest strand count, punctures included, that `info` and `abelianize`
# accept for each group family.  pn-rp2 at n = 40 has 325,170 relations:
# `abelianize` reads them as a stream, one level's band rows at a time, and
# holds only exponent columns, 0.32-0.48 s and 20 MB max RSS.  The gamma
# families at 40 strands are of the same size (`abelianize` 0.29-0.40 s and
# 20-21 MB).  `info` writes every relator's text from its relation pair,
# 0.68-0.83 s and 54-61 MB at the caps of all three families; `abelianize`
# of the ln tower at n = 16, made one level at a time and rewritten from the
# comber's codes, takes 0.60-0.65 s and 27 MB (Python 3.11, 2-core Xeon; six
# `abelianize` and three `info` calls per cap, each in its own process).  `eval` caps its --n and --to
# at PN_RP2_MAX_N too.
PN_RP2_MAX_N = 40
GAMMA_RP2_MAX_STRANDS = 40
GAMMA_S2_MAX_STRANDS = 40
LN_MAX_N = 16

# CPython's parser reports an AST node it could not allocate as a missing
# field of its parent, as in "field 'target' is required for AnnAssign", or
# a rule it could not finish as a SyntaxError, as in "expected ':'".  sbk's
# own sources always compile, so either error, raised while a command
# compiles a module it imports lazily, means that memory ran out
_COMPILE_OUT_OF_MEMORY = re.compile(r"field '\w+' is required for \w+")

# the parameters each group family accepts, and its cap on their sum
_FAMILY_PARAMS = {
    "pn-rp2": (("n",), PN_RP2_MAX_N),
    "gamma-rp2": (("m", "p"), GAMMA_RP2_MAX_STRANDS),
    "gamma-s2": (("n", "m"), GAMMA_S2_MAX_STRANDS),
    "ln": (("n",), LN_MAX_N),
}


def _parse_group_spec(spec: str):
    """Parse group specs like ``pn-rp2:n=4`` or ``gamma-rp2:m=2,p=2``.

    Unknown families, unknown or repeated parameters and strand counts above
    the family's cap are rejected; a missing parameter surfaces as a
    ``KeyError`` when it is read, and a parameter below 1 is left to the
    group's own check."""
    family, _, tail = spec.partition(":")
    family = family.strip()
    items: list[tuple[str, int]] = []
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            if not eq or not re.fullmatch(r"-?[0-9]+", value):
                raise ValueError(f"bad group parameter {item!r} in {spec!r}")
            items.append((key.strip(), int(value)))
    if family not in _FAMILY_PARAMS:
        raise ValueError(f"unknown group family {family!r}")
    names, cap = _FAMILY_PARAMS[family]
    params: dict[str, int] = {}
    for key, value in items:
        if key not in names:
            raise ValueError(f"unknown parameter {key!r} for group family {family!r}")
        if key in params:
            raise ValueError(f"repeated group parameter {key!r} in {spec!r}")
        params[key] = value
    values = [params[key] for key in names]
    if min(values) >= 1 and sum(values) > cap:
        raise ValueError(f"{' + '.join(names)} must be at most {cap}")
    return family, params


def _build_from_spec(family: str, params: dict[str, int]):
    from . import presentations

    if family == "pn-rp2":
        return presentations.build_pn_rp2(params["n"])
    if family == "gamma-rp2":
        return presentations.build_gamma_rp2(params["m"], params["p"])
    return presentations.build_gamma_s2(params["n"], params["m"])


def _emit(payload) -> None:
    try:
        json.dump(payload, sys.stdout)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early: the flush at exit writes to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_nf(args) -> int:
    from .words import parse_word

    word = parse_word(args.word)
    if args.m > NF_MAX_M:
        raise ValueError(f"m must be between 1 and {NF_MAX_M}")
    from . import combing  # comb rejects m < 1

    form = combing.comb(args.m, word)
    _emit(form.to_json())
    return 0


def _cmd_eval(args) -> int:
    from .words import parse_word

    word = parse_word(args.word)
    # a value and the work to reach it grow with the strand count
    if max(args.n, args.to or 0) > PN_RP2_MAX_N:
        raise ValueError(f"n must be at most {PN_RP2_MAX_N}")
    from . import homs

    if args.hom in ("iota", "abelianize"):
        # the mod-2 exponent map is the abelianization of the n-strand group
        bits = homs.iota_sharp(args.n, word)
        _emit({"value": list(bits), "display": homs.format_z2(bits)})
    elif args.hom == "iota-hat":
        bits = homs.iota_hat(args.n, word)
        _emit({"value": list(bits), "display": homs.format_z2(bits)})
    elif args.hom == "q2":
        _emit({"value": str(homs.q2_sharp(args.n, word))})
    elif args.hom == "forget":
        if args.to is None:
            raise ValueError("--to is required for the forget homomorphism")
        _emit({"value": str(homs.forget_strands(word, args.n, args.to))})
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown homomorphism {args.hom!r}")
    return 0


def _cmd_abelianize(args) -> int:
    family, params = _parse_group_spec(args.group)
    from . import abelian

    if family == "ln":
        inv = abelian.ln_tower_abelianization(params["n"])
    else:
        inv = abelian.abelianize_presentation(_build_from_spec(family, params))
    _emit({"group": args.group, **inv.to_json(), "display": str(inv)})
    return 0


def _cmd_info(args) -> int:
    family, params = _parse_group_spec(args.group)
    if family == "ln":
        from . import combing

        n = params["n"]
        _emit({
            "family": "ln",
            "params": {"n": n},
            "generators": [str(g) for g in combing.ln_generators(n)],
            "tower_ranks": combing.ln_tower_ranks(n),
        })
        return 0
    pres = _build_from_spec(family, params)
    payload = pres.to_json()
    payload["generator_count"] = len(pres.generators)
    payload["relator_count"] = len(pres.relators)
    _emit(payload)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    seed = int(os.environ.get("SBK_SEED", verify.DEFAULT_SEED))
    reports = verify.run_suite(args.suite, args.max_n, seed)
    passed = all(r.passed for r in reports)
    payload = {
        "suites": [r.to_json() for r in reports],
        "pass": passed,
    }
    for report in reports:
        failed = sum(1 for c in report.cases if not c.passed)
        print(
            f"suite {report.suite}: {len(report.cases) - failed}/{len(report.cases)} passed",
            file=sys.stderr,
        )
    _emit(payload)
    return 0 if passed else 1


class _JsonErrorParser(argparse.ArgumentParser):
    """An argument parser whose usage errors also print the JSON error
    document on stdout; the usage text still goes to stderr and the exit
    code is still 2.  Subparsers are built from the same class.

    ``add_arguments(parser)``, when given, adds the parser's arguments the
    first time it parses, that is once its subcommand has been chosen."""

    def __init__(self, *args, add_arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            self._add_arguments(self)
            self._add_arguments = None
        return super().parse_known_args(args, namespace)

    def error(self, message):
        _emit({"error": message})
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(
        prog="sbk",
        description="surface braid words, presentations, combing and abelianization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    nf = sub.add_parser("nf", help="combed normal form of a two-puncture word")
    nf.add_argument("--m", type=int, required=True, help="strand count")
    nf.add_argument("--word", required=True)
    nf.set_defaults(func=_cmd_nf)

    ev = sub.add_parser("eval", help="evaluate a homomorphism on a word")
    ev.add_argument("--hom", required=True,
                    choices=["iota", "iota-hat", "q2", "forget", "abelianize"])
    ev.add_argument("--n", type=int, required=True,
                    help="strand count (for iota-hat: the vector length m)")
    ev.add_argument("--to", type=int, help="target strand count for forget")
    ev.add_argument("--word", required=True)
    ev.set_defaults(func=_cmd_eval)

    ab = sub.add_parser("abelianize", help="abelianization of a group spec")
    ab.add_argument("--group", required=True,
                    help='e.g. "pn-rp2:n=4", "gamma-rp2:m=2,p=2", "ln:n=4"')
    ab.set_defaults(func=_cmd_abelianize)

    info = sub.add_parser("info", help="presentation data for a group spec")
    info.add_argument("--group", required=True)
    info.set_defaults(func=_cmd_info)

    ver = sub.add_parser("verify", help="run a bundled verification suite",
                         add_arguments=_add_verify_arguments)
    ver.set_defaults(func=_cmd_verify)
    return parser


def _add_verify_arguments(ver: argparse.ArgumentParser) -> None:
    """The verify subcommand's arguments, read from sbk.verify: added only
    once that subcommand is parsed, so no other command imports it."""
    from . import verify

    ver.add_argument("--suite", required=True,
                     choices=sorted(verify.SUITES) + ["all"])
    ver.add_argument("--max-n", type=int, default=verify.DEFAULT_MAX_N,
                     dest="max_n",
                     help=f"strand bound, at most {verify.DESK_SCALE_BOUND} "
                          f"(default {verify.DEFAULT_MAX_N})")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:  # usage errors (code 2) and --help (code 0)
        return stop.code
    # MemoryError is matched first and on its own: building the tuple of
    # the other clauses allocates, and so can fail while memory is exhausted.
    # An OverflowError is a size past the index range, as a power w^N
    # written out by list repetition with N past sys.maxsize: no memory
    # could hold it
    try:
        return args.func(args)
    except MemoryError:
        message = "out of memory"
    except (SyntaxError, OverflowError):
        message = "out of memory"
    except (ValueError, KeyError) as err:
        message = str(err)
    if _COMPILE_OUT_OF_MEMORY.fullmatch(message):
        message = "out of memory"
    # reported only once the except block has dropped the error: its
    # traceback holds the failed command's frames, and with them its memory
    print(f"error: {message}", file=sys.stderr)
    _emit({"error": message})
    return 2


if __name__ == "__main__":
    sys.exit(main())
