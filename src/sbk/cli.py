"""Command-line front end.

All results are printed as JSON on stdout; human-readable notes go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage or
input error.  The environment variable ``SBK_SEED`` seeds the
randomized verification cases.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import abelian, combing, homs, presentations, verify
from .words import parse_word


# the parameters each group family accepts
_FAMILY_PARAMS = {
    "pn-rp2": ("n",),
    "gamma-rp2": ("m", "p"),
    "gamma-s2": ("n", "m"),
    "ln": ("n",),
}


def _parse_group_spec(spec: str):
    """Parse group specs like ``pn-rp2:n=4`` or ``gamma-rp2:m=2,p=2``.

    Unknown families and unknown or repeated parameters are rejected;
    a missing parameter surfaces as a ``KeyError`` when it is read."""
    family, _, tail = spec.partition(":")
    family = family.strip()
    items: list[tuple[str, int]] = []
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            if not eq or not value.lstrip("-").isdigit():
                raise ValueError(f"bad group parameter {item!r} in {spec!r}")
            items.append((key.strip(), int(value)))
    if family not in _FAMILY_PARAMS:
        raise ValueError(f"unknown group family {family!r}")
    params: dict[str, int] = {}
    for key, value in items:
        if key not in _FAMILY_PARAMS[family]:
            raise ValueError(f"unknown parameter {key!r} for group family {family!r}")
        if key in params:
            raise ValueError(f"repeated group parameter {key!r} in {spec!r}")
        params[key] = value
    return family, params


def _build_from_spec(family: str, params: dict[str, int]) -> presentations.Presentation:
    if family == "pn-rp2":
        return presentations.build_pn_rp2(params["n"])
    if family == "gamma-rp2":
        return presentations.build_gamma_rp2(params["m"], params["p"])
    return presentations.build_gamma_s2(params["n"], params["m"])


def _emit(payload) -> None:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


def _cmd_nf(args) -> int:
    form = combing.comb(args.m, parse_word(args.word))
    _emit(form.to_json())
    return 0


def _cmd_eval(args) -> int:
    word = parse_word(args.word)
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
    if family == "ln":
        inv = abelian.ln_tower_abelianization(params["n"])
    else:
        inv = abelian.abelianize_presentation(_build_from_spec(family, params))
    _emit({"group": args.group, **inv.to_json(), "display": str(inv)})
    return 0


def _cmd_info(args) -> int:
    family, params = _parse_group_spec(args.group)
    if family == "ln":
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    ver = sub.add_parser("verify", help="run a bundled verification suite")
    ver.add_argument("--suite", required=True,
                     choices=sorted(verify.SUITES) + ["all"])
    ver.add_argument("--max-n", type=int, default=verify.DEFAULT_MAX_N,
                     dest="max_n",
                     help=f"strand bound, at most {verify.DESK_SCALE_BOUND} "
                          f"(default {verify.DEFAULT_MAX_N})")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        _emit({"error": str(err)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
