"""Surface braid kit: words, presentations, Artin combing and exact
abelianization machinery for the braid groups of the sphere and the
projective plane.

The package imports none of its submodules: each public name below is
read from its submodule, importing it, the first time it is asked for,
so ``import sbk`` and every ``sbk`` command load only what they use."""

import importlib

# each public name -> the submodule that defines it (a submodule maps to itself)
_EXPORTS = {
    **dict.fromkeys(("words", "Word", "parse_word", "format_word"), "words"),
    **dict.fromkeys(("presentations", "Presentation", "build_pn_rp2", "build_gamma_rp2",
                     "build_gamma_s2"), "presentations"),
    **dict.fromkeys(("homs", "QuatElement", "iota_sharp", "iota_hat", "q2_sharp",
                     "forget_strands", "tau_from_rho", "aij_from_sigma", "full_twist_pure"),
                    "homs"),
    **dict.fromkeys(("combing", "ActionTable", "CombedForm", "build_action_table", "comb",
                     "section_s", "ln_membership", "pn_triviality", "ln_generators",
                     "keromega_basis", "gamma_tower_ranks", "ln_tower_ranks"), "combing"),
    **dict.fromkeys(("abelian", "AbelianInvariants", "IntMatrix", "snf",
                     "abelianize_presentation", "delta_coinvariants", "tower_abelianization",
                     "fn_kernel_coinvariants", "subgroup_count_exponent", "vcd_report"),
                    "abelian"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    submodule = importlib.import_module(f"{__name__}.{module}")
    return submodule if name == module else getattr(submodule, name)


def __dir__():
    return sorted({*globals(), *__all__})
