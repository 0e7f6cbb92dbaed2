"""Surface braid kit: words, presentations, Artin combing and exact
abelianization machinery for the braid groups of the sphere and the
projective plane."""

from .words import Word, parse_word, format_word
from .presentations import (
    Presentation,
    build_pn_rp2,
    build_gamma_rp2,
    build_gamma_s2,
    verify_relators,
)
from .homs import (
    QuatElement,
    iota_sharp,
    iota_hat,
    q2_sharp,
    forget_strands,
    tau_from_rho,
    aij_from_sigma,
    full_twist_pure,
)
from .combing import (
    ActionTable,
    CombedForm,
    build_action_table,
    comb,
    expand_C,
    section_s,
    strip_last,
    is_trivial_gamma,
    ln_membership,
    ln_word_problem,
    kn_membership,
    kn_decompose,
    pn_triviality,
    ln_generators,
    keromega_basis,
    gamma_tower_ranks,
    ln_tower_ranks,
)
from .abelian import (
    AbelianInvariants,
    IntMatrix,
    snf,
    abelianize_presentation,
    delta_coinvariants,
    tower_abelianization,
    fn_kernel_coinvariants,
    subgroup_count_exponent,
    vcd_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
