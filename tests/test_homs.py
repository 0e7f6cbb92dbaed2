import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from sbk import homs
from sbk.homs import (
    NonPureWordError,
    Q_I,
    Q_J,
    Q_K,
    Q_MINUS_ONE,
    Q_ONE,
    QuatElement,
    aij_from_sigma,
    forget_strands,
    format_z2,
    full_twist_pure,
    iota_hat,
    iota_sharp,
    q2_sharp,
    tau_from_rho,
)
from sbk.presentations import build_pn_rp2, build_gamma_rp2
from sbk.words import (
    KIND_SIGMA,
    KIND_TAU,
    AlphabetError,
    Word,
    gen_a,
    gen_level,
    gen_rho,
    gen_sigma,
    gen_tau,
    parse_word,
    substitute,
)


def test_iota_examples():
    assert iota_sharp(3, parse_word("A[1,2]")) == (0, 0, 0)
    assert iota_sharp(4, parse_word("rho[4] rho[3] rho[2] rho[1]")) == (1, 1, 1, 1)
    assert iota_sharp(2, Word()) == (0, 0)


def test_iota_rho_tau_agree():
    for k in range(1, 5):
        assert iota_sharp(4, Word.of(gen_rho(k))) == iota_sharp(4, Word.of(gen_tau(k)))


def test_iota_rejects_out_of_range():
    with pytest.raises(AlphabetError):
        iota_sharp(3, parse_word("rho[4]"))
    with pytest.raises(AlphabetError):
        iota_sharp(3, parse_word("A[1,4]"))


def test_iota_rejects_odd_crossings():
    with pytest.raises(NonPureWordError):
        iota_sharp(3, parse_word("s[1] rho[1] s[1]"))
    # even powers convert to a band generator and die
    assert iota_sharp(3, parse_word("s[2]^4")) == (0, 0, 0)


def test_iota_hat_examples():
    assert iota_hat(2, parse_word("rho[3]")) == (1, 0)
    assert iota_hat(2, parse_word("rho[3]^2")) == (0, 0)
    assert iota_hat(3, parse_word("A[1,5] rho[4]")) == (0, 1, 0)


def test_iota_hat_alphabet():
    with pytest.raises(AlphabetError):
        iota_hat(2, parse_word("rho[2]"))
    with pytest.raises(AlphabetError):
        iota_hat(2, parse_word("tau[3]"))


def test_iota_hat_is_iota_restriction():
    # on two-puncture words the full map is (0,0) ++ the restricted map
    for text in ("rho[3] A[1,4]", "rho[4]^3 A[2,3] rho[3]"):
        w = parse_word(text)
        assert iota_sharp(4, w) == (0, 0) + iota_hat(2, w)


def test_quaternion_table():
    assert Q_I * Q_J == Q_K
    assert Q_J * Q_I == QuatElement(-1, 3)
    assert Q_I * Q_I == Q_MINUS_ONE
    assert Q_J * Q_J == Q_MINUS_ONE
    assert Q_K * Q_K == Q_MINUS_ONE
    assert Q_J * Q_K == Q_I
    assert Q_K * Q_I == Q_J
    assert Q_MINUS_ONE * Q_MINUS_ONE == Q_ONE
    assert QuatElement(-1, 3) == Q_K.inverse()
    assert str(Q_I ** -1) == "-i"


def test_q2_fixed_identification():
    # the identification is legitimate because every two-strand relator
    # maps to 1 (see below); under it tau[1] evaluates to i
    assert q2_sharp(2, parse_word("tau[1]")) == Q_I
    assert q2_sharp(2, parse_word("tau[2]")) == Q_J
    assert q2_sharp(3, parse_word("A[1,3]")) == Q_ONE
    assert q2_sharp(3, parse_word("A[1,2]")) == Q_MINUS_ONE


def test_q2_and_iota_kill_relators():
    for n in range(2, 9):
        pres = build_pn_rp2(n)
        for rel in pres.relators:
            assert not any(iota_sharp(n, rel))
            assert q2_sharp(n, rel) == Q_ONE


def test_full_twist_images():
    for n in range(2, 7):
        ft = full_twist_pure(n)
        assert q2_sharp(n, ft) == Q_MINUS_ONE
        assert not any(iota_sharp(n, ft))


def test_q2_rho_images():
    # rho[1] -> i and rho[2] -> -j, forced by the alphabet conversion
    assert q2_sharp(2, parse_word("rho[1]")) == Q_I
    assert q2_sharp(2, parse_word("rho[2]")) == Q_J.inverse()
    # consistency: tau[k] equals its rho/A conversion under the map
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            assert q2_sharp(n, Word.of(gen_tau(k))) == q2_sharp(n, tau_from_rho(k, n))


def test_tau_from_rho_examples():
    assert str(tau_from_rho(3, 3)) == "rho[3]^-1"
    assert str(tau_from_rho(1, 3)) == "rho[1]^-1 A[1,2] A[1,3]"
    assert str(tau_from_rho(2, 4)) == "rho[2]^-1 A[2,3] A[2,4]"
    with pytest.raises(ValueError):
        tau_from_rho(4, 3)


def test_aij_from_sigma_examples():
    assert str(aij_from_sigma(1, 2)) == "s[1]^2"
    assert str(aij_from_sigma(1, 3)) == "s[2] s[1]^2 s[2]^-1"


def test_forget_examples():
    assert forget_strands(parse_word("A[3,4]"), 4, 2).is_identity
    assert str(forget_strands(parse_word("rho[1]"), 4, 2)) == "rho[1]"
    assert str(forget_strands(parse_word("rho[2] A[1,4] rho[3]"), 4, 3)) == "rho[2] rho[3]"


def test_forget_tau_conversion():
    # tau[1] at four strands maps onto the two-strand tau[1], written in
    # the rho/A alphabet
    assert forget_strands(parse_word("tau[1]"), 4, 2) == tau_from_rho(1, 2)


def test_forget_composes():
    words = [parse_word(t) for t in ("rho[2] A[1,4] rho[3]", "tau[2] A[3,4]^2", "A[1,2] rho[4]^-1")]
    for w in words:
        two_step = forget_strands(forget_strands(w, 4, 3), 3, 2)
        assert two_step == forget_strands(w, 4, 2)


def test_forget_large_tau_power_is_one_letter():
    # tau[2]'s image is forgotten before it is raised to the exponent, so
    # the million-fold power is never written out
    w = Word.of(gen_tau(2), 1000000)
    assert forget_strands(w, 3, 2) == Word.of(gen_rho(2), -1000000)


def _substitute_then_filter(w, frm, to):
    # strand forgetting as it was first written: the full rho/A image of
    # every tau letter, then the letters above ``to`` deleted
    w = homs.expand_even_crossings(w)
    images = {gen: tau_from_rho(gen[1], frm).letters
              for gen, _ in w.letters if gen[0] == KIND_TAU}
    return Word.from_letters((gen, exp) for gen, exp in substitute(w.letters, images)
                             if gen_level(gen) <= to)


def test_forget_matches_substitute_then_filter():
    rng = random.Random(19)
    for frm in range(2, 8):
        alphabet = ([gen_a(i, j) for j in range(2, frm + 1) for i in range(1, j)]
                    + [gen_rho(k) for k in range(1, frm + 1)]
                    + [gen_tau(k) for k in range(1, frm + 1)]
                    + [gen_sigma(i) for i in range(1, frm)])
        for to in range(1, frm):
            for _ in range(100):
                letters = []
                for _ in range(rng.randint(0, 12)):
                    gen = rng.choice(alphabet)
                    exp = rng.choice((1, -1, 2, -3))
                    letters.append((gen, 2 * exp if gen[0] == KIND_SIGMA else exp))
                w = Word.from_letters(letters)
                assert forget_strands(w, frm, to) == _substitute_then_filter(w, frm, to), \
                    (str(w), frm, to)


def test_format_z2():
    assert format_z2((1, 0, 1)) == "(1,0,1)"
    assert format_z2(()) == "()"


small_words = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.integers(1, 3), st.integers(2, 4))
            .filter(lambda t: t[0] < t[1])
            .map(lambda t: ("A", t[0], t[1])),
            st.integers(1, 4).map(lambda k: ("rho", k)),
            st.integers(1, 4).map(lambda k: ("tau", k)),
        ),
        st.integers(-3, 3).filter(bool),
    ),
    max_size=10,
).map(Word.from_letters)


@given(small_words, small_words)
def test_iota_is_a_homomorphism(u, v):
    uv = u * v
    left = iota_sharp(4, uv)
    expected = tuple((a + b) % 2 for a, b in zip(iota_sharp(4, u), iota_sharp(4, v)))
    assert left == expected


@given(small_words, small_words)
def test_q2_is_a_homomorphism(u, v):
    assert q2_sharp(4, u * v) == q2_sharp(4, u) * q2_sharp(4, v)


def test_iota_hat_kills_gamma_relators():
    for m in (1, 2, 3):
        for rel in build_gamma_rp2(m, 2).relators:
            assert not any(iota_hat(m, rel))


def _letter_rule_outcomes() -> list[str]:
    """``ok`` or the exception's class and message, for every one-letter
    word A[i,j] (1 <= i < j <= 6), rho[1..6] and tau[1..6] under each map
    that checks its alphabet."""
    from sbk.combing import comb

    maps = (
        lambda w: iota_sharp(3, w),
        lambda w: q2_sharp(3, w),
        lambda w: forget_strands(w, 3, 2),
        lambda w: iota_hat(2, w),
        lambda w: comb(2, w),
    )
    gens = [gen_a(i, j) for j in range(2, 7) for i in range(1, j)]
    gens += [gen_rho(k) for k in range(1, 7)] + [gen_tau(k) for k in range(1, 7)]
    out = []
    for gen in gens:
        for image in maps:
            try:
                image(Word.of(gen))
                out.append("ok")
            except Exception as exc:
                out.append(f"{type(exc).__name__}: {exc}")
    return out


# sha256 of the outcome list, recorded before the alphabet checks were
# folded into one letter rule; every message here is one the CLI can print
LETTER_RULE_DIGEST = "10755dd6e9e38eb387181835e6be6d5abe04e43ff8ee14309910cb66693211fc"


def test_letter_rule_outcomes_pinned():
    text = "\n".join(_letter_rule_outcomes())
    assert hashlib.sha256(text.encode()).hexdigest() == LETTER_RULE_DIGEST


def test_pn_triviality_lets_comb_errors_propagate(monkeypatch):
    from sbk import combing

    def broken(m, w):
        raise AlphabetError("raised inside comb")

    monkeypatch.setattr(combing, "comb", broken)
    # a two-puncture word that the mod-2 and quaternion images do not decide
    w = parse_word("A[1,3]^2")
    with pytest.raises(AlphabetError, match="raised inside comb"):
        combing.pn_triviality(3, w)
