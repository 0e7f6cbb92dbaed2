import random

import pytest
from hypothesis import given, settings, strategies as st

from sbk.words import (
    Word,
    WordSyntaxError,
    format_word,
    gen_a,
    gen_rho,
    gen_sigma,
    gen_tau,
    invert_letters,
    parse_word,
    pow_letters,
    reduce_letters,
    substitute,
)


def test_parse_single_token():
    w = parse_word("A[1,2]")
    assert w.letters == ((("A", 1, 2), 1),)


def test_parse_surface_word():
    w = parse_word("rho[4] rho[3] rho[2] rho[1]")
    assert len(w.letters) == 4
    assert all(gen[0] == "rho" for gen, _ in w.letters)


def test_parse_merge_and_cancel():
    assert parse_word("A[1,3]^2 A[1,3]^-2").is_identity


def test_parse_merges_adjacent_runs():
    w = parse_word("rho[3] rho[3]^2 tau[1]")
    assert w.letters == ((("rho", 3), 3), (("tau", 1), 1))


def test_parse_transitive_cancellation():
    assert parse_word("A[1,2] tau[1] tau[1]^-1 A[1,2]^-1").is_identity


def test_parse_syntax_error_offset():
    with pytest.raises(WordSyntaxError) as info:
        parse_word("A[1,2] rho[x]")
    assert info.value.offset == 7


def test_parse_index_constraint():
    with pytest.raises(WordSyntaxError):
        parse_word("A[3,2]")


def test_parse_zero_exponent_rejected():
    with pytest.raises(WordSyntaxError):
        parse_word("rho[1]^0")


@pytest.mark.parametrize("text", ["A[\uff11,3]", "A[\u0661,\u0663]"])
def test_parse_accepts_ascii_digits_only(text):
    # fullwidth and Arabic-Indic digits are decimal to int(), not to the grammar
    with pytest.raises(WordSyntaxError) as info:
        parse_word(text)
    assert info.value.offset == 0


def test_invert_examples():
    assert str(~parse_word("A[1,2] rho[3]")) == "rho[3]^-1 A[1,2]^-1"
    assert (~Word()).is_identity
    assert str(~parse_word("tau[2]^3")) == "tau[2]^-3"


def test_concat_reduce_examples():
    assert (parse_word("A[1,3]") * parse_word("A[1,3]^-1")).is_identity
    assert str(parse_word("rho[1]") * parse_word("rho[2]")) == "rho[1] rho[2]"
    assert str(
        parse_word("rho[3]^2") * parse_word("rho[3]^-1 A[1,3]")
    ) == "rho[3] A[1,3]"


def test_format_omits_unit_exponent():
    assert format_word(parse_word("s[2]^1 s[1]^2")) == "s[2] s[1]^2"


gens = st.one_of(
    st.tuples(st.integers(1, 5), st.integers(2, 6))
    .filter(lambda t: t[0] < t[1])
    .map(lambda t: gen_a(*t)),
    st.integers(1, 6).map(gen_rho),
    st.integers(1, 6).map(gen_tau),
    st.integers(1, 5).map(gen_sigma),
)
words = st.lists(
    st.tuples(gens, st.integers(-3, 3).filter(bool)), max_size=12
).map(Word.from_letters)


@given(words)
def test_word_times_inverse_is_identity(w):
    assert (w * ~w).is_identity
    assert (~w * w).is_identity


@given(words)
def test_parse_format_round_trip(w):
    assert parse_word(format_word(w)) == w


@given(words)
def test_double_inverse(w):
    assert ~~w == w


@given(words, words, words)
def test_concat_reduce_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(words, st.integers(-4, 4))
def test_pow_matches_repeated_product(w, e):
    expected = Word()
    step = w if e >= 0 else ~w
    for _ in range(abs(e)):
        expected = expected * step
    assert w ** e == expected


def test_pow_letters_is_the_reduced_repetition():
    # against the reduction of e copies, on tuples left unreduced (zero
    # exponents, neighbours on one generator, P C P^-1 as written), with
    # cores whose end letters lie on one generator, for e < 0, e = 0, e > 0
    a, b, r = gen_a(1, 3), gen_a(2, 3), gen_rho(3)
    assert pow_letters(((a, 1), (b, 1), (a, 2)), 3) == \
        ((a, 1), (b, 1), (a, 3), (b, 1), (a, 3), (b, 1), (a, 2))
    assert pow_letters(((r, 1), (a, 1), (a, -1), (b, 2), (b, 0), (r, -1)), -2) == \
        ((r, 1), (b, -4), (r, -1))
    rng = random.Random(70839)
    alphabet = (a, b, r)
    for _ in range(3000):
        core = [(rng.choice(alphabet), rng.randint(-3, 3)) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.5:
            x = rng.choice(alphabet)
            core = [(x, rng.choice((-2, -1, 1, 2)))] + core + [(x, rng.choice((-3, -1, 1, 3)))]
        p = [(rng.choice(alphabet), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
        letters = tuple(p + core + [(g, -e) for g, e in reversed(p)])
        e = rng.randint(-6, 6)
        copies = letters * e if e >= 0 else invert_letters(letters) * -e
        assert pow_letters(letters, e) == reduce_letters(copies), (letters, e)


# substitute: a small alphabet, so that images cancel against each other
sub_gens = st.sampled_from([gen_a(1, 3), gen_a(2, 3), gen_rho(3), gen_rho(4)])
sub_letters = st.lists(st.tuples(sub_gens, st.integers(-4, 4)), max_size=8)
sub_images = st.dictionaries(sub_gens, st.one_of(
    st.just(()),                                        # the generator dies
    st.just(None),                                      # identity image
    st.tuples(st.tuples(sub_gens, st.integers(-3, 3).filter(bool))),  # one letter
    st.lists(st.tuples(sub_gens, st.integers(-3, 3).filter(bool)),
             min_size=2, max_size=5).map(tuple),
)).map(lambda images: {g: ((g, 1),) if im is None else im for g, im in images.items()})


def naive_substitute(letters, images):
    # g^e is |e| copies of the image of g, or of its inverse, then reduced
    out = []
    for gen, exp in letters:
        image = images.get(gen, ((gen, 1),))
        step = image if exp > 0 else invert_letters(image)
        out += list(step) * abs(exp)
    return reduce_letters(out)


@given(sub_letters, sub_images)
def test_substitute_matches_naive_expansion(letters, images):
    assert substitute(letters, images) == naive_substitute(letters, images)


@given(sub_letters, sub_letters, sub_images)
def test_substitute_is_a_homomorphism(u, v, images):
    assert substitute(u + v, images) == reduce_letters(
        substitute(u, images) + substitute(v, images))


# parser fuzz: the grammar's characters plus noise, and runs of real terms
grammar_noise = st.text(
    alphabet=st.one_of(st.sampled_from("Arhotaus[],^-0123456789 \t"), st.characters()),
    max_size=40,
)
term_text = st.tuples(
    st.sampled_from(["A[{},{}]", "rho[{}]", "tau[{}]", "s[{}]"]),
    st.integers(0, 7), st.integers(0, 7), st.integers(-3, 3),
).map(lambda t: t[0].format(t[1], t[2]) + ("" if t[3] == 1 else f"^{t[3]}"))
term_runs = st.lists(term_text, max_size=6).map(" ".join)


@settings(deadline=None, max_examples=300)
@given(st.one_of(grammar_noise, term_runs))
def test_parse_accepts_or_raises_syntax_error(text):
    try:
        w = parse_word(text)
    except WordSyntaxError:
        return
    assert parse_word(str(w)) == w


def test_parse_overlong_exponent_is_a_syntax_error():
    with pytest.raises(WordSyntaxError):
        parse_word("rho[1]^" + "1" * 5000)
