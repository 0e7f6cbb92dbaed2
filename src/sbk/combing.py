"""Artin combing for the two-puncture projective-plane braid groups.

The m-strand group with two punctures (strand labels 3 .. m+2) is an
iterated split extension by free groups: forgetting the last strand has
a free kernel of rank m+1 whose basis consists of the top-level letters

    A[1,m+2], ..., A[m,m+2], rho[m+2]

(the remaining top-level band generator ``A[m+1,m+2]`` is eliminated by
the surface relation), and the extension splits via an explicit section.
Iterating gives each element a unique *combed form*: a tuple of freely
reduced words (omega_{m+1}, ..., omega_2), one per kernel level, with

    w = omega_{m+1} * s(omega_m * s( ... s(omega_2) ... )).

The conjugation action of the lower-level generators on each kernel
basis is the defining conjugation relations read as automorphisms: one
:class:`ActionTable` per level, constructed as ``maps[(x, sign)][b] ->
image``, whose rows are :func:`sbk.presentations.conjugate` with the
eliminated letter expanded.  ``maps`` is the one constructed shape; the
table compiles one view from it on first use, ``steps``: the rows and the
kernel part of every lower-level letter over the basis interned as
``1 .. r``, with every letter b_i^e coded as one signed int
(:func:`_code`).  The kernel parts come from the section
(:func:`_section_parts`) through the comber's own step :func:`_act`, and
:meth:`ActionTable.round_trip_failures` certifies the compiled rows.  The
table is the only store of per-level combing data, and
:func:`build_action_table` caches one table per m.  The eliminated letters
are expanded by solving the surface relation
(:func:`sbk.presentations.surface_relation`) for them.  The cold
letterwise rewrites here (rows, eliminated letters, the section) are
:func:`sbk.words.substitute`.

:func:`comb` peels one kernel level at a time with a single right-to-left
pass per level, :func:`_split_top`.  The pass is the hot loop: it runs on
lists of coded letters, one step F(a) = phi_g(a) * t_g, :func:`_act`, per
unit of exponent of each lower-level letter g, and decodes to letters once
per level.  It is the only loop over :func:`_act` (compiling ``steps`` and
the round trip apply it once per row, :mod:`sbk.iterates` a few times per
closed form): without the kernel parts it also gives the action of a
lower-level word on a kernel word, which is how
:func:`sbk.abelian.keromega_action` builds the tower of the torsion-free
complement.  A power of a basis letter stays one coded letter, mapped
through that power of its image.  A large power g^N of a lower-level
letter, or of the x-image of an eliminated letter, kept as one run through
every level, is written out from a certified closed form
(:mod:`sbk.iterates`).  Reduced words are unique, so the combed forms are
those the letterwise rewrite gives.  The private :func:`_comb_letters`
takes the table factory as a plain argument, so the verification suite can
comb against a deliberately corrupted table.  Combed-form equality is the
canonical equality of this library; it depends on the chosen section,
which is fixed once and for all here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .homs import (Q_ONE, check_gamma_letter, expand_even_crossings, iota_hat,
                   iota_sharp, q2_sharp)
from .presentations import (SURFACE_RP2, SURFACE_S2, cln_letters, conjugate,
                            surface_relation)
from .words import (
    KIND_A,
    KIND_RHO,
    AlphabetError,
    Gen,
    Letter,
    Word,
    concat_letters,
    format_gen,
    gen_a,
    gen_level,
    gen_rho,
    invert_letters,
    push_letter,
    reduce_letters,
    substitute,
)


def _solved_surface_relation(j: int, top: int, surface: str) -> tuple[Letter, ...]:
    """The surface relation at level j solved for A[j-1,j], reduced."""
    lhs, rhs = surface_relation(j, top, surface)
    cut = lhs.index((gen_a(j - 1, j), 1))
    return concat_letters(invert_letters(lhs[:cut]), rhs, invert_letters(lhs[cut + 1:]))


@lru_cache(maxsize=None)
def _top_band_images(top: int, surface: str) -> dict[Gen, tuple[Letter, ...]]:
    return {gen_a(top - 1, top): _solved_surface_relation(top, top, surface)}


def _expand_top_band(letters: Iterable[Letter], top: int,
                     surface: str = SURFACE_RP2) -> tuple[Letter, ...]:
    """Expand the eliminated top band generator A[top-1,top] by the surface
    relation at level top, solved for it."""
    return substitute(letters, _top_band_images(top, surface))


def expand_C(i: int, j: int, top: int) -> Word:
    """The reflected band element C[i,j], with the eliminated generator
    A[top-1,top] surface-expanded when j is the top level."""
    if not 1 <= i < j <= top:
        raise ValueError(f"expand_C requires 1 <= i < j <= top, got ({i},{j},{top})")
    letters = cln_letters(i, j)
    if j == top:
        letters = _expand_top_band(letters, top)
    return Word.from_letters(letters)


def conjugation_row(x: Gen, sign: int, b: Gen, top: int, punctures: int = 2,
                    surface: str = SURFACE_RP2) -> tuple[Letter, ...]:
    """The word over the top-level kernel basis equal to x^sign b x^-sign.

    ``x`` is a generator at a level below ``top`` (a band generator
    A[r,s] with s < top, or on the projective plane a surface generator
    rho[k] with punctures < k < top); ``b`` is a kernel basis letter
    (A[i,top] with i <= top-2, or rho[top]).  The row is the defining
    relation :func:`sbk.presentations.conjugate` with the eliminated
    letter A[top-1,top] expanded, freely reduced.
    """
    if x[0] == KIND_RHO and surface != SURFACE_RP2:
        raise AlphabetError("surface generators only exist on the projective plane")
    if x[0] not in (KIND_A, KIND_RHO):
        raise AlphabetError(f"unexpected conjugator {format_gen(x)}")
    if not punctures + 1 <= gen_level(x) < top:
        raise AlphabetError(f"conjugator {format_gen(x)} outside level range")
    return _expand_top_band(conjugate(x, sign, b), top, surface)


def kernel_basis(top: int, surface: str = SURFACE_RP2) -> tuple[Gen, ...]:
    """Free basis of the kernel of forgetting strand ``top``: A[1,top], ...,
    A[top-2,top], then rho[top] on the projective plane (the band letter
    A[top-1,top] is eliminated by the surface relation)."""
    gens = tuple(gen_a(i, top) for i in range(1, top - 1))
    if surface == SURFACE_RP2:
        gens += (gen_rho(top),)
    return gens


def omega_basis(level: int) -> tuple[Gen, ...]:
    """Basis of the level-l free kernel: A[1,l+1], ..., A[l-1,l+1], rho[l+1]."""
    if level < 2:
        raise ValueError("kernel levels start at 2")
    return kernel_basis(level + 1)


# A letter b_i^e over a level basis b_1, ..., b_r is coded as one signed
# int: i for b_i, -i for b_i^-1 and +-((|e| - 1) << _SHIFT | i) for a
# longer power, so the inverse of a letter is its negative and a power of
# a generator stays one int however large its exponent.
_SHIFT = 16
_MASK = (1 << _SHIFT) - 1


def _code(i: int, exp: int) -> int:
    code = (abs(exp) - 1) << _SHIFT | i
    return code if exp > 0 else -code


def _split_code(code: int) -> tuple[int, int]:
    """``(i, e)`` for the coded letter b_i^e."""
    a = abs(code)
    exp = (a >> _SHIFT) + 1
    return a & _MASK, exp if code > 0 else -exp


def _reduce(pieces: Iterable[Sequence[int]]) -> list[int]:
    """The reduced product of reduced coded words, by reduce-on-push; a
    coded word is reduced when no two adjacent letters share a generator.

    Each piece is reduced, so once its head neither cancels nor merges,
    the rest of it cannot either: a piece pops the output while its head
    cancels, merges its head into a last letter on the same generator, and
    the remainder is appended in one go."""
    out: list[int] = []
    for piece in pieces:
        k = 0
        n = len(piece)
        while out and k < n and out[-1] == -piece[k]:
            out.pop()
            k += 1
        if out and k < n and not (abs(out[-1]) ^ abs(piece[k])) & _MASK:
            i, exp = _split_code(out[-1])
            out[-1] = _code(i, exp + _split_code(piece[k])[1])
            k += 1
        out.extend(piece[k:] if k else piece)
    return out


class _Row(dict):
    """The images of the letters b_i^e for e = +-1, +-2, keyed by code; the
    image of a longer power is computed on lookup and not stored."""

    def __missing__(self, code: int) -> list[int]:
        i, exp = _split_code(code)
        base = self[i if exp > 0 else -i]
        count = abs(exp)
        # by squaring, so a conjugate p b_j p^-1 stays short: p b_j^count p^-1
        out: list[int] = []
        while True:
            if count & 1:
                out = _reduce((out, base))
            count >>= 1
            if not count:
                return out
            base = _reduce((base, base))


def _act(codes: Sequence[int], row: Mapping[int, Sequence[int]],
         tail: Sequence[int] = ()) -> list[int]:
    """The reduced coded word row(codes) * tail: the one step F(a) = phi(a)
    * tail of the comber's hot loop, which also compiles the kernel parts and
    checks the round trip of :attr:`ActionTable.steps`."""
    return _reduce(chain(map(row.__getitem__, codes), (tail,)))


def _inverse(codes: Sequence[int]) -> list[int]:
    return [-code for code in reversed(codes)]


# below this exponent a letter takes the plain loop: on short starts a kept form
# beats it from g^3 on, building the forms costs about g^14 by the plain loop
_POWER_MIN = 8


@dataclass(frozen=True)
class ActionTable:
    """Conjugation rows of the lower-level generating letters on the rank
    m+1 kernel basis at strand level ``top`` = m+2.

    ``maps[(x, sign)][b]`` is the reduced word x^sign b x^-sign over the
    basis, for every combing letter x below the top level and both signs.
    Basis letters themselves act by free conjugation and are not stored.
    ``maps`` is the one constructed shape, and the abelian route reads
    only it; ``steps``, the rows and kernel parts the comber runs on, is
    compiled from it on first use.

    ``steps`` is over the basis b_1, ..., b_r interned as ``index[b_i] =
    i``, with every letter b_i^e coded as one signed int (:func:`_code`).
    ``steps[(x, sign)]`` is ``(row, tail)``: ``row[i]`` is the image of b_i
    under conjugation by x^sign as a tuple of coded letters, ``row[-i]``
    the image of b_i^-1 (stored, not inverted on use), ``row[code]`` of any
    power b_i^e that power of the image, and ``tail`` the kernel part
    x^sign * s(x^sign)^-1.
    """

    m: int
    maps: Mapping[tuple[Gen, int], Mapping[Gen, tuple[Letter, ...]]]
    # the forms and run steps of :mod:`sbk.iterates`, keyed by row keys and runs
    powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def top(self) -> int:
        return self.m + 2

    @cached_property
    def basis(self) -> tuple[Gen, ...]:
        return omega_basis(self.m + 1)

    @cached_property
    def index(self) -> dict[Gen, int]:
        if len(self.basis) > _MASK:
            raise ValueError(f"a level basis of rank {len(self.basis)} is too large to code")
        return {b: i for i, b in enumerate(self.basis, 1)}

    def row(self, x: Gen, sign: int, b: Gen) -> tuple[Letter, ...]:
        return self.maps[(x, sign)][b]

    def encode(self, letters: Iterable[Letter]) -> tuple[int, ...]:
        """The coded letters of a word over the basis, one per letter."""
        index = self.index
        return tuple(_code(index[gen], exp) for gen, exp in letters)

    def decode_letters(self, codes: Iterable[int]) -> tuple[Letter, ...]:
        """The letters of a coded word, run-length merged."""
        out: list[Letter] = []
        basis = self.basis
        for code in codes:
            i, exp = _split_code(code)
            push_letter(out, basis[i - 1], exp)
        return tuple(out)

    @cached_property
    def steps(self) -> dict[tuple[Gen, int], tuple[_Row, tuple[int, ...]]]:
        """The rows of ``maps`` and the kernel parts, coded.

        The kernel part of g^sign comes from the section s(g) = left * g *
        right (:func:`_section_parts`): phi_g(right^-1) * left^-1 for g,
        phi_{g^-1}(left) * right for g^-1."""
        index = self.index
        steps: dict[tuple[Gen, int], tuple[_Row, tuple[int, ...]]] = {}
        for (x, sign), row_map in self.maps.items():
            # squares are stored too: the rows and kernel parts contain
            # rho[j]^2, so nearly every longer power looked up is a square
            row = _Row((_code(i, exp), self.encode(substitute(((b, exp),), row_map)))
                       for b, i in index.items() for exp in (1, -1, 2, -2))
            left, right = (_expand_top_band(part, self.top)
                           for part in _section_parts(x, self.top))
            if sign > 0:
                left, right = invert_letters(right), invert_letters(left)
            tail = _act(self.encode(left), row, self.encode(right))
            steps[(x, sign)] = (row, tuple(tail))
        return steps

    def round_trip_failures(self) -> list[tuple[Gen, int, Gen]]:
        """The rows (x, sign, b) of ``steps`` that the opposite-sign row of x
        does not map back to b; empty when every pair x, x^-1 composes to
        the identity."""
        steps = self.steps
        return [
            (x, sign, b)
            for (x, sign), (row, _) in steps.items()
            for i, b in enumerate(self.basis, 1)
            if _act(row[i], steps[(x, -sign)][0]) != [i]
        ]


def x_alphabet(m: int) -> tuple[Gen, ...]:
    """The combing generating set: the kernel bases of levels 3 <= j <= m+2,
    that is A[i,j] with i <= j-2 and rho[j]."""
    return tuple(chain.from_iterable(kernel_basis(j) for j in range(3, m + 3)))


@lru_cache(maxsize=None)
def build_action_table(m: int) -> ActionTable:
    """Rows for every combing letter of levels 3 .. m+1, both signs, on
    the level-(m+1) kernel basis."""
    if m < 1:
        raise ValueError("m must be >= 1")
    top = m + 2
    basis = omega_basis(m + 1)
    return ActionTable(m, {(x, sign): {b: conjugation_row(x, sign, b, top) for b in basis}
                           for x in x_alphabet(m - 1) for sign in (1, -1)})


@lru_cache(maxsize=None)
def _x_images(m: int) -> dict[Gen, tuple[Letter, ...]]:
    """Every eliminated A[j-1,j] over the combing alphabet: the surface
    relation at level j solved for it, built from the top level down, so
    the eliminated A[j,j+1] it contains is already expanded."""
    images: dict[Gen, tuple[Letter, ...]] = {}
    for j in range(m + 2, 2, -1):
        images[gen_a(j - 1, j)] = substitute(
            _solved_surface_relation(j, m + 2, SURFACE_RP2), images)
    return images


def to_x_letters(m: int, letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Rewrite a word over the full two-puncture alphabet into the combing
    alphabet (eliminated band generators A[j-1,j] are expanded)."""
    return _flatten(_x_items(m, letters))


def _section_parts(gen: Gen, top: int) -> tuple[tuple[Letter, ...], tuple[Letter, ...]]:
    """``(left, right)`` with s(gen) = left * gen * right, for a letter
    below the strand level ``top``; the one statement of the section:

        A[1,j] -> A[j,top] A[1,j] A[j,top]^-1
        A[2,j] -> A[j,top] A[2,j]
        A[i,j] -> A[i,j]            (3 <= i < j)
        rho[j] -> rho[j] A[j,top]^-1
    """
    a = gen_a(gen_level(gen), top)
    if gen[0] == KIND_RHO:
        return (), ((a, -1),)
    if gen[1] == 1:
        return ((a, 1),), ((a, -1),)
    if gen[1] == 2:
        return ((a, 1),), ()
    return (), ()


def section_s(m: int, w: Word) -> Word:
    """The explicit splitting of strand forgetting, applied letterwise
    (:func:`_section_parts`) to a word over the (m-1)-strand alphabet
    (levels 3 .. m+1)."""
    if m < 2:
        raise ValueError("the section needs m >= 2")
    images: dict[Gen, tuple[Letter, ...]] = {}
    for gen, _ in w.letters:
        if gen[0] not in (KIND_A, KIND_RHO) or not 3 <= gen_level(gen) <= m + 1:
            raise AlphabetError(
                f"{format_gen(gen)} outside the section domain (levels 3..{m + 1})")
        left, right = _section_parts(gen, m + 2)
        images[gen] = left + ((gen, 1),) + right
    return Word(substitute(w.letters, images))


def strip_last(m: int, w: Word) -> Word:
    """Forget the last strand: delete every letter at level m+2."""
    top = m + 2
    return Word.from_letters(
        (gen, exp) for gen, exp in w.letters if gen_level(gen) < top
    )


@dataclass(frozen=True)
class CombedForm:
    """The combed normal form: components (omega_{m+1}, ..., omega_2),
    top kernel level first.  All components empty means the identity."""

    m: int
    components: tuple[Word, ...]

    @property
    def is_identity(self) -> bool:
        return all(c.is_identity for c in self.components)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.components]

    def __str__(self) -> str:
        return "(" + ", ".join(repr(str(c)) for c in self.components) + ")"


class _Run(NamedTuple):
    """``letters`` repeated ``count`` >= :data:`_POWER_MIN` times, the x-image of an
    input letter or its lower part; its ends differ and it touches no neighbour."""
    letters: tuple[Letter, ...]
    count: int


def _flatten(items: Iterable) -> tuple[Letter, ...]:
    return tuple(chain.from_iterable(
        item.letters * item.count if type(item) is _Run else (item,) for item in items))


def _push(items: list, gen: Gen, exp: int) -> None:
    """:func:`~sbk.words.push_letter`, writing out first a run the letter touches."""
    if items and type(items[-1]) is _Run and items[-1].letters[-1][0] == gen:
        items.extend(_flatten((items.pop(),)))
    push_letter(items, gen, exp)


def _push_run(items: list, letters: tuple[Letter, ...], count: int) -> None:
    """Push the reduced power letters^count, as a :class:`_Run` where it may be one."""
    last = (items[-1].letters if type(items[-1]) is _Run else items)[-1] if items else None
    if count >= _POWER_MIN and len(letters) > 1 and letters[0][0] != letters[-1][0] \
            and not (last and last[0] == letters[0][0]):
        items.append(_Run(letters, count))
    else:
        for gen, exp in (Word(letters) ** count).letters:
            _push(items, gen, exp)


def _x_items(m: int, letters: Iterable[Letter]) -> list:
    """:func:`to_x_letters` with the x-image of an eliminated letter g^e as one run."""
    images = _x_images(m)
    letters = tuple(letters)
    for gen, _ in letters:
        check_gamma_letter(gen, m, 2)
    if all(-_POWER_MIN < exp < _POWER_MIN or gen not in images for gen, exp in letters):
        return list(substitute(letters, images))  # no run: the plain rewrite, faster
    items: list = []
    for gen, exp in letters:
        if gen in images:
            _push_run(items, images[gen] if exp > 0 else invert_letters(images[gen]), abs(exp))
        else:
            _push(items, gen, exp)
    return items


def _lower_items(items: Iterable, top: int) -> list:
    """The items below strand level ``top``; a run passes down its word's lower part."""
    if not any(type(item) is _Run for item in items):
        return list(reduce_letters(l for l in items if gen_level(l[0]) < top))
    lower: list = []
    for item in items:
        if type(item) is _Run:
            part = reduce_letters(l for l in item.letters if gen_level(l[0]) < top)
            if part:
                _push_run(lower, part, item.count)
        elif gen_level(item[0]) < top:
            _push(lower, *item)
    return lower


def _walk(table: ActionTable, items: Sequence, codes: list[int], tails: bool) -> list[int]:
    """The coded kernel component of ``items . codes``: the pass of :func:`_split_top`."""
    top = table.top
    index = table.index
    steps = table.steps
    forms = table.powers if tails else {}
    for item in reversed(items):
        if type(item) is _Run:
            from .iterates import _run  # compiled on first use: few combs need it
            codes = _run(table, item, codes, tails)
            continue
        gen, exp = item
        if gen_level(gen) == top:
            # r(g) is trivial, so the letter just multiplies in on the left
            codes.insert(0, _code(index[gen], exp))
            continue
        key = (gen, 1 if exp > 0 else -1)
        row, tail = steps[key]
        if not tails:
            tail = ()
        if -_POWER_MIN < exp < _POWER_MIN:
            for _ in range(abs(exp)):
                codes = _act(codes, row, tail)
        else:
            from .iterates import _power
            codes = _power(row, tail, codes, abs(exp), forms, key)
    return codes


def _split_top(table: ActionTable, letters: Sequence,
               tails: bool = True) -> tuple[Letter, ...]:
    """Kernel component of the word at the table's top level, by one
    right-to-left pass (:func:`_walk`) on coded letters, decoded once at the
    end: kernel(g . q) = conj_g(kernel(q)) . kernel_g.  A letter g^e takes
    one step :func:`_act` per unit of exponent below :data:`_POWER_MIN`, a
    larger power or a :class:`_Run` the closed form of :func:`~sbk.iterates._power`.

    With ``tails=False`` the kernel parts kernel_g are left out, so the
    word u . v, with u below the top level and v at it, gives the action
    phi_u(v) of u on the kernel word v."""
    return table.decode_letters(_walk(table, letters, [], tails))


def _comb_letters(m: int, letters: Sequence[Letter],
                  table_factory: Callable[[int], ActionTable]) -> CombedForm:
    """Comb a letter sequence with the action tables ``table_factory(k)``
    for k = m, ..., 2 (one per kernel level above the base); runs pass down
    every level (:func:`_x_items`) and the base level writes them out."""
    current = _x_items(m, letters)
    components: list[Word] = []
    for top in range(m + 2, 3, -1):
        components.append(Word(_split_top(table_factory(top - 2), current)))
        current = _lower_items(current, top)
    components.append(Word(_flatten(current)))
    return CombedForm(m, tuple(components))


def comb(m: int, w: Word) -> CombedForm:
    """The combed normal form of a word over the m-strand, two-puncture
    alphabet (eliminated band generators are accepted and expanded)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _comb_letters(m, w.letters, build_action_table)


def is_trivial_gamma(m: int, w: Word) -> bool:
    """Word problem for the m-strand, two-puncture group."""
    return comb(m, w).is_identity


def ln_membership(n: int, w: Word) -> bool:
    """Membership of a two-puncture word in the torsion-free complement:
    the mod-2 image on the last n-2 coordinates must vanish."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return not any(iota_hat(n - 2, w))


def ln_word_problem(n: int, w: Word) -> bool:
    """Word problem restricted to members of the torsion-free complement."""
    if not ln_membership(n, w):
        raise ValueError("word is not a member (nonzero mod-2 image)")
    return is_trivial_gamma(n - 2, w)


def kn_membership(n: int, w: Word) -> bool:
    """Membership in the commutator subgroup of the n-strand group, i.e.
    the kernel of the mod-2 exponent map."""
    return not any(iota_sharp(n, w))


def kn_decompose(n: int, u: Word, eps: int) -> tuple[CombedForm, int]:
    """Decompose an element of the commutator subgroup presented as a pair
    (u, eps) encoding u * (full twist)^(2 eps): the combed form of u plus
    the central mod-2 exponent.  Requires u in the torsion-free part."""
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    if not ln_membership(n, u):
        raise ValueError("u is not in the torsion-free part")
    return comb(n - 2, u), eps


class Verdict(enum.Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"
    UNKNOWN = "unknown"


def pn_triviality(n: int, w: Word) -> Verdict:
    """Three-valued triviality test for pure words of the n-strand group.

    Nontrivial if a computed invariant (mod-2 image, quaternion image) is
    nontrivial; decided exactly for n <= 2 and for words over the
    two-puncture alphabet (via the combed form); otherwise unknown.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    w = expand_even_crossings(w)
    if w.is_identity:
        return Verdict.TRIVIAL
    if any(iota_sharp(n, w)):
        return Verdict.NONTRIVIAL
    if n == 1:
        return Verdict.TRIVIAL
    if q2_sharp(n, w) != Q_ONE:
        return Verdict.NONTRIVIAL
    if n == 2:
        return Verdict.TRIVIAL
    if all(
        gen[0] in (KIND_A, KIND_RHO) and 3 <= gen_level(gen) <= n
        for gen, _ in w.letters
    ):
        # words over the two-puncture alphabet: the combed form decides
        return Verdict.TRIVIAL if comb(n - 2, w).is_identity else Verdict.NONTRIVIAL
    return Verdict.UNKNOWN


def ln_generators(n: int) -> tuple[Word, ...]:
    """Generators of the torsion-free complement inside the (n-2)-strand
    two-puncture group: the index-2 kernel bases (:func:`keromega_basis`)
    of levels 2 .. n-1, that is A[i,j], rho[j] A[i,j] rho[j]^-1 and
    rho[j]^2."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return tuple(chain.from_iterable(keromega_basis(l) for l in range(2, n)))


def keromega_basis(l: int) -> tuple[Word, ...]:
    """Basis of the index-2 kernel of the level-l free factor: for each
    band letter A[k,l+1] both it and its rho-conjugate, then rho[l+1]^2;
    a free basis of rank 2l-1."""
    if l < 2:
        raise ValueError("kernel levels start at 2")
    top = l + 1
    r = gen_rho(top)
    out: list[Word] = []
    for k in range(1, l):
        a = gen_a(k, top)
        out.append(Word.of(a))
        out.append(Word.from_letters(((r, 1), (a, 1), (r, -1))))
    out.append(Word.of(r, 2))
    return tuple(out)


def rewrite_kernel_letters(l: int, letters: Iterable[Letter]) -> tuple[tuple[int, int], ...]:
    """Rewrite a word over the level-l kernel basis with even rho-exponent
    into the rank 2l-1 basis of :func:`keromega_basis`, returned as
    (basis index, exponent) pairs.

    Index layout: A[k,l+1] -> 2(k-1), its rho-conjugate -> 2(k-1)+1, and
    rho[l+1]^2 -> 2l-2.  Standard coset rewriting over the transversal
    {1, rho}.
    """
    top = l + 1
    rho_top = gen_rho(top)
    square_idx = 2 * l - 2
    out: list[tuple[int, int]] = []
    state = 0  # the coset: 1 after an odd rho-exponent
    for gen, exp in letters:
        if gen == rho_top:
            # rho^(state + exp) = (rho^2)^q rho^r with r in {0, 1}; floor
            # division gives the q, r of a negative exponent too
            state += exp
            push_letter(out, square_idx, state // 2)
            state %= 2
        elif gen[0] == KIND_A and gen[2] == top and gen[1] <= l - 1:
            push_letter(out, 2 * (gen[1] - 1) + state, exp)
        else:
            raise AlphabetError(f"{format_gen(gen)} is not a level-{l} kernel letter")
    if state:
        raise ValueError("word has odd rho-exponent, not in the kernel")
    return tuple(out)


def gamma_tower_ranks(n: int) -> list[int]:
    """Free-kernel ranks of the combing tower of the (n-2)-strand
    two-puncture group, counted from the level bases: [n-1, n-2, ..., 2]."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return [len(omega_basis(l)) for l in range(n - 1, 1, -1)]


def ln_tower_ranks(n: int) -> list[int]:
    """Free-kernel ranks of the tower of the torsion-free complement,
    counted from the index-2 kernel bases: [2n-3, 2n-5, ..., 3]."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return [len(keromega_basis(l)) for l in range(n - 1, 1, -1)]


def sphere_tower_ranks(n: int) -> list[int]:
    """Free-kernel ranks of the tower of the (n-3)-strand three-puncture
    sphere group, counted from the kernel bases at strand levels n .. 4:
    [n-2, ..., 2]."""
    if n < 4:
        raise ValueError("n must be >= 4")
    return [len(kernel_basis(top, SURFACE_S2)) for top in range(n, 3, -1)]
