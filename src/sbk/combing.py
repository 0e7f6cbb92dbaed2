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
basis is the defining conjugation relations read as automorphisms: the
row of x^sign, its images x^sign b x^-sign of the basis letters b, is
:func:`sbk.presentations.conjugates` with the eliminated letter expanded
(:func:`conjugation_row`, which checks its actor once per row; a band
actor reads one :func:`sbk.presentations.artin_row`), and one builder,
:func:`_kernel_rows`, makes the rows of the comber and of the tower action
:func:`sbk.abelian.omega_action`.  The kernel coinvariants
:func:`sbk.abelian.fn_kernel_coinvariants` read only the rows' exponent
sums, from the same relations and eliminated-letter table (:func:`_x_images`),
without building a row word.  The comber's rows live in
one :class:`ActionTable` per level, constructed as ``ActionTable(m)``,
which compiles them on first use into ``steps``: the rows and the kernel
part of every lower-level letter over the basis interned as ``1 .. r``,
with every letter b_i^e coded as one signed int (:func:`_code`).  By
Artin's representation every image phi_g(b_i) is a conjugate of a basis
letter, and most images of one row share their outer conjugator, so a
row is kept factored through an inner automorphism, phi_g = iota_P .
psi_g (:func:`_step`): the head P that a majority of the images are
conjugated by (:func:`_head`), the row of the short images psi_g(b_i) =
P^-1 phi_g(b_i) P built by :meth:`_Row.of`, and the kernel part t_g kept
as P^-1 t_g.  The kernel parts come from the section
(:func:`_section_parts`) through the comber's own step :func:`_act`, and
:meth:`ActionTable.round_trip_failures` certifies the compiled steps.
The table is the only store of per-level combing data, and
:func:`build_action_table` caches one table per m.  The
eliminated letters are expanded by solving the surface relation
(:func:`sbk.presentations.surface_relation`) for them, in one table per
top level (:func:`_x_images`).  The cold letterwise rewrites here (rows,
eliminated letters, the section) are :func:`sbk.words.substitute`.

:func:`comb` peels one kernel level at a time, down to the base level, with
a single right-to-left pass per level, :func:`_split_top`.  The pass is the
hot loop: it runs on coded words, one step F(a) = phi_g(a) * t_g = P *
psi_g(a) * (P^-1 t_g), :func:`_act`, per unit of exponent of each
lower-level letter g, so the conjugator that neighbouring images share is
neither pushed nor popped, and two letters on one generator merge by
adding their coded exponents (:func:`_reduce`).  Every coded word it
holds is reduced, so it decodes to letters one per coded letter, once
per level, each looked up in the
table's letter dict (:attr:`ActionTable.letters`).  It is the only loop
over :func:`_act` (compiling ``steps`` and the round trip apply it once per
row, :mod:`sbk.iterates` a few times per closed form): without the kernel
parts (with the end P^-1, :func:`_action`) it also gives the action of a
lower-level word on a kernel word.  That is how
:func:`sbk.abelian.keromega_action` builds the tower of the torsion-free
complement: one walk per actor and letter of the level basis gives the
actor's row of images, each index-2 basis word is mapped through that
row by one :func:`_act`, and the coded image goes to the one coset
rewrite, :func:`kernel_rewrite`, undecoded.  An eliminated letter A[j-1,j]
is a combing letter like any other (:func:`_eliminated`): below its level
it takes one step, walked once per table along its x-image through the
table's compiled rows; at its level it multiplies in its top word, the
solved surface relation; below that it is gone.  A power of a basis letter
stays one coded letter, mapped through that power of its image, and a
large power g^N of a lower-level letter is written out from a certified
closed form (:mod:`sbk.iterates`); a power of a reduced coded word, an image or a block
of such a form, is written out by one list repetition, w^N = P C^N P^-1
(:func:`_power_codes`).  Reduced words are unique, so the combed forms are
those the letterwise rewrite into the combing alphabet (:func:`to_x_letters`)
gives.  The private :func:`_comb_letters` takes the table factory as a
plain argument, so the verification suite can comb against a deliberately
corrupted table.  Combed-form equality is the canonical equality of this
library; it depends on the chosen section, which is fixed once and for all
here.
"""

from __future__ import annotations

import enum
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Iterable, Mapping, Sequence

from .homs import (Q_ONE, _checked_letters, check_letters, expand_even_crossings, iota_hat,
                   iota_sharp, q2_sharp)
from .presentations import SURFACE_RP2, SURFACE_S2, conjugates, surface_relation
from .words import (
    KIND_A,
    KIND_RHO,
    AlphabetError,
    Frozen,
    Gen,
    Letter,
    Word,
    concat_letters,
    gen_a,
    gen_level,
    gen_rho,
    invert_letters,
    reduce_letters,
    substitute,
)


def _solved_surface_relation(j: int, top: int, surface: str) -> tuple[Letter, ...]:
    """The surface relation at level j solved for A[j-1,j], reduced."""
    lhs, rhs = surface_relation(j, top, surface)
    cut = lhs.index((gen_a(j - 1, j), 1))
    return concat_letters(invert_letters(lhs[:cut]), rhs, invert_letters(lhs[cut + 1:]))


@lru_cache(maxsize=None)
def _x_images(top: int, surface: str = SURFACE_RP2) -> dict[Gen, tuple[Letter, ...]]:
    """Every eliminated A[j-1,j], j <= top, over the kernel bases: the surface
    relation at level j solved for it, built from the top level down, so
    the eliminated A[j,j+1] it contains is already expanded.  A word at
    level top contains no eliminated letter but A[top-1,top], whose image
    is the solved relation itself."""
    images: dict[Gen, tuple[Letter, ...]] = {}
    for j in range(top, 2, -1):
        images[gen_a(j - 1, j)] = substitute(_solved_surface_relation(j, top, surface), images)
    return images


def conjugation_row(x: Gen, sign: int, top: int, punctures: int = 2,
                    surface: str = SURFACE_RP2) -> list[tuple[Letter, ...]]:
    """The row of x^sign over the top-level kernel basis: for each letter b
    of :func:`kernel_basis` ``(top, surface)``, in basis order, the word
    equal to x^sign b x^-sign, for a letter ``x`` of the group below level
    ``top``.  The actor is checked once, and each word of the defining
    relations :func:`sbk.presentations.conjugates` is freely reduced with
    the eliminated letter A[top-1,top] expanded."""
    kinds = (KIND_RHO,) if surface == SURFACE_RP2 else ()
    check_letters(((x, sign),), punctures + 1, top - 1, kinds, "outside the conjugator levels")
    images = _x_images(top, surface)
    return [substitute(word, images) for word in conjugates(x, sign, kernel_basis(top, surface))]


def _kernel_rows(actors: Iterable[Gen], sign: int, top: int) -> list[list[tuple[Letter, ...]]]:
    """The :func:`conjugation_row` of each actor at level ``top``, over the
    projective plane with two punctures."""
    return [conjugation_row(x, sign, top) for x in actors]


def kernel_basis(top: int, surface: str = SURFACE_RP2) -> tuple[Gen, ...]:
    """Free basis of the kernel of forgetting strand ``top``: A[1,top], ...,
    A[top-2,top], then rho[top] on the projective plane (the band letter
    A[top-1,top] is eliminated by the surface relation)."""
    gens = tuple(gen_a(i, top) for i in range(1, top - 1))
    if surface == SURFACE_RP2:
        gens += (gen_rho(top),)
    return gens


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
            # b_i^e b_i^f = b_i^(e+f), e+f != 0 as the head did not cancel
            a, b = out[-1], piece[k]
            exp = ((a >> _SHIFT) + 1 if a > 0 else -(-a >> _SHIFT) - 1) \
                + ((b >> _SHIFT) + 1 if b > 0 else -(-b >> _SHIFT) - 1)
            code = (abs(exp) - 1) << _SHIFT | abs(a) & _MASK
            out[-1] = code if exp > 0 else -code
            k += 1
        out.extend(piece[k:] if k else piece)
    return out


def _power_codes(word: Sequence[int], n: int) -> list[int]:
    """The reduced n-th power, n >= 0, of a reduced coded word w = P C P^-1,
    P the longest: w^n = P C^n P^-1 (Lyndon and Schupp, I.2), where C^n is
    one letter when C is, c_0 (M c)^(n-1) M c_last when C's end letters
    merge to c, M its middle, and n copies of C otherwise."""
    if not n or not word:
        return []
    last = len(word) - 1
    k = 0
    while k < last - k and word[k] == -word[last - k]:
        k += 1
    core = list(word[k:last + 1 - k])
    if len(core) == 1:
        i, exp = _split_code(core[0])
        core = [_code(i, exp * n)]
    elif not (abs(core[0]) ^ abs(core[-1])) & _MASK:
        # c_last c_0 neither cancels (P is the longest) nor meets M's ends
        middle = core[1:-1]
        core = core[:1] + (middle + _reduce((core[-1:], core[:1]))) * (n - 1) + middle + core[-1:]
    else:
        core *= n
    return [*word[:k], *core, *word[last + 1 - k:]]


class _Row(dict):
    """The images of the letters b_i^e, keyed by code: those of e = +-1,
    and of e = +-2 when built by :meth:`_Row.of`, are stored; the image of
    any other power is that power of the image (:func:`_power_codes`),
    computed on lookup and not stored."""

    @classmethod
    def of(cls, images: Mapping[int, Sequence[int]]) -> _Row:
        """The row of b_i -> images[i], reduced coded words; squares are kept,
        as rows and kernel parts contain rho[j]^2."""
        row = cls()
        for i, image in images.items():
            for code, word in ((i, image), (_code(i, 2), _power_codes(image, 2))):
                row[code], row[-code] = tuple(word), tuple(_inverse(word))
        return row

    def __missing__(self, code: int) -> list[int]:
        i, exp = _split_code(code)
        image = self.get(i if exp > 0 else -i)  # not self[...]: it would recurse
        if image is None:
            raise KeyError(code)
        # in closed form, so a conjugate p b_j p^-1 stays short: p b_j^exp p^-1
        return _power_codes(image, abs(exp))


class _Letters(dict):
    """The letters b_i^e for e = +-1, +-2 over a level basis, keyed by code,
    the key set of a :class:`_Row`; a longer power is made on lookup and not
    stored."""

    @classmethod
    def of(cls, basis: Sequence[Gen]) -> _Letters:
        return cls({_code(i, exp): (b, exp) for i, b in enumerate(basis, 1)
                    for exp in (1, -1, 2, -2)})

    def __missing__(self, code: int) -> Letter:
        i, exp = _split_code(code)
        letter = self.get(i)  # not self[i]: it would recurse
        if letter is None:
            raise KeyError(code)
        return letter[0], exp


# A step F(a) = P * psi(a) * tail is ``(head, row, tail)``: the head P, the
# row of psi (a :class:`_Row`) and the end that follows psi's pieces; the
# action phi = iota_P . psi alone is the step with the end P^-1
# (:func:`_action`).
_Step = tuple[Sequence[int], Mapping[int, Sequence[int]], Sequence[int]]


def _act(codes: Sequence[int], step: _Step) -> list[int]:
    """The reduced coded word head * row(codes) * end for the step ``(head,
    row, end)``: the one step of the comber's hot loop, which also compiles
    the kernel parts, checks the round trip of :attr:`ActionTable.steps` and
    maps the basis words of :func:`sbk.abelian.keromega_action`."""
    head, row, end = step
    return _reduce(chain((head,), map(row.__getitem__, codes), (end,)))


def _action(step: _Step) -> _Step:
    """The step's action alone, a -> P psi(a) P^-1, P its head."""
    head, row, _ = step
    return head, row, _inverse(head)


def _head(images: Iterable[Sequence[int]]) -> list[int]:
    """The longest coded word P that more than half of the reduced ``images``
    are spelt conjugated by, P w P^-1 as they stand: a majority walk over
    their conjugators, one letter deeper per round, O(r |P|) for r images."""
    alive = list(images)
    need = len(alive) // 2 + 1
    head: list[int] = []
    while True:
        depth = len(head)
        # the images still spelt head * w * head^-1, with w = c w' c^-1
        codes = [image[depth] for image in alive
                 if len(image) > 2 * depth + 1 and image[depth] == -image[-1 - depth]]
        if len(codes) < need:
            return head
        code = max(set(codes), key=codes.count)
        if codes.count(code) < need:
            return head
        head.append(code)
        alive = [image for image in alive
                 if len(image) > 2 * depth + 1 and image[depth] == code == -image[-1 - depth]]


def _step(images: Mapping[int, Sequence[int]], lead: Sequence[int] = (),
          end: Sequence[int] = ()) -> _Step:
    """The step F(a) = phi(a) * phi(lead) * end, phi: b_i -> images[i]
    (reduced coded words), factored through the inner automorphism of its
    head P (:func:`_head`), phi = iota_P . psi: ``(P, row, tail)`` with
    ``row`` the images psi(b_i) = P^-1 phi(b_i) P (:meth:`_Row.of`) and
    ``tail`` = P^-1 phi(lead) end, so that F(a) = P psi(a) tail (:func:`_act`)."""
    head = _head(images.values())
    unhead = _inverse(head)
    row = _Row.of({i: _reduce((unhead, image, head)) for i, image in images.items()})
    return tuple(head), row, tuple(_act(lead, ((), row, _reduce((unhead, end)))))


def _inverse(codes: Sequence[int]) -> list[int]:
    return [-code for code in reversed(codes)]


# below this exponent a letter takes the plain loop: on short starts a kept form
# beats it from g^3 on, building the forms costs about g^14 by the plain loop
_POWER_MIN = 8


class ActionTable(Frozen):
    """The comber's coded rows and kernel parts for the lower-level
    generating letters on the rank m+1 kernel basis at strand level ``top``
    = m+2.  A table is constructed from ``m`` alone; ``steps`` is compiled
    from :func:`_kernel_rows` on first use.

    ``steps`` is over the basis b_1, ..., b_r interned as ``index[b_i] =
    i``, with every letter b_i^e coded as one signed int (:func:`_code`).
    ``steps[(x, sign)]`` is ``(head, row, tail)`` for every combing letter x
    below the top level and both signs, the step F(a) = head * row(a) * tail
    (:func:`_step`): conjugation phi by x^sign factored as phi(a) = head *
    row(a) * head^-1, where ``row[i]`` is the image psi(b_i) = head^-1
    phi(b_i) head as a tuple of coded letters, ``row[-i]`` the image of
    b_i^-1 (stored, not inverted on use), ``row[code]`` of any power b_i^e
    that power of the image, and ``tail`` is head^-1 times the kernel part
    x^sign * s(x^sign)^-1.  Basis letters themselves act by free conjugation
    and have no step.  ``letters`` decodes on the same keys: it holds the letter
    b_i^e of every code for e = +-1, +-2 and makes a longer power on lookup
    without keeping it (:class:`_Letters`).

    ``powers`` holds what the comber compiles on demand: the eliminated
    letters' steps, in the shape of ``steps``, and top words under ``(gen,
    sign)`` (:func:`_eliminated`), and the closed forms of
    :mod:`sbk.iterates` under ``((gen, sign), start letter, parity)``.
    ``powers`` is left out of equality: it fills as the comber goes.
    """

    _fields = ("m",)
    __hash__ = None

    def __init__(self, m: int):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "powers", {})

    @property
    def top(self) -> int:
        return self.m + 2

    @cached_property
    def basis(self) -> tuple[Gen, ...]:
        return kernel_basis(self.top)

    @cached_property
    def index(self) -> dict[Gen, int]:
        if len(self.basis) > _MASK:
            raise ValueError(f"a level basis of rank {len(self.basis)} is too large to code")
        return {b: i for i, b in enumerate(self.basis, 1)}

    def encode(self, letters: Iterable[Letter]) -> tuple[int, ...]:
        """The coded letters of a word over the basis, one per letter."""
        index = self.index
        return tuple(_code(index[gen], exp) for gen, exp in letters)

    @cached_property
    def letters(self) -> _Letters:
        return _Letters.of(self.basis)

    def decode_letters(self, codes: Iterable[int]) -> tuple[Letter, ...]:
        """The letters of a reduced coded word, one per coded letter, looked up
        in ``letters``."""
        # through a list, so the tuple is allocated once at its size: a tuple
        # grown from the iterator is reallocated as it grows, which raised the
        # peak RSS of a 20 s insertion benchmark run by about 4 MB (35 to 39
        # MB on a 2-core x86_64 host, Python 3.11)
        return tuple([*map(self.letters.__getitem__, codes)])

    @cached_property
    def steps(self) -> dict[tuple[Gen, int], _Step]:
        """The rows of :func:`_kernel_rows` and the kernel parts, coded and
        factored (:func:`_step`).

        The kernel part of g^sign comes from the section s(g) = left * g *
        right (:func:`_section_parts`): phi_g(right^-1) * left^-1 for g,
        phi_{g^-1}(left) * right for g^-1."""
        top = self.top
        images = _x_images(top)
        actors = x_alphabet(self.m - 1)
        steps: dict[tuple[Gen, int], _Step] = {}
        forward, backward = (_kernel_rows(actors, sign, top) for sign in (1, -1))
        for x, forward_images, backward_images in zip(actors, forward, backward):
            left, right = (substitute(part, images) for part in _section_parts(x, top))
            for sign, row_images, lead, end in (
                    (1, forward_images, invert_letters(right), invert_letters(left)),
                    (-1, backward_images, left, right)):
                steps[(x, sign)] = _step(
                    {i: self.encode(image) for i, image in enumerate(row_images, 1)},
                    self.encode(lead), self.encode(end))
        return steps

    def round_trip_failures(self) -> list[tuple[Gen, int, Gen]]:
        """The rows (x, sign, b) of ``steps`` that the opposite-sign action of
        x does not map back to b; empty when every pair x, x^-1 composes to
        the identity."""
        actions = {key: _action(step) for key, step in self.steps.items()}
        return [
            (x, sign, b)
            for (x, sign), action in actions.items()
            for i, b in enumerate(self.basis, 1)
            if _act(_act((i,), action), actions[(x, -sign)]) != [i]
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
    return ActionTable(m)


def to_x_letters(m: int, letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Rewrite a word over the full two-puncture alphabet into the combing
    alphabet (eliminated band generators A[j-1,j] are expanded).  The comber
    does not go through it: it combs an eliminated letter as it is
    (:func:`_eliminated`)."""
    return substitute(_checked_letters(m, letters), _x_images(m + 2))


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
    for gen, _ in _checked_letters(m - 1, w.letters):
        left, right = _section_parts(gen, m + 2)
        images[gen] = left + ((gen, 1),) + right
    return Word(substitute(w.letters, images))


class CombedForm(Frozen):
    """The combed normal form: components (omega_{m+1}, ..., omega_2),
    top kernel level first.  All components empty means the identity."""

    _fields = ("m", "components")

    def __init__(self, m: int, components: tuple[Word, ...]):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "components", components)

    @property
    def is_identity(self) -> bool:
        return all(c.is_identity for c in self.components)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.components]

    def __str__(self) -> str:
        return "(" + ", ".join(repr(str(c)) for c in self.components) + ")"


def _eliminated(table: ActionTable, key: tuple[Gen, int]):
    """What the eliminated letter A[j-1,j]^sign does in the pass at the
    table's level, compiled on first use and kept on ``table.powers`` under
    ``key``: at its own level j = top it multiplies in its coded top word, the
    solved surface relation, whose ends lie on different generators; below
    it, it takes one step ``(head, row, tail)``, F(a) = kernel(A[j-1,j]^sign
    . a) = head * row(a) * tail (:func:`_step`), walked (:func:`_walk`) along
    its x-image through the table's own compiled rows."""
    if key not in table.powers:
        gen, sign = key
        image = _x_images(table.top)[gen]
        letters = image if sign > 0 else invert_letters(image)
        if gen_level(gen) == table.top:
            table.powers[key] = table.encode(letters)
        else:
            tail = _walk(table, letters, [], True)
            untail = _inverse(tail)
            table.powers[key] = _step({i: _reduce((_walk(table, letters, [i], True), untail))
                                       for i in table.index.values()}, (), tail)
    return table.powers[key]


def _walk(table: ActionTable, letters: Sequence[Letter], codes: list[int],
          tails: bool) -> list[int]:
    """The reduced coded kernel component of ``letters . codes``, ``codes``
    reduced and not modified: the pass of :func:`_split_top`.  A lower-level
    letter g^e takes one step per unit of exponent below :data:`_POWER_MIN`,
    a larger power the closed form of :func:`~sbk.iterates._power`.  A
    top-level letter is a reduced piece, its code or |e| copies of an
    eliminated letter's top word (:func:`_eliminated`); the pieces met since
    the last step multiply in as one product, before the next step and last."""
    top = table.top
    index = table.index
    steps = table.steps
    forms = table.powers if tails else {}
    heads: list[Sequence[int]] = []  # top-level pieces, right to left
    for gen, exp in reversed(letters):
        key = (gen, 1 if exp > 0 else -1)
        if gen_level(gen) == top:
            # r(g) is trivial, so the letter just multiplies in on the left
            heads.append((_code(index[gen], exp),) if gen in index
                         else _eliminated(table, key) * abs(exp))
            continue
        if heads:
            codes = _reduce(chain(reversed(heads), (codes,)))
            heads = []
        step = steps.get(key) or _eliminated(table, key)
        if not tails:
            step = _action(step)
        if -_POWER_MIN < exp < _POWER_MIN:
            for _ in range(abs(exp)):
                codes = _act(codes, step)
        else:
            from .iterates import _power  # compiled on first use: few combs need it
            codes = _power(step, codes, abs(exp), forms, key)
    return _reduce(chain(reversed(heads), (codes,))) if heads else codes


def _split_top(table: ActionTable, letters: Sequence[Letter],
               tails: bool = True) -> tuple[Letter, ...]:
    """Kernel component of the word at the table's top level, by one
    right-to-left pass (:func:`_walk`) on coded letters, decoded once at the
    end: kernel(g . q) = conj_g(kernel(q)) . kernel_g.

    With ``tails=False`` the kernel parts kernel_g are left out, so the
    word u . v, with u below the top level and v at it, gives the action
    phi_u(v) of u on the kernel word v."""
    return table.decode_letters(_walk(table, letters, [], tails))


def _comb_letters(m: int, letters: Sequence[Letter],
                  table_factory: Callable[[int], ActionTable]) -> CombedForm:
    """Comb a letter sequence with the action tables ``table_factory(k)``
    for k = m, ..., 1, one per kernel level: each level splits the letters
    at and below it."""
    current = _checked_letters(m, letters)
    components: list[Word] = []
    for top in range(m + 2, 2, -1):
        current = reduce_letters(l for l in current if gen_level(l[0]) <= top)
        components.append(Word(_split_top(table_factory(top - 2), current)))
    return CombedForm(m, tuple(components))


def comb(m: int, w: Word) -> CombedForm:
    """The combed normal form of a word over the m-strand, two-puncture
    alphabet (eliminated band generators are accepted and expanded)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _comb_letters(m, w.letters, build_action_table)


def ln_membership(n: int, w: Word) -> bool:
    """Membership of a two-puncture word in the torsion-free complement:
    the mod-2 image on the last n-2 coordinates must vanish."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return not any(iota_hat(n - 2, w))


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
    try:
        _checked_letters(n - 2, w.letters)
    except AlphabetError:
        return Verdict.UNKNOWN
    return Verdict.TRIVIAL if comb(n - 2, w).is_identity else Verdict.NONTRIVIAL


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


def _coset_pairs(table: ActionTable) -> tuple[dict[int, tuple[int, int]], ...]:
    """The pairs (index, e) of the band letters b^e, e = +-1, +-2, keyed by
    code, in the cosets 1 and rho: the j-th band letter of the table's basis
    is index 2j of :func:`keromega_basis`, its rho-conjugate 2j + 1."""
    bands = [i for gen, i in table.index.items() if gen[0] == KIND_A]
    return tuple({_code(i, exp): (2 * j + state, exp) for j, i in enumerate(bands)
                  for exp in (1, -1, 2, -2)} for state in (0, 1))


def kernel_rewrite(l: int) -> Callable[[Iterable[int]], tuple[tuple[int, int], ...]]:
    """The rewrite of reduced coded words over the level-l kernel basis
    (that of ``build_action_table(l - 1)``) with even rho-exponent into the
    rank 2l-1 basis of :func:`keromega_basis`, as (basis index, exponent)
    pairs; index 2l-2 is rho[l+1]^2.  Standard coset rewriting over the
    transversal {1, rho}.

    A band letter of exponent +-1 or +-2 is its coset's shared pair
    (:func:`_coset_pairs`), built once per rewrite; rho[l+1]^e and longer
    powers are split (:func:`_split_code`).  The pairs are appended, never
    merged, and the result is reduced as the input is: two band letters
    whose pairs come out adjacent are either adjacent in the input, and so
    on different generators, or have one rho power between them, which
    either emits a square letter or flips the coset and with it the index;
    and two rho powers are never adjacent, so neither are two squares.  An
    odd rho-exponent raises ``ValueError``, and a code outside the basis
    ``KeyError``."""
    table = build_action_table(l - 1)
    rho = table.index[gen_rho(l + 1)]
    square = 2 * l - 2
    cosets = _coset_pairs(table)

    def rewrite(codes: Iterable[int]) -> tuple[tuple[int, int], ...]:
        out: list[tuple[int, int]] = []
        state = 0  # the coset: 1 after an odd rho-exponent
        pairs = cosets[0]
        for code in codes:
            pair = pairs.get(code)
            if pair is None:
                i, exp = _split_code(code)
                if i == rho:
                    # rho^(state + exp) = (rho^2)^q rho^state, state in {0, 1}:
                    # divmod floors, for a negative exponent too
                    q, state = divmod(state + exp, 2)
                    if q:
                        out.append((square, q))
                    pairs = cosets[state]
                    continue
                if i not in pairs:
                    raise KeyError(code)
                pair = pairs[i][0], exp
            out.append(pair)
        if state:
            raise ValueError("word has odd rho-exponent, not in the kernel")
        return tuple(out)

    return rewrite


def gamma_tower_ranks(n: int) -> list[int]:
    """Free-kernel ranks of the combing tower of the (n-2)-strand
    two-puncture group, counted from the level bases: [n-1, n-2, ..., 2]."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return [len(kernel_basis(top)) for top in range(n, 2, -1)]


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
