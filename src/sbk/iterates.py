"""Closed forms for the powers of a comb step F(a) = phi(a) * t: phi acts like
a Dehn twist, so the iterates are block periodic, W_0 D_1^i W_1 ... D_k^i W_k
(Cohen and Lustig, Comment. Math. Helv. 74, 1999), read off a few plain steps,
proved by a finite check and written out in linear time.  :mod:`sbk.combing`
imports this on first use, so combing no large power never compiles it."""

from __future__ import annotations

from difflib import SequenceMatcher
from itertools import chain
from typing import Callable, Mapping, Sequence

from .combing import (_MASK, _POWER_MIN, _SHIFT, ActionTable, _Row, _Run, _act, _code,
                      _inverse, _reduce, _split_code, _walk, gen_level)


def _halves(block: list[int]) -> list[list[int]] | None:
    """``block`` as s_1 s_1 s_2 s_2 ... s_r s_r, the longest s_1 first."""
    for cut in range(len(block) // 2, 0, -1):
        rest = _halves(block[2 * cut:]) if block[:cut] == block[cut:2 * cut] else None
        if rest is not None:
            return [block[:cut]] + rest
    return None if block else []


def _guess(x: Sequence[int], z: Sequence[int]
           ) -> tuple[list[list[int]], list[list[int]]] | None:
    """The block form ``(W, D)`` with E(0) = x and E(2) = z, letters spelt in
    units so that growing exponents read as insertions; each run z inserts,
    slid left and merged with a run it meets, must read s_1 s_1 ... s_r s_r."""
    if any(abs(code) >> (_SHIFT + 6) for code in chain(x, z)):
        return None  # exponents of 64 and more are too long to spell out
    ux, uz = ([i if e > 0 else -i for i, e in map(_split_code, w) for _ in range(abs(e))]
              for w in (x, z))
    runs: list[tuple[int, list[int]]] = []
    for tag, i1, _, j1, j2 in SequenceMatcher(None, ux, uz, autojunk=False).get_opcodes():
        if tag == "equal":
            continue
        if tag != "insert":
            return None
        at, run = i1, uz[j1:j2]
        while True:
            if runs and runs[-1][0] == at:
                run = runs.pop()[1] + run
            elif at and ux[at - 1] == run[-1]:
                at, run = at - 1, [run[-1]] + run[:-1]
            else:
                break
        runs.append((at, run))
    split = [_halves(run) for _, run in runs]
    if None in split:
        return None
    bounds = [0] + [at for (at, _), halves in zip(runs, split) for _ in halves] + [len(ux)]
    blocks = [block for halves in split for block in halves]
    recode = lambda units: _reduce([unit] for unit in units)  # noqa: E731
    return ([recode(ux[a:b]) for a, b in zip(bounds, bounds[1:])],
            [recode(block) for block in blocks])


def _certify(W: list[list[int]], D: list[list[int]],
             psi: Callable[[Sequence[int]], list[int]], tau: Sequence[int]) -> bool:
    """Whether psi(E(i)) * tau = E(i+1) for all i >= 0, E the form ``(W, D)``, psi
    a homomorphism: X_0 = 1, X_(t+1) = (W_t D_(t+1))^-1 X_t psi(W_t), X_(t+1)
    psi(D_(t+1)) = D_(t+1) X_(t+1) and X_k psi(W_k) tau = W_k give, by induction
    on t, psi(W_0 ... D_t^i W_t) = W_0 ... D_t^(i+1) W_t D_(t+1) X_(t+1)."""
    x: list[int] = []
    for w, d in zip(W, D):
        x = _reduce((_inverse(d), _inverse(w), x, psi(w)))
        if _reduce((x, psi(d))) != _reduce((d, x)):
            return False
    return _reduce((x, psi(W[-1]), tau)) == W[-1]


def _is_hom(row: Mapping[int, Sequence[int]]) -> bool:
    """Whether the letterwise map of ``row`` is a free-group homomorphism, as compiled rows are."""
    return all(list(row[-i]) == _inverse(row[i])
               and list(row[_code(i, 2)]) == _reduce((row[i], row[i]))
               and list(row[_code(i, -2)]) == _inverse(row[_code(i, 2)])
               for i in row if 0 < i <= _MASK)


def _closed_form(row: Mapping[int, Sequence[int]], tail: Sequence[int],
                 start: Sequence[int], parity: int) -> tuple | None:
    """``(base, q, W, D)``, a certified block form E(i) of F^(base + q i)(start)
    for F(a) = row(a) * tail, row a homomorphism, base = 2 + parity mod q (two
    steps let cancellation settle); ``None`` where no form of period <= 2 does."""
    seq = [list(start)]
    for _ in range(7):
        seq.append(_act(seq[-1], row, tail))
    for q in (1, 2):
        base = 2 + parity % q
        form = _guess(seq[base], seq[base + 2 * q])
        psi = (lambda w: _act(w, row)) if q == 1 else (lambda w: _act(_act(w, row), row))
        if form and _certify(*form, psi, tail if q == 1 else _act(tail, row, tail)):
            return (base, q) + form
    return None


def _iterate(row: Mapping[int, Sequence[int]], tail: Sequence[int],
             start: tuple[int, ...], n: int, forms: dict, key: tuple) -> list[int] | None:
    """F^n(start) from its form, kept in ``forms`` under ``key + (n % 2,)``, or None."""
    if key + (n % 2,) not in forms:
        forms[key + (n % 2,)] = _closed_form(row, tail, start, n % 2)
    if forms[key + (n % 2,)] is None:
        return None
    base, q, W, D = forms[key + (n % 2,)]
    pieces: list[Sequence[int]] = [W[0]]
    for w, d in zip(W[1:], D):
        clean = (abs(d[0]) ^ abs(d[-1])) & _MASK  # its copies neither merge nor cancel
        pieces += (d * ((n - base) // q) if clean else _reduce([d] * ((n - base) // q)), w)
    return _reduce(pieces)


def _power(row: Mapping[int, Sequence[int]], tail: Sequence[int],
           start: Sequence[int], n: int, forms: dict, key: object) -> list[int]:
    """F^n(start) for F(a) = row(a) * tail: F^n(a) = phi^n(a) * F^n(1) for a
    homomorphism phi, so ``start`` takes one step through b_i -> phi^n(b_i) and
    F^n(1), forms kept under ``(key, i, parity)``, i = 0 for F^n(1); else plain."""
    if n >= _POWER_MIN and _is_hom(row):
        power = _iterate(row, tail, (), n, forms, (key, 0))
        image = _Row((i, _iterate(row, (), (i,), n, forms, (key, i)))
                     for i in {abs(code) & _MASK for code in start})
        if power is not None and None not in image.values():
            image.update([(-i, _inverse(word)) for i, word in image.items()])
            return _act(start, image, power)
    codes = list(start)
    for _ in range(n):
        codes = _act(codes, row, tail)
    return codes


def _run(table: ActionTable, run: _Run, codes: list[int], tails: bool) -> list[int]:
    """``codes`` after the run, by the closed form of its step a -> split(letters
    . a) = psi(a) * tau; by the walk where a row it reads is no homomorphism."""
    forms = table.powers if tails else {}
    if run.letters not in forms:
        forms[run.letters] = None
        if all(_is_hom(table.steps[(gen, 1 if exp > 0 else -1)][0])
               for gen, exp in run.letters if gen_level(gen) < table.top):
            def walk(start):  # the pass leaves top-level letters unmerged
                return _reduce([c] for c in _walk(table, run.letters, start, tails))
            tau = walk([])
            row = _Row()
            for i in table.index.values():
                row[i] = _reduce((walk([i]), _inverse(tau)))
                row[-i] = _inverse(row[i])
            forms[run.letters] = row, tau
    if forms[run.letters] is None:
        for _ in range(run.count):
            codes = _walk(table, run.letters, codes, tails)
        return codes
    return _power(*forms[run.letters], codes, run.count, forms, run.letters)
