"""Closed forms for the powers of a comb step F(a) = phi(a) * t, of a
lower-level letter or of an eliminated letter below its level, held factored as
``(P, psi row, P^-1 t)`` with phi = iota_P . psi (:func:`sbk.combing._step`) and
stepped by :func:`sbk.combing._act`: phi acts like a
Dehn twist, so the iterates are block periodic, W_0 D_1^i W_1 ... D_k^i W_k
(Cohen and Lustig, Comment. Math. Helv. 74, 1999), read off a few plain steps,
proved by a finite check and written out in time linear in its length: each
block power D^i is D's closed-form power (:func:`sbk.combing._power_codes`), one
list repetition also where D's end letters merge.  :mod:`sbk.combing`
imports this on first use, so combing no large power never compiles it."""

from __future__ import annotations

from difflib import SequenceMatcher
from itertools import chain
from typing import Callable, Sequence

from .combing import (_MASK, _POWER_MIN, _SHIFT, _Row, _Step, _act, _action, _inverse,
                      _power_codes, _reduce, _split_code)


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


def _closed_form(step: _Step, start: Sequence[int], parity: int) -> tuple | None:
    """``(base, q, W, D)``, a certified block form E(i) of F^(base + q i)(start)
    for the step F(a) = phi(a) * F(1), phi its action (:func:`~sbk.combing._action`),
    base = 2 + parity mod q (two steps let cancellation settle); ``None`` where
    no form of period <= 2 does."""
    seq = [list(start)]
    for _ in range(7):
        seq.append(_act(seq[-1], step))
    action = _action(step)
    one = _reduce((step[0], step[2]))  # F(1) = P * P^-1 t
    for q in (1, 2):
        base = 2 + parity % q
        form = _guess(seq[base], seq[base + 2 * q])
        psi = (lambda w: _act(w, action)) if q == 1 else \
            (lambda w: _act(_act(w, action), action))
        if form and _certify(*form, psi, one if q == 1 else _act(one, step)):
            return (base, q) + form
    return None


def _iterate(step: _Step, start: tuple[int, ...], n: int, forms: dict,
             key: tuple) -> list[int] | None:
    """F^n(start) from its form, kept in ``forms`` under ``key + (n % 2,)``, or
    one step after F^(n-1)(start) from the other parity's form; else None.  The
    pieces W_0, D_1^i, W_1, ..., each block power in closed form
    (:func:`~sbk.combing._power_codes`), are reduced together once, so their
    count does not grow with n."""
    for k in (n, n - 1):
        if key + (k % 2,) not in forms:
            forms[key + (k % 2,)] = _closed_form(step, start, k % 2)
        if forms[key + (k % 2,)] is not None:
            break
    else:
        return None
    base, q, W, D = forms[key + (k % 2,)]
    pieces: list[Sequence[int]] = [W[0]]
    for w, d in zip(W[1:], D):
        pieces += (_power_codes(d, (k - base) // q), w)
    return _reduce(pieces) if k == n else _act(_reduce(pieces), step)


def _power(step: _Step, start: Sequence[int], n: int, forms: dict, key: object) -> list[int]:
    """F^n(start) for the step F(a) = phi(a) * F(1): F^n(a) = phi^n(a) * F^n(1)
    for the homomorphism phi, the step's action, so ``start`` takes one step
    through b_i -> phi^n(b_i) and F^n(1), forms kept under ``(key, i,
    parity)``, i = 0 for F^n(1); else plain.  The row is a homomorphism, as
    every row :meth:`~sbk.combing._Row.of` builds is."""
    if n >= _POWER_MIN:
        power = _iterate(step, (), n, forms, (key, 0))
        action = _action(step)
        images = {i: _iterate(action, (i,), n, forms, (key, i))
                  for i in {abs(code) & _MASK for code in start}}
        if power is not None and None not in images.values():
            return _act(start, ((), _Row.of(images), power))
    codes = list(start)
    for _ in range(n):
        codes = _act(codes, step)
    return codes

