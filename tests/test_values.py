"""The value classes of sbk: field equality, hashing of the read-only ones,
read-only fields, and the reprs that are relied on."""

import copy
import itertools
import pickle
from collections.abc import Hashable

import pytest

from sbk import homs
from sbk.abelian import AbelianInvariants, IntMatrix
from sbk.combing import ActionTable, CombedForm, build_action_table, comb
from sbk.homs import QuatElement
from sbk.presentations import Presentation, build_pn_rp2
from sbk.verify import Case, VerificationReport
from sbk.words import Word, parse_word


def _pn_rp2_without_first_relation(n):
    pres = build_pn_rp2(n)
    return Presentation(pres.family, pres.params, pres.generators,
                        lambda: itertools.islice(pres.relations(), 1, None),
                        len(pres.relators) - 1)


# per class: two builders of equal values, built apart, and one of a value
# that differs from them in one field
VALUES = {
    "Word": (lambda: parse_word("A[1,3]^2 rho[3]"),
             lambda: Word(((("A", 1, 3), 2), (("rho", 3), 1))),
             lambda: parse_word("A[1,3]^2 rho[3]^-1")),
    "QuatElement": (lambda: QuatElement(-1, 2), lambda: homs.Q_J ** 3,
                    lambda: QuatElement(1, 2)),
    "Presentation": (lambda: build_pn_rp2(3), lambda: build_pn_rp2(3),
                     lambda: _pn_rp2_without_first_relation(3)),
    "ActionTable": (lambda: build_action_table(2), lambda: ActionTable(2),
                    lambda: ActionTable(3)),
    "CombedForm": (lambda: comb(2, parse_word("rho[4] A[1,3]^2")),
                   lambda: CombedForm(2, comb(2, parse_word("rho[4] A[1,3]^2")).components),
                   lambda: comb(2, parse_word("rho[4] A[1,3]"))),
    "IntMatrix": (lambda: IntMatrix(2, 2, [[1, 2], [3, 4]]),
                  lambda: IntMatrix(2, 2, [[1, 2], [3, 4]]),
                  lambda: IntMatrix(2, 2, [[1, 2], [3, 5]])),
    "AbelianInvariants": (lambda: AbelianInvariants(1, (2, 4)),
                          lambda: AbelianInvariants(free_rank=1, torsion=[2, 4]),
                          lambda: AbelianInvariants(1, (2,))),
    "Case": (lambda: Case("c", "d", "1", "1"), lambda: Case("c", "d", "1", "1"),
             lambda: Case("c", "d", "1", "2")),
    "VerificationReport": (lambda: VerificationReport("counts", 3),
                           lambda: VerificationReport("counts", 3, []),
                           lambda: VerificationReport("counts", 4)),
}

# per hashed class: the names of its fields, in order
HASHED = {
    "Word": ("letters",),
    "QuatElement": ("sign", "axis"),
    "Presentation": ("family", "params", "generators", "relators"),
    "CombedForm": ("m", "components"),
    "AbelianInvariants": ("free_rank", "torsion"),
    "Case": ("case_id", "description", "expected", "got"),
}

# per read-only class: one built value and the name of one of its fields
READ_ONLY = {
    "Word": (lambda: Word(), "letters"),
    "QuatElement": (lambda: QuatElement(), "sign"),
    "Presentation": (lambda: build_pn_rp2(2), "relators"),
    "ActionTable": (lambda: build_action_table(1), "m"),
    "CombedForm": (lambda: comb(1, Word()), "components"),
    "AbelianInvariants": (lambda: AbelianInvariants(0), "torsion"),
    "Case": (lambda: Case("c", "d", "1", "1"), "got"),
    "IntMatrix": (lambda: IntMatrix(2, 2, [[1, 2], [3, 4]]), "columns"),
    "VerificationReport": (lambda: VerificationReport("counts", 3), "cases"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_field_equality(name):
    make, make_equal, make_other = VALUES[name]
    a, b, c = make(), make_equal(), make_other()
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != object() and a != ()


@pytest.mark.parametrize("name", sorted(HASHED))
def test_equal_values_hash_equal(name):
    make, make_equal, make_other = VALUES[name]
    assert hash(make()) == hash(make_equal())
    assert len({make(), make_equal(), make_other()}) == 2


@pytest.mark.parametrize("name", sorted(HASHED))
def test_values_hash_as_their_field_tuple(name):
    # set and dict orders of values stay those of their field tuples
    for make in VALUES[name]:
        value = make()
        assert hash(value) == hash(tuple(getattr(value, f) for f in HASHED[name]))


@pytest.mark.parametrize("name", ["IntMatrix", "VerificationReport", "ActionTable"])
def test_unhashable_values(name):
    value = VALUES[name][0]()
    assert not isinstance(value, Hashable)
    with pytest.raises(TypeError):
        hash(value)


@pytest.mark.parametrize("name", sorted(READ_ONLY))
def test_fields_are_read_only(name):
    make, field = READ_ONLY[name]
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


def test_action_table_powers_left_out_of_equality():
    # the comber fills a table's powers as it goes; two tables with equal
    # rows stay equal
    warm = build_action_table(2)
    comb(2, parse_word("A[1,3]^20 A[3,4]"))
    assert warm.powers and not ActionTable(2).powers
    assert warm == ActionTable(2)


def test_report_cases_default_is_a_new_list():
    a, b = VerificationReport("counts", 3), VerificationReport("counts", 3)
    a.add("c", "d", 1, 1)
    assert b.cases == [] and a != b


def test_word_is_slotted_and_survives_copy_and_pickle():
    w = parse_word("A[1,3]^2 rho[3]")
    assert not hasattr(w, "__dict__")
    assert repr(w) == "Word('A[1,3]^2 rho[3]')"
    assert repr(Word()) == "Word('')"
    for clone in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert clone == w and clone.letters == w.letters


def test_value_reprs():
    assert repr(QuatElement(-1, 3)) == "QuatElement(sign=-1, axis=3)"
    assert repr(AbelianInvariants(1, (2,))) == "AbelianInvariants(free_rank=1, torsion=(2,))"
    assert repr(comb(1, parse_word("A[1,3]"))) == \
        "CombedForm(m=1, components=(Word('A[1,3]'),))"
    assert repr(Case("c", "d", "1", "2")) == \
        "Case(case_id='c', description='d', expected='1', got='2')"
