"""The semantics every record type keeps: class-checked equality, hashing,
immutability, truth, keyword construction, validation, repr, pickling
and copying."""

import copy
import pickle

import pytest

from ruletrees import automata, engine, natded, recfun, trees
from ruletrees.automata import CompiledRules, Nfa
from ruletrees.engine import Rule, RuleSystem
from ruletrees.natded import (
    And, Atom, Fst, Hyp, HypFull, Imp, Lam, LamV, Pair, Sequent, Snd, Var
)
from ruletrees.recfun import Comp, Mu, Proj, Rec, Succ, Zero
from ruletrees.trees import Tree

P, Q = Atom("P"), Atom("Q")


@pytest.mark.parametrize(
    "left, right",
    [
        (And(P, Q), Imp(P, Q)),
        (Atom("P"), Var("P")),
        (Hyp(P), Fst(P)),
        (Tree("P"), Sequent("P", ())),
        (Mu(Succ()), Fst(Succ())),
    ],
    ids=["and-imp", "atom-var", "hyp-fst", "tree-sequent", "mu-fst"],
)
def test_records_of_different_classes_with_equal_fields_differ(left, right):
    assert left != right and right != left
    assert not (left == right or right == left)
    assert len(frozenset([left, right])) == 2
    assert len({left: 1, right: 2}) == 2


@pytest.mark.parametrize(
    "record, fields",
    [
        (Atom("P"), ("P",)),
        (And(P, Q), (P, Q)),
        (Tree("f1"), ("f1", ())),
        (Proj(2, 1), (2, 1)),
        (Succ(), ()),
    ],
    ids=["atom", "and", "tree", "proj", "succ"],
)
def test_a_record_never_equals_the_plain_tuple_of_its_fields(record, fields):
    assert record != fields and fields != record
    assert not (record == fields or fields == record)
    assert len({record, fields}) == 2


def test_equal_records_are_equal_and_hash_alike():
    left = Sequent(frozenset([P, And(P, Q)]), Imp(Q, P))
    right = Sequent(frozenset([And(P, Q), P]), Imp(Q, P))
    assert left == right and not left != right
    assert hash(left) == hash(right)
    assert Tree("f2", (Tree("f1"),)) == Tree(label="f2", children=(Tree("f1"),))
    assert Comp(Succ(), (Zero(1),)) != Comp(Succ(), (Zero(2),))


@pytest.mark.parametrize(
    "record, field",
    [
        (Atom("P"), "name"),
        (Tree("f1"), "children"),
        (Rule("s", 1, abs), "fn"),
        (Succ(), "arity"),
        (RuleSystem((Rule("z", 0, lambda: 0),)), "rules"),
        (Nfa(frozenset({"s"}), frozenset(), frozenset(), frozenset()), "finals"),
        (Nfa(frozenset({"s"}), frozenset(), frozenset(), frozenset()), "_steps"),
    ],
    ids=["atom", "tree", "rule", "succ", "rule-system", "nfa", "nfa-rule-view"],
)
def test_assigning_an_attribute_raises(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_records_are_true_even_without_fields():
    assert Succ()
    assert bool(Succ()) is True
    assert Atom("") and Tree("")


def test_keyword_construction():
    nfa = Nfa(
        states=frozenset({"s", "t"}),
        alphabet=frozenset({"a"}),
        transitions=frozenset({("s", "a", "t")}),
        finals=frozenset({"t"}),
    )
    assert nfa == Nfa(
        frozenset({"s", "t"}), frozenset({"a"}), frozenset({("s", "a", "t")}), frozenset({"t"})
    )
    assert nfa.finals == frozenset({"t"})
    assert Tree(label="f1") == Tree("f1", ())
    assert Tree(label="f1").children == ()
    assert Rule(name="s", arity=1, fn=abs) == Rule("s", 1, abs)
    assert Proj(arity=3, index=2).index == 2
    assert RuleSystem(rules=()) == RuleSystem(())


LOOP = Nfa(frozenset({"s"}), frozenset({"a"}), frozenset({("s", "a", "s")}), frozenset({"s"}))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Rule._make(("bad name", -1, abs)), r"^invalid rule name 'bad name'$"),
        (lambda: Rule._make(("f", -1, abs)), r"^rule f: arity must be nonnegative$"),
        (lambda: Rule("f", 1, abs)._replace(name="f("), r"^invalid rule name 'f\('$"),
        (lambda: Rule("f", 1, abs)._replace(arity=-2), r"^rule f: arity must be nonnegative$"),
        (
            lambda: Nfa._make((frozenset(), frozenset(), frozenset(), frozenset({"s"}))),
            r"^final state s is not declared$",
        ),
        (lambda: LOOP._replace(finals=frozenset({"x"})), r"^final state x is not declared$"),
        (lambda: LOOP._replace(alphabet=frozenset()), r"^transition letter a is not declared$"),
    ],
    ids=["rule-make-name", "rule-make-arity", "rule-replace-name", "rule-replace-arity",
         "nfa-make-final", "nfa-replace-final", "nfa-replace-letter"],
)
def test_make_and_replace_validate_like_the_constructor(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_a_valid_make_or_replace_keeps_the_subclass():
    rule = Rule("f", 1, abs)._replace(name="g")
    assert type(rule) is Rule and rule == Rule("g", 1, abs)
    assert type(Rule._make(("g", 1, abs))) is Rule
    nfa = LOOP._replace(finals=frozenset())
    assert type(nfa) is Nfa and nfa.finals == frozenset() and nfa.states == LOOP.states
    assert Tree("f1")._replace(label="f2") == Tree("f2")
    assert type(Proj._make((2, 1))) is Proj


def test_rule_system_equality_and_hash_go_by_rules():
    rules = (Rule("z", 0, abs), Rule("s", 1, abs))
    same, other = RuleSystem(rules), RuleSystem(rules[:1])
    assert RuleSystem(rules) == same and not RuleSystem(rules) != same
    assert hash(RuleSystem(rules)) == hash(same)
    assert RuleSystem(rules) != other
    assert RuleSystem(rules) != rules
    assert len({RuleSystem(rules), same, other}) == 2
    assert same.find("s") is rules[1] and same.find("t") is None


def test_repr_matches_the_field_listing():
    tree = Tree("f2", (Tree("f1"), Tree("f1")))
    assert repr(tree) == (
        "Tree(label='f2', children=(Tree(label='f1', children=()), "
        "Tree(label='f1', children=())))"
    )
    assert repr(Rule("s", 1, abs)) == "Rule(name='s', arity=1, fn=<built-in function abs>)"
    assert repr(Atom("P")) == "Atom(name='P')"
    assert repr(And(P, Imp(Q, P))) == (
        "And(left=Atom(name='P'), right=Imp(left=Atom(name='Q'), right=Atom(name='P')))"
    )
    assert repr(Succ()) == "Succ()"
    assert repr(RuleSystem((Rule("s", 1, abs),))) == (
        "RuleSystem(rules=(Rule(name='s', arity=1, fn=<built-in function abs>),))"
    )


NFA = Nfa(frozenset({"s"}), frozenset({"a"}), frozenset({("s", "a", "s")}), frozenset({"s"}))

# one value of every record class, and the module that defines it
EVERY_RECORD = [
    (Atom("P"), natded),
    (And(P, Q), natded),
    (Imp(P, Q), natded),
    (Sequent(frozenset([P]), Imp(Q, P)), natded),
    (Hyp(P), natded),
    (HypFull(frozenset([P]), P), natded),
    (Lam(P, Hyp(P)), natded),
    (Pair(Hyp(P), Hyp(Q)), natded),
    (Fst(Hyp(P)), natded),
    (Snd(Hyp(P)), natded),
    (Var("x"), natded),
    (LamV("x", P, Var("x")), natded),
    (Zero(1), recfun),
    (Succ(), recfun),
    (Proj(2, 1), recfun),
    (Comp(Succ(), (Zero(1),)), recfun),
    (Rec(Proj(1, 1), Proj(3, 2)), recfun),
    (Mu(Proj(2, 1)), recfun),
    (Tree("f2", (Tree("f1"),)), trees),
    (Rule("s", 1, abs), engine),
    (RuleSystem((Rule("z", 0, abs), Rule("s", 1, abs))), engine),
    (NFA, automata),
    (CompiledRules(RuleSystem(()), (), (("eps1", "s"),), {"eps1": ""}), automata),
]


@pytest.mark.parametrize("value, module", EVERY_RECORD, ids=[type(v).__name__ for v, _ in EVERY_RECORD])
def test_a_record_pickles_and_copies_by_name(value, module):
    assert type(value).__module__ == module.__name__
    assert getattr(module, type(value).__name__) is type(value)
    for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(again) is type(value) and again == value
    with pytest.raises(AttributeError):
        setattr(value, "extra", 1)
    # only RuleSystem and Nfa keep a __dict__, for their indexes
    assert hasattr(value, "__dict__") == (type(value) in (RuleSystem, Nfa))


def test_a_record_without_behaviour_is_one_class():
    for cls in (Atom, Hyp, LamV, Zero, Succ, Mu, CompiledRules):
        assert cls.__mro__ == (cls, tuple, object)
    assert Proj.__doc__ == "The `index`-th of `arity` arguments, 1-based."
