import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import generators
from ruletrees.engine import (
    DEFAULT_MAX_SET_SIZE,
    Rule,
    RuleSystem,
    UnknownRuleName,
    check_elem_tree,
    check_full_tree,
    erase_elements,
    erase_names,
    even_numbers,
    infer_conclusion,
    infer_full_tree,
    iterate,
    member,
    render_set,
    step,
)
from ruletrees.errors import ArityMismatch, Rejected, ResourceLimit
from ruletrees.trees import Tree, parse_name_tree, print_name_tree

EVEN = even_numbers()


def test_rule_application():
    f1, f2 = EVEN.rules
    assert f1.apply(()) == 0
    assert f2.apply((4,)) == 6
    with pytest.raises(ArityMismatch):
        f2.apply((1, 2))
    with pytest.raises(ArityMismatch):
        f1.apply((0,))


def test_partial_rules_return_none():
    halve = Rule("h", 1, lambda a: a // 2 if a % 2 == 0 else None)
    assert halve.apply((6,)) == 3
    assert halve.apply((7,)) is None


def test_rule_and_system_validation():
    with pytest.raises(ValueError):
        Rule("bad name", 0, lambda: 0)
    with pytest.raises(ValueError):
        Rule("", 0, lambda: 0)
    with pytest.raises(ValueError):
        Rule("f(", 0, lambda: 0)
    with pytest.raises(ValueError):
        Rule("f", -1, lambda: 0)
    twice = Rule("f", 0, lambda: 0)
    with pytest.raises(ValueError):
        RuleSystem((twice, twice))


def test_step_on_hand_picked_sets():
    # one application of both rules to an arbitrary (not closed) set
    assert step(EVEN, {4, 5, 6}) == frozenset({0, 6, 7, 8})
    assert step(EVEN, frozenset()) == frozenset({0})
    assert step(EVEN, {0}) == frozenset({0, 2})


def test_iterate_builds_layers():
    assert iterate(EVEN, 0) == (frozenset(), None)
    assert iterate(EVEN, 1) == (frozenset({0}), None)
    assert iterate(EVEN, 2) == (frozenset({0, 2}), None)
    assert iterate(EVEN, 3) == (frozenset({0, 2, 4}), None)
    with pytest.raises(ValueError):
        iterate(EVEN, -1)


def test_iterate_detects_fixed_point():
    bounded = RuleSystem(
        (
            Rule("z", 0, lambda: 0),
            Rule("s", 1, lambda a: a + 1 if a < 3 else None),
        )
    )
    # F4 = {0,1,2,3}; the fifth application confirms stabilization
    closure, fixed_at = iterate(bounded, 10)
    assert closure == frozenset({0, 1, 2, 3})
    assert fixed_at == 4
    still_growing, not_yet = iterate(bounded, 4)
    assert still_growing == frozenset({0, 1, 2, 3})
    assert not_yet is None
    empty = RuleSystem((Rule("s", 1, lambda a: a + 1),))
    assert iterate(empty, 10) == (frozenset(), 0)


def test_set_rendering_sorts_by_text():
    closure, _ = iterate(EVEN, 7)
    assert render_set(closure) == "{0, 10, 12, 2, 4, 6, 8}"
    assert render_set(frozenset()) == "{}"


def test_resource_limit():
    counter = RuleSystem((Rule("z", 0, lambda: 0), Rule("s", 1, lambda a: a + 1)))
    with pytest.raises(ResourceLimit):
        iterate(counter, 50, max_size=10)
    with pytest.raises(ResourceLimit):
        member(counter, 40, 50, max_size=10)
    # the bounds themselves: a closure of exactly max_size elements is fine
    assert iterate(counter, 10, max_size=10) == (frozenset(range(10)), None)
    with pytest.raises(ResourceLimit, match="^step produced more than 10 elements$"):
        iterate(counter, 11, max_size=10)
    assert member(counter, 9, 50, max_size=10).height() == 10
    with pytest.raises(ResourceLimit, match="^more than 10 derivable elements$"):
        member(counter, 10, 11, max_size=10)


def test_member_finds_minimal_witness():
    witness = member(EVEN, 4, 3)
    assert witness == Tree((4, "f2"), (Tree((2, "f2"), (Tree((0, "f1")),)),))
    assert print_name_tree(erase_elements(witness)) == "f2(f2(f1))"
    assert member(EVEN, 4, 2) is None
    assert member(EVEN, 0, 1) == Tree((0, "f1"))
    assert member(EVEN, 5, 10) is None
    with pytest.raises(ValueError):
        member(EVEN, 0, 0)


def test_member_stops_at_closed_systems():
    bounded = RuleSystem(
        (
            Rule("z", 0, lambda: 0),
            Rule("s", 1, lambda a: a + 1 if a < 3 else None),
        )
    )
    # closure has four layers; searching far deeper must still terminate
    assert member(bounded, 3, 1000).height() == 4
    assert member(bounded, 9, 1000) is None


def test_member_breaks_ties_by_rule_order():
    ambiguous = RuleSystem(
        (
            Rule("a", 0, lambda: 1),
            Rule("b", 0, lambda: 1),
        )
    )
    assert member(ambiguous, 1, 5) == Tree((1, "a"))


def test_check_elem_tree():
    chain = Tree(4, (Tree(2, (Tree(0),)),))
    check_elem_tree(EVEN, chain)
    with pytest.raises(Rejected) as info:
        check_elem_tree(EVEN, Tree(3, (Tree(0),)))
    assert info.value.path == ()
    # the node labeled 2 is unjustified: its premise is 1, and f2(1) = 3
    with pytest.raises(Rejected) as info:
        check_elem_tree(EVEN, Tree(4, (Tree(2, (Tree(1),)),)))
    assert info.value.path == (0,)
    assert "at 0:" in str(info.value)


def test_check_full_tree():
    good = Tree((4, "f2"), (Tree((2, "f2"), (Tree((0, "f1")),)),))
    check_full_tree(EVEN, good)

    with pytest.raises(UnknownRuleName) as info:
        check_full_tree(EVEN, Tree((0, "g")))
    assert info.value.path == ()

    with pytest.raises(ArityMismatch) as info:
        check_full_tree(EVEN, Tree((4, "f2"), (Tree((2, "f2"), (Tree((0, "f2")),)),)))
    assert info.value.path == (0, 0)

    with pytest.raises(Rejected) as info:
        check_full_tree(EVEN, Tree((3, "f2"), (Tree((0, "f1")),)))
    assert info.value.path == ()
    assert "yields 2" in str(info.value)


def test_infer_runs_trees_bottom_up():
    names = parse_name_tree("f2(f2(f2(f1)))")
    assert infer_conclusion(EVEN, names) == 6
    full = infer_full_tree(EVEN, names)
    check_full_tree(EVEN, full)
    assert erase_elements(full) == names
    with pytest.raises(UnknownRuleName) as info:
        infer_conclusion(EVEN, parse_name_tree("f2(g(f1))"))
    assert info.value.path == (0,)
    with pytest.raises(ArityMismatch):
        infer_conclusion(EVEN, parse_name_tree("f2(f1(f1))"))


def test_erasures_project_labelings():
    full = member(EVEN, 4, 3)
    assert erase_names(full) == Tree(4, (Tree(2, (Tree(0),)),))
    assert erase_elements(full) == parse_name_tree("f2(f2(f1))")


_seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(_seeds)
def test_step_is_monotone(seed):
    rng = random.Random(seed)
    system = generators.system(rng)
    larger = {e for e in generators.DOMAIN if rng.random() < 0.5}
    smaller = {e for e in larger if rng.random() < 0.6}
    assert step(system, smaller) <= step(system, larger)


@given(_seeds)
def test_iterates_form_a_chain(seed):
    rng = random.Random(seed)
    system = generators.system(rng)
    layers = [iterate(system, i)[0] for i in range(5)]
    for lower, upper in zip(layers, layers[1:]):
        assert lower <= upper


@given(_seeds)
def test_member_agrees_with_iterate(seed):
    rng = random.Random(seed)
    system = generators.system(rng)
    closure, _ = iterate(system, 4)
    for element in closure:
        witness = member(system, element, 4)
        assert witness is not None
        assert witness.label[0] == element
        assert witness.height() <= 4
        check_full_tree(system, witness)
    for element in generators.DOMAIN:
        if element not in closure:
            assert member(system, element, 4) is None


@given(_seeds)
def test_member_witnesses_have_minimal_height(seed):
    rng = random.Random(seed)
    system = generators.system(rng)
    previous: frozenset = frozenset()
    for i in range(1, 5):
        layer, _ = iterate(system, i)
        for element in layer - previous:
            assert member(system, element, 6).height() == i
        previous = layer


@given(_seeds)
def test_labelings_stay_coherent(seed):
    rng = random.Random(seed)
    system = generators.system(rng)
    closure, _ = iterate(system, 4)
    for element in closure:
        witness = member(system, element, 4)
        check_elem_tree(system, erase_names(witness))
        names = erase_elements(witness)
        assert infer_conclusion(system, names) == element
        assert infer_full_tree(system, names) == witness


def _naive_iterate(system, steps, *, max_size=DEFAULT_MAX_SET_SIZE):
    """The k-fold fold of `step` from the empty set."""
    current: frozenset = frozenset()
    for k in range(steps):
        nxt = step(system, current, max_size=max_size)
        if nxt == current:
            return current, k
        current = nxt
    return current, None


def _naive_member(system, element, depth, *, max_size=DEFAULT_MAX_SET_SIZE):
    """Minimal-height search that reapplies every rule to the whole pool."""
    witnesses: dict = {}
    for _ in range(depth):
        pool = sorted(witnesses, key=str)
        fresh: dict = {}
        for rule in system.rules:
            for args in itertools.product(pool, repeat=rule.arity):
                result = rule.apply(args)
                if result is None or result in witnesses or result in fresh:
                    continue
                fresh[result] = Tree((result, rule.name), tuple(witnesses[a] for a in args))
        if not fresh:
            break
        witnesses.update(fresh)
        if len(witnesses) > max_size:
            raise ResourceLimit(f"more than {max_size} derivable elements")
        if element in witnesses:
            return witnesses[element]
    return witnesses.get(element)


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except ResourceLimit as error:
        return ResourceLimit, str(error)


@given(_seeds)
def test_closure_layers_match_naive_reference(seed):
    rng = random.Random(seed)
    system = generators.wide_system(rng)
    max_size = rng.choice((3, 8, DEFAULT_MAX_SET_SIZE))
    for steps in range(7):
        assert _outcome(iterate, system, steps, max_size=max_size) == _outcome(
            _naive_iterate, system, steps, max_size=max_size
        )
    for element in generators.WIDE_DOMAIN:
        depth = rng.randint(1, 6)
        assert _outcome(member, system, element, depth, max_size=max_size) == _outcome(
            _naive_member, system, element, depth, max_size=max_size
        )


def test_large_layers_match_naive_reference():
    # layers 8 and 9 bring 64 and 22 new elements, which join the pool in
    # one merge rather than one insertion each
    adder = RuleSystem(
        (Rule("one", 0, lambda: 1), Rule("add", 2, lambda a, b: a + b if a + b <= 150 else None))
    )
    assert iterate(adder, 12) == _naive_iterate(adder, 12) == (frozenset(range(1, 151)), 9)
    for target in (1, 33, 64, 65, 100, 129, 150, 151):
        assert member(adder, target, 12) == _naive_member(adder, target, 12)
