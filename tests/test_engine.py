import collections
import itertools
import random
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import generators
from ruletrees import engine
from ruletrees.engine import (
    DEFAULT_MAX_SET_SIZE,
    Rule,
    RuleSystem,
    RuleUndefined,
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
from ruletrees.trees import Tree, parse_name_tree, print_name_tree, tree_to_latex

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
    with pytest.raises(ValueError, match=r"^invalid rule name 'bad name'$"):
        Rule("bad name", 0, lambda: 0)
    with pytest.raises(ValueError, match=r"^invalid rule name ''$"):
        Rule("", 0, lambda: 0)
    with pytest.raises(ValueError, match=r"^invalid rule name 'f\('$"):
        Rule("f(", 0, lambda: 0)
    with pytest.raises(ValueError, match=r"^rule f: arity must be nonnegative$"):
        Rule(name="f", arity=-1, fn=lambda: 0)
    twice = Rule("f", 0, lambda: 0)
    with pytest.raises(ValueError, match=r"^duplicate rule name f$"):
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

    # failures are reported in preorder: the root before its failing child
    with pytest.raises(Rejected) as info:
        check_full_tree(EVEN, Tree((5, "f2"), (Tree((1, "f2"), (Tree((0, "f1")),)),)))
    assert info.value.path == ()
    with pytest.raises(UnknownRuleName) as info:
        check_full_tree(EVEN, Tree((0, "g"), (Tree((0, "f2")),)))
    assert info.value.path == ()


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


def _even_chain(levels, label=lambda n, name: (n, name)):
    """f2(...f2(f1)...) with `levels` f2 nodes, labeled through `label`
    from each node's element and rule name, built without recursion."""
    tree = Tree(label(0, "f1"))
    for i in range(1, levels + 1):
        tree = Tree(label(2 * i, "f2"), (tree,))
    return tree


def test_infer_needs_one_frame_per_level():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        node = infer_full_tree(EVEN, _even_chain(600, lambda n, name: name))
    finally:
        sys.setrecursionlimit(limit)
    assert _chain_labels(node) == [(2 * i, "f2") for i in range(600, 0, -1)] + [(0, "f1")]


def _chain_labels(tree):
    """The labels of a chain, root first, read without recursion (record
    equality recurses, so deep chains are compared label by label)."""
    labels = [tree.label]
    while tree.children:
        (tree,) = tree.children
        labels.append(tree.label)
    return labels


def test_tree_walks_need_one_python_frame_per_level():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        # str.join and max count a C-level call of their own per level, so
        # the printers and height get 450 levels, size and the erasers 800
        shallow = _even_chain(450)
        height = shallow.height()
        printed = print_name_tree(erase_elements(shallow))
        latex = tree_to_latex(shallow, lambda label: (str(label[0]), label[1]))
        deep = _even_chain(800)
        size, names, elements = deep.size(), erase_elements(deep), erase_names(deep)
    finally:
        sys.setrecursionlimit(limit)
    assert (height, size) == (451, 801)
    assert printed == "f2(" * 450 + "f1" + ")" * 450
    expected = "\\irule{}{0}{f1}"
    for i in range(1, 451):
        expected = "\\irule{%s}{%d}{f2}" % (expected, 2 * i)
    assert latex == expected
    full = _chain_labels(deep)
    assert _chain_labels(names) == [label[1] for label in full]
    assert _chain_labels(elements) == [label[0] for label in full]


def test_a_20000_level_chain_runs_through_every_walk():
    """The reader, inference, the checks, the printers and the shape queries
    loop down a run of one-child nodes, so a chain far deeper than the
    recursion limit goes through all of them."""
    levels = 20_000
    assert sys.getrecursionlimit() < levels
    text = "f2(" * levels + "f1" + ")" * levels
    names = parse_name_tree(text)
    full = infer_full_tree(EVEN, names)
    check_full_tree(EVEN, full)
    assert full.label == (2 * levels, "f2")
    assert _chain_labels(full) == [(2 * i, "f2") for i in range(levels, 0, -1)] + [(0, "f1")]
    assert print_name_tree(names) == text
    assert print_name_tree(erase_elements(full)) == text
    assert (names.height(), full.size()) == (levels + 1, levels + 1)
    closers = "".join("}{%d}{f2}" % (2 * i) for i in range(1, levels + 1))
    latex = tree_to_latex(full, lambda label: (str(label[0]), label[1]))
    assert latex == "\\irule{" * levels + "\\irule{}{0}{f1}" + closers
    with pytest.raises(ArityMismatch) as info:  # the innermost f2 has no premise
        infer_full_tree(EVEN, parse_name_tree("f2(" * levels + "f2" + ")" * levels))
    assert (info.value.path, info.value.reason) == (
        (0,) * levels, "rule f2 expects 1 premise(s), node has 0"
    )


def test_tree_checks_stay_iterative_at_depth():
    check_full_tree(EVEN, _even_chain(5000))
    check_elem_tree(EVEN, _even_chain(5000, lambda n, name: n))
    broken = Tree((4, "f2"), (_even_chain(0),))
    for _ in range(4999):
        broken = Tree((broken.label[0] + 2, "f2"), (broken,))
    with pytest.raises(Rejected) as info:
        check_full_tree(EVEN, broken)
    assert info.value.path == (0,) * 4999
    assert info.value.reason == "rule f2 yields 2, node is labeled 4"
    with pytest.raises(Rejected) as info:  # the leaf's parent, 4, has the child 3
        check_elem_tree(EVEN, _even_chain(5000, lambda n, name: n + (n == 2)))
    assert (info.value.path, info.value.reason) == ((0,) * 4998, "no rule derives 4 from (3)")


def test_a_rule_used_where_it_is_undefined_is_rejected():
    halving = RuleSystem(
        (Rule("z", 0, lambda: 4), Rule("h", 1, lambda n: n // 2 if n % 2 == 0 else None))
    )
    assert infer_conclusion(halving, parse_name_tree("h(h(z))")) == 1
    with pytest.raises(RuleUndefined) as info:
        infer_conclusion(halving, parse_name_tree("h(h(h(z)))"))
    assert (info.value.path, info.value.reason) == ((), "rule h is undefined at (1)")
    with pytest.raises(RuleUndefined) as info:
        check_full_tree(halving, Tree((1, "h"), (Tree((2, "h"), (Tree((5, "z")),)),)))
    assert (info.value.path, info.value.reason) == ((0,), "rule h is undefined at (5)")


def test_a_bad_leaf_under_100_000_levels_is_found_in_linear_time():
    """The path of the failing node is found in one walk that builds a tuple
    only for that node: the path search used to build one per node."""
    levels = 99_999  # the chain's elements are all shifted by one
    full = _even_chain(levels, lambda n, name: (n + 1, name))
    elems = _even_chain(levels, lambda n, name: n + 1)
    start = time.perf_counter()
    with pytest.raises(Rejected) as full_info:
        check_full_tree(EVEN, full)
    with pytest.raises(Rejected) as elem_info:
        check_elem_tree(EVEN, elems)
    assert time.perf_counter() - start < 1.0
    assert (full_info.value.path, full_info.value.reason) == (
        (0,) * levels, "rule f1 yields 0, node is labeled 1"
    )
    assert (elem_info.value.path, elem_info.value.reason) == (
        (0,) * levels, "no rule derives 1 from ()"
    )


# one + add(a, a): member's witness of 2**k has k + 1 distinct nodes and
# reuses each subderivation for both premises, so it has 2**(k + 1) - 1
# occurrences
DOUBLING = RuleSystem(
    (Rule("one", 0, lambda: 1), Rule("add", 2, lambda a, b: a + b if a == b else None))
)


def test_a_2_to_the_40_witness_goes_through_every_walk_in_linear_time():
    start = time.perf_counter()
    witness = member(DOUBLING, 2**40, 41)
    assert (witness.height(), witness.size()) == (41, 2**41 - 1)
    check_full_tree(DOUBLING, witness)
    check_elem_tree(DOUBLING, erase_names(witness))
    names = erase_elements(witness)
    assert names.children[0] is names.children[1]
    assert (names.height(), names.size()) == (41, 2**41 - 1)
    calls = []
    witness.map_labels(calls.append)
    # once per distinct two-child node, and the leaf once under each child slot of the lowest
    assert len(calls) == 42
    full = infer_full_tree(DOUBLING, names)
    assert full.label[0] == 2**40 and full.children[0] is full.children[1]
    assert time.perf_counter() - start < 1.0


def test_a_fault_in_the_right_half_of_a_shared_witness_has_its_first_path():
    """The subderivation of 2**20 is renamed `bad` in the right half only:
    the left half is the untouched shared witness of 2**39, which the walks
    pass over, and the fault is reported where it first occurs, 19 levels
    below the right half's root, down its leftmost path.  Labeled 2**20 + 1
    instead, in an element tree, it makes its parent the first node no rule
    derives, 18 levels below the right half's root."""
    witness = member(DOUBLING, 2**40, 41)
    spine = [witness]  # spine[i] derives 2**(40 - i)
    while spine[-1].children:
        spine.append(spine[-1].children[0])

    def plant(label):
        node = Tree(label, spine[20].children)
        for above in reversed(spine[1:20]):
            node = Tree(above.label, (node, node))
        return Tree(witness.label, (witness.children[0], node))

    broken = plant((2**20, "bad"))
    path = (1,) + (0,) * 19
    start = time.perf_counter()
    with pytest.raises(UnknownRuleName) as info:
        check_full_tree(DOUBLING, broken)
    assert (info.value.path, info.value.reason) == (path, "unknown rule bad")
    with pytest.raises(UnknownRuleName) as info:
        infer_full_tree(DOUBLING, erase_elements(broken))
    assert (info.value.path, info.value.reason) == (path, "unknown rule bad")
    with pytest.raises(Rejected) as info:
        check_elem_tree(DOUBLING, erase_names(plant((2**20 + 1, "add"))))
    reason = "no rule derives 2097152 from (1048577, 1048577)"
    assert (type(info.value), info.value.path, info.value.reason) == (Rejected, path[:-1], reason)
    assert broken.size() == 2**41 - 1
    assert time.perf_counter() - start < 1.0


def test_the_family_b_of_u_x_and_v_x_goes_through_every_walk_in_linear_time():
    """x_k = b(u(x_{k-1}), v(x_{k-1})) reaches the shared x_{k-1} through two
    distinct one-child nodes: at k = 40 it has 2**42 - 3 occurrences."""
    k = 40
    system = RuleSystem(
        (
            Rule("z", 0, lambda: 1),
            Rule("u", 1, lambda a: a),
            Rule("v", 1, lambda a: a),
            Rule("b", 2, lambda a, b: a + b),
        )
    )
    start = time.perf_counter()
    names = Tree("z")
    for _ in range(k):
        names = Tree("b", (Tree("u", (names,)), Tree("v", (names,))))
    assert (names.height(), names.size()) == (2 * k + 1, 2 ** (k + 2) - 3)
    full = infer_full_tree(system, names)
    assert full.label == (2**k, "b")
    assert full.children[0].children[0] is full.children[1].children[0]
    check_full_tree(system, full)
    check_elem_tree(system, erase_names(full))
    erased = erase_elements(full)
    assert erased.children[0].children[0] is erased.children[1].children[0]
    assert time.perf_counter() - start < 1.0


def test_a_rule_returning_none_at_a_node_labeled_none_is_undefined():
    """The check loop accepts a node only when its rule returns something
    other than None, so the element None is no escape: not below the root,
    not halfway down a run, and not at a run's last node above a node with
    two children."""
    system = RuleSystem(
        (
            Rule("z", 0, lambda: 5),
            Rule("h", 1, lambda n: n // 2 if n % 2 == 0 else None),
            Rule("g", 1, lambda n: 1),
            Rule("p", 2, lambda a, b: a + b + 1),
        )
    )
    z = Tree((5, "z"))
    for tree, path, at in (
        (Tree((1, "g"), (Tree((None, "h"), (z,)),)), (0,), 5),
        (Tree((1, "g"), (Tree((1, "g"), (Tree((None, "h"), (z,)),)),)), (0, 0), 5),
        (Tree((1, "g"), (Tree((None, "h"), (Tree((11, "p"), (z, z)),)),)), (0,), 11),
    ):
        with pytest.raises(RuleUndefined) as info:
            check_full_tree(system, tree)
        assert (info.value.path, info.value.reason) == (path, f"rule h is undefined at ({at})")


def test_infer_is_undefined_halfway_up_a_run():
    """z = 4 halves to 2 and 1, then h is undefined: the third h from the
    bottom of the run fails, below the root and below a branching node."""
    halving = RuleSystem(
        (
            Rule("z", 0, lambda: 4),
            Rule("h", 1, lambda n: n // 2 if n % 2 == 0 else None),
            Rule("p", 2, lambda a, b: a + b),
        )
    )
    for text, path in (("h(h(h(h(h(z)))))", (0, 0)), ("p(z, h(h(h(h(z)))))", (1, 0))):
        with pytest.raises(RuleUndefined) as info:
            infer_full_tree(halving, parse_name_tree(text))
        assert (info.value.path, info.value.reason) == (path, "rule h is undefined at (1)")


def counted_system(system: RuleSystem, calls: collections.Counter) -> RuleSystem:
    """`system` with each rule's callback counting its calls in `calls` by rule name."""

    def counted(name, fn):
        return lambda *args: calls.update((name,)) or fn(*args)

    return RuleSystem(tuple(Rule(r.name, r.arity, counted(r.name, r.fn)) for r in system.rules))


def test_check_and_infer_call_each_rule_once_per_node():
    """Both loops apply each rule once per node, down a 2 000-level run too."""
    mixed = RuleSystem(
        (
            Rule("z", 0, lambda: 1),
            Rule("s", 1, lambda a: a + 1),
            Rule("p", 2, lambda a, b: a + b),
            Rule("t", 3, lambda a, b, c: a * b + c),
        )
    )
    for system, text in (
        (mixed, "t(s(s(p(z, s(z)))), p(z, z), s(t(z, s(z), z)))"),
        (EVEN, "f2(" * 2_000 + "f1" + ")" * 2_000),
    ):
        calls = collections.Counter()
        counted = counted_system(system, calls)
        names = parse_name_tree(text)
        full = infer_full_tree(counted, names)
        expected = collections.Counter(node.label for _, node in generators.preorder(names))
        assert calls == expected
        calls.clear()
        check_full_tree(counted, full)
        assert calls == expected


def test_elements_that_render_alike_keep_discovery_order():
    """1 and "1" render alike and do not order: the pool is sorted by
    rendering alone, so the two keep discovery order and are never compared."""
    system = RuleSystem(
        (
            Rule("one", 0, lambda: 1),
            Rule("text", 0, lambda: "1"),
            Rule("cat", 2, lambda a, b: f"{a}{b}" if len(f"{a}{b}") == 2 else None),
        )
    )
    assert iterate(system, 3) == (frozenset({1, "1", "11"}), 2)
    assert member(system, "11", 2) == Tree(("11", "cat"), (Tree((1, "one")), Tree((1, "one"))))


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
    # layers 8 and 9 bring 64 and 22 new elements; like every layer of a
    # system with a rule of arity 2 or more, each joins the pool in one merge
    adder = RuleSystem(
        (Rule("one", 0, lambda: 1), Rule("add", 2, lambda a, b: a + b if a + b <= 150 else None))
    )
    assert iterate(adder, 12) == _naive_iterate(adder, 12) == (frozenset(range(1, 151)), 9)
    for target in (1, 33, 64, 65, 100, 129, 150, 151):
        assert member(adder, target, 12) == _naive_member(adder, target, 12)


def test_member_builds_only_its_witness(monkeypatch):
    built = []

    class CountingTree(Tree):
        __slots__ = ()

        def __new__(cls, label, children=()):
            built.append(label)
            return super().__new__(cls, label, children)

    monkeypatch.setattr(engine, "Tree", CountingTree)
    adder = RuleSystem(
        (Rule("one", 0, lambda: 1), Rule("add", 2, lambda a, b: a + b if a + b <= 150 else None))
    )
    # unary only: the search to 10 also reaches 1, 3, ..., 9, off its witness
    stepper = RuleSystem(
        (
            Rule("z", 0, lambda: 0),
            Rule("s1", 1, lambda a: a + 1 if a + 1 < 50 else None),
            Rule("s2", 1, lambda a: a + 2 if a + 2 < 50 else None),
        )
    )
    # a ternary rule next to a unary one: 10 is t(one, one, 8) and 8 is
    # t(s(one), 3, 3), where 3 is t(one, one, one)
    tripler = RuleSystem(
        (
            Rule("one", 0, lambda: 1),
            Rule("s", 1, lambda a: a + 1 if a < 3 else None),
            Rule("t", 3, lambda a, b, c: a + b + c if a + b + c <= 20 else None),
        )
    )
    cases = ((adder, 8), (adder, 150), (adder, 1), (stepper, 10), (stepper, 49), (tripler, 10))
    for system, target in cases:
        built.clear()
        witness = member(system, target, 30)
        nodes, stack = {}, [witness]
        while stack:
            node = stack.pop()
            nodes[id(node)] = node
            stack.extend(node.children)
        assert witness.label[0] == target
        assert type(witness) is CountingTree
        # every witness node once, through the patched class, and nothing else
        assert sorted(built) == sorted(node.label for node in nodes.values())
        if target == 8:  # add(4, 4): the subderivation of 4 is one shared object
            assert witness.label == (8, "add")
            assert witness.children[0] is witness.children[1]
        if system is stepper:  # built leaf first: z, s2 up to the even part, s1 to an odd target
            chain = [(0, "z")] + [(k, "s2") for k in range(2, target + 1, 2)]
            assert built == chain + [(target, "s1")] * (target % 2)
        if target == 1:  # concluded by a nullary rule in layer 0: one node
            assert built == [(1, "one")]
        if system is tripler:
            assert built == [(1, "one"), (2, "s"), (3, "t"), (8, "t"), (10, "t")]
            eight = witness.children[2]
            assert witness.children[0] is witness.children[1] is eight.children[0].children[0]
            assert eight.children[1] is eight.children[2]
    built.clear()
    assert member(adder, 151, 12) is None
    assert member(stepper, 50, 30) is None
    assert built == []


def test_member_keeps_the_layer_stop_apart_from_the_row_stop():
    # the layer reaching 4 starts with 1 and 2 known and may add 2**2 - 1**2
    # = 3 elements: 2 + 3 > 4, so it runs to its end, adding 3 and 4, and
    # is the last; a search going on to the next layer passes max_size 4
    adder = RuleSystem(
        (Rule("one", 0, lambda: 1), Rule("add", 2, lambda a, b: a + b if a + b <= 150 else None))
    )
    one = Tree((1, "one"))
    two = Tree((2, "add"), (one, one))
    witness = member(adder, 4, 10, max_size=4)
    assert witness == Tree((4, "add"), (two, two)) == _naive_member(adder, 4, 10, max_size=4)
    with pytest.raises(ResourceLimit, match="^more than 4 derivable elements$"):
        member(adder, 5, 10, max_size=4)


@given(_seeds, st.sampled_from((generators.wide_system, generators.unary_system)))
def test_member_witness_is_one_object_per_element(seed, build):
    # a witness reuses the subderivation of an element wherever it is an
    # argument: without that, add(a, a) chains double in size each layer
    system = build(random.Random(seed))
    closure, _ = iterate(system, 4)
    for element in closure:
        witness = member(system, element, 4)
        by_element, nodes, stack = {}, set(), [witness]
        while stack:  # every occurrence: a witness of height 4 has at most 3**3 leaves
            node = stack.pop()
            assert by_element.setdefault(node.label[0], node) is node
            nodes.add(id(node))
            stack.extend(node.children)
        assert len(nodes) == len(by_element)
        assert witness == _naive_member(system, element, 4)


def test_member_builds_a_long_chain_without_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        witness = member(EVEN, 10_000, 5_001)
    finally:
        sys.setrecursionlimit(limit)
    assert _chain_labels(witness) == [(2 * i, "f2") for i in range(5000, 0, -1)] + [(0, "f1")]


@given(_seeds)
def test_call_order_and_naive_reference_without_a_pool(seed):
    # only nullary and unary rules, so the closure keeps no pool; past 9,
    # rendering order ("10" < "2") differs from numeric order
    rng = random.Random(seed)
    system = generators.unary_system(rng)
    for steps in range(9):  # every budget: 0 applies no rule, not even a nullary one
        _assert_call_order(system, steps)
    sizes = [len(_naive_iterate(system, steps)[0]) for steps in range(8)]
    # a bound passed at the second new element of the last layer holding several
    inside = max(size for size, nxt in zip(sizes, sizes[1:]) if nxt - size > 1) + 1
    for max_size in (inside, DEFAULT_MAX_SET_SIZE):
        for steps in range(8):
            assert _outcome(iterate, system, steps, max_size=max_size) == _outcome(
                _naive_iterate, system, steps, max_size=max_size
            )
        for element in generators.WIDE_DOMAIN:
            depth = rng.randint(1, 8)
            log = []
            outcome = _outcome(member, _logged(system, log), element, depth, max_size=max_size)
            assert outcome == _outcome(_naive_member, system, element, depth, max_size=max_size)
            raised = outcome == (ResourceLimit, f"more than {max_size} derivable elements")
            assert (log, raised) == _expected_member_calls(system, element, depth, max_size)


def _logged(system, log):
    """`system` with every rule call appended to `log` as (name, args)."""

    def wrap(rule):
        def fn(*args):
            log.append((rule.name, args))
            return rule.fn(*args)

        return Rule(rule.name, rule.arity, fn)

    return RuleSystem(tuple(wrap(rule) for rule in system.rules))


def _expected_layers(system, steps):
    """The rule calls of the first `steps` closure layers, up to the first
    that adds nothing: the full product over the render-sorted pool, rule
    by rule, kept only where the tuple holds an element new in the
    previous layer (in the first layer, over the empty pool, every tuple)."""
    layers, previous, pool = [], frozenset(), frozenset()
    for index in range(steps):
        ordered = sorted(pool, key=str)
        fresh = pool - previous
        layers.append(
            [
                (rule.name, args)
                for rule in system.rules
                for args in itertools.product(ordered, repeat=rule.arity)
                if index == 0 or fresh.intersection(args)
            ]
        )
        previous, pool = pool, pool | step(system, pool)
        if pool == previous:
            break
    return layers


def _assert_call_order(system, steps):
    log = []
    iterate(_logged(system, log), steps)
    assert log == [call for calls in _expected_layers(system, steps) for call in calls]


@given(_seeds)
def test_call_order_matches_filtered_full_product(seed):
    rng = random.Random(seed)
    system = generators.wide_system(rng)
    _assert_call_order(system, rng.randint(0, 6))


def test_call_order_with_runs_of_fresh_elements():
    # render order puts each layer's new elements next to each other:
    # layer 2 reads 1 | 11 12 | 2 (old, fresh, old) and layer 3 reads
    # 1 11 12 2 | 21 22 99 (old, fresh), runs longer than one element
    system = RuleSystem(
        (
            Rule("a", 0, lambda: 1),
            Rule("b", 0, lambda: 2),
            Rule("u", 1, lambda x: x + 10 if x < 20 else None),
            Rule("w", 3, lambda x, y, z: 99 if (x, y, z) == (2, 12, 11) else None),
        )
    )
    log = []
    assert iterate(_logged(system, log), 10) == (frozenset({1, 2, 11, 12, 21, 22, 99}), 3)
    _assert_call_order(system, 10)
    wide = [args for name, args in log if name == "w"]
    sizes = [2**3, 4**3 - 2**3, 7**3 - 4**3]  # layers 1, 2 and 3
    assert len(wide) == sum(sizes)
    assert wide[8:12] == [(1, 1, 11), (1, 1, 12), (1, 11, 1), (1, 11, 11)]
    # after the 12 tuples from 1, 16 from 11, 16 from 12 and 7 from 2
    assert wide.index((2, 12, 11)) == 8 + 51


def test_call_order_with_a_rule_of_arity_four():
    # wider than any rule `generators.wide_system` draws: a layer after the
    # first walks the pool's 4-fold product and skips the tuples holding no
    # fresh element; 10 to 14 render before 2, and 13 is the last element,
    # reached in the fifth layer
    def q(a, b, c, d):
        value = a * b + c * d
        return value if a != b and c < d and value < 15 else None

    system = RuleSystem(
        (Rule("z", 0, lambda: 1), Rule("u", 1, lambda a: a + 1 if a < 3 else None), Rule("q", 4, q))
    )
    for steps in range(7):
        _assert_call_order(system, steps)
    for max_size in (8, DEFAULT_MAX_SET_SIZE):  # 8 is passed inside the fourth layer
        for element, depth in ((13, 6), (13, 4), (14, 5), (4, 3), (0, 6)):
            log = []
            outcome = _outcome(member, _logged(system, log), element, depth, max_size=max_size)
            assert outcome == _outcome(_naive_member, system, element, depth, max_size=max_size)
            raised = outcome == (ResourceLimit, f"more than {max_size} derivable elements")
            assert (log, raised) == _expected_member_calls(system, element, depth, max_size)


@pytest.mark.parametrize(
    "system, max_size, calls, last",
    [
        (
            RuleSystem(
                (
                    Rule("z", 0, lambda: 0),
                    Rule("s", 1, lambda a: (7 * a + 3) % 40),
                    Rule("t", 1, lambda a: (5 * a + 1) % 40),
                )
            ),
            20,
            29,
            ("s", (36,)),
        ),
        (
            RuleSystem((Rule("z", 0, lambda: 1), Rule("m", 2, lambda a, b: (a * b + a + 1) % 50))),
            20,
            35,
            ("m", (1, 33)),
        ),
        (
            RuleSystem(
                (
                    Rule("z", 0, lambda: 1),
                    Rule("y", 0, lambda: 2),
                    Rule("f", 3, lambda a, b, c: (a * b + c) % 60),
                )
            ),
            30,
            176,
            ("f", (5, 5, 6)),
        ),
    ],
    ids=["arity1", "arity2", "arity3"],
)
def test_resource_limit_fires_at_the_same_rule_call(system, max_size, calls, last):
    # the bound is passed inside a layer; the number of calls made before
    # it fires pins the order in which the layer tries its tuples
    for search, args, message in (
        (iterate, (50,), f"step produced more than {max_size} elements"),
        (member, (-1, 50), f"more than {max_size} derivable elements"),
    ):
        log = []
        with pytest.raises(ResourceLimit, match=f"^{message}$"):
            search(_logged(system, log), *args, max_size=max_size)
        assert (len(log), log[-1]) == (calls, last)



def _max_sizes(system, steps):
    """Bounds across the closure's sizes, and at and just under each
    layer's known elements plus its tries, where `member`'s stop flips."""
    layers = _expected_layers(system, steps)
    sizes = [len(_naive_iterate(system, k)[0]) for k in range(len(layers))]
    edges = [size + len(calls) for size, calls in zip(sizes[1:], layers[1:])]
    return [*sizes, *edges, *(edge - 1 for edge in edges), DEFAULT_MAX_SET_SIZE]


def _expected_member_calls(system, element, depth, max_size):
    """The rule calls of `member` and whether it raises ResourceLimit,
    read off the calls of whole layers: a layer that reaches `element`
    ends at the first binary row (one rule, one first argument) ending at
    or after the element's first application, when the elements known
    before it plus its calls stay within `max_size`; the search ends at
    the call that passes `max_size`."""
    rules = {rule.name: rule for rule in system.rules}
    seen: set = set()
    log = []
    for calls in _expected_layers(system, depth):
        before, reached = len(seen), False
        for index, (name, args) in enumerate(calls):
            log.append((name, args))
            result = rules[name].fn(*args)
            if result is not None and result not in seen:
                seen.add(result)
                if len(seen) > max_size:
                    return log, True
                reached = reached or result == element
            nxt = calls[index + 1] if index + 1 < len(calls) else (None, (None,))
            row_end = len(args) == 2 and (nxt[0], nxt[1][0]) != (name, args[0])
            if reached and row_end and before + len(calls) <= max_size:
                return log, False
        if element in seen:
            break
    return log, False


@given(_seeds)
def test_member_call_order_stops_after_the_targets_row(seed):
    rng = random.Random(seed)
    system = generators.wide_system(rng)
    max_size = rng.choice(_max_sizes(system, 6))
    for element in generators.WIDE_DOMAIN:
        depth = rng.randint(1, 6)
        log = []
        outcome = _outcome(member, _logged(system, log), element, depth, max_size=max_size)
        raised = outcome == (ResourceLimit, f"more than {max_size} derivable elements")
        assert (log, raised) == _expected_member_calls(system, element, depth, max_size)


@given(_seeds)
def test_member_matches_naive_reference_across_max_sizes(seed):
    rng = random.Random(seed)
    system = generators.wide_system(rng)
    max_size = rng.choice(_max_sizes(system, 6))
    for element in generators.WIDE_DOMAIN:
        depth = rng.randint(1, 6)
        assert _outcome(member, system, element, depth, max_size=max_size) == _outcome(
            _naive_member, system, element, depth, max_size=max_size
        )


@given(_seeds)
def test_layer_tries_counts_the_calls_of_each_layer(seed):
    system = generators.wide_system(random.Random(seed))
    layers = _expected_layers(system, 7)
    sizes = [len(_naive_iterate(system, k)[0]) for k in range(len(layers))]
    for i in range(1, len(layers)):
        tries = engine._layer_tries(system.rules, sizes[i], sizes[i] - sizes[i - 1])
        assert tries == len(layers[i])


def test_member_stop_holds_the_bound_at_its_edge():
    # the layer reaching 9 (index 4) starts with 8 known elements, 4 of
    # them fresh, tries 8**2 - 4**2 = 48 pairs and adds 9..16; its first
    # row pairs 1 with the fresh 5..8 and ends at add(1, 8) = 9
    adder = RuleSystem(
        (Rule("one", 0, lambda: 1), Rule("add", 2, lambda a, b: a + b if a + b <= 150 else None))
    )
    assert engine._layer_tries(adder.rules, 8, 4) == 48
    with pytest.raises(ResourceLimit, match="^more than 12 derivable elements$"):
        member(adder, 9, 6, max_size=12)
    whole = []
    iterate(_logged(adder, whole), 5)
    assert len(whole) == 17 + 48 and whole[17 + 3] == ("add", (1, 8))
    # 8 + 48 elements at most: the stop holds from max_size 56 and not at 55
    for max_size, calls in ((100, 17 + 4), (56, 17 + 4), (55, 17 + 48)):
        log = []
        witness = member(_logged(adder, log), 9, 6, max_size=max_size)
        assert witness == _naive_member(adder, 9, 6, max_size=max_size)
        assert log == whole[:calls]
