import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generators
from ruletrees import automata
from ruletrees.automata import (
    MalformedChain,
    Nfa,
    UnknownLetter,
    UnknownState,
    compile_nfa,
    derivations_of,
    erase,
    parse_nfa,
    parse_word,
    recognizes,
)
from ruletrees.engine import Rule, RuleSystem, check_full_tree, infer_conclusion, infer_full_tree
from ruletrees.errors import ParseError
from ruletrees.trees import Tree, parse_name_tree, print_name_tree

PARITY = Nfa(
    states=frozenset({"even", "odd"}),
    alphabet=frozenset({"a"}),
    transitions=frozenset({("even", "a", "odd"), ("odd", "a", "even")}),
    finals=frozenset({"even"}),
)

PARITY_TEXT = """\
# odd-length words over a single letter
state even
state odd
letter a
trans even a odd
trans odd a even
final even
"""


def test_parse_nfa():
    assert parse_nfa(PARITY_TEXT) == PARITY
    spaced = "state s\nfinal s   # accept everything empty\nletter a\n\n"
    assert parse_nfa(spaced) == Nfa(
        frozenset({"s"}), frozenset({"a"}), frozenset(), frozenset({"s"})
    )


def test_parse_nfa_errors():
    with pytest.raises(ParseError):
        parse_nfa("state s\nfinality s")
    with pytest.raises(ParseError):
        parse_nfa("state s\ntrans s a")
    with pytest.raises(ParseError):
        parse_nfa("state s\nfinal t")
    with pytest.raises(ParseError):
        parse_nfa("state s\nletter a\ntrans s b s")


def test_nfa_validation():
    with pytest.raises(ValueError, match=r"^final state s is not declared$"):
        Nfa(frozenset(), frozenset(), frozenset(), frozenset({"s"}))
    with pytest.raises(ValueError, match=r"^transition letter a is not declared$"):
        Nfa(
            frozenset({"s"}),
            frozenset(),
            frozenset({("s", "a", "s")}),
            frozenset(),
        )
    # a transition whose source, or whose target, is undeclared
    with pytest.raises(ValueError, match="source t is not declared"):
        Nfa(frozenset({"s"}), frozenset({"a"}), frozenset({("t", "a", "s")}), frozenset())
    with pytest.raises(ValueError, match="target t is not declared"):
        Nfa(frozenset({"s"}), frozenset({"a"}), frozenset({("s", "a", "t")}), frozenset())


def test_compiled_rule_naming():
    compiled = compile_nfa(PARITY)
    # per-letter indices follow the (premise, conclusion) order
    assert compiled.edges == (
        ("a1", "a", "even", "odd"),
        ("a2", "a", "odd", "even"),
    )
    assert compiled.finals == (("eps1", "even"),)
    assert compiled.erasure == {"a1": "a", "a2": "a", "eps1": ""}
    assert [rule.name for rule in compiled.system.rules] == ["a1", "a2", "eps1"]


def test_compiled_rules_behave_as_partial_functions():
    compiled = compile_nfa(PARITY)
    a1 = compiled.system.find("a1")
    assert a1.apply(("even",)) == "odd"
    assert a1.apply(("odd",)) is None
    eps1 = compiled.system.find("eps1")
    assert eps1.apply(()) == "even"


def test_two_letter_naming():
    machine = parse_nfa(
        "state p\nstate q\nletter a\nletter b\n"
        "trans p a q\ntrans q a q\ntrans q b p\nfinal q\nfinal p\n"
    )
    compiled = compile_nfa(machine)
    assert compiled.edges == (
        ("a1", "a", "q", "p"),
        ("a2", "a", "q", "q"),
        ("b1", "b", "p", "q"),
    )
    assert compiled.finals == (("eps1", "p"), ("eps2", "q"))


def test_derivations_golden():
    derivations = derivations_of(PARITY, "odd", ("a", "a", "a"))
    assert [print_name_tree(t) for t in derivations] == ["a1(a2(a1(eps1)))"]
    assert derivations_of(PARITY, "odd", ("a", "a")) == []
    assert [print_name_tree(t) for t in derivations_of(PARITY, "even", ())] == ["eps1"]


def test_erase_spells_the_word_top_down():
    compiled = compile_nfa(PARITY)
    chain = parse_name_tree("a1(a2(a1(eps1)))")
    assert erase(compiled, chain) == ("a", "a", "a")
    assert erase(compiled, Tree("eps1")) == ()


def test_erase_rejects_non_chains():
    compiled = compile_nfa(PARITY)
    with pytest.raises(MalformedChain) as info:
        erase(compiled, Tree("a1", (Tree("eps1"), Tree("eps1"))))
    assert info.value.path == ()
    with pytest.raises(MalformedChain) as info:
        erase(compiled, parse_name_tree("a1(a2)"))
    assert info.value.path == (0,)
    with pytest.raises(MalformedChain):
        erase(compiled, parse_name_tree("eps1(a1(eps1))"))
    with pytest.raises(MalformedChain):
        erase(compiled, Tree("b7"))


def _parity_chain(length: int, leaf: Tree) -> Tree:
    """a1(a2(a1(...(leaf)...))) with `length` letter rules, built bottom up."""
    for i in reversed(range(length)):
        leaf = Tree("a2" if i % 2 else "a1", (leaf,))
    return leaf


def test_erase_is_linear_in_the_chain_length():
    # a path built at every node made this quadratic: about 11 s at 64 000
    chain = _parity_chain(64_000, Tree("eps1"))
    start = time.perf_counter()
    assert erase(compile_nfa(PARITY), chain) == ("a",) * 64_000
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("depth", [0, 1, 2_000])
@pytest.mark.parametrize(
    "fault, reason",
    [
        (Tree("b7"), "unknown rule b7"),
        (Tree("a1"), "a chain ends in a final-state rule"),
        (Tree("a1", (Tree("eps1"), Tree("eps1"))), "a chain has at most one premise per node"),
        (Tree("eps1", (Tree("eps1"),)), "a final-state rule takes no premise"),
    ],
)
def test_a_malformed_node_is_reported_at_its_depth(depth, fault, reason):
    with pytest.raises(MalformedChain) as info:
        erase(compile_nfa(PARITY), _parity_chain(depth, fault))
    assert (info.value.path, info.value.reason) == ((0,) * depth, reason)


def test_recognition():
    assert recognizes(PARITY, "odd", ("a",))
    assert recognizes(PARITY, "odd", ("a", "a", "a"))
    assert not recognizes(PARITY, "odd", ())
    assert not recognizes(PARITY, "odd", ("a", "a"))
    assert recognizes(PARITY, "even", ())
    assert not recognizes(PARITY, "even", ("a",))


def test_unknown_inputs():
    with pytest.raises(UnknownState):
        recognizes(PARITY, "limbo", ())
    with pytest.raises(UnknownLetter):
        recognizes(PARITY, "even", ("z",))
    with pytest.raises(UnknownState):
        derivations_of(PARITY, "limbo", ())
    with pytest.raises(UnknownState, match=r"^unknown state limbo$"):
        derivations_of(PARITY, "limbo", ("z",))
    with pytest.raises(UnknownLetter, match=r"^unknown letter z$"):
        derivations_of(PARITY, "odd", ("a", "z", "y"))


@pytest.mark.parametrize(
    "letter, finals, message",
    [
        ("eps", {"s0"}, r"^duplicate rule name eps1$"),
        ("(", set(), r"^invalid rule name '\(1'$"),
        ("x,y", set(), r"^invalid rule name 'x,y1'$"),
        ("b)", {"s0"}, r"^invalid rule name 'b\)1'$"),
        ("a b", set(), r"^invalid rule name 'a b1'$"),
    ],
)
def test_an_automaton_whose_rules_cannot_be_named_is_refused(letter, finals, message):
    parts = frozenset({"s0"}), frozenset({letter}), frozenset({("s0", letter, "s0")})
    with pytest.raises(ValueError, match=message):
        Nfa(*parts, frozenset(finals))
    # a letter that no transition reads makes no rule
    assert Nfa(parts[0], parts[1], frozenset(), frozenset(finals)).alphabet == {letter}


def test_ambiguous_machine_has_one_derivation_per_run():
    forked = Nfa(
        frozenset({"s", "t", "u"}),
        frozenset({"a"}),
        frozenset({("s", "a", "t"), ("s", "a", "u")}),
        frozenset({"t", "u"}),
    )
    derivations = derivations_of(forked, "s", ("a",))
    assert [print_name_tree(t) for t in derivations] == ["a1(eps1)", "a2(eps2)"]


def test_word_helpers():
    assert parse_word("aaa") == ("a", "a", "a")
    assert parse_word("") == ()
    assert parse_word("ab,cd") == ("ab", "cd")
    assert parse_word("a, b") == ("a", "b")


# ------------------------------------------------------------------ properties

def _accepting_paths(nfa: Nfa, state: str, word) -> int:
    """Count accepting runs by explicit path enumeration."""
    if not word:
        return 1 if state in nfa.finals else 0
    return sum(
        _accepting_paths(nfa, target, word[1:])
        for source, letter, target in nfa.transitions
        if source == state and letter == word[0]
    )


def _is_deterministic(nfa: Nfa) -> bool:
    """No two transitions share a source and a letter."""
    pairs = [(source, letter) for source, letter, _ in nfa.transitions]
    return len(pairs) == len(set(pairs))


_seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=120)
@given(_seeds)
def test_recognition_and_derivations_agree_with_path_counting(seed):
    rng = random.Random(seed)
    machine = generators.nfa(rng)
    compiled = compile_nfa(machine)
    letters = sorted(machine.alphabet)
    words = [
        tuple(w)
        for n in range(4)
        for w in itertools.product(letters, repeat=n)
    ]
    for state in sorted(machine.states):
        for word in words:
            runs = _accepting_paths(machine, state, word)
            derivations = derivations_of(machine, state, word)
            assert recognizes(machine, state, word) == (runs > 0)
            assert len(derivations) == runs
            if _is_deterministic(machine):
                assert len(derivations) <= 1
            for chain in derivations:
                assert erase(compiled, chain) == word
                assert infer_conclusion(compiled.system, chain) == state
                check_full_tree(compiled.system, infer_full_tree(compiled.system, chain))


@given(_seeds)
def test_derivations_come_in_linear_form_order(seed):
    # 10 to 16 rules per letter, so indices such as a10 sort between a1 and a2
    rng = random.Random(seed)
    states = ("s0", "s1", "s2", "s3")
    letters = ("a", "a!", "c'")
    pairs = list(itertools.product(states, states))
    transitions = {
        (source, letter, target)
        for letter in letters
        for source, target in rng.sample(pairs, rng.randint(10, len(pairs)))
    }
    finals = frozenset(state for state in states if rng.random() < 0.6)
    machine = Nfa(frozenset(states), frozenset(letters), frozenset(transitions), finals)
    for state in states:
        for word in (tuple(rng.choices(letters, k=rng.randint(1, 3))) for _ in range(4)):
            printed = [print_name_tree(t) for t in derivations_of(machine, state, word)]
            assert printed == sorted(printed)


def ref_derivations_of(nfa: Nfa, state: str, word) -> list[Tree]:
    """The earlier walk: one recursive call per letter, rebuilding every
    tail for each run that passes through it."""
    word = tuple(word)
    if state not in nfa.states:
        raise UnknownState(f"unknown state {state}")
    for letter in word:
        if letter not in nfa.alphabet:
            raise UnknownLetter(f"unknown letter {letter}")
    compiled = compile_nfa(nfa)
    by_conclusion = {}
    for name, letter, premise, conclusion in sorted(compiled.edges):
        by_conclusion.setdefault((conclusion, letter), []).append((name, premise))
    eps_name = {st: name for name, st in compiled.finals}

    def chains(at, rest):
        if not rest:
            if at in eps_name:
                return [Tree(eps_name[at])]
            return []
        found = []
        for name, premise in by_conclusion.get((at, rest[0]), []):
            found.extend(Tree(name, (tail,)) for tail in chains(premise, rest[1:]))
        return found

    return chains(state, word)


@given(_seeds)
def test_derivations_match_the_recursive_walk(seed):
    machine = generators.nfa(random.Random(seed))
    letters = sorted(machine.alphabet)
    for state in sorted(machine.states):
        for n in range(5):
            for word in itertools.product(letters, repeat=n):
                assert derivations_of(machine, state, word) == ref_derivations_of(
                    machine, state, word
                )


# a1: p -> p, a2: p -> q, a3: q -> p and a4: q -> q, written premise -> conclusion
COMPLETE = Nfa(
    states=frozenset({"p", "q"}),
    alphabet=frozenset({"a"}),
    transitions=frozenset(itertools.product("pq", "a", "pq")),
    finals=frozenset({"p", "q"}),
)


def test_runs_share_their_tails():
    runs = derivations_of(COMPLETE, "p", ("a",) * 16)
    assert len(runs) == 2**16

    def tails(first, second):
        return [
            run.children[0].children[0]
            for run in runs
            if (run.label, run.children[0].label) == (first, second)
        ]

    # from p, a1 a1 and a3 a2 both lead back to p after two letters
    pairs = list(zip(tails("a1", "a1"), tails("a3", "a2")))
    assert len(pairs) == 2**14
    assert all(left is right for left, right in pairs)


def test_states_off_the_simulation_build_no_tails(monkeypatch):
    # x has no transition; p and q have 2**12 runs each over the same word
    machine = COMPLETE._replace(states=COMPLETE.states | {"x"})
    built = []
    monkeypatch.setattr(automata, "Tree", lambda *fields: built.append(fields) or Tree(*fields))
    assert derivations_of(machine, "x", ("a",) * 12) == []
    assert built == [("eps1",), ("eps2",)]


def test_derivations_build_no_rules(monkeypatch):
    built = []
    monkeypatch.setattr("ruletrees.engine.Rule", lambda *fields: built.append(fields) or Rule(*fields))
    assert len(derivations_of(COMPLETE, "p", ("a",) * 3)) == 8
    # reading an automaton checks its rule names without building a rule;
    # a letter named eps makes a rule eps1, as does the final state
    with pytest.raises(ParseError, match=r"^duplicate rule name eps1 \(at position 0\)$"):
        parse_nfa("state s0\nletter eps\ntrans s0 eps s0\nfinal s0\n")
    with pytest.raises(ParseError, match=r"^invalid rule name '\(1' \(at position 0\)$"):
        parse_nfa("state s0\nletter (\ntrans s0 ( s0\nfinal s0\n")
    assert built == []
    compile_nfa(COMPLETE)  # the counting Rule is the one compiling calls
    assert len(built) == 6


def compiled_rule_names(alphabet, transitions, finals) -> tuple[list, list]:
    """The earlier naming, compiled to the whole rule system so that `Rule`
    and `RuleSystem` check the names: the letter rules as (name, letter,
    premise, conclusion) and the final rules as (name, state)."""
    edges = []
    for letter in sorted(alphabet):
        letter_edges = sorted((t, s) for s, lt, t in transitions if lt == letter)
        for k, (premise, conclusion) in enumerate(letter_edges, start=1):
            edges.append((f"{letter}{k}", letter, premise, conclusion))
    finals = [(f"eps{j}", final) for j, final in enumerate(sorted(finals), start=1)]
    rules = [Rule(name, 1, lambda x: x) for name, _, _, _ in edges]
    RuleSystem(tuple(rules + [Rule(name, 0, lambda: s) for name, s in finals]))
    return edges, finals


def compiled_derivations_of(nfa: Nfa, state: str, word) -> list[Tree]:
    """The earlier version: the subset simulation scanning every transition
    per letter, then the rule names compiled, then the walk from the last
    letter back over every rule for each letter."""
    word = tuple(word)
    if state not in nfa.states:
        raise UnknownState(f"unknown state {state}")
    reach = [{state}]
    for letter in word:
        if letter not in nfa.alphabet:
            raise UnknownLetter(f"unknown letter {letter}")
        reach.append({t for s, lt, t in nfa.transitions if lt == letter and s in reach[-1]})
    edges, finals = compiled_rule_names(nfa.alphabet, nfa.transitions, nfa.finals)
    chains = {final: [Tree(name)] for name, final in finals}
    for letter, states in zip(reversed(word), reversed(reach[:-1])):
        step = {}
        for name, lt, premise, conclusion in sorted(edges):
            if lt == letter and conclusion in states and premise in chains:
                step.setdefault(conclusion, []).extend(Tree(name, (t,)) for t in chains[premise])
        chains = step
    return chains.get(state, [])


def clashing_nfa(rng: random.Random) -> tuple:
    """The four fields of an automaton with up to four states, over letters
    that may make colliding rule names (`eps` beside a final state; `a1`
    beside 11 or more `a` transitions) or no rule name at all (`(`, `x,y`,
    `b)`)."""
    states = ("s0", "s1", "s2", "s3")[: rng.randint(1, 4)]
    letters = ["a"] + rng.sample(("a1", "eps", "b"), rng.randint(0, 3))
    if rng.random() < 0.25:
        letters.append(rng.choice(("(", "x,y", "b)")))
    pairs = list(itertools.product(states, states))
    transitions = {
        (source, letter, target)
        for letter in letters
        for source, target in rng.sample(pairs, rng.randint(0, len(pairs)))
    }
    finals = frozenset(state for state in states if rng.random() < 0.5)
    return frozenset(states), frozenset(letters), frozenset(transitions), finals


def _outcome(fn, *args):
    try:
        return "ok", [print_name_tree(t) for t in fn(*args)]
    except ValueError as err:
        return type(err), str(err)


@given(_seeds)
def test_derivations_match_the_compiling_walk(seed):
    rng = random.Random(seed)
    fields = clashing_nfa(rng)
    try:
        compiled_rule_names(*fields[1:])
    except ValueError as err:
        # an automaton whose rules cannot be named is refused when built
        with pytest.raises(ValueError) as refused:
            Nfa(*fields)
        assert (type(refused.value), str(refused.value)) == (ValueError, str(err))
        return
    machine = Nfa(*fields)
    letters = sorted(machine.alphabet)
    for state in sorted(machine.states) + ["limbo"]:
        for word in (rng.choices(letters, k=rng.randint(0, 4)) for _ in range(4)):
            if rng.random() < 0.1:
                word.insert(rng.randint(0, len(word)), "z")
            got = _outcome(derivations_of, machine, state, word)
            assert got == _outcome(compiled_derivations_of, machine, state, word), word


def test_a_3000_letter_word_has_its_run():
    loop = parse_nfa("state s\nletter a\ntrans s a s\nfinal s\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        (run,) = derivations_of(loop, "s", ("a",) * 3_000)
    finally:
        sys.setrecursionlimit(limit)
    assert erase(compile_nfa(loop), run) == ("a",) * 3_000
