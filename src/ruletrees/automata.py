"""Nondeterministic finite automata viewed as rule systems over states.

Each transition `from --letter--> to` compiles to a unary rule whose
premise is `to` and whose conclusion is `from`: a derivation of a state
s is a run that starts at s, consumes one letter per rule, and bottoms
out in a final state.  Erasing the rule names of such a chain, top
down, spells the word the run reads.

Rules for the same letter are told apart by a 1-based index, assigned
after sorting that letter's rules by (premise, conclusion); final
states get nullary rules eps1, eps2, ... in state-name order.  An `Nfa`
is built with this rule view, once, and refuses to be built when two
rules get one name (a letter `eps` next to a final state) or a name does
not read as one (a letter holding `(`, `)` or `,`).

`recognizes` and `derivations_of` share one subset simulation.  The
runs are then built from the rule names alone, from the last letter
back, so a tail common to several runs is one shared `Tree`.

The file format is line oriented:

    state NAME
    final NAME
    letter NAME
    trans FROM LETTER TO

with `#` starting a comment.
"""

from __future__ import annotations

from .errors import ParseError, Rejected
from .trees import NAME_RE, Tree, record

Word = tuple[str, ...]


class UnknownState(ValueError):
    pass


class UnknownLetter(ValueError):
    pass


class MalformedChain(Rejected):
    """A tree handed to `erase` is not a linear chain ending in a final rule."""


class Nfa(record("Nfa", "states", "alphabet", "transitions", "finals")):
    """Frozensets of names, and of (source, letter, target) transitions,
    with the rule view built as `RuleSystem` builds its index: `_edges` and
    `_final_rules` as in `CompiledRules`, and `_steps` mapping each letter
    to its `_edges` in name order."""

    def __new__(cls, states, alphabet, transitions, finals):
        for state in sorted(finals):  # the first fault in name order, whatever the hash seed
            if state not in states:
                raise ValueError(f"final state {state} is not declared")
        by_letter = {}
        for source, letter, target in sorted(transitions):
            if source not in states:
                raise ValueError(f"transition source {source} is not declared")
            if target not in states:
                raise ValueError(f"transition target {target} is not declared")
            if letter not in alphabet:
                raise ValueError(f"transition letter {letter} is not declared")
            by_letter.setdefault(letter, []).append((target, source))
        edges = tuple(
            (f"{letter}{k}", letter, premise, conclusion)
            for letter in sorted(by_letter)
            for k, (premise, conclusion) in enumerate(sorted(by_letter[letter]), start=1)
        )
        final_rules = tuple((f"eps{j}", state) for j, state in enumerate(sorted(finals), start=1))
        # what `Rule`, then `RuleSystem`, would raise on these names, in order;
        # no name is empty, so the names are valid when their join is
        names = [rule[0] for rule in edges + final_rules]
        if names and not NAME_RE.fullmatch("".join(names)):
            bad = next(name for name in names if not NAME_RE.fullmatch(name))
            raise ValueError(f"invalid rule name {bad!r}")
        if len(set(names)) < len(names):
            again = next(name for i, name in enumerate(names) if name in names[:i])
            raise ValueError(f"duplicate rule name {again}")
        steps = {}
        for edge in sorted(edges):
            steps.setdefault(edge[1], []).append(edge)
        self = super().__new__(cls, states, alphabet, transitions, finals)
        # a tuple subclass cannot have nonempty slots: the view goes in __dict__
        self.__dict__.update(_edges=edges, _final_rules=final_rules, _steps=steps)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


CompiledRules = record("CompiledRules", "system", "edges", "finals", "erasure", doc="""\
An automaton's rules as a `RuleSystem`: `edges` lists the letter rules as
(name, letter, premise, conclusion), `finals` the nullary rules as (name,
state), and `erasure` maps every rule name to the letter it spells, the
empty string for a final rule.""")


def compile_nfa(nfa: Nfa) -> CompiledRules:
    from .engine import Rule, RuleSystem  # only here, so `nfa run` loads no engine

    rules = [
        Rule(name, 1, lambda x, p=premise, c=conclusion: c if x == p else None)
        for name, _, premise, conclusion in nfa._edges
    ]
    rules += [Rule(name, 0, lambda s=state: s) for name, state in nfa._final_rules]
    erasure = {name: letter for name, letter, _, _ in nfa._edges}
    erasure.update({name: "" for name, _ in nfa._final_rules})
    return CompiledRules(RuleSystem(tuple(rules)), nfa._edges, nfa._final_rules, erasure)


def erase(compiled: CompiledRules, tree: Tree) -> Word:
    """Spell the word a derivation chain reads, root to leaf."""
    letters = []
    node = tree
    while True:
        if node.label not in compiled.erasure:
            raise MalformedChain((0,) * len(letters), f"unknown rule {node.label}")
        letter = compiled.erasure[node.label]
        if not node.children:
            if letter != "":
                raise MalformedChain((0,) * len(letters), "a chain ends in a final-state rule")
            return tuple(letters)
        if len(node.children) > 1:
            raise MalformedChain(
                (0,) * len(letters), "a chain has at most one premise per node"
            )
        if letter == "":
            raise MalformedChain((0,) * len(letters), "a final-state rule takes no premise")
        letters.append(letter)
        node = node.children[0]


def _reach(nfa: Nfa, state: str, word: Word) -> list[set[str]]:
    """The subset simulation from `state` over `word`: `reach[i]` is the
    set of states it is in after `i` letters."""
    if state not in nfa.states:
        raise UnknownState(f"unknown state {state}")
    reach = [{state}]
    for letter in word:
        if letter not in nfa.alphabet:
            raise UnknownLetter(f"unknown letter {letter}")
        rules = nfa._steps.get(letter, ())
        reach.append({premise for _, _, premise, conclusion in rules if conclusion in reach[-1]})
    return reach


def recognizes(nfa: Nfa, state: str, word: Word) -> bool:
    """Standard subset-simulation run from `state` over `word`."""
    return bool(_reach(nfa, state, word)[-1] & nfa.finals)


def derivations_of(nfa: Nfa, state: str, word: Word) -> list[Tree]:
    """All name-labeled derivation chains concluding `state` and spelling
    `word`, sorted by their linear form, built from the rule names alone."""
    word = tuple(word)
    reach = _reach(nfa, state, word)
    # chains[s] lists the runs from s over the rest of the word.  Skipping
    # the states `state` is not in after i letters spares tails that could
    # be exponentially many and are never used.  The rules extending one
    # state spell one letter, so their names differ only in the index, and
    # "(" sorts below every digit: walking them by name keeps linear-form order.
    chains = {final: [Tree(name)] for name, final in nfa._final_rules}
    for letter, states in zip(reversed(word), reversed(reach[:-1])):
        step = {}
        for name, _, premise, conclusion in nfa._steps.get(letter, ()):
            if conclusion in states and premise in chains:
                runs = step.setdefault(conclusion, [])
                runs.extend(tuple.__new__(Tree, (name, (t,))) for t in chains[premise])
        chains = step
    return chains.get(state, [])


def parse_nfa(text: str) -> Nfa:
    states, alphabet, finals = set(), set(), set()
    transitions = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, rest = fields[0], fields[1:]
        if keyword == "state" and len(rest) == 1:
            states.add(rest[0])
        elif keyword == "final" and len(rest) == 1:
            finals.add(rest[0])
        elif keyword == "letter" and len(rest) == 1:
            alphabet.add(rest[0])
        elif keyword == "trans" and len(rest) == 3:
            transitions.add((rest[0], rest[1], rest[2]))
        else:
            raise ParseError(f"line {lineno}: cannot read {line!r}", lineno)
    try:
        return Nfa(
            frozenset(states),
            frozenset(alphabet),
            frozenset(transitions),
            frozenset(finals),
        )
    except ValueError as err:
        raise ParseError(str(err), 0) from None


def parse_word(text: str) -> Word:
    """Split a word argument: on commas when present, else per character.
    A comma always separates letters: `Nfa` refuses a letter holding one
    that a transition reads, since its rules' names would not read."""
    if not text:
        return ()
    if "," in text:
        return tuple(part for part in (p.strip() for p in text.split(",")) if part)
    return tuple(text)
