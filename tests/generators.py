"""Seeded random builders shared across the property tests, and the
preorder walk that the tests use to visit every node of a tree.

Each builder takes a random.Random so that hypothesis can drive the
sampling through a single integer seed, which keeps shrinking and
replay deterministic.
"""

from __future__ import annotations

import itertools
import random

from ruletrees import natded as nd
from ruletrees import recfun as rf
from ruletrees.automata import Nfa
from ruletrees.engine import Rule, RuleSystem
from ruletrees.trees import Tree

DOMAIN = range(8)


def system(rng: random.Random) -> RuleSystem:
    """A small rule system over the numbers 0..7 with partial tables."""
    count = rng.randint(1, 4)
    rules = []
    for i in range(count):
        arity = rng.choice((0, 0, 1, 1, 2))
        if arity == 0:
            value = rng.randrange(8)
            rules.append(Rule(f"r{i}", 0, lambda value=value: value))
        else:
            table = {}
            for args in itertools.product(DOMAIN, repeat=arity):
                if rng.random() < 0.35:
                    table[args] = rng.randrange(8)
            rules.append(Rule(f"r{i}", arity, lambda *args, table=table: table.get(args)))
    return RuleSystem(tuple(rules))


WIDE_DOMAIN = range(12)


def wide_system(rng: random.Random) -> RuleSystem:
    """A rule system of arity up to 3 over the numbers 0..11 with partial tables.

    Past 9, rendering order ("10" < "2") differs from numeric order, so
    a search that walks argument tuples in the wrong order picks other
    witnesses than one that renders them.
    """
    count = rng.randint(1, 5)
    rules = []
    for i in range(count):
        arity = rng.choice((0, 0, 1, 1, 2, 2, 3))
        if arity == 0:
            value = rng.choice(WIDE_DOMAIN)
            rules.append(Rule(f"r{i}", 0, lambda value=value: value))
        else:
            table = {}
            for args in itertools.product(WIDE_DOMAIN, repeat=arity):
                if rng.random() < 0.3:
                    table[args] = rng.choice(WIDE_DOMAIN)
            rules.append(Rule(f"r{i}", arity, lambda *args, table=table: table.get(args)))
    return RuleSystem(tuple(rules))


def unary_system(rng: random.Random) -> RuleSystem:
    """Three nullary rules with distinct values and up to three unary
    partial tables over the numbers 0..11: no rule of arity 2 or more, so
    the closure keeps no pool, and the first layer holds three elements."""
    rules = [
        Rule(f"z{i}", 0, lambda value=value: value)
        for i, value in enumerate(rng.sample(WIDE_DOMAIN, 3))
    ]
    for i in range(rng.randint(1, 3)):
        table = {a: rng.choice(WIDE_DOMAIN) for a in WIDE_DOMAIN if rng.random() < 0.6}
        rules.append(Rule(f"u{i}", 1, table.get))
    return RuleSystem(tuple(rules))


ATOMS = (nd.Atom("P"), nd.Atom("Q"), nd.Atom("R"))


def prop(rng: random.Random, depth: int = 2) -> nd.Prop:
    if depth == 0 or rng.random() < 0.5:
        return rng.choice(ATOMS)
    ctor = rng.choice((nd.And, nd.Imp))
    return ctor(prop(rng, depth - 1), prop(rng, depth - 1))


def scheme_term(rng: random.Random, ctx: frozenset = frozenset(), depth: int = 3) -> nd.Term:
    """A term that checks under ctx and never uses full hypothesis leaves."""
    choices = []
    in_ctx = sorted(ctx, key=nd.print_prop)
    if in_ctx:
        choices.append("hyp")
    if depth > 0:
        choices.extend(("lam", "lam", "pair", "fst", "snd"))
    if not choices:
        choices = ["lam"]
    pick = rng.choice(choices)
    if pick == "hyp":
        return nd.Hyp(rng.choice(in_ctx))
    if pick == "lam":
        ann = prop(rng)
        return nd.Lam(ann, scheme_term(rng, ctx | {ann}, max(depth - 1, 0)))
    if pick == "pair":
        return nd.Pair(scheme_term(rng, ctx, depth - 1), scheme_term(rng, ctx, depth - 1))
    body = conjunction_scheme_term(rng, ctx, depth - 1)
    return nd.Fst(body) if pick == "fst" else nd.Snd(body)


def conjunction_scheme_term(rng: random.Random, ctx: frozenset, depth: int) -> nd.Term:
    """A checking term whose conclusion is a conjunction."""
    conjs = sorted((p for p in ctx if isinstance(p, nd.And)), key=nd.print_prop)
    if conjs and (depth <= 0 or rng.random() < 0.5):
        return nd.Hyp(rng.choice(conjs))
    d = max(depth - 1, 0)
    return nd.Pair(scheme_term(rng, ctx, d), scheme_term(rng, ctx, d))


def var_term(rng: random.Random, binders: tuple = (), depth: int = 3) -> nd.Term:
    """A closed named-variable term that checks, with deliberate shadowing."""
    choices = []
    if binders:
        choices.append("var")
    if depth > 0:
        choices.extend(("lam", "lam", "pair", "fst", "snd"))
    if not choices:
        choices = ["lam"]
    pick = rng.choice(choices)
    if pick == "var":
        return nd.Var(rng.choice([name for name, _ in binders]))
    if pick == "lam":
        name = rng.choice(("x", "y", "z"))
        ann = prop(rng)
        return nd.LamV(name, ann, var_term(rng, binders + ((name, ann),), max(depth - 1, 0)))
    if pick == "pair":
        return nd.PairV(var_term(rng, binders, depth - 1), var_term(rng, binders, depth - 1))
    body = conjunction_var_term(rng, binders, depth - 1)
    return nd.FstV(body) if pick == "fst" else nd.SndV(body)


def conjunction_var_term(rng: random.Random, binders: tuple, depth: int) -> nd.Term:
    innermost: dict = {}
    for name, p in binders:
        innermost[name] = p
    conj_names = sorted(name for name, p in innermost.items() if isinstance(p, nd.And))
    if conj_names and (depth <= 0 or rng.random() < 0.5):
        return nd.Var(rng.choice(conj_names))
    d = max(depth - 1, 0)
    return nd.PairV(var_term(rng, binders, d), var_term(rng, binders, d))


def program(rng: random.Random, arity: int, depth: int, allow_mu: bool = True) -> rf.Program:
    """A well-formed program of the given arity."""
    options = ["zero"]
    if arity >= 1:
        options.append("proj")
    if arity == 1:
        options.append("succ")
    if depth > 0:
        options.extend(("comp", "comp"))
        if arity >= 1:
            options.append("rec")
        if allow_mu:
            options.append("mu")
    pick = rng.choice(options)
    if pick == "zero":
        return rf.Zero(arity)
    if pick == "succ":
        return rf.Succ()
    if pick == "proj":
        return rf.Proj(arity, rng.randint(1, arity))
    if pick == "comp":
        width = rng.randint(1, 3)
        outer = program(rng, width, depth - 1, allow_mu)
        inner = tuple(program(rng, arity, depth - 1, allow_mu) for _ in range(width))
        return rf.Comp(outer, inner)
    if pick == "rec":
        base = program(rng, arity - 1, depth - 1, allow_mu)
        step = program(rng, arity + 1, depth - 1, allow_mu)
        return rf.Rec(base, step)
    return rf.Mu(program(rng, arity + 1, depth - 1, allow_mu))


def all_programs(max_size: int, max_param: int = 3) -> list:
    """Every well-formed program with at most `max_size` constructors and
    numeric parameters bounded by `max_param`, smallest first."""
    leaves = (
        [rf.Succ()]
        + [rf.Zero(n) for n in range(max_param + 1)]
        + [rf.Proj(n, i) for n in range(1, max_param + 1) for i in range(1, n + 1)]
    )
    by_size: dict = {1: leaves}
    for size in range(2, max_size + 1):
        found = []
        for body in by_size[size - 1]:
            found.append(rf.Mu(body))
        for left in range(1, size - 1):
            for base in by_size[left]:
                for step in by_size[size - 1 - left]:
                    found.append(rf.Rec(base, step))
        for outer_size in range(1, size - 1):
            for outer in by_size[outer_size]:
                for parts in _splits(size - 1 - outer_size):
                    for inner in itertools.product(*(by_size[p] for p in parts)):
                        found.append(rf.Comp(outer, tuple(inner)))
        by_size[size] = found
    out = []
    for size in range(1, max_size + 1):
        for program in by_size[size]:
            try:
                rf.arity_of(program)
            except rf.IllFormed:
                continue
            out.append(program)
    return out


def _splits(total: int):
    """Ordered tuples of positive integers summing to `total`."""
    if total == 0:
        return
    for first in range(1, total + 1):
        if first == total:
            yield (first,)
        for rest in _splits(total - first):
            yield (first,) + rest


def nfa(rng: random.Random) -> Nfa:
    """A machine with up to three states and up to two letters."""
    states = ("s0", "s1", "s2")[: rng.randint(1, 3)]
    letters = ("a", "b")[: rng.randint(1, 2)]
    transitions = set()
    for source in states:
        for letter in letters:
            for target in states:
                if rng.random() < 0.3:
                    transitions.add((source, letter, target))
    finals = {state for state in states if rng.random() < 0.4}
    return Nfa(frozenset(states), frozenset(letters), frozenset(transitions), frozenset(finals))


def preorder(tree: Tree):
    """Yield (path, subtree) in preorder, once for every occurrence."""
    stack = [((), tree)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in reversed(range(len(node.children))):
            stack.append((path + (i,), node.children[i]))
