"""The `closure` workload: seeded `iterate` and `member` calls.

Systems: `even` (one system reused by many ops), `add(a, b) = a + b if
a + b <= N` with a nullary `one`, and one-off random partial-table
systems with unary and binary rules.  Every expected output comes from
closed forms (even, add) or from a layered worklist closure over the
tables, never from ruletrees.
"""

from __future__ import annotations

import random
from typing import Iterator

import instances as inst
from harness import Op, apportion, counted_system, stratified

# A run has OPS_PER_SECOND x --seconds ops, which took about --seconds at
# reference host speed (see hostspeed) when the benchmark was written.
OPS_PER_SECOND = 200

# (kind, share of the ops)
MIX = (
    ("even.iterate", 0.12),
    ("even.member", 0.28),
    ("add.iterate", 0.10),
    ("add.member", 0.15),
    ("table.iterate", 0.15),
    ("table.member", 0.20),
)


# ------------------------------------------------------------------ systems


def build_system(key: tuple, spec, engine, counter: list | None):
    """The rule system an op key names; rule callbacks are counted when
    `counter` is given."""
    kind = key[0]
    if kind == "even":
        system = engine.even_numbers()
    elif kind == "add":
        bound = key[1]
        system = engine.RuleSystem(
            (
                engine.Rule("one", 0, lambda: 1),
                engine.Rule("add", 2, lambda a, b: a + b if a + b <= bound else None),
            )
        )
    else:
        rules = []
        for name, arity, data in spec[1]:
            if arity == 0:
                rules.append(engine.Rule(name, 0, lambda value=data: value))
            else:
                rules.append(
                    engine.Rule(name, arity, lambda *args, table=data: table.get(args))
                )
        system = engine.RuleSystem(tuple(rules))
    return counted_system(engine, system, counter)


def draw_setup(seed: int, count: int) -> tuple[list[tuple], dict]:
    """The system key of every op, in op order, and the table spec of each
    one-off table key.  Kept apart from op parameters so that set-up can
    build the systems without drawing the rest."""
    rng = random.Random(f"closure-systems:{seed}")
    kinds = plan(seed, count)
    add_bounds = iter(stratified(rng, sum(k.startswith("add") for k in kinds) or 1, 80, 300))
    keys, specs = [], {}
    for index, kind in enumerate(kinds):
        family = kind.split(".")[0]
        if family == "even":
            keys.append(("even",))
        elif family == "add":
            keys.append(("add", next(add_bounds)))
        else:
            keys.append(("table", index))
            specs[keys[-1]] = inst.gen_table_system(rng)
    return keys, specs


def plan(seed: int, count: int) -> list[str]:
    kinds = apportion(MIX, count)
    random.Random(f"closure-plan:{seed}").shuffle(kinds)
    return kinds


def build_env(drawn: tuple[list[tuple], dict], modules: dict, counter: list | None) -> dict:
    """Set-up: every rule system the ops use, each built once."""
    keys, specs = drawn
    env = {}
    for key in keys:
        if key not in env:
            env[key] = build_system(key, specs.get(key), modules["engine"], counter)
    return env


# --------------------------------------------------------------- references


def closed_heights(key: tuple, limit: int) -> dict:
    """Heights of every element of `even` or `add≤N` up to `limit` layers."""
    if key[0] == "even":
        return {2 * k: k + 1 for k in range(limit)}
    bound = key[1]
    heights = {1: 1}
    for value in range(2, bound + 1):
        heights[value] = 1 + (value - 1).bit_length()
    return heights


def justifier(key: tuple, spec):
    """justify(rule name, child elements, element) for the system `key` names."""
    if key[0] == "even":
        return lambda name, kids, elem: (
            (name == "f1" and not kids and elem == 0)
            or (name == "f2" and len(kids) == 1 and elem == kids[0] + 2)
        )
    if key[0] == "add":
        bound = key[1]
        return lambda name, kids, elem: (
            (name == "one" and not kids and elem == 1)
            or (name == "add" and len(kids) == 2 and elem == kids[0] + kids[1] <= bound)
        )
    by_name = {name: (arity, data) for name, arity, data in spec[1]}

    def justify(name, kids, elem):
        if name not in by_name or by_name[name][0] != len(kids):
            return False
        arity, data = by_name[name]
        return elem == (data if arity == 0 else data.get(tuple(kids)))

    return justify


def witness_ok(tree, target, height: int | None, justify) -> bool:
    """A member result is right when it is None exactly for underivable
    targets, concludes the target, is justified at every node and has the
    minimal height.  Shared subtrees are visited once."""
    if tree is None or height is None:
        return tree is None and height is None
    if tree.label[0] != target:
        return False
    heights: dict = {}
    stack = [(tree, False)]
    while stack:
        node, children_done = stack.pop()
        if id(node) in heights:
            continue
        if not children_done:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children if id(c) not in heights)
            continue
        elem, name = node.label
        if not justify(name, [c.label[0] for c in node.children], elem):
            return False
        heights[id(node)] = 1 + max((heights[id(c)] for c in node.children), default=0)
    return heights[id(tree)] == height


# --------------------------------------------------------------------- ops


def iterate_op(key, steps, heights) -> Op:
    top = max(heights.values(), default=0)
    expected_set = frozenset(e for e, h in heights.items() if h <= steps)
    fixed_at = top if top < steps else None
    expected = (expected_set, fixed_at)
    return Op(
        kind=f"{key[0]}.iterate",
        layer="engine",
        key=key,
        call=lambda lib, env: lib.iterate(env[key], steps),
        check=lambda out: out == expected,
        counts={"engine.elements": len(expected_set)},
    )


def member_op(key, target, depth, heights, spec=None) -> Op:
    height = heights.get(target)
    if height is not None and height > depth:
        height = None
    top = max(heights.values(), default=0)
    explored = height if height is not None else min(depth, top)
    elements = sum(1 for h in heights.values() if h <= explored)
    justify = justifier(key, spec)
    return Op(
        kind=f"{key[0]}.member",
        layer="engine",
        key=key,
        call=lambda lib, env: lib.member(env[key], target, depth),
        check=lambda out: witness_ok(out, target, height, justify),
        counts={"engine.elements": elements},
    )


def make_ops(seed: int, count: int) -> Iterator[Op]:
    kinds = plan(seed, count)
    keys, specs = draw_setup(seed, count)
    rng = random.Random(f"closure-ops:{seed}")
    per_kind = {kind: kinds.count(kind) for kind, _ in MIX}
    draws = {
        "even.iterate": iter(stratified(rng, per_kind["even.iterate"], 100, 500)),
        "even.member": iter(stratified(rng, per_kind["even.member"], 30, 300)),
    }
    for kind, key in zip(kinds, keys):
        if kind == "even.iterate":
            steps = next(draws[kind])
            yield iterate_op(key, steps, closed_heights(key, steps))
        elif kind == "even.member":
            layers = next(draws[kind])
            shape = rng.random()
            if shape < 0.5:  # found
                target, depth = 2 * (layers - 1), layers + rng.randint(0, 20)
            elif shape < 0.75:  # derivable, but deeper than the search
                target, depth = 2 * (layers - 1), rng.randint(layers // 2, layers - 1)
            else:  # odd: never derivable
                target, depth = 2 * rng.randint(0, layers) + 1, layers
            yield member_op(key, target, depth, closed_heights(key, depth + 1))
        elif kind == "add.iterate":
            yield iterate_op(key, rng.randint(3, 12), closed_heights(key, 0))
        elif kind == "add.member":
            target, depth = rng.randint(1, key[1] + 20), rng.randint(4, 12)
            yield member_op(key, target, depth, closed_heights(key, 0))
        else:
            spec = specs[key]
            heights = inst.table_heights(spec[1])
            if kind == "table.iterate":
                yield iterate_op(key, rng.randint(2, 30), heights)
            else:
                target, depth = rng.randrange(spec[0]), rng.randint(2, 30)
                yield member_op(key, target, depth, heights, spec)
