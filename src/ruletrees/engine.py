"""Rule systems and the finite closure they generate.

A rule is a named partial function taking a fixed number of elements to
an element.  A finite list of rules induces a one-step operator on
finite sets: apply every rule to every tuple drawn from the set and
collect the defined results.  Iterating that operator from the empty
set builds the closure in layers, and every element that ever appears
is justified by a derivation tree whose nodes are rule applications.

Elements are ordinary Python values; they must support equality and
hashing, and two elements render equally (via `render_element`) only if
they are equal.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable

from .errors import ArityMismatch, Rejected, ResourceLimit
from .trees import Tree

Element = Any

DEFAULT_MAX_SET_SIZE = 100_000

# Up to this many new elements, a layer is inserted into the sorted pool
# one by one; a larger layer is merged in one linear pass instead.
_INSERT_BATCH = 32


class UnknownRuleName(Rejected):
    """A tree mentions a rule name the system does not define."""


class RuleUndefined(Rejected):
    """A rule was applied at arguments where it is undefined."""


def _valid_name(name: str) -> bool:
    return bool(name) and all(ch not in "()," and not ch.isspace() for ch in name)


@dataclass(frozen=True)
class Rule:
    """A named partial function of fixed arity.

    `fn` receives `arity` positional arguments and returns either an
    element or None to signal that the rule is undefined there.
    """

    name: str
    arity: int
    fn: Callable[..., Element | None]

    def __post_init__(self):
        if not _valid_name(self.name):
            raise ValueError(f"invalid rule name {self.name!r}")
        if self.arity < 0:
            raise ValueError(f"rule {self.name}: arity must be nonnegative")

    def apply(self, args: tuple[Element, ...]) -> Element | None:
        """Apply the rule, or return None where it is undefined."""
        if len(args) != self.arity:
            raise ArityMismatch(
                (), f"rule {self.name} expects {self.arity} argument(s), got {len(args)}"
            )
        return self.fn(*args)


@dataclass(frozen=True)
class RuleSystem:
    """A finite list of rules with distinct names over one element domain."""

    rules: tuple[Rule, ...]
    domain: str = ""
    _by_name: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        by_name = {}
        for rule in self.rules:
            if rule.name in by_name:
                raise ValueError(f"duplicate rule name {rule.name}")
            by_name[rule.name] = rule
        object.__setattr__(self, "_by_name", by_name)

    def find(self, name: str) -> Rule | None:
        return self._by_name.get(name)


def render_element(element: Element) -> str:
    return str(element)


def render_set(elements: Iterable[Element]) -> str:
    """Deterministic `{e1, e2, ...}` rendering, sorted by element rendering."""
    parts = sorted(render_element(e) for e in elements)
    return "{" + ", ".join(parts) + "}"


def _sorted_pool(elements: Iterable[Element]) -> list:
    return sorted(elements, key=render_element)


def step(
    system: RuleSystem,
    pool: Iterable[Element],
    *,
    max_size: int = DEFAULT_MAX_SET_SIZE,
) -> frozenset:
    """One layer of the closure: every defined rule application over `pool`."""
    pool = _sorted_pool(set(pool))
    out: set = set()
    for rule in system.rules:
        for args in itertools.product(pool, repeat=rule.arity):
            result = rule.apply(args)
            if result is not None:
                out.add(result)
                if len(out) > max_size:
                    raise ResourceLimit(
                        f"step produced more than {max_size} elements"
                    )
    return frozenset(out)


def _fresh_tuples(arity: int, pool: list, fresh: list, fresh_set: set) -> Iterable[tuple]:
    """Argument tuples over `pool` that contain an element of `fresh`.

    They come in the order of the full product over `pool`: at each
    position the whole pool, except at the last position when no earlier
    one holds a fresh element, where only `fresh` can complete the tuple.
    Both lists are render-sorted.  A nullary rule has its one empty tuple
    in the first layer only, the one with an empty pool.
    """
    if arity == 0:
        return [] if pool else [()]
    return itertools.chain.from_iterable(
        itertools.product(*zip(prefix), fresh if fresh_set.isdisjoint(prefix) else pool)
        for prefix in itertools.product(pool, repeat=arity - 1)
    )


def _layers(system: RuleSystem, max_size: int, limit_message: str):
    """The closure layers, computed semi-naively, until a fixed point.

    Each yielded layer lists its new elements in discovery order, each as
    (element, rule, args) for the first rule application reaching it:
    rules in system order, argument tuples in rendering order.  A tuple
    made only of elements older than the previous layer yields an element
    found already, so later layers try only tuples holding an element new
    in the previous layer; nullary rules fire in the first layer only.
    Raises ResourceLimit(limit_message) once more than `max_size`
    elements are known.
    """
    keys: list[str] = []  # renderings of `pool`, sorted
    pool: list = []
    known: set = set()
    fresh: list = []
    while True:
        fresh_set = set(fresh)
        layer = []
        for rule in system.rules:
            fn = rule.fn
            for args in _fresh_tuples(rule.arity, pool, fresh, fresh_set):
                result = fn(*args)
                if result is None or result in known:
                    continue
                known.add(result)
                if len(known) > max_size:
                    raise ResourceLimit(limit_message)
                layer.append((result, rule, args))
        if not layer:
            return
        yield layer
        keyed = sorted(((render_element(e), e) for e, _, _ in layer), key=itemgetter(0))
        fresh = [element for _, element in keyed]
        if len(keyed) <= _INSERT_BATCH:
            for key, element in keyed:
                at = bisect_left(keys, key)
                keys.insert(at, key)
                pool.insert(at, element)
        else:
            # two sorted runs: the sort merges them in linear time
            merged = sorted([*zip(keys, pool), *keyed], key=itemgetter(0))
            keys = [key for key, _ in merged]
            pool = [element for _, element in merged]


def iterate(
    system: RuleSystem,
    steps: int,
    *,
    max_size: int = DEFAULT_MAX_SET_SIZE,
) -> tuple[frozenset, int | None]:
    """Apply `step` to the empty set `steps` times.

    The layers come from `_layers`, which gives the same sets as the
    fold of `step` while trying each argument tuple only once.  Returns
    the resulting set together with the first index at which a fixed
    point was reached, or None if the chain was still growing.
    """
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    elements: set = set()
    count = 0
    layers = _layers(system, max_size, f"step produced more than {max_size} elements")
    for layer in itertools.islice(layers, steps):
        elements.update(element for element, _, _ in layer)
        count += 1
    return frozenset(elements), (count if count < steps else None)


def member(
    system: RuleSystem,
    element: Element,
    depth: int,
    *,
    max_size: int = DEFAULT_MAX_SET_SIZE,
) -> Tree | None:
    """Search for a derivation of `element` of height at most `depth`.

    Layers are explored in order, so the returned witness has minimal
    height; within a layer, ties go to the earliest rule in the system
    and then to the first argument tuple in rendering order.  Returns
    None when the element is not derivable within `depth` layers.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    witnesses: dict = {}
    layers = _layers(system, max_size, f"more than {max_size} derivable elements")
    for layer in itertools.islice(layers, depth):
        for result, rule, args in layer:
            witnesses[result] = Tree((result, rule.name), tuple(witnesses[a] for a in args))
        if element in witnesses:
            return witnesses[element]
    return None


def check_elem_tree(system: RuleSystem, tree: Tree) -> None:
    """Check an element-labeled tree: some rule must justify every node.

    Raises Rejected at the first failing node in preorder.
    """
    for path, node in tree.nodes():
        child_elems = tuple(c.label for c in node.children)
        if not any(
            rule.arity == len(child_elems) and rule.apply(child_elems) == node.label
            for rule in system.rules
        ):
            raise Rejected(
                path,
                f"no rule derives {render_element(node.label)} from "
                f"({', '.join(render_element(e) for e in child_elems)})",
            )


def check_full_tree(system: RuleSystem, tree: Tree) -> None:
    """Check a tree labeled with (element, rule name) pairs.

    The named rule must be defined at the children's elements and yield
    the node's element.  Raises at the first failing node in preorder.
    """
    for path, node in tree.nodes():
        element, name = node.label
        rule = system.find(name)
        if rule is None:
            raise UnknownRuleName(path, f"unknown rule {name}")
        if rule.arity != len(node.children):
            raise ArityMismatch(
                path,
                f"rule {name} expects {rule.arity} premise(s), "
                f"node has {len(node.children)}",
            )
        child_elems = tuple(c.label[0] for c in node.children)
        result = rule.apply(child_elems)
        if result is None:
            raise RuleUndefined(
                path,
                f"rule {name} is undefined at "
                f"({', '.join(render_element(e) for e in child_elems)})",
            )
        if result != element:
            raise Rejected(
                path,
                f"rule {name} yields {render_element(result)}, "
                f"node is labeled {render_element(element)}",
            )


def infer_full_tree(system: RuleSystem, name_tree: Tree) -> Tree:
    """Run a name-labeled tree bottom-up, attaching the element each node derives."""

    def go(node: Tree, path: tuple[int, ...]) -> Tree:
        children = tuple(go(c, path + (i,)) for i, c in enumerate(node.children))
        rule = system.find(node.label)
        if rule is None:
            raise UnknownRuleName(path, f"unknown rule {node.label}")
        if rule.arity != len(children):
            raise ArityMismatch(
                path,
                f"rule {node.label} expects {rule.arity} premise(s), "
                f"node has {len(children)}",
            )
        child_elems = tuple(c.label[0] for c in children)
        result = rule.apply(child_elems)
        if result is None:
            raise RuleUndefined(
                path,
                f"rule {node.label} is undefined at "
                f"({', '.join(render_element(e) for e in child_elems)})",
            )
        return Tree((result, node.label), children)

    return go(name_tree, ())


def infer_conclusion(system: RuleSystem, name_tree: Tree) -> Element:
    """The element a name-labeled tree derives at its root."""
    return infer_full_tree(system, name_tree).label[0]


def erase_names(tree: Tree) -> Tree:
    """Project a fully labeled tree onto its elements."""
    return tree.map_labels(lambda label: label[0])


def erase_elements(tree: Tree) -> Tree:
    """Project a fully labeled tree onto its rule names."""
    return tree.map_labels(lambda label: label[1])


def even_numbers() -> RuleSystem:
    """The two-rule system whose closure is the even naturals.

    f1 is the nullary rule producing 0; f2 adds two.
    """
    return RuleSystem(
        rules=(
            Rule("f1", 0, lambda: 0),
            Rule("f2", 1, lambda a: a + 2),
        ),
        domain="nat",
    )
