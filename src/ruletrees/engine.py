"""Rule systems and the finite closure they generate.

A rule is a named partial function taking a fixed number of elements to
an element.  A finite list of rules induces a one-step operator on
finite sets: apply every rule to every tuple drawn from the set and
collect the defined results.  Iterating that operator from the empty
set builds the closure in layers, and every element that ever appears
is justified by a derivation tree whose nodes are rule applications.
`iterate` and `member` run the layers in one loop with a budget of
layers.  A later layer is `step` restricted to the tuples that hold an
element new in the layer before, with unary rules and binary rows
walked apart.  `member` stops after the layer reaching its element, or
inside it at a binary row's end when the layer cannot pass the bound.

Elements are ordinary Python values; they must support equality and
hashing.  Argument tuples follow the order of the elements' renderings
(via `render_element`), and elements are never ordered against each other.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Any, Callable, Iterable

from .errors import ArityMismatch, Rejected, ResourceLimit
from .trees import NAME_RE, Tree, check_nodes, first_path, fold, record

Element = Any

DEFAULT_MAX_SET_SIZE = 100_000


class UnknownRuleName(Rejected):
    """A tree mentions a rule name the system does not define."""


class RuleUndefined(Rejected):
    """A rule was applied at arguments where it is undefined."""


class Rule(record("Rule", "name", "arity", "fn")):
    """A named partial function of fixed arity.

    `fn` receives `arity` positional arguments and returns either an
    element or None to signal that the rule is undefined there.
    """

    __slots__ = ()

    def __new__(cls, name: str, arity: int, fn: Callable[..., Element | None]):
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"invalid rule name {name!r}")
        if arity < 0:
            raise ValueError(f"rule {name}: arity must be nonnegative")
        return super().__new__(cls, name, arity, fn)

    def apply(self, args: tuple[Element, ...]) -> Element | None:
        """Apply the rule, or return None where it is undefined."""
        if len(args) != self.arity:
            raise ArityMismatch(
                (), f"rule {self.name} expects {self.arity} argument(s), got {len(args)}"
            )
        return self.fn(*args)


class RuleSystem(record("RuleSystem", "rules")):
    """A finite list of rules with distinct names, compared by `rules`."""

    def __new__(cls, rules: tuple[Rule, ...]):
        by_name, unary = {}, {}
        for rule in rules:
            if rule.name in by_name:
                raise ValueError(f"duplicate rule name {rule.name}")
            by_name[rule.name] = rule
            if rule.arity == 1:
                unary[rule.name] = rule.fn
        self = super().__new__(cls, rules)
        # a tuple subclass cannot have nonempty slots: the indexes go in __dict__
        self.__dict__.update(_by_name=by_name, _unary=unary)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def find(self, name: str) -> Rule | None:
        return self._by_name.get(name)


def render_element(element: Element) -> str:
    return str(element)


def render_set(elements: Iterable[Element]) -> str:
    """Deterministic `{e1, e2, ...}` rendering, sorted by element rendering."""
    parts = sorted(render_element(e) for e in elements)
    return "{" + ", ".join(parts) + "}"


def step(
    system: RuleSystem,
    pool: Iterable[Element],
    *,
    max_size: int = DEFAULT_MAX_SET_SIZE,
) -> frozenset:
    """One layer of the closure: every defined rule application over `pool`."""
    pool = sorted(set(pool), key=render_element)
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


def _layer_tries(rules, n: int, f: int) -> int:
    """The tuples a layer after the first tries: over the `n` elements known
    before it, the k-tuples holding one of the `f` new in the last layer."""
    return sum(n**rule.arity - (n - f) ** rule.arity for rule in rules)


def _layers(system: RuleSystem, known: dict, max_size: int, message: str, limit: int, target=None):
    """Run the closure layers, computed semi-naively, and return how many ran.

    Runs up to `limit` (at least 1) non-empty layers, or fewer if a layer
    adds nothing (a fixed point) or `target` is known once a layer ends.
    Records in `known`, for each element reached, the first rule
    application reaching it as `known[element] = (rule, args)`: rules in
    system order, argument tuples in the order of the full product over
    the render-sorted pool.  Each layer lists its new elements in
    discovery order.  Layer 0 applies the nullary rules, the only layer
    that does.  A tuple made only of elements older than the previous
    layer yields an element found already, so a later layer is `step`
    restricted to the tuples that hold a `fresh` element, one new in the
    previous layer (render-sorted), with two arities specialised:

    - a unary rule walks `fresh`;
    - a binary rule pairs each pool element with the whole pool if it is
      fresh and with `fresh` if not;
    - a wider rule walks the pool's full product, skipping the tuples
      with no fresh element: n**k tuples for `_layer_tries`' calls.

    Only rules of arity 2 or more read the pool, kept only for systems
    that have one.  Raises ResourceLimit(message) past `max_size` elements.

    Given a `target`, there are two stops.  A layer after which `target`
    is known is the last.  The layer reaching it also stops early, at
    the end of the first binary rule's row (a pool element and all its
    partners) that ends after the target's first application, if the
    layer cannot pass `max_size` (it adds at most `_layer_tries`
    elements); if it can, that stop is off and the layer runs to its end
    and raises as without a target.  A layer stopped in counts as run.
    """
    wide = any(rule.arity >= 2 for rule in system.rules)
    rules = [(rule, rule.fn, rule.arity) for rule in system.rules if rule.arity]
    ranked: list = []  # the pool as (rendering, element), sorted
    pool: list = []
    fresh_set: set = set()
    layer: list = []
    row_stop = target  # None once the layer reaching `target` could pass max_size

    def found(result, rule, args):  # a new element, reached by rule(*args)
        known[result] = (rule, args)
        if len(known) > max_size:
            raise ResourceLimit(message)
        layer.append(result)

    for rule in system.rules:
        result = rule.fn() if rule.arity == 0 else None
        if result is not None and result not in known:
            found(result, rule, ())
    count = 0
    while layer:
        count += 1
        if count == limit or target in known:
            return count
        fresh = layer
        if len(layer) > 1 or wide:  # skipped by `even`: one element a layer, no pool
            # by rendering alone: the stable sort keeps ties in discovery order
            keyed = sorted([(render_element(e), e) for e in layer], key=itemgetter(0))
            fresh = [element for _, element in keyed]
            if wide:  # two sorted runs: the sort merges them in linear time
                ranked = sorted(ranked + keyed, key=itemgetter(0))
                pool = [element for _, element in ranked]
                fresh_set = set(layer)
        layer = []
        for rule, fn, arity in rules:
            if arity == 1:  # `found` inline: each tuple may add an element, as in `even`
                for a in fresh:
                    result = fn(a)
                    if result is not None and result not in known:
                        known[result] = (rule, (a,))
                        if len(known) > max_size:
                            raise ResourceLimit(message)
                        layer.append(result)
            elif arity == 2:
                for a in pool:
                    for b in pool if a in fresh_set else fresh:
                        result = fn(a, b)
                        if result is not None and result not in known:
                            found(result, rule, (a, b))
                    if row_stop in known:
                        n = len(pool)
                        if n + _layer_tries(system.rules, n, len(fresh)) <= max_size:
                            return count + 1
                        row_stop = None
            else:
                tuples = itertools.product(pool, repeat=arity)
                for args in itertools.filterfalse(fresh_set.isdisjoint, tuples):
                    result = fn(*args)
                    if result is not None and result not in known:
                        found(result, rule, args)
    return count


def iterate(
    system: RuleSystem,
    steps: int,
    *,
    max_size: int = DEFAULT_MAX_SET_SIZE,
) -> tuple[frozenset, int | None]:
    """Apply `step` to the empty set `steps` times.

    `_layers` runs the first `steps` layers in one loop, which gives the
    same sets as the fold of `step` while trying each argument tuple only
    once; with `steps` 0 no rule is applied.  Returns the resulting set
    together with the first index at which a fixed point was reached, or
    None if the chain was still growing.
    """
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    known: dict = {}
    message = f"step produced more than {max_size} elements"
    count = steps and _layers(system, known, max_size, message, steps)
    return frozenset(known), (count if count < steps else None)


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

    `_layers` runs at most `depth` layers and stops soon after the first
    application reaching `element` (its two stops), raising
    ResourceLimit exactly as a whole-layer search does; a rule raising on
    a later tuple breaks the `fn` contract.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    known: dict = {}
    _layers(system, known, max_size, f"more than {max_size} derivable elements", depth, element)
    if element not in known:
        return None
    # the witness's elements, built in discovery order: arguments come first
    needed: dict = {}
    stack = [element]
    while stack:
        e = stack.pop()
        if e not in needed:
            needed[e] = application = known[e]
            stack.extend(application[1])
    trees: dict = {}
    # a patched `Tree` still has its `__new__` called
    get, new, cls = trees.__getitem__, Tree.__new__, Tree
    for e in filter(needed.__contains__, known):
        rule, args = needed[e]
        children = (get(args[0]),) if len(args) == 1 else tuple(map(get, args))
        trees[e] = new(cls, (e, rule.name), children)
    return trees[element]


def check_elem_tree(system: RuleSystem, tree: Tree) -> None:
    """Check an element-labeled tree: some rule must justify every node.

    Raises Rejected at the first failing node in preorder.
    """

    def check(node: Tree) -> None:
        child_elems = tuple(c.label for c in node.children)
        if not any(
            rule.arity == len(child_elems) and rule.apply(child_elems) == node.label
            for rule in system.rules
        ):
            raise Rejected(
                (),
                f"no rule derives {render_element(node.label)} from "
                f"({', '.join(render_element(e) for e in child_elems)})",
            )

    check_nodes(tree, check)


def _reject(system: RuleSystem, tree: Tree, node: Tree, name: str, elems: tuple, element=None):
    """Raise the Rejected of `node` in `tree`, whose rule `name` takes the
    children's elements `elems`, at the path of its first occurrence:
    UnknownRuleName, ArityMismatch or RuleUndefined, or else a Rejected
    because the rule does not yield `element`."""
    rule = system._by_name.get(name)
    if rule is None:
        err = UnknownRuleName((), f"unknown rule {name}")
    elif rule.arity != len(elems):
        err = ArityMismatch((), f"rule {name} expects {rule.arity} premise(s), node has {len(elems)}")
    elif (result := rule.fn(*elems)) is None:
        err = RuleUndefined((), f"rule {name} is undefined at ({', '.join(map(render_element, elems))})")
    else:
        err = Rejected(
            (), f"rule {name} yields {render_element(result)}, node is labeled {render_element(element)}"
        )
    err.path = first_path(tree, node)
    raise err


def check_full_tree(system: RuleSystem, tree: Tree) -> None:
    """Check a tree labeled with (element, rule name) pairs.

    The named rule must be defined at the children's elements and yield
    the node's element.  A loop applies each rule inline, descends a run
    of one-child nodes in a loop of its own, and passes over a node with
    two or more children that has passed already; the first node in
    preorder it fails gets the detailed check, which raises.
    """
    get, unary = system._by_name.get, system._unary.get
    stack, passed = [tree], set()
    while stack:
        node = stack.pop()
        (element, name), children = node
        while len(children) == 1:  # down a run of one-child nodes
            fn, child = unary(name), children[0]
            (below, below_name), below_children = child
            result = None if fn is None else fn(below)
            if result is None or result != element:
                break
            node, element, name, children = child, below, below_name, below_children
        else:
            rule = get(name)
            if rule is None or rule.arity != len(children):
                result = None
            elif children and id(node) in passed:
                continue
            else:
                if children:
                    passed.add(id(node))
                result = rule.fn(*[child.label[0] for child in children])
                stack.extend(reversed(children))
            if result is not None and result == element:
                continue
        _reject(system, tree, node, name, tuple(c.label[0] for c in children), element)


def infer_full_tree(system: RuleSystem, name_tree: Tree) -> Tree:
    """Run a name-labeled tree bottom-up, attaching the element each node
    derives: a `fold` that climbs each run of one-child nodes in a loop
    applying each rule inline, and shares what it builds for a node with
    two or more children wherever that node occurs."""
    get, unary = system._by_name.get, system._unary.get

    def node_value(node: Tree, children: tuple) -> Tree:
        rule, children = get(node.label), tuple(children)
        element = None
        if rule is not None and rule.arity == len(children):
            element = rule.fn(*[child.label[0] for child in children])
        if element is None:
            _reject(system, name_tree, node, node.label, tuple(c.label[0] for c in children))
        return tuple.__new__(Tree, ((element, node.label), children))

    def run_value(run: list, full: Tree) -> Tree:
        element = full.label[0]
        for node in reversed(run):
            name = node[0]
            fn = unary(name)
            element = None if fn is None else fn(element)
            if element is None:
                _reject(system, name_tree, node, name, (full.label[0],))
            full = tuple.__new__(Tree, ((element, name), (full,)))
        return full

    return fold(name_tree, node_value, run_value)


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
    )
