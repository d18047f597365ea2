"""Finite ordered trees and their linear text form.

The same tree shape is used under three labelings: elements only, rule
names only, or (element, rule name) pairs.  Only name-labeled trees have
a concrete syntax:

    tree := NAME | NAME "(" tree ("," tree)* ")"

where NAME is any nonempty run of characters other than parentheses,
commas, and whitespace.  A nullary node may be written `f1` or `f1()`;
the printer always emits the bare form.

Every linear form (name trees here, natded's propositions, sequents and
proof terms, recfun's programs) has one token regex, and its reader
splits off the same tokens by str methods and reads them by index.  A
token is a plain string: a reader raises at a token index, and
`read_text` scans the text with the regex only then, to report the error
at its offset, or ahead of it a stray character, which no token takes.
"""

from __future__ import annotations

import itertools
import re
import sys
from collections import namedtuple
from typing import Any, Callable

from .errors import ParseError, Rejected


def _same_record(self, other) -> bool:
    return self.__class__ is other.__class__ and tuple.__eq__(self, other)


def record(name: str, *fields: str, defaults: tuple = (), doc: str | None = None) -> type:
    """An immutable record class, declared in one line:
    `Atom = record("Atom", "name", doc=...)`.

    The class is a `collections.namedtuple` (`defaults` fill the last
    fields, `doc` is its docstring) named in the caller's module, so its
    values pickle by name.  A record is built positionally or by keyword,
    refuses attribute assignment, and has the `repr` `Atom(name='P')`.  It
    is a tuple: it unpacks, indexes, orders and hashes like the tuple of
    its fields.  Equality alone also checks the class, so that `And(p, q)`
    and `Imp(p, q)` stay two members of one set and no record equals a
    plain tuple.  A record is true even with no fields.  A class with
    behaviour subclasses a record and sets `__slots__ = ()`, or keeps a
    `__dict__` for its indexes.

    `_make`, and `_replace` through it, build by calling the class, so a
    validating `__new__` runs for them too.  `Rule`, `RuleSystem` and
    `Nfa` validate in `__new__` and must be called; any other record is
    the value `tuple.__new__(cls, fields)`, which the hot builders use to
    skip the generated `__new__`.
    """
    cls = namedtuple(name, fields, defaults=defaults, module=sys._getframe(1).f_globals["__name__"])
    cls.__doc__ = doc
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    cls.__eq__ = _same_record
    cls.__ne__ = lambda self, other: not _same_record(self, other)
    cls.__bool__ = lambda self: True
    return cls


class Tree(record("Tree", "label", "children", defaults=((),))):
    # folds go through `fold`; the printers and `engine.check_full_tree` loop down runs
    __slots__ = ()

    def height(self) -> int:
        """Number of nodes on the longest root-to-leaf path."""
        return fold(self, lambda node, heights: 1 + max(heights, default=0))

    def size(self) -> int:
        """Number of nodes, each occurrence of a shared subtree counted."""
        return fold(self, lambda node, sizes: 1 + sum(sizes))

    def map_labels(self, fn: Callable[[Any], Any]) -> Tree:
        """The same shape with `fn` applied to every label, children first;
        a node with two or more children is mapped once and stays shared."""
        return fold(self, lambda node, children: Tree(fn(node.label), tuple(children)))


def fold(tree: Tree, node_value: Callable, run_value: Callable | None = None) -> Any:
    """Fold `tree` children first, in one loop that handles each distinct
    node with two or more children once and keeps its value by `id` for
    the call.  `node_value(node, values)` is a node's value from its
    children's values.  `run_value(run, value)`, if given, takes the place
    of `node_value` on a whole run of one-child nodes, listed top-down,
    above a node worth `value`.

    Runs keep no memo, so a tree that shares nothing pays for none.  A run
    below several distinct one-child parents is walked once per parent:
    polynomial in the distinct nodes, never a count of occurrences."""
    known, stack, node = {}, [], tree  # stack: (run, node, values) of nodes under way
    while True:
        run = []
        while len(node.children) == 1:
            run.append(node)
            node = node.children[0]
        fresh = len(node.children) < 2 or id(node) not in known
        if fresh and node.children:
            stack.append((run, node, []))
            node = node.children[0]
            continue
        value = node_value(node, ()) if fresh else known[id(node)]
        while True:  # up, finishing each node whose last child this was
            if run and run_value is not None:
                value = run_value(run, value)
            else:
                for node in reversed(run):
                    value = node_value(node, (value,))
            if not stack:
                return value
            run, node, values = stack[-1]
            values.append(value)
            if len(values) < len(node.children):
                node = node.children[len(values)]
                break
            stack.pop()
            value = known[id(node)] = node_value(node, values)


def first_path(tree: Tree, target: Tree) -> tuple[int, ...]:
    """The path of the first occurrence of `target` in `tree` in preorder,
    found in one walk that keeps the current path in a list.  A node with
    two or more children already searched is passed over, so the time
    grows with the distinct nodes, as `fold`'s does, not the occurrences."""
    path, siblings, node, searched = [], [], tree, set()
    while node is not target:
        children = node.children
        if len(children) > 1:
            if id(node) in searched:
                children = ()
            searched.add(id(node))
        if children:
            path.append(0)
            siblings.append(children)
        else:  # up past the last children, then on to the next sibling
            while path[-1] + 1 == len(siblings[-1]):
                del path[-1], siblings[-1]
            path[-1] += 1
        node = siblings[-1][path[-1]]
    return tuple(path)


def check_nodes(tree: Tree, check: Callable[[Tree], None]) -> None:
    """Call `check` on every node of `tree` in preorder, in a loop that
    builds no paths, passing over a node with two or more children that
    has passed already.  A Rejected it raises gets the path of the first
    occurrence of its node, found by `first_path`: as `check` sees the node
    alone, that is where a subtree occurring at several paths fails first."""
    stack, passed = [tree], set()
    try:
        while stack:
            node = stack.pop()
            if len(node.children) > 1:
                if id(node) in passed:
                    continue
                passed.add(id(node))
            check(node)
            stack.extend(reversed(node.children))
    except Rejected as err:
        err.path = first_path(tree, node)
        raise


def tokenize(text: str, token_re: re.Pattern) -> list[str]:
    """Split `text` into the strings `token_re` matches (it has no capturing
    group and matches no whitespace) and a last "" for the end.  Whitespace
    between tokens is skipped; the first other stray character raises."""
    tokens = token_re.findall(text)
    if "".join(tokens) != "".join(text.split()):
        stop = re.match(rf"(?:{token_re.pattern}|\s)*", text, token_re.flags).end()
        raise ParseError(f"unexpected character {text[stop]!r}", stop)
    tokens.append("")
    return tokens


NAME_RE = re.compile(r"[^\s(),]+")
"""A rule name: what the linear form reads as one NAME."""

_NAME_TOKEN_RE = re.compile(rf"{NAME_RE.pattern}|[(),]")


def _name_tokens(text: str) -> list[str]:
    """`_NAME_TOKEN_RE.findall(text)` by str methods: no character is stray."""
    return text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()


def read_text(text: str, token_re: re.Pattern, split: Callable, read: Callable, *args) -> Any:
    """What `read(tokens, 0, *args)` reads from the whole of `tokens`:
    `split(text)`, the tokens that `token_re` finds in `text` split off by
    str methods, and a last "" for the end.  `read` returns its value and
    the index after it, and raises a ParseError at a token index, which
    `token_re`'s scan of `text`, run only then, turns into an offset.  A
    stray character stays inside a token that `read` rejects, and
    `tokenize` reports it first; past the recursion limit too."""
    try:
        tokens = split(text)
        tokens.append("")
        value, i = read(tokens, 0, *args)
        if tokens[i]:
            raise ParseError("unexpected trailing input", i)
        return value
    except ParseError as err:
        tokenize(text, token_re)  # a stray character is reported first
        match = next(itertools.islice(token_re.finditer(text), err.position, None), None)
        raise ParseError(err.message, len(text) if match is None else match.start())
    except RecursionError:
        if not all(map(token_re.fullmatch, set(tokens) - {""})):
            tokenize(text, token_re)  # raises at the stray character a token holds
        raise


def parse_name_tree(text: str) -> Tree:
    """Parse the linear form into a tree with string labels, without recursion."""
    return read_text(text, _NAME_TOKEN_RE, _name_tokens, _read_name_tree)


def _read_name_tree(tokens: list[str], i: int) -> tuple[Tree, int]:
    names, kids = [], {}  # the open nodes' names; kids[depth]: children before a ","
    while True:
        name = tokens[i]
        if name in "(),":  # also true for "", the end of the text
            raise ParseError("expected a rule name", i)
        if tokens[i + 1] == "(" and tokens[i + 2] != ")":
            names.append(name)
            i += 2
            continue
        i += 3 if tokens[i + 1] == "(" else 1
        node = tuple.__new__(Tree, (name, ()))
        while names:  # `node` is complete: file it under the open node, or close that node
            if tokens[i] == ",":
                kids.setdefault(len(names), []).append(node)
                i += 1
                break
            if tokens[i] != ")":
                raise ParseError("expected ',' or ')'", i)
            children = kids.pop(len(names), None) if kids else None
            children = (node,) if children is None else (*children, node)
            node, i = tuple.__new__(Tree, (names.pop(), children)), i + 1
        else:
            return node, i


def print_name_tree(tree: Tree) -> str:
    names = []  # the labels down a run and of the node below it, then its children's text
    while len(tree.children) == 1:
        names.append(f"{tree.label}")
        tree = tree.children[0]
    names.append(f"{tree.label}")
    if tree.children:
        names.append(", ".join([print_name_tree(child) for child in tree.children]))
    return "(".join(names) + ")" * (len(names) - 1)


def tree_to_latex(tree: Tree, label_parts: Callable[[Any], tuple[str, str]]) -> str:
    """Render a tree in stacked inference-rule layout.

    `label_parts` maps a label to (conclusion, rule name); premises of a
    node are laid out above its conclusion.  The output uses an `\\irule`
    macro with the conventional three arguments.
    """
    closers = ["}{%s}{%s}" % label_parts(tree.label)]
    while len(tree.children) == 1:  # down a run of one-child nodes
        tree = tree.children[0]
        closers.append("}{%s}{%s}" % label_parts(tree.label))
    closers.reverse()
    premises = " ~~~ ".join([tree_to_latex(child, label_parts) for child in tree.children])
    return "\\irule{" * len(closers) + premises + "".join(closers)


LATEX_PREAMBLE = (
    "% requires amsmath and:\n"
    "% \\newcommand{\\irule}[3]{\\dfrac{#1}{#2}\\;{\\scriptstyle #3}}"
)
