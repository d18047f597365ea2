"""Finite ordered trees and their linear text form.

The same tree shape is used under three labelings: elements only, rule
names only, or (element, rule name) pairs.  Only name-labeled trees have
a concrete syntax:

    tree := NAME | NAME "(" tree ("," tree)* ")"

where NAME is any nonempty run of characters other than parentheses,
commas, and whitespace.  A nullary node may be written `f1` or `f1()`;
the printer always emits the bare form.

`tokenize` and `TokenCursor` serve all three linear forms (name trees,
natded's proof terms, recfun's programs) with one token regex each.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Any, Callable, Iterator

from .errors import ParseError


def _same_record(self, other) -> bool:
    return self.__class__ is other.__class__ and tuple.__eq__(self, other)


def record(*fields: str, defaults: tuple = ()) -> type:
    """A base class for immutable records: `class Atom(record("name"))`,
    whose body sets `__slots__ = ()`.

    The base is a `collections.namedtuple` (`defaults` fill the last
    fields), so a record is built positionally or by keyword through its
    generated `__new__`, refuses attribute assignment, and has the `repr`
    `Atom(name='P')`.  It is a tuple: it unpacks, indexes, orders and
    hashes like the tuple of its fields.  Equality alone also checks the
    class, so that `And(p, q)` and `Imp(p, q)` stay two members of one set
    and no record equals a plain tuple.  A record is true even with no
    fields.  `_make`, and `_replace` through it, build by calling the
    class, so a subclass's validating `__new__` runs for them too.
    """
    base = namedtuple("record", fields, defaults=defaults)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    base.__eq__ = _same_record
    base.__ne__ = lambda self, other: not _same_record(self, other)
    base.__hash__ = tuple.__hash__
    base.__bool__ = lambda self: True
    return base


class Tree(record("label", "children", defaults=((),))):
    __slots__ = ()

    def height(self) -> int:
        """Number of nodes on the longest root-to-leaf path."""
        if not self.children:
            return 1
        return 1 + max(c.height() for c in self.children)

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def map_labels(self, fn: Callable[[Any], Any]) -> Tree:
        return Tree(fn(self.label), tuple(c.map_labels(fn) for c in self.children))

    def nodes(self) -> Iterator[tuple[tuple[int, ...], Tree]]:
        """Preorder traversal yielding (path, subtree)."""
        stack = [((), self)]
        while stack:
            path, node = stack.pop()
            yield path, node
            for i in reversed(range(len(node.children))):
                stack.append((path + (i,), node.children[i]))


def tokenize(text: str, token_re: re.Pattern) -> list[tuple[str, str, int]]:
    """Split `text` into (kind, value, position) tokens and a last eof token.

    Named groups of `token_re` are token kinds; an alternative outside them
    is punctuation, its text its own kind.  Whitespace that no alternative
    matches is skipped, and a last `(?P<bad>\\S)` group reports any other
    character.
    """
    tokens = [(m.lastgroup or m[0], m[0], m.start()) for m in token_re.finditer(text)]
    for kind, value, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
    tokens.append(("eof", "", len(text)))
    return tokens


class TokenCursor:
    """Reads a `tokenize` list front to back; `next` stays on the eof token."""

    __slots__ = ("tokens", "index")

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        if token[0] != "eof":
            self.index += 1
        return token

    def at(self, kind: str) -> bool:
        return self.tokens[self.index][0] == kind

    def take(self, kind: str) -> bool:
        """Step over the next token if it has `kind`; say whether it did."""
        if self.tokens[self.index][0] == kind:
            self.index += 1
            return True
        return False

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        if token[0] != kind:
            raise ParseError(f"expected {what}", token[2])
        self.index += 1
        return token

    def end(self) -> None:
        token = self.tokens[self.index]
        if token[0] != "eof":
            raise ParseError("unexpected trailing input", token[2])


NAME_RE = re.compile(r"[^\s(),]+")
"""A rule name: what the linear form reads as one NAME."""

_NAME_TOKEN_RE = re.compile(rf"(?P<name>{NAME_RE.pattern})|[(),]")


def parse_name_tree(text: str) -> Tree:
    """Parse the linear form into a tree with string labels."""
    cur = TokenCursor(tokenize(text, _NAME_TOKEN_RE))
    tree = _parse_node(cur)
    cur.end()
    return tree


def _parse_node(cur: TokenCursor) -> Tree:
    name = cur.expect("name", "a rule name")[1]
    if not cur.take("(") or cur.take(")"):
        return Tree(name)
    children = [_parse_node(cur)]
    while cur.take(","):
        children.append(_parse_node(cur))
    cur.expect(")", "',' or ')'")
    return Tree(name, tuple(children))


def print_name_tree(tree: Tree) -> str:
    if not tree.children:
        return str(tree.label)
    inner = ", ".join(print_name_tree(c) for c in tree.children)
    return f"{tree.label}({inner})"


def tree_to_latex(tree: Tree, label_parts: Callable[[Any], tuple[str, str]]) -> str:
    """Render a tree in stacked inference-rule layout.

    `label_parts` maps a label to (conclusion, rule name); premises of a
    node are laid out above its conclusion.  The output uses an `\\irule`
    macro with the conventional three arguments.
    """
    conclusion, name = label_parts(tree.label)
    premises = " ~~~ ".join(tree_to_latex(c, label_parts) for c in tree.children)
    return "\\irule{%s}{%s}{%s}" % (premises, conclusion, name)


LATEX_PREAMBLE = (
    "% requires amsmath and:\n"
    "% \\newcommand{\\irule}[3]{\\dfrac{#1}{#2}\\;{\\scriptstyle #3}}"
)
