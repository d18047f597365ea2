"""Finite ordered trees and their linear text form.

The same tree shape is used under three labelings: elements only, rule
names only, or (element, rule name) pairs.  Only name-labeled trees have
a concrete syntax:

    tree := NAME | NAME "(" tree ("," tree)* ")"

where NAME is any nonempty run of characters other than parentheses,
commas, and whitespace.  A nullary node may be written `f1` or `f1()`;
the printer always emits the bare form.

`tokenize` and `TokenCursor` serve all three linear forms (name trees,
natded's proof terms, recfun's programs) with one token regex each.  A
token is a plain string: a ParseError computes its position when raised.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from typing import Any, Callable, Iterator, NoReturn

from .errors import ParseError, Rejected


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
        return 1 + max(map(Tree.height, self.children))

    def size(self) -> int:
        return 1 + sum(map(Tree.size, self.children))

    def map_labels(self, fn: Callable[[Any], Any]) -> Tree:
        children = map(Tree.map_labels, self.children, itertools.repeat(fn))
        return Tree(fn(self.label), tuple(children))

    def nodes(self) -> Iterator[tuple[tuple[int, ...], Tree]]:
        """Preorder traversal yielding (path, subtree)."""
        stack = [((), self)]
        while stack:
            path, node = stack.pop()
            yield path, node
            for i in reversed(range(len(node.children))):
                stack.append((path + (i,), node.children[i]))


def check_nodes(tree: Tree, check: Callable[[Tree], None]) -> None:
    """Call `check` on every node of `tree` in preorder, building no paths.
    A Rejected it raises gets the path of the first occurrence of its node
    in preorder, found by a second walk: as `check` sees the node alone,
    that is where a subtree occurring at several paths fails first."""
    stack = [tree]
    try:
        while stack:
            node = stack.pop()
            check(node)
            stack.extend(reversed(node.children))
    except Rejected as err:
        err.path = next(path for path, seen in tree.nodes() if seen is node)
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


class TokenCursor:
    """Reads the tokens of `text` front to back; `next` stays on the last
    token, "".  `fail` finds the current token's offset by a second scan."""

    __slots__ = ("text", "token_re", "tokens", "index")

    def __init__(self, text: str, token_re: re.Pattern):
        self.text = text
        self.token_re = token_re
        self.tokens = tokenize(text, token_re)
        self.index = 0

    def peek(self) -> str:
        return self.tokens[self.index]

    def next(self) -> str:
        token = self.tokens[self.index]
        if token:
            self.index += 1
        return token

    def take(self, token: str) -> bool:
        """Step over the next token if it is `token`; say whether it did."""
        if self.tokens[self.index] == token:
            self.index += 1
            return True
        return False

    def expect(self, token: str, what: str) -> None:
        if self.tokens[self.index] != token:
            self.fail(f"expected {what}")
        self.index += 1

    def end(self) -> None:
        if self.tokens[self.index]:
            self.fail("unexpected trailing input")

    def fail(self, message: str) -> NoReturn:
        rest = itertools.islice(self.token_re.finditer(self.text), self.index, None)
        match = next(rest, None)
        raise ParseError(message, len(self.text) if match is None else match.start())


NAME_RE = re.compile(r"[^\s(),]+")
"""A rule name: what the linear form reads as one NAME."""

_NAME_TOKEN_RE = re.compile(rf"{NAME_RE.pattern}|[(),]")


def parse_name_tree(text: str) -> Tree:
    """Parse the linear form into a tree with string labels."""
    cur = TokenCursor(text, _NAME_TOKEN_RE)
    tree = _parse_node(cur)
    cur.end()
    return tree


def _parse_node(cur: TokenCursor) -> Tree:
    name = cur.peek()
    if name in "(),":  # also true for "", the end of the text
        cur.fail("expected a rule name")
    cur.next()
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
    inner = ", ".join(map(print_name_tree, tree.children))
    return f"{tree.label}({inner})"


def tree_to_latex(tree: Tree, label_parts: Callable[[Any], tuple[str, str]]) -> str:
    """Render a tree in stacked inference-rule layout.

    `label_parts` maps a label to (conclusion, rule name); premises of a
    node are laid out above its conclusion.  The output uses an `\\irule`
    macro with the conventional three arguments.
    """
    conclusion, name = label_parts(tree.label)
    premises = " ~~~ ".join(map(tree_to_latex, tree.children, itertools.repeat(label_parts)))
    return "\\irule{%s}{%s}{%s}" % (premises, conclusion, name)


LATEX_PREAMBLE = (
    "% requires amsmath and:\n"
    "% \\newcommand{\\irule}[3]{\\dfrac{#1}{#2}\\;{\\scriptstyle #3}}"
)
