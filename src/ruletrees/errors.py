"""Error types shared across the package.

Checking failures always point at a node: the path is the sequence of
child indices from the root, so () is the root itself.  Walks build it
only once a node fails: each recursive frame the error passes puts the
child indices below it in front, and the checks and `infer_full_tree`,
which loop, find the first occurrence of the failing node again with
`trees.first_path`, in time that grows with the tree's distinct nodes.
"""

from __future__ import annotations


def format_path(path: tuple[int, ...]) -> str:
    if not path:
        return "root"
    return ".".join(str(i) for i in path)


class ParseError(ValueError):
    """A linear form or a file failed to parse.

    `position` is a character offset into the input: where the failing
    token starts, or the input's length at its end.  A linear-form reader
    raises at a token index, and `trees.read_text` turns that into the
    offset by a scan with the form's token regex, run only then.
    Line-oriented files give a line number instead.  `message` is the text
    without the position.
    """

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class Rejected(Exception):
    """A tree, term, or program failed a check at the node given by `path`."""

    def __init__(self, path: tuple[int, ...], reason: str):
        super().__init__(reason)
        self.path = tuple(path)
        self.reason = reason

    def __str__(self) -> str:
        return f"at {format_path(self.path)}: {self.reason}"


class ArityMismatch(Rejected):
    """A rule or program was applied to the wrong number of arguments."""


class IllFormed(Rejected):
    """A program violates the arity discipline at the node given by `path`."""


class DecodeError(ValueError):
    """A number is not the code of a well-formed program."""


class ResourceLimit(RuntimeError):
    """An iteration grew past the configured cardinality bound, or a
    program's code past its length bound."""
