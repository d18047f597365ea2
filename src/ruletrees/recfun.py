"""A small language of recursive functions over the naturals.

Programs are built from the null functions, successor, projections,
composition, primitive recursion, and minimization:

    p := zero^N | succ | proj^N_I | comp(p; p, ..., p) | rec(p, p) | mu(p)

Recursion runs on the first argument: rec(g, h) maps (0, xs) to g(xs)
and (y+1, xs) to h(y, f(y, xs), xs).  Minimization appends its search
variable after the given arguments: mu(f)(xs) is the least y with
f(xs, y) = 0.  Evaluation is bounded by a fuel budget so that searches
which never succeed are reported as divergence instead of looping.
`evaluate` compiles the program once per call into nested closures, in
the walk that checks its arities.  They charge one unit of fuel, an item
of iter(range(fuel)), at three points: a composition's entry, a
recursion's entry and each of its steps, and a minimization's entry and
each of its probes.  Addition's recursion, whose step is its accumulator's
successor comp(succ; proj^N_2), runs in closed form: it charges its entry,
runs its base, takes in one step the 2n units its n steps and their
compositions would charge, and returns base + n, with the loop's value and
fuel.

Every well-formed program has a numeric code (`godel`/`ungodel`) built
from the pairing function <a, b> = (a + b)(a + b + 1)/2 + b by one rule:
a program codes as <tag, nest(the codes of its fields)>, with the tags
zero 0, succ 1, proj 2, comp 3, rec 4, mu 5 and the fields in declaration
order.  A numeral codes as itself, and comp's list of inner programs as
<length, nest(their codes)>.  `nest` right-nests pairs and leaves the last
code bare: nest(c) = c, nest(c, d, ...) = <c, nest(d, ...)>, nest() = 0.
"""

from __future__ import annotations

import re
from itertools import count
from math import isqrt
from operator import itemgetter
from typing import Iterator, Union

from .errors import (
    ArityMismatch,
    DecodeError,
    IllFormed,
    ParseError,
    ResourceLimit,
    format_path,
)
from .trees import Tree, read_text, record


Zero = record("Zero", "arity", doc="The function of `arity` arguments that is constantly 0.")
Succ = record("Succ")
Proj = record("Proj", "arity", "index", doc="The `index`-th of `arity` arguments, 1-based.")
Comp = record("Comp", "outer", "inner", doc="Apply `outer` to the results of the `inner` programs.")
Rec = record("Rec", "base", "step", doc="Primitive recursion on the first argument, from `base` via `step`.")
Mu = record("Mu", "body", doc="Search for the least value making `body` return 0.")

Program = Union[Zero, Succ, Proj, Comp, Rec, Mu]


def arity_of(program: Program) -> int:
    """Number of arguments the program takes; raises IllFormed with the
    path of the offending subprogram."""
    return _compile(program, None)[1]


def _subprograms(program: Comp | Rec | Mu) -> tuple:
    """A combinator's subprograms in path order, a composition's outer one first."""
    return (program.outer, *program.inner) if isinstance(program, Comp) else program


def _compile(program: Program, fuel: Iterator | None):
    """Check a program's arities and build the closure that runs it, in one
    walk: (run, arity).  Raises IllFormed where it fails.  `fuel` is a range
    iterator (None in `arity_of`, which runs no closure).  The closures charge
    with next(fuel), and addition's recursion in closed form with `_spend`, so
    none may ever run inside a generator frame, which would turn StopIteration
    into RuntimeError (PEP 479).  Hence comp runs its inner programs in a plain
    loop: a generator expression would be such a frame, and a list
    comprehension takes a frame of its own on 3.10 and 3.11, where a chain of
    comps would run out of stack at the default recursion limit near 500
    levels instead of 1 000."""
    if isinstance(program, Zero):
        if program.arity < 0:
            raise IllFormed((), "zero takes a nonnegative arity")
        return (lambda args: 0), program.arity
    if isinstance(program, Succ):
        return (lambda args: args[0] + 1), 1
    if isinstance(program, Proj):
        if not 1 <= program.index <= program.arity:
            raise IllFormed(
                (),
                f"projection index {program.index} out of range for arity {program.arity}",
            )
        return itemgetter(program.index - 1), program.arity
    if isinstance(program, Comp):
        if not program.inner:
            raise IllFormed((), "composition needs at least one inner program")
    elif not isinstance(program, (Rec, Mu)):
        raise TypeError(f"not a program: {program!r}")
    parts = []
    try:
        for sub in _subprograms(program):
            parts.append(_compile(sub, fuel))
    except IllFormed as err:
        err.path = (len(parts), *err.path)
        raise
    if isinstance(program, Comp):
        (outer, outer_arity), *rest = parts
        inners, arities = zip(*rest)
        if len(set(arities)) != 1:
            raise IllFormed((), "inner programs disagree on arity")
        if outer_arity != len(program.inner):
            raise _comp_mismatch(outer_arity, len(program.inner))
        def run(args):
            next(fuel)
            values = []
            for g in inners:
                values.append(g(args))
            return outer(tuple(values))
        return run, arities[0]
    if isinstance(program, Rec):
        (base, base_arity), (step, step_arity) = parts
        if step_arity != base_arity + 2:
            raise IllFormed(
                (),
                f"recursion step takes {step_arity} argument(s), "
                f"needs {base_arity + 2}",
            )
        if program.step == Comp(Succ(), (Proj(step_arity, 2),)):
            def run(args):
                next(fuel)
                acc = base(args[1:])
                _spend(fuel, 2 * args[0])
                return acc + args[0]
        else:
            def run(args):
                next(fuel)
                rest = args[1:]
                acc = base(rest)
                for j in range(args[0]):
                    next(fuel)
                    acc = step((j, acc) + rest)
                return acc
        return run, base_arity + 1
    ((body, body_arity),) = parts
    if body_arity < 1:
        raise IllFormed((), "minimization needs a body of arity at least 1")

    def run(args):
        next(fuel)
        for y in count():
            next(fuel)
            if body(args + (y,)) == 0:
                return y
    return run, body_arity - 1


def _spend(fuel: Iterator, units: int) -> None:
    """Take `units` items of the range iterator `fuel` at once, as that many
    next(fuel) calls would: past its end, exhaust it and raise StopIteration.
    `__length_hint__` is exact past sys.maxsize, where `operator.length_hint`
    overflows.  The pickled index is absolute up to 3.11 and None from 3.12
    on, where `__setstate__` moves on from the current item."""
    left = fuel.__length_hint__()
    fuel.__setstate__((fuel.__reduce__()[2] or 0) + min(units, left))
    if units > left:
        raise StopIteration


def _comp_mismatch(outer_arity: int, count: int) -> IllFormed:
    message = f"outer program takes {outer_arity} argument(s) but {count} inner"
    return IllFormed((), message + " program(s) are given")


def evaluate(
    program: Program, args: tuple[int, ...] | list[int], fuel: int
) -> int | None:
    """Run a program on natural-number arguments under a fuel budget.

    The program is compiled into closures that take one item of
    iter(range(fuel)) at each point the module docstring names; the base
    functions are free.  Returns the value, or None once the fuel runs out.
    """
    if fuel < 1:
        raise ValueError("fuel must be positive")
    run, arity = _compile(program, iter(range(fuel)))
    args = tuple(args)
    if len(args) != arity:
        raise ArityMismatch(
            (), f"program takes {arity} argument(s), got {len(args)}"
        )
    if any(a < 0 for a in args):
        raise ValueError("arguments must be natural numbers")
    try:
        return run(args)
    except StopIteration:
        return None


def diagonal(oracle: Program) -> Program:
    """The program that, on input x, converges (to 0) exactly when the
    binary `oracle` returns 0 on (x, x)."""
    if arity_of(oracle) != 2:
        raise ArityMismatch((), "the oracle program must be binary")
    return Comp(
        Mu(Proj(2, 1)),
        (Comp(oracle, (Proj(1, 1), Proj(1, 1))),),
    )


# ------------------------------------------------------------------- numbering

def _pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def _unpair(z: int) -> tuple[int, int]:
    w = (isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


# The numbering's one table: the constructors in tag order, each with the
# kinds of its fields in declaration order ("n" a numeral, "p" a program,
# "l" a nonempty list of programs).
_CONSTRUCTORS = ((Zero, "n"), (Succ, ""), (Proj, "nn"), (Comp, "pl"), (Rec, "pp"), (Mu, "p"))

# A code of at most 14 284 bits is below 2**14284 < 10**4300, so it prints in
# at most 4 300 decimal digits: CPython's default limit for converting an int
# to text, which also caps the CODE that `recfun ungodel` reads.
MAX_CODE_BITS = 14_284


def godel(program: Program, max_bits: int | None = None) -> int:
    """The numeric code of a well-formed program.  With `max_bits`, raises
    ResourceLimit once a part of the code is longer than that (each nesting
    level about doubles a code's length, so the whole is never built), or
    on a composition that lists more inner programs than that."""
    arity_of(program)
    return _encode(program, max_bits)


def _within(code: int, max_bits: int | None) -> int:
    if max_bits is not None and code.bit_length() > max_bits:
        raise ResourceLimit(f"the program's code is longer than {max_bits} bits")
    return code


def _listed(length: int, max_bits: int | None) -> int:
    # zero^0 codes as 0, and so does a list of them: a short code can name a
    # composition of any length, so its length is bounded as the code is
    if max_bits is not None and length > max_bits:
        raise ResourceLimit(f"a composition lists more than {max_bits} inner programs")
    return length


def _encode(value, max_bits: int | None) -> int:
    """The code of a program, of a list of programs, or of a numeral (itself):
    <head, nest(the codes of its items)>, in one frame per nesting level."""
    if not isinstance(value, (tuple, list)):
        return value
    # programs are tuples too, so their classes go before the list case
    for head, (cls, _) in enumerate(_CONSTRUCTORS):
        if isinstance(value, cls):
            break
    else:
        head = _listed(len(value), max_bits)
    codes = []
    for item in value:
        codes.append(_encode(item, max_bits))
    code = codes.pop() if codes else 0
    for item in reversed(codes):
        code = _within(_pair(item, code), max_bits)
    return _within(_pair(head, code), max_bits)


def ungodel(code: int, max_bits: int | None = None) -> Program:
    """Invert `godel`; raises DecodeError on numbers that do not code a
    well-formed program.  With `max_bits`, raises ResourceLimit on a code
    longer than that, or on a composition that lists more than `max_bits`
    inner programs, as `godel` does for the program it would decode to."""
    if code < 0:
        raise DecodeError("codes are nonnegative")
    try:
        program = _decode(_within(code, max_bits), max_bits)
        arity_of(program)
    except IllFormed as err:
        raise DecodeError(
            f"decodes to an ill-formed program ({err.reason} at {format_path(err.path)})"
        ) from err
    return program


def _decode(code: int, max_bits: int | None) -> Program:
    """The program `code` codes, in one frame per nesting level.

    A composition's list of inner programs is read after its outer program:
    its length is checked against the outer program's arity and then
    against `max_bits` before its items are decoded, since they take time
    in that length.  The programs decoded go into `fields` in path order.
    """
    head, rest = _unpair(code)
    if head >= len(_CONSTRUCTORS):
        raise DecodeError(f"unknown constructor tag {head}")
    cls, kinds = _CONSTRUCTORS[head]
    if not kinds and rest != 0:  # Succ is the one constructor without fields
        raise DecodeError(f"successor carries no payload, got {rest}")
    fields = []
    for field, kind in zip(_unnest(rest, len(kinds)), kinds):
        if kind == "n":
            fields.append(field)
            continue
        items = (field,)
        if kind == "l":
            length, field = _unpair(field)
            if length < 1:
                raise DecodeError("a composition lists at least one inner program")
            if length != _spine_arity(fields[0]):
                try:
                    arity = arity_of(fields[0])
                except IllFormed as err:
                    err.path = (0, *err.path)
                    raise
                raise _comp_mismatch(arity, length)
            items = _unnest(field, _listed(length, max_bits))
        try:
            for item in items:
                fields.append(_decode(item, max_bits))
        except IllFormed as err:
            err.path = (len(fields), *err.path)
            raise
    if cls is Comp:
        return Comp(fields[0], tuple(fields[1:]))
    return cls(*fields)


def _spine_arity(program: Program) -> int:
    """What `arity_of` gives a well-formed program, read down its spine alone."""
    shift = 0
    while isinstance(program, (Comp, Rec, Mu)):
        if not isinstance(program, Comp):
            shift += 1 if isinstance(program, Rec) else -1
        program = program.inner[0] if isinstance(program, Comp) else program[0]
    return shift + (1 if isinstance(program, Succ) else program.arity)


def _unnest(code: int, n: int):
    """The `n` codes that `_encode` paired into `code`, first to last, taken
    apart one at a time so that decoding stops at the first bad one."""
    for _ in range(n - 1):
        head, code = _unpair(code)
        yield head
    yield code


# --------------------------------------------------------------- text form

def print_program(program: Program) -> str:
    if isinstance(program, Zero):
        return f"zero^{program.arity}"
    if isinstance(program, Succ):
        return "succ"
    if isinstance(program, Proj):
        return f"proj^{program.arity}_{program.index}"
    if isinstance(program, Comp):
        inner = ", ".join([print_program(g) for g in program.inner])
        return f"comp({print_program(program.outer)}; {inner})"
    if isinstance(program, Rec):
        return f"rec({print_program(program.base)}, {print_program(program.step)})"
    if isinstance(program, Mu):
        return f"mu({print_program(program.body)})"
    raise TypeError(f"not a program: {program!r}")


_PROGRAM_TOKEN_RE = re.compile(r"[^\s(),;]+|[(),;]")

_BASE_NAME_RE = re.compile(r"zero\^([0-9]+)|succ|proj\^([0-9]+)_([0-9]+)")


def _base_program(name: str) -> Program | None:
    """The base function `name` spells in the text form, else None."""
    match = _BASE_NAME_RE.fullmatch(name)
    if match is None:
        return None
    zero_arity, proj_arity, index = match.groups()
    if zero_arity is not None:
        return Zero(int(zero_arity))
    if proj_arity is not None:
        return Proj(int(proj_arity), int(index))
    return Succ()


def parse_program(text: str) -> Program:
    """Parse the linear form.  Structure only: arity violations are left
    to `arity_of`."""
    return read_text(text, _PROGRAM_TOKEN_RE, _program_tokens, _read_prog)


def _program_tokens(text: str) -> list[str]:
    """`_PROGRAM_TOKEN_RE.findall(text)` by str methods: no character is stray."""
    return text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").replace(";", " ; ").split()


def _read_prog(tokens: list[str], i: int) -> tuple[Program, int]:
    """Read a program from `tokens[i:]`, one frame per level; return it and
    the index of the token after it.  A ParseError raised here has the index
    of the failing token."""
    word = tokens[i]
    if word not in ("comp", "rec", "mu"):
        program = _base_program(word)
        if program is None:
            raise ParseError("expected zero^N, succ, proj^N_I, comp, rec, or mu", i)
        return program, i + 1
    if tokens[i + 1] != "(":
        raise ParseError("expected '('", i + 1)
    first, i = _read_prog(tokens, i + 2)
    if word == "comp":
        if tokens[i] != ";":
            raise ParseError("expected ';'", i)
        inner = []
        while not inner or tokens[i] == ",":  # the first after the ";"
            program, i = _read_prog(tokens, i + 1)
            inner.append(program)
        program = tuple.__new__(Comp, (first, tuple(inner)))
    elif word == "rec":
        if tokens[i] != ",":
            raise ParseError("expected ','", i)
        step, i = _read_prog(tokens, i + 1)
        program = tuple.__new__(Rec, (first, step))
    else:
        program = tuple.__new__(Mu, (first,))
    if tokens[i] != ")":
        raise ParseError("expected ')'", i)
    return program, i + 1


# ----------------------------------------------- bridge to name-labeled trees

def program_to_name_tree(program: Program) -> Tree:
    """View a program as a name-labeled tree: base functions become
    leaves named like their text form, the combinators become inner
    nodes named comp, rec, mu."""
    if isinstance(program, (Zero, Succ, Proj)):
        return Tree(print_program(program))
    if not isinstance(program, (Comp, Rec, Mu)):
        raise TypeError(f"not a program: {program!r}")
    name = type(program).__name__.lower()
    return Tree(name, tuple([program_to_name_tree(sub) for sub in _subprograms(program)]))


def name_tree_to_program(tree: Tree) -> Program:
    """Invert `program_to_name_tree`; raises IllFormed on names or child
    counts that fit no constructor."""
    name = tree.label
    kids = tree.children
    program = _base_program(name)
    if program is not None:
        if kids:
            raise IllFormed((), f"{name.partition('^')[0]} takes no children")
        return program
    if name == "comp" and len(kids) < 2:
        raise IllFormed((), "comp takes an outer and at least one inner child")
    if name == "rec" and len(kids) != 2:
        raise IllFormed((), "rec takes exactly two children")
    if name == "mu" and len(kids) != 1:
        raise IllFormed((), "mu takes exactly one child")
    if name not in ("comp", "rec", "mu"):
        raise IllFormed((), f"unknown program name {name}")
    subs = []
    try:
        for kid in kids:
            subs.append(name_tree_to_program(kid))
    except IllFormed as err:
        err.path = (len(subs), *err.path)
        raise
    if name == "comp":
        return Comp(subs[0], tuple(subs[1:]))
    return Rec(*subs) if name == "rec" else Mu(*subs)
