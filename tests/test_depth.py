"""The depth ladder: how deep a generated chain each public walk passes.

Each row names a walk and a depth.  At that depth a generated chain must
pass, in process, at the interpreter's default recursion limit of 1 000,
with no retry.  A walk that loops stands at `cli.MAX_DEPTH`; a walk that
recurses stands at its frontier as measured under pytest, rounded down by
about a tenth.  Rows only ever move up: a row that fails is a regression
to report, not a row to lower.  Each row that loops is also timed at
1 000 and 10 000 levels, and ten times the depth must cost under 30 times
the time, which a walk quadratic in its depth does not.

From 3.12 on, recursion in C code has a limit of its own, so a row may
state another depth there.  Run `pytest -s tests/test_depth.py` to see
the table, one line per walk.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, NamedTuple

import pytest

from ruletrees import natded as nd
from ruletrees import recfun as rf
from ruletrees.cli import MAX_DEPTH
from ruletrees.engine import check_full_tree, even_numbers, infer_full_tree
from ruletrees.errors import ResourceLimit
from ruletrees.trees import Tree, parse_name_tree, print_name_tree, tree_to_latex
from test_cli import _on_a_thread

P = nd.Atom("P")
Q = nd.Atom("Q")


def _down(value, step: Callable, levels: int):
    """`step` applied `levels` times, in a loop."""
    for _ in range(levels):
        value = step(value)
    return value


# ------------------------------------------------------------------ the chains

def _tree_text(n: int) -> str:
    """n levels of a node with two children, the first the next level."""
    return "f(" * n + "a" + ", a)" * n


def _tree(n: int) -> Tree:
    tree = Tree("a")
    for _ in range(n):
        tree = Tree("f", (tree, Tree("a")))
    return tree


def _even_names(n: int) -> Tree:
    """f2 applied n times to f1: the one-child chain that derives 2n."""
    tree = Tree("f1")
    for _ in range(n):
        tree = Tree("f2", (tree,))
    return tree


def _prop_text(n: int) -> str:
    return "P => " * n + "P"


def _prop(n: int) -> nd.Prop:
    prop = nd.Atom("P")
    for _ in range(n):
        prop = nd.Imp(nd.Atom("P"), prop)
    return prop


def _scheme_text(n: int) -> str:
    return "fun [P] " + "fst(<" * n + "hyp [P]" + ", hyp [P]>)" * n


def _fst_chain(n: int, leaf: Callable[[], nd.Term]) -> nd.Term:
    term = leaf()
    for _ in range(n):
        term = nd.Fst(nd.Pair(term, leaf()))
    return term


def _scheme(n: int) -> nd.Term:
    return nd.Lam(P, _fst_chain(n, lambda: nd.Hyp(P)))


def _var(n: int) -> nd.Term:
    return nd.LamV("x", P, _fst_chain(n, lambda: nd.Var("x")))


def _binders_text(n: int) -> str:
    return "fun x : P . " * n + "x"


def _sequent_text(n: int) -> str:
    """A one-child chain of n levels below its root; its text grows as n²."""
    return "\n".join("  " * level + "P |- P" for level in range(n + 1))


def _program_text(n: int) -> str:
    return "comp(succ; " * n + "zero^1" + ")" * n


def _program(n: int) -> rf.Program:
    program = rf.Zero(1)
    for _ in range(n):
        program = rf.Comp(rf.Succ(), (program,))
    return program


# ---------------------------------------------------------- the walks, checked

def _first_child(tree: Tree) -> Tree:
    return tree.children[0]


def _parse_name_tree(n):
    text = _tree_text(n)
    return lambda: _down(parse_name_tree(text), _first_child, n) == Tree("a")


def _parse_prop(n):
    text = _prop_text(n)
    return lambda: _down(nd.parse_prop(text), lambda p: p.right, n) == P


def _parse_scheme_term(n):
    text = _scheme_text(n)
    return lambda: _down(nd.parse_term(text, "scheme").body, lambda t: t.body.left, n) == nd.Hyp(P)


def _parse_var_term(n):
    text = _binders_text(n)
    return lambda: _down(nd.parse_term(text, "var"), lambda t: t.body, n) == nd.Var("x")


def _parse_program(n):
    text = _program_text(n)
    return lambda: _down(rf.parse_program(text), lambda p: p.inner[0], n) == rf.Zero(1)


def _parse_sequent_deriv(n):
    text = _sequent_text(n)
    return lambda: _down(nd.parse_sequent_deriv(text), _first_child, n).children == ()


def _scheme_sequent_tree(n):
    term = _scheme(n)
    return lambda: nd.scheme_sequent_tree(term).label == (nd.Sequent(frozenset(), nd.Imp(P, P)), "imp-intro")


def _scheme_to_var(n):
    term = _scheme(n)
    return lambda: _down(nd.scheme_to_var(term).body, lambda t: t.body.left, n) == nd.Var("x1")


def _var_to_scheme(n):
    term = _var(n)
    return lambda: _down(nd.var_to_scheme(term).body, lambda t: t.body.left, n) == nd.Hyp(P)


def _print_prop(n):
    prop, text = _prop(n), _prop_text(n)
    return lambda: nd.print_prop(prop) == text


def _print_term(n):
    term, text = _scheme(n), _scheme_text(n)
    return lambda: nd.print_term(term) == text


def _print_program(n):
    program, text = _program(n), _program_text(n)
    return lambda: rf.print_program(program) == text


def _print_name_tree(n):
    tree, text = _tree(n), _tree_text(n)
    return lambda: print_name_tree(tree) == text


def _tree_to_latex(n):
    tree = _tree(n)
    return lambda: tree_to_latex(tree, lambda label: (label, label)).endswith("{a}{a}}{f}{f}")


def _infer_full_tree(n):
    system, names = even_numbers(), _even_names(n)
    return lambda: infer_full_tree(system, names).label == (2 * n, "f2")


def _check_full_tree(n):
    system = even_numbers()
    tree = infer_full_tree(system, _even_names(n))
    return lambda: check_full_tree(system, tree) is None


def _equal(build):
    def make(n):
        left, right = build(n), build(n)
        return lambda: left == right
    return make


def _hash(build):
    def make(n):
        left, right = build(n), build(n)
        return lambda: hash(left) == hash(right)
    return make


def _evaluate(n):
    program = _program(n)
    return lambda: rf.evaluate(program, (0,), 2 * n + 2) == n


def _godel(n):
    program = _program(n)

    def walk():
        with pytest.raises(ResourceLimit):  # the verdict; RecursionError is not it
            rf.godel(program, rf.MAX_CODE_BITS)
        return True
    return walk


class Row(NamedTuple):
    walk: str
    make: Callable[[int], Callable[[], bool]]
    depths: dict  # (major, minor) -> the row's depth from that version on
    timed_from: int = 0  # for a row at MAX_DEPTH, the levels its time is compared with


ROWS = [
    Row("parse_name_tree", _parse_name_tree, {(3, 10): MAX_DEPTH}, 1_000),
    Row("parse_prop", _parse_prop, {(3, 10): MAX_DEPTH}, 1_000),
    Row("parse_term scheme fst(<...>)", _parse_scheme_term, {(3, 10): 430}),
    Row("parse_term var fun x : P .", _parse_var_term, {(3, 10): 860}),
    Row("parse_program comp(succ; ...)", _parse_program, {(3, 10): 860}),
    # its text grows as the depth squared: 3 162 levels are 10x the text of 1 000
    Row("parse_sequent_deriv", _parse_sequent_deriv, {(3, 10): 3_162}, 1_000),
    Row("scheme_sequent_tree", _scheme_sequent_tree, {(3, 10): 430}),
    Row("scheme_to_var", _scheme_to_var, {(3, 10): 430}),
    Row("var_to_scheme", _var_to_scheme, {(3, 10): 430}),
    Row("print_prop", _print_prop, {(3, 10): 860}),
    Row("print_term", _print_term, {(3, 10): 430}),
    # from 3.12 on a list comprehension takes no frame of its own
    Row("print_program", _print_program, {(3, 10): 430, (3, 12): 860}),
    Row("print_name_tree", _print_name_tree, {(3, 10): 430, (3, 12): 860}),
    Row("tree_to_latex", _tree_to_latex, {(3, 10): 430, (3, 12): 860}),
    Row("infer_full_tree", _infer_full_tree, {(3, 10): MAX_DEPTH}, 1_000),
    Row("check_full_tree", _check_full_tree, {(3, 10): MAX_DEPTH}, 1_000),
    # `==` calls `_same_record` at every record; from 3.13 on C recursion has its own limit
    Row("== Tree", _equal(_tree), {(3, 10): 215, (3, 12): 265, (3, 13): 860}),
    Row("== =>", _equal(_prop), {(3, 10): 285, (3, 12): 330, (3, 13): 860}),
    # tuple.__hash__ recurses in C and checks no limit
    Row("hash Tree", _hash(_tree), {(3, 10): MAX_DEPTH}, 1_000),
    Row("hash =>", _hash(_prop), {(3, 10): MAX_DEPTH}, 1_000),
    Row("evaluate", _evaluate, {(3, 10): 860}),
    Row("godel", _godel, {(3, 10): 430}),
]


def depth_of(row: Row) -> int:
    """The row's depth on the running interpreter."""
    return row.depths[max(v for v in row.depths if v <= sys.version_info[:2])]


def _best(thunk: Callable[[], bool], times: int) -> float:
    """The least time per call over `times` samples, each sample calling
    `thunk` until it has run at least 10 ms, so that a walk of well under
    a millisecond is not timed by one call that host load can swamp."""
    best = float("inf")
    for _ in range(times):
        calls, start = 0, time.perf_counter()
        while not calls or time.perf_counter() - start < 0.01:
            assert thunk()
            calls += 1
        best = min(best, (time.perf_counter() - start) / calls)
    return best


@pytest.fixture
def default_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("row", ROWS, ids=[row.walk for row in ROWS])
def test_a_chain_at_the_rows_depth_passes(row, default_limit):
    depth = depth_of(row)
    note = "" if len(row.depths) == 1 else "  (" + ", ".join(
        f"{major}.{minor}+: {d}" for (major, minor), d in sorted(row.depths.items())) + ")"
    if not row.timed_from:
        assert row.make(depth)()
        print(f"\n{row.walk:<30} {depth:>6}  frontier{note}", end="")
        return
    ratio = _best(row.make(depth), 3) / _best(row.make(row.timed_from), 7)
    print(f"\n{row.walk:<30} {depth:>6}  {ratio:4.1f}x the time of {row.timed_from}{note}", end="")
    assert ratio < 30, f"{row.walk}: {depth} levels took {ratio:.1f}x the time of {row.timed_from}"


# -------------------------------------------------------- binders, timed deep

def _binder_chain(n: int) -> nd.Term:
    """`fun x1 : Q . fun x2 : P . ... fun xn : P . x1`: the one variable is
    bound by the outermost binder, so every walk looks it up past all n.
    The inner binders share `P`, so each context holds two propositions;
    n distinct ones would make the sequent tree's n contexts quadratic in
    size, whatever the walk does with its binders."""
    term = nd.Var("x1")
    for i in range(n, 0, -1):
        term = nd.LamV(f"x{i}", Q if i == 1 else P, term)
    return term


def _binder_walks(n: int) -> dict:
    """A thunk per named-binder walk over `_binder_chain(n)`, each checking
    the leaf of what it returns."""
    var = _binder_chain(n)
    scheme = nd.var_to_scheme(var)
    axiom = (nd.Sequent(frozenset({P, Q}), Q), nd.AXIOM)
    return {
        "var_sequent_tree": lambda: _down(nd.var_sequent_tree(var), _first_child, n).label == axiom,
        "var_to_scheme": lambda: _down(nd.var_to_scheme(var), lambda t: t.body, n) == nd.Hyp(Q),
        "scheme_to_var": lambda: _down(nd.scheme_to_var(scheme), lambda t: t.body, n) == nd.Var("x1"),
    }


def test_binder_walks_are_linear():
    """Pushing a named binder costs the same at any depth: 10 000 binders
    take under 30 times the time of 1 000, the ladder's bound, where a
    copy of the enclosing binders per binder took over 100 times."""
    def ratios():
        deep, shallow = _binder_walks(10_000), _binder_walks(1_000)
        return {walk: _best(deep[walk], 3) / _best(shallow[walk], 7) for walk in deep}

    for walk, ratio in _on_a_thread(ratios, 2**29, 50_000).items():
        print(f"\n{walk:<30} {10_000:>6}  {ratio:4.1f}x the time of 1000", end="")
        assert ratio < 30, f"{walk}: 10000 binders took {ratio:.1f}x the time of 1000"
