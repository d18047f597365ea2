import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ruletrees
from ruletrees import cli
from ruletrees import natded as nd
from ruletrees import recfun as rf
from ruletrees.cli import build_parser, run
from ruletrees.errors import ParseError, ResourceLimit
from ruletrees.trees import LATEX_PREAMBLE

PARITY_TEXT = """\
state even
state odd
letter a
trans even a odd
trans odd a even
final even
"""

SWAP_TEXT = "fun [P /\\ Q] <snd(hyp [P /\\ Q]), fst(hyp [P /\\ Q])>"

DERIV_TEXT = """\
|- P /\\ Q => Q /\\ P  [imp-intro]
  P /\\ Q |- Q /\\ P  [and-intro]
    P /\\ Q |- Q  [and-elim2]
      P /\\ Q |- P /\\ Q  [axiom]
    P /\\ Q |- P  [and-elim1]
      P /\\ Q |- P /\\ Q  [axiom]
"""


@pytest.fixture
def parity_file(tmp_path):
    path = tmp_path / "parity.nfa"
    path.write_text(PARITY_TEXT)
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------- even

def test_even_iterate(capsys):
    code, out, _ = invoke(capsys, "even", "iterate", "--steps", "3")
    assert (code, out) == (0, "{0, 2, 4}\n")
    code, out, _ = invoke(capsys, "even", "iterate", "--steps", "0")
    assert (code, out) == (0, "{}\n")


def test_even_member(capsys):
    code, out, _ = invoke(capsys, "even", "member", "4", "--depth", "3")
    assert (code, out) == (0, "f2(f2(f1))\n")
    code, out, _ = invoke(capsys, "even", "member", "0", "--depth", "1")
    assert (code, out) == (0, "f1\n")
    code, out, _ = invoke(capsys, "even", "member", "4", "--depth", "2")
    assert (code, out) == (1, "not found within depth 2\n")
    code, out, _ = invoke(capsys, "even", "member", "5", "--depth", "10")
    assert code == 1


def test_even_member_latex(capsys):
    code, out, _ = invoke(capsys, "even", "member", "4", "--depth", "3", "--latex")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("% requires")
    assert lines[-1] == "$$\\irule{\\irule{\\irule{}{0}{f_{1}}}{2}{f_{2}}}{4}{f_{2}}$$"


# ---------------------------------------------------------------------- infer

def test_infer_even_system(capsys):
    code, out, _ = invoke(capsys, "infer", "--system", "even", "f2(f2(f1))")
    assert (code, out) == (0, "4\n")


def test_infer_reads_tree_from_file(capsys, tmp_path):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("f2(f2(f2(f1)))\n")
    code, out, _ = invoke(capsys, "infer", "--system", "even", f"@{tree_file}")
    assert (code, out) == (0, "6\n")


def test_infer_rejections_and_errors(capsys):
    code, out, _ = invoke(capsys, "infer", "--system", "even", "g(f1)")
    assert code == 1
    assert out == "rejected at root: unknown rule g\n"
    code, _, err = invoke(capsys, "infer", "--system", "even", "f2(f2(f1)")
    assert code == 2
    assert err.startswith("syntax error:")


def test_infer_latex(capsys):
    code, out, _ = invoke(capsys, "infer", "--system", "even", "f2(f2(f1))", "--latex")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("% requires")
    assert lines[-1] == "$$\\irule{\\irule{\\irule{}{0}{f_{1}}}{2}{f_{2}}}{4}{f_{2}}$$"


def test_infer_with_compiled_nfa(capsys, parity_file):
    code, out, _ = invoke(capsys, "infer", "--system", parity_file, "a1(a2(a1(eps1)))")
    assert (code, out) == (0, "odd\n")
    code, out, _ = invoke(capsys, "infer", "--system", parity_file, "a2(eps1)")
    assert (code, out) == (1, "rejected at root: rule a2 is undefined at (even)\n")


# --------------------------------------------------------------------- natded

def test_natded_check_scheme(capsys):
    code, out, _ = invoke(capsys, "natded", "check", "--form", "scheme", SWAP_TEXT)
    assert (code, out) == (0, "|- P /\\ Q => Q /\\ P\n")


def test_natded_check_var(capsys):
    term = "fun x : P /\\ Q . <snd(x), fst(x)>"
    code, out, _ = invoke(capsys, "natded", "check", "--form", "var", term)
    assert (code, out) == (0, "|- P /\\ Q => Q /\\ P\n")


def test_natded_check_sequent_file(capsys, tmp_path):
    deriv = tmp_path / "swap.seq"
    deriv.write_text(DERIV_TEXT)
    code, out, _ = invoke(capsys, "natded", "check", "--form", "sequent", f"@{deriv}")
    assert (code, out) == (0, "|- P /\\ Q => Q /\\ P\n")


def test_natded_check_reads_propositions_nested_past_the_recursion_limit(capsys):
    prop = "(" * 2_000 + "P" + ")" * 2_000
    assert sys.getrecursionlimit() < 2_000
    code, out, err = invoke(capsys, "natded", "check", "--form", "scheme", f"fun [{prop}] hyp [{prop}]")
    assert (code, out, err) == (0, "|- P => P\n", "")


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["check", "--form", "scheme", "fun [A] hyp [A]"], 0, "|- (A) => A"),
        (["convert", "--to", "var", "fun [A] hyp [A]"], 0, "fun x1 : A . x1"),
        (["check", "--form", "scheme", "axiom {A | A}"], 1, "rejected at root: axiom carries context {A} but sits under {}"),
        (["check", "--form", "var", "fun x : A . x"], 0, "|- (A) => A"),
        (["convert", "--to", "scheme", "fun x : A . x"], 0, "fun [A] hyp [A]"),
    ],
    ids=["check-scheme", "convert-var", "check-axiom", "check-var", "convert-scheme"],
)
def test_natded_reaches_a_verdict_on_deep_equal_annotations(capsys, argv, code, out):
    """`A` is a chain of 500 `=>`: the annotations read in one call are one
    object, so comparing them stops at identity, and only printing recurses."""
    chain = " => ".join(f"P{i}" for i in range(501))
    argv = [arg.replace("A", chain) for arg in argv]
    assert invoke(capsys, "natded", *argv) == (code, out.replace("A", chain) + "\n", "")


def test_natded_check_rejects(capsys):
    code, out, _ = invoke(capsys, "natded", "check", "--form", "scheme", "hyp [P]")
    assert code == 1
    assert out.startswith("rejected at root:")
    code, out, _ = invoke(
        capsys, "natded", "check", "--form", "scheme", "fun [P] fst(hyp [P])"
    )
    assert code == 1
    assert "needs a conjunction" in out


def test_natded_check_latex(capsys):
    code, out, _ = invoke(
        capsys, "natded", "check", "--form", "scheme", SWAP_TEXT, "--latex"
    )
    assert code == 0
    assert out.startswith("% requires")
    assert "\\vdash" in out and "\\wedge" in out and "imp-intro" in out


def test_natded_convert_round_trip(capsys):
    code, named, _ = invoke(capsys, "natded", "convert", "--to", "var", SWAP_TEXT)
    assert code == 0
    assert named == "fun x1 : P /\\ Q . <snd(x1), fst(x1)>\n"
    code, back, _ = invoke(capsys, "natded", "convert", "--to", "scheme", named.strip())
    assert code == 0
    assert back.strip() == SWAP_TEXT


def test_natded_convert_failure(capsys):
    code, out, _ = invoke(capsys, "natded", "convert", "--to", "var", "hyp [P]")
    assert code == 1
    assert out.startswith("rejected")


# --------------------------------------------------------------------- recfun

def test_recfun_eval(capsys):
    code, out, _ = invoke(capsys, "recfun", "eval", "comp(succ; succ)", "3")
    assert (code, out) == (0, "value 5\n")
    code, out, _ = invoke(
        capsys, "recfun", "eval", "mu(proj^2_1)", "3", "--fuel", "50"
    )
    assert (code, out) == (1, "diverged (fuel 50)\n")
    code, out, _ = invoke(capsys, "recfun", "eval", "comp(succ; succ, succ)", "3")
    assert (code, out) == (1, "ill-formed at root\n")


def test_recfun_eval_usage_errors(capsys):
    code, _, err = invoke(capsys, "recfun", "eval", "succ")
    assert code == 2
    assert "argument" in err
    code, _, _ = invoke(capsys, "recfun", "eval", "succ", "-3")
    assert code == 2
    code, _, _ = invoke(capsys, "recfun", "eval", "succ", "1", "--fuel", "0")
    assert code == 2
    code, _, err = invoke(capsys, "recfun", "eval", "sux", "1")
    assert code == 2
    assert err.startswith("syntax error:")


def test_recfun_godel_ungodel_closure(capsys):
    code, out, _ = invoke(capsys, "recfun", "godel", "comp(succ; succ)")
    assert (code, out) == (0, "272\n")
    code, out, _ = invoke(capsys, "recfun", "ungodel", "272")
    assert (code, out) == (0, "comp(succ; succ)\n")
    code, out, _ = invoke(capsys, "recfun", "ungodel", "21")
    assert code == 1
    assert out.startswith("decode error:")


def test_recfun_godel_ill_formed(capsys):
    code, out, err = invoke(capsys, "recfun", "godel", "proj^1_2")
    assert (code, out, err) == (1, "ill-formed at root\n", "")


@pytest.mark.parametrize("depth", [12, 22])
def test_recfun_godel_past_the_code_bound(capsys, depth):
    program = f"zero^{depth}"
    for _ in range(depth):
        program = f"mu({program})"
    code, out, err = invoke(capsys, "recfun", "godel", program)
    assert (code, out, err) == (1, "", "the program's code is longer than 14284 bits\n")


def test_recfun_ungodel_past_the_code_bound(capsys):
    # 4 300 digits, as argparse's int() accepts, but 14 285 bits
    over = 10**4300 - 1
    code, out, err = invoke(capsys, "recfun", "ungodel", str(over))
    assert (code, out, err) == (1, "", "the program's code is longer than 14284 bits\n")
    # the same program `recfun godel` refuses, one bit past the bound
    over = rf.godel(rf.Zero(isqrt(2 * 2**rf.MAX_CODE_BITS)))
    code, out, err = invoke(capsys, "recfun", "ungodel", str(over))
    assert (code, out, err) == (1, "", "the program's code is longer than 14284 bits\n")
    # a 14 284-bit code decodes, and its program encodes back to it
    at = rf.godel(rf.Zero(isqrt(2**rf.MAX_CODE_BITS)))
    assert at.bit_length() == rf.MAX_CODE_BITS
    code, out, _ = invoke(capsys, "recfun", "ungodel", str(at))
    assert (code, out) == (0, f"zero^{isqrt(2**rf.MAX_CODE_BITS)}\n")
    code, out, _ = invoke(capsys, "recfun", "godel", out.strip())
    assert (code, out) == (0, f"{at}\n")


def test_recfun_ungodel_past_the_list_bound(capsys):
    # comp(zero^3; zero^0, zero^0, zero^0): its list agrees with its outer arity
    assert invoke(capsys, "recfun", "ungodel", "8511") == (
        0, "comp(zero^3; zero^0, zero^0, zero^0)\n", ""
    )
    # the same shape with 2**64 inner programs has a 510-bit code
    n = 2**64
    code = rf._pair(3, rf._pair(rf._pair(0, n), rf._pair(n, 0)))
    assert code.bit_length() == 510
    start = time.perf_counter()
    assert invoke(capsys, "recfun", "ungodel", str(code)) == (
        1, "", "a composition lists more than 14284 inner programs\n"
    )
    assert time.perf_counter() - start < 1.0


def test_recfun_diagonal(capsys):
    code, out, _ = invoke(capsys, "recfun", "diagonal", "zero^2")
    assert code == 0
    assert out == "comp(mu(proj^2_1); comp(zero^2; proj^1_1, proj^1_1))\n"
    code, out, _ = invoke(capsys, "recfun", "diagonal", "zero^2", "--self-apply")
    assert code == 0
    assert out.endswith("value 0\n")
    code, out, _ = invoke(
        capsys,
        "recfun", "diagonal", "comp(succ; zero^2)", "--self-apply", "--fuel", "200",
    )
    assert code == 1
    assert out.endswith("diverged (fuel 200)\n")
    code, _, err = invoke(capsys, "recfun", "diagonal", "succ")
    assert code == 2
    assert "binary" in err


# ------------------------------------------------------------------------ nfa

def test_nfa_run(capsys, parity_file):
    code, out, _ = invoke(
        capsys, "nfa", "run", parity_file, "--state", "odd", "--word", "aaa"
    )
    assert (code, out) == (0, "recognized\n")
    code, out, _ = invoke(
        capsys, "nfa", "run", parity_file, "--state", "odd", "--word", "aa"
    )
    assert (code, out) == (1, "not recognized\n")
    code, out, _ = invoke(
        capsys, "nfa", "run", parity_file, "--state", "even", "--word", ""
    )
    assert (code, out) == (0, "recognized\n")


def test_nfa_run_usage_errors(capsys, parity_file):
    code, _, err = invoke(
        capsys, "nfa", "run", parity_file, "--state", "limbo", "--word", "a"
    )
    assert code == 2
    assert "unknown state" in err
    code, _, err = invoke(
        capsys, "nfa", "run", parity_file, "--state", "even", "--word", "b"
    )
    assert code == 2
    assert "unknown letter" in err
    code, _, err = invoke(
        capsys, "nfa", "run", "/no/such/file.nfa", "--state", "s", "--word", ""
    )
    assert code == 2


def test_nfa_derivations(capsys, parity_file):
    code, out, _ = invoke(
        capsys, "nfa", "derivations", parity_file, "--state", "odd", "--word", "aaa"
    )
    assert (code, out) == (0, "a1(a2(a1(eps1)))\n")
    code, out, _ = invoke(
        capsys, "nfa", "derivations", parity_file, "--state", "odd", "--word", "aa"
    )
    assert (code, out) == (1, "")


def test_nfa_derivations_latex(capsys, parity_file):
    code, out, _ = invoke(
        capsys,
        "nfa", "derivations", parity_file, "--state", "odd", "--word", "a", "--latex",
    )
    assert code == 0
    assert out.startswith("% requires")
    assert "$$\\irule{\\irule{}{even}{\\varepsilon_{1}}}{odd}{a_{1}}$$" in out


def test_nfa_rules(capsys, parity_file):
    code, out, _ = invoke(capsys, "nfa", "rules", parity_file)
    assert code == 0
    assert out == (
        "a1: even -> odd\n"
        "a2: odd -> even\n"
        "eps1: () -> even\n"
        "erase a1 = a\n"
        "erase a2 = a\n"
        'erase eps1 = ""\n'
    )


# a letter named eps makes a rule eps1, as does the first final state
EPS_LETTER_TEXT = "state s0\nletter eps\ntrans s0 eps s0\nfinal s0\n"
# eleven `a` transitions make a rule a11, as does the first `a1` transition
A11_TEXT = (
    "state s0\nstate s1\nstate s2\nstate s3\nletter a\nletter a1\nfinal s0\n"
    + "".join(f"trans s{i // 4} a s{i % 4}\n" for i in range(11))
    + "trans s0 a1 s0\n"
)


@pytest.mark.parametrize(
    "text, word, message",
    [
        (EPS_LETTER_TEXT, "eps,", "duplicate rule name eps1"),
        (A11_TEXT, "a1,", "duplicate rule name a11"),
        # "(" is a letter of the file format, but "(1" reads as no rule name
        (
            "state s0\nletter (\nletter a\ntrans s0 ( s0\ntrans s0 a s0\nfinal s0\n",
            "(",
            "invalid rule name '(1'",
        ),
        # no --word could spell this letter: a comma separates letters
        ("state s0\nletter x,y\ntrans s0 x,y s0\nfinal s0\n", "x,y", "invalid rule name 'x,y1'"),
    ],
    ids=["eps-letter", "a-and-a1", "paren", "comma"],
)
def test_an_automaton_whose_rules_cannot_be_named_stops_every_command(
    capsys, tmp_path, text, word, message
):
    path = tmp_path / "unnamed.nfa"
    path.write_text(text)
    for argv in (
        ["nfa", "run", str(path), "--state", "s0", "--word", word],
        ["nfa", "run", str(path), "--state", "s0", "--word", ""],
        ["nfa", "derivations", str(path), "--state", "s0", "--word", word],
        ["nfa", "derivations", str(path), "--state", "s0", "--word", "", "--latex"],
        ["nfa", "rules", str(path)],
        ["infer", "--system", str(path), "eps1"],
    ):
        assert invoke(capsys, *argv) == (2, "", f"syntax error: {message} (at position 0)\n")


def test_nfa_rules_of_an_automaton_without_rules_print_nothing(capsys, tmp_path):
    path = tmp_path / "bare.nfa"
    path.write_text("state s\nletter a\n")
    assert invoke(capsys, "nfa", "rules", str(path)) == (0, "", "")


# ------------------------------------------------------------------- plumbing

# one command per subcommand; PARITY stands for the parity automaton's file
HANDLER_ARGVS = [
    ["even", "iterate", "--steps", "3"],
    ["even", "member", "4", "--depth", "3", "--latex"],
    ["infer", "--system", "even", "f2(f2(f1))"],
    ["natded", "check", "--form", "scheme", SWAP_TEXT, "--latex"],
    ["natded", "convert", "--to", "var", SWAP_TEXT],
    ["recfun", "eval", "mu(proj^2_1)", "3", "--fuel", "50"],
    ["recfun", "godel", "comp(succ; succ)"],
    ["recfun", "ungodel", "272"],
    ["recfun", "diagonal", "zero^2", "--self-apply"],
    ["nfa", "run", "PARITY", "--state", "odd", "--word", "aa"],
    ["nfa", "derivations", "PARITY", "--state", "odd", "--word", "a", "--latex"],
    ["nfa", "rules", "PARITY"],
]


@pytest.mark.parametrize("argv", HANDLER_ARGVS, ids=lambda argv: " ".join(argv[:2]))
def test_handlers_return_their_outcome_and_print_nothing(capsys, parity_file, argv):
    argv = [parity_file if arg == "PARITY" else arg for arg in argv]
    args = build_parser().parse_args(argv)
    code, lines = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert isinstance(code, int) and isinstance(lines, list)
    assert lines and all(isinstance(line, str) for line in lines)
    # `run` prints exactly those lines
    assert invoke(capsys, *argv) == (code, "".join(f"{line}\n" for line in lines), "")


def _deep_sequent_file(levels: int) -> str:
    """P |- P by and-elim1 from P |- P /\\ P, by and-intro from P |- P (the
    chain goes on) and an axiom P |- P, down to `levels` levels: a node with
    two children every second level."""
    lines = []
    for level in range(0, levels, 2):
        lines.append("  " * level + "P |- P  [and-elim1]")
        lines.append("  " * (level + 1) + "P |- P /\\ P  [and-intro]")
    lines.append("  " * levels + "P |- P  [axiom]")
    lines += ["  " * level + "P |- P  [axiom]" for level in range(levels, 0, -2)]
    return "\n".join(lines)


@pytest.mark.parametrize(
    "argv",
    [
        # natded's term reader recurses once per nesting level: fails at parse
        ["natded", "check", "--form", "scheme",
         "fun [P] " + "fst(<" * 700 + "hyp [P]" + ", hyp [P]>)" * 700, "--latex"],
        # 1 500 nodes with two children on one path, more than the limit
        # even where calls from C code have a limit of their own (3.12 on):
        # fails inside the LaTeX printer
        ["natded", "check", "--form", "sequent", "@DEEP", "--latex"],
    ],
    ids=["natded-scheme", "natded-sequent"],
)
def test_a_latex_run_that_fails_prints_nothing(capsys, tmp_path, argv):
    """The handler fails under the default recursion limit and prints nothing
    ahead of its retry on a large stack, which prints what a direct run on a
    still larger stack prints.  From 3.12 on, calls from C code have a limit
    of their own that no stack raises: where the direct run fails by it, the
    CLI's is one line on stderr and exit 1."""
    deep = tmp_path / "deep.deriv"
    deep.write_text(_deep_sequent_file(3_000))
    argv = [f"@{deep}" if arg == "@DEEP" else arg for arg in argv]
    got, settings = _run_at_the_default_limit(capsys, argv)
    assert settings == (1000, 0)
    args = build_parser().parse_args(argv)
    try:
        code, lines = _on_a_thread(lambda: args.func(args), 2**30, 400_000)
    except RecursionError:
        assert sys.version_info >= (3, 12)
        assert got == (1, "", "input nested too deeply to process\n")
    else:
        assert got == (code, "".join(f"{line}\n" for line in lines), "")
        assert code == 0


def _run_at_the_default_limit(capsys, argv):
    """`invoke` under the interpreter's default recursion limit, and the
    recursion limit and thread stack size just after it."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = invoke(capsys, *argv)
        return got, (sys.getrecursionlimit(), threading.stack_size())
    finally:
        sys.setrecursionlimit(limit)


def _on_a_thread(fn, stack_size, limit):
    """fn() on a thread with that stack size and recursion limit: what it
    returns, or what it raises, raised here."""
    outcome = []

    def work():
        try:
            outcome.append((True, fn()))
        except Exception as err:
            outcome.append((False, err))

    old = sys.getrecursionlimit(), threading.stack_size(stack_size)
    sys.setrecursionlimit(limit)
    try:
        worker = threading.Thread(target=work)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(old[1])
        sys.setrecursionlimit(old[0])
    (returned, value), = outcome
    if not returned:
        raise value
    return value


@pytest.mark.parametrize(
    "argv, expected",
    [
        # the `cli` bench's deep.natded op: the term reader fails at 700 levels
        (["natded", "check", "--form", "scheme",
          "fun [P] " + "fst(<" * 700 + "hyp [P]" + ", hyp [P]>)" * 700],
         (0, "|- P => P\n", "")),
        # the program reader fails at 1 000 levels, the retry at the code bound
        (["recfun", "godel", "comp(" * 1000 + "succ" + "; succ)" * 1000],
         (1, "", "the program's code is longer than 14284 bits\n")),
    ],
    ids=["natded-700", "godel-1000"],
)
def test_a_command_past_the_recursion_limit_reaches_its_verdict(capsys, argv, expected):
    """Retried on a large stack, with the recursion limit and the stack size
    for new threads restored after."""
    assert _run_at_the_default_limit(capsys, argv) == (expected, (1000, 0))


def test_an_ordinary_command_starts_no_thread(capsys, monkeypatch):
    def start(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", start)
    assert invoke(capsys, "even", "member", "8", "--depth", "6") == (0, "f2(f2(f2(f2(f1))))\n", "")
    # the patch is the one the retry would meet
    deep = "comp(" * 1000 + "succ" + "; succ)" * 1000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(AssertionError, match="a thread was started"):
            run(["recfun", "godel", deep])
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("tail, stray", [(" $", "$"), (" 2P", "2")])
def test_a_stray_character_past_the_recursion_limit_is_a_syntax_error(capsys, tail, stray):
    """A term nested past the recursion limit fails as it reads, before
    the stray character at its end is reached; that character is still
    reported, as in a shallow term: a one-line syntax error and exit 2."""
    text = "fun [P] " + "fst(<" * 700 + "hyp [P]" + ", hyp [P]>)" * 700 + tail
    message = f"unexpected character {stray!r}"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        with pytest.raises(ParseError) as info:
            nd.parse_term(text, "scheme")
        got = invoke(capsys, "natded", "check", "--form", "scheme", text)
    finally:
        sys.setrecursionlimit(limit)
    assert (info.value.message, info.value.position) == (message, 11_216)
    assert got == (2, "", f"syntax error: {message} (at position 11216)\n")


def test_a_sequent_line_spaced_with_non_ascii_whitespace_shares_its_propositions(capsys, tmp_path):
    """`A` is a chain of 900 `=>`.  The second line's conclusion, spaced with
    `\\xa0`, is read into the file's propositions as the ASCII-spaced one
    is, so it is the same object as its context's `A` and compares at
    identity."""
    chain = " => ".join(f"P{i}" for i in range(901))
    verdicts = []
    for space in (" ", "\xa0"):
        deriv = tmp_path / "deep.seq"
        concl = chain.replace(" ", space)
        deriv.write_text(f"|- ({chain}) => {chain}  [imp-intro]\n  {chain} |- {concl}  [axiom]\n")
        verdicts.append(invoke(capsys, "natded", "check", "--form", "sequent", f"@{deriv}"))
    assert verdicts[0] == verdicts[1] == (0, f"|- ({chain}) => {chain}\n", "")


def _latex_chain(parts: list) -> str:
    """The `\\irule` document of a chain, built from the leaf up: `parts`
    lists (conclusion, rule name) from the root down."""
    text = "\\irule{}{%s}{%s}" % parts[-1]
    for conclusion, name in reversed(parts[:-1]):
        text = "\\irule{%s}{%s}{%s}" % (text, conclusion, name)
    return f"{LATEX_PREAMBLE}\n$${text}$$\n"


def test_a_700_level_infer_prints_its_latex_document(capsys):
    assert sys.getrecursionlimit() < 1_400
    tree = "f2(" * 700 + "f1" + ")" * 700
    code, out, err = invoke(capsys, "infer", "--system", "even", tree, "--latex")
    parts = [(str(2 * (700 - i)), "f_{2}") for i in range(700)] + [("0", "f_{1}")]
    assert (code, out, err) == (0, _latex_chain(parts), "")


def test_a_600_letter_run_prints_its_latex_document(capsys, tmp_path):
    loop = tmp_path / "loop.nfa"
    loop.write_text("state s\nletter a\ntrans s a s\nfinal s\n")
    code, out, err = invoke(
        capsys, "nfa", "derivations", str(loop), "--state", "s", "--word", "a" * 600, "--latex"
    )
    parts = [("s", "a_{1}")] * 600 + [("s", "\\varepsilon_{1}")]
    assert (code, out, err) == (0, _latex_chain(parts), "")


def test_a_1500_level_witness_prints(capsys):
    assert sys.getrecursionlimit() < 3_000
    code, out, err = invoke(capsys, "even", "member", "3000", "--depth", "1501")
    assert (code, out, err) == (0, "f2(" * 1500 + "f1" + ")" * 1500 + "\n", "")


def test_usage_errors(capsys):
    assert invoke(capsys, "bogus")[0] == 2
    assert invoke(capsys)[0] == 2
    assert invoke(capsys, "even")[0] == 2
    assert invoke(capsys, "--help")[0] == 0


def test_missing_at_file(capsys):
    code, _, err = invoke(capsys, "infer", "--system", "even", "@/no/such/tree")
    assert code == 2


def test_at_file_with_non_utf8_bytes(capsys, tmp_path):
    tree_file = tmp_path / "tree.bin"
    tree_file.write_bytes(b"f2(\xff)")
    code, out, err = invoke(capsys, "infer", "--system", "even", f"@{tree_file}")
    assert (code, out) == (2, "")
    assert "codec can't decode byte 0xff" in err


def test_only_the_six_text_arguments_read_at_file(capsys, tmp_path):
    # the tree, term or program written @FILE gives the outcome of its text inline
    path = tmp_path / "text"
    for argv, text in (
        (["infer", "--system", "even", "@"], "f2(f2(f1))"),
        (["natded", "check", "--form", "scheme", "@"], SWAP_TEXT),
        (["natded", "convert", "--to", "var", "@"], SWAP_TEXT),
        (["recfun", "eval", "@", "3"], "comp(succ; succ)"),
        (["recfun", "godel", "@"], "comp(succ; succ)"),
        (["recfun", "diagonal", "@"], "proj^2_1"),
    ):
        path.write_text(text)
        inline = invoke(capsys, *[text if arg == "@" else arg for arg in argv])
        assert inline[0] == 0 and inline[1]
        assert invoke(capsys, *[f"@{path}" if arg == "@" else arg for arg in argv]) == inline
    # any other argument is taken as written
    path.write_text("5")
    code, out, err = invoke(capsys, "recfun", "ungodel", f"@{path}")
    assert (code, out) == (2, "")
    assert err.endswith(f"argument CODE: invalid _nonneg value: '@{path}'\n")


def test_resource_limit_goes_to_stderr_with_exit_1(capsys, monkeypatch):
    def iterate(*args, **kwargs):
        raise ResourceLimit("step produced more than 5 elements")

    monkeypatch.setattr("ruletrees.engine.iterate", iterate)
    code, out, err = invoke(capsys, "even", "iterate", "--steps", "9")
    assert (code, out, err) == (1, "", "step produced more than 5 elements\n")


def child_env():
    # the child imports the same ruletrees as this process, installed or not
    src = str(Path(ruletrees.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "ruletrees", "even", "iterate", "--steps", "2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert result.stdout == "{0, 2}\n"


INSTANCES_PROBE = """\
import contextlib, io, json, sys
from ruletrees.cli import run

watched = ("ruletrees.natded", "ruletrees.recfun", "ruletrees.automata", "dataclasses", "inspect")
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    print(json.dumps([code, [m for m in watched if m in sys.modules]]))
"""


def test_each_command_imports_only_its_instance(parity_file):
    """No command loads another instance's module, nor `dataclasses` and the
    `inspect` it imports, which would add about 10 ms to every start-up."""
    commands = [
        ["even", "member", "8", "--depth", "6"],
        ["natded", "check", "--form", "scheme", SWAP_TEXT],
        ["recfun", "eval", "comp(succ; succ)", "3"],
        ["nfa", "run", parity_file, "--state", "even", "--word", "aa"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", INSTANCES_PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    natded, recfun, automata = "ruletrees.natded", "ruletrees.recfun", "ruletrees.automata"
    assert [json.loads(line) for line in result.stdout.splitlines()] == [
        [0, []],
        [0, [natded]],
        [0, [natded, recfun]],
        [0, [natded, recfun, automata]],
    ]


def test_member_output_reparses_and_infers(capsys):
    _, printed, _ = invoke(capsys, "even", "member", "8", "--depth", "5")
    code, out, _ = invoke(capsys, "infer", "--system", "even", printed.strip())
    assert (code, out) == (0, "8\n")


# ---------------------------------------------------------------- lazy imports

def test_the_package_exports_resolve_on_use():
    for name in ruletrees.__all__:
        assert getattr(ruletrees, name) is not None
    names = {}
    exec("from ruletrees import *", names)
    assert set(ruletrees.__all__) <= set(names)
    assert names["iterate"] is importlib.import_module("ruletrees.engine").iterate
    assert ruletrees.engine is importlib.import_module("ruletrees.engine")
    with pytest.raises(AttributeError):
        ruletrees.no_such_name


LAZY_PROBE = """\
import contextlib, io, json, sys
if sys.argv[1:] == ["bare"]:
    import ruletrees
    loaded = "ruletrees.engine" in sys.modules
    print(json.dumps([loaded, ruletrees.engine.__name__, ruletrees.member.__module__]))
else:
    from ruletrees.cli import run
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(sys.argv[1:])
    print(json.dumps([code, [m for m in ("argparse", "ruletrees.engine") if m in sys.modules]]))
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["bare"], [False, "ruletrees.engine", "ruletrees.engine"]),
        (["even", "member", "8", "--depth", "6"], [0, ["ruletrees.engine"]]),
        (["natded", "check", "--form", "scheme", SWAP_TEXT], [0, []]),
        (["recfun", "eval", "comp(succ; succ)", "3"], [0, []]),
        (["recfun", "eval", "succ", "--fuel", "0"], [2, ["argparse"]]),
        (["nfa", "run", "PARITY", "--state", "even", "--word", "aa"], [0, []]),
    ],
    ids=["bare-import", "even", "natded", "recfun", "usage-error", "nfa-run"],
)
def test_a_fresh_process_imports_only_what_its_command_uses(parity_file, argv, expected):
    """A bare `import ruletrees` loads no engine, yet resolves it on use; a
    well-formed command imports no argparse, and natded, recfun and `nfa run`
    commands no engine."""
    argv = [parity_file if arg == "PARITY" else arg for arg in argv]
    result = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE, *argv], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == expected


HASH_SEED_PROBE = """\
import sys
from ruletrees.cli import run
codes = [run(["nfa", "run", sys.argv[1], "--state", "s0", "--word", "a"]), run(["nfa", "rules", sys.argv[2]])]
sys.exit(codes != [2, 2])
"""


def test_an_automaton_with_several_faults_reports_the_first_in_name_order(tmp_path):
    """Three undeclared finals, or three undeclared transition targets: the
    fault reported is the first in name order, under every hash seed."""
    finals, targets = tmp_path / "finals.nfa", tmp_path / "targets.nfa"
    finals.write_text("state s0\nletter a\ntrans s0 a s0\nfinal f3\nfinal f1\nfinal f2\n")
    targets.write_text("state s0\nletter a\ntrans s0 a q3\ntrans s0 a q1\ntrans s0 a q2\nfinal s0\n")
    errors = set()
    for seed in range(1, 7):
        result = subprocess.run(
            [sys.executable, "-c", HASH_SEED_PROBE, str(finals), str(targets)],
            capture_output=True,
            text=True,
            env={**child_env(), "PYTHONHASHSEED": str(seed)},
        )
        assert result.returncode == 0 and result.stdout == "", result.stderr
        errors.add(result.stderr)
    assert errors == {
        "syntax error: final state f1 is not declared (at position 0)\n"
        "syntax error: transition target q1 is not declared (at position 0)\n"
    }


# ----------------------------------------------------------------- argv reader

def _parsed(argv):
    """vars() of argparse's namespace for `argv`, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def _reader_agrees(argv):
    """The reader's namespace, checked against argparse's where it read one."""
    read = cli._read_argv(argv)
    if read is not None:
        assert vars(read) == _parsed(argv), argv
    return read


# the top level, each command and each subcommand
LEVELS = [[], ["infer"], *([group] for group in cli.GROUP_HELP)]
LEVELS += [list(words) for words in cli.COMMANDS if len(words) == 2]
NUMBER_TEXTS = ["0", "7", "-1", "-0", "\u0663", " 5", "5 ", "1_0", "+4", "0x10", "1e3", "",
                "x", "9" * 4301, "1" + "0" * 4299]
TEXTS = ["succ", "f2(f1)", "P", "", "a b", "-x", "-5", "--", "-", "@missing", "x=y", "even",
         "member", "--latex", "scheme", "var", "-h"]
IRREGULAR = ["-h", "--help", "--", "-x", "--bogus", "-5", "-"]


def _value(keywords, odd):
    """A value the argument takes, or with `odd` one it may not take."""
    if "choices" in keywords:
        odd_choices = ["schem", "", "-var", keywords["choices"][0]]
        return st.sampled_from(odd_choices if odd else keywords["choices"])
    if "type" in keywords:
        return st.sampled_from(NUMBER_TEXTS) if odd else st.integers(1, 10**30).map(str)
    texts = st.text(max_size=6).filter(lambda text: not text.startswith("-"))
    return st.sampled_from(TEXTS) if odd else texts


def _mutated(data, argv, options):
    """`argv` with one irregular edit: an inserted token, a dropped one, an
    abbreviated option or an option joined to its value by `=`."""
    at = data.draw(st.integers(0, len(argv)))
    kind = data.draw(st.sampled_from(["insert", "drop", "abbreviate", "join"]))
    if kind == "insert" or at == len(argv):
        token = data.draw(st.sampled_from([*IRREGULAR, *options, *TEXTS, "7", "-1"]))
        return argv[:at] + [token] + argv[at:]
    if kind == "drop":
        return argv[:at] + argv[at + 1:]
    if kind == "abbreviate" and argv[at].startswith("--"):
        return argv[:at] + [argv[at][:-1]] + argv[at + 1:]
    return argv[:at] + ["=".join(argv[at:at + 2])] + argv[at + 2:]


@given(st.data())
def test_argv_reader_matches_argparse(data):
    """Every leaf's argv with its options in any order: clean, or with one
    odd value, positional count or missing option, with positionals among
    the options, or with irregular edits.  Where the reader reads a
    namespace it is argparse's, and it reads every clean argv."""
    words = data.draw(st.sampled_from(list(cli.COMMANDS)))
    arguments = cli.COMMANDS[words][2]
    mode = data.draw(st.sampled_from(["clean", "value", "count", "missing", "order", "edits"]))
    odd = data.draw(st.sampled_from(list(arguments)))
    groups, positionals = [], []
    for name, keywords in arguments.items():
        value = _value(keywords, mode == "value" and name == odd)
        if not name.startswith("-"):
            if keywords.get("nargs") == "*":
                count = data.draw(st.integers(0, 3))
            else:
                count = data.draw(st.sampled_from([0, 2])) if mode == "count" and name == odd else 1
            positionals += [data.draw(value) for _ in range(count)]
        elif mode == "missing" and name == odd:
            continue
        elif keywords.get("required") or data.draw(st.booleans()):
            flag = keywords.get("action") == "store_true"
            groups.append([name] if flag else [name, data.draw(value)])
    groups = data.draw(st.permutations(groups))
    place = st.integers(0, len(groups))
    if mode == "order":  # each positional, in order, anywhere among the options
        count = len(positionals)
        places = sorted(data.draw(st.lists(place, min_size=count, max_size=count)))
    else:
        places = [data.draw(place)] * len(positionals)
    argv = list(words)
    for at, group in enumerate([*groups, []]):
        argv += [text for text, where in zip(positionals, places) if where == at] + group
    if mode == "edits":
        for _ in range(data.draw(st.integers(1, 3))):
            argv = _mutated(data, argv, [name for name in arguments if name.startswith("-")])
    read = _reader_agrees(argv)
    assert read is not None or mode != "clean", argv


@pytest.mark.parametrize(
    "argv",
    [level + ["-h"] for level in LEVELS]
    + [level + ["--help"] for level in LEVELS]
    + [level[:1] + ["-h"] + level[1:] for level in LEVELS if len(level) == 2]
    + [
        ["even", "member", "8", "--depth", "6", "--"],
        ["even", "member", "--", "8", "--depth", "6"],
        ["even", "member", "8", "--depth=6"],
        ["even", "member", "8", "--dep", "6"],
        ["even", "member", "8", "--depth", "6", "--depth", "7"],
        ["even", "member", "8", "--depth", "6", "--latex", "--latex"],
        ["even", "member", "8"],
        ["even", "member", "8", "--depth", "6", "-x"],
        ["even", "member", "-8", "--depth", "6"],
        ["even", "member", "8", "--depth", "-6"],
        ["infer", "--system", "-5", "f1"],
        ["nfa", "run", "FILE", "--state", "s", "--word", "-x"],
        ["even", "iterate", "--steps", "-1"],
        ["recfun", "eval", "succ", "--fuel", "-5", "3"],
        ["even", "member", "8", "--depth", "0"],
        ["natded", "check", "--form", "schem", "P"],
        ["natded", "convert", "--to", "scheme"],
        ["even", "member", "8", "9", "--depth", "6"],
        ["nfa", "run", "--state", "s", "--word", "a"],
        ["recfun", "eval", "succ", "--fuel", "5", "3"],
        ["recfun", "eval", "succ", "3", "--fuel", "5", "4"],
        ["recfun", "ungodel", "9" * 4301],
        ["even", "member", "x", "--depth", "6"],
        ["even"],
        [],
        ["bogus"],
        ["infer", "infer", "--system", "even", "f1"],
    ],
)
def test_argv_reader_defers_irregular_argv(argv):
    assert _reader_agrees(argv) is None


@pytest.mark.parametrize(
    "argv",
    [
        ["even", "member", "\u0663", "--depth", " 5"],
        ["even", "iterate", "--steps", "1_0"],
        ["recfun", "ungodel", "1" + "0" * 4299],
        ["recfun", "eval", "--fuel", "5", "succ", "3"],
        ["recfun", "eval", "succ", "--fuel", "5"],
        ["recfun", "eval", "zero^3", "1", "2", "3"],
        ["infer", "f1", "--system", "even", "--latex"],
        ["nfa", "derivations", "--word", "", "--state", "s", "", "--latex"],
        ["natded", "check", "--form", "var", "--latex", "@proof"],
        ["recfun", "diagonal", "--fuel", "+7", "zero^2", "--self-apply"],
    ],
)
def test_argv_reader_reads_what_argparse_reads(argv):
    assert _reader_agrees(argv) is not None


def _output_argvs(tmp_path, parity_file):
    """Over 150 argv: help at every level, usage errors, @FILE arguments and
    every row of the outcome table in cli.py's docstring."""
    files = {
        "TREE": "f2(f2(f1))\n",
        "PROG": "comp(succ; succ)",
        "DERIV": DERIV_TEXT,
        "CLASH": EPS_LETTER_TEXT,
        "PAREN": "state s0\nletter (\nletter a\ntrans s0 ( s0\ntrans s0 a s0\nfinal s0\n",
    }
    paths = {"PARITY": parity_file}
    for name, text in files.items():
        paths[name] = str(tmp_path / name)
        Path(paths[name]).write_text(text)
    paths["BYTES"] = str(tmp_path / "bytes")
    Path(paths["BYTES"]).write_bytes(b"f2(\xff)")
    over_list = rf._pair(3, rf._pair(rf._pair(0, 2**64), rf._pair(2**64, 0)))
    deep_program = "mu(" * 12 + "zero^12" + ")" * 12
    argvs = [level + [flag] for level in LEVELS for flag in ("-h", "--help", "--bogus")]
    argvs += LEVELS + [["bogus"], ["even", "member", "8"], ["recfun", "eval", "succ", "-3"]]
    argvs += HANDLER_ARGVS + [
        ["nfa", "run", "PARITY", "--state", "odd", "--word", "aaa"],
        ["nfa", "run", "PARITY", "--state", "odd", "--word", "aa"],
        ["nfa", "derivations", "PARITY", "--state", "odd", "--word", "aa"],
        ["even", "member", "9", "--depth", "4"],
        ["recfun", "eval", "mu(proj^2_1)", "3", "--fuel", "50"],
        ["infer", "--system", "even", "g(f1)"],
        ["natded", "check", "--form", "scheme", "hyp [P]"],
        ["natded", "convert", "--to", "var", "hyp [P]"],
        ["recfun", "godel", "proj^1_2"],
        ["recfun", "eval", "comp(succ; succ, succ)", "3"],
        ["recfun", "ungodel", "21"],
        ["recfun", "godel", deep_program],
        ["recfun", "ungodel", str(10**4300 - 1)],
        ["recfun", "ungodel", str(over_list)],
        ["infer", "--system", "even", "f2(f2(f1)"],
        ["recfun", "eval", "sux", "1"],
        ["infer", "--system", "even", "@TREE"],
        ["recfun", "eval", "@PROG", "4"],
        ["natded", "check", "--form", "sequent", "@DERIV", "--latex"],
        ["infer", "--system", "even", "@/no/such/tree"],
        ["infer", "--system", "even", "@BYTES"],
        ["nfa", "run", "/no/such/file.nfa", "--state", "s", "--word", ""],
        ["nfa", "run", "PARITY", "--state", "limbo", "--word", "a"],
        ["nfa", "run", "PARITY", "--state", "even", "--word", "b"],
        ["nfa", "rules", "CLASH"],
        ["infer", "--system", "PAREN", "eps1"],
        ["recfun", "eval", "succ"],
        ["recfun", "diagonal", "succ"],
        ["recfun", "diagonal", "comp(succ; zero^2)", "--self-apply", "--fuel", "200"],
    ]
    argvs += [["even", "iterate", "--steps", str(steps)] for steps in range(12)]
    argvs += [["even", "member", str(n), "--depth", str(n // 3 + 1)] for n in range(24)]
    argvs += [["infer", "--system", "PARITY", "a1(a2(" * k + "a1(eps1)" + "))" * k]
              for k in range(4)]
    argvs += [["recfun", "eval", "--fuel", "9", "comp(succ; succ)", str(n)] for n in range(6)]
    argvs += [["nfa", "derivations", "PARITY", "--word", "a" * k, "--state", "odd"]
              for k in range(6)]
    return [[paths.get(arg, arg) for arg in argv] for argv in argvs]


def test_output_is_the_same_with_and_without_the_argv_reader(
    capsys, monkeypatch, tmp_path, parity_file
):
    """Stdout, stderr and exit code of every argv are those of argparse's
    path; the closure bound's row is reached by a patched `iterate`."""
    def through_argparse(argv):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_read_argv", lambda argv: None)
            return invoke(capsys, *argv)

    argvs = _output_argvs(tmp_path, parity_file)
    assert len(argvs) >= 150
    for argv in argvs:
        assert invoke(capsys, *argv) == through_argparse(argv), argv

    def iterate(*args, **kwargs):
        raise ResourceLimit("step produced more than 5 elements")

    monkeypatch.setattr("ruletrees.engine.iterate", iterate)
    argv = ["even", "iterate", "--steps", "9"]
    expected = (1, "", "step produced more than 5 elements\n")
    assert invoke(capsys, *argv) == through_argparse(argv) == expected
