"""Command-line front end.

Any argument of the form @FILE is replaced by that file's contents.
Each outcome prints one message on one stream and exits with one code:

    verdict: accepted, value, recognized                   stdout  0
    verdict: diverged, not found, not recognized           stdout  1
      (`nfa derivations` without runs prints nothing)
    rejected at ..., ill-formed at ..., decode error: ...  stdout  1
    ResourceLimit: a closure past its size bound           stderr  1
    ResourceLimit: a recfun code longer than 14284 bits    stderr  1
      (`recfun godel` on a program, `recfun ungodel` on a code)
    ResourceLimit: a composition listing more than 14284   stderr  1
      inner programs (`recfun godel`, `recfun ungodel`)
    syntax error: ..., usage, @FILE or file errors,        stderr  2
      unknown state or letter, duplicate or invalid rule name,
      eval arity, diagonal oracle

`run` decides every outcome.  A handler returns its exit code and its
stdout lines and prints nothing, so nothing reaches stdout before a
command has its whole output.
"""

from __future__ import annotations

import argparse
import re
import sys

from .errors import (
    ArityMismatch,
    DecodeError,
    IllFormed,
    ParseError,
    Rejected,
    ResourceLimit,
    format_path,
)
from .trees import LATEX_PREAMBLE, parse_name_tree, print_name_tree, tree_to_latex
from . import engine
from .engine import even_numbers, render_element, render_set

# natded, recfun and automata are imported by the handlers that use them,
# so that a process pays only for the instance its command runs.


def read_arg(text: str) -> str:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            return handle.read()
    return text


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _full_label_latex(label) -> tuple[str, str]:
    """LaTeX (conclusion, rule name) of an (element, rule name) label:
    a trailing number becomes a subscript, and eps becomes epsilon."""
    element, name = label
    match = re.fullmatch(r"(.*?)(\d+)", name)
    base, sub = (match.group(1), match.group(2)) if match else (name, None)
    if base == "eps":
        base = "\\varepsilon"
    return render_element(element), (f"{base}_{{{sub}}}" if sub else base)


def _latex(trees, label_parts=_full_label_latex) -> list[str]:
    """The `\\irule` preamble, then one `$$\\irule...$$` line per tree."""
    return [LATEX_PREAMBLE, *(f"$${tree_to_latex(tree, label_parts)}$$" for tree in trees)]


def _load_nfa(path: str):
    from . import automata
    with open(path, "r", encoding="utf-8") as handle:
        return automata.parse_nfa(handle.read())


def _load_system(selector: str):
    if selector == "even":
        return even_numbers()
    from . import automata
    return automata.compile_nfa(_load_nfa(selector)).system


def _verdict(result: int | None, fuel: int) -> tuple[int, list[str]]:
    """An evaluation's exit code and stdout line."""
    if result is None:
        return 1, [f"diverged (fuel {fuel})"]
    return 0, [f"value {result}"]


# ------------------------------------------------------------------- handlers

def cmd_even_iterate(args) -> tuple[int, list[str]]:
    elements, _ = engine.iterate(even_numbers(), args.steps)
    return 0, [render_set(elements)]


def cmd_even_member(args) -> tuple[int, list[str]]:
    witness = engine.member(even_numbers(), args.n, args.depth)
    if witness is None:
        return 1, [f"not found within depth {args.depth}"]
    if args.latex:
        return 0, _latex([witness])
    return 0, [print_name_tree(engine.erase_elements(witness))]


def cmd_infer(args) -> tuple[int, list[str]]:
    system = _load_system(args.system)
    tree = parse_name_tree(read_arg(args.tree))
    full = engine.infer_full_tree(system, tree)
    if args.latex:
        return 0, _latex([full])
    return 0, [render_element(full.label[0])]


def cmd_natded_check(args) -> tuple[int, list[str]]:
    from . import natded
    text = read_arg(args.term)
    # both forms label their nodes (Sequent, rule name or None)
    if args.form == "sequent":
        tree = natded.parse_sequent_deriv(text)
        natded.check_sequent_deriv(tree)
    else:
        tree = natded.scheme_sequent_tree(natded.parse_term(text, args.form))
    if args.latex:
        return 0, _latex(
            [tree], lambda label: (natded.sequent_to_latex(label[0]), label[1] or "")
        )
    return 0, [natded.print_sequent(tree.label[0])]


def cmd_natded_convert(args) -> tuple[int, list[str]]:
    from . import natded
    text = read_arg(args.term)
    if args.to == "var":
        term = natded.scheme_to_var(natded.parse_term(text, "scheme"))
    else:
        term = natded.var_to_scheme(natded.parse_term(text, "var"))
    return 0, [natded.print_term(term)]


def cmd_recfun_eval(args) -> tuple[int, list[str]]:
    from . import recfun
    program = recfun.parse_program(read_arg(args.program))
    try:
        result = recfun.evaluate(program, args.args, args.fuel)
    except ArityMismatch as err:
        raise ValueError(err.reason) from None
    return _verdict(result, args.fuel)


def cmd_recfun_godel(args) -> tuple[int, list[str]]:
    from . import recfun
    program = recfun.parse_program(read_arg(args.program))
    return 0, [str(recfun.godel(program, recfun.MAX_CODE_BITS))]


def cmd_recfun_ungodel(args) -> tuple[int, list[str]]:
    from . import recfun
    return 0, [recfun.print_program(recfun.ungodel(args.code, recfun.MAX_CODE_BITS))]


def cmd_recfun_diagonal(args) -> tuple[int, list[str]]:
    from . import recfun
    oracle = recfun.parse_program(read_arg(args.program))
    try:
        program = recfun.diagonal(oracle)
    except (IllFormed, ArityMismatch) as err:
        raise ValueError(err.reason) from None
    printed = recfun.print_program(program)
    if not args.self_apply:
        return 0, [printed]
    result = recfun.evaluate(program, (recfun.godel(program),), args.fuel)
    code, verdict = _verdict(result, args.fuel)
    return code, [printed, *verdict]


def cmd_nfa_run(args) -> tuple[int, list[str]]:
    from . import automata
    nfa = _load_nfa(args.file)
    if automata.recognizes(nfa, args.state, automata.parse_word(args.word)):
        return 0, ["recognized"]
    return 1, ["not recognized"]


def cmd_nfa_derivations(args) -> tuple[int, list[str]]:
    from . import automata
    nfa = _load_nfa(args.file)
    derivs = automata.derivations_of(nfa, args.state, automata.parse_word(args.word))
    if args.latex and derivs:
        system = automata.compile_nfa(nfa).system
        lines = _latex(engine.infer_full_tree(system, deriv) for deriv in derivs)
    else:
        lines = [print_name_tree(deriv) for deriv in derivs]
    return (0 if derivs else 1), lines


def cmd_nfa_rules(args) -> tuple[int, list[str]]:
    from . import automata
    compiled = automata.compile_nfa(_load_nfa(args.file))
    lines = [
        f"{name}: {premise} -> {conclusion}" for name, _, premise, conclusion in compiled.edges
    ]
    lines += [f"{name}: () -> {state}" for name, state in compiled.finals]
    lines += [f"erase {name} = " + (letter or '""') for name, letter in compiled.erasure.items()]
    return 0, lines


# --------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruletrees",
        description="rule systems, derivation trees, and three worked instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    even = sub.add_parser("even", help="the two-rule system for the even naturals")
    even_sub = even.add_subparsers(dest="subcommand", required=True)
    even_iterate = even_sub.add_parser("iterate", help="print the i-th closure layer")
    even_iterate.add_argument("--steps", type=_nonneg, required=True)
    even_iterate.set_defaults(func=cmd_even_iterate)
    even_member = even_sub.add_parser("member", help="search for a derivation of N")
    even_member.add_argument("n", type=_nonneg)
    even_member.add_argument("--depth", type=_positive, required=True)
    even_member.add_argument("--latex", action="store_true")
    even_member.set_defaults(func=cmd_even_member)

    infer = sub.add_parser("infer", help="run a name-labeled tree to its conclusion")
    infer.add_argument("--system", required=True, metavar="even|FILE.nfa")
    infer.add_argument("tree")
    infer.add_argument("--latex", action="store_true")
    infer.set_defaults(func=cmd_infer)

    nd = sub.add_parser("natded", help="natural deduction for /\\ and =>")
    nd_sub = nd.add_subparsers(dest="subcommand", required=True)
    nd_check = nd_sub.add_parser("check", help="check a proof and print its sequent")
    nd_check.add_argument("--form", choices=("scheme", "var", "sequent"), required=True)
    nd_check.add_argument("term", metavar="TERM_OR_FILE")
    nd_check.add_argument("--latex", action="store_true")
    nd_check.set_defaults(func=cmd_natded_check)
    nd_convert = nd_sub.add_parser("convert", help="convert between proof-term forms")
    nd_convert.add_argument("--to", choices=("var", "scheme"), required=True)
    nd_convert.add_argument("term", metavar="TERM")
    nd_convert.set_defaults(func=cmd_natded_convert)

    rf = sub.add_parser("recfun", help="recursive functions over the naturals")
    rf_sub = rf.add_subparsers(dest="subcommand", required=True)
    rf_eval = rf_sub.add_parser("eval", help="run a program under a fuel budget")
    rf_eval.add_argument("program", metavar="PROG")
    rf_eval.add_argument("args", metavar="N", type=_nonneg, nargs="*")
    rf_eval.add_argument("--fuel", type=_positive, default=10000)
    rf_eval.set_defaults(func=cmd_recfun_eval)
    rf_godel = rf_sub.add_parser("godel", help="print the code of a program")
    rf_godel.add_argument("program", metavar="PROG")
    rf_godel.set_defaults(func=cmd_recfun_godel)
    rf_ungodel = rf_sub.add_parser("ungodel", help="decode a program from its code")
    rf_ungodel.add_argument("code", metavar="CODE", type=_nonneg)
    rf_ungodel.set_defaults(func=cmd_recfun_ungodel)
    rf_diag = rf_sub.add_parser(
        "diagonal", help="build the program that diagonalizes a binary oracle"
    )
    rf_diag.add_argument("program", metavar="HPROG")
    rf_diag.add_argument("--self-apply", action="store_true")
    rf_diag.add_argument("--fuel", type=_positive, default=10000)
    rf_diag.set_defaults(func=cmd_recfun_diagonal)

    nfa = sub.add_parser("nfa", help="finite automata as rule systems")
    nfa_sub = nfa.add_subparsers(dest="subcommand", required=True)
    nfa_run = nfa_sub.add_parser("run", help="does the automaton accept the word?")
    nfa_run.add_argument("file", metavar="FILE")
    nfa_run.add_argument("--state", required=True)
    nfa_run.add_argument("--word", required=True)
    nfa_run.set_defaults(func=cmd_nfa_run)
    nfa_derivs = nfa_sub.add_parser(
        "derivations", help="all derivations of a state spelling a word"
    )
    nfa_derivs.add_argument("file", metavar="FILE")
    nfa_derivs.add_argument("--state", required=True)
    nfa_derivs.add_argument("--word", required=True)
    nfa_derivs.add_argument("--latex", action="store_true")
    nfa_derivs.set_defaults(func=cmd_nfa_derivations)
    nfa_rules = nfa_sub.add_parser(
        "rules", help="print the compiled rules and the erasure table"
    )
    nfa_rules.add_argument("file", metavar="FILE")
    nfa_rules.set_defaults(func=cmd_nfa_rules)

    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, print the outcome and return its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 2
    try:
        code, lines = args.func(args)
    except ParseError as err:
        print(f"syntax error: {err}", file=sys.stderr)
        return 2
    except DecodeError as err:
        print(f"decode error: {err}")
        return 1
    except IllFormed as err:
        print(f"ill-formed at {format_path(err.path)}")
        return 1
    except Rejected as err:
        print(f"rejected {err}")
        return 1
    except ResourceLimit as err:
        print(str(err), file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(str(err), file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return code


def main():
    sys.exit(run(sys.argv[1:]))
