"""Command-line front end.

Written @FILE, the tree (`infer`), term (`natded check`, `convert`) and
program (`recfun eval`, `godel`, `diagonal`) are read from that file.
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
    input nested too deeply to process: RecursionError     stderr  1
      on the retry, past about MAX_DEPTH levels
    syntax error: ..., an automaton's duplicate or invalid stderr  2
      rule name; usage, @FILE or file errors, unknown
      state or letter, eval arity, diagonal oracle

`run` decides every outcome.  A handler returns its exit code and its
stdout lines and prints nothing, so nothing reaches stdout before a
command has its whole output.  A handler that raises RecursionError in
a walk that recurses per level runs once more on a worker thread whose
stack and recursion limit fit `MAX_DEPTH` levels, with the same outcomes.

`COMMANDS` is the one table of commands.  `build_parser` builds argparse's
parser from it.  `_read_argv` reads a plainly well-formed argv by it into
the namespace argparse would return, without importing argparse; at
anything irregular it returns None, and only then does `run` build the
parser, so argparse writes every help, usage and error text.  Handlers
import `engine` and the instance modules, so a command loads only those
it runs.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

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


# The nesting depth, in levels of a natded term, a sequent file or a program
# text, that the retry on a large stack (`_on_a_large_stack`) is sized for.
MAX_DEPTH = 10_000


def read_arg(text: str) -> str:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            return handle.read()
    return text


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        import argparse
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        import argparse
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _full_label_latex(label) -> tuple[str, str]:
    """LaTeX (conclusion, rule name) of an (element, rule name) label:
    a trailing number becomes a subscript, and eps becomes epsilon."""
    from .engine import render_element
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
        from .engine import even_numbers
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
    from . import engine
    elements, _ = engine.iterate(engine.even_numbers(), args.steps)
    return 0, [engine.render_set(elements)]


def cmd_even_member(args) -> tuple[int, list[str]]:
    from . import engine
    witness = engine.member(engine.even_numbers(), args.n, args.depth)
    if witness is None:
        return 1, [f"not found within depth {args.depth}"]
    if args.latex:
        return 0, _latex([witness])
    return 0, [print_name_tree(engine.erase_elements(witness))]


def cmd_infer(args) -> tuple[int, list[str]]:
    from . import engine
    system = _load_system(args.system)
    tree = parse_name_tree(read_arg(args.tree))
    full = engine.infer_full_tree(system, tree)
    if args.latex:
        return 0, _latex([full])
    return 0, [engine.render_element(full.label[0])]


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
        from . import engine
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


# ---------------------------------------------------------------- the table

NAT, POSITIVE, REQUIRED = {"type": _nonneg}, {"type": _positive}, {"required": True}
FLAG, FUEL, FILE = {"action": "store_true"}, {**POSITIVE, "default": 10000}, {"metavar": "FILE"}

GROUP_HELP = {
    "even": "the two-rule system for the even naturals",
    "natded": "natural deduction for /\\ and =>",
    "recfun": "recursive functions over the naturals",
    "nfa": "finite automata as rule systems",
}

# command words -> (help, handler, {argument or --option: `add_argument` keywords}),
# in the order of the help and of argparse's list of missing arguments
COMMANDS = {
    ("even", "iterate"): ("print the i-th closure layer", cmd_even_iterate,
                          {"--steps": {**NAT, **REQUIRED}}),
    ("even", "member"): ("search for a derivation of N", cmd_even_member,
                         {"n": NAT, "--depth": {**POSITIVE, **REQUIRED}, "--latex": FLAG}),
    ("infer",): ("run a name-labeled tree to its conclusion", cmd_infer, {
        "--system": {**REQUIRED, "metavar": "even|FILE.nfa"}, "tree": {}, "--latex": FLAG}),
    ("natded", "check"): ("check a proof and print its sequent", cmd_natded_check, {
        "--form": {**REQUIRED, "choices": ("scheme", "var", "sequent")},
        "term": {"metavar": "TERM_OR_FILE"}, "--latex": FLAG}),
    ("natded", "convert"): ("convert between proof-term forms", cmd_natded_convert, {
        "--to": {**REQUIRED, "choices": ("var", "scheme")}, "term": {"metavar": "TERM"}}),
    ("recfun", "eval"): ("run a program under a fuel budget", cmd_recfun_eval, {
        "program": {"metavar": "PROG"}, "args": {**NAT, "metavar": "N", "nargs": "*"},
        "--fuel": FUEL}),
    ("recfun", "godel"): ("print the code of a program", cmd_recfun_godel,
                          {"program": {"metavar": "PROG"}}),
    ("recfun", "ungodel"): ("decode a program from its code", cmd_recfun_ungodel,
                            {"code": {**NAT, "metavar": "CODE"}}),
    ("recfun", "diagonal"): ("build the program that diagonalizes a binary oracle",
                             cmd_recfun_diagonal, {"program": {"metavar": "HPROG"},
                                                   "--self-apply": FLAG, "--fuel": FUEL}),
    ("nfa", "run"): ("does the automaton accept the word?", cmd_nfa_run,
                     {"file": FILE, "--state": REQUIRED, "--word": REQUIRED}),
    ("nfa", "derivations"): ("all derivations of a state spelling a word", cmd_nfa_derivations, {
        "file": FILE, "--state": REQUIRED, "--word": REQUIRED, "--latex": FLAG}),
    ("nfa", "rules"): ("print the compiled rules and the erasure table", cmd_nfa_rules,
                       {"file": FILE}),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="ruletrees", description="rule systems, derivation trees, and three worked instances")
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, (summary, handler, arguments) in COMMANDS.items():
        if len(words) == 1:
            leaf = commands.add_parser(words[0], help=summary)
        else:
            if words[0] not in groups:
                group = commands.add_parser(words[0], help=GROUP_HELP[words[0]])
                groups[words[0]] = group.add_subparsers(dest="subcommand", required=True)
            leaf = groups[words[0]].add_parser(words[1], help=summary)
        for name, keywords in arguments.items():
            leaf.add_argument(name, **keywords)
        leaf.set_defaults(func=handler)
    return parser


def _typed(keywords: dict, text: str):
    value = keywords.get("type", str)(text)
    if value not in keywords.get("choices", (value,)):
        raise ValueError(f"invalid choice: {value!r}")
    return value


def _read_argv(argv) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, read by the
    table, or None at anything irregular: help, `--`, `--opt=value`, an
    abbreviated, repeated or missing option, any other token or option value
    that starts with `-`, a value its type or choices reject, a wrong count
    of positionals, or positionals split by an option."""
    words = tuple(argv[:1]) if tuple(argv[:1]) in COMMANDS else tuple(argv[:2])
    if words not in COMMANDS:
        return None
    _, handler, arguments = COMMANDS[words]
    given, texts, split = {}, [], False
    tokens = iter(argv[len(words):])
    for token in tokens:
        if not token.startswith("-"):
            if split:  # argparse's answer here differs between versions
                return None
            texts.append(token)
            continue
        if token not in arguments or token in given:
            return None
        given[token] = "" if arguments[token] is FLAG else next(tokens, "-")
        if given[token].startswith("-"):
            return None
        split = bool(texts)
    values = dict(zip(("command", "subcommand"), words), func=handler)
    try:
        for name, keywords in arguments.items():
            dest = name.lstrip("-").replace("-", "_")
            if keywords.get("nargs") == "*":
                values[dest], texts = [_typed(keywords, text) for text in texts], []
            elif not name.startswith("-"):
                if not texts:
                    return None
                values[dest] = _typed(keywords, texts.pop(0))
            elif name in given:
                values[dest] = keywords is FLAG or _typed(keywords, given[name])
            elif keywords.get("required"):
                return None
            else:
                values[dest] = False if keywords is FLAG else keywords.get("default")
    except Exception:  # argparse reports whatever a type or choice rejects
        return None
    return None if texts else SimpleNamespace(**values)


def run(argv=None) -> int:
    """Parse arguments, dispatch, print the outcome and return its exit code."""
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits 0 after help, 2 on a usage error
            return exc.code
    try:
        try:
            code, lines = args.func(args)
        except RecursionError:
            code, lines = _on_a_large_stack(args.func, args)
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
    except RecursionError:
        print("input nested too deeply to process", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return code


def _on_a_large_stack(handler, args) -> tuple[int, list[str]]:
    """`handler(args)` run on one worker thread with a 512 MiB stack and a
    recursion limit of 20 * MAX_DEPTH; it returns or raises what the handler
    did.  Both settings are the process's, so both are restored before it
    returns: `run` is also called in process."""
    import threading
    from concurrent.futures import ThreadPoolExecutor

    limit, size = sys.getrecursionlimit(), threading.stack_size(512 * 2**20)
    sys.setrecursionlimit(20 * MAX_DEPTH)
    try:
        with ThreadPoolExecutor(1) as pool:
            return pool.submit(handler, args).result()
    finally:
        threading.stack_size(size)
        sys.setrecursionlimit(limit)


def main():
    sys.exit(run(sys.argv[1:]))
