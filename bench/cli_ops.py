"""The `cli` workload: one `python -m ruletrees ...` process at a time.

Every subcommand appears with small inputs; stdout and the exit code of
each command are checked against outputs built by the benchmark.  A
fixed share of commands nests deeper than the library's recursive
walkers handle at the commit this benchmark was written against.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import instances as inst
from harness import Op

OPS_PER_SECOND = 9  # see closure_ops.OPS_PER_SECOND
DEEP_EVERY = 25  # one command in DEEP_EVERY is over-deep
CHILD_TIMEOUT_S = 60

LATEX_PREAMBLE = (
    "% requires amsmath and:\n"
    "% \\newcommand{\\irule}[3]{\\dfrac{#1}{#2}\\;{\\scriptstyle #3}}"
)

TEMPLATES = (
    "even.iterate",
    "even.member.found",
    "even.member.missing",
    "even.member.latex",
    "infer.even",
    "infer.nfa",
    "natded.check.scheme",
    "natded.check.var",
    "natded.check.sequent",
    "natded.convert.var",
    "natded.convert.scheme",
    "recfun.eval.library",
    "recfun.eval.oneoff",
    "recfun.godel",
    "recfun.ungodel",
    "recfun.diagonal",
    "nfa.run",
    "nfa.derivations",
    "nfa.derivations.latex",
    "nfa.rules",
)
# The three over-deep commands, each past one of the recursion limits
# measured at that commit: printing (333 levels), inference (497) and the
# natded parser (about 990).
DEEP = ("deep.member", "deep.infer", "deep.natded")

SETUP_ARGV = ("even", "member", "8", "--depth", "6")
SETUP_STDOUT = "f2(f2(f2(f2(f1))))\n"


class ChildCrashed(Exception):
    """The command ended in a traceback."""


def plan(seed: int, count: int) -> list[str]:
    deep = max(1, count // DEEP_EVERY)
    kinds = [DEEP[i % len(DEEP)] for i in range(deep)]
    kinds += [TEMPLATES[i % len(TEMPLATES)] for i in range(count - deep)]
    random.Random(f"cli-plan:{seed}").shuffle(kinds)
    return kinds


def latex_name(name: str) -> str:
    match = re.fullmatch(r"(.*?)(\d+)", name)
    base, sub = (match.group(1), match.group(2)) if match else (name, None)
    if base == "eps":
        base = "\\varepsilon"
    return f"{base}_{{{sub}}}" if sub else base


def latex_doc(bodies: list[str]) -> str:
    return LATEX_PREAMBLE + "\n" + "".join(f"$${body}$$\n" for body in bodies)


def even_chain(levels: int) -> tuple[list[str], list[str]]:
    names = ["f2"] * levels + ["f1"]
    return names, [str(2 * (levels - i)) for i in range(levels + 1)]


def chain_latex(conclusions, names) -> str:
    return inst.chain_latex(conclusions, [latex_name(n) for n in names])


class Workdir:
    """Input files the commands read, written under the checkout."""

    def __init__(self, path: Path):
        self.path = path
        self.count = 0

    def write(self, suffix: str, text: str) -> str:
        self.count += 1
        target = self.path / f"in{self.count}{suffix}"
        target.write_text(text, encoding="utf-8")
        return str(target)


def command(kind: str, rng: random.Random, files: Workdir) -> tuple[list[str], str, int, dict]:
    """(argv, expected stdout, expected exit code, work counts) for one command."""
    if kind == "even.iterate":
        steps = rng.randint(1, 60)
        rendered = ", ".join(sorted(str(2 * i) for i in range(steps)))
        return ["even", "iterate", "--steps", str(steps)], "{" + rendered + "}\n", 0, {}
    if kind in ("even.member.found", "even.member.latex", "deep.member"):
        levels = {"even.member.found": (1, 150), "even.member.latex": (1, 40)}.get(kind, (350, 350))
        k = rng.randint(*levels)
        names, conclusions = even_chain(k)
        argv = ["even", "member", str(2 * k), "--depth", str(k + 1 + rng.randint(0, 10))]
        if kind == "even.member.latex":
            return argv + ["--latex"], latex_doc([chain_latex(conclusions, names)]), 0, {}
        return argv, inst.chain_text(names) + "\n", 0, {"trees.nodes": k + 1}
    if kind == "even.member.missing":
        k = rng.randint(1, 150)
        if rng.random() < 0.5:
            n, depth = 2 * k + 1, k + 1
        else:
            n, depth = 2 * k, rng.randint(1, k)
        return ["even", "member", str(n), "--depth", str(depth)], f"not found within depth {depth}\n", 1, {}
    if kind in ("infer.even", "deep.infer"):
        k = rng.randint(1, 100) if kind == "infer.even" else 600
        names, _ = even_chain(k)
        return ["infer", "--system", "even", inst.chain_text(names)], f"{2 * k}\n", 0, {"trees.nodes": k + 1}
    if kind == "infer.nfa":
        nfa = inst.gen_nfa(rng)
        start, _, names = inst.sample_run(rng, nfa, rng.randint(1, 12))
        path = files.write(".nfa", inst.nfa_text(nfa))
        argv = ["infer", "--system", path, inst.chain_text(names)]
        counts = {"trees.nodes": len(names)}
        if rng.random() < 0.5:
            return argv, f"{start}\n", 0, counts
        body = chain_latex(inst.run_conclusions(nfa, start, names), names)
        return argv + ["--latex"], latex_doc([body]), 0, counts
    if kind.startswith("natded") or kind == "deep.natded":
        if kind == "deep.natded":
            text, nodes = inst.deep_scheme_text(700)
            return ["natded", "check", "--form", "scheme", text], "|- P => P\n", 0, {"natded.nodes": nodes}
        node = inst.gen_proof(rng, (), rng.randint(2, 5))
        counts = {"natded.nodes": inst.proof_size(node)}
        form = kind.rsplit(".", 1)[1]
        if kind == "natded.check.sequent":
            path = files.write(".deri", inst.sequent_deriv_text(node))
            argv = ["natded", "check", "--form", "sequent", "@" + path]
        elif kind.startswith("natded.check"):
            text = inst.scheme_text(node) if form == "scheme" else inst.var_text(node)
            argv = ["natded", "check", "--form", form, text]
        elif form == "var":
            argv = ["natded", "convert", "--to", "var", inst.scheme_text(node)]
            return argv, inst.scheme_to_var_text(node) + "\n", 0, counts
        else:
            argv = ["natded", "convert", "--to", "scheme", inst.var_text(node)]
            return argv, inst.scheme_text(node) + "\n", 0, counts
        return argv, inst.sequent_text((), node[1]) + "\n", 0, counts
    if kind.startswith("recfun"):
        return recfun_command(kind, rng)
    return nfa_command(kind, rng, files)


def small_program(rng: random.Random, arity: int):
    while True:
        program = inst.gen_program(rng, arity, rng.randint(1, 3))
        if inst.encode(program).bit_length() <= 1024:
            return program


def recfun_command(kind, rng):
    if kind == "recfun.eval.library":
        name, program = rng.choice((("ADD", inst.ADD), ("MUL", inst.MUL), ("ADD_TWO", inst.ADD_TWO)))
        args = (rng.randint(0, 50),) if name == "ADD_TWO" else (rng.randint(1, 12), rng.randint(1, 12))
        fuel = 1_000_000
    elif kind == "recfun.eval.oneoff":
        arity = rng.randint(0, 2)
        program = small_program(rng, arity)
        args, fuel = tuple(rng.randint(0, 5) for _ in range(arity)), 2_000
    if kind.startswith("recfun.eval"):
        value, spent = inst.ref_eval(program, args, fuel)
        argv = ["recfun", "eval", inst.program_text(program), *map(str, args), "--fuel", str(fuel)]
        if value is None:
            return argv, f"diverged (fuel {fuel})\n", 1, {"recfun.fuel": spent}
        return argv, f"value {value}\n", 0, {"recfun.fuel": spent}
    program = small_program(rng, rng.randint(0, 2))
    code = inst.encode(program)
    bits = {"recfun.code_bits": code.bit_length()}
    if kind == "recfun.godel":
        return ["recfun", "godel", inst.program_text(program)], f"{code}\n", 0, bits
    if kind == "recfun.ungodel":
        return ["recfun", "ungodel", str(code)], inst.program_text(program) + "\n", 0, bits
    oracle = small_program(rng, 2)
    diagonal = inst.diagonal_of(oracle)
    argv = ["recfun", "diagonal", inst.program_text(oracle)]
    stdout = inst.program_text(diagonal) + "\n"
    if rng.random() < 0.5:
        return argv, stdout, 0, {}
    fuel = 2_000
    value, spent = inst.ref_eval(diagonal, (inst.encode(diagonal),), fuel)
    argv += ["--self-apply", "--fuel", str(fuel)]
    if value is None:
        return argv, stdout + f"diverged (fuel {fuel})\n", 1, {"recfun.fuel": spent}
    return argv, stdout + f"value {value}\n", 0, {"recfun.fuel": spent}


def nfa_command(kind, rng, files):
    nfa = inst.gen_nfa(rng)
    path = files.write(".nfa", inst.nfa_text(nfa))
    if kind == "nfa.rules":
        edges, eps = inst.rule_names(nfa)
        lines = [f"{name}: {premise} -> {conclusion}" for name, _, premise, conclusion in edges]
        lines += [f"{name}: () -> {state}" for name, state in eps]
        lines += [f"erase {name} = {letter}" for name, letter, _, _ in edges]
        lines += [f'erase {name} = ""' for name, _ in eps]
        return ["nfa", "rules", path], "\n".join(lines) + "\n", 0, {}
    state = rng.choice(nfa[0])
    word = tuple(rng.choice(inst.LETTERS) for _ in range(rng.randint(1, 10)))
    while inst.count_runs(nfa, state, word) > 40:
        word = word[:-1]
    runs = inst.count_runs(nfa, state, word)
    argv = ["nfa", kind.split(".")[1], path, "--state", state, "--word", "".join(word)]
    counts = {"automata.runs": runs}
    if kind == "nfa.run":
        return argv, "recognized\n" if runs else "not recognized\n", 0 if runs else 1, counts
    texts = inst.run_texts(nfa, state, word)
    if kind == "nfa.derivations":
        return argv, "".join(t + "\n" for t in texts), 0 if runs else 1, counts
    if not texts:
        return argv + ["--latex"], "", 1, counts
    bodies = []
    for text in texts:
        names = text.replace(")", "").split("(")
        bodies.append(chain_latex(inst.run_conclusions(nfa, state, names), names))
    return argv + ["--latex"], latex_doc(bodies), 0, counts


def make_ops(seed: int, count: int, files: Workdir) -> Iterator[Op]:
    rng = random.Random(f"cli-ops:{seed}")
    for index, kind in enumerate(plan(seed, count)):
        argv, stdout, code, counts = command(kind, rng, files)
        expected = (stdout, code)
        yield Op(
            kind,
            "cli",
            ("cli", index),
            lambda lib, env, argv=argv: env["run"](lib, argv),
            lambda out, expected=expected: out == expected,
            counts,
        )


# ------------------------------------------------------------------ runners


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, cwd: Path, env: dict) -> tuple[str, int]:
    """One `python -m ruletrees` process, waited for; a traceback is a crash."""
    done = subprocess.run(
        [sys.executable, "-m", "ruletrees", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if "Traceback (most recent call last)" in done.stderr:
        raise ChildCrashed(done.stderr.strip().splitlines()[-1])
    return done.stdout, done.returncode


def run_in_process(lib, argv) -> tuple[str, int]:
    """`cli.run(argv)` in this process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.run(list(argv))
    return out.getvalue(), code
