import os
import subprocess
import sys
from pathlib import Path

import pytest

import ruletrees
from ruletrees.cli import run

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


def test_infer_with_compiled_nfa(capsys, parity_file):
    code, out, _ = invoke(capsys, "infer", "--system", parity_file, "a1(a2(a1(eps1)))")
    assert (code, out) == (0, "odd\n")


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


# ------------------------------------------------------------------- plumbing

def test_usage_errors(capsys):
    assert invoke(capsys, "bogus")[0] == 2
    assert invoke(capsys)[0] == 2
    assert invoke(capsys, "even")[0] == 2
    assert invoke(capsys, "--help")[0] == 0


def test_missing_at_file(capsys):
    code, _, err = invoke(capsys, "infer", "--system", "even", "@/no/such/tree")
    assert code == 2


def test_module_entry_point():
    # the child imports the same ruletrees as this process, installed or not
    src = str(Path(ruletrees.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "ruletrees", "even", "iterate", "--steps", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert result.stdout == "{0, 2}\n"


def test_member_output_reparses_and_infers(capsys):
    _, printed, _ = invoke(capsys, "even", "member", "8", "--depth", "5")
    code, out, _ = invoke(capsys, "infer", "--system", "even", printed.strip())
    assert (code, out) == (0, "8\n")
