"""The `check` workload: seeded single-job user tasks on every instance.

natded proofs are parsed, checked or converted, and printed; recfun
programs are evaluated under fuel (a small reused library, and one-off
random programs with print/parse and numbering round trips); name trees
on `even` and on compiled automata are parsed, inferred, checked and
printed; automata answer `recognizes` and `derivations_of`.  No op runs
a closure search.  A fixed share of ops is nested deeper than the
recursive walkers of the library handle at the commit this benchmark
was written against; they are expected to fail there.
"""

from __future__ import annotations

import random
from typing import Iterator

import instances as inst
from harness import Op, apportion, counted_system, stratified

OPS_PER_SECOND = 2500  # see closure_ops.OPS_PER_SECOND

MIX = (
    ("natded.check.scheme", 0.08),
    ("natded.check.var", 0.08),
    ("natded.check.sequent", 0.08),
    ("natded.convert.var", 0.08),
    ("natded.convert.scheme", 0.08),
    ("recfun.library", 0.12),
    ("recfun.oneoff", 0.12),
    ("trees.even", 0.10),
    ("trees.nfa", 0.08),
    ("automata", 0.155),
)
DEEP_EVERY = 40  # one op in DEEP_EVERY is over-deep
# (kind, nesting): name trees of 401, 601 and 1201 levels pass the
# printer's (333), inference's (497) and the parser's (990) limits; the
# natded term nests 1402 deep.
DEEP_VARIANTS = (("deep.even", 400), ("deep.even", 600), ("deep.even", 1200), ("deep.natded", 700))

LIBRARY = {"ADD": inst.ADD, "MUL": inst.MUL, "ADD_TWO": inst.ADD_TWO}
LIBRARY_FUEL = 1_000_000
ONEOFF_FUEL = 2_000
CODE_BITS_CAP = 1_024  # bounds godel round trips; deep random programs reach Mbit codes
RUNS_CAP = 60  # accepting runs of one derivations_of call
MAX_WORD = 14
AUTOMATA = 200  # ops draw their automaton from a pool of this many


def plan(seed: int, count: int) -> list[str]:
    deep = max(1, count // DEEP_EVERY)
    kinds = [DEEP_VARIANTS[i % len(DEEP_VARIANTS)][0] + f":{i % len(DEEP_VARIANTS)}" for i in range(deep)]
    kinds += apportion(MIX, count - deep)
    random.Random(f"check-plan:{seed}").shuffle(kinds)
    return kinds


def draw_setup(seed: int, count: int) -> list:
    """The automata the ops share, built once in set-up."""
    rng = random.Random(f"check-automata:{seed}")
    return [inst.gen_nfa(rng) for _ in range(AUTOMATA)]


def build_env(automata_specs: list, modules: dict, counter: list | None) -> dict:
    """Set-up: the `even` system, every compiled automaton and the library programs."""
    engine, automata, recfun = modules["engine"], modules["automata"], modules["recfun"]
    env = {("even",): counted_system(engine, engine.even_numbers(), counter)}
    for index, (states, letters, transitions, finals) in enumerate(automata_specs):
        nfa = automata.Nfa(
            frozenset(states), frozenset(letters), frozenset(transitions), frozenset(finals)
        )
        env[("nfa", index)] = (nfa, counted_system(engine, automata.compile_nfa(nfa).system, counter))
    for name, program in LIBRARY.items():
        env[("lib", name)] = to_program(recfun, program)
    return env


def to_program(recfun, p):
    tag = p[0]
    if tag == "zero":
        return recfun.Zero(p[1])
    if tag == "succ":
        return recfun.Succ()
    if tag == "proj":
        return recfun.Proj(p[1], p[2])
    if tag == "comp":
        return recfun.Comp(to_program(recfun, p[1]), tuple(to_program(recfun, g) for g in p[2]))
    if tag == "rec":
        return recfun.Rec(to_program(recfun, p[1]), to_program(recfun, p[2]))
    return recfun.Mu(to_program(recfun, p[1]))


# -------------------------------------------------------------------- natded


def natded_op(kind: str, index: int, node) -> Op:
    concl = inst.sequent_text((), node[1])
    counts = {"natded.nodes": inst.proof_size(node)}
    form = kind.rsplit(".", 1)[1]
    if kind.startswith("natded.check"):
        if form == "sequent":
            text = inst.sequent_deriv_text(node)

            def call(lib, env):
                deriv = lib.parse_sequent_deriv(text)
                lib.check_sequent_deriv(deriv)
                return lib.print_sequent(deriv.label[0])

            expected = concl
        else:
            text = inst.scheme_text(node) if form == "scheme" else inst.var_text(node)
            check_fn = "scheme_sequent_tree" if form == "scheme" else "var_sequent_tree"

            def call(lib, env):
                term = lib.parse_term(text, form)
                tree = getattr(lib, check_fn)(term)
                return lib.print_sequent(tree.label[0]), lib.print_term(term)

            expected = (concl, text)
    else:
        if form == "var":  # scheme -> var
            source, target, source_form, convert = (
                inst.scheme_text(node), inst.scheme_to_var_text(node), "scheme", "scheme_to_var"
            )
        else:
            source, target, source_form, convert = (
                inst.var_text(node), inst.scheme_text(node), "var", "var_to_scheme"
            )

        def call(lib, env):
            term = lib.parse_term(source, source_form)
            return lib.print_term(getattr(lib, convert)(term))

        expected = target
    return Op(kind, "natded", ("natded", index), call, lambda out: out == expected, counts)


def deep_natded_op(index: int, levels: int) -> Op:
    text, nodes = inst.deep_scheme_text(levels)
    expected = ("|- P => P", text)

    def call(lib, env):
        term = lib.parse_term(text, "scheme")
        tree = lib.scheme_sequent_tree(term)
        return lib.print_sequent(tree.label[0]), lib.print_term(term)

    return Op("deep.natded", "natded", ("natded", index), call, lambda out: out == expected, {"natded.nodes": nodes})


# -------------------------------------------------------------------- recfun


def library_op(rng: random.Random, references: dict) -> Op:
    name = rng.choice(sorted(LIBRARY))
    if name == "ADD_TWO":
        args = (rng.randint(0, 10**6),)
    elif name == "ADD":
        args = (rng.randint(0, 400), rng.randint(0, 400))
    else:
        args = (rng.randint(1, 20), rng.randint(1, 20))
    if (name, args) not in references:
        references[name, args] = inst.ref_eval(LIBRARY[name], args, LIBRARY_FUEL)
    value, fuel = references[name, args]
    if name == "MUL" and value != args[0] * args[1]:
        raise RuntimeError(f"reference interpreter: MUL{args} gave {value}")
    key = ("lib", name)
    return Op(
        "recfun.library",
        "recfun",
        key,
        lambda lib, env: lib.evaluate(env[key], args, LIBRARY_FUEL),
        lambda out: out == value,
        {"recfun.fuel": fuel},
    )


def oneoff_op(rng: random.Random, index: int) -> Op:
    while True:
        arity = rng.randint(0, 2)
        program = inst.gen_program(rng, arity, rng.randint(1, 3))
        code = inst.encode(program)
        if code.bit_length() <= CODE_BITS_CAP:
            break
    text = inst.program_text(program)
    args = tuple(rng.randint(0, 5) for _ in range(arity))
    value, fuel = inst.ref_eval(program, args, ONEOFF_FUEL)
    expected = (value, text, code, text)

    def call(lib, env):
        parsed = lib.parse_program(text)
        result = lib.evaluate(parsed, args, ONEOFF_FUEL)
        number = lib.godel(parsed)
        return result, lib.print_program(parsed), number, lib.print_program(lib.ungodel(number))

    return Op(
        "recfun.oneoff",
        "recfun",
        ("prog", index),
        call,
        lambda out: out == expected,
        {"recfun.fuel": fuel, "recfun.code_bits": code.bit_length()},
    )


# --------------------------------------------------------------- name trees


def tree_op(kind: str, key, text: str, conclusions: list[str], names: list[str]) -> Op:
    """parse -> infer -> check -> print and LaTeX for a chain-shaped name tree."""
    expected = (conclusions[0], text, inst.chain_latex(conclusions, names))

    def parts(label):
        return str(label[0]), label[1]

    def call(lib, env):
        system = env[key] if key == ("even",) else env[key][1]
        tree = lib.parse_name_tree(text)
        full = lib.infer_full_tree(system, tree)
        lib.check_full_tree(system, full)
        return str(full.label[0]), lib.print_name_tree(tree), lib.tree_to_latex(full, parts)

    return Op(kind, "trees", key, call, lambda out: out == expected, {"trees.nodes": len(names)})


def even_tree_op(kind: str, levels: int) -> Op:
    names = ["f2"] * levels + ["f1"]
    conclusions = [str(2 * (levels - i)) for i in range(levels + 1)]
    return tree_op(kind, ("even",), inst.chain_text(names), conclusions, names)


def nfa_tree_op(rng: random.Random, index: int, nfa) -> Op:
    start, _, names = inst.sample_run(rng, nfa, rng.randint(3, 15))
    conclusions = inst.run_conclusions(nfa, start, names)
    return tree_op("trees.nfa", ("nfa", index), inst.chain_text(names), conclusions, names)


# ----------------------------------------------------------------- automata


def automata_op(rng: random.Random, index: int, nfa, target: int) -> Op:
    """recognizes and derivations_of on a word grown letter by letter until
    it has about `target` accepting runs (at most RUNS_CAP)."""
    state = rng.choice(nfa[0])
    word: tuple = ()
    while len(word) < MAX_WORD:
        longer = word + (rng.choice(inst.LETTERS),)
        if inst.count_runs(nfa, state, longer) > RUNS_CAP:
            break
        word = longer
        if inst.count_runs(nfa, state, word) >= target:
            break
    runs = inst.count_runs(nfa, state, word)
    texts = inst.run_texts(nfa, state, word)
    key = ("nfa", index)

    def call(lib, env):
        nfa_obj = env[key][0]
        derivations = lib.derivations_of(nfa_obj, state, word)
        return lib.recognizes(nfa_obj, state, word), [lib.print_name_tree(d) for d in derivations]

    expected = (runs > 0, texts)
    return Op("automata", "automata", key, call, lambda out: out == expected, {"automata.runs": runs})


def make_ops(seed: int, count: int) -> Iterator[Op]:
    rng = random.Random(f"check-ops:{seed}")
    automata = draw_setup(seed, count)
    library_references: dict = {}
    kinds = plan(seed, count)
    run_targets = iter(stratified(rng, kinds.count("automata") or 1, 0, RUNS_CAP))
    for index, kind in enumerate(kinds):
        if kind.startswith("deep."):
            deep_kind, levels = DEEP_VARIANTS[int(kind.split(":")[1])]
            if deep_kind == "deep.even":
                yield even_tree_op(deep_kind, levels)
            else:
                yield deep_natded_op(index, levels)
        elif kind.startswith("natded"):
            yield natded_op(kind, index, inst.gen_proof(rng, (), rng.randint(2, 5)))
        elif kind == "recfun.library":
            yield library_op(rng, library_references)
        elif kind == "recfun.oneoff":
            yield oneoff_op(rng, index)
        elif kind == "trees.even":
            yield even_tree_op(kind, rng.randint(5, 60))
        elif kind == "trees.nfa":
            pick = rng.randrange(AUTOMATA)
            yield nfa_tree_op(rng, pick, automata[pick])
        else:
            pick = rng.randrange(AUTOMATA)
            yield automata_op(rng, pick, automata[pick], next(run_targets))
