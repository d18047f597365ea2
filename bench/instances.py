"""Seeded inputs for the closure workload's rule tables and for the three
instances, with reference outputs computed without ruletrees.

Rule tables, propositions, proofs, programs and automata are plain tuples
here.  Closures over rule tables come from a worklist that fires table
entries; the printers follow the documented text forms; the recfun
interpreter and numbering follow the documented semantics and fuel rule;
run counts come from path counting over the transition relation.
"""

from __future__ import annotations

import random

# -------------------------------------------------------------------- closure


def gen_table_system(rng: random.Random) -> tuple:
    """(domain size, rules) with rules as (name, arity, value or table).

    A unary chain through part of the domain keeps every closure from
    dying after one layer; a sparse unary and a sparse binary table add
    shortcuts and branching.
    """
    size = rng.randint(30, 60)
    order = list(range(size))
    rng.shuffle(order)
    chain = order[: rng.randint(size // 2, size)]
    return size, (
        ("c0", 0, chain[0]),
        ("u0", 1, {(a,): b for a, b in zip(chain, chain[1:])}),
        ("u1", 1, {(a,): rng.randrange(size) for a in range(size) if rng.random() < 0.3}),
        (
            "b0",
            2,
            {
                (a, b): rng.randrange(size)
                for a in range(size)
                for b in range(size)
                if rng.random() < 0.02
            },
        ),
    )


def table_heights(rules: tuple) -> dict:
    """Layer at which each element first appears: a worklist closure that
    fires every table entry once all of its arguments are known."""
    heights = {}
    entries = []
    for _, arity, data in rules:
        if arity == 0:
            entries.append(((), data))
        else:
            entries.extend(data.items())
    layer = 0
    while True:
        layer += 1
        known = set(heights)
        fresh = {
            result
            for args, result in entries
            if result not in known and all(a in known for a in args)
        }
        if not fresh:
            return heights
        for element in fresh:
            heights[element] = layer


# --------------------------------------------------------------------- natded

ATOMS = ("P", "Q", "R")
NAMES = ("x", "y", "z")
AND, IMP = "/\\", "=>"


def gen_prop(rng: random.Random, depth: int = 2):
    if depth == 0 or rng.random() < 0.5:
        return rng.choice(ATOMS)
    return (rng.choice((AND, IMP)), gen_prop(rng, depth - 1), gen_prop(rng, depth - 1))


def prop_text(prop) -> str:
    """Minimal parentheses: `/\\` binds tighter than `=>`, both associate right."""
    if isinstance(prop, str):
        return prop
    op, left, right = prop
    left_text, right_text = prop_text(left), prop_text(right)
    if op == AND:
        if not isinstance(left, str):
            left_text = f"({left_text})"
        if not isinstance(right, str) and right[0] == IMP:
            right_text = f"({right_text})"
        return f"{left_text} /\\ {right_text}"
    if not isinstance(left, str) and left[0] == IMP:
        left_text = f"({left_text})"
    return f"{left_text} => {right_text}"


def sequent_text(ctx, concl) -> str:
    if not ctx:
        return f"|- {prop_text(concl)}"
    return ", ".join(sorted(prop_text(p) for p in ctx)) + f" |- {prop_text(concl)}"


# A proof node is (kind, conclusion, ...):
#   ("hyp", A, name)            the innermost binder called `name`, which proves A
#   ("lam", A => B, name, A, body)
#   ("pair", A /\ B, left, right)
#   ("fst", A, body) / ("snd", B, body) with body proving A /\ B


def gen_proof(rng: random.Random, binders: tuple = (), depth: int = 3):
    """A closed, checking proof with named binders (shadowing allowed)."""
    choices = []
    visible = _visible(binders)
    if visible:
        choices.append("hyp")
    if depth > 0:
        choices += ["lam", "lam", "pair", "fst", "snd"]
    pick = rng.choice(choices or ["lam"])
    if pick == "hyp":
        name = rng.choice(sorted(visible))
        return ("hyp", visible[name], name)
    if pick == "lam":
        name, ann = rng.choice(NAMES), gen_prop(rng)
        body = gen_proof(rng, binders + ((name, ann),), max(depth - 1, 0))
        return ("lam", (IMP, ann, body[1]), name, ann, body)
    if pick == "pair":
        left = gen_proof(rng, binders, depth - 1)
        right = gen_proof(rng, binders, depth - 1)
        return ("pair", (AND, left[1], right[1]), left, right)
    body = _gen_conjunction(rng, binders, depth - 1)
    return (pick, body[1][1] if pick == "fst" else body[1][2], body)


def _visible(binders: tuple) -> dict:
    visible = {}
    for name, prop in binders:
        visible[name] = prop
    return visible


def _gen_conjunction(rng, binders, depth):
    visible = _visible(binders)
    conjs = sorted(n for n, p in visible.items() if not isinstance(p, str) and p[0] == AND)
    if conjs and (depth <= 0 or rng.random() < 0.5):
        name = rng.choice(conjs)
        return ("hyp", visible[name], name)
    d = max(depth - 1, 0)
    left, right = gen_proof(rng, binders, d), gen_proof(rng, binders, d)
    return ("pair", (AND, left[1], right[1]), left, right)


def proof_size(node) -> int:
    kind = node[0]
    if kind == "hyp":
        return 1
    if kind == "lam":
        return 1 + proof_size(node[4])
    if kind == "pair":
        return 1 + proof_size(node[2]) + proof_size(node[3])
    return 1 + proof_size(node[2])


def scheme_text(node) -> str:
    kind = node[0]
    if kind == "hyp":
        return f"hyp [{prop_text(node[1])}]"
    if kind == "lam":
        return f"fun [{prop_text(node[3])}] {scheme_text(node[4])}"
    if kind == "pair":
        return f"<{scheme_text(node[2])}, {scheme_text(node[3])}>"
    return f"{kind}({scheme_text(node[2])})"


def var_text(node) -> str:
    kind = node[0]
    if kind == "hyp":
        return node[2]
    if kind == "lam":
        return f"fun {node[2]} : {prop_text(node[3])} . {var_text(node[4])}"
    if kind == "pair":
        return f"<{var_text(node[2])}, {var_text(node[3])}>"
    return f"{kind}({var_text(node[2])})"


def scheme_to_var_text(node) -> str:
    """Binders renamed x1, x2, ... in preorder; a hypothesis names the
    innermost binder annotated with its proposition."""
    counter = [0]

    def go(n, binders):
        kind = n[0]
        if kind == "hyp":
            return next(name for name, prop in reversed(binders) if prop == n[1])
        if kind == "lam":
            counter[0] += 1
            name = f"x{counter[0]}"
            body = go(n[4], binders + ((name, n[3]),))
            return f"fun {name} : {prop_text(n[3])} . {body}"
        if kind == "pair":
            left = go(n[2], binders)
            return f"<{left}, {go(n[3], binders)}>"
        return f"{kind}({go(n[2], binders)})"

    return go(node, ())


RULE_OF = {"hyp": "axiom", "lam": "imp-intro", "pair": "and-intro", "fst": "and-elim1", "snd": "and-elim2"}


def sequent_deriv_text(node) -> str:
    """The indented sequent-derivation file form, every node tagged."""
    lines = []

    def emit(n, ctx, level):
        lines.append("  " * level + sequent_text(ctx, n[1]) + f"  [{RULE_OF[n[0]]}]")
        if n[0] == "lam":
            emit(n[4], ctx | {n[3]}, level + 1)
        elif n[0] == "pair":
            emit(n[2], ctx, level + 1)
            emit(n[3], ctx, level + 1)
        elif n[0] != "hyp":
            emit(n[2], ctx, level + 1)

    emit(node, frozenset(), 0)
    return "\n".join(lines) + "\n"


def deep_scheme_text(levels: int) -> tuple[str, int]:
    """`fun [P] fst(<fst(<... hyp [P] ..., hyp [P]>)...>, hyp [P]>)`, which
    proves P => P and nests 2 * levels + 2 terms deep; and its node count."""
    text = "fun [P] " + "fst(<" * levels + "hyp [P]" + ", hyp [P]>)" * levels
    return text, 2 + 3 * levels


# --------------------------------------------------------------------- recfun

ADD = ("rec", ("proj", 1, 1), ("comp", ("succ",), (("proj", 3, 2),)))
# multiplication by recursion whose step adds by recursion on the accumulator
MUL = ("rec", ("zero", 1), ("comp", ADD, (("proj", 3, 2), ("proj", 3, 3))))
ADD_TWO = ("comp", ("succ",), (("succ",),))


def gen_program(rng: random.Random, arity: int, depth: int):
    options = ["zero"]
    if arity >= 1:
        options.append("proj")
    if arity == 1:
        options.append("succ")
    if depth > 0:
        options += ["comp", "comp", "mu"]
        if arity >= 1:
            options.append("rec")
    pick = rng.choice(options)
    if pick == "zero":
        return ("zero", arity)
    if pick == "succ":
        return ("succ",)
    if pick == "proj":
        return ("proj", arity, rng.randint(1, arity))
    if pick == "comp":
        width = rng.randint(1, 3)
        outer = gen_program(rng, width, depth - 1)
        return ("comp", outer, tuple(gen_program(rng, arity, depth - 1) for _ in range(width)))
    if pick == "rec":
        return ("rec", gen_program(rng, arity - 1, depth - 1), gen_program(rng, arity + 1, depth - 1))
    return ("mu", gen_program(rng, arity + 1, depth - 1))


def program_text(p) -> str:
    tag = p[0]
    if tag == "zero":
        return f"zero^{p[1]}"
    if tag == "succ":
        return "succ"
    if tag == "proj":
        return f"proj^{p[1]}_{p[2]}"
    if tag == "comp":
        inner = ", ".join(program_text(g) for g in p[2])
        return f"comp({program_text(p[1])}; {inner})"
    if tag == "rec":
        return f"rec({program_text(p[1])}, {program_text(p[2])})"
    return f"mu({program_text(p[1])})"


def _pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


TAGS = {"zero": 0, "succ": 1, "proj": 2, "comp": 3, "rec": 4, "mu": 5}


def encode(p) -> int:
    """The documented numbering: tag paired with a payload; composition
    lists are length-prefixed, right-nested pairs."""
    tag = p[0]
    if tag == "zero":
        payload = p[1]
    elif tag == "succ":
        payload = 0
    elif tag == "proj":
        payload = _pair(p[1], p[2])
    elif tag == "comp":
        nested = encode(p[2][-1])
        for g in reversed(p[2][:-1]):
            nested = _pair(encode(g), nested)
        payload = _pair(encode(p[1]), _pair(len(p[2]), nested))
    elif tag == "rec":
        payload = _pair(encode(p[1]), encode(p[2]))
    else:
        payload = encode(p[1])
    return _pair(TAGS[tag], payload)


class _OutOfFuel(Exception):
    pass


def ref_eval(p, args: tuple, fuel: int) -> tuple[int | None, int]:
    """(value or None when fuel runs out, fuel spent).  One unit per
    composition entry, per recursion entry and unfolding, per
    minimization entry and probe; base functions are free."""
    left = [fuel]

    def charge():
        if left[0] <= 0:
            raise _OutOfFuel
        left[0] -= 1

    def ev(p, args):
        tag = p[0]
        if tag == "zero":
            return 0
        if tag == "succ":
            return args[0] + 1
        if tag == "proj":
            return args[p[2] - 1]
        if tag == "comp":
            charge()
            return ev(p[1], tuple(ev(g, args) for g in p[2]))
        if tag == "rec":
            charge()
            acc = ev(p[1], args[1:])
            for j in range(args[0]):
                charge()
                acc = ev(p[2], (j, acc) + args[1:])
            return acc
        charge()
        y = 0
        while True:
            charge()
            if ev(p[1], args + (y,)) == 0:
                return y
            y += 1

    try:
        return ev(p, tuple(args)), fuel - left[0]
    except _OutOfFuel:
        return None, fuel


def diagonal_of(oracle):
    return ("comp", ("mu", ("proj", 2, 1)), (("comp", oracle, (("proj", 1, 1), ("proj", 1, 1))),))


# ------------------------------------------------------------------- automata

LETTERS = ("a", "b")


def gen_nfa(rng: random.Random) -> tuple:
    """(states, letters, transitions, finals): an ambiguous automaton in
    which every state steps into a final state, so it accepts some word
    of every positive length from every state."""
    states = tuple(f"s{i}" for i in range(rng.randint(2, 4)))
    finals = tuple(s for s in states if rng.random() < 0.5) or (rng.choice(states),)
    transitions = {
        (s, a, t) for s in states for a in LETTERS for t in states if rng.random() < 0.5
    }
    transitions |= {(s, rng.choice(LETTERS), rng.choice(finals)) for s in states}
    return states, LETTERS, frozenset(transitions), finals


def nfa_text(nfa) -> str:
    states, letters, transitions, finals = nfa
    lines = [f"state {s}" for s in states] + [f"letter {a}" for a in letters]
    lines += [f"final {s}" for s in finals]
    lines += [f"trans {s} {a} {t}" for s, a, t in sorted(transitions)]
    return "\n".join(lines) + "\n"


def rule_names(nfa) -> tuple[list, list]:
    """Letter rules as (name, letter, premise, conclusion): per letter,
    sorted by (premise, conclusion) and numbered from 1; final rules
    eps1, eps2, ... in state-name order as (name, state)."""
    _, letters, transitions, finals = nfa
    edges = []
    for letter in sorted(letters):
        pairs = sorted((t, s) for s, a, t in transitions if a == letter)
        edges += [(f"{letter}{k}", letter, t, s) for k, (t, s) in enumerate(pairs, start=1)]
    eps = [(f"eps{j}", s) for j, s in enumerate(sorted(finals), start=1)]
    return edges, eps


def count_runs(nfa, state: str, word: tuple) -> int:
    """Accepting runs from `state` over `word`, by path counting."""
    _, _, transitions, finals = nfa
    counts = {s: int(s in finals) for s in nfa[0]}
    for letter in reversed(word):
        counts = {
            s: sum(counts[t] for src, a, t in transitions if src == s and a == letter)
            for s in nfa[0]
        }
    return counts[state]


def run_texts(nfa, state: str, word: tuple) -> list[str]:
    """Every accepting run as a name-tree text, in sorted order."""
    edges, eps = rule_names(nfa)
    by_source = {}
    for name, letter, target, source in edges:
        by_source.setdefault((source, letter), []).append((name, target))
    eps_of = {s: name for name, s in eps}
    found = []

    def walk(at, i, names):
        if i == len(word):
            if at in eps_of:
                found.append(chain_text(names + [eps_of[at]]))
            return
        for name, target in by_source.get((at, word[i]), []):
            walk(target, i + 1, names + [name])

    walk(state, 0, [])
    return sorted(found)


def sample_run(rng: random.Random, nfa, length: int):
    """A random accepting run of `length` letters as (start, word, rule
    names root first).  `gen_nfa` automata have one for every length."""
    states, _, transitions, finals = nfa
    edges, eps = rule_names(nfa)
    name_of = {(source, letter, target): name for name, letter, target, source in edges}
    reach = [set(finals)]  # reach[i]: states with an accepting run of i letters
    for _ in range(length):
        reach.append({s for s, a, t in transitions if t in reach[-1]})
    start = at = rng.choice(sorted(reach[length]))
    word, names = [], []
    for remaining in range(length, 0, -1):
        s, a, t = rng.choice(
            sorted(tr for tr in transitions if tr[0] == at and tr[2] in reach[remaining - 1])
        )
        word.append(a)
        names.append(name_of[(s, a, t)])
        at = t
    names.append(dict((s, n) for n, s in eps)[at])
    return start, tuple(word), names


def run_conclusions(nfa, start: str, names: list[str]) -> list[str]:
    """The state each node of a run concludes, root first."""
    premise = {name: target for name, _, target, _ in rule_names(nfa)[0]}
    return [start] + [premise[name] for name in names[:-1]]


def chain_text(names: list[str]) -> str:
    return "(".join(names) + ")" * (len(names) - 1)


def chain_latex(conclusions: list[str], names: list[str]) -> str:
    """`\\irule{premises}{conclusion}{name}` for a chain, root first."""
    text = ""
    for concl, name in zip(reversed(conclusions), reversed(names)):
        text = "\\irule{%s}{%s}{%s}" % (text, concl, name)
    return text
