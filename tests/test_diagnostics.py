"""Differential tests: error positions and node paths built on failure only.

The tokenizer gives plain strings, a ParseError finds its position when it
is raised, and the checking walks build a node's path only once it fails.
This file keeps the earlier tokenizer, parsers and walks, which carried a
position on every token and a path into every node, and requires the same
ParseError message and position, and the same Rejected class, reason and
path, from both on random valid inputs and on broken ones.  It also keeps
the earlier sequent-file reader, which recursed once per level and read
each line on its own with the recursive proposition reader, and requires
the same tree or the same ParseError from the stack-based one, which reads
each distinct line and proposition once per file, also for lines broken
after lines that share their propositions.
Last, it keeps the name-tree reader, printers, shape queries and
inference that recursed once per node, and requires the same output,
ParseError or Rejected from the walks that loop down runs of one-child
nodes, on trees that mix long runs with branching nodes; the printers
also on labels that are not strings.  Faults planted in such trees, once
inferred, must get the same Rejected from the check loops, which apply
each rule inline, as from the path-carrying checks.  Last, trees that
reuse subtrees as one object, with faults planted at one occurrence or at
every occurrence of a node, must get the same values and the same
Rejected from the folds and checks, which handle each distinct node with
two or more children once, as from the walks that visit every occurrence.
Last of all, the name-tree reader splits its tokens off by str methods: on
texts spaced with every kind of whitespace, its tokens must be the token
regex's and its tree or ParseError both earlier readers', and it must run
the regex scan of `trees.tokenize` only to report an error.
"""

from __future__ import annotations

import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generators
from ruletrees import engine
from ruletrees import natded as nd
from ruletrees import recfun as rf
from ruletrees import trees
from ruletrees.errors import ArityMismatch, IllFormed, ParseError, Rejected
from ruletrees.trees import (
    _NAME_TOKEN_RE,
    Tree,
    check_nodes,
    parse_name_tree,
    print_name_tree,
    tokenize,
    tree_to_latex,
)

_seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ------------------------------------------------ reference tokenizer, parsers

def ref_tokenize(text, token_re):
    tokens = [(m.lastgroup or m[0], m[0], m.start()) for m in token_re.finditer(text)]
    for kind, value, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
    tokens.append(("eof", "", len(text)))
    return tokens


class RefCursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        token = self.tokens[self.index]
        if token[0] != "eof":
            self.index += 1
        return token

    def at(self, kind):
        return self.tokens[self.index][0] == kind

    def take(self, kind):
        if self.tokens[self.index][0] == kind:
            self.index += 1
            return True
        return False

    def expect(self, kind, what):
        token = self.tokens[self.index]
        if token[0] != kind:
            raise ParseError(f"expected {what}", token[2])
        self.index += 1
        return token

    def end(self):
        token = self.tokens[self.index]
        if token[0] != "eof":
            raise ParseError("unexpected trailing input", token[2])


_REF_NAME_RE = re.compile(r"(?P<name>[^\s(),]+)|[(),]")


def ref_parse_name_tree(text):
    cur = RefCursor(ref_tokenize(text, _REF_NAME_RE))
    tree = _ref_node(cur)
    cur.end()
    return tree


def _ref_node(cur):
    name = cur.expect("name", "a rule name")[1]
    if not cur.take("(") or cur.take(")"):
        return Tree(name)
    children = [_ref_node(cur)]
    while cur.take(","):
        children.append(_ref_node(cur))
    cur.expect(")", "',' or ')'")
    return Tree(name, tuple(children))


_REF_ND_RE = re.compile(
    r"""(?P<and>/\\)
      | (?P<imp>=>)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | [()\[\]{}<>,|:.]
      | (?P<bad>\S)
    """,
    re.VERBOSE,
)
_REF_SEQUENT_RE = re.compile(r"\|-|" + _REF_ND_RE.pattern, re.VERBOSE)


def _ref_prop(cur):
    left = _ref_conj(cur)
    if cur.take("imp"):
        return nd.Imp(left, _ref_prop(cur))
    return left


def _ref_conj(cur):
    left = _ref_prop_atom(cur)
    if cur.take("and"):
        return nd.And(left, _ref_conj(cur))
    return left


def _ref_prop_atom(cur):
    token = cur.peek()
    if token[0] == "ident":
        if token[1] in nd._RESERVED:
            raise ParseError(f"{token[1]} is reserved", token[2])
        cur.next()
        return nd.Atom(token[1])
    if cur.take("("):
        prop = _ref_prop(cur)
        cur.expect(")", "')'")
        return prop
    raise ParseError("expected a proposition", token[2])


def ref_parse_prop(text):
    cur = RefCursor(ref_tokenize(text, _REF_ND_RE))
    prop = _ref_prop(cur)
    cur.end()
    return prop


def _ref_term(cur, form):
    token = cur.peek()
    if token[0] == "ident" and token[1] == "fun":
        cur.next()
        if form == "scheme":
            cur.expect("[", "'['")
            prop = _ref_prop(cur)
            cur.expect("]", "']'")
            return nd.Lam(prop, _ref_term(cur, form))
        name = cur.expect("ident", "a variable name")
        if name[1] in nd._RESERVED:
            raise ParseError(f"{name[1]} is reserved", name[2])
        cur.expect(":", "':'")
        prop = _ref_prop(cur)
        cur.expect(".", "'.'")
        return nd.LamV(name[1], prop, _ref_term(cur, form))
    if token[0] == "ident" and token[1] in ("hyp", "axiom") and form != "scheme":
        raise ParseError(f"{token[1]} occurs only in scheme terms", token[2])
    if token[0] == "ident" and token[1] == "hyp":
        cur.next()
        cur.expect("[", "'['")
        prop = _ref_prop(cur)
        cur.expect("]", "']'")
        return nd.Hyp(prop)
    if token[0] == "ident" and token[1] == "axiom":
        cur.next()
        cur.expect("{", "'{'")
        ctx = []
        if not cur.at("|"):
            ctx.append(_ref_prop(cur))
            while cur.take(","):
                ctx.append(_ref_prop(cur))
        cur.expect("|", "'|'")
        prop = _ref_prop(cur)
        cur.expect("}", "'}'")
        return nd.HypFull(frozenset(ctx), prop)
    if token[0] == "ident" and token[1] in ("fst", "snd"):
        cur.next()
        cur.expect("(", "'('")
        body = _ref_term(cur, form)
        cur.expect(")", "')'")
        return nd.Fst(body) if token[1] == "fst" else nd.Snd(body)
    if cur.take("<"):
        left = _ref_term(cur, form)
        cur.expect(",", "','")
        right = _ref_term(cur, form)
        cur.expect(">", "'>'")
        return nd.Pair(left, right)
    if cur.take("("):
        term = _ref_term(cur, form)
        cur.expect(")", "')'")
        return term
    if token[0] == "ident":
        if form != "var":
            raise ParseError("bare variables occur only in var terms", token[2])
        cur.next()
        return nd.Var(token[1])
    raise ParseError("expected a term", token[2])


def ref_parse_term(text, form):
    cur = RefCursor(ref_tokenize(text, _REF_ND_RE))
    term = _ref_term(cur, form)
    cur.end()
    return term


def ref_parse_sequent(text):
    if text.count("|-") != 1:
        raise ParseError("a sequent needs exactly one |-", 0)
    cur = RefCursor(ref_tokenize(text, _REF_SEQUENT_RE))
    props = []
    if not cur.at("|-"):
        props.append(_ref_prop(cur))
        while cur.take(","):
            props.append(_ref_prop(cur))
    if not cur.take("|-"):
        raise ParseError("unexpected trailing input", cur.peek()[2])
    conclusion = _ref_prop(cur)
    cur.end()
    return nd.Sequent(frozenset(props), conclusion)


_REF_PROGRAM_RE = re.compile(r"(?P<word>[^\s(),;]+)|[(),;]")


def ref_parse_program(text):
    cur = RefCursor(ref_tokenize(text, _REF_PROGRAM_RE))
    program = _ref_prog(cur)
    cur.end()
    return program


def _ref_prog(cur):
    _, word, pos = cur.next()
    program = rf._base_program(word)
    if program is not None:
        return program
    if word not in ("comp", "rec", "mu"):
        raise ParseError("expected zero^N, succ, proj^N_I, comp, rec, or mu", pos)
    cur.expect("(", "'('")
    first = _ref_prog(cur)
    if word == "comp":
        cur.expect(";", "';'")
        inner = [_ref_prog(cur)]
        while cur.take(","):
            inner.append(_ref_prog(cur))
        program = rf.Comp(first, tuple(inner))
    elif word == "rec":
        cur.expect(",", "','")
        program = rf.Rec(first, _ref_prog(cur))
    else:
        program = rf.Mu(first)
    cur.expect(")", "')'")
    return program


# ------------------------------------------------------------ reference walks

def _ref_apply_named(system, name, child_elems, path):
    rule = system.find(name)
    if rule is None:
        raise engine.UnknownRuleName(path, f"unknown rule {name}")
    if rule.arity != len(child_elems):
        raise ArityMismatch(
            path, f"rule {name} expects {rule.arity} premise(s), node has {len(child_elems)}"
        )
    result = rule.apply(child_elems)
    if result is None:
        rendered = ", ".join(engine.render_element(e) for e in child_elems)
        raise engine.RuleUndefined(path, f"rule {name} is undefined at ({rendered})")
    return result


def ref_check_elem_tree(system, tree):
    for path, node in generators.preorder(tree):
        child_elems = tuple(c.label for c in node.children)
        if not any(
            rule.arity == len(child_elems) and rule.apply(child_elems) == node.label
            for rule in system.rules
        ):
            rendered = ", ".join(engine.render_element(e) for e in child_elems)
            raise Rejected(
                path, f"no rule derives {engine.render_element(node.label)} from ({rendered})"
            )


def ref_check_full_tree(system, tree):
    for path, node in generators.preorder(tree):
        element, name = node.label
        result = _ref_apply_named(system, name, tuple(c.label[0] for c in node.children), path)
        if result != element:
            raise Rejected(
                path,
                f"rule {name} yields {engine.render_element(result)}, "
                f"node is labeled {engine.render_element(element)}",
            )


def ref_infer_full_tree(system, name_tree):
    def go(node, path):
        children = tuple(go(c, path + (i,)) for i, c in enumerate(node.children))
        result = _ref_apply_named(system, node.label, tuple(c.label[0] for c in children), path)
        return Tree((result, node.label), children)

    return go(name_tree, ())


def ref_rule_matches(name, seq, premises):
    """The earlier rule check, which built its reason in full every time."""
    if name == nd.AXIOM:
        if premises:
            return "axiom takes no premises"
        if seq.concl not in seq.ctx:
            return f"conclusion {nd.print_prop(seq.concl)} is not in the context"
        return None
    if name == nd.AND_INTRO:
        if len(premises) != 2:
            return "and-intro takes two premises"
        if not isinstance(seq.concl, nd.And):
            return "conclusion is not a conjunction"
        left, right = premises
        if left.ctx != seq.ctx or right.ctx != seq.ctx:
            return "premise contexts differ from the conclusion's"
        if left.concl != seq.concl.left or right.concl != seq.concl.right:
            return "premises do not conclude the two conjuncts in order"
        return None
    if name == nd.AND_ELIM1 or name == nd.AND_ELIM2:
        if len(premises) != 1:
            return f"{name} takes one premise"
        (premise,) = premises
        if premise.ctx != seq.ctx:
            return "premise context differs from the conclusion's"
        if not isinstance(premise.concl, nd.And):
            return "premise does not conclude a conjunction"
        kept = premise.concl.left if name == nd.AND_ELIM1 else premise.concl.right
        if kept != seq.concl:
            return "conclusion is not the selected conjunct"
        return None
    if name == nd.IMP_INTRO:
        if len(premises) != 1:
            return "imp-intro takes one premise"
        if not isinstance(seq.concl, nd.Imp):
            return "conclusion is not an implication"
        (premise,) = premises
        if premise.ctx != seq.ctx | {seq.concl.left}:
            return "premise context must extend the conclusion's with the antecedent"
        if premise.concl != seq.concl.right:
            return "premise does not conclude the consequent"
        return None
    return f"unknown rule {name}"


def ref_check_sequent_deriv(tree):
    for path, node in generators.preorder(tree):
        seq, name = nd.split_label(node.label)
        premises = tuple(nd.split_label(c.label)[0] for c in node.children)
        if name is not None:
            reason = ref_rule_matches(name, seq, premises)
            if reason is not None:
                raise Rejected(path, reason)
        elif all(ref_rule_matches(r, seq, premises) is not None for r in nd.ND_RULES):
            raise Rejected(path, f"no rule justifies {nd.print_sequent(seq)}")


def _ref_sequent_node(term, ctx, binders, path):
    if isinstance(term, nd.Hyp):
        if term.prop not in ctx:
            raise nd.HypNotInContext(
                path,
                f"hypothesis {nd.print_prop(term.prop)} is not in the context "
                f"{nd.render_context(ctx)}",
            )
        return Tree((nd.Sequent(ctx, term.prop), nd.AXIOM))
    if isinstance(term, nd.HypFull):
        expected = term.ctx | {term.prop}
        if ctx != expected:
            raise nd.ContextMismatch(
                path,
                f"axiom carries context {nd.render_context(expected)} but sits "
                f"under {nd.render_context(ctx)}",
            )
        return Tree((nd.Sequent(ctx, term.prop), nd.AXIOM))
    if isinstance(term, nd.Var):
        for name, prop in reversed(binders):
            if name == term.name:
                return Tree((nd.Sequent(ctx, prop), nd.AXIOM))
        raise nd.UnboundVariable(path, f"variable {term.name} is not bound")
    if isinstance(term, (nd.Lam, nd.LamV)):
        if isinstance(term, nd.LamV):
            binders += ((term.name, term.prop),)
        body = _ref_sequent_node(term.body, ctx | {term.prop}, binders, path + (0,))
        concl = nd.Imp(term.prop, body.label[0].concl)
        return Tree((nd.Sequent(ctx, concl), nd.IMP_INTRO), (body,))
    if isinstance(term, nd.Pair):
        left = _ref_sequent_node(term.left, ctx, binders, path + (0,))
        right = _ref_sequent_node(term.right, ctx, binders, path + (1,))
        concl = nd.And(left.label[0].concl, right.label[0].concl)
        return Tree((nd.Sequent(ctx, concl), nd.AND_INTRO), (left, right))
    body = _ref_sequent_node(term.body, ctx, binders, path + (0,))
    got = body.label[0].concl
    if not isinstance(got, nd.And):
        which = "fst" if isinstance(term, nd.Fst) else "snd"
        raise nd.ShapeMismatch(path, f"{which} needs a conjunction, got {nd.print_prop(got)}")
    if isinstance(term, nd.Fst):
        return Tree((nd.Sequent(ctx, got.left), nd.AND_ELIM1), (body,))
    return Tree((nd.Sequent(ctx, got.right), nd.AND_ELIM2), (body,))


def ref_scheme_sequent_tree(term, root_ctx=()):
    return _ref_sequent_node(term, frozenset(root_ctx), (), ())


def ref_scheme_to_var(term):
    counter = itertools.count(1)

    def go(t, binders, path):
        if isinstance(t, nd.Hyp):
            for name, prop in reversed(binders):
                if prop == t.prop:
                    return nd.Var(name)
            raise nd.NoMatchingBinder(path, f"no enclosing binder proves {nd.print_prop(t.prop)}")
        if isinstance(t, nd.HypFull):
            raise nd.NoMatchingBinder(path, "an axiom with an explicit context names no binder")
        if isinstance(t, nd.Lam):
            name = f"x{next(counter)}"
            return nd.LamV(name, t.prop, go(t.body, binders + ((name, t.prop),), path + (0,)))
        if isinstance(t, nd.Pair):
            return nd.Pair(go(t.left, binders, path + (0,)), go(t.right, binders, path + (1,)))
        if isinstance(t, nd.Fst):
            return nd.Fst(go(t.body, binders, path + (0,)))
        if isinstance(t, nd.Snd):
            return nd.Snd(go(t.body, binders, path + (0,)))
        raise TypeError(f"not a scheme term: {t!r}")

    return go(term, (), ())


def ref_var_to_scheme(term):
    def go(t, binders, path):
        if isinstance(t, nd.Var):
            for name, prop in reversed(binders):
                if name == t.name:
                    return nd.Hyp(prop)
            raise nd.UnboundVariable(path, f"variable {t.name} is not bound")
        if isinstance(t, nd.LamV):
            return nd.Lam(t.prop, go(t.body, binders + ((t.name, t.prop),), path + (0,)))
        if isinstance(t, nd.Pair):
            return nd.Pair(go(t.left, binders, path + (0,)), go(t.right, binders, path + (1,)))
        if isinstance(t, nd.Fst):
            return nd.Fst(go(t.body, binders, path + (0,)))
        if isinstance(t, nd.Snd):
            return nd.Snd(go(t.body, binders, path + (0,)))
        raise TypeError(f"not a variable term: {t!r}")

    return go(term, (), ())


def ref_arity_of(program, path=()):
    """The earlier compile walk's formation checks, in its order, without closures."""
    if isinstance(program, rf.Zero):
        if program.arity < 0:
            raise IllFormed(path, "zero takes a nonnegative arity")
        return program.arity
    if isinstance(program, rf.Succ):
        return 1
    if isinstance(program, rf.Proj):
        if not 1 <= program.index <= program.arity:
            raise IllFormed(
                path, f"projection index {program.index} out of range for arity {program.arity}"
            )
        return program.arity
    if isinstance(program, rf.Comp):
        if not program.inner:
            raise IllFormed(path, "composition needs at least one inner program")
        outer_arity = ref_arity_of(program.outer, path + (0,))
        arities = [ref_arity_of(g, path + (i,)) for i, g in enumerate(program.inner, 1)]
        if len(set(arities)) != 1:
            raise IllFormed(path, "inner programs disagree on arity")
        if outer_arity != len(program.inner):
            raise IllFormed(
                path,
                f"outer program takes {outer_arity} argument(s) "
                f"but {len(program.inner)} inner program(s) are given",
            )
        return arities[0]
    if isinstance(program, rf.Rec):
        base_arity = ref_arity_of(program.base, path + (0,))
        step_arity = ref_arity_of(program.step, path + (1,))
        if step_arity != base_arity + 2:
            raise IllFormed(
                path, f"recursion step takes {step_arity} argument(s), needs {base_arity + 2}"
            )
        return base_arity + 1
    body_arity = ref_arity_of(program.body, path + (0,))
    if body_arity < 1:
        raise IllFormed(path, "minimization needs a body of arity at least 1")
    return body_arity - 1


def ref_name_tree_to_program(tree, path=()):
    name, kids = tree.label, tree.children
    program = rf._base_program(name)
    if program is not None:
        if kids:
            raise IllFormed(path, f"{name.partition('^')[0]} takes no children")
        return program
    if name == "comp":
        if len(kids) < 2:
            raise IllFormed(path, "comp takes an outer and at least one inner child")
        return rf.Comp(
            ref_name_tree_to_program(kids[0], path + (0,)),
            tuple(ref_name_tree_to_program(g, path + (i,)) for i, g in enumerate(kids[1:], 1)),
        )
    if name == "rec":
        if len(kids) != 2:
            raise IllFormed(path, "rec takes exactly two children")
        return rf.Rec(
            ref_name_tree_to_program(kids[0], path + (0,)),
            ref_name_tree_to_program(kids[1], path + (1,)),
        )
    if name == "mu":
        if len(kids) != 1:
            raise IllFormed(path, "mu takes exactly one child")
        return rf.Mu(ref_name_tree_to_program(kids[0], path + (0,)))
    raise IllFormed(path, f"unknown program name {name}")


# ------------------------------------------------------------------- helpers

def outcome(fn, *args):
    """What a call gives: its value, or the error's class and the fields
    that users see (message and position, or reason and path)."""
    try:
        return "ok", fn(*args)
    except ParseError as err:
        return ParseError, err.message, err.position, str(err)
    except Rejected as err:
        return type(err), err.reason, err.path, str(err)
    except (TypeError, rf.DecodeError) as err:  # a term of the other form, a bad code
        return type(err), str(err)


_EDIT_CHARS = "(),;<>[]{}|:.-=/\\ \tPQRxfunhyp0123_^@#?é"


def broken(rng: random.Random, text: str) -> str:
    """`text` itself, truncated, or with one character inserted, deleted or replaced."""
    pick = rng.randrange(5)
    at = rng.randrange(len(text) + 1)
    if pick == 0:
        return text
    if pick == 1:
        return text[:at]
    if pick == 2:
        return text[:at] + rng.choice(_EDIT_CHARS) + text[at:]
    if pick == 3:
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice(_EDIT_CHARS) + text[at + 1:]


def random_name_tree(rng: random.Random, depth: int = 3) -> Tree:
    name = rng.choice(("f1", "f2", "comp", "rec", "mu", "succ", "zero^1", "proj^2_1", "a^b"))
    if depth == 0 or rng.random() < 0.3:
        return Tree(name)
    return Tree(name, tuple(random_name_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))))


def random_program(rng: random.Random) -> rf.Program:
    """A well-formed program, or one with a single constructor replaced."""
    program = generators.program(rng, rng.randint(0, 3), rng.randint(0, 3))
    return corrupt_program(rng, program) if rng.random() < 0.6 else program


def corrupt_program(rng: random.Random, program):
    if isinstance(program, (rf.Comp, rf.Rec, rf.Mu)) and rng.random() < 0.7:
        subs = list(rf._subprograms(program))
        i = rng.randrange(len(subs))
        subs[i] = corrupt_program(rng, subs[i])
        if isinstance(program, rf.Comp):
            return rf.Comp(subs[0], tuple(subs[1:]))
        return type(program)(*subs)
    return rng.choice(
        (rf.Zero(rng.randint(-1, 3)), rf.Succ(), rf.Proj(rng.randint(0, 3), rng.randint(0, 4)),
         rf.Comp(rf.Succ(), ()), rf.Mu(rf.Zero(0)), rf.Rec(rf.Zero(1), rf.Succ()))
    )


def random_term(rng: random.Random):
    """A checking scheme or var term, possibly with one subterm replaced."""
    term = generators.scheme_term(rng) if rng.random() < 0.5 else generators.var_term(rng)
    return corrupt_term(rng, term) if rng.random() < 0.7 else term


def corrupt_term(rng: random.Random, term):
    if isinstance(term, (nd.Lam, nd.LamV, nd.Pair, nd.Fst, nd.Snd)) and rng.random() < 0.7:
        fields = list(term)
        i = len(fields) - 1 if not isinstance(term, nd.Pair) else rng.randrange(2)
        fields[i] = corrupt_term(rng, fields[i])
        return type(term)(*fields)
    prop = generators.prop(rng)
    return rng.choice(
        (nd.Hyp(prop), nd.Var(rng.choice("xyzw")), nd.HypFull(frozenset(), prop),
         nd.Fst(nd.Hyp(prop)), nd.Snd(nd.Var("x")))
    )


def corrupt_tree(rng: random.Random, tree: Tree, relabel) -> Tree:
    """`tree` with the label of one node, picked along a random path, changed."""
    if tree.children and rng.random() < 0.75:
        kids = list(tree.children)
        i = rng.randrange(len(kids))
        kids[i] = corrupt_tree(rng, kids[i], relabel)
        return Tree(tree.label, tuple(kids))
    return Tree(relabel(tree.label), tree.children)


# -------------------------------------------------------------- parse errors

@given(_seeds)
def test_parse_errors_match_the_position_carrying_tokenizer(seed):
    rng = random.Random(seed)
    tree_text = print_name_tree(random_name_tree(rng))
    prop_text = nd.print_prop(generators.prop(rng, 3))
    scheme = nd.print_term(generators.scheme_term(rng))
    var = nd.print_term(generators.var_term(rng))
    ctx = ", ".join(nd.print_prop(generators.prop(rng)) for _ in range(rng.randint(0, 2)))
    sequent = f"{ctx} |- {prop_text}"
    program = rf.print_program(generators.program(rng, rng.randint(0, 3), rng.randint(0, 3)))
    cases = [
        (parse_name_tree, ref_parse_name_tree, tree_text),
        (nd.parse_prop, ref_parse_prop, prop_text),
        (lambda t: nd.parse_term(t, "scheme"), lambda t: ref_parse_term(t, "scheme"), scheme),
        (lambda t: nd.parse_term(t, "var"), lambda t: ref_parse_term(t, "var"), var),
        (lambda t: nd.parse_term(t, "var"), lambda t: ref_parse_term(t, "var"), scheme),
        (nd.parse_sequent, ref_parse_sequent, sequent),
        (rf.parse_program, ref_parse_program, program),
    ]
    for parse, reference, text in cases:
        for _ in range(4):
            edited = broken(rng, text)
            assert outcome(parse, edited) == outcome(reference, edited), edited


# ---------------------------------------------------------- rejection paths

@given(_seeds)
def test_tree_rejections_match_the_path_carrying_walks(seed):
    rng = random.Random(seed)
    system = generators.system(rng)
    witnesses = [engine.member(system, e, 4) for e in generators.DOMAIN]
    for witness in filter(None, witnesses):
        full = corrupt_tree(rng, witness, lambda label: (rng.randrange(9), label[1]))
        full = corrupt_tree(rng, full, lambda label: (label[0], rng.choice(("r0", "r1", "r9"))))
        assert outcome(engine.check_full_tree, system, full) == outcome(
            ref_check_full_tree, system, full
        )
        elems = engine.erase_names(full)
        assert outcome(engine.check_elem_tree, system, elems) == outcome(
            ref_check_elem_tree, system, elems
        )
        names = engine.erase_elements(full)
        assert outcome(engine.infer_full_tree, system, names) == outcome(
            ref_infer_full_tree, system, names
        )


@given(_seeds)
def test_sequent_derivation_rejections_match(seed):
    rng = random.Random(seed)
    tree = nd.scheme_sequent_tree(generators.scheme_term(rng))

    def relabel(label):
        seq, name = label
        if rng.random() < 0.5:
            return (nd.Sequent(seq.ctx, generators.prop(rng)), name)
        return (seq, rng.choice(nd.ND_RULES + (None, "cut", "{concl}")))

    broken_tree = corrupt_tree(rng, corrupt_tree(rng, tree, relabel), relabel)
    assert outcome(nd.check_sequent_deriv, broken_tree) == outcome(
        ref_check_sequent_deriv, broken_tree
    )


@given(_seeds)
def test_term_rejections_match(seed):
    term = random_term(random.Random(seed))
    for walk, reference in (
        (nd.scheme_sequent_tree, ref_scheme_sequent_tree),
        (nd.scheme_to_var, ref_scheme_to_var),
        (nd.var_to_scheme, ref_var_to_scheme),
    ):
        assert outcome(walk, term) == outcome(reference, term)


@given(_seeds)
def test_program_rejections_match(seed):
    rng = random.Random(seed)
    program = random_program(rng)
    assert outcome(rf.arity_of, program) == outcome(ref_arity_of, program)
    tree = corrupt_tree(
        rng, rf.program_to_name_tree(program), lambda _: rng.choice(("comp", "rec", "mu", "succ", "f"))
    )
    assert outcome(rf.name_tree_to_program, tree) == outcome(ref_name_tree_to_program, tree)


def test_a_shared_subtree_is_reported_at_its_first_occurrence():
    bad = Tree("x")
    tree = Tree("r", (Tree("r", (bad,)), bad))
    seen = []

    def check(node):
        seen.append(node.label)
        if node is bad:
            raise Rejected((), "bad")

    with pytest.raises(Rejected) as info:
        check_nodes(tree, check)
    assert info.value.path == (0, 0)
    assert seen == ["r", "r", "x"]


# ------------------------------------------------------------------ numbering

def ref_ungodel(code):
    """The earlier decoder: the whole code first, then the formation check."""
    program = _ref_decode(code)
    try:
        ref_arity_of(program)
    except IllFormed as err:
        raise rf.DecodeError(
            f"decodes to an ill-formed program ({err.reason} at {rf.format_path(err.path)})"
        ) from err
    return program


def _ref_decode(code, kind="p"):
    if kind == "n":
        return code
    head, rest = rf._unpair(code)
    if kind == "l":
        if head < 1:
            raise rf.DecodeError("a composition lists at least one inner program")
        return tuple(map(_ref_decode, rf._unnest(rest, head)))
    if head >= len(rf._CONSTRUCTORS):
        raise rf.DecodeError(f"unknown constructor tag {head}")
    cls, kinds = rf._CONSTRUCTORS[head]
    if not kinds and rest != 0:
        raise rf.DecodeError(f"successor carries no payload, got {rest}")
    return cls(*map(_ref_decode, rf._unnest(rest, len(kinds)), kinds))


def lists_mismatch(program) -> bool:
    """Whether some composition in `program` lists other than as many inner
    programs as its outer program's spine takes arguments."""
    if isinstance(program, rf.Comp) and len(program.inner) != rf._spine_arity(program.outer):
        return True
    return isinstance(program, (rf.Comp, rf.Rec, rf.Mu)) and any(
        map(lists_mismatch, rf._subprograms(program))
    )


@settings(deadline=None)  # its lists run up to ~4 500 long: a loaded host, not the code, decides the time
@given(_seeds)
def test_ungodel_matches_the_earlier_decoder_where_every_list_fits(seed):
    rng = random.Random(seed)
    codes = [rng.randrange(10 ** rng.randint(1, 7)) for _ in range(20)]  # lists up to ~4 500 long
    programs = (random_program(rng) for _ in range(5))
    # zero^-1 has no code: the pairing of a negative numeral means nothing
    codes += [rf._encode(p, None) for p in programs if "-" not in rf.print_program(p)]
    for code in codes:
        got, want = outcome(rf.ungodel, code), outcome(ref_ungodel, code)
        try:
            fits = not lists_mismatch(_ref_decode(code))
        except rf.DecodeError:  # the earlier decoder fails before it has a program
            fits = None
        if fits:
            assert got == want, code
        else:
            assert got[0] is rf.DecodeError and want[0] is rf.DecodeError, code


# -------------------------------------------------------------- sequent files

def ref_parse_sequent_deriv(text):
    """The earlier reader, which built the tree by recursing once per level
    and read each line on its own with the position-carrying reader."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" "))
        if indent % 2 != 0:
            raise ParseError(f"line {lineno}: indentation must be even", lineno)
        content = line.strip()
        tag = None
        match = nd._TAG_RE.search(content)
        if match:
            tag = match.group(1).strip()
            content = content[: match.start()].rstrip()
        try:
            seq = ref_parse_sequent(content)
        except ParseError as err:
            raise ParseError(f"line {lineno}: {err.message}", lineno) from None
        entries.append((lineno, indent // 2, seq, tag))
    if not entries:
        raise ParseError("empty derivation", 0)
    if entries[0][1] != 0:
        raise ParseError(f"line {entries[0][0]}: the root must not be indented", entries[0][0])

    def build(index, level):
        lineno, _, seq, tag = entries[index]
        children = []
        next_index = index + 1
        while next_index < len(entries) and entries[next_index][1] > level:
            if entries[next_index][1] != level + 1:
                raise ParseError(
                    f"line {entries[next_index][0]}: indentation jumps a level",
                    entries[next_index][0],
                )
            child, next_index = build(next_index, level + 1)
            children.append(child)
        return Tree((seq, tag), tuple(children)), next_index

    root, stop = build(0, 0)
    if stop != len(entries):
        raise ParseError(
            f"line {entries[stop][0]}: a derivation has a single root", entries[stop][0]
        )
    return root


# whitespace that does not end a line, which `spaced_sequent` may put in
_LINE_SPACES = " \t\xa0\u3000"
_NOISE_LINES = ("", "  # note", "#", "P |-", "|- (P", "P |- P []", "P |- P [x] [y]")


def spaced_sequent(rng: random.Random, text: str) -> str:
    """`text` with runs of whitespace that does not end a line before and
    after its `,`, `|-` and parentheses, and none at its ends."""

    def gap(_):
        return "".join(rng.choices(_LINE_SPACES, k=rng.choice((0, 0, 1, 2))))

    return re.sub(r"(?=[(),]|\|-)|(?<=[(),])|(?<=\|-)", gap, text).strip()


def sequent_lines(rng: random.Random) -> list[str]:
    """A few sequents over a few propositions from `generators.prop`, so that
    propositions repeat within and across lines, spaced, some tagged."""
    pool = [nd.print_prop(generators.prop(rng)) for _ in range(rng.randint(1, 4))]
    lines = []
    for _ in range(rng.randint(1, 6)):
        ctx = ", ".join(rng.choices(pool, k=rng.randint(0, 3)))
        tag = rng.choice(("", "  [axiom]", " [and-intro]", "  # note"))
        lines.append(spaced_sequent(rng, f"{ctx} |- {rng.choice(pool)}") + tag)
    return lines


@st.composite
def sequent_files(draw):
    """Files of 0-9 lines, over the lines of `sequent_lines`, and any of
    them again.  Most lines parse and sit below the root, at most one
    level below the line before, so that files get past the per-line
    checks to the structural ones; the rest have any indent of 0-12 spaces
    and may be blank, a comment, fail to parse, or one of those lines
    broken, after lines that share its propositions."""
    rng = random.Random(draw(_seeds))
    well_formed = sequent_lines(rng)
    lines, level = [], -1
    for _ in range(rng.randint(0, 9)):
        line = rng.choice(well_formed)
        if rng.randrange(5):
            level = rng.randint(min(level + 1, 1), level + 1)
            lines.append("  " * level + line)
        else:
            noise = rng.choice(_NOISE_LINES + (line, broken(rng, line)))
            lines.append(" " * rng.randint(0, 12) + noise)
    return "\n".join(lines)


@given(sequent_files())
def test_sequent_files_read_like_the_recursive_reader(text):
    assert outcome(nd.parse_sequent_deriv, text) == outcome(ref_parse_sequent_deriv, text)


@given(_seeds)
def test_sequent_lines_read_after_a_warm_memo_like_the_cursor_reader(seed):
    """The reader reads each distinct line and proposition once per file
    and sends a line that does not read cleanly to the cursor reader.  A
    line broken after well-formed lines that share its propositions gives
    the same tree, or the same ParseError message and position, as reading
    each line on its own.  Lines broken twice may fail at two places, where
    only the cursor reader knows which one to report."""
    rng = random.Random(seed)
    lines = sequent_lines(rng)
    text = "\n".join([lines[0]] + ["  " + line for line in lines[1:]])
    for line in rng.choices(lines, k=2):
        edited = f"{text}\n  {broken(rng, line)}"
        assert outcome(nd.parse_sequent_deriv, edited) == outcome(ref_parse_sequent_deriv, edited), edited
        edited = f"{text}\n  {broken(rng, broken(rng, line))}"
        assert outcome(nd.parse_sequent_deriv, edited) == outcome(ref_parse_sequent_deriv, edited), edited


def test_a_3000_level_sequent_file_parses_and_checks():
    # P |- P by and-elim1 from P |- P /\ P, by and-intro from P |- P (the
    # chain goes on) and an axiom P |- P, down to 3 000 levels
    assert sys.getrecursionlimit() < 3_000
    lines = []
    for level in range(0, 3_000, 2):
        lines.append("  " * level + "P |- P  [and-elim1]")
        lines.append("  " * (level + 1) + "P |- P /\\ P  [and-intro]")
    lines.append("  " * 3_000 + "P |- P  [axiom]")
    lines += ["  " * level + "P |- P  [axiom]" for level in range(3_000, 0, -2)]
    tree = nd.parse_sequent_deriv("\n".join(lines))
    nd.check_sequent_deriv(tree)
    depth = 0
    while tree.children:
        tree, depth = tree.children[0], depth + 1
    assert depth == 3_000


# ------------------------------------------------------ runs of one-child nodes

class RecCursor:
    """Steps through the plain-string tokens of `text`; `next` stays on the
    last token, "".  `fail` finds the current token's offset by a second
    scan."""

    def __init__(self, text, token_re):
        self.text = text
        self.token_re = token_re
        self.tokens = tokenize(text, token_re)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        token = self.tokens[self.index]
        if token:
            self.index += 1
        return token

    def take(self, token):
        if self.tokens[self.index] == token:
            self.index += 1
            return True
        return False

    def expect(self, token, what):
        if self.tokens[self.index] != token:
            self.fail(f"expected {what}")
        self.index += 1

    def end(self):
        if self.tokens[self.index]:
            self.fail("unexpected trailing input")

    def fail(self, message):
        match = next(itertools.islice(self.token_re.finditer(self.text), self.index, None), None)
        raise ParseError(message, len(self.text) if match is None else match.start())


def rec_parse_name_tree(text):
    """The reader that recursed once per node."""
    cur = RecCursor(text, _NAME_TOKEN_RE)
    tree = _rec_node(cur)
    cur.end()
    return tree


def _rec_node(cur):
    name = cur.peek()
    if name in "(),":
        cur.fail("expected a rule name")
    cur.next()
    if not cur.take("(") or cur.take(")"):
        return Tree(name)
    children = [_rec_node(cur)]
    while cur.take(","):
        children.append(_rec_node(cur))
    cur.expect(")", "',' or ')'")
    return Tree(name, tuple(children))


def rec_print_name_tree(tree):
    if not tree.children:
        return str(tree.label)
    return f"{tree.label}({', '.join(map(rec_print_name_tree, tree.children))})"


def rec_tree_to_latex(tree, label_parts):
    conclusion, name = label_parts(tree.label)
    premises = " ~~~ ".join(rec_tree_to_latex(c, label_parts) for c in tree.children)
    return "\\irule{%s}{%s}{%s}" % (premises, conclusion, name)


def rec_height(tree):
    return 1 + max(map(rec_height, tree.children), default=0)


def rec_size(tree):
    return 1 + sum(map(rec_size, tree.children))


def rec_map_labels(tree, fn):
    children = tuple(rec_map_labels(c, fn) for c in tree.children)
    return Tree(fn(tree.label), children)


def rec_infer_full_tree(system, name_tree):
    """Inference that recursed once per node, putting each child index in
    front of a failing node's path on the way out."""
    children = []
    try:
        for child in name_tree.children:
            children.append(rec_infer_full_tree(system, child))
    except Rejected as err:
        err.path = (len(children), *err.path)
        raise
    result = _ref_apply_named(system, name_tree.label, tuple(c.label[0] for c in children), ())
    return Tree((result, name_tree.label), tuple(children))


# z, s, d, p, t take 0, 1, 1, 2 and 3 premises; s is undefined past 30, so
# long runs of it fail part of the way up
RUN_SYSTEM = engine.RuleSystem(
    (
        engine.Rule("z", 0, lambda: 0),
        engine.Rule("s", 1, lambda a: a + 1 if a < 30 else None),
        engine.Rule("d", 1, lambda a: 2 * a % 97),
        engine.Rule("p", 2, lambda a, b: a + b),
        engine.Rule("t", 3, lambda a, b, c: a * b + c),
    )
)
_RUN_NAMES = {0: ("z",), 1: ("s", "d"), 2: ("p",), 3: ("t",)}


def random_run_tree(rng: random.Random, depth: int = 3) -> Tree:
    """A run of one-child nodes (often none, sometimes up to 80) above a leaf
    or a node with 2 or 3 children, nested `depth` runs deep at most.  Labels
    mostly fit the node's child count in RUN_SYSTEM; 1 in 50 is any name or
    an unknown one."""

    def name(children: int) -> str:
        if rng.random() < 0.02:
            return rng.choice(("z", "s", "d", "p", "t", "q"))
        return rng.choice(_RUN_NAMES[children])

    if depth == 0 or rng.random() < 0.3:
        tree = Tree(name(0))
    else:
        kids = tuple(random_run_tree(rng, depth - 1) for _ in range(rng.randint(2, 3)))
        tree = Tree(name(len(kids)), kids)
    for _ in range(rng.choice((0, 0, 1, 2, rng.randint(3, 80)))):
        tree = Tree(name(1), (tree,))
    return tree


def _with_empty_parens(rng: random.Random, text: str) -> str:
    """`text` with some leaves written `name()`."""
    return re.sub(r"(?<=[^\s(),])(?=[,)]|$)", lambda _: "()" if rng.random() < 0.3 else "", text)


@given(_seeds)
def test_one_child_runs_read_and_print_like_the_recursive_reader(seed):
    rng = random.Random(seed)
    tree = random_run_tree(rng)
    text = rec_print_name_tree(tree)
    assert print_name_tree(tree) == text
    assert parse_name_tree(text) == tree
    for _ in range(4):
        edited = broken(rng, _with_empty_parens(rng, text))
        assert outcome(parse_name_tree, edited) == outcome(rec_parse_name_tree, edited), edited


class Tagged:
    """A label that formats through its own `__str__`."""

    def __init__(self, name):
        self.name = name

    def __str__(self):
        return f"<{self.name}>"


# labels that are not strings: both printers format each as an f-string would
OTHER_LABELS = (ord, lambda name: (name, 1), lambda name: None, lambda name: ord(name) / 4, Tagged)


@given(_seeds)
def test_one_child_runs_print_any_label_like_the_recursive_printer(seed):
    rng = random.Random(seed)
    # a run of 1 to 40 one-child nodes above a node with 2 or 3 children
    kids = tuple(random_run_tree(rng) for _ in range(rng.randint(2, 3)))
    tree = Tree("p" if len(kids) == 2 else "t", kids)
    for _ in range(rng.randint(1, 40)):
        tree = Tree("s", (tree,))
    assert print_name_tree(tree) == rec_print_name_tree(tree)
    numbered = tree.map_labels(ord)
    assert print_name_tree(numbered) == rec_print_name_tree(numbered)
    mixed = tree.map_labels(lambda name: rng.choice(OTHER_LABELS + (str,))(name))
    assert print_name_tree(mixed) == rec_print_name_tree(mixed)


@given(_seeds)
def test_one_child_runs_walk_like_the_recursive_walks(seed):
    rng = random.Random(seed)
    tree = random_run_tree(rng)
    assert (tree.height(), tree.size()) == (rec_height(tree), rec_size(tree))
    seen, rec_seen = [], []
    mapped = tree.map_labels(lambda label: seen.append(label) or label.upper())
    assert mapped == rec_map_labels(tree, lambda label: rec_seen.append(label) or label.upper())
    assert seen == rec_seen  # fn runs children first, left to right
    got = outcome(engine.infer_full_tree, RUN_SYSTEM, tree)
    assert got == outcome(rec_infer_full_tree, RUN_SYSTEM, tree)
    if got[0] == "ok":
        full = got[1]
        for parts in (lambda label: (str(label[0]), label[1]), lambda label: (label[1], "")):
            assert tree_to_latex(full, parts) == rec_tree_to_latex(full, parts)


def relabel_at(tree: Tree, path: tuple[int, ...], label) -> Tree:
    """`tree` with the node at `path` relabeled, rebuilt up the path in a loop."""
    spine = [tree]
    for i in path:
        spine.append(spine[-1].children[i])
    node = Tree(label, spine[-1].children)
    for parent, i in zip(reversed(spine[:-1]), reversed(path)):
        node = Tree(parent.label, parent.children[:i] + (node,) + parent.children[i + 1:])
    return node


def inferred_run_tree(rng: random.Random) -> Tree:
    """A random run tree, inferred after renaming each node where inference
    fails to the rule of its child count that is defined everywhere (z, d,
    p or t), so that long runs survive."""
    tree = random_run_tree(rng)
    for _ in range(tree.size()):  # each failure renames one node
        try:
            return engine.infer_full_tree(RUN_SYSTEM, tree)
        except Rejected as err:
            node = tree
            for i in err.path:
                node = node.children[i]
            tree = relabel_at(tree, err.path, _RUN_NAMES[len(node.children)][-1])
    return engine.infer_full_tree(RUN_SYSTEM, tree)


def plant_fault(rng: random.Random, full: Tree) -> Tree:
    """`full` with one node given a wrong element, the unknown name q, a name
    of the wrong arity, the name s over a child past 30, where s is
    undefined, or the element None (and the name s over a child past 30).
    The node is drawn from all nodes, so most lie down a run; 1 time in 4
    it is the last node of a run above a node with two or more children."""

    def over_30(node):  # a planted None counts as 0
        return len(node.children) == 1 and (node.children[0].label[0] or 0) >= 30

    nodes = list(generators.preorder(full))
    past_30 = [(p, n) for p, n in nodes if over_30(n)]
    run_ends = [(p, n) for p, n in nodes if len(n.children) == 1 and len(n.children[0].children) > 1]
    kind = rng.choice(("element", "unknown", "arity", "undefined", "none"))
    if past_30 and (kind == "undefined" or kind == "none" and rng.random() < 0.5):
        path, node = rng.choice(past_30)
    else:
        path, node = rng.choice(run_ends if run_ends and rng.random() < 0.25 else nodes)
    element, name = node.label
    if kind == "element":
        label = ((element or 0) + rng.choice((-1, 1, 40)), name)
    elif kind == "unknown":
        label = (element, "q")
    elif kind == "arity":
        wrong = [n for k, names in _RUN_NAMES.items() if k != len(node.children) for n in names]
        label = (element, rng.choice(wrong))
    elif kind == "undefined":
        label = (element, "s")
    else:
        label = (None, "s" if over_30(node) else name)
    return relabel_at(full, path, label)


@given(_seeds)
def test_one_child_runs_check_like_the_path_carrying_walks(seed):
    """The check loop applies each rule inline and diagnoses only the node it
    stops at: faults planted in inferred run trees, often far down a run,
    get the class, reason and path of the walk that carried a path."""
    rng = random.Random(seed)
    full = inferred_run_tree(rng)
    assert outcome(engine.check_full_tree, RUN_SYSTEM, full) == ("ok", None)
    for _ in range(rng.randint(1, 3)):
        full = plant_fault(rng, full)
        assert outcome(engine.check_full_tree, RUN_SYSTEM, full) == outcome(
            ref_check_full_tree, RUN_SYSTEM, full
        )
        elems = engine.erase_names(full)
        assert outcome(engine.check_elem_tree, RUN_SYSTEM, elems) == outcome(
            ref_check_elem_tree, RUN_SYSTEM, elems
        )


# ------------------------------------------------------------ shared subtrees

def rebuilt(tree: Tree, label, swap=None) -> Tree:
    """`tree` relabeled by `label(node)`, with `swap` (a node and its
    replacement) put in place of every occurrence of that node, rebuilt
    once per distinct node, so that every reused subtree stays one object."""
    done = {}

    def go(node):
        if swap is not None and node is swap[0]:
            return swap[1]
        if id(node) not in done:
            done[id(node)] = Tree(label(node), tuple(map(go, node.children)))
        return done[id(node)]

    return go(tree)


def random_dag(rng: random.Random) -> Tree:
    """An inferred (element, name) tree over RUN_SYSTEM whose nodes take
    their children from a pool of the nodes built before, so subtrees recur
    as one object, with at most about 1 500 occurrences.  It always
    holds a one-child node under two distinct one-child parents, and often
    runs of one-child nodes over a reused node."""
    count = {}  # id of a node -> its occurrences

    def node(children, name=None):
        if name is None:
            name = rng.choice(_RUN_NAMES[len(children)])
        elements = [child.label[0] for child in children]
        element = RUN_SYSTEM.find(name).fn(*elements)
        if element is None:  # s past 30
            name, element = "d", RUN_SYSTEM.find("d").fn(*elements)
        tree = Tree((element, name), tuple(children))
        count[id(tree)] = 1 + sum(count[id(child)] for child in children)
        return tree

    def pick():
        return rng.choice(pool[-2:] if rng.random() < 0.7 else pool)

    pool = [node(())]
    shared_run_at = rng.randrange(12)
    for step in range(12):
        if step == shared_run_at:  # a one-child node under u and v, both one-child
            x = node((pick(),), rng.choice(("s", "d")))
            pool.append(node((node((x,)), node((x,))), "p"))
            continue
        arity = rng.choice((0, 1, 1, 2, 2, 3))
        children = tuple(pick() for _ in range(arity))
        if sum(count[id(child)] for child in children) < 1_500:
            tree = node(children)
            for _ in range(rng.choice((0, 1, rng.randint(2, 12)))):
                tree = node((tree,))
            pool.append(tree)
    return pool[-1] if rng.random() < 0.7 else max(pool, key=lambda tree: count[id(tree)])


def plant_shared_fault(rng: random.Random, full: Tree) -> Tree:
    """`full` with a node, drawn from all occurrences, replaced everywhere it
    occurs by one copy with a fault planted inside it by `plant_fault`."""
    _, target = rng.choice(list(generators.preorder(full)))
    return rebuilt(full, lambda node: node.label, (target, plant_fault(rng, target)))


@given(_seeds)
def test_shared_subtrees_fold_and_check_like_the_recursive_walks(seed):
    """The folds and checks handle each distinct node with two or more
    children once; on trees that reuse subtrees, with faults planted at one
    occurrence or at every occurrence of a node, they give the values, and
    the Rejected class, reason and path, of the walks that visit every
    occurrence."""
    rng = random.Random(seed)
    full = random_dag(rng)
    assert outcome(engine.check_full_tree, RUN_SYSTEM, full) == ("ok", None)
    for _ in range(rng.randint(1, 3)):
        plant = plant_fault if rng.random() < 0.5 else plant_shared_fault
        full = plant(rng, full)
        names = rebuilt(full, lambda node: node.label[1])
        elems = rebuilt(full, lambda node: node.label[0])
        for tree in (full, names):
            assert (tree.height(), tree.size()) == (rec_height(tree), rec_size(tree))
        assert full.map_labels(repr) == rec_map_labels(full, repr)
        assert engine.erase_names(full) == rec_map_labels(full, lambda label: label[0]) == elems
        assert engine.erase_elements(full) == rec_map_labels(full, lambda label: label[1]) == names
        assert outcome(engine.infer_full_tree, RUN_SYSTEM, names) == outcome(
            ref_infer_full_tree, RUN_SYSTEM, names
        )
        assert outcome(engine.check_full_tree, RUN_SYSTEM, full) == outcome(
            ref_check_full_tree, RUN_SYSTEM, full
        )
        assert outcome(engine.check_elem_tree, RUN_SYSTEM, elems) == outcome(
            ref_check_elem_tree, RUN_SYSTEM, elems
        )


# ------------------------------------------------------------ str-method tokens

# whitespace to str.split and to the regex `\s` alike, the rarer kinds included
_SPACES = " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000"


def spaced(rng: random.Random, text: str) -> str:
    """`text` with runs of any kind of whitespace before and after its
    punctuation and at its ends."""

    def gap(_):
        return "".join(rng.choices(_SPACES, k=rng.choice((0, 0, 1, 3))))

    return re.sub(r"(?=[(),])|(?<=[(),])|^|$", gap, text)


@given(_seeds)
def test_str_method_tokens_match_the_token_regex(seed):
    """The reader splits its tokens off by str methods.  On name-tree texts
    spaced with every kind of whitespace, whose names may hold `\u200b` or
    `\x00` (not whitespace), as written, with one more whitespace character
    anywhere (it may split a name) and broken, the tokens are the token
    regex's, and the tree or ParseError is both earlier readers'."""
    rng = random.Random(seed)
    tree = random_name_tree(rng).map_labels(
        lambda name: rng.choice((name, name, f"{name}\u200b", f"\x00{name}"))
    )
    text = spaced(rng, print_name_tree(tree))
    assert parse_name_tree(text) == tree
    at = rng.randrange(len(text) + 1)
    split = text[:at] + rng.choice(_SPACES) + text[at:]
    for edited in (text, split, broken(rng, text), spaced(rng, broken(rng, text))):
        assert trees._name_tokens(edited) == _NAME_TOKEN_RE.findall(edited)
        got = outcome(parse_name_tree, edited)
        assert got == outcome(rec_parse_name_tree, edited) == outcome(ref_parse_name_tree, edited), edited


def test_regex_whitespace_is_str_whitespace():
    """The premise of the str-method tokens, checked on the running Python:
    `\\s`, str.isspace and str.split agree on every code point."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    assert "".join(every.split()) == "".join(c for c in every if not c.isspace())


def test_a_name_tree_is_tokenized_only_to_report_an_error(monkeypatch):
    built = []
    monkeypatch.setattr(trees, "tokenize", lambda *args: built.append(args) or tokenize(*args))
    assert print_name_tree(parse_name_tree(" f2( f2(f1()) ,g(a,b)) ")) == "f2(f2(f1), g(a, b))"
    assert built == []
    for text, message, position in (
        ("f2(f1", "expected ',' or ')'", 5),
        ("f2(f1))", "unexpected trailing input", 6),
        ("f2(,)", "expected a rule name", 3),
        ("f2(f1 f1)", "expected ',' or ')'", 6),
    ):
        with pytest.raises(ParseError) as info:
            parse_name_tree(text)
        expected = ([(text, _NAME_TOKEN_RE)], message, position)
        assert (built, info.value.message, info.value.position) == expected
        built.clear()


# ------------------------------------ str-method tokens of natded and recfun

def spaced_tokens(rng: random.Random, text: str, token_re) -> str:
    """`text` with runs of any kind of whitespace at the start and end of
    each token that `token_re` finds, and at its ends."""
    cuts = sorted({0, len(text)}.union(*((m.start(), m.end()) for m in token_re.finditer(text))))
    gaps = ("".join(rng.choices(_SPACES, k=rng.choice((0, 0, 1, 3)))) for _ in cuts)
    return "".join(text[a:b] + gap for a, b, gap in zip([0] + cuts, cuts, gaps)) + text[cuts[-1]:]


def sequent_tokens(text):
    """The tokens the sequent reader splits off `text`: those of its
    propositions' texts, with the `,` and `|-` between them."""
    if text.count("|-") != 1:
        return None
    context, conclusion = text.split("|-")
    tokens = []
    for part in context.split(",") if context.strip() else []:
        tokens += nd._tokens(part) + [","]
    return tokens[:-1] + ["|-"] + nd._tokens(conclusion)


def has_stray(text: str, token_re) -> bool:
    try:
        trees.tokenize(text, token_re)
    except ParseError:
        return True
    return False


def natded_texts(rng: random.Random) -> dict:
    """A proposition, a sequent, terms of both forms (one with an axiom
    that carries a context, one in parentheses) and a program."""
    props = [nd.print_prop(generators.prop(rng, 3)) for _ in range(3)]
    term = nd.print_term(generators.scheme_term(rng))
    return {
        "prop": props[0],
        "sequent": f"{', '.join(props[:rng.randint(0, 2)])} |- {props[2]}",
        "scheme": rng.choice((term, f"({term})", f"<{term}, axiom {{{props[0]}, {props[1]} | {props[2]}}}>")),
        "var": nd.print_term(generators.var_term(rng)),
        "program": rf.print_program(generators.program(rng, rng.randint(0, 3), rng.randint(0, 3))),
    }


_READERS = {  # the reader, the reference reader, the token regex and the reader's tokens
    "prop": (nd.parse_prop, ref_parse_prop, nd._TOKEN_RE, nd._tokens),
    "sequent": (nd.parse_sequent, ref_parse_sequent, nd._SEQUENT_TOKEN_RE, sequent_tokens),
    "scheme": (lambda t: nd.parse_term(t, "scheme"), lambda t: ref_parse_term(t, "scheme"), nd._TOKEN_RE, nd._tokens),
    "var": (lambda t: nd.parse_term(t, "var"), lambda t: ref_parse_term(t, "var"), nd._TOKEN_RE, nd._tokens),
    "program": (rf.parse_program, ref_parse_program, rf._PROGRAM_TOKEN_RE, rf._program_tokens),
}


@given(_seeds)
def test_natded_and_recfun_str_method_tokens_match_their_token_regexes(seed):
    """natded's and recfun's readers split their tokens off by str methods.
    On texts spaced with every kind of whitespace, as written, with one more
    whitespace character anywhere (it may split a token) and broken, the
    tokens are the token regex's wherever no character is stray, and the
    value or ParseError is the position-carrying reader's.  natded has one
    splitter, `_tokens`, for its propositions, terms and sequents' parts."""
    rng = random.Random(seed)
    for kind, text in natded_texts(rng).items():
        parse, reference, token_re, split = _READERS[kind]
        text = spaced_tokens(rng, text, token_re)
        assert outcome(parse, text) == outcome(reference, text) and parse(text), text
        at = rng.randrange(len(text) + 1)
        split_text = text[:at] + rng.choice(_SPACES) + text[at:]
        for edited in (text, split_text, broken(rng, text), spaced_tokens(rng, broken(rng, text), token_re)):
            if not has_stray(edited, token_re) and split(edited) is not None:
                assert split(edited) == token_re.findall(edited), edited
            assert outcome(parse, edited) == outcome(reference, edited), edited


def test_natded_and_recfun_texts_are_tokenized_only_to_report_an_error(monkeypatch):
    built = []
    monkeypatch.setattr(trees, "tokenize", lambda *args: built.append(args) or tokenize(*args))
    deriv = "|- P => P /\\ P  [imp-intro]\n  P |- P /\\ P  [and-intro]\n    P |- P\n    P |- P"
    nd.check_sequent_deriv(nd.parse_sequent_deriv(deriv))
    assert nd.print_prop(nd.parse_prop(" (P => Q) /\\ R ")) == "(P => Q) /\\ R"
    assert nd.print_sequent(nd.parse_sequent("P, Q|-P/\\Q")) == "P, Q |- P /\\ Q"
    for text in ("fun [P /\\ Q] <snd(hyp [P /\\ Q]), fst(hyp [P /\\ Q])>", "axiom {P, Q | (Q)}"):
        assert nd.print_term(nd.parse_term(text, "scheme")) == text.replace("(Q)", "Q")
    assert nd.print_term(nd.parse_term("fun x : P . (x)", "var")) == "fun x : P . x"
    assert rf.print_program(rf.parse_program("comp(succ ;proj^2_1)")) == "comp(succ; proj^2_1)"
    assert built == []
    for parse, text, message, position in (
        (nd.parse_prop, "P /\\ (Q", "expected ')'", 7),
        (nd.parse_prop, "P Q", "unexpected trailing input", 2),
        (nd.parse_sequent, "P, (Q |- R", "expected ')'", 6),
        (nd.parse_sequent, "P |- Q $", "unexpected character '$'", 7),
        (nd.parse_sequent, "P [ Q |- P", "unexpected trailing input", 2),
        (nd.parse_sequent, "P, Q : |- P", "unexpected trailing input", 5),
        (nd.parse_sequent, "P |- Q > R", "unexpected trailing input", 7),
        (lambda t: nd.parse_term(t, "scheme"), "fun [P] hyp P", "expected '['", 12),
        (lambda t: nd.parse_term(t, "var"), "fun x : P x", "expected '.'", 10),
        (rf.parse_program, "comp(succ, succ)", "expected ';'", 9),
    ):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert built and (info.value.message, info.value.position) == (message, position), text
        built.clear()
