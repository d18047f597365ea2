import random
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import generators
from ruletrees import natded as nd
from ruletrees.errors import ParseError, Rejected
from ruletrees.trees import Tree

P, Q, R = nd.Atom("P"), nd.Atom("Q"), nd.Atom("R")
PQ = nd.And(P, Q)

# the swap proof: from a conjunction, conclude the conjunction reversed
SWAP = nd.Lam(PQ, nd.Pair(nd.Snd(nd.Hyp(PQ)), nd.Fst(nd.Hyp(PQ))))
SWAP_TEXT = "fun [P /\\ Q] <snd(hyp [P /\\ Q]), fst(hyp [P /\\ Q])>"
SWAP_SEQ = nd.Sequent(frozenset(), nd.Imp(PQ, nd.And(Q, P)))
SWAP_VAR = nd.LamV("x1", PQ, nd.PairV(nd.SndV(nd.Var("x1")), nd.FstV(nd.Var("x1"))))

_CTX = frozenset({PQ})
_AXIOM = Tree((nd.Sequent(_CTX, PQ), nd.AXIOM))
SWAP_TREE = Tree(
    (SWAP_SEQ, nd.IMP_INTRO),
    (
        Tree(
            (nd.Sequent(_CTX, nd.And(Q, P)), nd.AND_INTRO),
            (
                Tree((nd.Sequent(_CTX, Q), nd.AND_ELIM2), (_AXIOM,)),
                Tree((nd.Sequent(_CTX, P), nd.AND_ELIM1), (_AXIOM,)),
            ),
        ),
    ),
)


# ---------------------------------------------------------------- propositions

def test_parse_prop_precedence_and_associativity():
    assert nd.parse_prop("P /\\ Q => Q /\\ P") == nd.Imp(PQ, nd.And(Q, P))
    assert nd.parse_prop("P /\\ Q /\\ R") == nd.And(P, nd.And(Q, R))
    assert nd.parse_prop("P => Q => R") == nd.Imp(P, nd.Imp(Q, R))
    assert nd.parse_prop("P => Q /\\ R") == nd.Imp(P, nd.And(Q, R))
    assert nd.parse_prop("(P => Q) /\\ R") == nd.And(nd.Imp(P, Q), R)


def test_print_prop_uses_minimal_parentheses():
    assert nd.print_prop(nd.And(nd.And(P, Q), R)) == "(P /\\ Q) /\\ R"
    assert nd.print_prop(nd.And(P, nd.And(Q, R))) == "P /\\ Q /\\ R"
    assert nd.print_prop(nd.Imp(nd.Imp(P, Q), R)) == "(P => Q) => R"
    assert nd.print_prop(nd.And(P, nd.Imp(Q, R))) == "P /\\ (Q => R)"
    assert nd.print_prop(nd.Imp(P, nd.And(Q, R))) == "P => Q /\\ R"


def test_parse_prop_errors():
    with pytest.raises(ParseError):
        nd.parse_prop("P /\\")
    with pytest.raises(ParseError):
        nd.parse_prop("P Q")
    with pytest.raises(ParseError):
        nd.parse_prop("fun")
    with pytest.raises(ParseError):
        nd.parse_prop("(P => Q")
    with pytest.raises(ParseError) as info:
        nd.parse_prop("P ? Q")
    assert info.value.position == 2


def test_parentheses_nest_without_limit():
    assert sys.getrecursionlimit() < 5_000
    assert nd.parse_prop("(" * 5_000 + "P" + ")" * 5_000) == P
    text = "(" * 5_000 + "P /\\ Q" + ")" * 4_999
    with pytest.raises(ParseError) as info:
        nd.parse_prop(text)
    assert (info.value.message, info.value.position) == ("expected ')'", len(text))


_props = st.recursive(
    st.sampled_from((P, Q, R)),
    lambda inner: st.builds(nd.And, inner, inner) | st.builds(nd.Imp, inner, inner),
    max_leaves=8,
)


@given(_props)
def test_prop_print_parse_round_trip(prop):
    assert nd.parse_prop(nd.print_prop(prop)) == prop


# -------------------------------------------------------------------- sequents

def test_parse_sequent():
    assert nd.parse_sequent("P, Q |- P") == nd.Sequent(frozenset({P, Q}), P)
    assert nd.parse_sequent("|- P => P") == nd.Sequent(frozenset(), nd.Imp(P, P))
    assert nd.parse_sequent("P/\\Q|-Q") == nd.Sequent(frozenset({PQ}), Q)
    with pytest.raises(ParseError):
        nd.parse_sequent("P => Q")
    with pytest.raises(ParseError):
        nd.parse_sequent("P |- Q |- R")


@pytest.mark.parametrize(
    "text, position, message",
    [
        ("P, Q @ |- R", 5, "unexpected character '@'"),
        ("P |- Q @", 7, "unexpected character '@'"),
        ("P,,Q |- R", 2, "expected a proposition"),
        ("P (|- Q", 2, "unexpected trailing input"),
    ],
)
def test_parse_sequent_errors_count_from_the_start_of_the_input(text, position, message):
    with pytest.raises(ParseError) as info:
        nd.parse_sequent(text)
    assert (info.value.position, info.value.message) == (position, message)


def test_print_sequent_sorts_context():
    assert nd.print_sequent(nd.Sequent(frozenset({Q, P}), R)) == "P, Q |- R"
    assert nd.print_sequent(SWAP_SEQ) == "|- P /\\ Q => Q /\\ P"
    assert str(SWAP_SEQ) == "|- P /\\ Q => Q /\\ P"


# --------------------------------------------------------- sequent derivations

def test_check_sequent_deriv_accepts_the_swap_proof():
    nd.check_sequent_deriv(SWAP_TREE)
    # untagged nodes may be justified by any rule
    nd.check_sequent_deriv(SWAP_TREE.map_labels(lambda label: label[0]))


def test_check_sequent_deriv_rejections():
    swapped = Tree(
        (nd.Sequent(_CTX, nd.And(Q, P)), nd.AND_INTRO),
        (
            Tree((nd.Sequent(_CTX, P), nd.AND_ELIM1), (_AXIOM,)),
            Tree((nd.Sequent(_CTX, Q), nd.AND_ELIM2), (_AXIOM,)),
        ),
    )
    with pytest.raises(Rejected) as info:
        nd.check_sequent_deriv(swapped)
    assert info.value.path == ()
    assert "conjuncts in order" in str(info.value)

    bad_axiom = Tree((nd.Sequent(frozenset({P}), Q), nd.AXIOM))
    with pytest.raises(Rejected):
        nd.check_sequent_deriv(bad_axiom)
    # no rule justifies it either, so the untagged node fails too
    with pytest.raises(Rejected) as info:
        nd.check_sequent_deriv(Tree(nd.Sequent(frozenset({P}), Q)))
    assert "no rule justifies" in str(info.value)

    retagged = Tree((nd.Sequent(_CTX, Q), nd.AND_ELIM1), (_AXIOM,))
    with pytest.raises(Rejected) as info:
        nd.check_sequent_deriv(retagged)
    assert "selected conjunct" in str(info.value)

    with pytest.raises(Rejected) as info:
        nd.check_sequent_deriv(Tree((nd.Sequent(_CTX, PQ), "cut")))
    assert "unknown rule" in str(info.value)

    grown = Tree(
        (SWAP_SEQ, nd.IMP_INTRO),
        (Tree((nd.Sequent(frozenset({PQ, R}), nd.And(Q, P)), None),),),
    )
    with pytest.raises(Rejected) as info:
        nd.check_sequent_deriv(grown)
    assert info.value.path == ()

    # the remaining reasons of and-intro and imp-intro, and those that name
    # the conclusion or the rule, each at the root
    cases = [
        (bad_axiom, "conclusion Q is not in the context"),
        (
            Tree((nd.Sequent(_CTX, Q), nd.AND_ELIM2), (_AXIOM, _AXIOM)),
            "and-elim2 takes one premise",
        ),
        (Tree((nd.Sequent(_CTX, PQ), "{concl}")), "unknown rule {concl}"),
        (
            Tree((nd.Sequent(_CTX, P), nd.AND_INTRO), (_AXIOM, _AXIOM)),
            "conclusion is not a conjunction",
        ),
        (
            Tree((nd.Sequent(frozenset(), PQ), nd.AND_INTRO), (_AXIOM, _AXIOM)),
            "premise contexts differ from the conclusion's",
        ),
        (
            Tree((nd.Sequent(_CTX, P), nd.IMP_INTRO), (_AXIOM,)),
            "conclusion is not an implication",
        ),
        (
            Tree((nd.Sequent(frozenset(), nd.Imp(PQ, Q)), nd.IMP_INTRO), (_AXIOM,)),
            "premise does not conclude the consequent",
        ),
    ]
    for tree, reason in cases:
        with pytest.raises(Rejected) as info:
            nd.check_sequent_deriv(tree)
        assert (info.value.path, info.value.reason) == ((), reason)


# ------------------------------------------------------------- scheme checking

def test_check_scheme_swap():
    assert nd.check_scheme(SWAP) == SWAP_SEQ
    assert nd.scheme_sequent_tree(SWAP) == SWAP_TREE


def test_check_scheme_under_root_context():
    assert nd.check_scheme(nd.Hyp(P), [P, Q]) == nd.Sequent(frozenset({P, Q}), P)
    seq = nd.check_scheme(nd.Fst(nd.Hyp(PQ)), [PQ])
    assert seq == nd.Sequent(frozenset({PQ}), P)


def test_check_scheme_rejections_carry_paths():
    with pytest.raises(nd.HypNotInContext) as info:
        nd.check_scheme(nd.Lam(P, nd.Hyp(Q)))
    assert info.value.path == (0,)

    with pytest.raises(nd.ShapeMismatch) as info:
        nd.check_scheme(nd.Lam(P, nd.Fst(nd.Hyp(P))))
    assert info.value.path == (0,)
    assert "needs a conjunction" in str(info.value)

    with pytest.raises(nd.HypNotInContext) as info:
        nd.check_scheme(nd.Pair(nd.Hyp(P), nd.Hyp(Q)), [P])
    assert info.value.path == (1,)


def test_full_context_axioms():
    term = nd.Pair(
        nd.HypFull(frozenset({Q, R}), P),
        nd.HypFull(frozenset({P, R}), Q),
    )
    seq = nd.check_scheme(term, [P, Q, R])
    assert seq == nd.Sequent(frozenset({P, Q, R}), PQ)
    assert nd.print_sequent(seq) == "P, Q, R |- P /\\ Q"

    with pytest.raises(nd.ContextMismatch) as info:
        nd.check_scheme(nd.HypFull(frozenset({Q}), P), [P])
    assert info.value.path == ()
    # the carried context may drop the proved proposition itself
    assert nd.check_scheme(nd.HypFull(frozenset(), P), [P]) == nd.Sequent(
        frozenset({P}), P
    )


# ---------------------------------------------------------------- var checking

def test_check_var_swap():
    assert nd.check_var(SWAP_VAR) == SWAP_SEQ
    assert nd.var_sequent_tree(SWAP_VAR) == SWAP_TREE


def test_var_references_resolve_to_the_innermost_binder():
    shadowed = nd.LamV("x", P, nd.LamV("x", Q, nd.Var("x")))
    assert nd.check_var(shadowed) == nd.Sequent(
        frozenset(), nd.Imp(P, nd.Imp(Q, Q))
    )


def test_unbound_variables_are_rejected():
    with pytest.raises(nd.UnboundVariable):
        nd.check_var(nd.Var("x"))
    # root hypotheses have no names, so they cannot be referenced
    with pytest.raises(nd.UnboundVariable):
        nd.check_var(nd.Var("x"), [P])
    with pytest.raises(nd.UnboundVariable) as info:
        nd.check_var(nd.LamV("x", P, nd.PairV(nd.Var("x"), nd.Var("y"))))
    assert info.value.path == (0, 1)


# ----------------------------------------------------------------- conversions

def test_scheme_to_var_names_binders_in_preorder():
    assert nd.scheme_to_var(SWAP) == SWAP_VAR
    split = nd.Pair(nd.Lam(P, nd.Hyp(P)), nd.Lam(Q, nd.Hyp(Q)))
    assert nd.scheme_to_var(split) == nd.PairV(
        nd.LamV("x1", P, nd.Var("x1")), nd.LamV("x2", Q, nd.Var("x2"))
    )


def test_scheme_to_var_picks_the_innermost_matching_binder():
    nested = nd.Lam(P, nd.Lam(P, nd.Hyp(P)))
    assert nd.scheme_to_var(nested) == nd.LamV(
        "x1", P, nd.LamV("x2", P, nd.Var("x2"))
    )


def test_scheme_to_var_requires_a_matching_binder():
    with pytest.raises(nd.NoMatchingBinder) as info:
        nd.scheme_to_var(nd.Lam(P, nd.Hyp(Q)))
    assert info.value.path == (0,)
    with pytest.raises(nd.NoMatchingBinder):
        nd.scheme_to_var(nd.HypFull(frozenset(), P))


def test_var_to_scheme():
    assert nd.var_to_scheme(SWAP_VAR) == SWAP
    shadowed = nd.LamV("x", P, nd.LamV("x", Q, nd.Var("x")))
    assert nd.var_to_scheme(shadowed) == nd.Lam(P, nd.Lam(Q, nd.Hyp(Q)))
    with pytest.raises(nd.UnboundVariable):
        nd.var_to_scheme(nd.Var("x"))


# --------------------------------------------------------------------- parsing

def test_parse_term_scheme():
    assert nd.parse_term(SWAP_TEXT, "scheme") == SWAP
    assert nd.parse_term("axiom {Q, R | P}", "scheme") == nd.HypFull(
        frozenset({Q, R}), P
    )
    assert nd.parse_term("axiom {| P}", "scheme") == nd.HypFull(frozenset(), P)
    assert nd.parse_term("((hyp [P]))", "scheme") == nd.Hyp(P)


def test_parse_term_var():
    text = "fun x1 : P /\\ Q . <snd(x1), fst(x1)>"
    assert nd.parse_term(text, "var") == SWAP_VAR


def test_parse_term_form_errors():
    with pytest.raises(ParseError):
        nd.parse_term("hyp [P]", "var")
    with pytest.raises(ParseError):
        nd.parse_term("axiom {| P}", "var")
    with pytest.raises(ParseError):
        nd.parse_term("x", "scheme")
    with pytest.raises(ParseError):
        nd.parse_term("fun x : P  x", "var")
    with pytest.raises(ParseError):
        nd.parse_term("fun fst : P . fst", "var")
    with pytest.raises(ValueError):
        nd.parse_term("x", "tree")


@pytest.mark.parametrize(
    "text, position",
    [("hyp [P", 6), ("fst hyp [P]", 4), ("fun [P] <hyp [P], >", 18)],
)
def test_parse_term_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as info:
        nd.parse_term(text, "scheme")
    assert info.value.position == position


def test_a_stray_character_after_a_term_past_the_recursion_limit_is_reported():
    """The reader runs out of stack before it reaches the `$`; `read_text`
    then reports the stray character, not the RecursionError."""
    text = "fun [P] " + "fst(<" * 700 + "hyp [P]" + ", hyp [P]>)" * 700 + " $"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        with pytest.raises(ParseError) as info:
            nd.parse_term(text, "scheme")
    finally:
        sys.setrecursionlimit(limit)
    assert (info.value.message, info.value.position) == ("unexpected character '$'", 11_216)
    assert isinstance(info.value.__context__, RecursionError)


@pytest.mark.parametrize("value", [P, (1, 2)], ids=["atom", "tuple"])
def test_print_term_refuses_what_is_not_a_term(value):
    with pytest.raises(TypeError, match=rf"^not a term: {re.escape(repr(value))}$"):
        nd.print_term(value)


def test_print_term():
    assert nd.print_term(SWAP) == SWAP_TEXT
    assert nd.print_term(SWAP_VAR) == "fun x1 : P /\\ Q . <snd(x1), fst(x1)>"
    assert (
        nd.print_term(nd.HypFull(frozenset({Q, R}), P)) == "axiom {Q, R | P}"
    )


# ------------------------------------------------- sequent derivation files

DERIV_TEXT = """\
# conjunction commutes
|- P /\\ Q => Q /\\ P  [imp-intro]
  P /\\ Q |- Q /\\ P  [and-intro]
    P /\\ Q |- Q  [and-elim2]
      P /\\ Q |- P /\\ Q  [axiom]

    P /\\ Q |- P  [and-elim1]
      P /\\ Q |- P /\\ Q  [axiom]
"""


def test_parse_sequent_deriv():
    assert nd.parse_sequent_deriv(DERIV_TEXT) == SWAP_TREE


def _print_sequent_deriv(tree: Tree) -> str:
    """The indented file form: one sequent a line, two spaces a level,
    and the rule name, if any, in brackets after it."""
    lines = []
    for path, node in generators.preorder(tree):
        seq, tag = node.label
        suffix = f"  [{tag}]" if tag is not None else ""
        lines.append("  " * len(path) + nd.print_sequent(seq) + suffix)
    return "\n".join(lines)


def test_sequent_deriv_round_trip():
    assert nd.parse_sequent_deriv(_print_sequent_deriv(SWAP_TREE)) == SWAP_TREE
    untagged = SWAP_TREE.map_labels(lambda label: (label[0], None))
    assert nd.parse_sequent_deriv(_print_sequent_deriv(untagged)) == untagged


def test_parse_sequent_deriv_errors():
    with pytest.raises(ParseError):
        nd.parse_sequent_deriv("")
    with pytest.raises(ParseError):
        nd.parse_sequent_deriv("  |- P => P")
    with pytest.raises(ParseError):
        nd.parse_sequent_deriv("|- P => P\n P |- P")
    with pytest.raises(ParseError):
        nd.parse_sequent_deriv("|- P => P\n    P |- P")
    with pytest.raises(ParseError):
        nd.parse_sequent_deriv("|- P => P\n|- Q => Q")


def _props_in(tree: Tree) -> list:
    """Every proposition in the sequents of `tree`, their parts included."""
    seqs = [node.label[0] for _, node in generators.preorder(tree)]
    stack = [p for seq in seqs for p in (*seq.ctx, seq.concl)]
    found = []
    while stack:
        found.append(stack.pop())
        if not isinstance(found[-1], nd.Atom):
            stack += found[-1]
    return found


def test_equal_propositions_in_one_sequent_file_are_one_object():
    text = "\n".join((
        "|- P /\\ Q => Q /\\ P",
        "  P/\\Q |- ( Q ) /\\ (P)",
        "    P /\\ Q,(P/\\Q) |-Q",
        "      P /\\ Q |- P /\\ Q",
        "    P /\\ Q |- P",
        "      P /\\ Q |- P /\\ Q",
    ))
    tree = nd.parse_sequent_deriv(text)
    assert tree == SWAP_TREE.map_labels(lambda label: (label[0], None))
    first = {}
    for prop in _props_in(tree):
        assert first.setdefault(prop, prop) is prop
    assert set(first) == {P, Q, PQ, nd.And(Q, P), nd.Imp(PQ, nd.And(Q, P))}


def test_sequent_files_share_no_proposition_across_calls():
    first, second = nd.parse_sequent_deriv(DERIV_TEXT), nd.parse_sequent_deriv(DERIV_TEXT)
    assert first == second == SWAP_TREE
    assert not {id(p) for p in _props_in(first)} & {id(p) for p in _props_in(second)}


def _props_read(value) -> list:
    """Every proposition in a term, sequent or proposition, parts included."""
    stack, found = [value], []
    while stack:
        item = stack.pop()
        if isinstance(item, (nd.Atom, nd.And, nd.Imp)):
            found.append(item)
        if isinstance(item, (tuple, frozenset)):
            stack += item
    return found


# each reader, a text that repeats a proposition, and its distinct propositions
SHARING_READS = [
    (
        lambda text: nd.parse_term(text, "scheme"),
        "fun [P /\\ Q] <snd(hyp [P /\\ Q]), axiom {(P) /\\ Q, Q | P/\\Q}>",
        {P, Q, PQ},
    ),
    (
        lambda text: nd.parse_term(text, "var"),
        "fun x : P /\\ Q . fun y : (P /\\ Q) => Q . <fst(x), y>",
        {P, Q, PQ, nd.Imp(PQ, Q)},
    ),
    (nd.parse_prop, "(P /\\ Q) => P /\\ (Q)", {P, Q, PQ, nd.Imp(PQ, PQ)}),
    (nd.parse_sequent, "P /\\ Q, Q |- (P /\\ Q) /\\ Q", {P, Q, PQ, nd.And(PQ, Q)}),
]


@pytest.mark.parametrize("read, text, distinct", SHARING_READS, ids=["scheme", "var", "prop", "sequent"])
def test_equal_propositions_in_one_read_are_one_object(read, text, distinct):
    first = {}
    for prop in _props_read(read(text)):
        assert first.setdefault(prop, prop) is prop
    assert set(first) == distinct


@pytest.mark.parametrize("read, text, distinct", SHARING_READS, ids=["scheme", "var", "prop", "sequent"])
def test_reads_share_no_proposition_across_calls(read, text, distinct):
    first, second = read(text), read(text)
    assert first == second
    assert not {id(p) for p in _props_read(first)} & {id(p) for p in _props_read(second)}


@pytest.mark.parametrize(
    "form, text, word, position",
    [
        ("scheme", "hyp [fun]", "fun", 5),
        ("scheme", "fun [hyp] hyp [hyp]", "hyp", 5),
        ("var", "fun x : fst . x", "fst", 8),
        ("scheme", "axiom {| snd}", "snd", 9),
        ("scheme", "axiom {P | axiom}", "axiom", 11),
    ],
)
def test_a_reserved_word_is_no_atom_annotation(form, text, word, position):
    with pytest.raises(ParseError) as info:
        nd.parse_term(text, form)
    assert (info.value.message, info.value.position) == (f"{word} is reserved", position)


def test_a_node_renders_a_proposition_only_for_a_reason(monkeypatch):
    """A node that checks renders nothing, tagged or not; an untagged node
    that fails renders its sequent once, for its reason."""
    calls = []
    print_prop = nd.print_prop
    monkeypatch.setattr(nd, "print_prop", lambda *args: calls.append(args) or print_prop(*args))
    untagged = SWAP_TREE.map_labels(lambda label: (label[0], None))
    nd.check_sequent_deriv(untagged)
    nd.check_sequent_deriv(SWAP_TREE)
    assert calls == []
    leaf = Tree((nd.Sequent(frozenset({P}), PQ), None))
    with pytest.raises(Rejected) as info:
        nd.check_sequent_deriv(leaf)
    assert info.value.reason == "no rule justifies P |- P /\\ Q"
    assert [args[0] for args in calls] == [PQ, P, Q, P]  # print_sequent: conclusion, then context


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("|- P => P\n  P |- P\n  P |- P ^ Q", 3, "unexpected character '^'"),
        ("|- P => P\n  P, P\n", 2, "a sequent needs exactly one |-"),
        # the first stray character, though an earlier proposition fails too
        ("|- P => P\n  P |- P\n  P Q, R ^ |- P", 3, "unexpected character '^'"),
    ],
)
def test_sequent_deriv_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError) as info:
        nd.parse_sequent_deriv(text)
    assert info.value.message == f"line {line}: {message}"
    assert info.value.position == line


# ------------------------------------------------------------------ properties

_seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(_seeds)
def test_generated_scheme_terms_check(seed):
    rng = random.Random(seed)
    term = generators.scheme_term(rng)
    tree = nd.scheme_sequent_tree(term)
    assert tree.label[0].ctx == frozenset()
    nd.check_sequent_deriv(tree)
    nd.check_sequent_deriv(tree.map_labels(lambda label: label[0]))


@given(_seeds)
def test_generated_var_terms_check(seed):
    rng = random.Random(seed)
    term = generators.var_term(rng)
    tree = nd.var_sequent_tree(term)
    nd.check_sequent_deriv(tree)


@given(_seeds)
def test_conversion_preserves_the_proved_sequent(seed):
    rng = random.Random(seed)
    scheme = generators.scheme_term(rng)
    named = nd.scheme_to_var(scheme)
    assert nd.check_var(named) == nd.check_scheme(scheme)
    assert nd.var_to_scheme(named) == scheme

    also_named = generators.var_term(rng)
    back = nd.var_to_scheme(also_named)
    assert nd.check_scheme(back) == nd.check_var(also_named)
    renamed = nd.scheme_to_var(back)
    assert nd.check_var(renamed) == nd.check_var(also_named)


def _var_paths(term, path=()):
    """The paths of a var term's variable occurrences, in preorder."""
    if isinstance(term, nd.Var):
        return [path]
    if isinstance(term, nd.PairV):
        return _var_paths(term.left, path + (0,)) + _var_paths(term.right, path + (1,))
    return _var_paths(term.body, path + (0,))


def _unbind_at(term, path):
    """`term` with the variable at `path` renamed to a name no generated binder uses."""
    if not path:
        return nd.Var("w")
    if isinstance(term, nd.LamV):
        return nd.LamV(term.name, term.prop, _unbind_at(term.body, path[1:]))
    if isinstance(term, nd.PairV):
        if path[0] == 0:
            return nd.PairV(_unbind_at(term.left, path[1:]), term.right)
        return nd.PairV(term.left, _unbind_at(term.right, path[1:]))
    return type(term)(_unbind_at(term.body, path[1:]))


def _outcome(check, term):
    try:
        return check(term)
    except Rejected as err:
        return type(err), err.path


@given(_seeds)
def test_var_check_matches_scheme_check_of_the_erasure(seed):
    rng = random.Random(seed)
    term = generators.var_term(rng)
    path = rng.choice(_var_paths(term))
    broken = _unbind_at(term, path)

    def erased(t):
        return nd.scheme_sequent_tree(nd.var_to_scheme(t))

    assert _outcome(nd.var_sequent_tree, term) == _outcome(erased, term)
    assert _outcome(nd.var_sequent_tree, broken) == (nd.UnboundVariable, path)
    assert _outcome(erased, broken) == (nd.UnboundVariable, path)


def test_one_walk_checks_both_term_forms():
    # a named binder over a scheme hypothesis: both binders extend the context
    mixed = nd.LamV("x", P, nd.Hyp(P))
    assert nd.check_scheme(mixed) == nd.Sequent(frozenset(), nd.Imp(P, P))
    assert nd.PairV(nd.Var("x"), nd.Var("y")) == nd.Pair(nd.Var("x"), nd.Var("y"))
    with pytest.raises(TypeError):
        nd.check_var("x")


def test_var_check_reports_the_first_error_in_preorder():
    # the shape error at (0,) comes before the unbound y at (1,); erasing
    # the names first would report y
    term = nd.PairV(nd.FstV(nd.LamV("x", P, nd.Var("x"))), nd.Var("y"))
    with pytest.raises(nd.ShapeMismatch) as info:
        nd.check_var(term)
    assert info.value.path == (0,)


@given(_seeds)
def test_weakening_for_plain_hypothesis_terms(seed):
    rng = random.Random(seed)
    base_ctx = frozenset({rng.choice(generators.ATOMS)}) if rng.random() < 0.5 else frozenset()
    term = generators.scheme_term(rng, ctx=base_ctx)
    seq = nd.check_scheme(term, base_ctx)
    extra = generators.prop(rng)
    weakened = nd.check_scheme(term, base_ctx | {extra})
    assert weakened.concl == seq.concl
    assert weakened.ctx == seq.ctx | {extra}


@given(_seeds)
def test_term_print_parse_round_trip(seed):
    rng = random.Random(seed)
    scheme = generators.scheme_term(rng)
    assert nd.parse_term(nd.print_term(scheme), "scheme") == scheme
    named = generators.var_term(rng)
    assert nd.parse_term(nd.print_term(named), "var") == named


# ------------------------------------------------------ provability, decided

def _provable(ctx: frozenset, concl) -> bool:
    """`ctx |- concl` in the five rules, decided apart from the checkers.
    With no =>-elimination a normal proof puts its introductions over
    eliminations that only take halves of conjunctions out of `ctx`."""
    halves, stack = set(), list(ctx)
    while stack:
        prop = stack.pop()
        if prop not in halves:
            halves.add(prop)
            if isinstance(prop, nd.And):
                stack += prop
    if concl in halves:
        return True
    if isinstance(concl, nd.And):
        return _provable(ctx, concl.left) and _provable(ctx, concl.right)
    return isinstance(concl, nd.Imp) and _provable(ctx | {concl.left}, concl.right)


def test_provable_decides_known_sequents():
    assert _provable(*nd.parse_sequent("|- P /\\ Q => Q /\\ P"))
    assert not _provable(*nd.parse_sequent("|- ((P => Q) => P) => P"))  # Peirce's law
    assert not _provable(*nd.parse_sequent("P => Q, P |- Q"))  # no =>-elimination
    tree = nd.parse_sequent_deriv(DERIV_TEXT)
    nd.check_sequent_deriv(tree)
    assert all(_provable(*node.label[0]) for _, node in generators.preorder(tree))


@given(_seeds)
def test_every_accepted_sequent_is_provable(seed):
    rng = random.Random(seed)
    ctx = frozenset({generators.prop(rng)}) if rng.random() < 0.5 else frozenset()
    term = generators.scheme_term(rng, ctx=ctx)
    assert _provable(*nd.check_scheme(term, ctx))
    assert _provable(*nd.check_var(generators.var_term(rng)))
    # the sequent file of the term's derivation, untagged at random nodes
    tree = nd.scheme_sequent_tree(term, ctx).map_labels(
        lambda label: label if rng.random() < 0.5 else (label[0], None)
    )
    parsed = nd.parse_sequent_deriv(_print_sequent_deriv(tree))
    nd.check_sequent_deriv(parsed)
    assert all(_provable(*node.label[0]) for _, node in generators.preorder(parsed))


# ----------------------------------------------------------------------- latex

def test_latex_rendering():
    assert nd.sequent_to_latex(nd.Sequent(frozenset({P}), Q)) == "P \\vdash Q"
    assert nd.sequent_to_latex(SWAP_SEQ) == "\\vdash P \\wedge Q \\Rightarrow Q \\wedge P"
    # each syntax sorts the context by its own rendering
    mixed = nd.Sequent(frozenset({PQ, nd.Imp(P, Q)}), P)
    assert nd.print_sequent(mixed) == "P /\\ Q, P => Q |- P"
    assert nd.sequent_to_latex(mixed) == "P \\Rightarrow Q, P \\wedge Q \\vdash P"
