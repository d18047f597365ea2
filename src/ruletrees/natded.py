"""Natural deduction for conjunction and implication.

Sequents over the fragment built from atoms, `/\\` and `=>` are proved
with five rules: axiom, and-intro, and-elim1, and-elim2, imp-intro.
Contexts are sets, so inserting a hypothesis twice is a no-op.

Proofs come in three interchangeable forms:

  * sequent derivations: trees labeled with sequents, optionally tagged
    with the rule used at each node;
  * scheme terms: proof terms whose hypotheses carry the proposition
    they use (`hyp [A]`) or a full context (`axiom {G | A}`);
  * named-variable terms: ordinary lambda terms with annotated binders,
    where a variable refers to the innermost enclosing binder.

The two term forms share the pair and projection constructors (`PairV`,
`FstV` and `SndV` are aliases of `Pair`, `Fst` and `Snd`); they differ
only in their binders and leaves.  One walk checks both: contexts flow
from the root toward the leaves (each binder extends the context with
its annotation, and a named binder also makes its name visible), then
conclusions flow back from the leaves to the root.

Every reader splits its text into tokens by str methods and reads them
by index (`trees.read_text`), scanning it with its token regex only to
report an error.  Propositions are read by one loop, by precedence
climbing, so their parentheses nest without limit; terms by one frame per
level.
Every reader builds each distinct proposition once per call, so equal
propositions in one term, sequent or file are one object and compare at
identity; a sequent-derivation file also reads each distinct line and
proposition text once.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, Union

from .errors import ParseError, Rejected
from .trees import Tree, check_nodes, read_text, record, tokenize


# ---------------------------------------------------------------- propositions

Atom = record("Atom", "name")
And = record("And", "left", "right")
Imp = record("Imp", "left", "right")

Prop = Union[Atom, And, Imp]


class Sequent(record("Sequent", "ctx", "concl")):
    __slots__ = ()

    def __str__(self) -> str:
        return print_sequent(self)


# ----------------------------------------------------------------- proof terms

Hyp = record("Hyp", "prop", doc="Use of a hypothesis, identified by the proposition it proves.")
HypFull = record("HypFull", "ctx", "prop", doc="Use of a hypothesis carrying its full context explicitly.")
Lam = record("Lam", "prop", "body", doc="Implication introduction; the binder is the proposition alone.")
Pair = record("Pair", "left", "right")
Fst = record("Fst", "body")
Snd = record("Snd", "body")

SchemeTerm = Union[Hyp, HypFull, Lam, Pair, Fst, Snd]

Var = record("Var", "name")
LamV = record("LamV", "name", "prop", "body")

PairV, FstV, SndV = Pair, Fst, Snd

VarTerm = Union[Var, LamV, Pair, Fst, Snd]

Term = Union[SchemeTerm, VarTerm]


# ------------------------------------------------------------------- rule names

AXIOM = "axiom"
AND_INTRO = "and-intro"
AND_ELIM1 = "and-elim1"
AND_ELIM2 = "and-elim2"
IMP_INTRO = "imp-intro"

ND_RULES = (AXIOM, AND_INTRO, AND_ELIM1, AND_ELIM2, IMP_INTRO)


class HypNotInContext(Rejected):
    pass


class ShapeMismatch(Rejected):
    pass


class ContextMismatch(Rejected):
    pass


class UnboundVariable(Rejected):
    pass


class NoMatchingBinder(Rejected):
    pass


# --------------------------------------------------------- sequent derivations

def split_label(label) -> tuple[Sequent, str | None]:
    if isinstance(label, Sequent):
        return label, None
    seq, name = label
    return seq, name


def _rule_matches(name: str, seq: Sequent, premises: tuple[Sequent, ...]) -> str | None:
    """None when the rule justifies the node, otherwise a reason, as a
    `str.format` template of `name` and `concl` (the conclusion's
    rendering): a verdict renders nothing."""
    if name == AXIOM:
        if premises:
            return "axiom takes no premises"
        if seq.concl not in seq.ctx:
            return "conclusion {concl} is not in the context"
        return None
    if name == AND_INTRO:
        if len(premises) != 2:
            return "and-intro takes two premises"
        if not isinstance(seq.concl, And):
            return "conclusion is not a conjunction"
        left, right = premises
        if left.ctx != seq.ctx or right.ctx != seq.ctx:
            return "premise contexts differ from the conclusion's"
        if left.concl != seq.concl.left or right.concl != seq.concl.right:
            return "premises do not conclude the two conjuncts in order"
        return None
    if name == AND_ELIM1 or name == AND_ELIM2:
        if len(premises) != 1:
            return "{name} takes one premise"
        (premise,) = premises
        if premise.ctx != seq.ctx:
            return "premise context differs from the conclusion's"
        if not isinstance(premise.concl, And):
            return "premise does not conclude a conjunction"
        kept = premise.concl.left if name == AND_ELIM1 else premise.concl.right
        if kept != seq.concl:
            return "conclusion is not the selected conjunct"
        return None
    if name == IMP_INTRO:
        if len(premises) != 1:
            return "imp-intro takes one premise"
        if not isinstance(seq.concl, Imp):
            return "conclusion is not an implication"
        (premise,) = premises
        if premise.ctx != seq.ctx | {seq.concl.left}:
            return "premise context must extend the conclusion's with the antecedent"
        if premise.concl != seq.concl.right:
            return "premise does not conclude the consequent"
        return None
    return "unknown rule {name}"


def check_sequent_deriv(tree: Tree) -> None:
    """Check a sequent-labeled derivation.

    A node tagged with a rule name must be justified by that rule; an
    untagged node may be justified by any of the five.  Raises Rejected
    at the first failing node in preorder.
    """

    def check(node: Tree) -> None:
        seq, name = split_label(node.label)
        premises = tuple(split_label(c.label)[0] for c in node.children)
        if name is not None:
            reason = _rule_matches(name, seq, premises)
            if reason is not None:
                raise Rejected((), reason.format(name=name, concl=print_prop(seq.concl)))
        elif all(_rule_matches(r, seq, premises) is not None for r in ND_RULES):
            raise Rejected((), f"no rule justifies {print_sequent(seq)}")

    check_nodes(tree, check)


# ----------------------------------------------------- scheme and var checking

def scheme_sequent_tree(term: Term, root_ctx: Iterable[Prop] = ()) -> Tree:
    """Reconstruct the sequent derivation a scheme or named-variable term denotes.

    Labels are (Sequent, rule name) pairs; the root context defaults to empty,
    and its hypotheses have no names.  Each node holds its own context, so n
    binders of distinct propositions give contexts of sizes 1 to n, quadratic
    in n whatever the walk does.  Raises Rejected (HypNotInContext,
    ContextMismatch, UnboundVariable, or ShapeMismatch) at the offending node.
    """
    return _sequent_node(term, frozenset(root_ctx), ())


def _node(ctx: frozenset, concl: Prop, rule: str, children: tuple = ()) -> Tree:
    """`Tree((Sequent(ctx, concl), rule), children)`."""
    return tuple.__new__(Tree, ((tuple.__new__(Sequent, (ctx, concl)), rule), children))


def _sequent_node(term: Term, ctx: frozenset, binders: tuple) -> Tree:
    """The sequent tree of `term` under `ctx`.  `binders` chains the named
    binders around it as (name, proposition, outer binders), `()` for none:
    a binder pushes one triple, and a variable walks it innermost first."""
    if isinstance(term, Hyp):
        if term.prop not in ctx:
            raise HypNotInContext(
                (),
                f"hypothesis {print_prop(term.prop)} is not in the context "
                f"{render_context(ctx)}",
            )
        return _node(ctx, term.prop, AXIOM)
    if isinstance(term, HypFull):
        expected = term.ctx | {term.prop}
        if ctx != expected:
            raise ContextMismatch(
                (),
                f"axiom carries context {render_context(expected)} but sits "
                f"under {render_context(ctx)}",
            )
        return _node(ctx, term.prop, AXIOM)
    if isinstance(term, Var):
        while binders:
            name, prop, binders = binders
            if name == term.name:
                return _node(ctx, prop, AXIOM)
        raise UnboundVariable((), f"variable {term.name} is not bound")
    at = 0  # the index of the subterm checked, for the path of its Rejected
    try:
        if isinstance(term, (Lam, LamV)):
            if isinstance(term, LamV):
                binders = (term.name, term.prop, binders)
            body = _sequent_node(term.body, ctx | {term.prop}, binders)
            concl = tuple.__new__(Imp, (term.prop, body.label[0].concl))
            return _node(ctx, concl, IMP_INTRO, (body,))
        if isinstance(term, Pair):
            left = _sequent_node(term.left, ctx, binders)
            at = 1
            right = _sequent_node(term.right, ctx, binders)
            concl = tuple.__new__(And, (left.label[0].concl, right.label[0].concl))
            return _node(ctx, concl, AND_INTRO, (left, right))
        if not isinstance(term, (Fst, Snd)):
            raise TypeError(f"not a proof term: {term!r}")
        body = _sequent_node(term.body, ctx, binders)
    except Rejected as err:
        err.path = (at, *err.path)
        raise
    got = body.label[0].concl
    if not isinstance(got, And):
        which = "fst" if isinstance(term, Fst) else "snd"
        raise ShapeMismatch((), f"{which} needs a conjunction, got {print_prop(got)}")
    if isinstance(term, Fst):
        return _node(ctx, got.left, AND_ELIM1, (body,))
    return _node(ctx, got.right, AND_ELIM2, (body,))


def check_scheme(term: Term, root_ctx: Iterable[Prop] = ()) -> Sequent:
    """Check a scheme or named-variable term and return the sequent it proves."""
    return scheme_sequent_tree(term, root_ctx).label[0]


var_sequent_tree, check_var = scheme_sequent_tree, check_scheme


# ------------------------------------------------------------------ conversions

def _rebind(term: Term, names: Iterator[str] | None, binders: tuple = ()) -> Term:
    """`term` rebuilt in the other term form, one frame per level: a
    scheme term as a var term, naming each binder `next(names)`, or, with
    `names` None, a var term as a scheme term.  `binders` chains the
    enclosing binders as in `_sequent_node`; a leaf takes the innermost
    that carries its proposition (`hyp`) or name (a variable).  A Rejected
    raised below gets the index of its subterm on its path."""
    to_var = names is not None
    if isinstance(term, Hyp if to_var else Var):
        while binders:
            name, prop, binders = binders
            if (prop if to_var else name) == term[0]:  # the leaf's one field
                return tuple.__new__(Var, (name,)) if to_var else tuple.__new__(Hyp, (prop,))
        if to_var:
            raise NoMatchingBinder((), f"no enclosing binder proves {print_prop(term.prop)}")
        raise UnboundVariable((), f"variable {term.name} is not bound")
    if to_var and isinstance(term, HypFull):
        raise NoMatchingBinder((), "an axiom with an explicit context names no binder")
    at = 0  # as in _sequent_node
    try:
        if isinstance(term, Lam if to_var else LamV):
            name = next(names) if to_var else term.name
            body = _rebind(term.body, names, (name, term.prop, binders))
            if to_var:
                return tuple.__new__(LamV, (name, term.prop, body))
            return tuple.__new__(Lam, (term.prop, body))
        if isinstance(term, Pair):
            left = _rebind(term.left, names, binders)
            at = 1
            return tuple.__new__(Pair, (left, _rebind(term.right, names, binders)))
        if isinstance(term, (Fst, Snd)):
            return tuple.__new__(type(term), (_rebind(term.body, names, binders),))
    except Rejected as err:
        err.path = (at, *err.path)
        raise
    raise TypeError(f"not a {'scheme' if to_var else 'variable'} term: {term!r}")


def scheme_to_var(term: SchemeTerm) -> VarTerm:
    """Name the binders of a checking, `axiom`-free scheme term.

    Binders are named x1, x2, ... in preorder; each hypothesis becomes
    the variable of the innermost enclosing binder annotated with its
    proposition.  Raises NoMatchingBinder when no such binder exists.
    """
    return _rebind(term, (f"x{i}" for i in itertools.count(1)))


def var_to_scheme(term: VarTerm) -> SchemeTerm:
    """Forget binder names, keeping only the propositions they prove."""
    return _rebind(term, None)


# -------------------------------------------------------------------- printing

# (conjunction, implication, turnstile) in each output syntax
_TEXT = ("/\\", "=>", "|-")
_LATEX = ("\\wedge", "\\Rightarrow", "\\vdash")


def print_prop(prop: Prop, symbols=_TEXT) -> str:
    """Minimal-parentheses rendering; `/\\` binds tighter than `=>`,
    both associate to the right."""
    if isinstance(prop, Atom):
        return prop.name
    conj, imp, _ = symbols
    left = print_prop(prop.left, symbols)
    right = print_prop(prop.right, symbols)
    if isinstance(prop, And):
        if isinstance(prop.left, (And, Imp)):
            left = f"({left})"
        if isinstance(prop.right, Imp):
            right = f"({right})"
        return f"{left} {conj} {right}"
    if isinstance(prop.left, Imp):
        left = f"({left})"
    return f"{left} {imp} {right}"


def _join_context(ctx: Iterable[Prop], symbols=_TEXT) -> str:
    """The context's propositions, sorted by their rendering in `symbols`."""
    return ", ".join(sorted(print_prop(p, symbols) for p in ctx))


def render_context(ctx: Iterable[Prop]) -> str:
    return "{" + _join_context(ctx) + "}"


def print_sequent(seq: Sequent, symbols=_TEXT) -> str:
    concl = f"{symbols[2]} {print_prop(seq.concl, symbols)}"
    if not seq.ctx:
        return concl
    return f"{_join_context(seq.ctx, symbols)} {concl}"


def print_term(term: Term) -> str:
    if isinstance(term, Hyp):
        return f"hyp [{print_prop(term.prop)}]"
    if isinstance(term, HypFull):
        return f"axiom {{{_join_context(term.ctx)} | {print_prop(term.prop)}}}"
    if isinstance(term, Lam):
        return f"fun [{print_prop(term.prop)}] {print_term(term.body)}"
    if isinstance(term, Var):
        return term.name
    if isinstance(term, LamV):
        return f"fun {term.name} : {print_prop(term.prop)} . {print_term(term.body)}"
    if isinstance(term, Pair):
        return f"<{print_term(term.left)}, {print_term(term.right)}>"
    if isinstance(term, Fst):
        return f"fst({print_term(term.body)})"
    if isinstance(term, Snd):
        return f"snd({print_term(term.body)})"
    raise TypeError(f"not a term: {term!r}")


# --------------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(
    r"""/\\
      | =>
      | [A-Za-z_][A-Za-z0-9_]*
      | [()\[\]{}<>,|:.]
    """,
    re.VERBOSE,
)  # identifiers are the one kind of token that `str.isidentifier` accepts

_RESERVED = {"fun", "hyp", "axiom", "fst", "snd"}


def _tokens(text: str) -> list[str]:
    """`_TOKEN_RE.findall(text)` by str methods, for every natded text: a
    proposition, a term or a sequent's part.  A stray character stays in a
    token that no reader takes.  Past whitespace the regex takes ASCII
    alone, and `str.isidentifier` more, so a text with any other character
    fails."""
    if not text.isascii() and not "".join(text.split()).isascii():
        raise ParseError("a character outside ASCII", 0)
    text = (
        text.replace("[", " [ ").replace("]", " ] ").replace("{", " { ").replace("}", " } ")
        .replace("<", " < ").replace(">", " > ").replace(",", " , ").replace("|", " | ")
        .replace(":", " : ").replace(".", " . ")
    )  # each `>` has had a space put before it, so "= >" was "=>"
    text = text.replace("= >", " => ").replace("(", " ( ").replace(")", " ) ")
    return text.replace("/\\", " /\\ ").split()


# how tightly each operator binds, and the node it builds; "(" binds 0
_BINDS = {"/\\": (2, And), "=>": (1, Imp)}


def _read_prop(tokens: list[str], i: int, nodes: dict) -> tuple[Prop, int]:
    """Read a proposition from `tokens[i:]` by precedence climbing, in one
    loop; return it and the index of the token after it.

    `pending` holds, above a bottom entry that nothing closes, the open
    parentheses and the operators still waiting for their right operand,
    each as (binding, class, left operand).  An operator first closes the
    pending ones that bind tighter, so `/\\` binds tighter than `=>` and
    both associate to the right.  Each node is built once per `nodes`
    dict, which keeps it under its class and the `id`s of its parts (an
    atom under its name): every reader passes one dict per call, so equal
    propositions read in one call are one object.  A ParseError raised
    here has the index of the failing token as its position.
    """
    pending = [(-1, None, None)]
    while True:
        while tokens[i] == "(":
            pending.append((0, None, None))
            i += 1
        token = tokens[i]
        if not token.isidentifier() or token in _RESERVED:
            raise ParseError(f"{token} is reserved" if token in _RESERVED else "expected a proposition", i)
        prop = nodes.get(token) or nodes.setdefault(token, tuple.__new__(Atom, (token,)))
        i += 1
        while True:  # `prop` is a whole operand: close what binds tighter than the next token
            binds, op = _BINDS.get(tokens[i], (0, None))
            while pending[-1][0] > binds:
                _, cls, left = pending.pop()
                key = (cls, id(left), id(prop))
                prop = nodes.get(key) or nodes.setdefault(key, tuple.__new__(cls, (left, prop)))
            if op is not None:
                pending.append((binds, op, prop))
                i += 1
                break
            if len(pending) == 1:
                return prop, i
            if tokens[i] != ")":
                raise ParseError("expected ')'", i)
            pending.pop()
            i += 1


def _annotation(tokens: list[str], i: int, opener: str, closer: str, nodes: dict) -> tuple[Prop, int]:
    """The proposition between `opener`, at `tokens[i]`, and `closer`, read
    into `nodes`, and the index after the closer."""
    if tokens[i] != opener:
        raise ParseError(f"expected '{opener}'", i)
    prop, i = _read_prop(tokens, i + 1, nodes)
    if tokens[i] != closer:
        raise ParseError(f"expected '{closer}'", i)
    return prop, i + 1


def parse_prop(text: str) -> Prop:
    return read_text(text, _TOKEN_RE, _tokens, _read_prop, {})


def _read_term(tokens: list[str], i: int, scheme: bool, nodes: dict) -> tuple[Term, int]:
    """Read a scheme term (`scheme` true) or a var term from `tokens[i:]`,
    one frame per level, with its propositions read into `nodes`; return it
    and the index of the token after it.  A ParseError raised here has the
    index of the failing token."""
    token = tokens[i]
    if token == "hyp" or token == "axiom":
        if not scheme:
            raise ParseError(f"{token} occurs only in scheme terms", i)
        if token == "hyp":
            prop, i = _annotation(tokens, i + 1, "[", "]", nodes)
            return tuple.__new__(Hyp, (prop,)), i
        if tokens[i + 1] != "{":
            raise ParseError("expected '{'", i + 1)
        ctx, i = [], i + 2
        if tokens[i] != "|":
            prop, i = _read_prop(tokens, i, nodes)
            ctx.append(prop)
            while tokens[i] == ",":
                prop, i = _read_prop(tokens, i + 1, nodes)
                ctx.append(prop)
        prop, i = _annotation(tokens, i, "|", "}", nodes)
        return tuple.__new__(HypFull, (frozenset(ctx), prop)), i
    if token == "fun":
        if scheme:
            prop, i = _annotation(tokens, i + 1, "[", "]", nodes)
            body, i = _read_term(tokens, i, True, nodes)
            return tuple.__new__(Lam, (prop, body)), i
        name = tokens[i + 1]
        if not name.isidentifier():
            raise ParseError("expected a variable name", i + 1)
        if name in _RESERVED:
            raise ParseError(f"{name} is reserved", i + 1)
        prop, i = _annotation(tokens, i + 2, ":", ".", nodes)
        body, i = _read_term(tokens, i, False, nodes)
        return tuple.__new__(LamV, (name, prop, body)), i
    if token == "<":
        left, i = _read_term(tokens, i + 1, scheme, nodes)
        if tokens[i] != ",":
            raise ParseError("expected ','", i)
        right, i = _read_term(tokens, i + 1, scheme, nodes)
        if tokens[i] != ">":
            raise ParseError("expected '>'", i)
        return tuple.__new__(Pair, (left, right)), i + 1
    if token == "fst" or token == "snd":
        if tokens[i + 1] != "(":
            raise ParseError("expected '('", i + 1)
        body, i = _read_term(tokens, i + 2, scheme, nodes)
        if tokens[i] != ")":
            raise ParseError("expected ')'", i)
        return tuple.__new__(Fst if token == "fst" else Snd, (body,)), i + 1
    if token == "(":
        term, i = _read_term(tokens, i + 1, scheme, nodes)
        if tokens[i] != ")":
            raise ParseError("expected ')'", i)
        return term, i + 1
    if not token.isidentifier():
        raise ParseError("expected a term", i)
    if scheme:
        raise ParseError("bare variables occur only in var terms", i)
    return tuple.__new__(Var, (token,)), i + 1


def parse_term(text: str, form: str):
    """Parse a proof term; `form` selects the scheme or var syntax."""
    if form not in ("scheme", "var"):
        raise ValueError(f"unknown term form {form!r}")
    return read_text(text, _TOKEN_RE, _tokens, _read_term, form == "scheme", {})


# ------------------------------------------------- sequent derivation files

_SEQUENT_TOKEN_RE = re.compile(r"\|-|" + _TOKEN_RE.pattern, re.VERBOSE)


def _read_sequent(text: str, props: dict, nodes: dict) -> Sequent:
    """`parse_sequent(text)`, with each distinct stripped proposition text
    read once into `props` and each distinct node built once into `nodes`.
    No proposition holds `,` or `|-`, so str methods split `text` into
    proposition texts, and `_tokens` splits each.  A text that fails is
    not read again: its error moves to its offset in `text`, after the
    first stray character in `text` if any."""
    parts = text.split("|-")
    if len(parts) != 2:
        raise ParseError("a sequent needs exactly one |-", 0)
    texts = parts[0].split(",") if parts[0].strip() else []
    texts.append(parts[1])
    read = []
    for part in texts:
        key = part.strip()
        prop = props.get(key)
        if prop is None:
            try:
                prop = props[key] = read_text(part, _TOKEN_RE, _tokens, _read_prop, nodes)
            except ParseError as err:
                tokenize(text, _SEQUENT_TOKEN_RE)  # a stray character anywhere in `text` first
                k = len(read)  # `part` is texts[k]; its offset in `text`:
                start = sum(len(t) + 1 for t in texts[:k])  # past a `,` each
                if k == len(texts) - 1:  # the conclusion, at the end
                    start = len(text) - len(part)
                raise ParseError(err.message, start + err.position) from None
        read.append(prop)
    return tuple.__new__(Sequent, (frozenset(read[:-1]), read[-1]))


def parse_sequent(text: str) -> Sequent:
    """Parse `P, Q |- R`: a comma-separated, possibly empty context, the
    turnstile and a conclusion."""
    return _read_sequent(text, {}, {})


_TAG_RE = re.compile(r"\[([^\[\]]+)\]\s*$")


def parse_sequent_deriv(text: str) -> Tree:
    """Parse an indented sequent derivation.

    One node per line, children indented two more spaces than their
    parent, an optional trailing `[rule]` tag, `#` comments allowed.
    The nesting depth is unbounded: the tree is built without recursion.
    Each distinct line and proposition is read once per call, so equal
    propositions in one file are one object.
    """
    entries, sequents, props, nodes = [], {}, {}, {}  # for this call only
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" "))
        if indent % 2 != 0:
            raise ParseError(f"line {lineno}: indentation must be even", lineno)
        content = line.strip()
        tag = None
        match = _TAG_RE.search(content)
        if match:
            tag = match.group(1).strip()
            content = content[: match.start()].rstrip()
        seq = sequents.get(content)
        if seq is None:
            try:
                seq = sequents[content] = _read_sequent(content, props, nodes)
            except ParseError as err:
                raise ParseError(f"line {lineno}: {err.message}", lineno) from None
        entries.append((lineno, indent // 2, seq, tag))
    if not entries:
        raise ParseError("empty derivation", 0)
    if entries[0][1] != 0:
        raise ParseError(f"line {entries[0][0]}: the root must not be indented", entries[0][0])
    for (_, above, _, _), (lineno, level, _, _) in zip(entries, entries[1:]):
        if level == 0:
            raise ParseError(f"line {lineno}: a derivation has a single root", lineno)
        if level > above + 1:
            raise ParseError(f"line {lineno}: indentation jumps a level", lineno)
    stack = []  # (level, tree) of the lines read whose parent is not yet read
    for _, level, seq, tag in reversed(entries):
        children = []
        while stack and stack[-1][0] > level:
            children.append(stack.pop()[1])
        stack.append((level, Tree((seq, tag), tuple(children))))
    return stack[0][1]


# ----------------------------------------------------------------------- latex

def sequent_to_latex(seq: Sequent) -> str:
    return print_sequent(seq, _LATEX)
