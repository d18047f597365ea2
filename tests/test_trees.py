import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruletrees.errors import ParseError, format_path
from ruletrees.trees import Tree, parse_name_tree, print_name_tree, tokenize, tree_to_latex

CHAIN = Tree("f2", (Tree("f2", (Tree("f1"),)),))


def test_shape_queries():
    assert CHAIN.height() == 3
    assert CHAIN.size() == 3
    wide = Tree("r", (Tree("a"), Tree("b", (Tree("c"),))))
    assert wide.height() == 3
    assert wide.size() == 4
    assert Tree("x").height() == 1


def test_map_labels_keeps_shape():
    doubled = CHAIN.map_labels(lambda name: name * 2)
    assert doubled == Tree("f2f2", (Tree("f2f2", (Tree("f1f1"),)),))


def test_parse_basic_forms():
    assert parse_name_tree("f1") == Tree("f1")
    assert parse_name_tree("f1()") == Tree("f1")
    assert parse_name_tree("f2(f2(f1))") == CHAIN
    assert parse_name_tree("r(a, b(c))") == Tree("r", (Tree("a"), Tree("b", (Tree("c"),))))


def test_parse_ignores_spacing():
    assert parse_name_tree("  f2 ( f2( f1 ) )  ") == CHAIN
    assert parse_name_tree("r(a,b)") == parse_name_tree("r( a , b )")


def test_printer_emits_bare_nullary_form():
    assert print_name_tree(CHAIN) == "f2(f2(f1))"
    assert print_name_tree(Tree("f1")) == "f1"


@pytest.mark.parametrize(
    "text, position",
    [
        ("", 0),
        ("(", 0),
        ("f(", 2),
        ("f(a", 3),
        ("f(a,)", 4),
        ("f(,a)", 2),
        ("f)x", 1),
        ("f(a))", 4),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as info:
        parse_name_tree(text)
    assert info.value.position == position


def test_tokenize_skips_spaces_and_reports_stray_characters():
    token_re = re.compile(r"[a-z]+|[(),]")
    assert tokenize(" f (a)\t", token_re) == ["f", "(", "a", ")", ""]
    with pytest.raises(ParseError) as info:
        tokenize("f(a) ?", token_re)
    assert info.value.message == "unexpected character '?'"
    assert info.value.position == 5


_names = st.from_regex(r"[a-z][a-z0-9_^]{0,3}", fullmatch=True)
_trees = st.recursive(
    st.builds(Tree, _names),
    lambda kids: st.builds(
        lambda name, children: Tree(name, tuple(children)),
        _names,
        st.lists(kids, min_size=1, max_size=3),
    ),
    max_leaves=8,
)


@given(_trees)
def test_print_parse_round_trip(tree):
    assert parse_name_tree(print_name_tree(tree)) == tree


def test_latex_layout_nests_premises():
    rendered = tree_to_latex(CHAIN, lambda name: (name, "step"))
    assert rendered == "\\irule{\\irule{\\irule{}{f1}{step}}{f2}{step}}{f2}{step}"


def test_path_rendering():
    assert format_path(()) == "root"
    assert format_path((0, 1, 2)) == "0.1.2"
