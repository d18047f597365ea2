import random
import re
import sys
import time
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

import generators
from ruletrees import errors
from ruletrees import recfun as rf
from ruletrees.errors import ArityMismatch, ParseError, ResourceLimit
from ruletrees.natded import Atom
from ruletrees.trees import Tree, parse_name_tree, print_name_tree

ADD_TWO = rf.Comp(rf.Succ(), (rf.Succ(),))
# addition by recursion on the first argument
ADD = rf.Rec(rf.Proj(1, 1), rf.Comp(rf.Succ(), (rf.Proj(3, 2),)))
# multiplication by recursion on the first argument, adding x at each step
MUL = rf.Rec(rf.Zero(1), rf.Comp(ADD, (rf.Proj(3, 2), rf.Proj(3, 3))))
# search: on input x, the least y with x = 0 (so: 0 at 0, divergent elsewhere)
SEARCH = rf.Mu(rf.Proj(2, 1))


# ----------------------------------------------------------------- formation

def test_arities_of_the_base_functions():
    assert rf.arity_of(rf.Zero(0)) == 0
    assert rf.arity_of(rf.Zero(3)) == 3
    assert rf.arity_of(rf.Succ()) == 1
    assert rf.arity_of(rf.Proj(3, 2)) == 3


def test_arities_of_the_combinators():
    assert rf.arity_of(ADD_TWO) == 1
    assert rf.arity_of(ADD) == 2
    assert rf.arity_of(SEARCH) == 1
    assert rf.arity_of(rf.Mu(rf.Succ())) == 0


ILL_FORMED = [
    (rf.Zero(-1), ()),
    (rf.Proj(2, 3), ()),
    (rf.Proj(1, 0), ()),
    (rf.Comp(rf.Succ(), ()), ()),
    (rf.Comp(rf.Succ(), (rf.Zero(1), rf.Zero(1))), ()),
    (rf.Comp(rf.Zero(2), (rf.Zero(1), rf.Zero(2))), ()),
    (rf.Comp(rf.Succ(), (rf.Proj(1, 2),)), (1,)),
    (rf.Rec(rf.Zero(1), rf.Zero(1)), ()),
    (rf.Rec(rf.Proj(2, 3), rf.Zero(4)), (0,)),
    (rf.Mu(rf.Zero(0)), ()),
    (rf.Mu(rf.Mu(rf.Proj(1, 1))), ()),
]


@pytest.mark.parametrize("program, path", ILL_FORMED)
def test_ill_formed_programs_are_located(program, path):
    with pytest.raises(rf.IllFormed) as info:
        rf.arity_of(program)
    assert info.value.path == path


@pytest.mark.parametrize("program, path", ILL_FORMED)
def test_evaluate_rejects_ill_formed_programs_like_arity_of(program, path):
    with pytest.raises(rf.IllFormed) as expected:
        rf.arity_of(program)
    # formation is checked before the argument count
    with pytest.raises(rf.IllFormed) as info:
        rf.evaluate(program, (), 10)
    assert (info.value.path, info.value.reason) == (path, expected.value.reason)


# ---------------------------------------------------------------- evaluation

def test_base_function_values():
    assert rf.evaluate(rf.Zero(0), (), 10) == 0
    assert rf.evaluate(rf.Zero(2), (5, 7), 10) == 0
    assert rf.evaluate(rf.Succ(), (41,), 10) == 42
    assert rf.evaluate(rf.Proj(3, 2), (4, 5, 6), 10) == 5


def test_composition_and_recursion():
    assert [rf.evaluate(ADD_TWO, (n,), 100) for n in range(5)] == [2, 3, 4, 5, 6]
    assert rf.evaluate(ADD, (3, 1), 100) == 4
    assert rf.evaluate(ADD, (0, 9), 100) == 9
    assert rf.evaluate(ADD, (7, 5), 100) == 12


def test_minimization():
    assert rf.evaluate(SEARCH, (0,), 100) == 0
    assert rf.evaluate(SEARCH, (3,), 100) is None


def test_mu_searches_from_zero_upward():
    # countdown(y) = max(2 - y, 0), so the least zero of the body is y = 2
    pred = rf.Rec(rf.Zero(0), rf.Proj(2, 1))
    two = rf.Comp(rf.Succ(), (rf.Comp(rf.Succ(), (rf.Zero(0),)),))
    countdown = rf.Rec(two, rf.Comp(pred, (rf.Proj(2, 2),)))
    ignore_x = rf.Comp(countdown, (rf.Proj(2, 2),))
    assert rf.evaluate(rf.Mu(ignore_x), (9,), 1000) == 2


def test_argument_validation():
    with pytest.raises(ArityMismatch):
        rf.evaluate(rf.Succ(), (1, 2), 10)
    with pytest.raises(ValueError):
        rf.evaluate(rf.Succ(), (-1,), 10)
    with pytest.raises(ValueError):
        rf.evaluate(rf.Succ(), (1,), 0)
    with pytest.raises(rf.IllFormed):
        rf.evaluate(rf.Proj(2, 3), (1, 2), 10)


def test_fuel_accounting_is_exact():
    # one unit per composition entry
    assert rf.evaluate(ADD_TWO, (3,), 1) == 5
    # rec charges entry plus one per unfolding; the step composition pays too
    assert rf.evaluate(ADD, (3, 1), 7) == 4
    assert rf.evaluate(ADD, (3, 1), 6) is None
    # mu charges entry plus one per probe
    assert rf.evaluate(SEARCH, (0,), 2) == 0
    assert rf.evaluate(SEARCH, (0,), 1) is None
    # past sys.maxsize, range(fuel) gives a long-integer iterator
    assert rf.evaluate(ADD, (2, 3), 2**70) == 5
    # addition in closed form charges its entry even with no step to take
    assert rf.evaluate(ADD, (0, 9), 1) == 9
    # ... and inside another recursion, at the tree walk's exact threshold
    budget = _RefBudget(10**6)
    assert _tree_walk_eval(MUL, (20, 20), budget) == 400
    spent = 10**6 - budget.remaining
    assert rf.evaluate(MUL, (20, 20), spent) == 400
    assert rf.evaluate(MUL, (20, 20), spent - 1) is None
    # 2**64 steps, which no loop finishes, at two units each
    assert rf.evaluate(ADD, (2**64, 1), 2**65 + 1) == 2**64 + 1
    assert rf.evaluate(ADD, (2**64, 1), 2**65) is None


@pytest.mark.parametrize("fuel", [5, 2**70])
def test_a_failed_spend_leaves_the_fuel_exhausted(fuel):
    """As the loop's last next(fuel) would, on short and long range iterators."""
    it = iter(range(fuel))
    run, _ = rf._compile(ADD, it)
    with pytest.raises(StopIteration):
        run((fuel, 1))
    assert it.__length_hint__() == 0


def test_a_450_deep_composition_chain_evaluates():
    # fits the default recursion limit only if evaluating costs at most
    # two Python frames per nesting level
    program = rf.Proj(1, 1)
    for _ in range(450):
        program = rf.Comp(rf.Succ(), (program,))
    assert rf.evaluate(program, (7,), 450) == 457
    assert rf.evaluate(program, (7,), 449) is None


def test_mu_convention_switch():
    # the search variable is appended last, so the body sees x first
    assert rf.evaluate(SEARCH, (3,), 100) is None


_seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(_seeds)
def test_more_fuel_never_changes_a_value(seed):
    rng = random.Random(seed)
    program = generators.program(rng, rng.randint(1, 2), rng.randint(1, 3))
    args = tuple(rng.randint(0, 4) for _ in range(rf.arity_of(program)))
    small = rng.randint(1, 60)
    large = small + rng.randint(1, 60)
    first = rf.evaluate(program, args, small)
    second = rf.evaluate(program, args, large)
    if first is not None:
        assert second == first


class _RefExhausted(Exception):
    pass


class _RefBudget:
    def __init__(self, amount):
        self.remaining = amount

    def spend(self):
        if self.remaining <= 0:
            raise _RefExhausted
        self.remaining -= 1


def _tree_walk_eval(program, args, budget):
    """Reference interpreter: walks the program tree and calls
    `budget.spend()` at each charge point that `evaluate` documents."""
    if isinstance(program, rf.Zero):
        return 0
    if isinstance(program, rf.Succ):
        return args[0] + 1
    if isinstance(program, rf.Proj):
        return args[program.index - 1]
    if isinstance(program, rf.Comp):
        budget.spend()
        values = tuple(_tree_walk_eval(g, args, budget) for g in program.inner)
        return _tree_walk_eval(program.outer, values, budget)
    if isinstance(program, rf.Rec):
        budget.spend()
        count, rest = args[0], args[1:]
        acc = _tree_walk_eval(program.base, rest, budget)
        for j in range(count):
            budget.spend()
            acc = _tree_walk_eval(program.step, (j, acc) + rest, budget)
        return acc
    if isinstance(program, rf.Mu):
        budget.spend()
        y = 0
        while True:
            budget.spend()
            if _tree_walk_eval(program.body, args + (y,), budget) == 0:
                return y
            y += 1
    raise TypeError(f"not a program: {program!r}")


@given(_seeds)
def test_fuel_threshold_matches_the_tree_walking_interpreter(seed):
    rng = random.Random(seed)
    arity = rng.randint(0, 2)
    program = generators.program(rng, arity, rng.randint(1, 3))
    _assert_fuel_threshold(program, tuple(rng.randint(0, 4) for _ in range(arity)))


def _with_addition_steps(program, rng):
    """`program` with each recursion's step, with probability 0.7, made the
    successor of its accumulator: the step `evaluate` runs in closed form."""
    if isinstance(program, rf.Comp):
        inner = tuple(_with_addition_steps(g, rng) for g in program.inner)
        return rf.Comp(_with_addition_steps(program.outer, rng), inner)
    if isinstance(program, rf.Mu):
        return rf.Mu(_with_addition_steps(program.body, rng))
    if not isinstance(program, rf.Rec):
        return program
    base = _with_addition_steps(program.base, rng)
    if rng.random() < 0.7:
        return rf.Rec(base, rf.Comp(rf.Succ(), (rf.Proj(rf.arity_of(base) + 2, 2),)))
    return rf.Rec(base, _with_addition_steps(program.step, rng))


@given(_seeds)
def test_fuel_threshold_matches_the_tree_walk_with_addition_steps_planted(seed):
    rng = random.Random(seed)
    arity = rng.randint(0, 2)
    program = _with_addition_steps(generators.program(rng, arity, rng.randint(1, 3)), rng)
    _assert_fuel_threshold(program, tuple(rng.randint(0, 6) for _ in range(arity)))


def _assert_fuel_threshold(program, args):
    """The least fuel under which the tree walk returns a value gives `evaluate`
    that value, one unit less gives None; past a cap of 3 000, both diverge."""
    cap = 3000
    budget = _RefBudget(cap)
    try:
        value = _tree_walk_eval(program, args, budget)
    except _RefExhausted:
        assert rf.evaluate(program, args, cap) is None
        return
    spent = cap - budget.remaining
    # the least fuel that returns the value, and one unit less
    assert rf.evaluate(program, args, max(spent, 1)) == value
    if spent > 1:
        assert rf.evaluate(program, args, spent - 1) is None


def _loop_eval(program, args):
    """Fuel-free reference interpreter for minimization-free programs."""
    if isinstance(program, rf.Zero):
        return 0
    if isinstance(program, rf.Succ):
        return args[0] + 1
    if isinstance(program, rf.Proj):
        return args[program.index - 1]
    if isinstance(program, rf.Comp):
        return _loop_eval(program.outer, [_loop_eval(g, args) for g in program.inner])
    if isinstance(program, rf.Rec):
        acc = _loop_eval(program.base, args[1:])
        for j in range(args[0]):
            acc = _loop_eval(program.step, [j, acc, *args[1:]])
        return acc
    raise AssertionError("minimization-free programs only")


@given(_seeds)
def test_evaluation_matches_a_straight_loop_interpreter(seed):
    rng = random.Random(seed)
    arity = rng.randint(1, 3)
    program = generators.program(rng, arity, rng.randint(1, 3), allow_mu=False)
    for _ in range(5):
        args = tuple(rng.randint(0, 6) for _ in range(arity))
        expected = _loop_eval(program, args)
        got = rf.evaluate(program, args, 10**6)
        assert got == expected


@pytest.mark.parametrize(
    "wrap, value",
    [
        (lambda p: rf.Comp(rf.Succ(), (p,)), 701),
        (lambda p: rf.Comp(rf.Proj(2, 1), (p, rf.Proj(1, 1))), 1),
    ],
    ids=["one-inner", "two-inner"],
)
def test_a_700_level_chain_of_compositions_runs_at_the_default_limit(wrap, value):
    # one frame per level: comp runs its inner programs in a plain loop, where
    # a list comprehension would take a second frame (3.10, 3.11) and stop
    # near 500 levels
    program = rf.Succ()
    for _ in range(700):
        program = wrap(program)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert rf.evaluate(program, (0,), 1_000) == value
    finally:
        sys.setrecursionlimit(limit)


# ------------------------------------------------------------------- diagonal

def test_diagonal_structure():
    diag = rf.diagonal(rf.Proj(2, 1))
    assert diag == rf.Comp(
        rf.Mu(rf.Proj(2, 1)),
        (rf.Comp(rf.Proj(2, 1), (rf.Proj(1, 1), rf.Proj(1, 1))),),
    )
    assert rf.arity_of(diag) == 1
    with pytest.raises(ArityMismatch):
        rf.diagonal(rf.Succ())


def test_diagonal_converges_exactly_where_the_oracle_vanishes():
    # oracle (x, x) -> x: the diagonal halts only at 0
    diag = rf.diagonal(rf.Proj(2, 1))
    assert rf.evaluate(diag, (0,), 500) == 0
    for x in (1, 2, 3):
        assert rf.evaluate(diag, (x,), 500) is None
    # a constant-zero oracle makes it total
    total = rf.diagonal(rf.Zero(2))
    assert all(rf.evaluate(total, (x,), 500) == 0 for x in range(4))
    # a constant-one oracle makes it nowhere defined
    empty = rf.diagonal(rf.Comp(rf.Succ(), (rf.Zero(2),)))
    assert all(rf.evaluate(empty, (x,), 500) is None for x in range(4))


# ------------------------------------------------------------------ numbering

def test_pairing_walks_the_diagonals():
    # independent oracle: enumerate pairs along anti-diagonals and count
    code = 0
    for diagonal_sum in range(12):
        for b in range(diagonal_sum + 1):
            assert rf._pair(diagonal_sum - b, b) == code
            code += 1


@given(st.integers(min_value=0, max_value=10**6))
def test_unpairing_inverts_pairing(z):
    a, b = rf._unpair(z)
    assert a >= 0 and b >= 0
    assert rf._pair(a, b) == z


class _Int(int):
    pass


def test_code_values():
    assert rf.godel(rf.Zero(0)) == 0
    assert rf.godel(rf.Succ()) == 1
    assert rf.godel(rf.Zero(1)) == 2
    assert rf.godel(rf.Proj(1, 1)) == 25
    assert rf.godel(ADD_TWO) == 272
    # inner programs given as a list, and a numeral of an int subclass
    assert rf.godel(rf.Comp(rf.Succ(), [rf.Succ()])) == 272
    assert rf.godel(rf.Proj(_Int(1), _Int(1))) == 25


def test_codes_decode_back():
    for program in (rf.Zero(2), rf.Succ(), rf.Proj(3, 2), ADD_TWO, ADD, SEARCH,
                    rf.diagonal(rf.Proj(2, 1))):
        assert rf.ungodel(rf.godel(program)) == program


def test_numbering_is_injective_on_small_programs():
    programs = generators.all_programs(4)
    assert len(programs) > 250
    codes = [rf.godel(p) for p in programs]
    assert len(set(codes)) == len(codes)
    for program, code in zip(programs, codes):
        assert rf.ungodel(code) == program


def test_ill_formed_programs_have_no_code():
    with pytest.raises(rf.IllFormed):
        rf.godel(rf.Proj(2, 3))
    with pytest.raises(rf.IllFormed):
        rf.godel(rf.Comp(rf.Succ(), ()))


@pytest.mark.parametrize(
    "code",
    [
        -1,
        21,   # constructor tag out of range
        26,   # successor with a nonzero payload
        12,   # projection with index out of range
        6,    # composition with an empty inner list
    ],
)
def test_numbers_that_code_nothing(code):
    message = {
        -1: "codes are nonnegative",
        21: "unknown constructor tag 6",
        26: "successor carries no payload, got 5",
        12: "decodes to an ill-formed program "
        "(projection index 1 out of range for arity 0 at root)",
        6: "a composition lists at least one inner program",
    }[code]
    with pytest.raises(rf.DecodeError, match=f"^{re.escape(message)}$"):
        rf.ungodel(code)


@given(_seeds)
def test_numbering_round_trip_on_random_programs(seed):
    rng = random.Random(seed)
    program = generators.program(rng, rng.randint(0, 3), rng.randint(1, 3))
    assert rf.ungodel(rf.godel(program)) == program


@given(_seeds)
def test_spine_arity_is_arity_of_on_well_formed_programs(seed):
    rng = random.Random(seed)
    program = generators.program(rng, rng.randint(0, 3), rng.randint(0, 3))
    assert rf._spine_arity(program) == rf.arity_of(program)


def test_spine_arity_is_arity_of_on_small_programs():
    for program in generators.all_programs(4):
        assert rf._spine_arity(program) == rf.arity_of(program)


def test_spine_arity_reads_a_spine_past_the_recursion_limit():
    # rec, rec, comp, mu: one argument more every four levels
    program, arity = rf.Zero(0), 0
    for level in range(100_000):
        if level % 4 < 2:
            program, arity = rf.Rec(program, rf.Zero(arity + 2)), arity + 1
        elif level % 4 == 2:
            program = rf.Comp(rf.Succ(), (program,))
        else:
            program, arity = rf.Mu(program), arity - 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert rf._spine_arity(program) == arity == 25_000
    finally:
        sys.setrecursionlimit(limit)


def _mu_nest(depth):
    program = rf.Zero(depth)
    for _ in range(depth):
        program = rf.Mu(program)
    return program


def test_code_length_bound():
    # the largest bit length whose numbers all print in 4 300 digits
    assert 2**rf.MAX_CODE_BITS <= 10**4300 < 2 ** (rf.MAX_CODE_BITS + 1)
    bound = rf.MAX_CODE_BITS
    code = rf.godel(_mu_nest(11), bound)
    assert 11_000 < code.bit_length() <= bound
    assert code == rf.godel(_mu_nest(11))
    assert rf.godel(_mu_nest(12)).bit_length() > bound  # no bound by default
    # each level about doubles the length: 22 deep would be some 30 M bits
    for depth in (12, 22):
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="^the program's code is longer than 14284 bits$"):
            rf.godel(_mu_nest(depth), bound)
        assert time.perf_counter() - start < 1.0


def test_ungodel_code_length_bound():
    bound = rf.MAX_CODE_BITS
    # the largest 4 300-digit codes are one bit past the bound
    wide = isqrt(2 * 2**bound)
    over = rf.godel(rf.Zero(wide))
    assert (len(str(over)), over.bit_length()) == (4300, bound + 1)
    assert rf.ungodel(over) == rf.Zero(wide)  # no bound by default
    with pytest.raises(ResourceLimit, match="^the program's code is longer than 14284 bits$"):
        rf.ungodel(over, bound)
    with pytest.raises(ResourceLimit):
        rf.godel(rf.Zero(wide), bound)
    # a code of exactly the bound's length still round-trips under it
    at = rf.godel(rf.Zero(isqrt(2**bound)), bound)
    assert at.bit_length() == bound
    assert rf.godel(rf.ungodel(at, bound), bound) == at


def _code(*parts):
    """The right-nested pairing of `parts`, as `_encode` forms it."""
    code = parts[-1]
    for head in reversed(parts[:-1]):
        code = (head + code) * (head + code + 1) // 2 + code
    return code


@pytest.mark.parametrize(
    "code, message",
    [
        # comp(succ; zero^0 x 10**6): refused before the list is decoded
        (_code(3, 1, 10**6, 0), "outer program takes 1 argument(s) but 1000000 inner "
         "program(s) are given at root"),
        # rec(zero^0, comp(succ; zero^0 x 10**6)): the path goes through the recursion
        (_code(4, 0, _code(3, 1, 10**6, 0)), "outer program takes 1 argument(s) but "
         "1000000 inner program(s) are given at 1"),
        # comp(succ; comp(succ; zero^0 x 10**6)): and through an inner program
        (_code(3, 1, 1, _code(3, 1, 10**6, 0)), "outer program takes 1 argument(s) but "
         "1000000 inner program(s) are given at 1"),
        # comp(mu(zero^0); zero^0 x 10**6): an ill-formed outer program is reported first
        (_code(3, _code(5, 0), 10**6, 0), "minimization needs a body of arity at least 1 at 0"),
    ],
    ids=["root", "in-rec", "in-comp", "bad-outer"],
)
def test_ungodel_checks_a_list_length_before_decoding_the_list(code, message):
    start = time.perf_counter()
    with pytest.raises(rf.DecodeError) as info:
        rf.ungodel(code)
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == f"decodes to an ill-formed program ({message})"


def _zeros(n):
    """comp(zero^n; zero^0 x n): zero^0 codes as 0, and so does its list, so
    the code stays short however long the list is."""
    return rf.Comp(rf.Zero(n), (rf.Zero(0),) * n)


def test_a_list_as_long_as_the_code_bound_round_trips_under_it():
    bound = rf.MAX_CODE_BITS
    code = rf.godel(_zeros(bound), bound)
    assert code == _code(3, _code(0, bound), _code(bound, 0))
    assert rf.ungodel(code, bound) == _zeros(bound)


def test_a_list_longer_than_the_code_bound_is_refused_both_ways():
    bound = rf.MAX_CODE_BITS
    message = "^a composition lists more than 14284 inner programs$"
    with pytest.raises(ResourceLimit, match=message):
        rf.godel(_zeros(bound + 1), bound)
    code = rf.godel(_zeros(bound + 1))  # no bound by default
    assert code == _code(3, _code(0, bound + 1), _code(bound + 1, 0))
    with pytest.raises(ResourceLimit, match=message):
        rf.ungodel(code, bound)
    assert rf.ungodel(code) == _zeros(bound + 1)


def test_recfun_errors_are_the_shared_classes():
    assert rf.IllFormed is errors.IllFormed
    assert rf.DecodeError is errors.DecodeError


# ------------------------------------------------------------------ text form

def test_print_program():
    assert rf.print_program(ADD_TWO) == "comp(succ; succ)"
    assert rf.print_program(ADD) == "rec(proj^1_1, comp(succ; proj^3_2))"
    assert rf.print_program(SEARCH) == "mu(proj^2_1)"
    assert rf.print_program(rf.Zero(2)) == "zero^2"


def test_parse_program():
    assert rf.parse_program("comp(succ; succ)") == ADD_TWO
    assert rf.parse_program("rec(proj^1_1, comp(succ; proj^3_2))") == ADD
    assert rf.parse_program(" comp( succ ;  succ ) ") == ADD_TWO
    assert rf.parse_program("comp(zero^2; succ, succ)") == rf.Comp(
        rf.Zero(2), (rf.Succ(), rf.Succ())
    )


@pytest.mark.parametrize(
    "text",
    ["", "zro", "zero", "proj^2", "comp(succ)", "comp(succ; )", "succ x",
     "mu(succ", "rec(succ)", "zero^\u00b2", "zero^\u0663"],
)
def test_parse_program_errors(text):
    with pytest.raises(ParseError):
        rf.parse_program(text)


@pytest.mark.parametrize(
    "text, position",
    [("comp(succ succ)", 10), ("rec(succ; succ)", 8), ("mu(succ", 7)],
)
def test_parse_program_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as info:
        rf.parse_program(text)
    assert info.value.position == position


@given(_seeds)
def test_program_print_parse_round_trip(seed):
    rng = random.Random(seed)
    program = generators.program(rng, rng.randint(0, 3), rng.randint(1, 3))
    assert rf.parse_program(rf.print_program(program)) == program


@pytest.mark.parametrize("walk", [rf.arity_of, rf.print_program, rf.program_to_name_tree])
@pytest.mark.parametrize("value", [Atom("P"), (1, 2)], ids=["atom", "tuple"])
def test_the_program_walks_refuse_what_is_not_a_program(walk, value):
    with pytest.raises(TypeError, match=rf"^not a program: {re.escape(repr(value))}$"):
        walk(value)


# ---------------------------------------------------------- name tree bridge

def test_programs_as_name_trees():
    tree = rf.program_to_name_tree(ADD)
    assert tree == parse_name_tree("rec(proj^1_1, comp(succ, proj^3_2))")
    assert rf.name_tree_to_program(tree) == ADD
    assert print_name_tree(rf.program_to_name_tree(ADD_TWO)) == "comp(succ, succ)"


@given(_seeds)
def test_name_tree_round_trip(seed):
    rng = random.Random(seed)
    program = generators.program(rng, rng.randint(0, 3), rng.randint(1, 3))
    tree = rf.program_to_name_tree(program)
    assert rf.name_tree_to_program(tree) == program
    assert parse_name_tree(print_name_tree(tree)) == tree


@pytest.mark.parametrize(
    "tree, path",
    [
        (Tree("frob"), ()),
        (Tree("succ", (Tree("succ"),)), ()),
        (Tree("zero^x"), ()),
        (Tree("proj^1"), ()),
        (Tree("comp", (Tree("succ"),)), ()),
        (Tree("rec", (Tree("succ"),)), ()),
        (Tree("mu", (Tree("frob"),)), (0,)),
        (Tree("zero^3_0"), ()),
        (Tree("proj^2_1_0"), ()),
        (Tree("zero^+1"), ()),
        (Tree("zero^-1"), ()),
        (Tree("mu", (Tree("succ"), Tree("succ"))), ()),
    ],
)
def test_name_trees_that_fit_no_constructor(tree, path):
    with pytest.raises(rf.IllFormed) as info:
        rf.name_tree_to_program(tree)
    assert info.value.path == path


@pytest.mark.parametrize(
    "tree, reason",
    [
        (Tree("comp", (Tree("succ"),)), "comp takes an outer and at least one inner child"),
        (Tree("rec", (Tree("succ"),)), "rec takes exactly two children"),
        (Tree("mu", (Tree("succ"), Tree("succ"))), "mu takes exactly one child"),
    ],
)
def test_combinators_with_wrong_child_counts(tree, reason):
    with pytest.raises(rf.IllFormed) as info:
        rf.name_tree_to_program(tree)
    assert (info.value.path, info.value.reason) == ((), reason)


@pytest.mark.parametrize("name, head", [("zero^2", "zero"), ("succ", "succ"), ("proj^2_1", "proj")])
def test_base_functions_take_no_children(name, head):
    with pytest.raises(rf.IllFormed) as info:
        rf.name_tree_to_program(Tree(name, (Tree("succ"),)))
    assert info.value.reason == f"{head} takes no children"
