"""Event expression grammar."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from screenoff.events import cylinder, history_digits, n_histories, omega
from screenoff.exprs import ExpressionError, parse_event
from screenoff.order import CausalSite

from reference import coin_site


def test_atom():
    s = coin_site()
    assert parse_event(s, "c=0") == cylinder(s, "c", 0)


def test_whitespace_insignificant():
    s = coin_site()
    assert parse_event(s, "  c =  1 ") == cylinder(s, "c", 1)


def test_and_or_precedence():
    s = coin_site()
    # a | b & c parses as a | (b & c)
    got = parse_event(s, "c=0 | a_s=0 & b_s=0")
    want = cylinder(s, "c", 0) | (cylinder(s, "a_s", 0) & cylinder(s, "b_s", 0))
    assert got == want
    assert got != (cylinder(s, "c", 0) | cylinder(s, "a_s", 0)) & cylinder(s, "b_s", 0)


def test_parens_override():
    s = coin_site()
    got = parse_event(s, "(c=0 | a_s=0) & b_s=0")
    want = (cylinder(s, "c", 0) | cylinder(s, "a_s", 0)) & cylinder(s, "b_s", 0)
    assert got == want


def test_negation_tightest():
    s = coin_site()
    got = parse_event(s, "!c=0 & b_s=1")
    want = (omega(s) ^ cylinder(s, "c", 0)) & cylinder(s, "b_s", 1)
    assert got == want


def test_double_negation():
    s = coin_site()
    assert parse_event(s, "!!c=0") == cylinder(s, "c", 0)


def test_empty_event_expressible():
    s = coin_site()
    assert parse_event(s, "c=0 & c=1") == 0


def test_unknown_element():
    s = coin_site()
    with pytest.raises(ExpressionError) as err:
        parse_event(s, "zz=0")
    assert err.value.position == 0


def test_value_out_of_range():
    s = coin_site()
    with pytest.raises(ExpressionError):
        parse_event(s, "c=2")


def test_nesting_deeper_than_the_limit_is_refused_where_it_starts():
    s = coin_site()
    assert parse_event(s, "(" * 100 + "c=0" + ")" * 100) == cylinder(s, "c", 0)
    assert parse_event(s, "!(" * 50 + "c=0" + ")" * 50) == cylinder(s, "c", 0)
    for text in ("(" * 101 + "c=0" + ")" * 101, "!" * 5000 + "c=0", "!(" * 51 + "c=0" + ")" * 51):
        with pytest.raises(ExpressionError, match="nested more than 100 deep") as err:
            parse_event(s, text)
        assert err.value.position == 100


def test_a_value_of_any_length_is_read_exactly():
    s = coin_site()
    assert parse_event(s, "c=" + "0" * 5000 + "1") == cylinder(s, "c", 1)
    with pytest.raises(ExpressionError, match=f"value {'9' * 5000} out of range for 'c'") as err:
        parse_event(s, "c=" + "9" * 5000)
    assert err.value.position == 2


def test_syntax_error_position():
    s = coin_site()
    with pytest.raises(ExpressionError) as err:
        parse_event(s, "c=0 & & b_s=0")
    assert err.value.position == 6


def test_trailing_garbage():
    s = coin_site()
    with pytest.raises(ExpressionError):
        parse_event(s, "c=0 )")


def test_bad_character():
    s = coin_site()
    with pytest.raises(ExpressionError) as err:
        parse_event(s, "c=0 @ b_s=0")
    assert err.value.position == 4


def test_empty_input():
    with pytest.raises(ExpressionError):
        parse_event(coin_site(), "   ")


def test_unclosed_paren():
    with pytest.raises(ExpressionError):
        parse_event(coin_site(), "(c=0")


# -- precedence against a per-history evaluator ------------------------------

# '|' binds loosest, then '&', then '!' and the atoms
_LEVEL = {"|": 0, "&": 1, "!": 2, "=": 2}
_SITE = CausalSite([("c", 3), ("a_s", 2), ("b_s", 2)], [("c", "a_s"), ("c", "b_s")])


def _atoms():
    return st.one_of(
        st.tuples(st.just("="), st.just(e), st.integers(0, k - 1))
        for e, k in zip(_SITE.elements, _SITE.alphabets)
    )


_TREES = st.recursive(
    _atoms(),
    lambda sub: st.one_of(
        st.tuples(st.just("!"), sub),
        st.tuples(st.sampled_from("&|"), sub, sub),
    ),
    max_leaves=10,
)


def _render(tree) -> str:
    """The tree's text, with parentheses only where precedence needs them."""
    op, *args = tree
    if op == "=":
        return f"{args[0]}={args[1]}"

    def operand(child) -> str:
        text = _render(child)
        return f"({text})" if _LEVEL[child[0]] < _LEVEL[op] else text

    if op == "!":
        return "!" + operand(args[0])
    return f" {op} ".join(operand(child) for child in args)


def _holds(tree, digits) -> bool:
    op, *args = tree
    if op == "=":
        return digits[_SITE.index(args[0])] == args[1]
    if op == "!":
        return not _holds(args[0], digits)
    left, right = (_holds(child, digits) for child in args)
    return left and right if op == "&" else left or right


@given(_TREES)
def test_precedence_matches_a_per_history_evaluator(tree):
    want = 0
    for h in range(n_histories(_SITE)):
        if _holds(tree, history_digits(_SITE, h)):
            want |= 1 << h
    assert parse_event(_SITE, _render(tree)) == want
