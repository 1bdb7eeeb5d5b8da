import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effrew.sexpr import SexprError, _node_repr, parse_many, parse_one
from oracles import reference_parse_many, reference_parse_one
from stack_safe import stack_safe


def test_atom():
    assert parse_one("hello") == "hello"


def test_int_atom():
    assert parse_one("42") == 42
    assert parse_one("-7") == -7
    # a digit that is not a decimal digit is an ident, not an int
    assert parse_one("²") == "²"


def test_nested_lists():
    assert parse_one("(f (g x) 3)") == ["f", ["g", "x"], 3]


def test_empty_list():
    assert parse_one("()") == []


def test_comments_and_whitespace():
    text = """
    ; a comment
    (a ; trailing comment
       b)
    """
    assert parse_one(text) == ["a", "b"]


def test_parse_many():
    assert parse_many("(a) (b c) d") == [["a"], ["b", "c"], "d"]
    assert parse_many("  ; nothing here\n") == []


def test_unclosed_paren():
    with pytest.raises(SexprError):
        parse_one("(a (b)")


def test_unexpected_close():
    with pytest.raises(SexprError):
        parse_one(")")


def test_trailing_garbage():
    with pytest.raises(SexprError):
        parse_one("(a) b")


def test_empty_input():
    with pytest.raises(SexprError):
        parse_one("   ; only a comment")


def test_error_reports_position():
    with pytest.raises(SexprError) as exc:
        parse_one("(a\n  (b)")
    assert exc.value.line >= 1
    assert str(exc.value).startswith(f"{exc.value.line}:{exc.value.col}:")


def test_atom_with_special_chars():
    assert parse_one("assign-get.1") == "assign-get.1"
    assert parse_one("->") == "->"


def _outcome(parse, text):
    try:
        return "value", parse(text)
    except SexprError as e:
        return "error", str(e), e.line, e.col


@given(st.text(alphabet="() ;\nab1-+\t\u00b2\x0b", max_size=40))
@example("(a) (b")  # trailing input is reported before the unclosed paren
@example("a ; (")  # a paren in a comment at the end of the text
@example("(a\n ;)\n  (b")
@example("\x0b1 -1 +1 - + 1-")  # a vertical tab is not whitespace
@settings(max_examples=1000, deadline=None)
def test_reader_matches_character_reader(text):
    assert _outcome(parse_one, text) == _outcome(reference_parse_one, text)
    assert _outcome(parse_many, text) == _outcome(reference_parse_many, text)


@stack_safe
def test_deep_nested_list():
    # far past the interpreter recursion limit
    n = 100_000
    node = parse_one("(" * n + "x" + ")" * n)
    for _ in range(n):
        assert type(node) is list and len(node) == 1
        node = node[0]
    assert node == "x"
    with pytest.raises(SexprError) as exc:
        parse_many("\n" + "(" * n)
    assert (exc.value.line, exc.value.col) == (2, n)


@given(st.recursive(st.integers() | st.text(max_size=3), lambda inner: st.lists(inner, max_size=4), max_leaves=20))
def test_node_repr_is_repr(node):
    assert _node_repr(node) == repr(node)


@stack_safe
def test_node_repr_quotes_a_deep_form():
    n = 100_000
    assert _node_repr(parse_one("(a " * n + ")" * n)) == "['a', " * (n - 1) + "['a'" + "]" * n
