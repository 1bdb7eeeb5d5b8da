import pytest

from effrew.sexpr import SexprError, parse_many, parse_one


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
