import contextlib
import io
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effrew
from effrew.cli import json_text, main
from effrew.graph import reduction_graph
from effrew.parser import parse_term
from effrew.rewrite import normalize
from effrew.rewrite import make_rule
from effrew.rpo import Precedence, certify_ruleset
from effrew.terms import Var, fn, print_term
from effrew.theories import builtin, builtin_names, compose
from oracles import reference_certify, reference_search_precedence
from stack_safe import stack_safe


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- theories -------------------------------------------------------------------


def test_theories_lists_builtins(capsys):
    code, out, _ = run(capsys, "theories")
    assert code == 0
    for name in ("global-state", "nondet", "par", "retry", "peano"):
        assert name in out


def test_theories_verbose(capsys):
    code, out, _ = run(capsys, "theories", "--verbose")
    assert code == 0
    assert "rule or-assoc" in out
    assert "rule join-par [extended]" in out
    assert "precedence" in out


# -- check ----------------------------------------------------------------------


def test_check_infers_type(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--builtin", "nondet",
        "--term", "(eff or () (pure v) (pure v))",
        "--var", "v:val",
    )
    assert code == 0
    assert out.strip() == "(E val)"


def test_check_let_binder_scopes_over_its_body_only(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--builtin", "peano",
        "--var", "x:nat",
        "--term", "(let x (pure x) (pure x))",
    )
    assert code == 0
    assert out == "(E nat)\n"


def test_check_json(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--builtin", "peano",
        "--term", "(fn succ (fn zero))",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"type": "nat"}


def test_check_type_error_exit_code(capsys):
    code, _, err = run(
        capsys,
        "check",
        "--builtin", "peano",
        "--term", "(fn succ (pure (fn zero)))",
    )
    assert code == 1
    assert err.strip()


def test_check_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "check", "--builtin", "nondet", "--term", "(pure")
    assert code == 1
    assert "syntax" in err or "line" in err


def test_check_superscript_digit_is_an_unknown_symbol(capsys):
    code, _, err = run(capsys, "check", "--builtin", "nondet", "--term", "(fn ²)")
    assert code == 1
    assert "²" in err


def test_check_bad_var_binding(capsys):
    code, _, err = run(
        capsys, "check", "--builtin", "nondet", "--term", "v", "--var", "v=val"
    )
    assert code == 4


# -- normalize / trace ------------------------------------------------------------


def test_normalize_text(capsys):
    code, out, _ = run(
        capsys,
        "normalize",
        "--builtin", "nondet",
        "--term", "(eff or () (eff or () (pure a) (pure b)) (pure c))",
    )
    assert code == 0
    assert out.strip() == "(eff or () (pure a) (eff or () (pure b) (pure c)))"


def test_normalize_agrees_with_library(capsys, tmp_path):
    theory = builtin("global-state", domain=(1, 2))
    text = "(eff assign (1) (eff get () (eff assign (2) (pure a)) (pure b)))"
    term = parse_term(text, theory.signature)
    nf, _ = normalize(term, list(theory.rules))

    theory_file = """
    (theory gs12
      (base val)
      (domain cell (1 2))
      (effect assign cell 1)
      (effect get 2)
      (rule assign-get.1 (eff assign (1) (eff get () t1 t2)) (eff assign (1) t1))
      (rule assign-get.2 (eff assign (2) (eff get () t1 t2)) (eff assign (2) t2))
      (rule assign-assign.1.1 (eff assign (1) (eff assign (1) s)) (eff assign (1) s))
      (rule assign-assign.1.2 (eff assign (1) (eff assign (2) s)) (eff assign (2) s))
      (rule assign-assign.2.1 (eff assign (2) (eff assign (1) s)) (eff assign (1) s))
      (rule assign-assign.2.2 (eff assign (2) (eff assign (2) s)) (eff assign (2) s))
      (rule get-get.1 (eff get () (eff get () s1 s2) t2) (eff get () s1 t2))
      (rule get-get.2 (eff get () t1 (eff get () s1 s2)) (eff get () t1 s2)))
    """
    path = tmp_path / "gs12.theory"
    path.write_text(theory_file, encoding="utf-8")
    code, out, _ = run(capsys, "normalize", "--theory", str(path), "--term", text)
    assert code == 0
    assert out.strip() == print_term(nf) == "(eff assign (2) (pure a))"


def test_normalize_trace_flag(capsys):
    code, out, _ = run(
        capsys,
        "normalize",
        "--builtin", "nondet",
        "--term", "(let x (pure v) (eff or () x x))",
        "--trace",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "let-beta @ / : (eff or () v v)"
    assert lines[-1] == "(eff or () v v)"


def test_trace_positions(capsys):
    code, out, _ = run(
        capsys,
        "trace",
        "--builtin", "nondet",
        "--term", "(pure (let x (pure v) (pure x)))",
    )
    assert code == 0
    assert out.startswith("let-beta @ /0 : ")


def test_trace_json(capsys):
    code, out, _ = run(
        capsys,
        "trace",
        "--builtin", "nondet",
        "--term", "(let x (pure v) (pure x))",
        "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["steps"][0]["rule"] == "let-beta"
    assert blob["steps"][0]["position"] == "/"


def test_normalize_json(capsys):
    code, out, _ = run(
        capsys,
        "normalize",
        "--builtin", "peano",
        "--term", "(fn plus (fn succ (fn zero)) (fn zero))",
        "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["normal_form"] == "(fn succ (fn zero))"
    assert blob["steps"] == 2


def test_normalize_strategies_deterministic(capsys):
    args = (
        "normalize",
        "--builtin", "nondet",
        "--term", "(eff or () (eff or () (eff or () (pure a) (pure b)) (pure c)) (pure d))",
    )
    outs = set()
    for _ in range(3):
        code, out, _ = run(capsys, *args, "--strategy", "random", "--seed", "11")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_normalize_random_needs_seed(capsys):
    code, _, err = run(
        capsys,
        "normalize",
        "--builtin", "nondet",
        "--term", "(pure v)",
        "--strategy", "random",
    )
    assert code == 4
    assert "seed" in err


def test_normalize_seed_without_random_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "normalize",
        "--builtin", "nondet",
        "--term", "(pure v)",
        "--strategy", "leftmost-outermost",
        "--seed", "3",
    )
    assert code == 4
    assert "seed" in err


def test_normalize_fuel_exhaustion_exit_code(capsys, tmp_path):
    theory = tmp_path / "grow.theory"
    theory.write_text(
        """(theory grow
             (base val)
             (function g (val -> val))
             (rule grow (fn g x) (fn g (fn g x))))""",
        encoding="utf-8",
    )
    code, _, err = run(
        capsys,
        "normalize",
        "--theory", str(theory),
        "--term", "(fn g (fn c))",
        "--fuel", "5",
    )
    assert code == 1  # unknown symbol c
    theory.write_text(
        """(theory grow
             (base val)
             (function c (-> val))
             (function g (val -> val))
             (rule grow (fn g x) (fn g (fn g x))))""",
        encoding="utf-8",
    )
    code, _, err = run(
        capsys,
        "normalize",
        "--theory", str(theory),
        "--term", "(fn g (fn c))",
        "--fuel", "5",
    )
    assert code == 3
    assert "fuel exhausted after 5 steps" in err


def test_fuel_env_var(capsys, tmp_path, monkeypatch):
    theory = tmp_path / "grow.theory"
    theory.write_text(
        """(theory grow
             (base val)
             (function c (-> val))
             (function g (val -> val))
             (rule grow (fn g x) (fn g (fn g x))))""",
        encoding="utf-8",
    )
    monkeypatch.setenv("EFFREW_FUEL", "4")
    code, _, err = run(
        capsys, "normalize", "--theory", str(theory), "--term", "(fn g (fn c))"
    )
    assert code == 3
    assert "after 4 steps" in err


def test_term_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("(pure v)"))
    code, out, _ = run(capsys, "check", "--builtin", "nondet", "--term", "-", "--var", "v:val")
    assert code == 0
    assert out.strip() == "(E val)"


def test_term_file(capsys, tmp_path):
    f = tmp_path / "term.sexp"
    f.write_text("(fn plus (fn zero) (fn zero))", encoding="utf-8")
    code, out, _ = run(capsys, "normalize", "--builtin", "peano", "--term-file", str(f))
    assert code == 0
    assert out.strip() == "(fn zero)"


@pytest.mark.parametrize("flag", ["--term-file", "--theory"])
def test_a_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path, flag):
    # bad input, like a parse error, not a usage error
    f = tmp_path / "latin1.sexp"
    f.write_bytes("(fn caf\xe9)".encode("latin-1"))
    argv = ["--term-file", str(f)] if flag == "--term-file" else ["--theory", str(f), "--term", "x"]
    code, out, err = run(capsys, "check", "--builtin", "peano", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9")


def test_missing_term_is_usage_error(capsys):
    code, _, err = run(capsys, "normalize", "--builtin", "nondet")
    assert code == 4


# -- certify / search --------------------------------------------------------------


def test_certify_ok(capsys):
    code, out, _ = run(capsys, "certify", "--builtin", "peano")
    assert code == 0
    assert "overall: certified" in out


def test_certify_matches_library(capsys):
    theory = builtin("retry")
    report = certify_ruleset(theory.precedence, list(theory.rules))
    code, out, _ = run(capsys, "certify", "--builtin", "retry")
    assert code == 0
    assert out.strip() == report.text().strip()


def test_certify_failure_exit_code(capsys, tmp_path):
    theory = tmp_path / "rev.theory"
    theory.write_text(
        """(theory rev
             (base val)
             (effect or 2)
             (rule or-assoc-rev
               (eff or () s1 (eff or () s2 s3))
               (eff or () (eff or () s1 s2) s3)))""",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "certify", "--theory", str(theory))
    assert code == 2
    assert "overall: not certified" in out


def test_certify_json(capsys):
    code, out, _ = run(capsys, "certify", "--builtin", "par", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["overall"] is True
    statuses = {r["name"]: r["status"] for r in blob["rules"]}
    assert statuses["join-par"] == "refused-extended"


def test_search_finds_precedence(capsys):
    code, out, _ = run(capsys, "search", "--builtin", "par")
    assert code == 0
    assert "par" in out


def test_search_none(capsys, tmp_path):
    theory = tmp_path / "swap.theory"
    theory.write_text(
        """(theory swap
             (base val)
             (function f (val val -> val))
             (rule swap (fn f x y) (fn f y x)))""",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "search", "--theory", str(theory))
    assert code == 2
    assert out.strip() == "none"


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "--builtin", "nondet", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"precedence": []}


_COMBOS = [(n,) for n in builtin_names()] + list(itertools.combinations(builtin_names(), 2))


@pytest.mark.parametrize("names", _COMBOS, ids="+".join)
def test_certify_and_search_match_references(capsys, names):
    theory = compose(*(builtin(n) for n in names))
    text, blob = reference_certify(theory.precedence, list(theory.rules))
    flags = [arg for n in names for arg in ("--builtin", n)]
    code, out, _ = run(capsys, "certify", *flags)
    assert (code, out) == (0 if blob["overall"] else 2, text + "\n")
    code, out, _ = run(capsys, "certify", *flags, "--format", "json")
    assert out == json.dumps(blob) + "\n"
    prec = reference_search_precedence(list(theory.rules), max_symbols=16)
    code, out, _ = run(capsys, "search", *flags, "--max-symbols", "16")
    expected = ["none"] if prec is None else prec.display_lines()
    assert (code, out.splitlines()) == (0 if prec is not None else 2, expected)


_EXPECTED = Path(__file__).parent / "expected"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--builtin", "peano", "--format", "json"], "certify-peano.json"),
        (["--builtin", "par", "--builtin", "retry"], "certify-par-retry.txt"),
    ],
)
def test_certify_output_matches_recorded_text(capsys, argv, name):
    # the same files are diffed against the installed command in CI
    code, out, err = run(capsys, "certify", *argv)
    assert (code, err) == (0, "")
    assert out == (_EXPECTED / name).read_text(encoding="utf-8")


_ALL = [arg for n in builtin_names() for arg in ("--builtin", n)]


def test_search_output_matches_recorded_text(capsys):
    # every builtin and builtin pair, text and JSON, as one transcript of
    # argv, output and exit code; the five-way composition has files of
    # its own, and CI diffs the installed command against the text one
    blocks = []
    for fmt in ("text", "json"):
        for names in _COMBOS:
            argv = ["search", *(a for n in names for a in ("--builtin", n)), "--max-symbols", "16"]
            argv += ["--format", fmt]
            code, out, err = run(capsys, *argv)
            assert err == ""
            blocks.append(f"$ effrew {' '.join(argv)}\n{out}exit {code}\n")
    assert "".join(blocks) == (_EXPECTED / "search-systems.txt").read_text(encoding="utf-8")
    for fmt, name in (("text", "search-all.txt"), ("json", "search-all.json")):
        code, out, err = run(capsys, "search", *_ALL, "--max-symbols", "16", "--format", fmt)
        assert (code, out, err) == (0, (_EXPECTED / name).read_text(encoding="utf-8"), "")


_CYCLE_THEORY = """(theory cyc (base nat)
  (function f (nat -> nat)) (function g (nat -> nat))
  (rule fg (fn f x) (fn g x)) (rule gf (fn g x) (fn f x)))"""


@pytest.mark.parametrize(
    "argv, code, stream, first",
    [
        # README's example
        (["--builtin", "par"], 0, "out", "par > e1"),
        (["--builtin", "peano", "--format", "json"], 0, "out", '{"precedence": [["plus", "succ"]]}'),
        (["--builtin", "nondet"], 0, "out", None),
        (["--theory", "CYC"], 2, "out", "none"),
        (["--theory", "CYC", "--format", "json"], 2, "out", '{"precedence": null}'),
        # README's example without --max-symbols 16
        (_ALL, 1, "err", "error: 13 symbol identities exceed the search bound of 8"),
        (["--builtin", "par", "--max-symbols", "1"], 1, "err",
         "error: 4 symbol identities exceed the search bound of 1"),
    ],
)
def test_search_exit_codes(capsys, tmp_path, argv, code, stream, first):
    # found exits 0, none 2, more identities than the bound 1; the other
    # stream stays empty
    theory = tmp_path / "cyc.theory"
    theory.write_text(_CYCLE_THEORY, encoding="utf-8")
    got, out, err = run(capsys, "search", *(str(theory) if a == "CYC" else a for a in argv))
    lines = (out if stream == "out" else err).splitlines()
    assert (got, lines[0] if lines else None) == (code, first)
    assert (err if stream == "out" else out) == ""


def test_theories_verbose_matches_recorded_text(capsys):
    # the same file is diffed against the installed command in CI; a
    # nullary function reads as a theory file declares it, (-> nat)
    expected = (_EXPECTED / "theories-verbose.txt").read_text(encoding="utf-8")
    assert run(capsys, "theories", "--verbose") == (0, expected, "")
    assert "  function zero : (-> nat)\n" in expected


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


@given(_JSON)
@settings(max_examples=200)
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value)


def test_json_text_matches_json_dumps_on_certify_reports():
    names = builtin_names()
    for combo in [(n,) for n in names] + list(itertools.combinations(names, 2)) + [tuple(names)]:
        theory = compose(*(builtin(n) for n in combo))
        blob = certify_ruleset(theory.precedence, list(theory.rules)).to_json()
        assert json_text(blob) == json.dumps(blob), combo
    with pytest.raises(TypeError):
        json_text({1: 2})
    with pytest.raises(TypeError):
        json_text([{1, 2}])


@stack_safe
def test_json_text_writes_a_deep_certify_report():
    # g(f^n(x)) > x is n + 1 RPO(3) steps and then x = x, each step a dict
    # and a list deeper; json.dumps raises RecursionError here
    n = 2000
    x = Var("x")
    s = x
    for _ in range(n):
        s = fn("f", s)
    report = certify_ruleset(Precedence(), [make_rule("drop", fn("g", s), x)])
    text = json_text(report.to_json())
    steps = [
        '{"lhs": "' + "g(" * (k == 0) + "f(" * (n - k + (k > 0)) + "x" + ")" * (n + 1 - k)
        + '", "rhs": "x", "case": "RPO(3)", "rule": "case-3-subterm", "index": 0, "children": ['
        for k in range(n + 1)
    ]
    leaf = '{"lhs": "x", "rhs": "x", "case": "=", "rule": "refl-eq", "index": null, "children": []}'
    derivation = "".join(steps) + leaf + "]}" * (n + 1)
    assert text == (
        '{"overall": true, "precedence": [], "rules": [{"name": "drop", "status": "certified", '
        f'"derivation": {derivation}, "reason": null}}]}}'
    )


@stack_safe
def test_search_on_more_rules_than_stack_frames(capsys, tmp_path):
    theory = tmp_path / "many.theory"
    rules = "".join(f"(rule r{i} (fn f (fn f x)) (fn g x))\n" for i in range(1200))
    theory.write_text(
        f"(theory many (base val) (function f (val -> val)) (function g (val -> val))\n{rules})",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "search", "--theory", str(theory))
    assert (code, out, err) == (0, "f > g\n", "")


@stack_safe
def test_deep_numeral_on_standard_input(capsys, monkeypatch):
    # Linux caps one argument at 128 KiB, so a term 10^5 deep comes on
    # standard input; it is read, built, listed and printed without recursion
    n = 10**5
    numeral = "(fn succ " * n + "(fn zero)" + ")" * n
    plus_zero = f"(fn plus (fn zero) {numeral})"
    peano = ("--builtin", "peano", "--term", "-")
    cases = [
        (numeral, ("check", *peano), "nat\n"),
        (numeral, ("normalize", *peano, "--format", "json"), json.dumps({"normal_form": numeral, "steps": 0}) + "\n"),
        (plus_zero, ("trace", *peano), f"plus-zero @ / : {numeral}\n"),
        (numeral, ("graph", *peano, "--summary"), None),
    ]
    for text, argv, expected in cases:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if expected is None:
            assert out.startswith("nodes: 1\nedges: 0\nnormal forms: 1\n") and out.endswith(f"  nf: {numeral}\n")
        else:
            assert out == expected, argv


def _chain(opening: str, middle: str, n: int) -> str:
    return opening * n + middle + ")" * n


def _capture_chain(k: int) -> str:
    # binders y, y1, y11, ... over a body that uses them all; abs-beta
    # substitutes y for x, which renames every binder
    names = ["y" + "1" * i for i in range(k)]
    body = "x"
    for b in names:
        body = f"(app {body} {b})"
    return "(app (lam x " + "".join(f"(lam {b} " for b in names) + body + ")" * k + ") y)"


_TOKENS = re.compile(r"[()]|[^\s()]+")


@st.composite
def _cli_runs(draw):
    """A command line of check, normalize, trace or graph --summary and the
    term text it reads on standard input: a deep numeral, a lam or let
    chain, a capture chain or a variable of a deep arrow type, or one of
    them with a token replaced or its tail cut off."""
    # hypothesis raises the recursion limit by about 2000 while it runs a
    # test, so a deep input here is deeper than that
    n = draw(st.integers(0, 50) | st.integers(3000, 5000))
    shape = draw(st.sampled_from(("numeral", "lam", "let", "capture", "arrow")))
    ty, text = "val", "(app f v)"
    if shape == "numeral":
        text = _chain("(fn succ ", "(fn zero)", n)
        if draw(st.booleans()):
            text = f"(fn plus (fn zero) {text})"
    elif shape == "lam":
        text = _chain("(lam x ", "(app x v)" if n % 2 else "x", n)
    elif shape == "let":
        text = _chain("(let x m ", "(let y (pure x) (pure y))", n)
    elif shape == "capture":
        text = _capture_chain(n // 25)
    else:
        ty = _chain("(-> val ", "(E val)", n)
    if draw(st.booleans()):
        # malformed: a token replaced, or the text cut short
        tokens = _TOKENS.findall(ty if shape == "arrow" else text)
        if draw(st.booleans()):
            at = draw(st.integers(0, len(tokens) - 1))
            tokens[at] = draw(st.sampled_from(("(", ")", "()", "3", "lam", "let", "(fn nope)", "(E val)")))
            bad = " ".join(tokens)
        else:
            bad = " ".join(tokens[: draw(st.integers(0, len(tokens) - 1))])
        ty, text = (bad, text) if shape == "arrow" else (ty, bad)
    command = draw(st.sampled_from((["check"], ["normalize"], ["trace"], ["graph", "--summary"])))
    if command == ["check"]:
        command += ["--var", "v:val", "--var", "m:(E val)", "--var", f"f:{ty}"]
    return [*command, "--builtin", "peano", "--builtin", "nondet", "--term", "-"], text


@given(_cli_runs())
@settings(max_examples=60, deadline=None)
def test_main_returns_an_exit_code_on_deep_and_malformed_input(run_):
    # main catches no RecursionError, so a walk that recursed past the
    # limit would raise here
    argv, text = run_
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in range(5)


def test_search_bound_exceeded(capsys):
    code, out, err = run(capsys, "search", "--builtin", "par", "--max-symbols", "1")
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "exceed the search bound" in lines[0]
    assert "Traceback" not in err


# -- graph ---------------------------------------------------------------------------


def test_graph_dot_output(capsys):
    code, out, _ = run(
        capsys,
        "graph",
        "--builtin", "par",
        "--term", "(eff par () (eff e1 () (pure v)) (eff e2 () (pure w)))",
    )
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("doublecircle") == 2


def test_graph_summary_matches_library(capsys):
    theory = builtin("par")
    text = "(eff par () (eff e1 () (pure v)) (eff e2 () (pure w)))"
    term = parse_term(text, theory.signature)
    g = reduction_graph(term, list(theory.rules))
    code, out, _ = run(capsys, "graph", "--builtin", "par", "--term", text, "--summary")
    assert code == 0
    assert f"nodes: {len(g.nodes)}" in out
    assert "normal forms: 2" in out


def test_graph_output_file(capsys, tmp_path):
    dest = tmp_path / "g.dot"
    code, out, _ = run(
        capsys,
        "graph",
        "--builtin", "nondet",
        "--term", "(eff or () (eff or () (pure a) (pure b)) (pure c))",
        "-o", str(dest),
    )
    assert code == 0
    assert out == ""
    assert dest.read_text().startswith("digraph")


# -- usage and composition flags -------------------------------------------------------


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 4


def test_no_command(capsys):
    assert run(capsys)[0] == 4


def test_multiple_builtins_compose(capsys):
    code, out, _ = run(
        capsys,
        "normalize",
        "--builtin", "retry",
        "--builtin", "peano",
        "--term",
        "(fn retry (fn plus (fn succ (fn zero)) (fn succ (fn zero))) (eff request () t s1 s2))",
    )
    assert code == 0
    assert out.strip() == "(eff request () (eff request () t s1 s2) s1 s2)"


def test_composition_checks_trusted_parts(capsys, tmp_path):
    # a theory file is typed when it is read; composing trusts it and the
    # builtins, but still checks rule names across every part
    bad = tmp_path / "bad.thy"
    bad.write_text(
        "(theory bad (base nat) (function half (nat -> val)) (rule bad (fn half (fn half x)) (fn half x)))",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check", "--builtin", "peano", "--theory", str(bad))
    assert (code, out) == (1, "") and "rule bad is ill-typed" in err
    assert run(capsys, "check", "--builtin", "peano", "--builtin", "peano") == (
        1,
        "",
        "error: duplicate rule name: plus-zero\n",
    )


@stack_safe
def test_theory_file_rule_with_a_deep_right_side(capsys, tmp_path):
    # the rule's right side, a numeral 3000 deep, compiles to code with one
    # statement per node, so firing it recurses nowhere
    n = 3000
    numeral = _chain("(fn succ ", "(fn zero)", n)
    deep = tmp_path / "deep.thy"
    deep.write_text(
        "(theory deep (base nat) (function zero (-> nat)) (function succ (nat -> nat))"
        f" (function big (nat -> nat)) (rule big (fn big x) {numeral}))",
        encoding="utf-8",
    )
    argv = ("--theory", str(deep), "--term", "(fn big (fn zero))")
    assert run(capsys, "normalize", *argv) == (0, numeral + "\n", "")
    assert run(capsys, "trace", *argv) == (0, f"big @ / : {numeral}\n", "")


@stack_safe
def test_theory_files_merge_deep_declarations(capsys, tmp_path):
    # two files that declare f alike merge, and one that differs at the
    # innermost leaf of a 3000-deep argument type conflicts; the types are
    # compared without recursion
    n = 3000
    paths = []
    for name, leaf in (("a", "nat"), ("b", "nat"), ("c", "val")):
        path = tmp_path / f"{name}.thy"
        path.write_text(
            f"(theory {name} (base nat) (function f ({_chain('(-> nat ', leaf, n)} -> val)))", encoding="utf-8"
        )
        paths.append(str(path))
    a, b, c = paths
    check = ("check", "--var", "v:val", "--term", "v")
    assert run(capsys, *check, "--theory", a, "--theory", b) == (0, "val\n", "")
    assert run(capsys, *check, "--theory", a, "--theory", c) == (
        1,
        "",
        "error: conflicting declarations for symbol f\n",
    )


def test_missing_theory_file(capsys):
    code, _, err = run(capsys, "certify", "--theory", "/nonexistent/x.theory")
    assert code == 1


def test_console_script_runs():
    # run from the directory holding the package under test, so the child
    # imports it without an install or PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-m", "effrew.cli", "theories"],
        capture_output=True,
        text=True,
        cwd=Path(effrew.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert "nondet" in proc.stdout
