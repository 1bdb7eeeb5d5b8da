import json
import subprocess
import sys
from pathlib import Path

import pytest

import effrew
from effrew.cli import main
from effrew.graph import reduction_graph
from effrew.parser import parse_term
from effrew.rewrite import normalize
from effrew.rpo import certify_ruleset
from effrew.terms import print_term
from effrew.theories import builtin


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
