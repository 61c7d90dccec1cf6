from propalg.cli import main
from propalg.terms import Variety
from propalg.valuation import in_variety, load_valuation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_and_bf(capsys):
    code, out, _ = run(capsys, "parse", "a land b")
    assert code == 0
    assert out == "statement: a land b\n"
    code, out, _ = run(capsys, "bf", "a land b")
    assert code == 0
    assert out == "basic_form: (T <| b |> F) <| a |> F\n"


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "--variety", "cr", "a land a")
    assert code == 0
    assert out == "normal_form: T <| a |> F\n"


def test_equal_exit_codes(capsys):
    code, out, _ = run(capsys, "equal", "--variety", "mem", "x <| x |> x", "x")
    assert code == 0 and out == "equal: true\n"
    code, out, _ = run(capsys, "equal", "--variety", "fr", "x <| x |> x", "x")
    assert code == 1 and out == "equal: false\n"


def test_equiv_reports_verdict(capsys):
    code, out, _ = run(capsys, "equiv", "--variety", "fr", "T", "a then T")
    assert code == 0
    assert "verdict: derivative\n" in out
    assert "equivalent: true\n" in out
    code, out, _ = run(capsys, "equiv", "--variety", "fr", "T", "a")
    assert code == 1
    assert "verdict: value\n" in out


def test_sat_and_fal(capsys):
    code, out, _ = run(capsys, "sat", "--variety", "mem", "a land not a")
    assert code == 1 and out == "satisfiable: false\n"
    code, out, _ = run(capsys, "fal", "--variety", "mem", "a land not a")
    assert code == 0 and out == "falsifiable: true\n"


def test_sat_witness_is_a_variety_table(capsys):
    code, out, _ = run(capsys, "sat", "--variety", "fr", "--witness", "a land not a")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "satisfiable: true"
    h = load_valuation("\n".join(lines[1:]) + "\n")
    assert in_variety(h, Variety.FR)


def test_acc(capsys):
    code, out, _ = run(capsys, "acc", "F land b")
    assert code == 0 and out == "acc: \n"
    code, out, _ = run(capsys, "acc", "a land b")
    assert out == "acc: a b\n"


def test_eval_with_valuation_file(capsys, tmp_path):
    val = tmp_path / "h.val"
    val.write_text("atoms a b\ndepth 2\nstatic a=T b=F\n")
    code, out, _ = run(capsys, "eval", "--val", str(val), "a land b")
    assert code == 1
    assert out == "value: F\ntrace: a.b\n"


def test_project(capsys):
    code, out, _ = run(capsys, "project", "-n", "1", "b <| a |> c")
    assert code == 0
    assert out == "projection: T <| a |> F\n"


def test_spec_project_from_file(capsys, tmp_path):
    spec = tmp_path / "loop.spec"
    spec.write_text("X1 = X2 <| a |> X1\nX2 = T\n")
    code, out, _ = run(capsys, "spec", "project", "--spec", str(spec), "--var", "X1", "-n", "2")
    assert code == 0
    assert out == "projection: T <| a |> (T <| a |> F)\n"


def test_spec_project_builtin_primes(capsys):
    code, out, _ = run(capsys, "spec", "project", "--spec", "@primes", "--var", "0", "-n", "3")
    assert code == 0
    # Levels 0, 1, 2 test b, b, a.
    assert out.startswith("projection: ")
    assert "b" in out and "a" in out


def test_spec_eval(capsys, tmp_path):
    spec = tmp_path / "loop.spec"
    spec.write_text("X1 = X2 <| a |> X1\nX2 = T\n")
    val = tmp_path / "h.val"
    val.write_text("atoms a\ndepth 4\nstatic a=F\n")
    code, out, _ = run(
        capsys, "spec", "eval", "--spec", str(spec), "--var", "X1", "--val", str(val), "--fuel", "4"
    )
    assert code == 1
    assert out == "result: diverged\n"


def test_transform_caching(capsys):
    code, out, _ = run(capsys, "transform", "caching", "a lor not a")
    assert code == 0
    assert out == "monotest_form: T <| a |> T\n"


def test_transform_re_eval(capsys):
    code, out, _ = run(capsys, "transform", "re-eval", "--variant", "dlni", "a land not a")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "start: X0"
    assert any("dlni" in line for line in lines[1:])


def test_search(capsys):
    code, out, _ = run(
        capsys,
        "search", "--variety", "fr", "--target", "not (not a)",
        "--max-2p", "0", "--body-depth", "2", "--result-depth", "2",
    )
    assert code == 0
    assert "found: true" in out
    assert "two_place_count:" in out
    code, out, _ = run(
        capsys,
        "search", "--variety", "fr", "--target", "a <| b |> c",
        "--max-2p", "1", "--body-depth", "1", "--result-depth", "2",
    )
    assert code == 1
    assert "found: false" in out


def test_laws(capsys):
    code, out, _ = run(capsys, "laws", "--variety", "fr")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) >= 30
    assert all(line.endswith("pass") for line in lines)


def test_error_exits(capsys):
    code, _, err = run(capsys, "bf", "a <|")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "eval", "--val", "/nonexistent.val", "a")
    assert code == 2
    code, _, _ = run(capsys, "no-such-verb")
    assert code == 2
    code, _, _ = run(capsys, "normalize", "--variety", "pmem", "a")
    assert code == 2


def test_deep_input_is_an_error_not_a_verdict(capsys):
    # Exit 1 means "not equal"; an input past the recursion limit must not
    # be reported as that verdict.
    chain = " land ".join(f"a{i}" for i in range(3000))
    code, out, err = run(capsys, "equal", "--variety", "fr", chain, chain)
    assert code == 4
    assert out == ""
    assert "error:" in err and "RecursionError" in err
    assert "Traceback" not in err


def test_deeply_nested_statement_is_a_parse_error(capsys):
    code, out, err = run(capsys, "parse", "(" * 3000 + "a" + ")" * 3000)
    assert code == 2
    assert out == ""
    assert "error: statement nested too deeply" in err
    assert "Traceback" not in err


def test_memory_error_exits_4(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("propalg.congruence.equal", exhausted)
    code, out, err = run(capsys, "equal", "--variety", "fr", "a", "a")
    assert code == 4
    assert out == ""
    assert "error:" in err and "MemoryError" in err
