"""Command-line interface tests (exit codes, formats, byte stability)."""

import json
import tracemalloc

import pytest

from mixedpf import evaluator, suites
from mixedpf.cli import main
from mixedpf.graph import format_fragment, parse_fragments
from mixedpf.models import circuit_neg_model, model_to_json
from mixedpf.suites import SUITES

K3_TEXT = "vertices 3\nedge 0 1\nedge 1 2\nedge 2 0\n"
CIRCLE_TEXT = "vertices 0\ncircle\n"
FIG8_TEXT = "vertices 1\nedge 0 0\nedge 0 0\n"
FRAGMENTS_TEXT = (
    "vertices 2\nedge 0 1\nlabel 0\nlabel 1\n"
    "vertices 3\nedge 0 1\nedge 0 2\nlabel 1\nlabel 2\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_eval_matchings(tmp_path, capsys):
    path = write(tmp_path, "k3.graph", K3_TEXT)
    assert main(["eval", path, "--model", "matchings", "--mode", "ordinary"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "4"
    assert out[1].startswith("# subsets=")


def test_eval_circle_charpoly(tmp_path, capsys):
    path = write(tmp_path, "circle.graph", CIRCLE_TEXT)
    assert main(["eval", path, "--model", "charpoly?t=0", "--mode", "mixed"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0"


def test_eval_fig8_circuit_pos(tmp_path, capsys):
    path = write(tmp_path, "fig8.graph", FIG8_TEXT)
    assert main(["eval", path, "--model", "circuit-pos?k=1", "--mode", "ordinary"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "3"


def test_eval_model_file(tmp_path, capsys):
    graph = write(tmp_path, "c2.graph", "vertices 2\nedge 0 1\nedge 0 1\n")
    model = write(tmp_path, "neg.json", json.dumps(model_to_json(circuit_neg_model(1))))
    assert main(["eval", graph, "--model-file", model, "--mode", "skew"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "-2"


def test_eval_requires_exactly_one_model_source(tmp_path, capsys):
    path = write(tmp_path, "k3.graph", K3_TEXT)
    assert main(["eval", path, "--mode", "ordinary"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_missing_file_is_input_error(tmp_path, capsys):
    assert (
        main(["eval", str(tmp_path / "nope.graph"), "--model", "matchings", "--mode", "ordinary"])
        == 2
    )


def test_eval_zero_denominator_in_model_spec_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "k3.graph", K3_TEXT)
    assert main(["eval", path, "--model", "charpoly?t=1/0", "--mode", "mixed"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("literal", ["nan", "inf", "abc", "1/2/3"])
def test_eval_malformed_model_parameter_names_the_literal(tmp_path, capsys, literal):
    path = write(tmp_path, "k3.graph", K3_TEXT)
    assert main(["eval", path, "--model", f"charpoly?t={literal}", "--mode", "mixed"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: not an exact rational: '{literal}'\n"


def test_eval_repeated_model_parameter_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "k3.graph", K3_TEXT)
    assert main(["eval", path, "--model", "charpoly?t=1&t=2", "--mode", "mixed"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: model parameter 't' given more than once\n"


@pytest.mark.parametrize(
    "entry",
    [
        {"sym": 5, "ext": [], "value": 1},
        {"sym": [1, 0], "ext": []},
        {"sym": [1, 0], "ext": [], "value": {"re": "1/0"}},
    ],
)
def test_eval_malformed_model_file_entry_is_input_error(tmp_path, capsys, entry):
    path = write(tmp_path, "k3.graph", K3_TEXT)
    model = write(tmp_path, "bad.json", json.dumps({"k": 2, "two_ell": 0, "entries": [entry]}))
    assert main(["eval", path, "--model-file", model, "--mode", "ordinary"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_eval_long_path(tmp_path, capsys):
    edges = "".join(f"edge {v} {v + 1}\n" for v in range(1199))
    path = write(tmp_path, "p1200.graph", f"vertices 1200\n{edges}")
    assert main(["eval", path, "--model", "charpoly?t=0", "--mode", "mixed"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1"


GOOD_MODEL = {"k": 1, "two_ell": 0, "cap": 2, "entries": [{"sym": [2], "ext": [], "value": 1}]}


def eval_model_with(tmp_path, field, value):
    """Exit code of ``eval`` on K3 with one field of GOOD_MODEL replaced."""
    graph = write(tmp_path, "k3.graph", K3_TEXT)
    obj = json.loads(json.dumps(GOOD_MODEL))
    if field in obj:
        obj[field] = value
    else:
        obj["entries"][0][field] = value
    model = write(tmp_path, "bad.json", json.dumps(obj))
    return main(["eval", graph, "--model-file", model, "--mode", "ordinary"])


@pytest.mark.parametrize(
    "field,value",
    [
        ("k", True),
        ("two_ell", False),
        ("cap", True),
        ("sym", [True]),
        ("value", True),
        ("value", {"re": True}),
    ],
)
def test_eval_json_bool_is_input_error(tmp_path, capsys, field, value):
    graph = write(tmp_path, "k3.graph", K3_TEXT)
    good = write(tmp_path, "good.json", json.dumps(GOOD_MODEL))
    assert main(["eval", graph, "--model-file", good, "--mode", "ordinary"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1"
    assert eval_model_with(tmp_path, field, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "field,value",
    [
        ("k", 1.5),
        ("two_ell", 0.5),
        ("cap", 2.9),
        ("cap", 2.0),
        ("value", {"re": 0.5}),
        ("value", {"re": "1", "im": 0.25}),
    ],
)
def test_eval_json_float_is_input_error(tmp_path, capsys, field, value):
    # a JSON float would be truncated (k, cap) or read in binary (values)
    assert eval_model_with(tmp_path, field, value) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


ONE_EDGE_TEXT = "vertices 2\nedge 0 1\n"


@pytest.mark.parametrize(
    "text,argv",
    [
        ("vertices 1000000000000\n", ["--model", "matchings"]),
        (ONE_EDGE_TEXT, ["--model", "circuit-pos?k=2000", "--cap", "2"]),
        (ONE_EDGE_TEXT, ["--model", "circuit-neg?l=40"]),
        (ONE_EDGE_TEXT, ["--model", "charpoly?t=0", "--cap", "1000000000"]),
        (ONE_EDGE_TEXT, ["--model", "charpoly?t=1e99999999"]),
    ],
    ids=["vertices", "circuit-pos", "circuit-neg", "cap", "exponent"],
)
def test_eval_oversized_input_is_input_error(tmp_path, capsys, text, argv):
    """Refused up front: tracing the allocations shows that neither the
    graph nor the model table was built."""
    path = write(tmp_path, "big.graph", text)
    tracemalloc.start()
    try:
        code = main(["eval", path, *argv, "--mode", "mixed"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert peak < 2**20


@pytest.mark.parametrize(
    "model,argv",
    [
        ({"k": 10**12, "two_ell": 0, "entries": []}, []),
        ({"k": 3_000_000, "two_ell": 0, "entries": []}, []),
        ({"k": 0, "two_ell": 2050, "entries": []}, []),
        ({"k": 2000, "two_ell": 50, "entries": []}, []),
        (None, ["--model", "circuit-pos?k=1000000", "--cap", "1"]),
        (None, ["--model", "circuit-pos?k=2049", "--cap", "1"]),
    ],
    ids=["k-1e12", "k-3e6", "two-ell", "sum", "spec", "spec-at-limit"],
)
def test_eval_too_many_colors_is_input_error(tmp_path, capsys, model, argv):
    """A model of more than MAX_COLORS colors is refused before its search
    builds a k-vector, and a built-in one before its table is built."""
    path = write(tmp_path, "edge.graph", ONE_EDGE_TEXT)
    if model is not None:
        argv = ["--model-file", write(tmp_path, "big.json", json.dumps(model))]
    tracemalloc.start()
    try:
        code = main(["eval", path, *argv, "--mode", "ordinary"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "too many colors" in err
    assert peak < 2**20


def test_eval_many_colors_do_not_recurse(tmp_path, capsys):
    # cap 1 leaves a one-entry table, and its 2000 parts once meant 2000 frames
    path = write(tmp_path, "edge.graph", ONE_EDGE_TEXT)
    assert main(["eval", path, "--model", "circuit-pos?k=2000", "--mode", "ordinary"]) == 0
    assert capsys.readouterr().out == "0\n# subsets=1 colorings=0\n"


def test_eval_many_colors_leave_the_factor_cache_bounded(tmp_path, capsys, monkeypatch):
    # 2000 canonical forms of a 2000-count vector each were once held: 31 MiB
    monkeypatch.setattr(evaluator, "_FACTORS", {})
    monkeypatch.setattr(evaluator, "_held", 0)
    monkeypatch.setattr(evaluator, "_KEYS", {})
    path = write(tmp_path, "edge.graph", ONE_EDGE_TEXT)
    tracemalloc.start()
    try:
        code = main(["eval", path, "--model", "circuit-pos?k=2000", "--mode", "ordinary"])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == "0\n# subsets=1 colorings=0\n"
    assert held < 10 * 2**20
    assert evaluator._held <= evaluator.MAX_MODEL_SIZE


def test_eval_parse_error_reports_line(tmp_path, capsys):
    path = write(tmp_path, "bad.graph", "vertices 1\nedge 0 7\n")
    assert main(["eval", path, "--model", "matchings", "--mode", "ordinary"]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("vertices 2\nedge 0\n", "line 2: expected 'edge u v'"),
        ("vertices 2\nedge 0 x\n", "line 2: edge endpoints must be integers"),
        ("vertices 0\ncircle 1\n", "line 2: 'circle' takes no arguments"),
        ("vertices 1\nlabel x\n", "line 2: label vertex must be an integer"),
    ],
)
def test_eval_malformed_line_is_one_error_line(tmp_path, capsys, text, message):
    path = write(tmp_path, "bad.graph", text)
    assert main(["eval", path, "--model", "matchings", "--mode", "ordinary"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_eval_mode_mismatch_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "k3.graph", K3_TEXT)
    assert main(["eval", path, "--model", "matchings", "--mode", "skew"]) == 2


def test_connrank(tmp_path, capsys):
    frags = write(tmp_path, "frags.graph", FRAGMENTS_TEXT)
    csv_path = tmp_path / "matrix.csv"
    code = main(
        [
            "connrank",
            frags,
            "--model",
            "charpoly?t=0",
            "--mode",
            "mixed",
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("PASS")
    assert "bound=16" in out
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 2 and len(rows[0].split(",")) == 2


def test_connrank_csv_into_a_missing_directory_prints_no_verdict(tmp_path, capsys):
    frags = write(tmp_path, "frags.graph", FRAGMENTS_TEXT)
    csv_path = tmp_path / "missing" / "matrix.csv"
    code = main(["connrank", frags, "--model", "charpoly?t=0", "--csv", str(csv_path)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1


def test_connrank_empty_file(tmp_path, capsys):
    frags = write(tmp_path, "empty.graph", "# nothing here\n")
    assert main(["connrank", frags, "--model", "matchings", "--mode", "ordinary"]) == 0
    assert capsys.readouterr().out.startswith("rank=0")


def test_connrank_empty_file_refuses_a_model_that_does_not_fit_the_mode(tmp_path, capsys):
    # as a nonempty family does, before the early return for no fragments
    frags = write(tmp_path, "empty.graph", "# nothing here\n")
    assert main(["connrank", frags, "--model", "charpoly?t=0", "--mode", "ordinary"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ordinary mode needs a purely symmetric model (two_ell=0)\n"


def test_connrank_t_mismatch(tmp_path, capsys):
    text = "vertices 2\nedge 0 1\nlabel 0\n" + FRAGMENTS_TEXT
    frags = write(tmp_path, "frags.graph", text)
    assert main(["connrank", frags, "--model", "matchings", "--mode", "ordinary"]) == 2
    assert capsys.readouterr().err == "error: fragments must share one t, found [1, 2]\n"


def test_verify_small_suite(capsys):
    assert main(["verify", "dglrs", "--k", "1", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "PASS dglrs-k1 sum=16" in out
    assert "summary 1 cases, 0 failed" in out
    assert "time" not in out


def test_verify_unknown_suite():
    assert main(["verify", "bogus"]) == 2


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["matchings", "--max-vertices", "-2"], "--max-vertices"),
        (["dglrs", "--seed", "3"], "--seed"),
        (["signs", "--t", "2"], "--t"),
    ],
)
def test_verify_refuses_options_the_suite_does_not_take(capsys, argv, flag):
    assert main(["verify", *argv, "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and flag in line


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "dglrs", "--k", "-3"], "--k"),
        (["verify", "dglrs", "--k", "1", "--k", "-3"], "--k"),
        (["verify", "signs", "--max-m", "-1"], "--max-m"),
        (["verify", "invariance", "--count", "-2"], "--count"),
        (["verify", "invariance", "--trials", "-1"], "--trials"),
        (["verify", "gram", "--pairs", "-1"], "--pairs"),
        (["verify", "circuitpoly", "--max-vertices", "-1"], "--max-vertices"),
        (["verify", "circuitpoly", "--max-edges", "-1"], "--max-edges"),
        (["verify", "rank", "--t", "-1"], "--t"),
        (["gen-fragments", "--t", "-1"], "--t"),
        (["gen-fragments", "--t", "1", "--max-internal", "-1"], "--max-internal"),
        (["gen-fragments", "--t", "1", "--max-edges", "-1"], "--max-edges"),
        (["gen-fragments", "--t", "1", "--limit", "-2"], "--limit"),
    ],
)
def test_negative_sizes_are_input_errors(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and flag in line


def test_verify_signs_refuses_sizes_past_its_budget(capsys):
    # m = 4 would search 1,680^2 pairs of matchings over up to 8! permutations
    assert main(["verify", "signs", "--max-m", "4", "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and "max_m" in line


@pytest.mark.parametrize("trials", ["0", "1"])
def test_verify_invariance_refuses_fewer_than_two_trials(capsys, trials):
    # one state per case compares nothing, so every case would read PASS
    assert main(["verify", "invariance", "--trials", trials, "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: trials must be at least 2 (a second state to compare), got {trials}\n"
    )


@pytest.mark.parametrize(
    "suite,flag,message",
    [
        ("invariance", "--count", "count must be at least 1 (a case to check), got 0"),
        ("gram", "--pairs", "pairs must be at least 1 (a pair to glue), got 0"),
    ],
)
def test_verify_refuses_an_empty_run(capsys, suite, flag, message):
    # no case would run, and "summary 0 cases, 0 failed" would read as a pass
    assert main(["verify", suite, flag, "0", "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_dglrs_refuses_k_past_its_budget(capsys, monkeypatch):
    # k = 6 would take determinants of 5,040 graphs of 42 vertices; the
    # refusal comes before the family sum of any k, the valid k = 1 included
    def family_sum(f, k):
        raise AssertionError(f"the family sum ran at k={k}")

    monkeypatch.setattr(suites, "dglrs_constraint_sum", family_sum)
    assert main(["verify", "dglrs", "--k", "1", "--k", "6", "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and f"at most {suites.MAX_DGLRS_K}" in line


def test_verify_charpoly_takes_negative_t(capsys):
    # charpoly's --t is the model's parameter, not a size; its default set has t = -2
    argv = ["verify", "charpoly", "--t", "-2", "--max-vertices", "1", "--max-edges", "2"]
    assert main([*argv, "--no-timing"]) == 0
    assert "summary" in capsys.readouterr().out


def test_verify_charpoly_takes_rational_t(capsys):
    # charpoly's --t is read as charpoly?t= reads it; its default set has t = 3/2
    argv = ["verify", "charpoly", "--t", "3/2", "--max-vertices", "1", "--max-edges", "2"]
    assert main([*argv, "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "t=3/2:" in out and out.splitlines()[-1] == "summary 4 cases, 0 failed"


@pytest.mark.parametrize("t", ["-3/2", "-2/5i", "-1/3+1/2i", "-i", "-.5"])
def test_verify_charpoly_takes_a_separate_t_that_starts_with_a_minus(capsys, t):
    sizes = ["--max-vertices", "2", "--max-edges", "2", "--no-timing"]
    assert main(["verify", "charpoly", f"--t={t}", *sizes]) == 0
    expected = capsys.readouterr().out
    assert expected.endswith(" 0 failed\n")
    assert main(["verify", "charpoly", "--t", t, *sizes]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv", [["--t", "--no-timing"], ["--t", "--max-vertices", "1"]])
def test_t_before_an_option_is_a_usage_error(capsys, argv):
    assert main(["verify", "charpoly", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == "error: argument --t: expected one argument"


def test_verify_charpoly_integer_t_output_is_unchanged(capsys):
    sizes = {"max_vertices": 2, "max_edges": 3}
    expected = SUITES["charpoly"](t_values=(2, -2), **sizes).render(show_timing=False)
    argv = ["verify", "charpoly", "--t", "2", "--t", "-2", "--max-vertices", "2", "--max-edges", "3"]
    assert main([*argv, "--no-timing"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "charpoly", "--t", "1e5"],
        ["verify", "charpoly", "--t", "3/"],
        ["verify", "rank", "--t", "3/2"],
    ],
)
def test_malformed_t_is_input_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: argument --t:")


@pytest.mark.parametrize(
    "argv,words",
    [
        (["verify", "bogus"], "invalid choice: 'bogus'"),
        (["verify", "signs", "--max-m", "two"], "--max-m"),
        (["eval", "k3.graph", "--model", "matchings"], "--mode"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
    ],
)
def test_usage_errors_are_one_line(capsys, argv, words):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and words in line


def test_help_prints_usage(capsys):
    assert main(["verify", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: mixedpf verify")


def test_verify_report_byte_stable(capsys):
    assert main(["verify", "signs", "--max-m", "2", "--no-timing"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "signs", "--max-m", "2", "--no-timing"]) == 0
    assert capsys.readouterr().out == first


def test_gen_fragments_roundtrip(capsys):
    assert main(["gen-fragments", "--t", "2", "--max-internal", "1", "--max-edges", "2", "--limit", "12"]) == 0
    out = capsys.readouterr().out
    frags = parse_fragments(out)
    assert 0 < len(frags) <= 12
    assert all(f.t == 2 for f in frags)


def test_gen_fragments_limit_keeps_the_first_blocks(capsys):
    family = ["gen-fragments", "--t", "2", "--max-internal", "1", "--max-edges", "3"]
    assert main(family) == 0
    out = capsys.readouterr().out
    blocks = [format_fragment(f) for f in parse_fragments(out)]
    assert len(blocks) == 6 and "".join(blocks) == out
    assert main(family + ["--limit", "4"]) == 0
    assert capsys.readouterr().out == "".join(blocks[:4])


def test_verify_charpoly_tiny(capsys):
    code = main(
        ["verify", "charpoly", "--max-vertices", "2", "--max-edges", "3", "--no-timing"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("summary")
