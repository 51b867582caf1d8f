import ast
import contextlib
import io
import json
import math
import pathlib
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avoid1342 import (
    IntegralityError,
    Permutation,
    ReconstructionError,
    ResourceLimitError,
    bijections,
    cli,
    counting,
    errors,
    perms,
    series,
    trees,
)
from avoid1342.cli import QUADRATIC_CEILING, main
from oracles import oracle_increasing_avoiders, oracle_s1342_closed_form

S1342_VALUES = [1, 2, 6, 23, 103, 512, 2740, 15485, 91245, 555662]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- count

def test_count_closed(capsys):
    code, out, _ = run(capsys, "count", "--pattern", "1342", "--n", "6", "--method", "closed")
    assert (code, out) == (0, "512\n")


def test_count_brute(capsys):
    code, out, _ = run(capsys, "count", "--pattern", "1342", "--n", "3", "--method", "brute",
                       "--workers", "1")
    assert (code, out) == (0, "6\n")


def test_count_brute_symmetry_class(capsys):
    # 2413 has the same counting sequence as 1342
    code, out, _ = run(capsys, "count", "--pattern", "2413", "--n", "5", "--method", "brute",
                       "--workers", "1")
    assert (code, out) == (0, "103\n")


@pytest.mark.parametrize("argv", [
    ("count", "--pattern", "1342", "--n", "8", "--method", "brute"),
    ("sequence", "--pattern", "2413", "--upto", "8", "--method", "brute"),
    ("generate", "avoiders", "--pattern", "1342", "--n", "8", "--indecomposable", "--count-only"),
])
def test_workers_changes_no_byte(capsys, argv):
    assert run(capsys, *argv, "--workers", "1") == run(capsys, *argv, "--workers", "5000")


def test_no_module_imports_a_process_pool():
    # every brute count runs in one process; --workers is accepted and ignored
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("concurrent", "multiprocessing"), (path, name)


def test_the_ceiling_and_its_refusal_are_written_once():
    sources = [path.read_text(encoding="utf-8")
               for path in pathlib.Path(cli.__file__).parent.glob("*.py")]
    assert sum(text.count("raise the ceiling explicitly") for text in sources) == 1
    stores = [node for text in sources for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.Name) and node.id == "DEFAULT_CEILING"
              and isinstance(node.ctx, ast.Store)]
    assert len(stores) == 1
    assert perms.DEFAULT_CEILING == trees.DEFAULT_CEILING == errors.DEFAULT_CEILING


@pytest.mark.parametrize("argv", [
    ("count", "--pattern", "1342", "--n", "1", "--method", "brute"),
    ("sequence", "--pattern", "1342", "--upto", "1", "--method", "brute"),
    ("generate", "trees", "--n", "1"),
    ("verify", "--suite", "bijection"),
])
def test_max_brute_n_defaults_to_the_one_ceiling(argv):
    assert cli.build_parser().parse_args(list(argv)).max_brute_n == errors.DEFAULT_CEILING


def test_count_closed_1234(capsys):
    code, out, _ = run(capsys, "count", "--pattern", "1234", "--n", "7", "--method", "closed")
    assert (code, out) == (0, "2761\n")


def test_count_1234_closed_is_linear_in_n(capsys):
    # one P-recurrence pass; summing the closed form for one n took about 53 s
    # at n = 20 000
    start = time.perf_counter()
    code, out, _ = run(capsys, "count", "--pattern", "1234", "--n", "20000", "--method", "closed")
    elapsed = time.perf_counter() - start
    assert code == 0 and out[:-1].isdigit() and out.endswith("\n")
    assert elapsed < 5.0, elapsed
    code, out, _ = run(capsys, "count", "--pattern", "1234", "--n", "1000", "--method", "closed")
    assert (code, out) == (0, f"{counting.s1234_closed(1000)}\n")


def test_count_series_reads_the_linear_route(capsys):
    # the division route took about 23 s at n = 2 500; the rational one 0.02 s
    expected = counting.s1342_closed(QUADRATIC_CEILING)
    start = time.perf_counter()
    code, out, _ = run(capsys, "count", "--pattern", "1342", "--n", str(QUADRATIC_CEILING),
                       "--method", "series")
    elapsed = time.perf_counter() - start
    assert (code, out) == (0, f"{expected}\n")
    assert elapsed < 2.0, elapsed


def test_count_unsupported_pair(capsys):
    code, _, err = run(capsys, "count", "--pattern", "2413", "--n", "5", "--method", "closed")
    assert code == 2
    assert "no closed form" in err


def test_count_above_ceiling(capsys):
    code, _, err = run(capsys, "count", "--pattern", "1342", "--n", "13", "--method", "brute",
                       "--workers", "1")
    assert code == 3
    assert "ceiling" in err


def test_sequence_brute_refuses_upto_above_the_ceiling_before_any_count(capsys, monkeypatch):
    count = perms.count_avoiders
    calls = []
    monkeypatch.setattr(perms, "count_avoiders", lambda *args, **kwargs: calls.append(args) or 0)
    # the line names the first n refused, as when the loop reached it
    code, out, err = run(capsys, "sequence", "--pattern", "1342", "--upto", "10",
                         "--method", "brute", "--max-brute-n", "8")
    with pytest.raises(ResourceLimitError) as refused:
        count(9, perms.Permutation((1, 3, 4, 2)), ceiling=8)
    assert (code, out, err) == (3, "", f"error: {refused.value}\n")
    assert calls == []


@pytest.mark.parametrize("command", ["count", "sequence"])
@pytest.mark.parametrize("method", ["series", "convolution"])
def test_quadratic_methods_refuse_n_above_their_ceiling(capsys, command, method):
    size = "--n" if command == "count" else "--upto"
    code, out, err = run(capsys, command, "--pattern", "1342", size, str(cli.QUADRATIC_CEILING + 1),
                         "--method", method)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cli.QUADRATIC_CEILING) in err


@pytest.mark.parametrize("suite", ["sequences", "all"])
def test_verify_sequences_refuses_max_n_above_the_quadratic_ceiling(capsys, suite):
    # the suite runs H_series_division over its whole range
    code, out, err = run(capsys, "verify", "--suite", suite,
                         "--max-n", str(cli.QUADRATIC_CEILING + 1))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cli.QUADRATIC_CEILING) in err


def test_quadratic_ceiling_leaves_room_for_the_benchmark_sizes():
    assert cli.QUADRATIC_CEILING >= 2 * 1000


def test_routes_and_their_ceilings_have_one_home():
    # cli's counts pick no route themselves: they read counting._ROUTES, whose ceilings live
    # in errors
    source = pathlib.Path(cli.__file__).read_text(encoding="utf-8")
    (counts,) = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef) and node.name == "_counts"]
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(counts)}
    assert "_ROUTES" in names
    assert not names & {"H_series_rational", "s1342_convolution", "_s1342_closed_values",
                        "_s1234_values", "QUADRATIC_CEILING"}
    stores = [node for path in pathlib.Path(cli.__file__).parent.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Name) and node.id == "QUADRATIC_CEILING"
              and isinstance(node.ctx, ast.Store)]
    assert len(stores) == 1
    assert cli.QUADRATIC_CEILING == counting.QUADRATIC_CEILING == errors.QUADRATIC_CEILING


#: the oracle of each pattern that has a route other than brute force
ROUTE_ORACLES = {(1, 3, 4, 2): oracle_s1342_closed_form,
                 (1, 2, 3, 4): lambda n: oracle_increasing_avoiders(n, 4)}


@pytest.mark.parametrize("key", sorted(counting._ROUTES),
                         ids=lambda key: "".join(map(str, key[0])) + "-" + key[1])
def test_every_route_gives_the_oracle_values_and_answers_up_to_its_ceiling(capsys, key):
    values, ceiling = counting._ROUTES[key]
    pattern, method = key
    oracle = ROUTE_ORACLES[pattern]
    for lo, hi in ((0, 0), (0, 6), (3, 3), (1, 0), (5, 12), (0, 30), (29, 30)):
        assert values(lo, hi) == [oracle(n) for n in range(lo, hi + 1)], (lo, hi)
    if ceiling == math.inf:
        return
    argv = ("count", "--pattern", "".join(map(str, pattern)), "--method", method, "--n")
    expected = counting._ROUTES[pattern, "closed"][0](ceiling, ceiling)
    assert run(capsys, *argv, str(ceiling)) == (0, f"{expected[0]}\n", "")
    assert run(capsys, *argv, str(ceiling + 1)) == (
        3, "", f"error: n={ceiling + 1} exceeds the ceiling {ceiling} of --method {method}\n")


@pytest.mark.parametrize("pattern,method", [
    (pattern, method) for pattern in ("1342", "1234", "2413")
    for method in ("closed", "series", "convolution")
    if (tuple(map(int, pattern)), method) not in counting._ROUTES])
def test_a_pair_with_no_route_is_bad_input(capsys, pattern, method):
    route = "closed form" if method == "closed" else method
    assert run(capsys, "count", "--pattern", pattern, "--n", "5", "--method", method) == (
        2, "", f"error: no {route} for pattern {pattern}\n")


def test_count_bad_pattern_text(capsys):
    code, _, err = run(capsys, "count", "--pattern", "14x2", "--n", "5", "--method", "brute",
                       "--workers", "1")
    assert code == 2


@pytest.mark.parametrize(
    "pattern,method",
    [("1342", "closed"), ("1342", "series"), ("1342", "convolution"), ("1342", "brute"),
     ("1234", "closed"), ("1234", "brute")],
)
def test_count_n_zero_is_the_empty_permutation(capsys, pattern, method):
    code, out, err = run(capsys, "count", "--pattern", pattern, "--n", "0", "--method", method,
                         "--workers", "1")
    assert (code, out, err) == (0, "1\n", "")


@pytest.mark.parametrize(
    "pattern,method",
    [("2413", "closed"), ("1234", "series"), ("132", "convolution"), ("14x2", "brute")],
)
def test_sequence_upto_zero_refuses_unsupported_pairs_like_count(capsys, pattern, method):
    common = ("--pattern", pattern, "--method", method, "--workers", "1")
    code, out, err = run(capsys, "sequence", "--upto", "0", *common)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert run(capsys, "count", "--n", "0", *common) == (2, "", err)


@pytest.mark.parametrize(
    "pattern,method",
    [("1342", "closed"), ("1342", "series"), ("1342", "convolution"), ("1342", "brute"),
     ("1234", "closed"), ("1234", "brute"), ("2413", "brute")],
)
def test_count_reads_the_rows_of_sequence(capsys, pattern, method):
    common = ("--pattern", pattern, "--method", method, "--workers", "1")
    values = []
    for k in range(1, 9):
        code, out, err = run(capsys, "count", "--n", str(k), *common)
        assert (code, err) == (0, "")
        values.append(out[:-1])
    rows = list(enumerate(values, start=1))
    tables = {fmt: run(capsys, "sequence", "--upto", "8", "--format", fmt, *common)
              for fmt in ("text", "csv", "json")}
    assert tables["text"] == (0, "".join(f"{k} {v}\n" for k, v in rows), "")
    assert tables["csv"] == (0, "n,value\n" + "".join(f"{k},{v}\n" for k, v in rows), "")
    code, out, err = tables["json"]
    assert (code, err) == (0, "")
    assert json.loads(out)["values"] == [{"n": k, "value": v} for k, v in rows]


@pytest.mark.parametrize("argv", [
    ("count", "--pattern", "1342", "--n", "7", "--method", "brute"),
    ("count", "--pattern", "1342", "--n", "7", "--method", "closed"),
    ("sequence", "--pattern", "1342", "--upto", "7", "--method", "brute"),
    ("generate", "avoiders", "--pattern", "1342", "--n", "7", "--count-only"),
    ("generate", "trees", "--n", "3"),
])
def test_workers_below_one_is_bad_input(capsys, argv):
    for workers in ("0", "-1"):
        code, out, err = run(capsys, *argv, "--workers", workers)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("count", "--pattern", "1342", "--n", "3", "--method", "brute"),
    ("sequence", "--pattern", "1342", "--upto", "3", "--method", "brute"),
    ("generate", "trees", "--n", "3", "--count-only"),
    ("generate", "avoiders", "--pattern", "1342", "--n", "3"),
    ("verify", "--suite", "bijection", "--max-n", "3"),
])
def test_negative_max_brute_n_is_bad_input(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-brute-n", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    # 0 is a ceiling: it admits n = 0 and refuses larger n
    assert run(capsys, *argv, "--max-brute-n", "0")[0] == 3


#: each integer option in a call that it alone would spoil
INTEGER_OPTIONS = {
    "--n": ("count", "--pattern", "1342", "--method", "closed"),
    "--upto": ("sequence", "--pattern", "1342", "--method", "closed"),
    "--max-n": ("verify", "--suite", "series"),
    "--max-brute-n": ("count", "--pattern", "1342", "--n", "3", "--method", "brute"),
    "--workers": ("count", "--pattern", "1342", "--n", "3", "--method", "brute"),
}


@pytest.mark.parametrize("option", INTEGER_OPTIONS)
@pytest.mark.parametrize("text", ["٣", "1_0", "+5", " 5", "5 ", "x"])
def test_integer_options_read_ascii_digits_only(capsys, option, text):
    # int() reads all but "x"; the options read what permutation text reads
    with pytest.raises(SystemExit) as refused:
        main([*INTEGER_OPTIONS[option], option, text])
    captured = capsys.readouterr()
    assert (refused.value.code, captured.out) == (2, "")
    assert f"error: argument {option}: invalid int value: {text!r}" in captured.err


@pytest.mark.parametrize("command,size", [("count", "--n"), ("sequence", "--upto")])
@pytest.mark.parametrize("digits,commas", [("1342", "1,3,4,2"), ("1234", "1,2,3,4")])
def test_closed_counts_read_the_pattern_in_either_form(capsys, command, size, digits, commas):
    common = (size, "7", "--method", "closed")
    expected = run(capsys, command, "--pattern", digits, *common)
    assert expected[0] == 0
    assert run(capsys, command, "--pattern", commas, *common) == expected


@pytest.mark.parametrize("method", ["closed", "series", "convolution", "brute"])
def test_unreadable_pattern_is_reported_by_every_method(capsys, method):
    code, out, err = run(capsys, "count", "--pattern", "1x", "--n", "5", "--method", method)
    assert (code, out, err) == (2, "", "error: unreadable permutation text: '1x'\n")


def test_json_sequence_keeps_the_pattern_as_written(capsys):
    code, out, _ = run(capsys, "sequence", "--pattern", "1,3,4,2", "--upto", "3",
                       "--method", "closed", "--json")
    assert code == 0
    assert json.loads(out)["pattern"] == "1,3,4,2"


# ---------------------------------------------------------------- sequence

def test_sequence_closed_matches_known_values(capsys):
    code, out, _ = run(capsys, "sequence", "--pattern", "1342", "--upto", "10",
                       "--method", "closed")
    assert code == 0
    assert out == "".join(f"{n} {v}\n" for n, v in enumerate(S1342_VALUES, start=1))


def test_sequence_1342_closed_matches_the_rational_series_to_2500(capsys):
    # the closed rows, one pass of running sums, against the independent linear series route
    h = series.H_series_rational(2500)
    code, out, err = run(capsys, "sequence", "--pattern", "1342", "--upto", "2500",
                         "--method", "closed")
    assert (code, err) == (0, "")
    assert out == "".join(f"{n} {int(h.coefficient(n))}\n" for n in range(1, 2501))


def test_sequence_1234_closed_is_linear_in_upto(capsys):
    # one P-recurrence step per value; summing the closed form for every n
    # grows about 8-fold per doubling of --upto (about 30 s at 1000)
    start = time.perf_counter()
    code, out, _ = run(capsys, "sequence", "--pattern", "1234", "--upto", "1000",
                       "--method", "closed")
    elapsed = time.perf_counter() - start
    rows = [line.split() for line in out.splitlines()]
    assert code == 0 and len(rows) == 1000
    assert [int(v) for _, v in rows[:8]] == [1, 2, 6, 23, 103, 513, 2761, 15767]
    assert rows[-1] == ["1000", str(counting.s1234_closed(1000))]
    assert elapsed < 3.0, elapsed


def test_sequence_empty(capsys):
    code, out, _ = run(capsys, "sequence", "--pattern", "1342", "--upto", "0",
                       "--method", "closed")
    assert (code, out) == (0, "")


def test_sequence_convolution_json(capsys):
    code, out, _ = run(capsys, "sequence", "--pattern", "1342", "--upto", "30",
                       "--method", "convolution", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pattern"] == "1342"
    assert payload["method"] == "convolution"
    assert len(payload["values"]) == 30
    assert payload["values"][5] == {"n": 6, "value": "512"}
    # JSON and text modes encode the same numbers
    code, text_out, _ = run(capsys, "sequence", "--pattern", "1342", "--upto", "30",
                            "--method", "closed")
    text_values = [line.split()[1] for line in text_out.splitlines()]
    assert text_values == [item["value"] for item in payload["values"]]


def test_sequence_csv(capsys):
    code, out, _ = run(capsys, "sequence", "--pattern", "1342", "--upto", "3",
                       "--method", "series", "--format", "csv")
    assert code == 0
    assert out == "n,value\n1,1\n2,2\n3,6\n"


def test_sequence_json_shorthand(capsys):
    _, long_form, _ = run(capsys, "sequence", "--pattern", "1342", "--upto", "4",
                          "--method", "closed", "--format", "json")
    _, short_form, _ = run(capsys, "sequence", "--pattern", "1342", "--upto", "4",
                           "--method", "closed", "--json")
    assert long_form == short_form


def test_values_past_the_default_digit_limit(capsys, monkeypatch):
    # Python refuses int <-> str beyond 4 300 digits unless the limit is lifted
    text = "1" + "0" * 4998 + "7"
    monkeypatch.setattr(counting, "s1342_convolution", lambda n: [10 ** 4999 + 7] * (n + 1))
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "count", "--pattern", "1342", "--n", "3", "--method", "convolution")
    assert (code, out, err) == (0, text + "\n", "")
    code, out, err = run(capsys, "sequence", "--pattern", "1342", "--upto", "2",
                         "--method", "convolution", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["values"] == [{"n": 1, "value": text}, {"n": 2, "value": text}]
    assert sys.get_int_max_str_digits() == limit
    # an option past the cap is refused as unreadable, not read with the cap lifted
    with pytest.raises(SystemExit) as refused:
        main(["count", "--pattern", "1342", "--n", "1" * 5000, "--method", "closed"])
    assert refused.value.code == 2 and "invalid int value" in capsys.readouterr().err


# ---------------------------------------------------------------- map

def test_map_perm_to_tree(capsys):
    code, out, _ = run(capsys, "map", "perm-to-tree", "361542")
    assert (code, out) == (0, "3(3(1(0) 1(0)))\n")


def test_map_tree_to_perm(capsys):
    code, out, _ = run(capsys, "map", "tree-to-perm", "0")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "map", "tree-to-perm", "3(3(1(0) 1(0)))")
    assert (code, out) == (0, "361542\n")


def test_map_roundtrip_1432(capsys):
    code, out, _ = run(capsys, "map", "perm-to-tree", "1432")
    assert code == 0
    tree_text = out.strip()
    code, out, _ = run(capsys, "map", "tree-to-perm", tree_text)
    assert (code, out) == (0, "1432\n")


def test_map_forest(capsys):
    code, out, _ = run(capsys, "map", "perm-to-forest", "312")
    assert (code, out) == (0, "0,0(0)\n")
    code, out, _ = run(capsys, "map", "forest-to-perm", "0,0(0)")
    assert (code, out) == (0, "312\n")


def test_map_forest_reads_back_the_empty_forest(capsys):
    # the empty permutation has no blocks, so its forest prints as an empty line
    assert run(capsys, "map", "perm-to-forest", "") == (0, "\n", "")
    assert run(capsys, "map", "forest-to-perm", "") == (0, "\n", "")
    assert run(capsys, "normalize", "") == (0, "\n", "")
    # an empty part between trees is still a missing tree
    code, out, err = run(capsys, "map", "forest-to-perm", ",")
    assert (code, out, err) == (2, "", "error: expected a label (at position 0)\n")


def test_map_forest_reports_the_offset_in_the_whole_input(capsys):
    code, out, err = run(capsys, "map", "forest-to-perm", "0,,0")
    assert (code, out, err) == (2, "", "error: expected a label (at position 2)\n")
    code, out, err = run(capsys, "map", "forest-to-perm", "0,0(0),1(0")
    assert (code, out, err) == (2, "", "error: expected ')' or ' ' (at position 10)\n")


def test_map_error_reasons_are_specific(capsys):
    code, _, err = run(capsys, "map", "perm-to-tree", "1342")
    assert code == 2 and "1342" in err
    code, _, err = run(capsys, "map", "perm-to-tree", "312")
    assert code == 2 and "decomposable" in err
    code, _, err = run(capsys, "map", "tree-to-perm", "1(1(0)")
    assert code == 2 and "position" in err


def test_map_rejects_non_ascii_digit(capsys):
    code, out, err = run(capsys, "map", "tree-to-perm", "\u00b2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("map", "perm-to-tree", "\u0663\u0666\u0661\u0665\u0664\u0662"),
    ("count", "--pattern", "\u0661\u0663\u0664\u0662", "--n", "4", "--method", "brute",
     "--workers", "1"),
    ("normalize", "\uff112"),
])
def test_permutation_text_rejects_non_ascii_digits(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_map_deep_zero_path_tree(capsys):
    n = 1100
    assert n > sys.getrecursionlimit()
    text = "0(" * (n - 1) + "0" + ")" * (n - 1)
    code, out, err = run(capsys, "map", "tree-to-perm", text)
    assert (code, out, err) == (0, ",".join(str(v) for v in range(1, n + 1)) + "\n", "")


@pytest.mark.parametrize("error", [ReconstructionError, IntegralityError])
def test_internal_error_has_its_own_exit_code(capsys, monkeypatch, error):
    def broken(tree):
        raise error("self-check failed")

    monkeypatch.setattr(bijections, "F_inverse", broken)
    code, out, err = run(capsys, "map", "tree-to-perm", "0")
    assert (code, out, err) == (4, "", "internal error: self-check failed\n")


@pytest.mark.parametrize("argv", [
    ("count", "--n", "20", "--method", "closed"),
    ("count", "--n", "20", "--method", "convolution"),
    ("sequence", "--upto", "20", "--method", "closed"),
], ids=["closed", "convolution", "sequence-closed"])
def test_corrupt_closed_form_term_is_an_internal_error(capsys, monkeypatch, argv):
    # 4 in place of t(2) = 3 keeps the step to t(3) exact (20·4/5) but makes
    # the step to t(4), 28·16/6, inexact; both routes read t off the checked recurrence
    monkeypatch.setattr(counting, "_t_cache", [None, 1, 4])
    code, out, err = run(capsys, *argv, "--pattern", "1342")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: ") and err.count("\n") == 1


# ---------------------------------------------------------------- generate

@pytest.mark.parametrize("n", range(9))
def test_generate_trees_count_only(capsys, n):
    code, stream, err = run(capsys, "generate", "trees", "--n", str(n))
    assert (code, err) == (0, "")
    lines = stream.count("\n")
    assert run(capsys, "generate", "trees", "--n", str(n), "--count-only") == (0, f"{lines}\n", "")


def test_generate_trees_count_only_builds_no_tree(capsys, monkeypatch):
    def refusing(*args, **kwargs):
        raise AssertionError("the count built trees")

    monkeypatch.setattr(trees, "generate_all_beta01", refusing)
    assert run(capsys, "generate", "trees", "--n", "9", "--count-only") == (0, "54912\n", "")


def test_generate_trees_count_only_refuses_like_the_stream(capsys):
    argv = ("generate", "trees", "--n", "9", "--max-brute-n", "8")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and err.startswith("error: ") and err.count("\n") == 1
    assert run(capsys, *argv, "--count-only") == (code, out, err)


def test_generate_trees_n1(capsys):
    code, out, _ = run(capsys, "generate", "trees", "--n", "1")
    assert (code, out) == (0, "0\n")


def test_generate_trees_streams_canonical_lines(capsys):
    code, out, _ = run(capsys, "generate", "trees", "--n", "3")
    assert code == 0
    assert sorted(out.splitlines()) == ["0(0 0)", "0(0(0))", "1(1(0))"]


def test_generate_avoiders_count(capsys):
    code, out, _ = run(capsys, "generate", "avoiders", "--pattern", "1342", "--n", "4",
                       "--indecomposable", "--count-only", "--workers", "1")
    assert (code, out) == (0, "12\n")


def test_generate_avoiders_stream(capsys):
    code, out, _ = run(capsys, "generate", "avoiders", "--pattern", "1342", "--n", "3",
                       "--workers", "1")
    assert code == 0
    assert out.splitlines() == ["123", "132", "213", "231", "312", "321"]


def test_generate_avoiders_first_entry_1(capsys):
    argv = ("generate", "avoiders", "--pattern", "1342", "--first-entry-1")
    assert run(capsys, *argv, "--n", "5", "--count-only") == (0, "14\n", "")
    assert run(capsys, *argv, "--n", "3") == (0, "123\n132\n", "")


def test_generate_avoiders_requires_pattern(capsys):
    code, _, err = run(capsys, "generate", "avoiders", "--n", "3")
    assert code == 2


def test_generate_ceiling(capsys):
    code, _, err = run(capsys, "generate", "trees", "--n", "14", "--count-only")
    assert code == 3


@pytest.mark.parametrize("kind", [("trees",), ("avoiders", "--pattern", "1342")])
def test_generate_refuses_negative_n(capsys, kind):
    code, out, err = run(capsys, "generate", *kind, "--n", "-1", "--workers", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------- verify

@pytest.mark.parametrize("suite", ["bijection", "sequences", "series", "all"])
def test_verify_refuses_negative_max_n(capsys, suite):
    # 0 is refused too: it would check nothing and print OK
    for max_n in ("-2", "0"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", max_n)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("suite", ["bijection", "all"])
def test_verify_bijection_refuses_max_n_above_the_brute_ceiling_before_any_work(
        capsys, monkeypatch, suite):
    calls = []
    forward = bijections.F_forward

    def recording(p):
        calls.append(p)
        return forward(p)

    monkeypatch.setattr(bijections, "F_forward", recording)
    # the line names the first n refused, as when the suite reached it
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", "10", "--max-brute-n", "8")
    with pytest.raises(ResourceLimitError) as refused:
        next(perms.iter_avoiders(9, perms.Permutation((1, 3, 4, 2)), "indecomposable", ceiling=8))
    assert (code, out, err) == (3, "", f"error: {refused.value}\n")
    assert calls == []


def test_verify_bijection(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bijection", "--max-n", "7")
    assert code == 0
    assert "OK" in out


def verify_bijection_fails(capsys, max_n):
    code, out, err = run(capsys, "verify", "--suite", "bijection", "--max-n", str(max_n))
    assert (code, err) == (1, "") and out.endswith("\nverify bijection: FAIL\n")
    return out.splitlines()


def test_verify_bijection_reports_a_failed_roundtrip(capsys, monkeypatch):
    inverse = bijections.F_inverse

    def swapping(tree):
        vals = inverse(tree).values
        return Permutation(vals[1::-1] + vals[2:])

    monkeypatch.setattr(bijections, "F_inverse", swapping)
    lines = verify_bijection_fails(capsys, 3)
    assert "FAIL n=2: roundtrip 12 -> 0(0) -> 21" in lines
    assert not any(line.startswith("FAIL n=1:") for line in lines)


def test_verify_bijection_reports_an_invalid_image_and_skips_its_roundtrip(capsys, monkeypatch):
    forward, invalid = bijections.F_forward, trees.parse("0(1)")
    monkeypatch.setattr(bijections, "F_forward", lambda p: invalid if len(p) == 2 else forward(p))
    lines = verify_bijection_fails(capsys, 3)
    assert "FAIL n=2: image of 12 is not a valid tree" in lines
    assert not any("roundtrip" in line for line in lines)
    assert not any(line.startswith(("FAIL n=1:", "FAIL n=3:")) for line in lines)


def test_verify_bijection_reports_a_collision_and_a_short_image(capsys, monkeypatch):
    forward, fixed = bijections.F_forward, trees.parse("0(0 0)")
    monkeypatch.setattr(bijections, "F_forward", lambda p: fixed if len(p) == 3 else forward(p))
    lines = verify_bijection_fails(capsys, 4)
    assert lines.count("FAIL n=3: collision at 0(0 0)") == 2
    assert "FAIL n=3: image has 1 trees, expected 3" in lines
    assert not any(line.startswith(("FAIL n=2:", "FAIL n=4:")) for line in lines)


def test_verify_bijection_counts_the_image_against_count_beta01(capsys, monkeypatch):
    count = trees.count_beta01
    monkeypatch.setattr(trees, "count_beta01", lambda n, **kwargs: count(n, **kwargs) + 1)
    lines = verify_bijection_fails(capsys, 4)
    assert lines == [f"FAIL n={n}: image has {t} trees, expected {t + 1}"
                     for n, t in zip(range(1, 5), [1, 1, 3, 12])] + ["verify bijection: FAIL"]


def test_verify_bijection_builds_no_tree_stream(capsys, monkeypatch):
    def refusing(*args, **kwargs):
        raise AssertionError("the suite streamed the trees")

    monkeypatch.setattr(trees, "generate_all_beta01", refusing)
    assert run(capsys, "verify", "--suite", "bijection", "--max-n", "6") == (
        0, "verify bijection: OK\n", "")


def verify_series_fails(capsys):
    code, out, err = run(capsys, "verify", "--suite", "series")
    assert (code, err) == (1, "")
    return out


def test_verify_series_reports_routes_that_disagree(capsys, monkeypatch):
    rational = series.H_series_rational

    def perturbed(order):
        coeffs = list(rational(order).coeffs)
        coeffs[order] += 1
        return series.TruncatedSeries(tuple(coeffs))

    monkeypatch.setattr(series, "H_series_rational", perturbed)
    assert verify_series_fails(capsys) == "FAIL the two series routes disagree\nverify series: FAIL\n"


def test_verify_series_reports_a_failed_identity(capsys, monkeypatch):
    monkeypatch.setattr(series, "verify_H_algebraic", lambda order, h: False)
    assert verify_series_fails(capsys) == "FAIL the algebraic identity fails\nverify series: FAIL\n"


def test_verify_all_trivial(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "1")
    assert code == 0


def test_verify_sequences_expect_failure(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sequences", "--max-n", "4",
                       "--expect-failure")
    assert code == 1
    assert "FAIL" in out


def test_verify_expect_failure_wrong_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bijection", "--expect-failure")
    assert code == 2


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sequences", "--max-n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["sequences"]["consistent"] is True


# ---------------------------------------------------------------- normalize

def test_normalize(capsys):
    assert run(capsys, "normalize", "32514") == (0, "32415\n", "")
    assert run(capsys, "normalize", "361542") == (0, "341256\n", "")
    assert run(capsys, "normalize", "123") == (0, "123\n", "")


def test_normalize_parse_error(capsys):
    code, _, err = run(capsys, "normalize", "12x")
    assert code == 2


# ---------------------------------------------------------------- harness behavior

def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--pattern", "1342", "--n", "3", "--method", "brute", "--frobnicate"])
    assert exc.value.code == 2


def test_identical_invocations_identical_bytes(capsys):
    first = run(capsys, "sequence", "--pattern", "1342", "--upto", "8", "--method", "closed")
    second = run(capsys, "sequence", "--pattern", "1342", "--upto", "8", "--method", "closed")
    assert first == second


#: integer option texts beside the in-range ones: empty, a float, a hex
#: literal, and non-ASCII digits, which ``int`` reads (3 and 13)
ODD_INTS = ["", "1e3", "0x3", "-0", "\u0663", "\u0661\u0663"]
#: permutation and tree texts that no parser accepts as they stand
MALFORMED = ["", "1x", "1, 2", "1,,2", "0", "11", "\u0661\u0662", "1," + "9" * 5000,
             "0(", "0()", "0( 0)", "01", "0(0 )", "0(0),", ","]


def mostly(valid, odd):
    """``valid`` three times in four, else one of the ``odd`` values."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else st.sampled_from(odd))


def ints(hi):
    return mostly(st.integers(-1, hi).map(str), ODD_INTS)


@st.composite
def perm_texts(draw):
    vals = draw(st.permutations(range(1, draw(st.integers(1, 8)) + 1)))
    return draw(st.sampled_from(["".join, ",".join]))([str(v) for v in vals])


@st.composite
def tree_texts(draw):
    """A tree on 1-8 nodes, labeled validly but for one label sometimes raised by 1."""
    depth = [0]  # by pre-order index
    for _ in range(draw(st.integers(0, 7))):
        depth.append(draw(st.integers(1, depth[-1] + 1)))
    kids = [[] for _ in depth]
    open_nodes = []  # the path from the root to the last node
    for i, d in enumerate(depth):
        del open_nodes[d:]
        if open_nodes:
            kids[open_nodes[-1]].append(i)
        open_nodes.append(i)
    label, text = [0] * len(depth), [""] * len(depth)
    for i in range(len(depth) - 1, -1, -1):  # children first
        below = sum(label[c] for c in kids[i])
        label[i] = below if i == 0 else draw(st.integers(0, below + 1)) if kids[i] else 0
    if draw(st.booleans()):
        label[draw(st.integers(0, len(depth) - 1))] += 1
    for i in range(len(depth) - 1, -1, -1):
        text[i] = str(label[i]) + (f"({' '.join(text[c] for c in kids[i])})" if kids[i] else "")
    return text[0]


@st.composite
def argvs(draw):
    """One call of count, sequence, generate, normalize or map, at sizes that finish fast."""
    named = st.sampled_from(["1342", "1234", "2413"])  # only the first two have closed forms
    patterns = mostly(st.one_of(perm_texts(), named), MALFORMED)

    def flag(name, values):
        return [name, draw(values)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["count", "sequence", "generate", "normalize", "map"]))
    if command in ("count", "sequence"):
        method = draw(mostly(st.sampled_from(["brute", "closed", "series", "convolution"]),
                             ["fast"]))
        sizes = ints(9) if method == "brute" else ints(60)
        if method != "brute":
            patterns = mostly(named, MALFORMED)
        if method in ("series", "convolution"):  # above their ceiling: refused before work
            sizes = st.one_of(sizes, st.just(str(QUADRATIC_CEILING + 1)))
        argv = [command, "--pattern", draw(patterns), "--n" if command == "count" else "--upto",
                draw(sizes), "--method", method]
        if command == "sequence":
            argv += flag("--format", mostly(st.sampled_from(["text", "csv", "json"]), ["xml"]))
        return argv + flag("--max-brute-n", ints(9)) + flag("--workers", ints(2))
    if command == "generate":
        kind = draw(mostly(st.sampled_from(["trees", "avoiders"]), ["forests"]))
        count_only = draw(st.booleans())
        argv = [command, kind, "--n", draw(ints(8 if kind == "trees" or count_only else 7))]
        argv += draw(mostly(patterns.map(lambda text: ["--pattern", text]), [[]]))
        argv += ["--count-only"] * count_only
        argv += [name for name in ("--indecomposable", "--first-entry-1") if draw(st.booleans())]
        return argv + flag("--max-brute-n", ints(9))
    if command == "normalize":
        return [command, draw(mostly(perm_texts(), MALFORMED))]
    direction = draw(mostly(st.sampled_from(["perm-to-tree", "perm-to-forest", "tree-to-perm",
                                             "forest-to-perm"]), ["tree-to-tree"]))
    if direction.startswith("perm"):
        return [command, direction, draw(mostly(perm_texts(), MALFORMED))]
    texts = mostly(tree_texts(), MALFORMED + ["1" + "0" * 5000 + "(0)"])
    if direction == "forest-to-perm":
        texts = st.lists(texts, min_size=1, max_size=3).map(",".join)
    return [command, direction, draw(texts)]


def assert_error_contract(argv):
    """Exit 0-3, no escaped exception, and on 2 or 3 no stdout and one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as refused:  # argparse refuses with the process's exit code
            code = refused.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code in (2, 3):
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert sum(line.startswith("error: ") or ": error: " in line for line in lines) == 1, argv
    return code


@settings(max_examples=300, deadline=2000)
@given(argvs())
def test_every_call_exits_by_the_error_contract(argv):
    assert_error_contract(argv)


@pytest.mark.parametrize("max_n", ["-1", "0", "1", "6"])
@pytest.mark.parametrize("suite", ["bijection", "sequences", "series", "all"])
def test_every_verify_call_exits_by_the_error_contract(suite, max_n):
    codes = set()
    for max_brute_n in ("-1", "0", "5", "6"):
        for extra in ([], ["--json"], ["--expect-failure"], ["--json", "--expect-failure"]):
            argv = ["verify", "--suite", suite, "--max-n", max_n, "--max-brute-n", max_brute_n]
            codes.add(assert_error_contract(argv + extra))
    assert 2 in codes  # a negative --max-brute-n is bad input for every suite
