import json
import sys

import pytest

from avoid1342 import IntegralityError, ReconstructionError, bijections, cli, counting
from avoid1342.cli import main

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


def test_count_closed_1234(capsys):
    code, out, _ = run(capsys, "count", "--pattern", "1234", "--n", "7", "--method", "closed")
    assert (code, out) == (0, "2761\n")


def test_count_unsupported_pair(capsys):
    code, _, err = run(capsys, "count", "--pattern", "2413", "--n", "5", "--method", "closed")
    assert code == 2
    assert "no closed form" in err


def test_count_above_ceiling(capsys):
    code, _, err = run(capsys, "count", "--pattern", "1342", "--n", "13", "--method", "brute",
                       "--workers", "1")
    assert code == 3
    assert "ceiling" in err


@pytest.mark.parametrize("command", ["count", "sequence"])
@pytest.mark.parametrize("method", ["series", "convolution"])
def test_quadratic_methods_refuse_n_above_their_ceiling(capsys, command, method):
    size = "--n" if command == "count" else "--upto"
    code, out, err = run(capsys, command, "--pattern", "1342", size, str(cli.QUADRATIC_CEILING + 1),
                         "--method", method)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cli.QUADRATIC_CEILING) in err


def test_quadratic_ceiling_leaves_room_for_the_benchmark_sizes():
    assert cli.QUADRATIC_CEILING >= 2 * 1000


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


# ---------------------------------------------------------------- sequence

def test_sequence_closed_matches_known_values(capsys):
    code, out, _ = run(capsys, "sequence", "--pattern", "1342", "--upto", "10",
                       "--method", "closed")
    assert code == 0
    assert out == "".join(f"{n} {v}\n" for n, v in enumerate(S1342_VALUES, start=1))


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


def test_corrupt_closed_form_term_is_an_internal_error(capsys, monkeypatch):
    # 13 in place of 12 makes the next ratio step 13·4/3 inexact
    monkeypatch.setattr(counting, "_s1342_terms", [None, None, 13])
    code, out, err = run(capsys, "count", "--n", "20", "--pattern", "1342", "--method", "closed")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: ") and err.count("\n") == 1


# ---------------------------------------------------------------- generate

def test_generate_trees_count_only(capsys):
    code, out, _ = run(capsys, "generate", "trees", "--n", "3", "--count-only")
    assert (code, out) == (0, "3\n")


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


def test_generate_avoiders_requires_pattern(capsys):
    code, _, err = run(capsys, "generate", "avoiders", "--n", "3")
    assert code == 2


def test_generate_ceiling(capsys):
    code, _, err = run(capsys, "generate", "trees", "--n", "14", "--count-only")
    assert code == 3


# ---------------------------------------------------------------- verify

def test_verify_bijection(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bijection", "--max-n", "7")
    assert code == 0
    assert "OK" in out


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
