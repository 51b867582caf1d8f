"""The package surface and what each CLI command loads at start-up."""
import ast
import importlib
import os
import pathlib
import signal
import subprocess
import sys

import pytest

import avoid1342

#: ``from avoid1342 import *`` when ``__init__`` imported every layer eagerly.
EXPORTS = {
    "bijections": ["F_forward", "F_inverse", "beats", "f_forward", "f_inverse",
                   "forest_forward", "forest_inverse", "perm_to_shape", "reaches",
                   "shape_to_perm"],
    "counting": ["CrossCheckReport", "SequenceReport", "catalan", "cross_check",
                 "indecomposable_count", "nth_root_estimate", "s1234_closed",
                 "s1234_recurrence", "s1342_closed", "s1342_convolution", "t_closed",
                 "t_recurrence"],
    "errors": ["DomainError", "IntegralityError", "InvalidPermutationError",
               "InvalidTreeError", "ReconstructionError", "ResourceLimitError",
               "TreeParseError"],
    "perms": ["ClassSignature", "Permutation", "compose_blocks", "contains",
              "count_avoiders", "count_occurrences", "decompose", "is_indecomposable",
              "iter_avoiders", "left_to_right_minima", "normalize", "pattern_of",
              "same_class"],
    "series": ["F_series", "H_series_division", "H_series_rational", "TruncatedSeries",
               "one_minus_8x_pow_3_2", "reciprocal", "scale", "shift_divide",
               "verify_H_algebraic"],
    "trees": ["LabeledPlaneTree", "ShapeFlags", "classify_shape", "count_beta01",
              "generate_all_beta01", "iter_shapes", "iter_valid_labelings",
              "normalize_tree", "parse", "path_shape", "postorder_positions", "serialize",
              "subtree_size", "validate_beta01"],
}
NAMES = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


def test_the_star_import_set_is_the_71_names():
    namespace: dict = {}
    exec("from avoid1342 import *", namespace)
    del namespace["__builtins__"]
    assert len(NAMES) == 71
    assert sorted(namespace) == NAMES
    assert sorted(avoid1342.__all__) == NAMES


@pytest.mark.parametrize("layer", sorted(EXPORTS))
def test_each_name_is_the_object_of_its_layer(layer):
    module = importlib.import_module(f"avoid1342.{layer}")
    assert getattr(avoid1342, layer) is module
    for name in EXPORTS[layer]:
        assert getattr(avoid1342, name) is getattr(module, name), name


def test_dir_lists_every_name_and_unknown_names_raise():
    assert set(NAMES) <= set(dir(avoid1342))
    with pytest.raises(AttributeError, match="no_such_name"):
        avoid1342.no_such_name
    assert importlib.import_module("avoid1342.cli").main is avoid1342.cli.main


#: Loaded only by the commands that use them; run in a fresh interpreter.
HEAVY = ["avoid1342.counting", "avoid1342.series", "avoid1342.bijections",
         "dataclasses", "fractions", "decimal", "json"]
LIGHT_COMMANDS = [
    ["normalize", "32514"],
    ["count", "--pattern", "1342", "--n", "5", "--method", "brute"],
    ["generate", "trees", "--n", "5", "--count-only"],
    ["generate", "avoiders", "--pattern", "1342", "--n", "5", "--indecomposable",
     "--count-only"],
]
_CHILD = """
bare = set(sys.modules)
import avoid1342
found = {"import": sorted(m for m in sys.modules if m.startswith("avoid1342."))}
from avoid1342.cli import main
for argv in COMMANDS:
    code = main(argv)
    found[" ".join(argv)] = [code] + sorted(m for m in HEAVY if m in sys.modules and m not in bare)
print(repr(found))
"""


def test_light_commands_load_no_heavy_layer():
    src = str(pathlib.Path(avoid1342.__file__).resolve().parent.parent)
    script = (f"import sys\nsys.path.insert(0, {src!r})\n"
              f"COMMANDS = {LIGHT_COMMANDS!r}\nHEAVY = {HEAVY!r}\n{_CHILD}")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           timeout=60)
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert lines[:4] == ["32415", "103", "56", "56"]
    found = ast.literal_eval(lines[-1])
    assert found == {"import": [], **{" ".join(argv): [0] for argv in LIGHT_COMMANDS}}


@pytest.mark.parametrize("argv,code,out,err", [
    (["count", "--pattern", "1342", "--n", "6", "--method", "closed"], 0, "512\n", ""),
    (["normalize", "1x"], 2, "", "error: unreadable permutation text: '1x'\n"),
])
def test_python_dash_m_runs_the_cli_and_exits_with_its_code(argv, code, out, err):
    # through __main__ and cli.entrypoint's sys.exit, as the benchmark and users call it
    src = str(pathlib.Path(avoid1342.__file__).resolve().parent.parent)
    child = subprocess.run([sys.executable, "-m", "avoid1342", *argv], capture_output=True,
                           text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (child.returncode, child.stdout, child.stderr) == (code, out, err)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_reader_that_closes_the_pipe_ends_the_cli_quietly():
    # 54 912 trees, far more than a pipe buffers: the writer meets the closed pipe
    src = str(pathlib.Path(avoid1342.__file__).resolve().parent.parent)
    with subprocess.Popen([sys.executable, "-m", "avoid1342", "generate", "trees", "--n", "9"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as child:
        first = child.stdout.readline()
        child.stdout.close()
        code = child.wait(timeout=60)
        err = child.stderr.read()
    assert first.endswith(b")\n")
    assert err == b""  # no BrokenPipeError traceback
    assert code not in (1, 4)  # neither a discrepancy nor an internal error
