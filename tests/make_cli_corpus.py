"""Write ``cli_corpus.jsonl``: the CLI's bytes and exit codes over a fixed set of calls.

Run from the repository root::

    PYTHONPATH=src python tests/make_cli_corpus.py

Each line of the corpus is one in-process ``cli.main`` call, recorded by
:func:`record`: the argv, the exit code, the sha256 of stdout and of stderr,
and stdout itself when it is short.  argparse's own refusals (unknown choice,
unreadable integer, missing option) keep only the exit code, an empty stdout
and the prefix of the ``error:`` line, since Python versions word the rest
differently.  ``tests/test_cli_corpus.py`` replays every line.

The calls are ``count`` and ``sequence`` for 1342, 1234, 2413 and 132 by
every method at edge sizes (ceiling and ceiling + 1 included), ``verify``
over suites, ``--max-n`` up to 6 and flags, ``map`` in all four directions
on every permutation and every valid tree of size up to 6 plus malformed
texts, ``generate`` and ``normalize``.  A call that takes more than
``SLOWEST`` seconds here is left out, so that the replay stays short; the
script prints how many.  A change that alters output on purpose rewrites
the file, and its record says which lines moved.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import time

from avoid1342 import bijections, cli, perms, trees

CORPUS = pathlib.Path(__file__).with_name("cli_corpus.jsonl")
#: stdout up to this many characters is kept as text beside its hash
SHORT = 200
#: calls slower than this many seconds are left out of the corpus
SLOWEST = 0.1
#: calls known to take many seconds, which are not even timed
QUADRATIC_AT_CEILING = {(method, str(cli.QUADRATIC_CEILING)) for method in ("series", "convolution")}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(argv: list[str]) -> dict:
    """One call of ``cli.main`` as a corpus line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            entry = {"argv": argv, "exit": cli.main(argv)}
        except SystemExit as refused:  # argparse's own refusal: keep the shape only
            last = err.getvalue().splitlines()[-1]
            return {"argv": argv, "exit": refused.code, "stdout_sha256": _sha(out.getvalue()),
                    "argparse_error": last[: last.index("error: ") + len("error: ")]}
    entry["stdout_sha256"] = _sha(out.getvalue())
    entry["stderr_sha256"] = _sha(err.getvalue())
    if len(out.getvalue()) <= SHORT:
        entry["stdout"] = out.getvalue()
    return entry


def _counting_calls():
    sizes = ["-1", "0", "1", "2", "6", "13", "200", str(cli.QUADRATIC_CEILING),
             str(cli.QUADRATIC_CEILING + 1), "x"]
    for command, size in (("count", "--n"), ("sequence", "--upto")):
        for pattern, method, n in itertools.product(
                ["1342", "1234", "2413", "132"], ["closed", "series", "convolution", "brute"], sizes):
            if (method, n) not in QUADRATIC_AT_CEILING:
                yield [command, "--pattern", pattern, size, n, "--method", method]
        for pattern, method, n in itertools.product(
                ["1,3,4,2", "", "1x"], ["closed", "series", "convolution", "brute"], ["0", "6"]):
            yield [command, "--pattern", pattern, size, n, "--method", method]
        yield [command, "--pattern", "1342", size, "6", "--method", "fast"]
        for pattern, n, ceiling in itertools.product(["1342", "132"], ["5", "6"], ["-1", "5"]):
            yield [command, "--pattern", pattern, size, n, "--method", "brute",
                   "--max-brute-n", ceiling]
        for workers in ["0", "1", "2"]:
            yield [command, "--pattern", "1342", size, "5", "--method", "brute",
                   "--workers", workers]
    for pattern, method, fmt in itertools.product(
            ["1342", "1234"], ["closed", "series", "convolution", "brute"],
            ["text", "csv", "json", "xml"]):
        yield ["sequence", "--pattern", pattern, "--upto", "7", "--method", method, "--format", fmt]
    yield ["sequence", "--pattern", "1342", "--upto", "5", "--method", "closed", "--json"]
    yield ["count", "--pattern", "1342", "--n", "3", "--method", "brute", "--frobnicate"]
    yield ["count", "--pattern", "1342", "--method", "closed"]


def _verify_calls():
    suites = ["bijection", "sequences", "series", "all"]
    flag_sets = [[], ["--json"], ["--expect-failure"], ["--json", "--expect-failure"]]
    for suite, max_n in itertools.product(suites, ["-1", "0", "1", "3", "6"]):
        for flags in flag_sets:
            yield ["verify", "--suite", suite, "--max-n", max_n] + flags
        yield ["verify", "--suite", suite, "--max-n", max_n, "--max-brute-n", "5"]
    for suite in suites:
        yield ["verify", "--suite", suite]
        yield ["verify", "--suite", suite, "--max-n", "2", "--max-brute-n", "-1"]
        yield ["verify", "--suite", suite, "--max-n", "x"]
    yield ["verify", "--suite", "none"]
    yield ["verify", "--suite", "sequences", "--max-n", str(cli.QUADRATIC_CEILING + 1)]


def _map_calls():
    def perm_texts(largest):
        return ["".join(map(str, p)) for n in range(largest + 1)
                for p in itertools.permutations(range(1, n + 1))]

    for text in perm_texts(6):
        yield ["map", "perm-to-tree", text]
    for n in range(1, 7):
        for tree in trees.generate_all_beta01(n):
            yield ["map", "tree-to-perm", trees.serialize(tree)]
    for text in perm_texts(5):
        yield ["map", "perm-to-forest", text]
    for n in range(6):
        for p in perms.iter_avoiders(n, perms.Permutation((1, 3, 4, 2))):
            forest = bijections.forest_forward(p)
            yield ["map", "forest-to-perm", ",".join(map(trees.serialize, forest))]
    malformed = ["", "1x", "1, 2", "1,,2", "0", "11", "\u0661\u0662", "0(", "0()", "0( 0)",
                 "01", "0(0 )", "0(0),", ",", "1(0)", "0(1)", "2(0 0)", "1(1(0))", "0,0(0",
                 "1342", "1432", "-1"]
    for direction, text in itertools.product(
            ["perm-to-tree", "perm-to-forest", "tree-to-perm", "forest-to-perm"], malformed):
        yield ["map", direction, text]
    yield ["map", "tree-to-tree", "0"]


def _other_calls():
    for n, count_only, ceiling in itertools.product(
            ["-1", "0", "1", "3", "6", "x"], [[], ["--count-only"]], [[], ["--max-brute-n", "4"]]):
        yield ["generate", "trees", "--n", n] + count_only + ceiling
    selections = [[], ["--indecomposable"], ["--first-entry-1"],
                  ["--indecomposable", "--first-entry-1"]]
    for pattern, n, selection, count_only in itertools.product(
            ["1342", "132", "1x", None], ["-1", "5"], selections,
            [[], ["--count-only"]]):
        pattern_args = [] if pattern is None else ["--pattern", pattern]
        yield ["generate", "avoiders", "--n", n] + pattern_args + selection + count_only
    yield ["generate", "avoiders", "--n", "6", "--pattern", "1342", "--max-brute-n", "5"]
    yield ["generate", "forests", "--n", "3"]
    for n in range(5):
        for p in itertools.permutations(range(1, n + 1)):
            yield ["normalize", "".join(map(str, p))]
    for text in ["", "1x", "1,3,2", "0", "11", "\u0661\u0662", "-1"]:
        yield ["normalize", text]


def main() -> None:
    kept, dropped = [], 0
    for argv in itertools.chain(_counting_calls(), _verify_calls(), _map_calls(), _other_calls()):
        start = time.perf_counter()
        entry = record(argv)
        if time.perf_counter() - start > SLOWEST:
            dropped += 1
        else:
            kept.append(json.dumps(entry, ensure_ascii=True))
    CORPUS.write_text("\n".join(kept) + "\n")
    print(f"{CORPUS.name}: {len(kept)} calls kept, {dropped} slower than {SLOWEST} s left out")


if __name__ == "__main__":
    main()
