"""Command-line front end.

Subcommands::

    count      --pattern 1342 --n 6 --method closed          # one exact number
    sequence   --pattern 1342 --upto 10 --method closed      # n, value table
    map        perm-to-tree 361542                           # run a bijection
    generate   trees --n 3 [--count-only]                    # stream objects
    generate   avoiders --pattern 1342 --n 4 --indecomposable --count-only
    verify     --suite all --max-n 7                         # consistency suites
    normalize  32514                                         # class representative

Exit codes: 0 success, 1 verification discrepancy, 2 bad input or unsupported
combination, 3 refused resource ceiling, 4 internal error (a failed
self-check; a bug, never bad input).  Output is deterministic: the same
invocation always produces the same bytes, whatever the worker count.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import bijections, counting, perms, series, trees
from .errors import (
    DomainError,
    IntegralityError,
    InvalidPermutationError,
    InvalidTreeError,
    ReconstructionError,
    ResourceLimitError,
    TreeParseError,
)

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_USER_ERROR = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

_CLOSED_FORMS = {
    "1342": counting.s1342_closed,
    "1234": counting.s1234_closed,
}


def _parse_perm(text: str) -> perms.Permutation:
    return perms.Permutation.from_text(text)


def _brute_count_job(job) -> int:
    n, pattern_values, selection, first, ceiling = job
    return perms.count_avoiders(
        n, perms.Permutation(pattern_values), selection, first_entry=first, ceiling=ceiling
    )


def _brute_count(pattern: perms.Permutation, n: int, selection, ceiling: int, workers: int) -> int:
    # partition by first entry; summing the partial counts keeps the result
    # independent of scheduling
    if workers > 1 and n >= 7:
        jobs = [(n, pattern.values, selection, first, ceiling) for first in range(1, n + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(_brute_count_job, jobs))
    return perms.count_avoiders(n, pattern, selection, ceiling=ceiling)


def _series_values(upto: int) -> list[int]:
    h = series.H_series_division(max(upto, 1))
    return [int(h.coefficient(n)) for n in range(upto + 1)]


def _one_value(pattern_text: str, n: int, method: str, args) -> int:
    if method == "closed":
        fn = _CLOSED_FORMS.get(pattern_text)
        if fn is None:
            raise DomainError(f"no closed form for pattern {pattern_text}")
        return fn(n) if n else 1  # the empty permutation, as for every other method
    if method == "series":
        if pattern_text != "1342":
            raise DomainError(f"no series for pattern {pattern_text}")
        return _series_values(n)[n]
    if method == "convolution":
        if pattern_text != "1342":
            raise DomainError(f"no convolution for pattern {pattern_text}")
        return counting.s1342_convolution(n)[n]
    if method == "brute":
        return _brute_count(_parse_perm(pattern_text), n, "all", args.max_brute_n, args.workers)
    raise DomainError(f"unknown method {method}")


def _cmd_count(args) -> int:
    if args.n < 0:
        raise DomainError("--n must be nonnegative")
    print(_one_value(args.pattern, args.n, args.method, args))
    return EXIT_OK


def _cmd_sequence(args) -> int:
    if args.upto < 0:
        raise DomainError("--upto must be nonnegative")
    if args.method == "series" and args.pattern == "1342":
        values = _series_values(args.upto)
        rows = [(n, values[n]) for n in range(1, args.upto + 1)]
    elif args.method == "convolution" and args.pattern == "1342":
        values = counting.s1342_convolution(args.upto)
        rows = [(n, values[n]) for n in range(1, args.upto + 1)]
    else:
        rows = [(n, _one_value(args.pattern, n, args.method, args))
                for n in range(1, args.upto + 1)]
    if args.format == "json":
        payload = {
            "pattern": args.pattern,
            "method": args.method,
            "values": [{"n": n, "value": str(v)} for n, v in rows],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("n,value")
        for n, v in rows:
            print(f"{n},{v}")
    else:
        for n, v in rows:
            print(f"{n} {v}")
    return EXIT_OK


def _cmd_map(args) -> int:
    direction = args.direction
    if direction == "perm-to-tree":
        print(trees.serialize(bijections.F_forward(_parse_perm(args.input))))
    elif direction == "tree-to-perm":
        print(bijections.F_inverse(trees.parse(args.input)))
    elif direction == "perm-to-forest":
        forest = bijections.forest_forward(_parse_perm(args.input))
        print(",".join(trees.serialize(t) for t in forest))
    else:  # forest-to-perm
        forest = [trees.parse(part) for part in args.input.split(",")]
        print(bijections.forest_inverse(forest))
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.kind == "trees":
        stream = trees.generate_all_beta01(args.n, ceiling=args.max_brute_n)
        if args.count_only:
            print(sum(1 for _ in stream))
        else:
            for tree in stream:
                print(trees.serialize(tree))
        return EXIT_OK
    # avoiders
    if args.pattern is None:
        raise DomainError("generate avoiders requires --pattern")
    if args.indecomposable and args.first_entry_1:
        raise DomainError("--indecomposable and --first-entry-1 are mutually exclusive")
    selection = "all"
    if args.indecomposable:
        selection = "indecomposable"
    elif args.first_entry_1:
        selection = "first_entry_is_1"
    pattern = _parse_perm(args.pattern)
    if args.count_only:
        print(_brute_count(pattern, args.n, selection, args.max_brute_n, args.workers))
    else:
        for p in perms.iter_avoiders(args.n, pattern, selection, ceiling=args.max_brute_n):
            print(p)
    return EXIT_OK


def _verify_bijection(max_n: int, ceiling: int) -> list[str]:
    failures: list[str] = []
    for n in range(1, max_n + 1):
        image = set()
        for p in perms.iter_avoiders(n, perms.Permutation((1, 3, 4, 2)), "indecomposable",
                                     ceiling=ceiling):
            tree = bijections.F_forward(p)
            if not trees.validate_beta01(tree):
                failures.append(f"n={n}: image of {p} is not a valid tree")
            text = trees.serialize(tree)
            if text in image:
                failures.append(f"n={n}: collision at {text}")
            image.add(text)
            back = bijections.F_inverse(tree)
            if back != p:
                failures.append(f"n={n}: roundtrip {p} -> {text} -> {back}")
        everything = {trees.serialize(t)
                      for t in trees.generate_all_beta01(n, ceiling=max(n, ceiling))}
        if image != everything:
            failures.append(f"n={n}: image has {len(image)} trees, expected {len(everything)}")
    return failures


def _verify_sequences(max_n: int, ceiling: int, inject_error: bool) -> tuple[list[str], counting.CrossCheckReport]:
    report = counting.cross_check(max(50, max_n), min(max_n, ceiling), brute_ceiling=ceiling,
                                  inject_error=inject_error)
    failures = []
    for seq in report.reports:
        for n, a, b in seq.discrepancies:
            failures.append(f"{seq.name}({n}): {a} != {b}")
    failures.extend(report.bound_violations)
    return failures, report


def _verify_series() -> list[str]:
    failures: list[str] = []
    if series.H_series_division(200) != series.H_series_rational(200):
        failures.append("the two series routes disagree")
    if not series.verify_H_algebraic(200):
        failures.append("the algebraic identity fails")
    return failures


def _cmd_verify(args) -> int:
    if args.expect_failure and args.suite not in ("sequences", "all"):
        raise DomainError("--expect-failure applies to the sequences suite")
    failures: list[str] = []
    report = None
    if args.suite in ("bijection", "all"):
        failures.extend(_verify_bijection(args.max_n, args.max_brute_n))
    if args.suite in ("sequences", "all"):
        seq_failures, report = _verify_sequences(args.max_n, args.max_brute_n, args.expect_failure)
        failures.extend(seq_failures)
    if args.suite in ("series", "all"):
        failures.extend(_verify_series())

    if args.json:
        payload = {
            "suite": args.suite,
            "max_n": args.max_n,
            "passed": not failures,
            "failures": failures,
        }
        if report is not None:
            payload["sequences"] = report.to_json_dict()
        print(json.dumps(payload, indent=2))
    else:
        for line in failures:
            print(f"FAIL {line}")
        print(f"verify {args.suite}: {'FAIL' if failures else 'OK'}")
    return EXIT_DISCREPANCY if failures else EXIT_OK


def _cmd_normalize(args) -> int:
    print(perms.normalize(_parse_perm(args.perm)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avoid1342",
        description="Count 1342-avoiding permutations and map them to labeled plane trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ceiling(p):
        p.add_argument("--max-brute-n", type=int, default=perms.DEFAULT_CEILING,
                       help="ceiling for exhaustive work (default %(default)s)")

    def add_workers(p):
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="worker processes for brute-force counting (default: cores)")

    p_count = sub.add_parser("count", help="print one exact count")
    p_count.add_argument("--pattern", required=True)
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--method", required=True,
                         choices=["closed", "series", "convolution", "brute"])
    add_ceiling(p_count)
    add_workers(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_seq = sub.add_parser("sequence", help="print a table of counts for n = 1..upto")
    p_seq.add_argument("--pattern", required=True)
    p_seq.add_argument("--upto", type=int, required=True)
    p_seq.add_argument("--method", required=True,
                       choices=["closed", "series", "convolution", "brute"])
    p_seq.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_seq.add_argument("--json", action="store_const", const="json", dest="format",
                       help="shorthand for --format json")
    add_ceiling(p_seq)
    add_workers(p_seq)
    p_seq.set_defaults(func=_cmd_sequence)

    p_map = sub.add_parser("map", help="apply a bijection in either direction")
    p_map.add_argument("direction",
                       choices=["perm-to-tree", "tree-to-perm", "perm-to-forest", "forest-to-perm"])
    p_map.add_argument("input")
    p_map.set_defaults(func=_cmd_map)

    p_gen = sub.add_parser("generate", help="stream trees or avoiders, one per line")
    p_gen.add_argument("kind", choices=["trees", "avoiders"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--pattern")
    p_gen.add_argument("--indecomposable", action="store_true")
    p_gen.add_argument("--first-entry-1", action="store_true")
    p_gen.add_argument("--count-only", action="store_true")
    add_ceiling(p_gen)
    add_workers(p_gen)
    p_gen.set_defaults(func=_cmd_generate)

    p_ver = sub.add_parser("verify", help="run a consistency suite")
    p_ver.add_argument("--suite", required=True,
                       choices=["bijection", "sequences", "series", "all"])
    p_ver.add_argument("--max-n", type=int, default=7)
    p_ver.add_argument("--json", action="store_true")
    p_ver.add_argument("--expect-failure", action="store_true",
                       help="inject a corrupt coefficient; the suite must then fail")
    add_ceiling(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    p_norm = sub.add_parser("normalize", help="print the 132-avoiding class representative")
    p_norm.add_argument("perm")
    p_norm.set_defaults(func=_cmd_normalize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, InvalidPermutationError, InvalidTreeError, TreeParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except (ReconstructionError, IntegralityError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
