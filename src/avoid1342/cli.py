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
combination, 3 refused resource ceiling (``--max-brute-n`` for brute force,
``QUADRATIC_CEILING`` for series, convolution and the sequences suite), 4
internal error (a failed self-check; a bug, never bad input).  Where the
platform has SIGPIPE, ``entrypoint`` restores its default action, so a reader
that closes stdout early ends the process quietly (status 141 in the shell).
``--method series`` reads the linear route ``series.H_series_rational``; ``verify`` keeps
the division route as its second series route.  ``--method closed`` reads one
pass for the whole range and keeps only the rows it prints: the closed
form's running sums for 1342 and the P-recurrence for 1234, so ``sequence
--upto N`` computes its rows at the cost of ``count --n N``, and s(0) = 1
comes out of the pass.  Integer
options read ASCII digits after an optional minus, and ``--pattern`` is read
as a permutation by every method.  ``sequence --upto 0`` refuses what ``count --n 0`` refuses;
``sequence`` and ``verify`` check their ceilings before any work.  Every
brute count runs in this process through ``perms.count_avoiders``;
``--workers`` is checked and otherwise ignored.
``generate trees --count-only`` reads ``trees.count_beta01``, which builds no
tree, and ``generate avoiders --count-only`` reads ``perms.count_avoiders``;
both refuse n above ``--max-brute-n`` (default ``errors.DEFAULT_CEILING``) as
their streams do.  A negative ``--max-brute-n`` is bad input.  ``verify
--suite bijection`` proves the map onto by a count: the images are valid,
distinct and ``trees.count_beta01`` many; ``counting.cross_check`` (``verify
--suite sequences``) reads the same count, so no suite builds every tree.

Start-up is most of a short call's cost, so each command imports only the
layers it runs: ``normalize``, the brute counts and ``generate avoiders``
load ``perms``; ``generate trees`` loads ``trees``; ``map`` and ``verify
--suite bijection`` load ``perms``, ``trees`` and ``bijections``; the other
counts and suites load ``counting`` and ``series`` (which load ``perms`` and
``trees``).  ``json`` is imported only where JSON is written.
"""
from __future__ import annotations

import argparse
import functools
import signal
import sys

from .errors import (
    DEFAULT_CEILING,
    DomainError,
    IntegralityError,
    InvalidPermutationError,
    InvalidTreeError,
    ReconstructionError,
    ResourceLimitError,
    TreeParseError,
    refuse_above,
)

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_USER_ERROR = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

#: Largest n of ``--method series`` and ``convolution`` and ``verify --suite
#: sequences``.  The convolution and the suite's division-route series share one
#: blocked solver, quadratic in big integers: at 2 500 on a 2-core machine (Python
#: 3.11) each takes about 3.5-4 s CPU, and the whole suite about 15 s wall.
#: ``--method series`` reads the linear route, 0.02 s at 2 500, and keeps the
#: same ceiling.
QUADRATIC_CEILING = 2500


#: the least value of each integer option, checked in this order before any command runs
_LEAST = {"workers": 1, "max_brute_n": 0, "n": 0, "upto": 0, "max_n": 1}


def _integer(text: str) -> int:
    """Read an integer option as permutation text is read: ASCII digits after an optional minus."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past the interpreter's cap on digits
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _check_brute_ceiling(lo: int, hi: int, ceiling: int) -> None:
    """Refuse n = lo..hi before any work, with the enumerator's line for the first n too large."""
    if lo <= hi and hi > ceiling:
        refuse_above(max(lo, ceiling + 1), ceiling)


def _counts(args, lo: int, hi: int) -> list[int]:
    """Counts for n = lo..hi; the order of the checks is the precedence of the refusals."""
    from . import perms
    p = perms.Permutation.from_text(args.pattern)
    if args.method == "brute":
        if p.values:  # count_avoiders refuses an empty pattern first
            _check_brute_ceiling(lo, hi, args.max_brute_n)
        return [perms.count_avoiders(n, p, ceiling=args.max_brute_n) for n in range(lo, hi + 1)]
    from . import counting, series
    if (p.values, args.method) == ((1, 2, 3, 4), "closed"):
        return counting._s1234_values(lo, hi)  # linear; the closed sum is not
    if p.values != (1, 3, 4, 2):
        route = "closed form" if args.method == "closed" else args.method
        raise DomainError(f"no {route} for pattern {args.pattern}")
    if args.method == "closed":
        return counting._s1342_closed_values(lo, hi)
    if hi > QUADRATIC_CEILING:
        raise ResourceLimitError(
            f"n={hi} exceeds the ceiling {QUADRATIC_CEILING} of --method {args.method}")
    if args.method == "convolution":
        return counting.s1342_convolution(hi)[lo:]
    h = series.H_series_rational(hi)
    return [int(h.coefficient(n)) for n in range(lo, hi + 1)]


def _cmd_count(args) -> int:
    print(_counts(args, args.n, args.n)[0])
    return EXIT_OK


def _cmd_sequence(args) -> int:
    rows = list(enumerate(_counts(args, 1, args.upto), start=1))
    if args.format == "json":
        import json
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
    from . import bijections, perms, trees
    direction = args.direction
    if direction == "perm-to-tree":
        print(trees.serialize(bijections.F_forward(perms.Permutation.from_text(args.input))))
    elif direction == "tree-to-perm":
        print(bijections.F_inverse(trees.parse(args.input)))
    elif direction == "perm-to-forest":
        forest = bijections.forest_forward(perms.Permutation.from_text(args.input))
        print(",".join(trees.serialize(t) for t in forest))
    else:  # forest-to-perm; the empty text is the empty forest, as perm-to-forest prints it
        forest, start = [], 0
        for part in args.input.split(",") if args.input else ():
            try:
                forest.append(trees.parse(part))
            except TreeParseError as exc:  # report the offset in the whole input
                raise TreeParseError(exc.reason, start + exc.position) from None
            start += len(part) + 1
        print(bijections.forest_inverse(forest))
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.kind == "trees":
        from . import trees
        if args.count_only:
            print(trees.count_beta01(args.n, ceiling=args.max_brute_n))
        else:
            for tree in trees.generate_all_beta01(args.n, ceiling=args.max_brute_n):
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
    from . import perms
    pattern = perms.Permutation.from_text(args.pattern)
    if args.count_only:
        print(perms.count_avoiders(args.n, pattern, selection, ceiling=args.max_brute_n))
    else:
        for p in perms.iter_avoiders(args.n, pattern, selection, ceiling=args.max_brute_n):
            print(p)
    return EXIT_OK


def _verify_bijection(max_n: int, ceiling: int) -> list[str]:
    from . import bijections, perms, trees
    failures: list[str] = []
    for n in range(1, max_n + 1):
        image = set()
        for p in perms.iter_avoiders(n, perms.Permutation((1, 3, 4, 2)), "indecomposable",
                                     ceiling=ceiling):
            tree = bijections.F_forward(p)
            valid = trees.validate_beta01(tree)
            if not valid:
                failures.append(f"n={n}: image of {p} is not a valid tree")
            text = trees.serialize(tree)
            if text in image:
                failures.append(f"n={n}: collision at {text}")
            image.add(text)
            # F_inverse refuses an invalid tree, which is already a failure
            if valid and (back := bijections.F_inverse(tree)) != p:
                failures.append(f"n={n}: roundtrip {p} -> {text} -> {back}")
        expected = trees.count_beta01(n, ceiling=ceiling)
        if len(image) != expected:
            failures.append(f"n={n}: image has {len(image)} trees, expected {expected}")
    return failures


def _verify_sequences(max_n: int, ceiling: int, inject_error: bool) -> tuple[list[str], counting.CrossCheckReport]:
    from . import counting
    report = counting.cross_check(max(50, max_n), min(max_n, ceiling), brute_ceiling=ceiling,
                                  inject_error=inject_error)
    failures = []
    for seq in report.reports:
        for n, a, b in seq.discrepancies:
            failures.append(f"{seq.name}({n}): {a} != {b}")
    failures.extend(report.bound_violations)
    return failures, report


def _verify_series() -> list[str]:
    from . import series
    failures: list[str] = []
    division = series.H_series_division(200)
    if division != series.H_series_rational(200):
        failures.append("the two series routes disagree")
    if not series.verify_H_algebraic(200, division):
        failures.append("the algebraic identity fails")
    return failures


def _cmd_verify(args) -> int:
    if args.expect_failure and args.suite not in ("sequences", "all"):
        raise DomainError("--expect-failure applies to the sequences suite")
    if args.suite in ("sequences", "all") and args.max_n > QUADRATIC_CEILING:
        raise ResourceLimitError(
            f"--max-n {args.max_n} exceeds the ceiling {QUADRATIC_CEILING} of the sequences suite")
    if args.suite in ("bijection", "all"):
        _check_brute_ceiling(1, args.max_n, args.max_brute_n)
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
        import json
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
    from . import perms
    print(perms.normalize(perms.Permutation.from_text(args.perm)))
    return EXIT_OK


@functools.cache  # built once per process: building takes most of a short in-process call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avoid1342",
        description="Count 1342-avoiding permutations and map them to labeled plane trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ceiling(p):
        p.add_argument("--max-brute-n", type=_integer, default=DEFAULT_CEILING,
                       help="ceiling for exhaustive work (default %(default)s)")

    def add_workers(p):
        p.add_argument("--workers", type=_integer, default=1,
                       help="accepted and ignored: brute counts run in one process")

    def add_count_args(p, size):
        p.add_argument("--pattern", required=True)
        p.add_argument(size, type=_integer, required=True)
        p.add_argument("--method", required=True,
                       choices=["closed", "series", "convolution", "brute"])

    p_count = sub.add_parser("count", help="print one exact count")
    add_count_args(p_count, "--n")
    add_ceiling(p_count)
    add_workers(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_seq = sub.add_parser("sequence", help="print a table of counts for n = 1..upto")
    add_count_args(p_seq, "--upto")
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
    p_gen.add_argument("--n", type=_integer, required=True)
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
    p_ver.add_argument("--max-n", type=_integer, default=7)
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
    # exact counts outgrow the default 4 300-digit cap on int <-> str (Python 3.10.7+)
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for name, least in _LEAST.items():
            if getattr(args, name, least) < least:
                bound = "nonnegative" if least == 0 else f"at least {least}"
                raise DomainError(f"--{name.replace('_', '-')} must be {bound}")
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
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def entrypoint() -> None:  # console-script hook
    # a reader that closes the pipe early (``| head``) ends the process by SIGPIPE, as
    # it ends other Unix tools, not by a BrokenPipeError traceback and exit 1
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
