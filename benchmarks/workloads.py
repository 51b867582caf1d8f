"""The three workloads and the checks of their outputs.

Each ``build_*`` function turns a library (a freshly imported ``avoid1342``)
and a seeded ``random.Random`` into a :class:`Plan`: in-process ops, CLI ops
and the function that computes the reference values the outputs are checked
against.  Inputs are made here by the benchmark; the program only receives
them.  Reference values come from :mod:`reference` and are computed after the
in-process section, so they are neither in ``setup_s`` nor in the peak
resident set of that section.

A check returns ``None`` when the output is right and a short reason when it
is not.  Layer calls go through ``tr.call(span, fn, *args)``; the span names
are the stems of the per-layer metrics.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import inputs
import reference as ref

P1342 = (1, 3, 4, 2)
P132 = (1, 3, 2)

# Bijection inputs.  Random-tree cost depends on the drawn labels, so many
# mid-sized trees are used instead of a few large ones: the sum over them
# varies little from seed to seed.
BUSHY_SIZES = range(100, 201, 8)
PATH_SIZES = range(40, 56, 2)
CLI_BUSHY_SIZE = 300
FOREST_BLOCKS = 12
DEEP_PATH_SIZE = 401

# `count --method series` is quadratic in big rationals; at n = 1000 it alone
# takes about 10 s on a 2-core 2 GHz machine, so the CLI call stops at 600.
SERIES_CLI_N = 600


@dataclass
class Op:
    """One in-process operation; ``timed=False`` keeps it out of ``run_s``."""

    span: str
    run: Callable[[Any], Any]
    check: Callable[[Any, dict], str | None]
    timed: bool = True


@dataclass
class CliOp:
    """One CLI call; ``argv`` may be a function of earlier outputs, by ``key``."""

    span: str
    argv: list[str] | Callable[[dict], list[str]]
    check: Callable[[int, str, dict], str | None]
    key: str = ""
    timed: bool = True


@dataclass
class Plan:
    ops: list[Op]
    cli: list[CliOp]
    references: Callable[[list], dict]


def _equal(got, want) -> str | None:
    return None if got == want else f"got {_short(got)}, expected {_short(want)}"


def _short(value) -> str:
    text = str(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _cli_equal(want, code: int, out: str, want_code: int = 0) -> str | None:
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    return _equal(out.strip(), str(want))


def _cli_last_line(want: str, want_code: int, code: int, out: str, refs: dict) -> str | None:
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    lines = out.strip().splitlines()
    return _equal(lines[-1] if lines else "", want)


def _check_normalize(source: str, code: int, out: str, refs: dict) -> str | None:
    """The class representative keeps the left-to-right minima and avoids 132."""
    if code != 0:
        return f"exit {code}"
    p = ref.parse_perm_text(source)
    q = ref.parse_perm_text(out)
    if not ref.is_permutation(q, len(p)):
        return f"{out.strip()} is not a permutation of length {len(p)}"
    if ref.left_to_right_minima(q) != ref.left_to_right_minima(p):
        return "left-to-right minima changed"
    if ref.contains_132(q):
        return "representative contains 132"
    return None


def _normalize_cli() -> CliOp:
    return CliOp("cli.startup", ["normalize", "32514"], partial(_check_normalize, "32514"))


def _check_avoider(p, n: int) -> str | None:
    if not ref.is_permutation(p, n):
        return f"not a permutation of length {n}"
    if ref.contains_1342(p):
        return "contains 1342"
    if not ref.is_indecomposable(p):
        return "decomposable"
    return None


def _check_tree_text(text: str, n: int) -> str | None:
    try:
        labels, parent = ref.parse_tree_text(text)
    except ValueError as exc:
        return f"unreadable tree text: {exc}"
    if len(labels) != n:
        return f"tree has {len(labels)} nodes, expected {n}"
    return None if ref.is_valid_tree(labels, parent) else "invalid labeled tree"


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def build_enumerate(lib, rng) -> Plan:
    perms, trees = lib.perms, lib.trees
    P = perms.Permutation

    def count(n, pattern, selection, tr):
        k = tr.call("perms.count_avoiders", perms.count_avoiders, n, pattern, selection)
        tr.count("perms.avoiders", k)
        return k

    def stream(tr):
        got = tr.call("perms.iter_avoiders",
                      lambda: [p.values for p in perms.iter_avoiders(8, P(P1342))])
        tr.count("perms.avoiders", len(got))
        return got

    def generate(tr):
        k = tr.call("trees.generate", lambda: sum(1 for _ in trees.generate_all_beta01(9)))
        tr.count("trees.generated", k)
        return k

    def check_stream(got, refs):
        if len(got) != refs["s1342"][8]:
            return f"{len(got)} avoiders, expected {refs['s1342'][8]}"
        for a, b in zip(got, got[1:]):
            if not a < b:
                return "stream is not strictly increasing"
        for p in got:
            if not ref.is_permutation(p, 8) or ref.contains_1342(p):
                return f"{p} is not a 1342-avoider of length 8"
        return None

    def op(name, n, pattern, selection, key):
        return Op(f"bench.{name}", partial(count, n, P(pattern), selection),
                  lambda got, refs: _equal(got, key(refs)))

    ops = [
        op("count_1342_n9", 9, P1342, "all", lambda r: r["s1342"][9]),
        op("count_1342_indecomposable_n8", 8, P1342, "indecomposable", lambda r: r["t"][7]),
        # Stankova: 2413 is Wilf-equivalent to 1342
        op("count_2413_n8", 8, (2, 4, 1, 3), "all", lambda r: r["s1342"][8]),
        op("count_1234_n8", 8, (1, 2, 3, 4), "all", lambda r: r["rows3_n8"]),
        op("count_12345_n8", 8, (1, 2, 3, 4, 5), "all", lambda r: r["rows4_n8"]),
        op("count_132_n9", 9, P132, "all", lambda r: r["catalan"][9]),
        Op("bench.iter_1342_n8", stream, check_stream),
        Op("bench.generate_trees_n9", generate, lambda got, refs: _equal(got, refs["t"][8])),
    ]
    brute = ["count", "--pattern", "1342", "--n", "9", "--method", "brute", "--workers"]
    cli = [
        _normalize_cli(),
        CliOp("cli.count_brute_w1", brute + ["1"],
              lambda code, out, refs: _cli_equal(refs["s1342"][9], code, out)),
        CliOp("cli.count_brute_w2", brute + ["2"],
              lambda code, out, refs: _cli_equal(refs["s1342"][9], code, out)),
        CliOp("cli.generate", ["generate", "trees", "--n", "9", "--count-only"],
              lambda code, out, refs: _cli_equal(refs["t"][8], code, out)),
        CliOp("cli.generate", ["generate", "avoiders", "--pattern", "1342", "--n", "8",
                               "--indecomposable", "--count-only", "--workers", "1"],
              lambda code, out, refs: _cli_equal(refs["t"][7], code, out)),
    ]
    rng.shuffle(ops)
    rng.shuffle(cli)

    def references(results) -> dict:
        return {
            "s1342": ref.s1342_upto(9),
            "t": {n: ref.t_formula(n) for n in (7, 8)},
            "rows3_n8": ref.IncreasingAvoiders(3).count(8),
            "rows4_n8": ref.IncreasingAvoiders(4).count(8),
            "catalan": ref.catalan_upto(9),
        }

    return Plan(ops, cli, references)


# ---------------------------------------------------------------------------
# bijection
# ---------------------------------------------------------------------------

def build_bijection(lib, rng) -> Plan:
    perms, trees, bij = lib.perms, lib.trees, lib.bijections
    P = perms.Permutation
    p1342, p132 = P(P1342), P(P132)

    ind8 = [P(p) for p in inputs.avoiders_1342(8, indecomposable=True)]
    all7 = [P(p) for p in inputs.avoiders_1342(7, indecomposable=False)]
    bushy = [inputs.random_tree(rng, n, bushy=True) for n in BUSHY_SIZES]
    path = [inputs.random_tree(rng, n, bushy=False) for n in PATH_SIZES]
    cli_text = ref.tree_text(*inputs.random_tree(rng, CLI_BUSHY_SIZE, bushy=True))
    blocks = [rng.choice(ind8).values for _ in range(FOREST_BLOCKS)]
    forest_perm = ref.skew_sum(blocks)
    deep_text = ref.tree_text([0] * DEEP_PATH_SIZE, inputs.path_shape(DEEP_PATH_SIZE))

    def roundtrip(p, tr):
        tree = tr.call("bijections.F_forward_exhaustive", bij.F_forward, p)
        text = tr.call("trees.serialize", trees.serialize, tree)
        parsed = tr.call("trees.parse", trees.parse, text)
        back = tr.call("bijections.F_inverse_exhaustive", bij.F_inverse, parsed)
        tr.count("bijections.maps", 2)
        return text, back.values

    def check_roundtrip(p, got, refs):
        text, back = got
        if back != p.values:
            return f"{p} came back as {back}"
        if refs["images"][text] > 1:
            return f"image {text} is shared by several permutations"
        return _check_tree_text(text, len(p))

    def forest(p, tr):
        trees_out = tr.call("bijections.forest", bij.forest_forward, p)
        back = tr.call("bijections.forest", bij.forest_inverse, trees_out)
        tr.count("bijections.maps", 2)
        return trees_out, back.values

    def check_forest(p, got, refs):
        trees_out, back = got
        if back != p.values:
            return f"{p} came back as {back}"
        if len(trees_out) != ref.block_count(p.values):
            return f"{len(trees_out)} trees for {ref.block_count(p.values)} blocks"
        walked = [ref.walk_tree(t) for t in trees_out]
        if not all(ref.is_valid_tree(*w) for w in walked):
            return "invalid tree in forest"
        return _equal(sum(len(w[0]) for w in walked), len(p))

    def random_roundtrip(kind, tree, tr):
        p = tr.call(f"bijections.F_inverse_{kind}", bij.F_inverse, tree)
        back = tr.call(f"bijections.F_forward_{kind}", bij.F_forward, p)
        has_1342 = tr.call("perms.contains", perms.contains, p, p1342)
        rep = tr.call("perms.normalize", perms.normalize, p)
        has_132 = tr.call("perms.contains", perms.contains, rep, p132)
        tr.count("perms.contains_calls", 2)
        tr.count("bijections.maps", 2)
        return p.values, back, rep.values, has_1342, has_132

    def check_random(arrays, got, refs):
        p, back, rep, has_1342, has_132 = got
        if has_1342 or has_132:
            return "program guard reports an occurrence in an avoider"
        if ref.walk_tree(back) != arrays:
            return "round trip changed the tree"
        if ref.left_to_right_minima(rep) != ref.left_to_right_minima(p) or ref.contains_132(rep):
            return "normalize broke the class representative"
        return _check_avoider(p, len(arrays[0]))

    def deep_inverse(tr):
        return bij.F_inverse(trees.parse(deep_text)).values

    identity = tuple(range(1, DEEP_PATH_SIZE + 1))
    ops = [Op("bench.roundtrip", partial(roundtrip, p), partial(check_roundtrip, p)) for p in ind8]
    ops += [Op("bench.forest", partial(forest, p), partial(check_forest, p)) for p in all7]
    for kind, cases in (("bushy", bushy), ("path", path)):
        for labels, parent in cases:
            tree = inputs.to_program_tree(trees.LabeledPlaneTree, labels, parent)
            ops.append(Op(f"bench.{kind}", partial(random_roundtrip, kind, tree),
                          partial(check_random, (labels, parent))))
    # Known fault: the all-zero path on 401 nodes overflows the recursion
    # limit.  Its preimage is the identity (zero labels, path shape).  It is
    # attempted every round and kept out of run_s.
    ops.append(Op("bench.deep_path_inverse", deep_inverse,
                  lambda got, refs: _equal(got, identity), timed=False))

    def check_forest_cli(code, out, refs):
        if code != 0:
            return f"exit {code}"
        parts = out.strip().split(",")
        if len(parts) != FOREST_BLOCKS:
            return f"{len(parts)} trees for {FOREST_BLOCKS} blocks"
        for block, text in zip(blocks, parts):
            bad = _check_tree_text(text, len(block))
            if bad:
                return bad
            if text != refs["image_of"].get(block):
                return f"CLI and library disagree on block {ref.perm_text(block)}"
        return None

    def check_tree_to_perm(code, out, refs):
        if code != 0:
            return f"exit {code}"
        return _check_avoider(ref.parse_perm_text(out), CLI_BUSHY_SIZE)

    cli = [
        _normalize_cli(),
        CliOp("cli.map", ["map", "tree-to-perm", cli_text], check_tree_to_perm, key="t2p"),
        CliOp("cli.map", lambda outs: ["map", "perm-to-tree", outs["t2p"].strip()],
              lambda code, out, refs: _cli_equal(cli_text, code, out)),
        CliOp("cli.map", ["map", "perm-to-forest", ref.perm_text(forest_perm)], check_forest_cli),
        # n = 8 rather than 7: a few short CLI calls alone make a sum that
        # swings with the machine's speed; the exhaustive n = 8 check adds
        # about 7 s of steady work.
        CliOp("cli.verify", ["verify", "--suite", "bijection", "--max-n", "8"],
              partial(_cli_last_line, "verify bijection: OK", 0)),
        CliOp("cli.map_deep_path", ["map", "tree-to-perm", deep_text],
              lambda code, out, refs: _cli_equal(ref.perm_text(identity), code, out),
              timed=False),
    ]

    def references(results) -> dict:
        if len(ind8) != ref.indecomposable_1342(8) or len(all7) != ref.s1342_upto(7)[7]:
            raise RuntimeError("benchmark input generator is wrong")
        # the round trips are the first ops, in the order of ind8
        image_of = {p.values: got[0] for p, (_, got, _) in zip(ind8, results) if got}
        return {"images": Counter(image_of.values()), "image_of": image_of}

    return Plan(ops, cli, references)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def build_counting(lib, rng) -> Plan:
    counting, series = lib.counting, lib.series

    # Non-vacuity input: the true H series with one coefficient raised by 1.
    # The identity at order N pins H only up to x^(N-1) (a change d in h_N
    # moves both sides of the x^N coefficient by 2d), so the perturbation
    # stays below the checked order 400.
    perturbed_at = rng.randint(390, 399)
    h_values = ref.s1342_upto(400)
    h_values[perturbed_at] += 1
    perturbed = series.TruncatedSeries.from_coefficients(h_values)

    def closed(n, tr):
        return tr.call("counting.s1342_closed", counting.s1342_closed, n)

    def closed_1234(n, tr):
        return tr.call("counting.s1234_closed", counting.s1234_closed, n)

    def t_both(n, tr):
        return (tr.call("counting.t", counting.t_closed, n),
                tr.call("counting.t", counting.t_recurrence, n))

    def coefficients(span, fn, order, tr):
        h = tr.call(span, fn, order)
        tr.count("series.coefficients", len(h.coeffs))
        return h.coeffs

    def check_coefficients(key, order, got, refs):
        want = refs[key][: order + 1]
        if len(got) != len(want):
            return f"{len(got)} coefficients, expected {len(want)}"
        for n, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return f"x^{n} coefficient {_short(a)}, expected {_short(b)}"
        return None

    def algebraic(h, tr):
        return tr.call("series.verify_algebraic", series.verify_H_algebraic, 400, h)

    def check_root(got, refs):
        want = math.exp(math.log(refs["s1342"][1000]) / 1000)
        return None if abs(got - want) <= 1e-10 * want else f"got {got!r}, expected {want!r}"

    def check_cross(report, refs):
        if not report.consistent:
            return "cross_check reports an inconsistency"
        want = {"s1342": refs["s1342"], "t": refs["t"],
                "indecomposable-1342": refs["indecomposable"], "catalan": refs["catalan"]}
        for seq in report.reports:
            for n, value, method in seq.entries:
                if value != want[seq.name][n]:
                    return f"{seq.name}({n}) by {method} is {_short(value)}"
        return None

    ops = [Op("bench.s1342_closed", partial(closed, n),
              lambda got, refs, n=n: _equal(got, refs["s1342"][n])) for n in range(1, 401)]
    ops += [Op("bench.s1234_closed", partial(closed_1234, n),
               lambda got, refs, n=n: _equal(got, refs["rows3"][n])) for n in range(1, 201)]
    ops += [Op("bench.t", partial(t_both, n),
               lambda got, refs, n=n: _equal(got, (refs["t"][n],) * 2)) for n in range(1, 1001)]
    ops += [
        Op("bench.H_division",
           partial(coefficients, "series.H_division", series.H_series_division, 500),
           partial(check_coefficients, "s1342", 500)),
        Op("bench.H_rational",
           partial(coefficients, "series.H_rational", series.H_series_rational, 500),
           partial(check_coefficients, "s1342", 500)),
        Op("bench.F_series", partial(coefficients, "series.F_series", series.F_series, 500),
           partial(check_coefficients, "indecomposable", 500)),
        Op("bench.verify_algebraic", partial(algebraic, None),
           lambda got, refs: _equal(got, True)),
        Op("bench.verify_algebraic_perturbed", partial(algebraic, perturbed),
           lambda got, refs: _equal(got, False)),
        Op("bench.convolution",
           lambda tr: tr.call("counting.convolution", counting.s1342_convolution, 1200),
           lambda got, refs: _equal(got, refs["s1342"])),
        Op("bench.nth_root",
           lambda tr: tr.call("counting.convolution", counting.nth_root_estimate, 1000),
           check_root),
        Op("bench.cross_check",
           lambda tr: tr.call("counting.cross_check", counting.cross_check, 150, 6),
           check_cross),
    ]

    def count(method, n):
        return CliOp(f"cli.count_{method}",
                     ["count", "--pattern", "1342", "--n", str(n), "--method", method],
                     lambda code, out, refs: _cli_equal(refs["s1342"][n], code, out))

    def check_sequence(code, out, refs):
        if code != 0:
            return f"exit {code}"
        try:
            payload = json.loads(out)
        except ValueError:
            return "output is not JSON"
        got = [(row["n"], row["value"]) for row in payload.get("values", [])]
        want = [(n, str(refs["s1342"][n])) for n in range(1, 301)]
        return "values differ from the reference" if got != want else None

    cli = [
        _normalize_cli(),
        count("closed", 1000),
        count("convolution", 1000),
        count("series", SERIES_CLI_N),
        CliOp("cli.sequence", ["sequence", "--pattern", "1342", "--upto", "300",
                               "--method", "convolution", "--format", "json"], check_sequence),
        CliOp("cli.verify", ["verify", "--suite", "sequences", "--max-n", "7"],
              partial(_cli_last_line, "verify sequences: OK", 0)),
        CliOp("cli.verify", ["verify", "--suite", "series"],
              partial(_cli_last_line, "verify series: OK", 0)),
        # non-vacuity: a corrupted coefficient must make the suite fail
        CliOp("cli.verify", ["verify", "--suite", "sequences", "--expect-failure"],
              partial(_cli_last_line, "verify sequences: FAIL", 1)),
    ]
    rng.shuffle(ops)
    rng.shuffle(cli)

    def references(results) -> dict:
        s = ref.s1342_upto(1200)
        rows3 = ref.IncreasingAvoiders(3)
        return {
            "s1342": s,
            "t": [None] + [ref.t_formula(n) for n in range(1, 1001)],
            "indecomposable": [0] + [ref.indecomposable_1342(n) for n in range(1, 501)],
            "rows3": [None] + [rows3.count(n) for n in range(1, 201)],
            "catalan": ref.catalan_upto(150),
        }

    return Plan(ops, cli, references)


WORKLOADS = {
    "enumerate": build_enumerate,
    "bijection": build_bijection,
    "counting": build_counting,
}
