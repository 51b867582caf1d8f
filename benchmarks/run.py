"""Benchmark of the avoid1342 library and CLI.

    python3 benchmarks/run.py --workload enumerate --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  A run repeats whole rounds of its workload
until ``--seconds`` of rounds have been measured (at least one round).  A
round imports the package afresh, builds the inputs from the seed, runs the
in-process ops, then the CLI ops as child processes one at a time, and
checks every output against the reference routes in ``reference.py``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` rounds alternate untraced and traced; the last line holds the
per-layer metrics of the traced rounds, and the spans go to ``benchmarks/out``.
See ``benchmarks/README.md`` for what each metric means.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "benchmarks" / "out"

SETUPS = 7  # setup_s is the median of this many set-ups
CLI_TIMEOUT_S = 60

# The speed of a shared host drifts by tens of percent over minutes, more than
# the changes worth catching.  So run_s is reported at a fixed machine speed:
# measured seconds * REFERENCE_UNIT_S / (mean duration of a fixed unit of
# interpreter work timed between the in-process ops it scales).  The CLI
# children run in other processes, on two cores for the fan-out, where that
# probe does not follow their speed, so cli_s and setup_s stay raw.  The raw
# seconds and the unit samples go to the results file.
REFERENCE_UNIT_S = 0.01
PROBE_EVERY_S = 0.25  # at most one unit sample per this much section time
PROBE_EDGE = 3  # unit samples taken right before and right after the section

END_TO_END = {"setup_s": "s", "run_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}
TIME_METRICS = [
    "perms.count_avoiders", "perms.iter_avoiders", "perms.contains",
    "trees.generate", "trees.serialize", "trees.parse",
    "bijections.F_forward_exhaustive", "bijections.F_inverse_exhaustive",
    "bijections.F_forward_bushy", "bijections.F_inverse_bushy",
    "bijections.F_forward_path", "bijections.F_inverse_path", "bijections.forest",
    "series.H_division", "series.H_rational", "series.F_series", "series.verify_algebraic",
    "counting.s1342_closed", "counting.s1234_closed", "counting.convolution", "counting.t",
    "counting.cross_check",
    "cli.startup", "cli.count_brute_w1", "cli.count_brute_w2", "cli.generate", "cli.map",
    "cli.verify", "cli.count_closed", "cli.count_convolution", "cli.count_series",
    "cli.sequence",
]
COUNT_METRICS = [
    "perms.avoiders", "perms.contains_calls", "trees.generated", "bijections.maps",
    "series.coefficients",
]
LAYERS = ["perms", "trees", "bijections", "series", "counting", "cli", "bench"]


class SetupError(Exception):
    """The checkout does not hold the package the benchmark measures."""


def load_library():
    """Import ``avoid1342`` afresh from this checkout, so module caches start empty."""
    for name in [m for m in sys.modules if m == "avoid1342" or m.startswith("avoid1342.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    try:
        lib = importlib.import_module("avoid1342")
    except ImportError as exc:
        raise SetupError(f"cannot import avoid1342 from {SRC}: {exc}") from exc
    if SRC not in Path(lib.__file__).resolve().parents:
        raise SetupError(f"avoid1342 was imported from {lib.__file__}, not from {SRC}")
    return lib


def run_child(argv: list[str]) -> tuple[int | None, str, str, float]:
    """Run one child to its end; on timeout kill its whole process group and wait."""
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        code = None
    return code, out, err, perf_counter() - start


def cold_import_seconds() -> float:
    """Time of ``import avoid1342`` in a fresh interpreter (interpreter start excluded)."""
    code, out, err, _ = run_child([
        sys.executable, "-c",
        "import time; t = time.perf_counter(); import avoid1342; "
        "print(time.perf_counter() - t)",
    ])
    if code != 0:
        raise SetupError(f"cannot import avoid1342 in a child process: {err.strip()}")
    return float(out)


def _calibration_unit() -> int:
    """A fixed few milliseconds of small-int loop and big-int arithmetic."""
    acc = 0
    vals = list(range(64))
    for i in range(60000):
        acc += vals[i & 63] * 3 % 7
    big = 3 ** 3000
    for k in range(150):
        acc += (big * (big + k)) % 1000003
    return acc


class SpeedProbe:
    """Samples of the calibration unit's duration, taken between the in-process ops."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self, times: int = 1) -> None:
        gc.disable()  # no collection may land inside a timed sample
        try:
            for _ in range(times):
                start = perf_counter()
                _calibration_unit()
                self._last = perf_counter()
                self.samples.append(self._last - start)
        finally:
            gc.enable()

    def between_ops(self) -> None:
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def scale(self, seconds: float) -> float:
        return seconds * REFERENCE_UNIT_S / statistics.fmean(self.samples)


def measure_setup(build, seed: int) -> list[float]:
    """Seconds of each set-up: a cold import in a child plus building the inputs."""
    samples = []
    for _ in range(SETUPS):
        seconds = cold_import_seconds()
        lib = load_library()
        start = perf_counter()
        build(lib, random.Random(seed))
        samples.append(seconds + perf_counter() - start)
    return samples


def run_round(build, seed: int, tr) -> dict:
    """One whole round: every in-process op, then every CLI op, then the checks."""
    plan = build(load_library(), random.Random(seed))
    gc.collect()
    run_probe = SpeedProbe()
    run_probe.sample(PROBE_EDGE)
    results = []
    run_s = 0.0
    op_seconds: dict[str, float] = defaultdict(float)
    for op in plan.ops:
        start = perf_counter()
        try:
            got, error = (tr.call(op.span, op.run, tr) if op.timed else op.run(NullTracer())), None
        except Exception as exc:  # a failing op is counted and the round goes on
            got, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        op_seconds[op.span] += seconds
        if op.timed:
            run_s += seconds
        results.append((op, got, error))
        run_probe.between_ops()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_probe.sample(PROBE_EDGE)

    refs = plan.references(results)
    errors: list[str] = []
    wrong: list[str] = []
    for op, got, error in results:
        if error is not None:
            errors.append(f"{op.span}: {error}")
        else:
            reason = op.check(got, refs)
            if reason:
                wrong.append(f"{op.span}: {reason}")

    outputs: dict[str, str] = {}
    cli_s = 0.0
    cli_seconds: list[tuple[str, float]] = []
    for cli in plan.cli:
        argv = cli.argv(outputs) if callable(cli.argv) else cli.argv
        full = [sys.executable, "-m", "avoid1342", *argv]
        if cli.timed:
            code, out, err, seconds = tr.call(cli.span, run_child, full)
            cli_s += seconds
        else:
            code, out, err, seconds = run_child(full)
        if cli.key:
            outputs[cli.key] = out
        label = f"{cli.span} {' '.join(argv)[:60]}"
        cli_seconds.append((label, seconds))
        if code is None:
            errors.append(f"{label}: timed out after {CLI_TIMEOUT_S} s")
        elif "Traceback (most recent call last)" in err:
            errors.append(f"{label}: exit {code}, {err.strip().splitlines()[-1]}")
        else:
            reason = cli.check(code, out, refs)
            if reason:
                wrong.append(f"{label}: {reason}")
    return {
        "attempted": len(plan.ops) + len(plan.cli),
        "probe": run_probe,
        "op_seconds": dict(op_seconds),
        "cli_seconds": cli_seconds,
        "errors": errors,
        "wrong": wrong,
        "raw_run_s": run_s,
        "run_s": run_probe.scale(run_s),
        "cli_s": cli_s,
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(tr: Tracer, round_: dict) -> dict[str, float]:
    """Span times of one traced round; in-process ones are scaled like run_s."""
    probe = round_["probe"]

    def scaled(name: str, seconds: float) -> float:
        return seconds if name.startswith("cli.") else probe.scale(seconds)

    totals = tr.totals()
    metrics = {f"{name}_s": scaled(name, totals.get(name, 0.0)) for name in TIME_METRICS}
    metrics.update({name: tr.counts.get(name, 0) for name in COUNT_METRICS})
    self_times = tr.self_times()
    metrics.update({f"{layer}.self_s": scaled(f"{layer}.", self_times.get(layer, 0.0))
                    for layer in LAYERS})
    return metrics


def git_sha() -> str | None:
    """The commit of this checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    name = text[5:]
    ref_file = ROOT / ".git" / name
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    build = WORKLOADS[args.workload]

    if not (SRC / "avoid1342" / "__init__.py").is_file():
        print(f"error: no avoid1342 package under {SRC}", file=sys.stderr)
        return 2
    try:
        setups = measure_setup(build, args.seed) if not args.trace else []
        untraced: list[dict] = []
        traced: list[tuple[dict, Tracer]] = []
        start = perf_counter()
        while True:
            untraced.append(run_round(build, args.seed, NullTracer()))
            if args.trace:
                tr = Tracer()
                traced.append((run_round(build, args.seed, tr), tr))
            if perf_counter() - start >= args.seconds:
                break
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rounds = untraced + [r for r, _ in traced]
    errors = [e for r in rounds for e in r["errors"]]
    wrong = [w for r in rounds for w in r["wrong"]]
    for line in sorted(set(errors)):
        print(f"failed: {line}", file=sys.stderr)
    for line in sorted(set(wrong)):
        print(f"WRONG: {line}", file=sys.stderr)

    record: dict = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": {"cores": os.cpu_count(), "python": platform.python_version(),
                        "git_sha": git_sha()},
        "rounds": [{**{k: v for k, v in r.items() if k not in ("errors", "wrong", "probe")},
                    "unit_samples_s": r["probe"].samples}
                   for r in rounds],
    }
    if args.trace:
        per_round = [layer_metrics(tr, r) for r, tr in traced]
        metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        metrics["trace.overhead_s"] = (statistics.median(t["run_s"] for t, _ in traced)
                                       - statistics.median(r["run_s"] for r in untraced))
        units = {name: "count" if name in COUNT_METRICS else "s" for name in metrics}
        _, last = traced[-1]
        origin = last.spans[0][1] if last.spans else 0.0
        record["self_s"] = last.self_times()
        record["spans"] = [[name, round(begin - origin, 6), round(end - origin, 6), parent]
                           for name, begin, end, parent in last.spans]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["run_s"] for r in rounds),
            "cli_s": statistics.median(r["cli_s"] for r in rounds),
            "peak_rss_mb": rounds[0]["peak_rss_mb"],
        }
        units = END_TO_END
        record["setup_s_samples"] = setups
    result = {
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": len(errors) + len(wrong),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record["result"] = result
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
