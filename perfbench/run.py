"""Benchmark of the ``kreps`` command, run from the root of a checkout.

    python3 perfbench/run.py --workload knots --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

One process is one closed-loop client: it calls ``kreps.cli.main(argv)``
with ``--json`` in-process and sends the next report only when the last
has returned.  Inputs come from ``inputs.make_inputs(workload, seed)``.
The loop makes passes over the inputs until ``--seconds`` have gone by,
and every timing is the median of an input's samples, which damps the
swings of a shared machine.

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the
per-layer metrics, from a separate run that wraps the package's layer
functions (see ``tracing.py``) and also writes per-report span trees.
``--workload all`` runs every workload untraced and traced, each in a
fresh interpreter, prints every metric with its unit and sample count,
and the tracing overhead.  Each run writes its full record under
``perfbench/out/``; the last line of standard output is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The correctness gate runs outside the timed interval.  A report fails
when ``main`` raises, exits non-zero, has a false boolean ``checks``
entry, differs from the output recorded in ``references.json`` for its
seed, or differs from its own first output.  ``correct`` is false only
for the last two: a wrong or unstable answer.  Failures the program
reports itself are counted in ``failed`` and never stop the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

sys.path.insert(0, str(BENCH_DIR))
from inputs import WORKLOADS, make_inputs  # noqa: E402
from tracing import COUNTERS, LAYERS, Tracer  # noqa: E402

SETUP_PROBES = 7
UNITS = {
    "reports_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# A fresh interpreter's set-up: import the command's module and make the
# inputs.  Prints the seconds taken.
_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import kreps.cli
from inputs import make_inputs
make_inputs(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - start)
"""


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_context(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def import_cli():
    """Import kreps.cli from this checkout's sources."""
    sys.path.insert(0, str(SRC))
    import kreps.cli

    if Path(kreps.cli.__file__).resolve().parent != (SRC / "kreps").resolve():
        raise ImportError(f"kreps was imported from {kreps.cli.__file__}, not from {SRC}")
    return kreps.cli


def setup_probes(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        times.append(float(done.stdout))
    return times


def call_report(cli, argv: list[str]) -> tuple[float, str, str]:
    """One report: (seconds, outcome, stdout).  The outcome is ``exit N``,
    or the exception that escaped ``main``."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = f"exit {cli.main(argv)}"
    except (Exception, SystemExit) as exc:
        outcome = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, outcome, out.getvalue()


def fingerprint(outcome: str, stdout: str) -> str:
    return hashlib.sha256(f"{outcome}\n{stdout}".encode()).hexdigest()[:8]


def own_failure(outcome: str, stdout: str) -> str | None:
    """Why a report failed by its own account, or None."""
    if outcome != "exit 0":
        return outcome
    try:
        checks = json.loads(stdout).get("checks", {})
    except json.JSONDecodeError:
        return "output is not JSON"
    false = sorted(key for key, value in checks.items() if value is False)
    return f"false checks {', '.join(false)}" if false else None


def load_reference(workload: str, seed: int) -> list[str] | None:
    if not REFERENCES.is_file():
        return None
    marks = json.loads(REFERENCES.read_text()).get(workload, {}).get(str(seed))
    return marks.split() if marks is not None else None


def measure(cli, inputs: list[list[str]], seconds: float, reference, tracer=None) -> dict:
    """Closed-loop passes over the inputs for ``seconds``.  The first
    pass always completes."""
    n = len(inputs)
    samples: list[list[float]] = [[] for _ in range(n)]
    layer_samples: list[list[dict]] = [[] for _ in range(n)]
    first: list[str | None] = [None] * n
    counts: list[dict | None] = [None] * n
    trees: list[dict | None] = [None] * n
    failures: dict[int, str] = {}
    attempted = failed = 0
    wrong = []
    counts_repeat = True
    passes = 0
    start = time.perf_counter()
    deadline = start + seconds
    stop = False
    while not stop:
        for i, argv in enumerate(inputs):
            if passes and time.perf_counter() >= deadline:
                stop = True
                break
            argv = argv + ["--json"]
            if tracer is None:
                elapsed, outcome, stdout = call_report(cli, argv)
            else:
                with tracer.report() as traced:
                    elapsed, outcome, stdout = call_report(cli, argv)
                traced.counts["cli.output_bytes"] = len(stdout.encode())
                layer_samples[i].append(traced.layer_self)
                if counts[i] is None:
                    counts[i], trees[i] = traced.counts, traced.root.as_dict()
                elif traced.counts != counts[i]:
                    counts_repeat = False
            # correctness gate, outside the timed call
            samples[i].append(elapsed)
            attempted += 1
            mark = fingerprint(outcome, stdout)
            if first[i] is None:
                first[i] = mark
                reason = own_failure(outcome, stdout)
                if reference is not None and (i >= len(reference) or reference[i] != mark):
                    reason = "output differs from the reference"
                    wrong.append(i)
                if reason is not None:
                    failures[i] = reason
            elif mark != first[i]:
                failures[i] = "output differs between passes"
                wrong.append(i)
            if i in failures:
                failed += 1
        else:
            passes += 1
            if time.perf_counter() >= deadline:
                stop = True
    wall = time.perf_counter() - start
    return {
        "samples": samples,
        "layer_samples": layer_samples,
        "counts": counts,
        "counts_repeat": counts_repeat,
        "trees": trees,
        "failures": failures,
        "fingerprints": first,
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong and (reference is None or len(reference) == n),
        "passes": passes,
        "wall_s": wall,
    }


def latency_metrics(samples: list[list[float]]) -> dict:
    medians = [statistics.median(s) for s in samples]
    return {
        "reports_per_s": len(medians) / sum(medians),
        "latency_p50_ms": 1e3 * statistics.median(medians),
        "latency_p90_ms": 1e3 * statistics.quantiles(medians, n=10)[-1],
    }


def run_workload(args: argparse.Namespace) -> int:
    os.environ.pop("KREPS_ENUM_CAP", None)
    start = time.perf_counter()
    cli = import_cli()
    inputs = make_inputs(args.workload, args.seed)
    own_setup = time.perf_counter() - start
    context = run_context(args)
    reference = load_reference(args.workload, args.seed)
    probes = setup_probes(args.workload, args.seed)

    if args.trace:
        with Tracer() as tracer:
            result = measure(cli, inputs, args.seconds, reference, tracer)
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                statistics.median(d[layer] for d in per_input) for per_input in result["layer_samples"]
            )
        for name in COUNTERS:
            metrics[name] = sum(c[name] for c in result["counts"])
        units = {f"{layer}.self_s": "s" for layer in LAYERS} | COUNTERS
    else:
        result = measure(cli, inputs, args.seconds, reference)
        metrics = latency_metrics(result["samples"])
        metrics["setup_s"] = statistics.median(probes)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = UNITS
    n = len(inputs)
    record = {
        "context": context,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "samples": {
            "inputs": n,
            "passes": result["passes"],
            "attempted": result["attempted"],
            "setup_probes": len(probes),
        },
        "reports_per_s": latency_metrics(result["samples"])["reports_per_s"],
        "completed_per_wall_s": result["attempted"] / result["wall_s"],
        "setup_probes_s": probes,
        "own_setup_s": own_setup,
        "counts_repeat": result["counts_repeat"],
        "failures": [
            {"input": i, "argv": inputs[i], "reason": reason} for i, reason in sorted(result["failures"].items())
        ],
        "fingerprints": result["fingerprints"],
        "input_median_ms": [1e3 * statistics.median(x) for x in result["samples"]],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    untraced = OUT / f"{args.workload}-seed{args.seed}-trace0.json"
    if args.trace and untraced.is_file():
        record["tracing_overhead"] = json.loads(untraced.read_text())["reports_per_s"] / record["reports_per_s"] - 1
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        trees = [{"input": i, "argv": inputs[i], "counts": result["counts"][i], "tree": result["trees"][i]}
                 for i in range(n)]
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trees))

    print("context " + json.dumps(context, sort_keys=True))
    print(f"samples: {n} inputs x {result['passes']} full passes, {result['attempted']} reports attempted; "
          f"setup from {len(probes)} fresh interpreters")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"failed {result['failed']} of {result['attempted']} attempted "
          f"({len(result['failures'])} of {n} inputs)")
    for failure in record["failures"]:
        print(f"  input {failure['input']}: {failure['reason']}: kreps {' '.join(failure['argv'])}")
    if not result["counts_repeat"]:
        print("warning: per-layer counts differed between passes")
    if "tracing_overhead" in record:
        print(f"tracing overhead against the untraced run of this seed: {100 * record['tracing_overhead']:.1f}%")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
            summary[(workload, trace)] = json.loads(
                (OUT / f"{workload}-seed{args.seed}-trace{trace}.json").read_text())
    print("context " + json.dumps(run_context(args), sort_keys=True))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    overhead = {}
    for workload in WORKLOADS:
        plain, traced = summary[(workload, 0)], summary[(workload, 1)]
        overhead[workload] = traced["tracing_overhead"]
        s = plain["samples"]
        print(f"{workload}: {s['inputs']} inputs x {s['passes']} passes; failed {plain['failed']} "
              f"of {plain['attempted']} attempted; tracing overhead {100 * overhead[workload]:.1f}%")
        for record in (plain, traced):
            for name, metric in record["metrics"].items():
                samples = s["setup_probes"] if name == "setup_s" else s["inputs"]
                print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']:6s} n={samples}")
                result["metrics"][f"{workload}.{name}"] = metric
            result["correct"] &= record["correct"]
            result["attempted"] += record["attempted"]
            result["failed"] += record["failed"]
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-seed{args.seed}.json").write_text(json.dumps(
        {"context": run_context(args), "tracing_overhead": overhead,
         "runs": {f"{w}-trace{t}": r for (w, t), r in summary.items()}}, indent=1))
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kreps" / "cli.py").is_file():
        print(f"error: no kreps sources at {SRC}; run from the root of a kreps checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
