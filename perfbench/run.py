"""Benchmark of mixedpf: one workload per run, exact outputs checked in every pass.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval-ladders --seed 1 --seconds 40 --trace 0

The load is a closed loop in one single-threaded process: each input starts
when the previous one has returned.  A pass runs every input of the
workload once; passes repeat until the next one would end after
``--seconds``, and every timing is a median over passes or inputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, around which it wraps mixedpf's public
functions (see ``spans.py``), writes the spans to
``.perfbench/spans-<workload>-<seed>.tsv`` and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Set-up time is measured in fresh interpreters: the run starts
``SETUP_REPEATS`` child processes, one after the other, that build the
workload's inputs and say ``ready``.  The time from starting a child to
that line is its set-up time.  The children run within ``--seconds``.

Every reported time is scaled to a reference speed of the machine.  A
shared machine drifts in speed from second to second and from minute to
minute, by half and more, and that drift would swamp the comparison of two
runs.  So the run times a fixed pure-Python task (:func:`probe`, which does
not touch mixedpf) before a pass, after its last input and between inputs
about every ``PROBE_EVERY_S`` seconds, and each set-up child times it after
saying ``ready``.  The mean probe of a pass, divided by
``PROBE_REFERENCE_S``, is how many times slower than the reference the
machine ran during that pass; the pass's times are divided by it.  Probes
are not part of any pass or input time.  The raw times and
probes of an untraced run are written to
``.perfbench/raw-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 8
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60

PROBE_EVERY_S = 0.2
#: a round figure near the probe's time on the baseline machine (see README.md)
PROBE_REFERENCE_S = 0.006


def _probe_task():
    """Subset masks, degree counts, dicts and Fractions: the kind of work
    mixedpf does, in fixed code of the benchmark's own."""
    total, shapes = Fraction(0), {}
    for mask in range(1 << 10):
        edges = [e for e in range(10) if mask >> e & 1]
        degree = {}
        for e in edges:
            for v in (e % 5, (e * 3 + 1) % 5):
                degree[v] = degree.get(v, 0) + 1
        shape = tuple(sorted(degree.values()))
        shapes[shape] = shapes.get(shape, 0) + 1
        if all(d % 2 == 0 for d in degree.values()):
            total += Fraction((-1) ** len(edges) * len(edges), 1 + mask % 7)
    return total, len(shapes)


def probe() -> float:
    """Seconds taken by one run of the fixed probe task."""
    start = time.perf_counter()
    _probe_task()
    return time.perf_counter() - start


def slowdown(probes) -> float:
    """How many times slower than the reference the machine ran the probes."""
    return statistics.fmean(probes) / PROBE_REFERENCE_S


class Pass(NamedTuple):
    seconds: float  # wall time, probes excluded
    item_seconds: list
    failed: int
    digest: str  # of the pass's exact outputs
    layers: dict | None  # per-layer metrics of a traced pass
    probes: list  # seconds of each probe taken in the pass

    @property
    def slowdown(self) -> float:
        return slowdown(self.probes)


def _import_benchmark():
    """Import mixedpf from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mixedpf" / "__init__.py").is_file():
        sys.exit(f"error: no mixedpf sources at {SRC.relative_to(ROOT)}/mixedpf")
    sys.path[:0] = [str(SRC), str(HERE)]
    import mixedpf
    import spans
    import workloads

    if Path(mixedpf.__file__).resolve().parent != SRC / "mixedpf":
        sys.exit("error: mixedpf was imported from outside this checkout")
    return workloads, spans


# -- measurement ----------------------------------------------------------------


def run_pass(items, tracer=None) -> Pass:
    """Run every item once, with probes before the first item, after the
    last and between items now and then.

    An item fails when its check rejects the outputs or when it raises.
    """
    gc.collect()
    first_span = len(tracer.spans) if tracer is not None else 0
    times, outputs, failed, probes = [], [], 0, [probe()]
    clock = time.perf_counter
    start = last_probe = clock()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.input_id = index
        t0 = clock()
        try:
            values = item.run()
            ok = item.check(values)
        except Exception as exc:  # an exception is a failed input, not a crash
            values, ok = [f"{type(exc).__name__}: {exc}"], False
        times.append(clock() - t0)
        outputs.append(values)
        failed += not ok
        if clock() - last_probe >= PROBE_EVERY_S or index == len(items) - 1:
            probes.append(probe())
            last_probe = clock()
    elapsed = clock() - start - sum(probes[1:])
    layers = tracer.layer_metrics(first_span) if tracer is not None else None
    return Pass(elapsed, times, failed, digest(items, outputs), layers, probes)


def run_passes(items, seconds, tracer=None) -> list[Pass]:
    """Passes until the next one would end after ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(items, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def run_traced(items, seconds, tracer) -> tuple[list[Pass], list[Pass]]:
    """Untraced and traced passes in turn until the next pair would end
    after ``seconds``; the wrappers are installed around each traced pass."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(items))
        with tracer.installed():
            traced.append(run_pass(items, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:
            return untraced, traced


def digest(items, outputs) -> str:
    """sha256 over every input's label and exact outputs, in label order."""
    lines = sorted(f"{item.label}={','.join(map(str, v))}\n" for item, v in zip(items, outputs))
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def end_to_end_metrics(passes, setups) -> dict:
    """name -> (value, unit) of every end-to-end metric.

    ``setups`` holds a (seconds, slowdown) pair per set-up child.  Every
    time is divided by the slowdown of its pass or child.  An input's
    latency is its median over the passes; the percentiles are taken over
    the inputs.
    """
    scaled = ([t / p.slowdown for t in p.item_seconds] for p in passes)
    latencies_ms = [statistics.median(ts) * 1e3 for ts in zip(*scaled)]
    return {
        "setup_s": (statistics.median(t / s for t, s in setups), "s"),
        "run_s": (statistics.median(p.seconds / p.slowdown for p in passes), "s"),
        "item_p50_ms": (statistics.median(latencies_ms), "ms"),
        "item_p90_ms": (statistics.quantiles(latencies_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(untraced, traced, count_names) -> dict:
    """name -> (value, unit) of every per-layer metric, per pass.

    Times are medians over the traced passes, each divided by its pass's
    slowdown; counts and ratios come from the first traced pass.
    """
    out = {}
    for name, value in traced[0].layers.items():
        if name.endswith("_s"):
            out[name] = (statistics.median(p.layers[name] / p.slowdown for p in traced), "s")
        else:
            out[name] = (value, "count" if name in count_names else "ratio")
    overhead = statistics.median(p.seconds / p.slowdown for p in traced) / statistics.median(
        p.seconds / p.slowdown for p in untraced
    )
    out["trace.overhead_frac"] = (overhead - 1, "ratio")
    return out


def time_setups(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, slowdown) of each fresh interpreter that sets up the workload.

    The seconds run from starting the child until it says ``ready``; the
    slowdown comes from the probes the child takes after that.
    """
    setups = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd + ["--setup-only"], stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                probes = child.stdout.readline().split()
                child.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0 or not probes:
            sys.exit(f"error: set-up child exited with code {child.returncode}")
        setups.append((elapsed, slowdown(map(float, probes))))
    return setups


# -- entry point ----------------------------------------------------------------


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description="Benchmark of mixedpf.")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    workloads, spans = _import_benchmark()
    args = parse_args(argv, list(workloads.WORKLOADS))
    items = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print("ready", flush=True)
        print(" ".join(str(probe()) for _ in range(SETUP_PROBES)), flush=True)
        return 0

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        tracer = spans.Tracer()
        untraced, traced = run_traced(items, args.seconds, tracer)
        counts_repeat = all(
            p.layers[name] == traced[0].layers[name] for p in traced for name in spans.COUNT_METRICS
        )
        passes = untraced + traced
        metrics = per_layer_metrics(untraced, traced, spans.COUNT_METRICS)
        span_file = out_dir / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write(span_file)
        print(f"spans {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
    else:
        start = time.perf_counter()
        setups = time_setups(args.workload, args.seed)
        passes = run_passes(items, args.seconds - (time.perf_counter() - start))
        counts_repeat = True
        metrics = end_to_end_metrics(passes, setups)
        raw = {
            "setups": [{"seconds": t, "slowdown": s} for t, s in setups],
            "passes": [
                {"seconds": p.seconds, "item_seconds": p.item_seconds, "probes": p.probes}
                for p in passes
            ],
        }
        (out_dir / f"raw-{args.workload}-{args.seed}.json").write_text(json.dumps(raw))

    print("\n".join(result_lines(args.workload, args.seed, items, passes, metrics, counts_repeat)))
    return 0


def result_lines(workload, seed, items, passes, metrics, counts_repeat=True) -> list[str]:
    """The run's report; the last line is the JSON result.

    The result is correct when no input failed, every pass gave the same
    exact outputs and every count repeated across traced passes.
    """
    digests = sorted({p.digest for p in passes})
    attempted = len(items) * len(passes)
    failed = sum(p.failed for p in passes)
    lines = [
        f"workload {workload} seed {seed} inputs {len(items)} passes {len(passes)}",
        "pass_s " + " ".join(f"{p.seconds:.4f}" for p in passes),
        "slowdown " + " ".join(f"{p.slowdown:.3f}" for p in passes),
        *(f"exact sha256 {value}" for value in digests),
        f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})",
        *(f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()),
    ]
    result = {
        "correct": failed == 0 and len(digests) == 1 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return lines + [json.dumps(result)]


if __name__ == "__main__":
    sys.exit(main())
