"""Benchmark for ruletrees: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload {closure,check,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ruletrees is imported from `src/` next to
this directory.  Inputs are generated from --seed; a run executes the
whole seeded list of operations, sized at OPS_PER_SECOND x --seconds for
its workload, so two commits do identical work.  Load is one caller in a
closed loop, in one process with no extra threads (`cli`: one child
process at a time).  Every output is checked against a reference the
benchmark computes itself.  Reported times are scaled to a reference host
speed (see hostspeed.py); each report also prints the unscaled total.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones, and the spans are written to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check_ops
import cli_ops
import closure_ops
import harness
import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = {"closure": closure_ops, "check": check_ops, "cli": cli_ops}
# ruletrees modules whose import and set-up each workload's `setup_s` covers
WORKLOAD_MODULES = {
    "closure": ("engine",),
    "check": ("engine", "trees", "natded", "recfun", "automata"),
    "cli": tuple(harness.LAYER_FUNCTIONS),
}
SETUP_REPEATS = 7  # fresh processes per setup measurement, after one warm-up
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "engine.iterate_s": "s",
    "engine.member_s": "s",
    "engine.tree_check_s": "s",
    "engine.rule_calls": "count",
    "engine.elements": "count",
    "engine.useful_ratio": "ratio",
    "engine.failed": "count",
    "trees.parse_s": "s",
    "trees.print_s": "s",
    "trees.nodes": "count",
    "trees.failed": "count",
    "natded.parse_s": "s",
    "natded.check_s": "s",
    "natded.convert_s": "s",
    "natded.print_s": "s",
    "natded.nodes": "count",
    "natded.failed": "count",
    "recfun.eval_s": "s",
    "recfun.numbering_s": "s",
    "recfun.text_s": "s",
    "recfun.fuel": "count",
    "recfun.code_bits": "count",
    "recfun.failed": "count",
    "automata.recognize_s": "s",
    "automata.derivations_s": "s",
    "automata.runs": "count",
    "automata.failed": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "cli.failed": "count",
    "trace.overhead_ratio": "ratio",
    "inputs.repeat_share": "ratio",
}


def load(names) -> dict:
    return {name: importlib.import_module(f"ruletrees.{name}") for name in names}


# ------------------------------------------------------------------- set-up


def probe(workload: str, seed: int, count: int) -> None:
    """Child side of a setup measurement: draw the system specs (reported,
    so the parent can subtract the benchmark's own drawing), import the
    modules, build the systems, and say ready."""
    start = time.perf_counter()
    module = WORKLOADS[workload]
    drawn = module.draw_setup(seed, count)
    drawing = time.perf_counter() - start
    module.build_env(drawn, load(WORKLOAD_MODULES[workload]), None)
    print(f"ready {drawing!r}", flush=True)


def fresh_process_s(argv: list, expect) -> float:
    """The raw time `expect(first line, rest of stdout, exit code, seconds
    until the first line)` derives from one fresh process."""
    start = time.perf_counter()
    with subprocess.Popen(
        argv, cwd=ROOT, env=cli_ops.child_env(SRC), stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    return expect(line, rest, proc.returncode, elapsed)


def median_of_fresh(argv: list, expect) -> float:
    """Median over SETUP_REPEATS fresh processes, each scaled by the bare
    interpreter starts just before and after it, after one warm-up run
    that writes bytecode caches."""
    calibrate, reference_s, _ = hostspeed.FRESH_PROCESS
    fresh_process_s(argv, expect)
    samples, before = [], calibrate()
    for _ in range(SETUP_REPEATS):
        value = fresh_process_s(argv, expect)
        after = calibrate()
        samples.append(hostspeed.scaled(value, before, after, reference_s))
        before = after
    return statistics.median(samples)


class SetupFailed(Exception):
    pass


def setup_seconds(workload: str, seed: int, count: int) -> float:
    if workload == "cli":
        argv = [sys.executable, "-m", "ruletrees", *cli_ops.SETUP_ARGV]

        def expect(line, rest, code, elapsed):
            if line + rest != cli_ops.SETUP_STDOUT or code != 0:
                raise SetupFailed(f"{' '.join(argv)} printed {line + rest!r}")
            return elapsed

    else:
        argv = [
            sys.executable, str(Path(__file__)), "--workload", workload,
            "--seed", str(seed), "--count", str(count), "--probe",
        ]

        def expect(line, rest, code, elapsed):
            if not line.startswith("ready ") or code != 0:
                raise SetupFailed(f"set-up probe printed {line + rest!r}")
            return elapsed - float(line.split()[1])

    return median_of_fresh(argv, expect)


def interpreter_and_import_ms() -> tuple[float, float]:
    """Bare interpreter start, raw: a noise floor outside the program and
    the calibration fresh processes are scaled by; and the in-process
    import time of ruletrees.cli in a fresh process."""
    bare = statistics.median([hostspeed.interpreter_start_s() for _ in range(SETUP_REPEATS)])
    timed_import = (
        "import time; t = time.perf_counter(); import ruletrees.cli; "
        "print(time.perf_counter() - t)"
    )
    imported = median_of_fresh(
        [sys.executable, "-c", timed_import], lambda line, rest, code, elapsed: float(line)
    )
    return bare * 1e3, imported * 1e3


# --------------------------------------------------------------------- runs


def build(workload: str, seed: int, count: int, modules: dict, counter) -> dict:
    module = WORKLOADS[workload]
    return module.build_env(module.draw_setup(seed, count), modules, counter)


def end_to_end(workload, seed, count, ops_of, workdir) -> tuple[dict, harness.RunResult]:
    setup_s = setup_seconds(workload, seed, count)
    if workload == "cli":
        child_env = cli_ops.child_env(SRC)
        lib, speed = None, hostspeed.FRESH_PROCESS
        env = {"run": lambda lib, argv: cli_ops.run_child(argv, workdir, child_env)}
    else:
        modules = load(WORKLOAD_MODULES[workload])
        lib, speed = harness.make_lib(modules, None), hostspeed.IN_PROCESS
        env = build(workload, seed, count, modules, None)
    result = harness.run_ops(ops_of(), lib, env, speed=speed)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": result.ops_per_s,
        "latency_p50_ms": harness.percentile(result.latencies, 0.5) * 1e3,
        "latency_p90_ms": harness.percentile(result.latencies, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    return metrics, result


class Patched:
    """Wrap the public functions of every module, and the names ruletrees.cli
    imported from them, in spans for an in-process `cli.run`; undo on exit."""

    def __init__(self, modules: dict, tracer: harness.Tracer):
        self.modules, self.tracer, self.undo = modules, tracer, []

    def __enter__(self):
        cli = self.modules["cli"]
        for module, names in harness.LAYER_FUNCTIONS.items():
            if module == "cli":
                continue
            for name, span in names.items():
                original = getattr(self.modules[module], name)
                wrapped = self.tracer.wrap(span, original)
                for owner in (self.modules[module], cli):
                    if getattr(owner, name, None) is original:
                        self.undo.append((owner, name, original))
                        setattr(owner, name, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self.undo):
            setattr(owner, name, original)


def per_layer(workload, seed, count, ops_of) -> tuple[dict, harness.RunResult, harness.Tracer]:
    """An untraced and a traced pass over the same ops, in this process
    (`cli`: through `cli.run`); layer times come from the traced pass."""
    interpreter_ms, import_ms = interpreter_and_import_ms()
    modules = load(WORKLOAD_MODULES[workload])
    tracer, rule_calls = harness.Tracer(), [0]
    if workload == "cli":
        plain_env = traced_env = {"run": cli_ops.run_in_process}
    else:
        plain_env = build(workload, seed, count, modules, None)
        traced_env = build(workload, seed, count, modules, rule_calls)
    plain = harness.run_ops(ops_of(), harness.make_lib(modules, None), plain_env)
    with Patched(modules, tracer) if workload == "cli" else contextlib.nullcontext():
        traced = harness.run_ops(ops_of(), harness.make_lib(modules, tracer), traced_env, tracer)

    metrics = {name: 0 for name in PER_LAYER_UNITS}
    for span, seconds in tracer.self_times().items():
        if f"{span}_s" in metrics:
            metrics[f"{span}_s"] = seconds
    metrics.update(traced.counts)
    metrics["engine.rule_calls"] = rule_calls[0]
    if rule_calls[0]:
        metrics["engine.useful_ratio"] = metrics["engine.elements"] / rule_calls[0]
    for layer, failed in traced.failed_by_layer.items():
        metrics[f"{layer}.failed"] = failed
    metrics["cli.interpreter_ms"] = interpreter_ms
    metrics["cli.import_ms"] = import_ms
    if workload == "cli":
        metrics["cli.run_ms"] = statistics.median(plain.latencies) * 1e3
    metrics["trace.overhead_ratio"] = plain.ops_per_s / traced.ops_per_s
    metrics["inputs.repeat_share"] = traced.repeats / traced.attempted
    traced.wrong += plain.wrong
    return metrics, traced, tracer


# ------------------------------------------------------------------- output


def report(workload, seed, metrics, units, result, trace) -> dict:
    """Print the metrics as lines for a reader, and return the JSON result."""
    count = result.attempted
    p90 = harness.percentile(result.latencies, 0.9)
    beyond = sum(1 for x in result.latencies if x > p90)
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh processes",
        "ops_per_s": f"{count - result.failed} completed ops",
        "latency_p50_ms": f"n={count}",
        "latency_p90_ms": f"n={count}, {beyond} beyond",
        "cli.interpreter_ms": f"median of {SETUP_REPEATS}, unscaled",
        "cli.import_ms": f"median of {SETUP_REPEATS}",
    }
    print(f"# workload {workload}, seed {seed}, {count} ops, one caller in a closed loop"
          + (", traced" if trace else ""))
    for name, value in metrics.items():
        print(f"{name:24s} {value:>16.6g} {units[name]:6s} {notes.get(name, '')}")
    errors = ", ".join(f"{k} {v}" for k, v in sorted(result.errors.items())) or "none"
    print(f"{'failed_ratio':24s} {result.failed / count:>16.6g} {'ratio':6s} "
          f"{result.failed}/{count} failed, {result.wrong} wrong, exceptions: {errors}")
    if not trace:
        print(f"{'inputs.repeat_share':24s} {result.repeats / count:>16.6g} ratio")
    print(f"# times are at reference host speed; this run's host ran at "
          f"{result.busy_s / result.raw_busy_s:.3f}x it ({result.raw_busy_s:.3f} s of ops unscaled)")
    return {
        "correct": result.wrong == 0,
        "attempted": count,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def write_spans(tracer: harness.Tracer, workload: str, seed: int) -> Path:
    """All spans as [name, start, end, parent index] lists, one JSON file per run."""
    path = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(tracer.spans, separators=(",", ":")), encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "ruletrees" / "__init__.py").is_file():
        print(f"error: no ruletrees sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        probe(args.workload, args.seed, args.count)
        return 0

    count = max(1, round(WORKLOADS[args.workload].OPS_PER_SECOND * args.seconds))
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        workdir = Path(tmp)
        if args.workload == "cli":
            def ops_of():
                return cli_ops.make_ops(args.seed, count, cli_ops.Workdir(workdir))
        else:
            def ops_of():
                return WORKLOADS[args.workload].make_ops(args.seed, count)
        try:
            if args.trace:
                metrics, result, tracer = per_layer(args.workload, args.seed, count, ops_of)
                units = PER_LAYER_UNITS
            else:
                metrics, result = end_to_end(args.workload, args.seed, count, ops_of, workdir)
                units = END_TO_END_UNITS
        except SetupFailed as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    final = report(args.workload, args.seed, metrics, units, result, args.trace)
    if args.trace:
        print(f"# spans: {write_spans(tracer, args.workload, args.seed).relative_to(ROOT)}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
