"""Shared machinery: operations, the timed loop, tracing and summary statistics.

An operation is one user-level task.  Its `call(lib, env)` makes the calls
into ruletrees and returns a compact output; `check(output)` compares that
output with a reference the benchmark computed without ruletrees.  `lib`
holds the library functions the operations may call, either as they are or
wrapped in spans; `env` holds the rule systems, automata and programs built
during set-up.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Iterable

from hostspeed import IN_PROCESS, scaled

# Public functions the benchmark calls, grouped by module, with the span
# each call is recorded under.  A span name `<module>.<part>` feeds the
# per-layer metric `<module>.<part>_s`.
LAYER_FUNCTIONS = {
    "engine": {
        "iterate": "engine.iterate",
        "member": "engine.member",
        "check_full_tree": "engine.tree_check",
        "check_elem_tree": "engine.tree_check",
        "infer_full_tree": "engine.tree_check",
    },
    "trees": {
        "parse_name_tree": "trees.parse",
        "print_name_tree": "trees.print",
        "tree_to_latex": "trees.print",
    },
    "natded": {
        "parse_term": "natded.parse",
        "parse_sequent_deriv": "natded.parse",
        "scheme_sequent_tree": "natded.check",
        "var_sequent_tree": "natded.check",
        "check_sequent_deriv": "natded.check",
        "scheme_to_var": "natded.convert",
        "var_to_scheme": "natded.convert",
        "print_term": "natded.print",
        "print_sequent": "natded.print",
    },
    "recfun": {
        "evaluate": "recfun.eval",
        "godel": "recfun.numbering",
        "ungodel": "recfun.numbering",
        "print_program": "recfun.text",
        "parse_program": "recfun.text",
    },
    "automata": {
        "recognizes": "automata.recognize",
        "derivations_of": "automata.derivations",
    },
    "cli": {"run": "cli.run"},
}

BLOCK_OPS = 200


@dataclass
class Op:
    kind: str
    layer: str  # the module blamed when the output is wrong
    key: Any  # identity of the system, program or automaton the op uses
    call: Callable[[Any, dict], Any]
    check: Callable[[Any], bool]
    counts: dict = field(default_factory=dict)  # exact work counts from the reference


class Tracer:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.error_span: str | None = None  # innermost span an exception left

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if self.error_span is None:
                    self.error_span = name
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name, the sum of durations minus time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals


def make_lib(modules: dict, tracer: Tracer | None) -> SimpleNamespace:
    """The library functions the operations call, traced when `tracer` is given."""
    fns = {}
    for module, names in LAYER_FUNCTIONS.items():
        if module not in modules:
            continue
        for name, span in names.items():
            fn = getattr(modules[module], name)
            fns[name] = tracer.wrap(span, fn) if tracer else fn
    return SimpleNamespace(**fns)


def counted_system(engine, system, counter: list | None):
    """`system` itself, or when `counter` is given a copy whose rule callbacks
    bump counter[0] on every application."""
    if counter is None:
        return system

    def counted(fn):
        def call(*args):
            counter[0] += 1
            return fn(*args)

        return call

    return engine.RuleSystem(
        tuple(engine.Rule(r.name, r.arity, counted(r.fn)) for r in system.rules)
    )


@dataclass
class RunResult:
    latencies: list = field(default_factory=list)  # s per op at reference speed; inf if failed
    raw_busy_s: float = 0.0  # summed wall time of all ops, unscaled
    busy_s: float = 0.0  # the same at reference speed
    failed: int = 0
    wrong: int = 0  # failed ops that returned an output differing from the reference
    errors: dict = field(default_factory=dict)  # exception type name -> count
    failed_by_layer: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)  # summed exact work counts of the ops
    repeats: int = 0  # ops whose key an earlier op already used

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy_s


def run_ops(
    ops: Iterable[Op], lib, env: dict, tracer: Tracer | None = None, speed=IN_PROCESS
) -> RunResult:
    """Closed loop with one caller: each op starts when the previous one ends.

    Ops are drawn in blocks of BLOCK_OPS, so the benchmark's inputs and
    references never pile up in memory and their drawing falls outside the
    calibrated stretches.  `speed` is the (calibration, reference seconds,
    seconds between calibrations) op times are scaled by; see hostspeed.
    """
    calibrate, reference_s, chunk_s = speed
    clock = time.perf_counter
    result, seen = RunResult(), set()
    chunk: list = []  # (raw seconds, passed) per op since the last calibration

    def close_chunk(before: float) -> float:
        after = calibrate()
        factor = scaled(1.0, before, after, reference_s)
        for seconds, passed in chunk:
            result.raw_busy_s += seconds
            result.busy_s += seconds * factor
            result.latencies.append(seconds * factor if passed else math.inf)
        chunk.clear()
        return after

    ops = iter(ops)
    while block := list(itertools.islice(ops, BLOCK_OPS)):
        before = calibrate()
        for op in block:
            call = op.call
            if tracer is not None:
                call, tracer.error_span = tracer.wrap("op", op.call), None
            start = clock()
            try:
                output = call(lib, env)
                crashed = None
            except Exception as exc:  # a crash is a failed op; the run goes on
                crashed = exc
            seconds = clock() - start
            layer = op.layer
            if crashed is not None:
                if tracer is not None and tracer.error_span not in (None, "op"):
                    layer = tracer.error_span.split(".")[0]
                name = type(crashed).__name__
                result.errors[name] = result.errors.get(name, 0) + 1
                passed = False
            else:
                passed = op.check(output)
                result.wrong += not passed
            if not passed:
                result.failed += 1
                result.failed_by_layer[layer] = result.failed_by_layer.get(layer, 0) + 1
            for name, value in op.counts.items():
                result.counts[name] = result.counts.get(name, 0) + value
            result.repeats += op.key in seen
            seen.add(op.key)
            chunk.append((seconds, passed))
            if sum(s for s, _ in chunk) >= chunk_s:
                before = close_chunk(before)
        if chunk:
            close_chunk(before)
    return result


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; failed ops (inf) rank above every completed one.

    Should the rank land on a failed op, the result is the summed time of
    all ops, a finite bound no single op can exceed.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    value = ordered[rank - 1]
    return value if value != math.inf else sum(v for v in values if v != math.inf)


def apportion(mix: tuple, count: int) -> list[str]:
    """Exactly `count` kinds, each kind's share of `mix` (kind, weight) by
    largest remainders."""
    total = sum(weight for _, weight in mix)
    quotas = [(kind, weight * count / total) for kind, weight in mix]
    kinds = {kind: int(quota) for kind, quota in quotas}
    by_remainder = sorted(quotas, key=lambda kq: kq[1] - int(kq[1]), reverse=True)
    for kind, _ in by_remainder[: count - sum(kinds.values())]:
        kinds[kind] += 1
    return [kind for kind, _ in mix for _ in range(kinds[kind])]


def stratified(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """`count` integers spread evenly over [low, high], jittered and shuffled.

    Spreading the sizes instead of drawing them independently keeps the
    total work of a run nearly the same from seed to seed.
    """
    values = [
        low + int((high - low + 1) * (i + rng.random()) / count) for i in range(count)
    ]
    rng.shuffle(values)
    return values
