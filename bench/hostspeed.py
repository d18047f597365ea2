"""Scaling of measured times to a reference host speed.

On a shared machine the speed of one core drifts by 10-25% over seconds
to minutes with other tenants' load, for identical work.  Every time the
benchmark reports (except the bare interpreter start, which is itself a
calibration) is therefore scaled: a calibration is timed before and after
each stretch of measured work (a tenth of a second in process, each
command for fresh processes), and the stretch's seconds are multiplied
by (reference time) / (mean calibration time around it).
ruletrees never runs a calibration, so a change to the program moves
scaled times exactly as it moves raw ones.

Two calibrations, each chosen because it tracks its kind of work:

  * IN_PROCESS, for work inside this process: a kernel of the benchmark's
    own reference code (a worklist closure, the recfun interpreter, proof
    printers, run counting), pure Python of the same character as the
    library;
  * FRESH_PROCESS, for fresh interpreters (set-up and `cli`): the wall
    time of a bare `python -c pass`, which pays the same process start
    and module loading as a command does.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time

import instances as inst

INTERPRETER_TIMEOUT_S = 60

_rng = random.Random("hostspeed")
_TABLES = inst.gen_table_system(_rng)[1]
_PROOF = inst.gen_proof(_rng, (), 5)
_NFA = inst.gen_nfa(_rng)


def _kernel():
    inst.table_heights(_TABLES)
    inst.ref_eval(inst.MUL, (9, 8), 10**6)
    inst.scheme_text(_PROOF)
    inst.sequent_deriv_text(_PROOF)
    inst.count_runs(_NFA, _NFA[0][0], ("a", "b") * 4)


def kernel_s() -> float:
    """Fastest of three timed runs of the calibration kernel."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def interpreter_start_s() -> float:
    """Wall time of one bare `python -c pass`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=INTERPRETER_TIMEOUT_S)
    return time.perf_counter() - start


# (calibration, its time at the reference host speed, seconds of measured
# work between two calibrations)
IN_PROCESS = (kernel_s, 0.00088, 0.1)
FRESH_PROCESS = (interpreter_start_s, 0.080, 0.1)


def scaled(raw_s: float, before: float, after: float, reference_s: float) -> float:
    return raw_s * reference_s / ((before + after) / 2)
