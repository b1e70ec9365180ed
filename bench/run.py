"""Benchmark for mobilemem: four workloads, each a closed loop in one thread.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sim-dense --seed 1 --seconds 20 --trace 0

One workload per process, so that ``peak_rss_mb`` is the workload's own.
All four, end-to-end and traced::

    for w in sim-dense sim-wide check-corpus compile-deep; do
        for t in 0 1; do python3 bench/run.py --workload $w --seed 1 --seconds 20 --trace $t; done
    done

Each run is a closed loop: an operation starts when the one before it ends.
The program is given only the inputs this benchmark generates from
``--seed``; they are rendered to ``.mms`` / ``.amb`` text and loaded back
through the program's parsers; that loading is the set-up (``setup_s``, the median
of several set-ups). Every operation's output is checked against a known
answer worked out by ``workloads.py``. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print the same metrics for a reader, with the
workload's own names for them.

Workloads (see ``workloads.py`` for the inputs):

* ``sim-dense``: ``engine.run`` on 12 independent INF pairs, one step per
  operation. Choice enumeration dominates (about 97% at the parent).
* ``sim-wide``: ``engine.run`` for 11 steps on one busy pair among 400
  bystanders. Tree size dominates: step, matching and canonical keys.
* ``check-corpus``: prop2, prop1 and prop45 checks on ROADMAP W5's fixed
  corpus slices, renamed and ordered by the seed, plus three inputs whose
  known answer is ``fail``. Many tiny systems; the only workload where
  ``ambient`` and ``translate`` work.
* ``compile-deep``: prop2 on the T=4 rule whose compiled family has 1,049
  rules; the compiled side's matching and the compiler dominate.

End-to-end metrics (``--trace 0``), the same names on every workload:

=============  ======================================================
``ops_per_s``   operations per second: runs (sims) or checks
``work_per_s``  steps per second (sims) or reach-graph nodes per
                second, as reported in the verdicts (checks)
``op_ms_p50``   median operation latency
``op_ms_tail``  latency at the workload's tail percentile, the highest
                that left at least 10 samples beyond it at the parent
``setup_s``     median time to parse (load) the rendered inputs
``peak_rss_mb`` peak resident set size of the process
=============  ======================================================

Operations that raise, come back inconclusive or disagree with the known
answer count in ``failed``; ``failed / attempted`` is the failed share.

Host speed. On the machine this was written on (2 cores, shared with other
tenants) identical code ran up to 1.8x slower from one minute to the next,
in CPU time as in wall time. Every time metric is therefore divided by a
host-speed factor measured in the same run: the geometric mean of three
fixed pure-Python kernels (integer arithmetic; dict, tuple and string
work; scattered reads of 8 MB), each timed against a fixed reference time,
before the first operation and after about every ``CALIBRATE_EVERY_S``
seconds of operations. Each operation is divided by the median of the
``2 * SMOOTH_SAMPLES`` samples nearest to it. The kernels do not call the
program, so a faster program shows as a faster metric. The factor removes
most, not all, of the host's noise, because the program slows down more
than the kernels under some kinds of contention. The human-readable lines
also print the raw medians and the median factor. ``peak_rss_mb``
includes the kernels' 8 MB.

Per-layer metrics (``--trace 1``) come from a separate run. One pass is
the workload's inputs, set-up and ``traced_passes`` passes over its
operations; two passes with every listed public function wrapped (see
``tracing.py``) run between two untraced ones. Work counts must agree
exactly between the two traced passes. Self times are the mean of the two,
each divided by its pass's host-speed factor; ``trace.overhead`` is traced
wall time over untraced, both divided the same way. The spans of the first
traced pass are written to ``.bench_spans/<workload>-seed<seed>.jsonl``.

Which layer metric should move which end-to-end metric:

====================================================  =====================  ==============  ====================
layer metric                                          end-to-end metric      moves on        stays flat on
====================================================  =====================  ==============  ====================
``engine.choices.self_s``                             ops, work, op_ms_*     sim-dense       sim-wide (<= 9%)
``engine.step``, ``engine.find_instances``,           ops, work; peak_rss    sim-wide        sim-dense (~2%)
``core.canonicalize``
``untimed.u_maximal_choices``                         ops, work              check-corpus    compile-deep
``untimed.u_find_instances``,                         ops, work              compile-deep    check-corpus (small),
``compiler.eliminate_timers``                                                                sims (zero)
``ambient.*``, ``translate.*``                        op_ms_*                check-corpus    all others
``sysfile.*``                                         setup_s                all
====================================================  =====================  ==============  ====================
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_spans"

SETUP_REPEATS = 7
CALIBRATE_EVERY_S = 0.05
SMOOTH_SAMPLES = 3
clock = time.perf_counter


# ---------------------------------------------------------------------------
# Host speed

def _arith_kernel() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def _dict_kernel() -> int:
    d: dict = {}
    for i in range(2000):
        k = (i % 97, "x%d" % (i % 13))
        d[k] = d.get(k, 0) + 1
    return len(",".join(f"{a}:{b}" for (a, b), _n in sorted(d.items())))


# Reads of 20,000 shuffled offsets into 8 MB, so that most of them miss the
# caches. Bytes and arrays hold no references, so the garbage collector,
# which the program's operations also run, never visits them.
_MEMORY = bytes(range(256)) * (1 << 15)
_OFFSETS = array.array("l", random.Random(0).sample(range(len(_MEMORY)), 20_000))


def _memory_kernel() -> int:
    memory = _MEMORY
    s = 0
    for offset in _OFFSETS:
        s += memory[offset]
    return s


_KERNELS = (_arith_kernel, _dict_kernel, _memory_kernel)
# Kernel times, in seconds, that define host-speed factor 1.
KERNEL_REFERENCE_S = (1.5e-3, 1.5e-3, 1.5e-3)


def host_speed() -> float:
    """Slowdown of this host against the reference (1.0 = reference): the
    geometric mean of the kernels' slowdowns."""
    log_sum = 0.0
    for kernel, reference in zip(_KERNELS, KERNEL_REFERENCE_S):
        t0 = clock()
        kernel()
        log_sum += math.log((clock() - t0) / reference)
    return math.exp(log_sum / len(_KERNELS))


# ---------------------------------------------------------------------------
# Measurement

def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Outcome:
    """Operation latencies (raw and host-normalized), work and failures."""

    def __init__(self):
        self.raw: list[float] = []
        self.norm: list[float] = []
        self.factors: list[float] = []
        self.work = 0
        self.failed = 0
        self._reported = False

    def run_op(self, op) -> tuple[float, bool, int]:
        t0 = clock()
        try:
            passed, units = op()
        except Exception:  # a failing operation is counted, the loop goes on
            passed, units = False, 0
            if not self._reported:
                traceback.print_exc()
                self._reported = True
        return clock() - t0, passed, units

    def add(self, dt: float, passed: bool, units: int, factor: float) -> None:
        self.raw.append(dt)
        self.norm.append(dt / factor)
        self.factors.append(factor)
        self.work += units
        self.failed += not passed


def timed_setup(workload, inputs) -> tuple[list, list[float], list[float]]:
    """Load the inputs SETUP_REPEATS times; (operations, raw, normalized)."""
    raw, norm = [], []
    before = host_speed()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = clock()
        ops = workload.load(inputs)
        dt = clock() - t0
        after = host_speed()
        raw.append(dt)
        norm.append(dt / ((before + after) / 2))
        before = after
    return ops, raw, norm


def measure(ops: list, seconds: float) -> Outcome:
    """Whole passes over the operations, in a closed loop, until
    ``seconds`` have passed; whole passes weigh every operation the same.
    See the module docstring for the host-speed factor."""
    out = Outcome()
    gc.collect()
    samples = [host_speed()]
    segments: list[list] = [[]]
    busy = 0.0
    deadline = clock() + seconds
    while clock() < deadline:
        for op in ops:
            segments[-1].append(out.run_op(op))
            busy += segments[-1][-1][0]
            if busy >= CALIBRATE_EVERY_S:
                samples.append(host_speed())
                segments.append([])
                busy = 0.0
    samples.append(host_speed())
    for j, segment in enumerate(segments):
        factor = statistics.median(samples[max(0, j + 1 - SMOOTH_SAMPLES):j + 1 + SMOOTH_SAMPLES])
        for dt, passed, units in segment:
            out.add(dt, passed, units, factor)
    return out


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, Outcome, bool]:
    inputs = workload.make_inputs(random.Random(f"{workload.name}:{seed}"))
    ops, setup_raw, setup_norm = timed_setup(workload, inputs)
    out = measure(ops, seconds)
    verified = workload.verify(inputs) if workload.verify else True
    norm = sorted(out.norm)
    busy = sum(norm)
    tail, beyond = percentile(norm, workload.tail_pct)
    metrics = {
        "ops_per_s": (len(norm) / busy, "1/s"),
        "work_per_s": (out.work / busy, "1/s"),
        "op_ms_p50": (statistics.median(norm) * 1e3, "ms"),
        "op_ms_tail": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup_norm), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    op_name = "run" if workload.unit == "step" else "check"
    aliases = {
        "ops_per_s": f"{op_name}s_per_s",
        "work_per_s": f"{workload.unit}s_per_s",
        "op_ms_p50": f"{op_name}_ms_p50",
        "op_ms_tail": f"{op_name}_ms_tail (p{workload.tail_pct:g} of {len(norm)} samples, {beyond} beyond)",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:12} {value:12.4f} {unit:5} {aliases.get(name, '')}")
    print(f"failed_share {out.failed / max(1, len(norm)):12.4f}       ({out.failed} of {len(norm)})")
    print(
        f"raw: op_ms_p50 {statistics.median(out.raw) * 1e3:.4f} setup_s {statistics.median(setup_raw):.6f}"
        f"; host-speed factor median {statistics.median(out.factors):.3f}"
    )
    if not verified:
        print("verification failed: compiled rule count differs from the known family size")
    return metrics, out, verified


def traced(workload, seed: int) -> tuple[dict, int, int, bool]:
    from tracing import Tracer, metric_names

    attempted = failed = 0
    ok = True
    runner = Outcome()

    def one_pass(tracer: Tracer | None) -> tuple[float, float]:
        """(wall time, host-speed factor) of one pass."""
        nonlocal attempted, failed, ok
        gc.collect()
        before = host_speed()
        if tracer:
            tracer.install()
        try:
            t0 = clock()
            inputs = workload.make_inputs(random.Random(f"{workload.name}:{seed}"))
            ops = workload.load(inputs)
            for k, op in enumerate(ops * workload.traced_passes):
                if tracer:
                    tracer.op = k + 1
                _dt, passed, _units = runner.run_op(op)
                attempted += 1
                failed += not passed
            if workload.verify:
                ok = workload.verify(inputs) and ok
            wall = clock() - t0
        finally:
            if tracer:
                tracer.uninstall()
        return wall, (before + host_speed()) / 2

    # Untraced passes before and after the traced ones, so that a drift in
    # host speed cancels out of the overhead.
    passes = [Tracer(), Tracer()]
    plain = [one_pass(None)]
    runs = [one_pass(t) for t in passes]
    plain.append(one_pass(None))
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"{workload.name}-seed{seed}.jsonl"
    passes[0].write(spans_file)
    print(f"spans of the first traced pass: {spans_file.relative_to(ROOT)}")
    first, second = (t.summary() for t in passes)
    units = dict(metric_names())
    counts = {k: v for k, v in first.items() if units[k] != "s"}
    deterministic = counts == {k: v for k, v in second.items() if units[k] != "s"}
    (_w1, f1), (_w2, f2) = runs
    metrics = {
        k: ((first[k] / f1 + second[k] / f2) / 2 if units[k] == "s" else first[k], units[k]) for k in first
    }
    metrics["trace.overhead"] = (
        statistics.mean(w / f for w, f in runs) / statistics.mean(w / f for w, f in plain), "ratio"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:48} {value:16.6f} {unit}")
    if not deterministic:
        diff = sorted(k for k in counts if first[k] != second[k])
        print(f"work counts differ between two traced passes: {', '.join(diff)}")
    return metrics, attempted, failed, ok and deterministic


def import_program() -> None:
    """Put the checkout's src/ first on the path and make sure mobilemem
    comes from there."""
    sys.path.insert(0, str(SRC))
    try:
        import mobilemem
    except ImportError as err:
        sys.exit(f"bench: cannot import mobilemem from {SRC}: {err}")
    if Path(mobilemem.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: mobilemem was imported from {mobilemem.__file__}, not {SRC}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_program()
    workload = WORKLOADS[args.workload]
    print(
        f"workload {workload.name} seed {args.seed} trace {args.trace}"
        f" python {platform.python_version()} nproc {os.cpu_count()}"
    )
    if args.trace:
        metrics, attempted, failed, ok = traced(workload, args.seed)
    else:
        metrics, out, ok = end_to_end(workload, args.seed, args.seconds)
        attempted, failed = len(out.norm), out.failed
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
