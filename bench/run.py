"""Layered benchmark for jperron.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-golden

Workloads (see ``workloads.py``): ``rational_batch``, ``algebraic_deep``,
``represent_audit`` and ``cli_roundtrip``.  Each is a closed loop with one
client and one op in flight; inputs come from the seed, every output is
checked exactly as soon as its op ends, and each op's input objects
(number fields included) are built fresh; neither counts as op time.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics:

* ``setup_s``: median over 9 set-ups, each a fresh interpreter importing
  ``jperron`` plus input generation, spread evenly over the run;
* ``ops_per_s``: correct ops per second of op time;
* ``op_p50_ms``: median op latency;
* ``op_tail_ms``: the highest percentile with at least 10 samples beyond
  it (the percentile and sample count go to stderr);
* ``blocks_per_s``: digit blocks in the checked outputs per second of op
  time;
* ``peak_rss_mb``: peak resident memory of the process that runs the ops
  (the benchmark itself, or the largest CLI child for ``cli_roundtrip``).

The failure ratio is ``failed / attempted`` of the result line.

``--trace 1`` runs a fixed list of ops: each op untraced and then traced,
and afterwards every op traced again with tracemalloc on.  The traced runs
wrap the public functions of every library layer (``tracer.py``).
Per-layer metrics come from the first traced pass and ``cf.alloc_peak_kb``
from the second; every count must agree between the two, and any drift is
printed and makes the run incorrect.  ``trace.overhead_ratio`` is the op
time of the first traced pass over that of the untraced pass.  Times and
counts are totals over the traced ops; a layer the workload never calls
reads 0.

``--record-golden`` rewrites ``golden.json`` with the represent_audit and
CLI digests produced by the library in this checkout.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 9
CLI_PROBE_REPS = 5
REPORTED_ERRORS = 5


def _child_seconds(code, env):
    """Wall time of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=120,
    )
    return time.perf_counter() - t0


class Session:
    """Runs ops of one workload and keeps what the checks need."""

    def __init__(self, wl, inputs):
        self.wl = wl
        self.inputs = inputs
        self.fields = {}  # id -> field; holding them keeps ids unique
        self.errors = []

    def op(self, index, call, tracer=None):
        """Prepare, run (timed) and record one op.

        Returns (latency in s, record or None, (enclosure bits, coefficient
        bits)); None marks an op that raised or reused a number field.
        Failing ops are counted, never fatal, so every step below catches
        any exception and notes it.
        """
        wl = self.wl
        spec = self.inputs[index]
        dt = 0.0
        stage = "preparing its input"
        try:
            prepared = wl.prepare(spec)
            stage = "running"
            if tracer is not None:
                tracer.paused = False
            t0 = time.perf_counter()
            try:
                out = call(prepared)
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.paused = True
            stage = "reading its output"
            fresh = {id(f): f for f in wl.fields(prepared, out)}
            if any(i in self.fields for i in fresh):
                self.errors.append("op %d reused a number field of an earlier op" % index)
                return dt, None, (0, 0)
            self.fields.update(fresh)
            bits = wl.bits(prepared, out) if tracer is not None else (0, 0)
            return dt, wl.record(spec, prepared, out), bits
        except Exception as exc:
            self.errors.append(
                "op %d raised %s while %s: %s" % (index, type(exc).__name__, stage, exc)
            )
            return dt, None, (0, 0)

    def check(self, index, rec):
        """(ok, digit blocks) of one op's record."""
        if rec is None:
            return False, 0
        try:
            ok, blocks = self.wl.check(self.inputs[index], rec)
        except Exception as exc:
            self.errors.append("op %d: check raised %s: %s" % (index, type(exc).__name__, exc))
            return False, 0
        if not ok:
            self.errors.append("op %d: output does not match its check" % index)
        return ok, blocks if ok else 0

    def report_errors(self):
        for line in self.errors[:REPORTED_ERRORS]:
            print("bench: " + line, file=sys.stderr)
        if len(self.errors) > REPORTED_ERRORS:
            print("bench: ... %d more" % (len(self.errors) - REPORTED_ERRORS), file=sys.stderr)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _setup_once(wl, seed, env):
    """(seconds, inputs) of one set-up: a fresh interpreter importing
    jperron, then input generation."""
    t_import = _child_seconds("import jperron", env)
    t0 = time.perf_counter()
    inputs = wl.generate(seed)
    return t_import + time.perf_counter() - t0, inputs


def timed_run(workloads, wl, seed, seconds):
    env = workloads.child_env()
    _child_seconds("import jperron", env)  # compiles bytecode once
    setup_s, inputs = _setup_once(wl, seed, env)
    setups = [setup_s]

    order = wl.order(inputs, seed)
    session = Session(wl, inputs)
    failed = 0
    for k in range(wl.warmup_ops):
        idx = order[k % len(order)]
        failed += not session.check(idx, session.op(idx, wl.run)[1])[0]
    # Each op is checked as soon as it ends and its output dropped, so the
    # process holds one op's data at a time.  Checks and the remaining
    # set-ups (spread evenly, because the host's speed drifts over
    # seconds) run outside the op time that fills the run.
    measured = []  # (latency, ok, blocks)
    start = time.perf_counter()
    spent = 0.0
    k = 0
    while time.perf_counter() - spent < start + seconds:
        due = len(setups) * seconds / SETUP_REPS
        if len(setups) < SETUP_REPS and time.perf_counter() - spent - start >= due:
            t0 = time.perf_counter()
            setups.append(_setup_once(wl, seed, env)[0])
            spent += time.perf_counter() - t0
        idx = order[k % len(order)]
        k += 1
        dt, rec, _ = session.op(idx, wl.run)
        t0 = time.perf_counter()
        ok, blocks = session.check(idx, rec)
        del rec
        spent += time.perf_counter() - t0
        measured.append((dt, ok, blocks))
    good = sum(ok for _, ok, _ in measured)
    blocks = sum(b for _, _, b in measured)
    failed += len(measured) - good
    attempted = wl.warmup_ops + len(measured)
    session.report_errors()
    if getattr(wl, "enclosure_only_diffs", 0):
        print(
            "bench: %d ops passed with stdout that differs from the recorded bytes "
            "only in root enclosures" % wl.enclosure_only_diffs,
            file=sys.stderr,
        )

    lat = sorted(dt for dt, _, _ in measured)
    n = len(lat)
    busy = sum(lat)
    tail_at = max(n - 11, 0)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_roundtrip" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    print(
        "bench: %s seed %d: %d ops in %.2f s of op time (closed loop, 1 client); "
        "op_tail_ms is p%.2f with %d samples beyond it; failed %d of %d"
        % (wl.name, seed, n, busy, 100.0 * (tail_at + 1) / n, n - 1 - tail_at, failed, attempted),
        file=sys.stderr,
    )
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(good / busy, "1/s"),
        "op_p50_ms": _metric(statistics.median(lat) * 1000.0, "ms"),
        "op_tail_ms": _metric(lat[tail_at] * 1000.0, "ms"),
        "blocks_per_s": _metric(blocks / busy, "1/s"),
        "peak_rss_mb": _metric(rss_mb, "MiB"),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# per-layer metrics: (name, unit, better, value from (tracer, extras))
DECISIONS = ("scalars.floor_exact", "scalars.compare", "scalars.AlgebraicScalar.sign")


def _decisions(t):
    """Floor, compare and sign calls not made by another of them."""
    nested = sum(t.pair(a, b) for a in DECISIONS for b in DECISIONS)
    return sum(t.calls(k) for k in DECISIONS) - nested


def _ratio(a, b):
    return a / b if b else 0.0


def _calls(key):
    return lambda t, x: t.calls(key)


def _self_s(key):
    return lambda t, x: t.self_time(key)


def _layer_self_s(layer):
    return lambda t, x: t.layer_self(layer)


def _extra(name):
    return lambda t, x: x[name]


REFINE = "scalars.NumberField.refine_once"

PER_LAYER = (
    ("polynomials.self_s", "s", "lower", _layer_self_s("polynomials")),
    ("polynomials.calls", "count", "lower", lambda t, x: t.layer_calls("polynomials")),
    ("polynomials.div_mod.calls", "count", "lower", _calls("polynomials.div_mod")),
    ("polynomials.gcd.calls", "count", "lower", _calls("polynomials.gcd")),
    ("polynomials.extended_gcd.calls", "count", "lower", _calls("polynomials.extended_gcd")),
    ("polynomials.evaluate_interval.calls", "count", "lower",
     _calls("polynomials.evaluate_interval")),
    ("polynomials.count_roots.calls", "count", "lower", _calls("polynomials.count_roots")),
    ("scalars.self_s", "s", "lower", _layer_self_s("scalars")),
    ("scalars.floor_exact.calls", "count", "lower", _calls("scalars.floor_exact")),
    ("scalars.floor_exact.self_s", "s", "lower", _self_s("scalars.floor_exact")),
    ("scalars.floor_exact.eq_tests", "count", "lower",
     lambda t, x: t.pair("scalars.floor_exact", "scalars.AlgebraicScalar.__eq__")),
    ("scalars.compare.calls", "count", "lower", _calls("scalars.compare")),
    ("scalars.field_div.calls", "count", "lower", _calls("scalars.AlgebraicScalar.__truediv__")),
    ("scalars.refine_once.calls", "count", "lower", _calls(REFINE)),
    ("scalars.refine_per_decision", "ratio", "lower",
     lambda t, x: _ratio(t.calls(REFINE), _decisions(t))),
    ("scalars.enclosure_bits.max", "bits", "lower", _extra("enclosure_bits")),
    ("scalars.coeff_bits.max", "bits", "lower", _extra("coeff_bits")),
    ("cf.self_s", "s", "lower", _layer_self_s("cf")),
    ("cf.jpa_step.calls", "count", "lower", _calls("cf.jpa_step")),
    ("cf.detect_period.calls", "count", "lower", _calls("cf.detect_period")),
    ("cf.detect_period.self_s", "s", "lower", _self_s("cf.detect_period")),
    ("cf.useful_block_ratio", "ratio", "higher",
     lambda t, x: _ratio(x["blocks"], t.calls("cf.jpa_step"))),
    ("cf.recurrence_compares", "count", "lower",
     lambda t, x: t.pair("cf.detect_period", "scalars.compare")),
    ("cf.alloc_peak_kb", "KiB", "lower", _extra("alloc_peak_kb")),
    ("intmat.self_s", "s", "lower", _layer_self_s("intmat")),
    ("intmat.mat_mul.calls", "count", "lower", _calls("intmat.mat_mul")),
    ("intmat.inverse_unimodular.calls", "count", "lower", _calls("intmat.inverse_unimodular")),
    ("intmat.inverse_unimodular.self_s", "s", "lower", _self_s("intmat.inverse_unimodular")),
    ("intmat.hnf.calls", "count", "lower", _calls("intmat.hnf")),
    ("representation.self_s", "s", "lower", _layer_self_s("representation")),
    ("representation.build_representation.s", "s", "lower",
     lambda t, x: t.total_time("representation.build_representation")),
    ("representation.verify.s", "s", "lower",
     lambda t, x: t.total_time("representation.verify")),
    ("representation.common_tail.self_s", "s", "lower",
     _self_s("representation.common_tail")),
    ("bratteli.self_s", "s", "lower", _layer_self_s("bratteli")),
    ("bratteli.tail_equivalent.calls", "count", "lower", _calls("bratteli.tail_equivalent")),
    ("lattices.self_s", "s", "lower", _layer_self_s("lattices")),
    ("lattices.pl_isomorphic.calls", "count", "lower", _calls("lattices.pl_isomorphic")),
    ("cli.interpreter_s", "s", "lower", _extra("interpreter_s")),
    ("cli.import_s", "s", "lower", _extra("import_s")),
    ("cli.main.self_s", "s", "lower", _layer_self_s("cli")),
    ("cli.stdout_bytes", "bytes", "lower", _extra("stdout_bytes")),
    ("trace.overhead_ratio", "ratio", "lower", _extra("overhead_ratio")),
)


class PassTotals:
    """Totals over the ops of one traced-run pass."""

    def __init__(self):
        self.busy = 0.0
        self.ops = self.failed = self.blocks = self.stdout_bytes = 0
        self.enclosure_bits = self.coeff_bits = 0

    def add(self, session, idx, call, tracer=None):
        """Run, record and check one op."""
        dt, rec, (enc, coeff) = session.op(idx, call, tracer)
        ok, blocks = session.check(idx, rec)
        self.busy += dt
        self.ops += 1
        self.failed += not ok
        self.blocks += blocks
        if ok and session.wl.name == "cli_roundtrip":
            self.stdout_bytes += len(rec[1])
        self.enclosure_bits = max(self.enclosure_bits, enc)
        self.coeff_bits = max(self.coeff_bits, coeff)

    def counts(self):
        return {
            "failed": self.failed,
            "blocks": self.blocks,
            "stdout_bytes": self.stdout_bytes,
            "enclosure_bits": self.enclosure_bits,
            "coeff_bits": self.coeff_bits,
        }


def trace_run(workloads, wl, seed):
    import jperron

    inputs = wl.generate(seed)
    order = wl.order(inputs, seed)
    ops = [order[k % len(order)] for k in range(wl.trace_ops)]
    session = Session(wl, inputs)
    call = wl.run_in_process
    warm, untraced, pa, pb = PassTotals(), PassTotals(), PassTotals(), PassTotals()
    for idx in ops[: wl.warmup_ops]:
        warm.add(session, idx, call)

    # Each op runs untraced and then traced, so that both see the same
    # phase of the host's drifting speed; the tracer is installed around
    # the traced run only.
    ta = Tracer(jperron)
    ta.paused = True
    for idx in ops:
        untraced.add(session, idx, call)
        with ta:
            pa.add(session, idx, call, ta)
    tb = Tracer(jperron, alloc_layer="cf")
    tb.paused = True
    tracemalloc.start()
    try:
        with tb:
            for idx in ops:
                pb.add(session, idx, call, tb)
    finally:
        tracemalloc.stop()

    counts = [dict(t.counts(), **p.counts()) for t, p in ((ta, pa), (tb, pb))]
    keys = set(counts[0]) | set(counts[1])
    drift = sorted(k for k in keys if counts[0].get(k) != counts[1].get(k))
    for k in drift:
        print(
            "bench: count drift %s: %s then %s" % (k, counts[0].get(k), counts[1].get(k)),
            file=sys.stderr,
        )

    extras = {
        "blocks": pa.blocks,
        "stdout_bytes": pa.stdout_bytes,
        "enclosure_bits": pa.enclosure_bits,
        "coeff_bits": pa.coeff_bits,
        "alloc_peak_kb": tb.alloc_peak / 1024.0,
        "overhead_ratio": pa.busy / untraced.busy,
        "interpreter_s": 0.0,
        "import_s": 0.0,
    }
    if wl.name == "cli_roundtrip":
        env = workloads.child_env()
        _child_seconds("import jperron.cli", env)
        bare = statistics.median(_child_seconds("pass", env) for _ in range(CLI_PROBE_REPS))
        cold = statistics.median(
            _child_seconds("import jperron.cli", env) for _ in range(CLI_PROBE_REPS)
        )
        extras["interpreter_s"] = bare
        extras["import_s"] = cold - bare

    passes = (warm, untraced, pa, pb)
    failed = sum(p.failed for p in passes)
    session.report_errors()
    print(
        "bench: %s seed %d traced %d ops; overhead %.2fx; %d count drifts"
        % (wl.name, seed, len(ops), extras["overhead_ratio"], len(drift)),
        file=sys.stderr,
    )
    metrics = {name: _metric(fn(ta, extras), unit) for name, unit, _, fn in PER_LAYER}
    return {
        "correct": failed == 0 and not drift,
        "attempted": sum(p.ops for p in passes),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "jperron" / "__init__.py").is_file():
        print("bench: no jperron sources at %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.record_golden:
        workloads.record_golden()
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]()
    if args.trace:
        result = trace_run(workloads, wl, args.seed)
    else:
        result = timed_run(workloads, wl, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
