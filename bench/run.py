"""Benchmark of threshold-lab's three user-facing commands.

    python3 bench/run.py --workload certify-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the engine is imported from
``src/`` and nowhere else.  Each workload is a closed loop: one client in
one process sends the next op when the last one returns.  The process is
pinned to one CPU.  A run is a sequence of whole passes, each made of the
workload's fixed inputs and a part of one seeded bulk (the parts in turn),
in a seeded order, while another pass still fits in ``--seconds``.  Every
op's time is adjusted for the host's speed at that moment (``hostspeed.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each pass
twice, untraced and then traced, checks that both give the same outputs,
and reports the per-layer metrics of the traced passes, per pass.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  ``failed`` counts ops that raised an unexpected error or returned
a wrong output; timeouts and budget refusals are expected outcomes and are
counted in ``ok_share`` instead.  Any wrong output makes the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import stats
from hostspeed import HostSpeed
from limit import guarded, install
from tracing import Tracer
from workloads import RULE_IDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
WARMUP_OPS = 10
MAX_ORACLE_LEVEL = 8  # the deepest level any workload asks for (p = 2)
MODULES = ("cli", "certify", "poly", "fpt", "exact", "digits", "verify")
# Printed in the report but not declared in BENCHMARK.json, whose bounds
# cannot exceed 0.25: one op's time on a shared host varies more than that.
# The raw_ figures are the same as their namesakes before the host-speed
# adjustment, and ref_call_ms is the run's median reference call.
REPORT_ONLY = {"latency_max_ms": "ms", "raw_ops_per_s": "1/s",
               "raw_latency_p50_ms": "ms", "ref_call_ms": "ms"}


def load_engine() -> SimpleNamespace:
    """Import the engine's modules from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "threshold_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no engine source under {src}")
    sys.path.insert(0, str(src))
    eng = SimpleNamespace(
        **{m: importlib.import_module(f"threshold_lab.{m}") for m in MODULES}
    )
    if not Path(eng.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: threshold_lab was imported from {eng.cli.__file__}")
    return eng


def is_refusal(eng, ex: BaseException) -> bool:
    """A budget refusal: ResourceGuardError, or a ValueError naming the budget."""
    return isinstance(ex, eng.fpt.ResourceGuardError) or (
        isinstance(ex, ValueError) and "budget" in str(ex)
    )


class Run:
    """Op outcomes and output checks of one workload run."""

    def __init__(self, eng, wl, seed: int, speed: HostSpeed) -> None:
        self.eng = eng
        self.wl = wl
        self.seed = seed
        self.speed = speed
        self.fixed = wl.fixed()
        self.bulk = wl.bulk(random.Random(f"{seed}:0"))
        self.times: dict = {}  # input -> (start, seconds) of each answered or timed-out op
        self.busy: list[tuple[float, float]] = []  # (start, seconds) of every op
        self.outputs: dict = {}  # input -> its first answer
        self.attempted = self.answered = self.timeouts = self.refused = 0
        self.overshoot_s = 0.0
        self.problems: list[str] = []

    def inputs(self, k: int) -> list:
        """Pass k: the fixed inputs and part k of the seeded bulk, in a seeded order."""
        parts = self.wl.bulk_parts
        batch = self.fixed + self.bulk[k % parts::parts]
        random.Random(f"{self.seed}:{k}").shuffle(batch)
        return batch

    def op(self, inp) -> None:
        self.speed.tick()
        self.attempted += 1
        start = time.perf_counter()
        try:
            out, elapsed, timed_out = guarded(lambda: self.wl.run(inp), self.wl.limit_s)
        except Exception as ex:  # noqa: BLE001 - a refusal, or else a wrong output
            self.busy.append((start, time.perf_counter() - start))
            if is_refusal(self.eng, ex):
                self.refused += 1
            else:
                self.problems.append(f"{inp.src} (p={inp.p}): {type(ex).__name__}: {ex}")
            return
        self.busy.append((start, elapsed))
        self.times.setdefault(inp, []).append((start, elapsed))
        if timed_out:
            self.timeouts += 1
            self.overshoot_s = max(self.overshoot_s, elapsed - self.wl.limit_s)
            return
        self.answered += 1
        ref = self.outputs.get(inp)
        if ref is None:
            problem = self.wl.check(inp, out)
            if problem:
                self.problems.append(f"{inp.src} (p={inp.p}): {problem}")
            self.outputs[inp] = out
        elif out != ref:
            self.problems.append(f"{inp.src} (p={inp.p}): output differs from an earlier op")

    def run_pass(self, batch: list, tracer: Tracer | None = None) -> float:
        start = time.perf_counter()
        for n, inp in enumerate(batch):
            if tracer is None:
                self.op(inp)
            else:
                tracer.begin_op(n)
                try:
                    self.op(inp)
                finally:
                    tracer.end_op()
        return time.perf_counter() - start

    def adjusted(self, start: float, seconds: float) -> float:
        return seconds * self.speed.scale(start + seconds / 2)

    def end_to_end(self, setup_s: float) -> tuple[dict[str, float], str]:
        """The end-to-end metrics, and a note naming the tail's percentile.

        Each input's latency is the median of its ops' adjusted times;
        throughput is answered ops over adjusted op time.
        """
        lat = [statistics.median(self.adjusted(*op) for op in ops)
               for ops in self.times.values()]
        tail, pct, beyond = stats.tail(lat)
        raw_p50 = statistics.median(
            statistics.median(t for _, t in ops) for ops in self.times.values()
        )
        return {
            "setup_s": setup_s,
            "ops_per_s": self.answered / sum(self.adjusted(*op) for op in self.busy),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_tail_ms": 1e3 * tail,
            "latency_max_ms": 1e3 * max(lat),
            "ok_share": self.answered / self.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "raw_ops_per_s": self.answered / sum(t for _, t in self.busy),
            "raw_latency_p50_ms": 1e3 * raw_p50,
            "ref_call_ms": 1e3 * statistics.median(self.speed.took),
        }, f"tail p{pct:.2f} with {beyond} of {len(lat)} inputs beyond"


IMPORT_PROBE = (
    "import importlib, sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "[importlib.import_module('threshold_lab.' + m) for m in sys.argv[2:]]; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import the engine in a fresh interpreter."""
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), *MODULES]
    return float(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)


def setup(eng, wl_cls, seed: int, speed: HostSpeed) -> tuple:
    """Import, input generation and warm-up, each the median of SETUP_REPEATS.

    The warm-up runs the same inputs for every seed.  Reference calls
    between the repetitions adjust each one for host speed.
    """
    imports, samples = [], []
    speed.sample()
    for _ in range(SETUP_REPEATS):
        imports.append((time.perf_counter(), import_seconds()))
        speed.sample()
        start = time.perf_counter()
        wl = wl_cls(eng)
        wl.fixed()
        wl.bulk(random.Random(f"{seed}:0"))
        for inp in wl.bulk(random.Random("warm-up"))[:WARMUP_OPS]:
            try:
                guarded(lambda: wl.run(inp), wl.limit_s)
            except Exception:  # noqa: BLE001 - the timed passes report every failure
                pass
        samples.append((start, time.perf_counter() - start))
        speed.sample()
    return wl, sum(
        statistics.median(t * speed.scale(s + t / 2) for s, t in timed)
        for timed in (imports, samples)
    )


# --------------------------------------------------------------------------
# Per-layer tracing.

RULE_FUNCS = {
    "known_values": "known_values_registry",
    "threshold_cap": "rule_threshold_cap",
    **{r: f"rule_{r}" for r in RULE_IDS if r not in ("known_values", "threshold_cap")},
}


def _counter(name: str, value):
    def observe(tracer, args, kwargs, result, exc):
        if exc is None:
            tracer.counts[name] += value(result)
    return observe


def make_tracer(eng) -> Tracer:
    """Spans and counters at the layer boundaries, wrapped where each is called."""
    tr = Tracer()

    def observe_nu(tracer, args, kwargs, result, exc):
        if exc is None:
            tracer.counts["fpt.frobenius_nu.mults"] += result
        elif is_refusal(eng, exc):
            tracer.counts["fpt.frobenius_nu.refused"] += 1

    tr.span(eng.cli, "parse_poly", "cli.parse_poly")
    tr.span(eng.certify, "certify", "certify.certify")
    for rule, fn in RULE_FUNCS.items():
        name = f"certify.rule.{rule}"
        tr.span(eng.certify, fn, name, _counter(f"{name}.fired", lambda r: r is not None))
    tr.span(eng.certify, "pow_mixed", "poly.pow_mixed",
            _counter("poly.pow_mixed.terms_out", lambda r: len(r.terms)))
    tr.span(eng.certify, "weighted_membership", "poly.weighted_membership",
            _counter("poly.weighted_membership.contained", bool))
    for mod in (eng.certify, eng.poly):
        tr.span(mod, "reduce_mod_pi", "poly.reduce_mod_pi")
    tr.span(eng.fpt, "frobenius_nu",
            lambda args, kwargs: f"fpt.frobenius_nu.level_{args[1]}", observe_nu)
    tr.span(eng.certify, "fpt_diagonal", "fpt.fpt_diagonal")
    for mod in (eng.certify, eng.fpt):
        tr.span(mod, "compute_L", "fpt.compute_L")
    tr.span(eng.fpt, "expand_base_p", "exact.expand_base_p")
    for mod in (eng.poly, eng.certify):
        tr.span(mod, "padic_valuation", "digits.padic_valuation")
    for mod in (eng.exact, eng.digits, eng.poly, eng.fpt, eng.certify):
        tr.count(mod, "require_prime", "exact.require_prime.calls")
    return tr


def per_layer(tr: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans and counters, per traced pass."""
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    longest: dict[str, float] = {}
    self_s = stats.self_times(tr.starts, tr.ends, tr.parents)
    for nid, start, end, s in zip(tr.name_ids, tr.starts, tr.ends, self_s):
        name = tr.names[nid]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + s
        longest[name] = max(longest.get(name, 0.0), end - start)
    counts = tr.counts
    levels = [n for n in tr.names if n.startswith("fpt.frobenius_nu.level_")]

    def n(name: str) -> float:
        return calls.get(name, 0) / passes

    def ms(*names: str) -> float:
        return 1e3 * sum(own.get(x, 0.0) for x in names) / passes

    m = {"cli.parse_poly.self_ms": ms("cli.parse_poly"),
         "certify.certify.self_ms": ms("certify.certify")}
    for rule in RULE_IDS:
        m[f"certify.rule.{rule}.self_ms"] = ms(f"certify.rule.{rule}")
        m[f"certify.rule.{rule}.fired"] = counts[f"certify.rule.{rule}.fired"] / passes
    pm, wm = "poly.pow_mixed", "poly.weighted_membership"
    m.update({
        f"{pm}.calls": n(pm),
        f"{pm}.self_ms": ms(pm),
        f"{pm}.max_ms": 1e3 * longest.get(pm, 0.0),
        f"{pm}.terms_out": counts[f"{pm}.terms_out"] / passes,
        f"{wm}.calls": n(wm),
        f"{wm}.self_ms": ms(wm),
        f"{wm}.useful_ratio": counts[f"{wm}.contained"] / calls[wm] if calls.get(wm) else 0.0,
        "poly.reduce_mod_pi.self_ms": ms("poly.reduce_mod_pi"),
        "fpt.frobenius_nu.calls": sum((n(x) for x in levels), 0.0),
        "fpt.frobenius_nu.self_ms": ms(*levels),
    })
    for e in range(1, MAX_ORACLE_LEVEL + 1):
        m[f"fpt.frobenius_nu.level_{e}.self_ms"] = ms(f"fpt.frobenius_nu.level_{e}")
    m.update({
        "fpt.frobenius_nu.mults": counts["fpt.frobenius_nu.mults"] / passes,
        "fpt.frobenius_nu.refused": counts["fpt.frobenius_nu.refused"] / passes,
        "fpt.fpt_diagonal.self_ms": ms("fpt.fpt_diagonal"),
        "fpt.compute_L.self_ms": ms("fpt.compute_L"),
        "exact.expand_base_p.calls": n("exact.expand_base_p"),
        "exact.expand_base_p.self_ms": ms("exact.expand_base_p"),
        "exact.require_prime.calls": counts["exact.require_prime.calls"] / passes,
        "digits.padic_valuation.calls": n("digits.padic_valuation"),
        "digits.padic_valuation.self_ms": ms("digits.padic_valuation"),
    })
    return m


def traced_passes(eng, run: Run, seconds: float) -> tuple[dict[str, float], str]:
    """Each pass untraced, then traced on the same inputs, while a pair fits."""
    tracer = make_tracer(eng)
    plain_walls, traced_walls = [], []
    timeouts = 0
    overshoot = 0.0
    start = time.perf_counter()
    while True:
        batch = run.inputs(len(traced_walls))
        plain_walls.append(run.run_pass(batch))
        before, run.overshoot_s = run.timeouts, 0.0
        tracer.install()
        try:
            traced_walls.append(run.run_pass(batch, tracer))
        finally:
            tracer.restore()
        timeouts += run.timeouts - before
        overshoot = max(overshoot, run.overshoot_s)
        pair = plain_walls[-1] + traced_walls[-1]
        if time.perf_counter() - start + pair > seconds:
            break
    passes = len(traced_walls)
    metrics = per_layer(tracer, passes)
    metrics["bench.timeouts"] = timeouts / passes
    metrics["bench.limit_overshoot_ms"] = 1e3 * overshoot
    metrics["trace.overhead_share"] = sum(traced_walls) / sum(plain_walls) - 1
    if run.wl.name == "certify-sweep":
        silent = [r for r in RULE_IDS if not metrics[f"certify.rule.{r}.fired"]]
        if silent:
            run.problems.append(f"rules that never fired under tracing: {silent}")
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{run.wl.name}-{run.seed}.tsv"
    tracer.write(spans_file)
    return metrics, f"{passes} traced passes, {len(tracer)} spans in {spans_file.relative_to(ROOT)}"


def timed_passes(run: Run, seconds: float) -> int:
    """Whole passes while another one still fits in `seconds`; returns the count."""
    start = time.perf_counter()
    k = 0
    while True:
        wall = run.run_pass(run.inputs(k))
        k += 1
        if time.perf_counter() - start + wall > seconds:
            return k


def declared(trace: int) -> dict[str, str]:
    """The metrics BENCHMARK.json declares for this mode, with their units."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # One core, the same in every run, so that runs do not differ by which
    # core the scheduler picks; on a shared host the cores' speeds differ.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    eng = load_engine()
    units = declared(args.trace)
    install()
    speed = HostSpeed()
    wl, setup_s = setup(eng, WORKLOADS[args.workload], args.seed, speed)
    run = Run(eng, wl, args.seed, speed)
    if args.trace:
        metrics, note = traced_passes(eng, run, args.seconds)
    else:
        passes = timed_passes(run, args.seconds)
        metrics, note = run.end_to_end(setup_s)
        note = f"{passes} passes, {note}"
    missing = units.keys() - metrics.keys()
    if missing:
        raise SystemExit(f"error: BENCHMARK.json declares unmeasured metrics {sorted(missing)}")
    run.problems.extend(wl.finish(run.outputs))

    wrong = len(run.problems)
    print(f"workload {wl.name} ({wl.op_name}), seed {args.seed}, {run.attempted} ops, "
          f"limit {wl.limit_s} s/op, {note}")
    for name, value in metrics.items():
        print(f"  {name:42} {value:14.4f} {units.get(name, REPORT_ONLY.get(name))}")
    failed_share = (run.timeouts + run.refused) / run.attempted
    print(f"  {'failed_share':42} {failed_share:14.4f} share ({run.timeouts} timed out, "
          f"{run.refused} refused; overshoot {1e3 * run.overshoot_s:.2f} ms)")
    print(f"  {'wrong_outputs':42} {wrong:14d} count")
    for problem in run.problems[:20]:
        print(f"  WRONG {problem}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": run.attempted,
        "failed": wrong,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
