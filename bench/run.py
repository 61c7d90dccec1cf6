"""The propalg benchmark: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload decide-stream --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1    # each workload in a fresh interpreter
    python3 bench/run.py --smoke                     # every workload, 1 s, untraced and traced

A single closed-loop client sends the next request only after the previous
one returned.  Inputs are generated from the seed outside the timed region.
After the timed phase the outputs are checked against independent
references.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Times are in reference
seconds (see HostSpeed).  Exit status 1 means a request raised or an output
check failed, 2 a usage or environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
# Host speed.  Times are reported in reference seconds: measured seconds
# times REFERENCE_S over the mean time of reference() in the same phase of
# the same run, sampled between requests every CALIBRATE_EVERY_S.  See
# README.md, "Host speed".
REFERENCE_S = 0.001
CALIBRATE_EVERY_S = 0.05

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "syntax.busy_s": "s",
    "syntax.calls": "count",
    "terms.conds_live": "count",
    "congruence.busy_s": "s",
    "congruence.calls": "count",
    "congruence.out_nodes": "count",
    "congruence.memo_hit_ratio": "ratio",
    "sat.busy_s": "s",
    "sat.calls": "count",
    "sat.witness_s": "s",
    "oracle.busy_s": "s",
    "oracle.calls": "count",
    "oracle.congruent_ratio": "ratio",
    "oracle.budget_exceeded": "count",
    "valuation.busy_s": "s",
    "valuation.calls": "count",
    "projective.busy_s": "s",
    "projective.calls": "count",
    "projective.diverged_ratio": "ratio",
    "transform.busy_s": "s",
    "transform.calls": "count",
    "transform.spec_equations": "count",
    "expressive.busy_s": "s",
    "expressive.calls": "count",
    "expressive.candidates": "count",
    "expressive.found_ratio": "ratio",
    "expressive.apply_memo_hit_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}
# lru_cache tables whose hit ratio is reported, by module.  These are
# internal names of the package; a refactor that renames them updates this.
MEMOS = {
    "congruence.memo_hit_ratio": (
        "congruence",
        ("basic_form", "_combine", "_normalize_rp", "_normalize_cr", "_normalize_wm", "_normalize_mem"),
    ),
    "expressive.apply_memo_hit_ratio": ("expressive", ("_apply",)),
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def clear_caches() -> None:
    """Empty every lru_cache in the package, so each set-up starts cold."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("propalg"):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def reference() -> float:
    """Seconds a fixed piece of pure-Python work takes: 10000 steps of an
    integer loop whose products are allocated and freed as it goes, like
    the package's own objects.  It shares no code with the package, and it
    reuses one freed block at a time, so the state of the package's heap
    hardly enters the reading.  The loop runs twice and the second run is
    timed: the first pays for caches the package's last request left cold."""

    def work() -> int:
        x = 0
        for j in range(10000):
            x += j * j % 7
        return x

    work()
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


class HostSpeed:
    """reference() samples of one phase, taken between requests at most every
    CALIBRATE_EVERY_S.  ``spent`` is the time the samples took, which the
    phase's own timing leaves out."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = -CALIBRATE_EVERY_S

    def tick(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference())
        self.last = time.perf_counter()
        self.spent += self.last - t0

    def scale(self) -> float:
        """Reference seconds per measured second."""
        return REFERENCE_S / statistics.mean(self.samples)


def memo_counts() -> dict[str, tuple[int, int]]:
    out = {}
    for metric, (mod_name, names) in MEMOS.items():
        mod = sys.modules[f"propalg.{mod_name}"]
        infos = [getattr(mod, n).cache_info() for n in names if hasattr(getattr(mod, n, None), "cache_info")]
        out[metric] = (sum(i.hits for i in infos), sum(i.misses for i in infos))
    return out


@dataclass
class Measurement:
    """What the timed phase leaves behind.  Traced runs alternate untraced
    and traced chunks of requests; index 0 of ``timed`` and ``served`` is
    the untraced side.  Timed wall time is the sum of request latencies: the
    client does nothing else while a request is outstanding.  A request that
    raised is not served: its time counts as timed, its latency is not a
    sample."""

    latencies: list = field(default_factory=list)
    done: list = field(default_factory=list)  # (request id, request, digest of the output, traced)
    errors: list = field(default_factory=list)  # (request id, exception)
    timed: list = field(default_factory=lambda: [0.0, 0.0])
    served: list = field(default_factory=lambda: [0, 0])
    # Per-layer figures cover the first ``wl.layer_chunks`` traced chunks only,
    # so they count the same requests however fast the program is.
    layer_ids: set = field(default_factory=set)
    memo: dict = field(default_factory=lambda: {metric: [0, 0] for metric in MEMOS})  # hits, misses
    conds_live: int = 0
    host: HostSpeed = field(default_factory=HostSpeed)
    rss_kb: int | None = None
    generating: float = 0.0


def measure(wl, apis, tracer, seconds: float) -> Measurement:
    """Serve requests until ``seconds`` of them are timed and, untraced, until
    the workload's RSS reading has been taken or, traced, until the chunks
    the per-layer figures cover have been served."""
    import propalg

    m, n, block, layered_chunks = Measurement(), 0, 0, 0
    m.host.tick()

    def finished() -> bool:
        if sum(m.timed) < seconds:
            return False
        return m.rss_kb is not None if tracer is None else layered_chunks >= wl.layer_chunks

    while True:
        traced = tracer is not None and block % 2 == 1
        layered = traced and layered_chunks < wl.layer_chunks
        block += 1
        t0 = time.perf_counter()
        reqs = wl.requests(wl.chunk)
        m.generating += time.perf_counter() - t0
        memo_before = memo_counts() if layered else None
        for req in reqs:
            t0 = time.perf_counter()
            if traced:
                tracer.request = n
                root = tracer.begin("request")
            try:
                out, failure = wl.run(apis[traced], req), None
            except Exception as exc:  # a failed request is counted, not fatal
                failure = exc
            if traced:
                tracer.end(root)
            t1 = time.perf_counter()
            m.timed[traced] += t1 - t0
            if failure is None:
                m.done.append((n, req, wl.digest(req, out), traced))
                m.latencies.append(t1 - t0)
                m.served[traced] += 1
            else:
                m.errors.append((n, failure))
            if layered:
                m.layer_ids.add(n)
            m.host.tick()
            n += 1
            if n == wl.rss_requests:
                m.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if finished():
                break
        if layered:
            for metric, (hits, misses) in memo_counts().items():
                m.memo[metric][0] += hits - memo_before[metric][0]
                m.memo[metric][1] += misses - memo_before[metric][1]
            layered_chunks += 1
            m.conds_live = len(propalg.terms._CONDS)
        if finished():
            return m


def end_to_end(m: Measurement, wl, setup_s: float, setup_host: HostSpeed) -> dict:
    from spans import beyond, percentile

    scale, setup_scale = m.host.scale(), setup_host.scale()
    lat = sorted(m.latencies)
    n = len(lat)
    print(
        "# latency ms (measured): "
        + "  ".join(f"p{q * 100:g} {percentile(lat, q) * 1e3:.4f}" for q in (0.5, 0.9, 0.95, 0.99, 0.999))
        + f"  max {lat[-1] * 1e3:.4f}"
    )
    print(
        f"# measured: throughput {m.served[0] / m.timed[0]:.2f} ops/s, set-up {setup_s:.4f} s; "
        f"host scale {scale:.4f} timed ({len(m.host.samples)} reference samples), "
        f"{setup_scale:.4f} set-up ({len(setup_host.samples)})"
    )
    print(
        f"# latency_tail_ms is p{wl.tail_q * 100:g} of {n} samples ({beyond(n, wl.tail_q)} beyond); "
        f"peak_rss_mb after {wl.rss_requests} requests"
    )
    return {
        "throughput_ops_s": m.served[0] / (m.timed[0] * scale),
        "latency_p50_ms": percentile(lat, 0.5) * scale * 1e3,
        "latency_tail_ms": percentile(lat, wl.tail_q) * scale * 1e3,
        "setup_s": setup_s * setup_scale,
        "peak_rss_mb": m.rss_kb / 1024,
    }


def per_layer(m: Measurement, wl, tracer) -> dict:
    from spans import layer_busy
    from workloads import LAYERS

    values = {metric: 0 if unit == "count" else 0.0 for metric, unit in PER_LAYER.items()}
    busy = layer_busy(tracer.spans, m.layer_ids)
    for layer in LAYERS:
        if layer in busy:
            values[f"{layer}.busy_s"], values[f"{layer}.calls"] = busy[layer]
    values["terms.conds_live"] = m.conds_live
    for metric, (hits, misses) in m.memo.items():
        values[metric] = hits / (hits + misses) if hits + misses else 0.0
    values["oracle.budget_exceeded"] = sum(
        count
        for (span, request, exc), count in tracer.failures.items()
        if span.startswith("oracle.") and exc == "BudgetExceededError" and request in m.layer_ids
    )
    layered = [d[:3] for d in m.done if d[0] in m.layer_ids]
    values.update(wl.counters(layered, [s for s in tracer.spans if s[4] in m.layer_ids]))
    scale = m.host.scale()
    for metric, unit in PER_LAYER.items():
        if unit == "s":
            values[metric] *= scale
    if m.served[1]:
        values["trace.overhead_frac"] = 1 - (m.served[1] / m.timed[1]) / (m.served[0] / m.timed[0])
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"spans-{wl.name}.csv"))
    print(
        f"# per-layer figures over the {len(m.layer_ids)} requests of the first {wl.layer_chunks} traced chunks; "
        f"{m.served[1]} traced requests in {m.timed[1]:.3f} s, {m.served[0]} untraced in {m.timed[0]:.3f} s; "
        f"{len(tracer.spans)} spans written to .bench_out/spans-{wl.name}.csv"
    )
    return values


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import propalg  # noqa: F401  (timed: importing the package is part of set-up)

    import_s = time.perf_counter() - started
    from spans import Tracer
    from workloads import WORKLOADS, make_api

    if name not in WORKLOADS:
        fail(f"unknown workload {name!r} (expected one of {', '.join(WORKLOADS)})")
    raw = make_api()
    reps, host = [], HostSpeed()
    for rep in range(SETUP_REPS):
        clear_caches()
        t0, spent = time.perf_counter(), host.spent
        wl = WORKLOADS[name](seed, rep)
        host.sample()
        wl.warm_up(raw, host.tick)
        host.sample()
        reps.append(time.perf_counter() - t0 - (host.spent - spent))
    setup_s = import_s + statistics.median(reps)

    tracer = Tracer() if trace else None
    m = measure(wl, (raw, make_api(tracer) if trace else raw), tracer, seconds)
    t0 = time.perf_counter()
    checked, wrong = wl.check([d[:3] for d in m.done], random.Random(f"check/{name}/{seed}"))
    checking = time.perf_counter() - t0
    for rid, exc in m.errors[:3]:
        print(f"request {rid} failed:", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)

    n, failed = len(m.latencies) + len(m.errors), len(m.errors) + len(wrong)
    correct = not wrong and not m.errors
    print(f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"# python {platform.python_version()}  nproc {os.cpu_count()}  one process, one thread, closed loop")
    print(f"# set-up (measured): import {import_s:.4f} s + median of {', '.join(f'{r:.4f}' for r in reps)} s")
    print(
        f"# wall: set-up {sum(reps):.2f} s, timed {sum(m.timed):.2f} s, generating {m.generating:.2f} s, "
        f"checking {checking:.2f} s"
    )
    print(
        f"# failed_frac {failed / n:.6f} ratio ({len(m.errors)} raised, {len(wrong)} wrong of {checked} "
        f"outputs checked, {n} attempted)"
    )
    if not m.latencies:
        print("bench: no request was served", file=sys.stderr)
        return 1
    if trace:
        values, units = per_layer(m, wl, tracer), PER_LAYER
    else:
        values, units = end_to_end(m, wl, setup_s, host), END_TO_END
    for metric, value in values.items():
        print(f"{metric} {value} {units[metric]}")
    metrics = {metric: {"value": values[metric], "unit": units[metric]} for metric in units}
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, traces: tuple[int, ...]) -> int:
    """Every workload in a fresh interpreter of its own, one after another."""
    status = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec()["workloads"]:
        for trace in traces:
            cmd = [sys.executable, __file__, "--workload", workload["name"], "--seed", str(seed)]
            cmd += ["--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                status = max(status, proc.returncode)
            if not lines or not lines[-1].startswith("{"):
                status = 2
                continue
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                total["metrics"][f"{workload['name']}.{metric}"] = entry
    print(json.dumps(total))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="a workload named in BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="timed phase length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload for 1 s, untraced and traced")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        fail("refusing to run under python -O: the asserts in the package are part of the measured program")
    if not (SRC / "propalg" / "__init__.py").is_file():
        fail(f"package source not found under {SRC}")
    if args.smoke:
        return run_all(args.seed, 1, (0, 1))
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, (args.trace,))
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
