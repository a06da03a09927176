"""citydist benchmark: one workload per run, or a smoke pass over all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Gated timings are scaled to a reference
host speed (see hostclock.py).  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it alternates
untraced and traced rounds of the same workload (their difference is the
tracing overhead), prints per-layer self times from the traced rounds and
reports the per-layer probe metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Metric definitions
and the workloads' rationale are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import HostClock, pin_to_one_cpu

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest nearest-rank integer percentile with >= 10 samples beyond it.

    Below 20 samples that percentile would not reach the median, so the
    maximum is returned instead and the label says so.
    """
    n = len(samples)
    s = sorted(samples)
    if n < 20:
        return s[-1], f"max of {n} samples (fewer than 20)"
    p = math.floor(100 * (n - 10) / n)
    return s[math.ceil(p * n / 100) - 1], f"p{p} of {n} samples"


def env_stamp(nproc: int) -> dict:
    import numpy
    import yaml
    try:
        # the ceiling keeps git from searching directories above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, capture_output=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "yaml_with_libyaml": bool(yaml.__with_libyaml__),
        "git_commit": commit or "unknown",
    }


def peak_rss_mb(ops: list) -> float:
    """Peak RSS of the largest CLI child among the ops, else of this process."""
    children = [o.detail["rss_mb"] for o in ops if o.kind == "cli"]
    if children:
        return max(children)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_rounds(round_fn, state, seconds: float, tracer, clock):
    """Whole rounds until `seconds` have passed, as two lists of rounds (each
    a list of ops), untraced and traced.  With a tracer, rounds alternate
    untraced / traced, and at least one of each runs."""
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(untraced)
        if use_tracer:
            tracer.install()
            try:
                traced.append(round_fn(state, tracer, clock))
            finally:
                tracer.restore()
        else:
            untraced.append(round_fn(state, None, clock))
        done = time.perf_counter() - t0 >= seconds
        if done and (tracer is None or traced):
            return untraced, traced


def flat(rounds: list[list]) -> list:
    return [op for ops in rounds for op in ops]


def headline_samples(workload: str, rounds: list[list]) -> tuple[list, list]:
    """The gated operation's samples in ms, raw and scaled by host factor.

    sensitivity: one sample per round, the round's time per point, so every
    sweep weighs by its number of points.  vehicle_choice: each headline
    anneal.  cold_cli: each invocation.
    """
    if workload == "sensitivity":
        return ([sum(o.seconds for o in r) / sum(o.work for o in r) * 1e3
                 for r in rounds],
                [sum(o.seconds / o.factor for o in r) / sum(o.work for o in r) * 1e3
                 for r in rounds])
    ops = [o for o in flat(rounds)
           if o.kind == "cli" or o.detail.get("instance") == "headline"]
    return [o.seconds * 1e3 for o in ops], [o.seconds / o.factor * 1e3 for o in ops]


def summarize(workload: str, rounds: list[list]) -> tuple[dict, list[str]]:
    """End-to-end metrics (name -> (value, unit)) and the named report lines."""
    ops = flat(rounds)
    raw_ms, head_ms = headline_samples(workload, rounds)
    p50 = statistics.median(head_ms)
    tail_value, tail_label = tail(head_ms)
    raw_p50 = statistics.median(raw_ms)
    raw_tail, _ = tail(raw_ms)
    if workload == "vehicle_choice":
        anneals = [o.seconds for o in ops if o.kind == "anneal"]
        oracles = [o.seconds for o in ops if o.kind == "oracle"]
        gap = max(o.detail["gap"] for o in ops if o.kind == "anneal")
        per_instance = ", ".join(
            f"{name} {statistics.median(times):.4f} s over {len(times)}"
            for name in ("headline", "generated")
            for times in [[o.seconds for o in ops if o.detail.get("instance") == name]])
        lines = [
            f"anneal_p50_s {statistics.median(anneals):.6f} s (n={len(anneals)} "
            f"simulated_annealing calls; median per instance: {per_instance})",
            f"oracle_p50_s {statistics.median(oracles):.6f} s "
            f"(n={len(oracles)} brute_force_grid calls)",
            f"objective_gap {gap:.3e} ratio (worst objective/reference - 1 "
            f"over {len(anneals)} solves; check <= 0.02)",
        ]
    elif workload == "sensitivity":
        points = sum(o.work for o in ops)
        rate = points / sum(o.seconds for o in ops)
        lines = [f"sweep_points_per_s {rate:.3f} 1/s ({points} points in {len(ops)} "
                 f"sweep_parameter calls, {len(rounds)} rounds of "
                 f"{points // len(rounds)} points)"]
    else:
        lines = [f"cli_p50_ms {raw_p50:.3f} ms (n={len(raw_ms)} invocations)",
                 f"cli_tail_ms {raw_tail:.3f} ms ({tail_label})"]
    factors = [o.factor for o in ops]
    lines += [
        f"op_p50_raw_ms {raw_p50:.6f} ms (n={len(raw_ms)}; not scaled, not gated)",
        f"op_tail_norm_ms {tail_value:.6f} ms ({tail_label}; reported, not gated)",
        f"host_factor {statistics.median(factors):.4f} ratio (median over "
        f"{len(factors)} operations, range {min(factors):.3f}..{max(factors):.3f}; "
        f"control time over its quiet-host time, higher is a slower host)",
    ]
    return {"op_p50_norm_ms": (p50, "ms")}, lines


def layer_lines(tracer, traced_ops: int) -> list[str]:
    lines = []
    for layer, agg in tracer.layer_totals().items():
        if agg["spans"] == 0:
            lines.append(f"layer {layer}: unmeasured (no spans)")
            continue
        lines.append(
            f"layer {layer}: spans={agg['spans']} self_ms_per_op="
            f"{agg['self_s'] / traced_ops * 1e3:.4f} total_ms_per_op="
            f"{agg['total_s'] / traced_ops * 1e3:.4f} failed_spans={agg['errors']}")
    for name in sorted(tracer.stats):
        count, total, self_s, errors = tracer.stats[name]
        lines.append(f"  span {name}: n={count} self_us_per_call="
                     f"{self_s / count * 1e6:.3f} total_us_per_call="
                     f"{total / count * 1e6:.3f} failed={errors}")
    return lines


def import_workloads() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: F401  (timed: imports citydist and numpy)


def run_workload(args) -> int:
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    clock = HostClock(child=args.workload == "cold_cli")
    clock.start()
    try:
        return measure(args, clock, nproc, cpu)
    finally:
        clock.stop()


def measure(args, clock: HostClock, nproc: int, cpu: int) -> int:
    _, import_s, import_factor = clock.timed(import_workloads)
    from tracing import Tracer
    from workloads import LAYER_METRICS, OUT_DIR, WORKLOADS

    setup_fn, round_fn = WORKLOADS[args.workload]
    env = env_stamp(nproc)
    env["pinned_cpu"] = cpu
    setups = [clock.timed(setup_fn, args.seed, args.smoke) for _ in range(5)]
    state = setups[-1][0]
    setup_raw = import_s + statistics.median(s for _, s, _ in setups)
    setup_s = import_s / import_factor + statistics.median(s / f for _, s, f in setups)

    tracer = Tracer() if args.trace else None
    untraced, traced = run_rounds(round_fn, state, args.seconds, tracer, clock)
    clock.stop()
    ops = flat(untraced) + flat(traced)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    e2e, lines = summarize(args.workload, untraced)
    e2e["setup_s"] = (setup_s, "s")
    e2e["peak_rss_mb"] = (peak_rss_mb(flat(untraced)), "MB")
    lines += [f"setup_s {setup_s:.6f} s (scaled by host factor: import + median of "
              f"{len(setups)} set-ups; raw {setup_raw:.4f} s; import {import_s:.4f} s "
              f"at host factor {import_factor:.3f}, set-ups " + ", ".join(
                  f"{s:.4f} s at {f:.3f}" for _, s, f in setups) + ")",
              f"peak_rss_mb {e2e['peak_rss_mb'][0]:.3f} MB"]
    for name, (value, unit) in e2e.items():
        lines.append(f"metric {name} {value:.6f} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from probes import run_probes
        base = e2e["op_p50_norm_ms"][0]
        with_trace = statistics.median(headline_samples(args.workload, traced)[1])
        overhead = (with_trace - base) / base * 100.0
        lines.append(f"tracing overhead: op_p50_norm_ms traced {with_trace:.4f} - untraced "
                     f"{base:.4f} = {with_trace - base:.4f} ms ({overhead:+.2f}%)")
        lines += layer_lines(tracer, len(flat(traced)))
        tracer.dump(OUT_DIR / f"spans-{stem}.json")
        metrics = run_probes(args.seed, args.smoke)
        for name, (layer_fn, small_round) in LAYER_METRICS.items():
            if name == args.workload:
                metrics.update(layer_fn(flat(untraced), flat(traced), tracer))
                continue
            # one untraced and one traced round of a smaller version of the
            # workload whose rounds produce these metrics
            own_tracer = Tracer()
            more_untraced, more_traced = run_rounds(
                small_round, WORKLOADS[name][0](args.seed, args.smoke), 0, own_tracer,
                HostClock(child=False))
            ops += flat(more_untraced) + flat(more_traced)
            metrics.update(layer_fn(flat(more_untraced), flat(more_traced), own_tracer))
        metrics["trace.overhead_pct"] = (overhead, "%")
        for name, (value, unit) in metrics.items():
            lines.append(f"layer-metric {name} {value} {unit}")
    else:
        metrics = e2e
    failed = sum(not o.ok for o in ops)
    lines.append(f"failed_ratio {failed / len(ops):.6f} ratio ({failed}/{len(ops)} "
                 f"operations failed their check)")

    for line in lines:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "report": lines, **result,
                   "ops": [[o.kind, o.seconds, o.factor, o.work, o.ok, o.detail]
                           for o in ops]}, fh)
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Each workload at minimal size, untraced and traced.  Prints the
    end-to-end metrics of each workload by name and asserts that every metric
    BENCHMARK.json names is emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    named = {"vehicle_choice": ("anneal_p50_s", "oracle_p50_s", "objective_gap"),
             "sensitivity": ("sweep_points_per_s",),
             "cold_cli": ("cli_p50_ms", "cli_tail_ms")}
    problems = []
    for workload in named:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            out = proc.stdout.splitlines()
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0 or not out:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(out[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics {got} != {expected[trace]}")
            if not result["correct"]:
                problems.append(f"{tag}: checks failed")
            if trace == 0:
                for name in (*named[workload], "setup_s", "peak_rss_mb", "failed_ratio"):
                    printed = [line for line in out if line.startswith(f"{name} ")]
                    if not printed:
                        problems.append(f"{tag}: '{name}' not printed")
                    print(f"{workload}: " + "".join(printed))
            print(f"smoke {tag}: {len(got)} metrics, correct={result['correct']}")
    for p in problems:
        print("SMOKE FAILURE " + p)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("vehicle_choice", "sensitivity",
                                               "cold_cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal size; without --workload, check all workloads")
    args = parser.parse_args()
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required")
        return smoke()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
