"""Repeat benchmark runs over seeds and summarize each end-to-end metric.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10]
                                 [--out perfbench/baseline.json]

For each workload, runs ``run.py`` once per seed, with tracing off, for
BENCHMARK.json's ``run_seconds`` (one process at a time), and reports the
median and spread of each metric and of each named figure in the report:
the spread is the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.
With --out, writes the summary and the runs' environment stamp to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# report lines ("name value unit ...") summarized alongside the gated metrics
REPORTED = ("anneal_p50_s", "oracle_p50_s", "objective_gap", "sweep_points_per_s",
            "cli_p50_ms", "cli_tail_ms", "op_p50_raw_ms", "op_tail_norm_ms", "failed_ratio",
            "host_factor")


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary, env = {}, None
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        reported: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            if not result["correct"]:
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for line in lines:
                name, _, rest = line.partition(" ")
                if name in REPORTED:
                    reported.setdefault(name, []).append(float(rest.split()[0]))
        summary[workload] = {}
        for name, vals in [*values.items(), *reported.items()]:
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else None  # None: median is 0
            bound = bounds.get(name)
            summary[workload][name] = {"median": median, "spread": spread,
                                       "bound": bound, "runs": len(vals)}
            flag = "" if bound is None or spread is None else (
                f" (bound {bound}{'' if spread < bound / 3 else ', above a third of it'})")
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"  {workload} {name}: median {median:.6g} spread {shown}{flag}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps({"env": env, "seeds": args.seeds,
                                        "seconds": spec["run_seconds"],
                                        "workloads": summary}, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
