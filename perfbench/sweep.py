"""Run the benchmark over several workloads and seeds, one process per run.

    python3 perfbench/sweep.py --seeds 1-10                  # all workloads, untraced
    python3 perfbench/sweep.py --workloads holefree-ladder --seeds 1-5 --trace 1
    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/out/sweep.json

Run from the root of a checkout.  For each workload and metric it prints the
median, the quartile spread (distance between the first and third quartile
over the runs, as a share of the median) and, for end-to-end metrics, that
spread as a share of the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import quantiles  # noqa: E402


def machine() -> dict:
    """Python version, CPU count and CPU model, recorded with every sweep."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2]) if len(lines) > 1 else {}
    return result


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="all",
                    help="comma-separated workload names, or all")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run's result to this JSON file")
    args = ap.parse_args(argv)

    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"machine": machine(), "run_seconds": args.seconds, "trace": args.trace,
                    "workloads": {}}
    ok = True
    for workload in names:
        results = []
        for seed in seed_list(args.seeds):
            result = run_once(spec, workload, seed, args.seconds, args.trace)
            results.append(result)
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {}
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':34s} {'unit':>6s} {'median':>12s} {'spread':>8s} {'/bound':>7s}")
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            mid = quantiles.median(values)
            spread = quantiles.quartile_spread(values) if len(values) >= 2 and mid else None
            shown = "-" if spread is None else f"{spread:.4f}"
            share = (f"{spread / bounds[metric]:7.2f}"
                     if metric in bounds and spread is not None else "")
            print(f"  {metric:34s} {first['unit']:>6s} {mid:12.6g} {shown:>8s} {share}")
            summary[metric] = {"unit": first["unit"], "median": mid, "spread": spread,
                               "values": values}
        print()
        report["workloads"][workload] = {"summary": summary, "runs": results}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
