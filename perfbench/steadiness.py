"""Steadiness self-check of the benchmark, and its smoke mode.

    python3 perfbench/steadiness.py --runs 10            # two sets of 10 runs per workload
    python3 perfbench/steadiness.py --runs 5 --workloads lateral-newton
    python3 perfbench/steadiness.py --smoke              # every workload's gate, one run each

Every run is ``perfbench/run.py --trace 0`` of ``run_seconds`` with its own
seed.  For each of the two sets, workload and end-to-end metric it reports
the median and the spread, the distance between the first and third quartile
(``statistics.quantiles(v, n=4)``) over the median.  It then checks the
bounds of ``BENCHMARK.json``: each spread within its bound (and below a third
of it, the target), and the second set's median within the bound of the
first's, on either side.  The report goes to
``perfbench/_runs/steadiness.json``; the exit code is 1 when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every workload of catalogue.json, at the seeds where the gates also compare
# against pinned values.
SMOKE_SEEDS = {"column-decay": 2024, "slab-convection": 7, "lateral-newton": 1, "column-hydrostatic": 1}
SETS = 2


def invoke(workload, seed, extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), *extra]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1]), elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def smoke(names):
    ok = True
    for name in names:
        result, elapsed = invoke(name, SMOKE_SEEDS[name], ["--smoke"])
        ok &= result["correct"]
        print(f"{name:<20} seed {SMOKE_SEEDS[name]:<5} correct={result['correct']} ({elapsed:.1f} s)")
    return ok


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    if args.smoke:
        return 0 if smoke(SMOKE_SEEDS) else 1

    runs = {name: [[] for _ in range(SETS)] for name in chosen}
    for k in range(SETS):
        for i in range(args.runs):
            seed = args.first_seed + k * args.runs + i
            for name in chosen:  # round robin, so slow spells of the host hit every workload
                result, elapsed = invoke(name, seed, ["--seconds", str(spec["run_seconds"]), "--trace", "0"])
                result.update(seed=seed, elapsed_s=elapsed)
                runs[name][k].append(result)
                values = " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
                print(f"set {k} {name:<20} seed {seed:<4} {elapsed:5.1f} s "
                      f"{result['attempted']} reps, {result['failed']} failed  {values}", flush=True)

    ok = True
    report = {"runs": runs, "checks": []}
    print(f"\n{'workload':<20} {'metric':<12} {'set':>3} {'median':>10} {'spread':>7} {'bound':>6} "
          f"{'drift':>7}  verdict")
    for name in chosen:
        failed = sum(r["failed"] for s in runs[name] for r in s)
        ok &= failed == 0
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            first = None
            for k, results in enumerate(runs[name]):
                values = [r["metrics"][m]["value"] for r in results]
                med, spr = statistics.median(values), spread(values)
                first = med if first is None else first
                drift = med / first - 1.0
                verdict = []
                if spr > bound:
                    verdict.append("SPREAD>BOUND")
                elif spr > bound / 3:
                    verdict.append("spread>bound/3")
                if abs(drift) > bound:
                    verdict.append("DRIFT>BOUND")
                ok &= not any(v.isupper() for v in verdict)
                report["checks"].append({"workload": name, "metric": m, "set": k, "median": med,
                                         "spread": spr, "bound": bound, "drift": drift, "verdict": verdict})
                print(f"{name:<20} {m:<12} {k:>3} {med:>10.4g} {spr:>7.3f} {bound:>6.2f} {drift:>+7.3f}  "
                      f"{' '.join(verdict) or 'ok'}")
        print(f"{name:<20} failed repetitions: {failed}; run time "
              f"max {max(r['elapsed_s'] for s in runs[name] for r in s):.1f} s")
    (HERE / "_runs").mkdir(exist_ok=True)
    (HERE / "_runs" / "steadiness.json").write_text(json.dumps(report, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
