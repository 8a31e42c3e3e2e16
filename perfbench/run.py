"""nsfsim benchmark: drives ``experiment.run_experiment`` on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --smoke

One process runs repetitions in a closed loop (the next starts when the last
has finished) for about ``--seconds`` seconds and checks every repetition's
artefacts with the workload's correctness gate.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; its set-up probes count towards
``--seconds``; ``--trace 1`` spends half the time
untraced, then makes one traced repetition and reports the per-layer
metrics (``experiment.prepare_s`` from the untraced half).  ``--smoke``
makes one untimed repetition and only checks it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine, samples, quartiles, every per-layer metric) goes to
``perfbench/_runs/``.
"""

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
SETUP_PROBES = 5
BLAS_THREADS = 1

# The benchmark's set-up, timed in a fresh interpreter from spawn to exit:
# start Python, import the package, resolve the workload's configuration.
_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]].config(int(sys.argv[4]))"
)


def _quartiles(values):
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads():
    """Thread count reported by each OpenBLAS library loaded in this process."""
    counts = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return counts
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "nsfsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def machine_record(seed):
    import numpy as np
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": blas_version(np), "scipy": blas_version(scipy)},
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


class SimulateStageClock:
    """The one clock read the untraced run makes inside ``run_experiment``:
    when the simulate stage starts, marked by its call to
    ``diagnostics.make_diagnostics``."""

    def __init__(self, diagnostics):
        self._module = diagnostics
        self._original = diagnostics.make_diagnostics
        self.at = None

    def __enter__(self):
        def clocked(*args, **kwargs):
            if self.at is None:
                self.at = time.perf_counter()
            return self._original(*args, **kwargs)

        self._module.make_diagnostics = clocked
        return self

    def __exit__(self, *exc):
        self._module.make_diagnostics = self._original
        return False


def run_once(workload, seed, out_dir, trace=None):
    """One repetition: a fresh output directory, one ``run_experiment``
    call, then the correctness gate on what it wrote.  With a ``trace`` the
    call is traced instead of clocked at the simulate stage."""
    from nsfsim import diagnostics, experiment

    if trace is None:
        clock = SimulateStageClock(diagnostics)
    else:
        import tracer

        clock = tracer.traced_nsfsim(trace)
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    config = workload.config(seed)
    gc.collect()
    rep = {"wall_s": None, "prepare_s": None, "problems": [], "csv_sha256": None}
    start = time.perf_counter()
    try:
        with clock:
            try:
                manifest = experiment.run_experiment(config, output_dir=out_dir)
            finally:
                rep["wall_s"] = time.perf_counter() - start
        if trace is None:
            rep["prepare_s"] = None if clock.at is None else clock.at - start
        rep["problems"] = workload.check(config, manifest, out_dir)
        csv_path = out_dir / f"{config['label']}.csv"
        rep["csv_sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    except Exception:  # a repetition that raises counts as failed; the loop goes on
        rep["problems"].append(traceback.format_exc())
    if trace is None and rep["prepare_s"] is None and not rep["problems"]:
        rep["problems"].append("run_experiment never reached the simulate stage")
    rep["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
    return rep


def prepare_time(rep):
    """Entering ``run_experiment`` to its simulate stage; a repetition that
    failed before that stage counts whole."""
    return rep["wall_s"] if rep["prepare_s"] is None else rep["prepare_s"]


def closed_loop(workload, seed, seconds, out_dir):
    """Repetitions until the next one would end past ``seconds``."""
    reps = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        reps.append(run_once(workload, seed, out_dir))
        reps[-1]["loop_s"] = time.perf_counter() - rep_start
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["loop_s"] for r in reps)
        if elapsed + typical > seconds:
            return reps


def setup_times(workload_name, seed):
    """The probe's wait blocks, so its time is not rounded up to the poll
    interval of a wait with a timeout; a timer kills a probe that hangs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.Popen([sys.executable, "-c", _PROBE, str(SRC), str(HERE), workload_name, str(seed)])
        watchdog = threading.Timer(120, probe.kill)
        watchdog.start()
        code = probe.wait()
        times.append(time.perf_counter() - start)
        watchdog.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, probe.args)
    return times


def mark_csv_mismatches(reps):
    """Every repetition of one invocation must write a byte-identical CSV."""
    hashes = [r["csv_sha256"] for r in reps if r["csv_sha256"] is not None]
    for r in reps:
        if r["csv_sha256"] is not None and r["csv_sha256"] != hashes[0]:
            r["problems"].append("CSV differs from the first repetition's")


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<36} {value:>16.6g} {unit}")


def pin_blas_threads():
    """OpenBLAS reads its thread count when it is loaded, so this runs before
    numpy is imported; the dense Newton solve would otherwise pick its own."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def main(argv=None):
    pin_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one untimed repetition, checked")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "nsfsim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no nsfsim source tree or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds or spec["run_seconds"]
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = RUNS / f"out-{stem}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": seconds, "trace": args.trace}
    record["machine"] = machine_record(args.seed)
    record["config"] = workload.config(args.seed).values

    if args.smoke:
        reps = [run_once(workload, args.seed, out_dir)]
        metrics = {}
    elif args.trace == 0:
        setup = setup_times(args.workload, args.seed)
        reps = closed_loop(workload, args.seed, seconds - sum(setup), out_dir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls = [r["wall_s"] for r in reps]
        samples = {"wall_s": walls, "prepare_s": [prepare_time(r) for r in reps], "setup_s": setup}
        record["quartiles"] = {name: _quartiles(values) for name, values in samples.items()}
        values = {name: q["median"] for name, q in record["quartiles"].items()}
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    else:
        import tracer

        reps = closed_loop(workload, args.seed, seconds / 2.0, out_dir)
        untraced = statistics.median(r["wall_s"] for r in reps)
        prepare = statistics.median(prepare_time(r) for r in reps)
        trace = tracer.Tracer(run_id=stem)
        traced_rep = run_once(workload, args.seed, out_dir, trace=trace)
        reps.append(traced_rep)
        layer = tracer.layer_metrics(trace, traced_rep["bytes_written"])
        layer["trace.overhead_frac"] = layer["trace.wall_s"] / untraced - 1.0
        layer["trace.untraced_wall_s"] = untraced
        layer["experiment.prepare_s"] = prepare
        trace.write(RUNS / f"spans-{stem}.csv")
        record["per_layer"] = layer
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        record["self_s_by_boundary"] = tracer.self_time_by_boundary(trace)
        wall = layer["trace.wall_s"]
        print_table(
            f"{args.workload}: self time by layer, share of the traced wall {wall:.3f} s",
            [(f"{name} {100 * layer[f'{name}.self_s'] / wall:.1f}%", layer[f"{name}.self_s"], "s")
             for name in tracer.LAYERS],
        )
        top = list(record["self_s_by_boundary"].items())[:8]
        print_table("largest self times by boundary", [(f"{n} {100 * s / wall:.1f}%", s, "s") for n, s in top])

    mark_csv_mismatches(reps)
    failed = sum(1 for r in reps if r["problems"])
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}
    record["repetitions"] = reps
    record["result"] = result
    (RUNS / f"result-{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    shutil.rmtree(out_dir, ignore_errors=True)
    for r in reps:
        for problem in r["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)
    print_table(f"{args.workload} seed {args.seed}", [(n, m["value"], m["unit"]) for n, m in metrics.items()])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
