"""Do two source trees of nsfsim write the same artefacts?

    python3 tools/same_artefacts.py SRC_A SRC_B

SRC_A and SRC_B are checkouts of the repository (or their ``src``
directories).  Each config below is run once with each tree, in its own
subprocess through ``python -m nsfsim.cli run``:

- the three determinism presets (static-sanity, rb-2d-topology, rb-1d-small
  to t = 2);
- the benchmark workloads of ``BENCHMARK.json`` at their pinned seeds, with
  the presets and overrides of ``perfbench/catalogue.json``;
- rb-2d-topology at 64x48 to t = 0.05.

For each config it prints whether the CSVs are byte-identical, the largest
column deviation of ``experiment.compare_runs`` (and every column that
deviates), and whether the manifests' status and counters are equal,
``wall_time`` aside.  It exits 1 on any difference.  A pure refactor reads
``same`` on every line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nsfsim import experiment as ex  # noqa: E402

# the seed each benchmark workload pins its correctness gate at
PINNED_SEEDS = {"slab-convection": 7, "lateral-newton": 1, "column-hydrostatic": 1}


def configs():
    """(name, preset, overrides) of every config compared."""
    runs = [
        ("static-sanity", "static-sanity", {}),
        ("rb-2d-topology", "rb-2d-topology", {}),
        ("rb-1d-small", "rb-1d-small", {"horizon": 2.0}),
    ]
    catalogue = json.loads((ROOT / "perfbench" / "catalogue.json").read_text())["workloads"]
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        name = workload["name"]
        spec = catalogue[name]
        overrides = dict(spec["overrides"], seed=PINNED_SEEDS[name], label=name)
        runs.append((name, spec["preset"], overrides))
    runs.append(("rb-2d-topology-64x48", "rb-2d-topology", {"domain.nx": 64, "domain.nz": 48, "horizon": 0.05}))
    return runs


def source_dir(tree):
    """The directory holding the ``nsfsim`` package of a checkout."""
    tree = Path(tree).resolve()
    for candidate in (tree / "src", tree):
        if (candidate / "nsfsim" / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"no nsfsim package under {tree}")


def run(src, preset, overrides, out):
    """Run one config with the package in ``src``; its manifest."""
    command = [sys.executable, "-m", "nsfsim.cli", "run", "--preset", preset, "--out", str(out)]
    for key, value in overrides.items():
        command += ["--set", f"{key}={value}"]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(command, env=env, check=False, stdout=subprocess.DEVNULL)
    label = overrides.get("label", preset)
    return ex.RunManifest.from_json((out / f"{label}.manifest.json").read_text())


def compare(a, b):
    """(lines, same) comparing two manifests' CSVs, status and counters."""
    report = ex.compare_runs(a, b)
    identical = report.pop("_identical") == 1.0
    report.pop("_rows")
    deviating = {name: value for name, value in sorted(report.items()) if value != 0.0}
    counters_a, counters_b = (dict(m.counters) for m in (a, b))
    for counters in (counters_a, counters_b):
        counters.pop("wall_time", None)
    changed = sorted(k for k in counters_a.keys() | counters_b.keys() if counters_a.get(k) != counters_b.get(k))
    lines = [
        f"  CSV byte-identical: {'yes' if identical else 'NO'}",
        f"  largest column deviation: {max(report.values(), default=0.0):.3g}",
    ]
    lines += [f"    {name}: {value:.3g}" for name, value in deviating.items()]
    lines.append(f"  status: {a.status}" + ("" if a.status == b.status else f" against {b.status}"))
    lines.append(f"  counters equal (wall_time aside): {'yes' if not changed else 'NO'}")
    lines += [f"    {k}: {counters_a.get(k)} against {counters_b.get(k)}" for k in changed]
    return lines, identical and not deviating and not changed and a.status == b.status


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        raise SystemExit(__doc__)
    trees = [source_dir(tree) for tree in args]
    runs, differ = configs(), []
    with tempfile.TemporaryDirectory(prefix="same-artefacts-") as scratch:
        for name, preset, overrides in runs:
            manifests = [run(src, preset, overrides, Path(scratch) / side / name) for side, src in zip("ab", trees)]
            lines, same = compare(*manifests)
            print(f"{name}: {'same' if same else 'DIFFERENT'}")
            print("\n".join(lines), flush=True)
            if not same:
                differ.append(name)
    print(f"{len(differ)} of {len(runs)} configs differ" + (f": {', '.join(differ)}" if differ else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
