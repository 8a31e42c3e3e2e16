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
``wall_time`` aside.  It loads the reference, initial and final snapshots
of both trees with this tree's ``experiment.load_snapshot`` and prints
whether their fields and ``t`` are bit-equal and their grids ``==``.  Any of
these differences makes the config ``DIFFERENT``, and the tool exits 1.
It also prints each line of ``<label>.meta.jsonl`` that differs, both
versions; these are reported only, since a change may add a field to a
record on purpose.  A pure refactor reads ``same`` on every config.
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

import numpy as np  # noqa: E402

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


def artefact(manifest, suffix):
    """The path of the manifest's artefact ending in ``suffix``, or None."""
    return next((Path(p) for p in manifest.artifacts if p.endswith(suffix)), None)


def same_snapshot(path_a, path_b):
    """Whether two snapshots hold bit-equal fields and ``t`` on ``==`` grids."""
    a, b = ex.load_snapshot(path_a), ex.load_snapshot(path_b)
    fields = zip((a.rho, a.theta, *a.velocity), (b.rho, b.theta, *b.velocity))
    bits = len(a.velocity) == len(b.velocity) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in fields
    )
    return bits and np.float64(a.t).tobytes() == np.float64(b.t).tobytes() and a.grid == b.grid


def compare_snapshots(a, b):
    """(lines, same) for the reference, initial and final snapshots."""
    lines, same = [], True
    for kind in ("reference", "initial", "final"):
        paths = [artefact(m, f".{kind}.npz") for m in (a, b)]
        if None in paths:
            equal = paths[0] is paths[1]
            verdict = "absent on both" if equal else "absent on one side"
        else:
            equal = same_snapshot(*paths)
            verdict = "yes" if equal else "NO"
        lines.append(f"  {kind} snapshot bit-equal, grids ==: {verdict}")
        same = same and equal
    return lines, same


def meta_differences(a, b):
    """Lines listing each ``.meta.jsonl`` record that differs, both versions."""
    texts = [path.read_text().splitlines() if path else [] for path in (artefact(m, ".meta.jsonl") for m in (a, b))]
    lines = []
    for k in range(max(map(len, texts))):
        line_a, line_b = (t[k] if k < len(t) else "(none)" for t in texts)
        if line_a != line_b:
            lines += [f"    line {k + 1}: {line_a}", f"      against {line_b}"]
    return [f"  meta.jsonl lines that differ (reported only): {len(lines) // 2}"] + lines


def compare(a, b):
    """(lines, same) comparing two manifests' CSVs, status, counters and
    snapshots, with the ``.meta.jsonl`` lines that differ."""
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
    snapshot_lines, snapshots_same = compare_snapshots(a, b)
    lines += snapshot_lines + meta_differences(a, b)
    return lines, identical and not deviating and not changed and a.status == b.status and snapshots_same


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
