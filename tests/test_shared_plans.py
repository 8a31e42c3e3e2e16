"""The process-wide grid plans of ``probing.shared``: read-only, bounded, and
the same artefacts whether a run finds them built or builds them."""

import itertools
import json
import sys
import threading

import numpy as np
import pytest

from nsfsim import experiment as ex
from nsfsim import probing, stationary
from nsfsim import simulator as sim
from nsfsim.grids import Grid1D, Grid2D


def shared_arrays():
    """Every array the shared plans of a slab and a column hand out."""
    slab, column = Grid2D(nx=6, nz=4), Grid1D(n=8)
    plan, strains, band_map = sim._velocity_operator(slab)
    arrays = [plan.colour, plan.place, plan.indices, plan.indptr, plan.cols, plan.diagonal, plan.gather]
    arrays += [*strains, *band_map[:2], band_map[3]]
    plan, strains, at = sim._velocity_operator(column)
    arrays += [plan.gather, plan.indices, plan.cols, *strains, at]
    for grid in (slab, column):
        band, L, place = sim._heat_operator(grid)
        arrays += [band, L.data, L.indices, L.indptr] + ([place] if place is not None else [])
        newton, rank, mass, _, _, blocks = stationary._newton_plan(stationary._Layout(grid))
        arrays += [newton.gather, newton.indices, newton.cols, rank, mass]
        if blocks is not None:
            arrays += [blocks.slot, blocks.cos, blocks.sin, blocks.band_at, blocks.dense_at]
            arrays += [blocks.rows_at, blocks.cols_at]
        arrays.append(stationary._probe_table(grid.dimension)[0])
    return arrays


def test_shared_plan_arrays_reject_writes():
    for a in shared_arrays():
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1


def test_shared_plans_stay_at_their_bound():
    # more geometries than a builder keeps: the least recently used go, and
    # only a dropped one is built again
    probing.clear()
    grids = [Grid2D(nx=nx, nz=3) for nx in range(3, 3 + probing.KEPT + 3)]
    for build, argument in (
        (sim._velocity_operator, lambda g: g),
        (sim._heat_operator, lambda g: g),
        (stationary._newton_plan, stationary._Layout),
    ):
        builds = build.builds
        for grid in grids:
            build(argument(grid))
        assert len(build.kept) == probing.KEPT
        assert build.builds - builds == len(grids)
        build(argument(grids[-1]))
        assert build.builds - builds == len(grids)
        build(argument(grids[0]))
        assert build.builds - builds == len(grids) + 1 and len(build.kept) == probing.KEPT


def test_shared_plans_hold_under_threads():
    # four threads, more than the cores, look up more keys than are kept,
    # switching every microsecond: no lookup fails or gets another key's
    # result, ``builds`` counts every build, and the cache ends within its
    # bound
    calls = itertools.count()

    @probing.shared(lambda n: n)
    def build(n):
        next(calls)
        return np.full(n, float(n))

    errors, results = [], []

    def worker(seed):
        try:
            for n in np.random.default_rng(seed).integers(1, 2 * probing.KEPT + 1, size=5000).tolist():
                got = build(n)
                results.append(got.size == n and bool(np.all(got == n)))
        except Exception as exc:  # reported below, with the thread's others
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    assert len(results) == 20000 and all(results) and len(build.kept) <= probing.KEPT
    assert build.builds == next(calls)


@pytest.mark.parametrize(
    "preset, overrides",
    [("rb-2d-lateral", {}), ("rb-2d-topology", {}), ("rb-1d-small", {"horizon": "0.5"})],
    ids=["rb-2d-lateral", "rb-2d-topology", "rb-1d-small"],
)
def test_a_run_on_shared_plans_writes_what_a_cold_run_writes(preset, overrides, tmp_path):
    # the Newton's plan (rb-2d-lateral at 12x8), the slab's velocity and heat
    # plans (rb-2d-topology) and the column's heat operator (rb-1d-small)
    config = ex.config_from_mapping(overrides, preset=preset)
    label = config["label"]
    probing.clear()
    written = []
    for run in ("cold", "warm"):
        manifest = ex.run_experiment(config, output_dir=tmp_path / run)
        assert manifest.status == "ok"
        counters = json.loads((tmp_path / run / f"{label}.manifest.json").read_text())["counters"]
        counters.pop("wall_time")
        written.append(((tmp_path / run / f"{label}.csv").read_bytes(), counters))
    (cold_csv, cold), (warm_csv, warm) = written
    assert cold_csv == warm_csv
    assert cold == warm
    if preset == "rb-2d-lateral":
        assert cold["stationary_residual_calls"] > 0 and cold["stationary_jacobian_colours"] > 0
