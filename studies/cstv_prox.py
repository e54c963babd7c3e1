"""CS-TV prox study: how many warm dual steps should each TV prox take?

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python studies/cstv_prox.py --date 2026-10-22 --workers 2

(one BLAS thread per worker, so two workers share two cores and every
wall time is that of a solve on one core)

`classical.cstv_reconstruct` keeps its TV prox's Chambolle duals from one
FISTA iteration to the next and takes `classical.PROX_ITERATIONS` dual
steps per prox from them.  This study solves each problem with the cold
prox that the warm one replaced (`tvreg.tv_prox` without a state: 10 dual
steps from zero at every call) and with the warm prox at every k of STEPS,
on the same readings, in the same process.

Problems: the scenes of SCENES on the pattern grids of GRIDS (pitch
FOV / grid), readings at each CR of CRS in sequency order with Gaussian
noise of NOISE_SIGMA from each seed of SEEDS, CS-TV at its default weight
for each count of ITERATIONS.  The slit scene at each grid is the one
perfbench runs there: the CLI tests' slits at 32 and 64 px, the paper's
FIG4C slits at 128 px.  The rectangles are a bitmap of RECTANGLES
overlapping rectangles of random grey, drawn from the seed.  The CRs and
iteration counts are those of `benchmark` and `reconstruct` (CR 0.25, the
default 200 iterations) and of perfbench's cli-128 (CR 1/64, 100).

Writes STUDY_<date>-cstv-prox.csv at the repository root: one row per
solve, with the final objective, the SSIM against the detector-plane
image (`normalize` of the diffraction image, as `benchmark` scores CS-TV)
and the solve's wall seconds.

`choose_steps` is the rule that picks `classical.PROX_ITERATIONS` from the
file: the smallest k that keeps every warm solve's final objective within
OBJECTIVE_SLACK of the cold solve's on the same readings, and its SSIM at
most SSIM_SLACK below it.  The bound holds per problem, not per cell median:
the two solves see the same readings, so their difference is the error of
the warm prox itself.  `tests/test_cstv_prox.py` applies it to the
committed file.
"""

from __future__ import annotations

import argparse
import csv
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from singlepixel import classical, tvreg
from singlepixel.field import IntensityImage, normalize
from singlepixel.measurement import diffract, measure
from singlepixel.metrics import ssim
from singlepixel.patterns import walsh_hadamard_patterns
from singlepixel.scenes import SceneSpec, build_scene

ROOT = Path(__file__).resolve().parents[1]

STEPS = (1, 2, 3)
COLD = "cold"  # the `prox` of a solve with the cold 10-step prox
SCENES = ("slits", "rectangles")
GRIDS = (32, 64, 128)
CRS = (1 / 64, 0.25)
ITERATIONS = (100, classical.DEFAULT_CSTV_ITERATIONS)
SEEDS = range(4)
NOISE_SIGMA = 0.5
FOV = 10.5e-3
GEOMETRY = dict(fov=FOV, wavelength=833.3e-6, distance=0.5e-3)
CLI_SLITS = dict(slit_widths=(2e-3, 1.5e-3, 1.5e-3), slit_separations=(0.6e-3, 0.6e-3))
FIG4C_SLITS = dict(slit_widths=(1217e-6, 884e-6, 920e-6), slit_separations=(118e-6, 118e-6))
SLITS = {32: CLI_SLITS, 64: CLI_SLITS, 128: FIG4C_SLITS}
RECTANGLES = 6
OBJECTIVE_SLACK = 0.015
SSIM_SLACK = 0.003

CELL = ("scene", "grid", "cr", "iterations")
COLUMNS = (*CELL, "seed", "prox", "objective", "ssim", "wall_s")


def rectangles(grid: int, seed: int) -> IntensityImage:
    """RECTANGLES axis-aligned rectangles, 1/8 to 1/3 of the grid a side,
    of grey levels in [0.3, 1]; where two overlap, the brighter shows."""
    rng = np.random.default_rng(seed)
    values = np.zeros((grid, grid))
    for _ in range(RECTANGLES):
        y, x = rng.integers(0, grid * 3 // 4, 2)
        h, w = rng.integers(grid // 8, grid // 3, 2)
        block = values[y : y + h, x : x + w]
        np.maximum(block, rng.uniform(0.3, 1.0), out=block)
    return IntensityImage(values)


def _problem(scene: str, grid: int, cr: float, seed: int):
    """(pattern set, readings, detector-plane reference) of one problem."""
    spec = SceneSpec(grid=grid, object_kind="three_slit", **GEOMETRY, **SLITS[grid])
    obj = build_scene(spec) if scene == "slits" else rectangles(grid, seed)
    diffracted = diffract(obj, spec.propagation())
    pset = walsh_hadamard_patterns(grid, int(round(cr * grid * grid)),
                                   modulation_depth=spec.modulation_depth)
    meas = measure(diffracted, pset, noise_sigma=NOISE_SIGMA, seed=seed)
    return pset, meas, normalize(diffracted.values)


def _cold_prox(v, alpha, iterations=10, state=None):
    """The prox as CS-TV called it before the warm start."""
    return tvreg.tv_prox(v, alpha)


def run(scene: str, grid: int, cr: float, iterations: int, seed: int) -> list:
    """The cold solve and one warm solve per k of one problem, scored."""
    pset, meas, reference = _problem(scene, grid, cr, seed)
    rows = []
    for prox in (COLD, *STEPS):
        kept = classical.tv_prox, classical.PROX_ITERATIONS
        if prox == COLD:
            classical.tv_prox = _cold_prox
        else:
            classical.PROX_ITERATIONS = prox
        try:
            start = time.perf_counter()
            result = classical.cstv_reconstruct(meas, pset, max_iters=iterations)
            wall = time.perf_counter() - start
        finally:
            classical.tv_prox, classical.PROX_ITERATIONS = kept
        rows.append(dict(scene=scene, grid=grid, cr=cr, iterations=iterations, seed=seed,
                         prox=prox, objective=result.residual_history[-1],
                         ssim=ssim(result.image, reference), wall_s=round(wall, 4)))
    return rows


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def choose_steps(runs: list) -> int | None:
    """The smallest k of STEPS whose every solve in `runs` (rows of the study
    file) keeps its objective within OBJECTIVE_SLACK of, and its SSIM within
    SSIM_SLACK of, the cold solve's on the same readings; None if no k does."""
    def problem(row) -> tuple:
        return tuple(row[c] for c in (*CELL, "seed"))

    cold = {problem(row): row for row in runs if row["prox"] == COLD}

    def keeps(row) -> bool:
        base = cold[problem(row)]
        return (float(row["objective"]) <= (1 + OBJECTIVE_SLACK) * float(base["objective"])
                and float(row["ssim"]) >= float(base["ssim"]) - SSIM_SLACK)

    return next((k for k in STEPS
                 if all(keeps(row) for row in runs if row["prox"] == str(k))), None)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--date", required=True, help="the date in the output file name")
    parser.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    args = parser.parse_args()
    grid = [(scene, order, cr, iterations, seed) for scene in SCENES for order in GRIDS
            for cr in CRS for iterations in ITERATIONS for seed in SEEDS]
    with ProcessPoolExecutor(args.workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        runs = [row for rows in pool.map(run, *zip(*grid)) for row in rows]
    path = ROOT / f"STUDY_{args.date}-cstv-prox.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(runs)
    print("chosen steps:", choose_steps(read_csv(path)))


if __name__ == "__main__":
    main()
