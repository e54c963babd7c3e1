"""Generator width study: which channel plan should the untrained fit use?

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python studies/generator_width.py --date 2026-10-20 --workers 2

(one BLAS thread per worker, so two workers share two cores and every
wall time is that of a fit on one core)

The scene is the paper's FIG4C target (slits of 1217, 884 and 920 um, gaps
of 118 um, 0.5 mm behind the object) through silicon: the vacuum wavelength
of 833.3 um over the wafer's index of 3.417, in two geometries: a 64 px pattern grid over 5.25 mm and a 128 px grid over
10.5 mm, each simulated FINER times finer and block-averaged onto the
pattern grid.  Readings are taken at CR 0.25 in sequency order, noiseless
and with Gaussian noise of 5% of the clean readings' standard deviation.
Every plan of PLANS is fitted from generator seeds SEEDS with
`reconstruct_untrained` as the CLI runs it (float32 layers, DGI input,
DEFAULT_ITERATIONS).

Writes two files at the repository root:

- STUDY_<date>-width.csv: one row per run, with the dip at each gap
  (`metrics.gap_dips`), `resolved` (both dips above RESOLVED_DIP), the SSIM
  against the block mean of the fine object, the data loss of the returned
  image and the fit's wall seconds;
- STUDY_<date>-width-float32.csv: one row per plan, the float32-against-
  float64 check of `tests/test_prior.py::test_default_float32_net_matches_float64`
  run with that plan, and whether the plan passes it (`eligible`).

`choose_plan` is the rule that picks `network.DEFAULT_PLAN` from the two
files: the eligible plan with the fewest weights whose resolved fraction and
median SSIM are no worse than REFERENCE_PLAN's in every geometry and noise
cell.  `tests/test_generator_width.py` applies it to the committed files.
"""

from __future__ import annotations

import argparse
import csv
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from singlepixel.cli import diffract_scene
from singlepixel.field import IntensityImage
from singlepixel.measurement import block_pool, measure, objective
from singlepixel.metrics import gap_dips, ssim
from singlepixel.network import GeneratorNet
from singlepixel.patterns import walsh_hadamard_patterns
from singlepixel.prior import reconstruct_untrained
from singlepixel.scenes import SceneSpec

ROOT = Path(__file__).resolve().parents[1]

REFERENCE_PLAN = (1, 16, 32, 32, 16, 1)  # the default before this study
PLANS = ((1, 4, 4, 4, 4, 1), (1, 8, 8, 8, 8, 1), (1, 8, 16, 16, 8, 1), REFERENCE_PLAN)
SEEDS = range(8)
GEOMETRIES = {"64px-5.25mm": (64, 5.25e-3), "128px-10.5mm": (128, 10.5e-3)}
FINER = 4
NOISE_REL = (0.0, 0.05)
NOISE_SEED = 11
CR = 0.25
RESOLVED_DIP = 0.8
FIG4C = dict(wavelength=833.3e-6 / 3.417, distance=0.5e-3, object_kind="three_slit",  # n = 3.417
             slit_widths=(1217e-6, 884e-6, 920e-6), slit_separations=(118e-6, 118e-6))

RUN_COLUMNS = ("plan", "geometry", "noise_rel", "noise_sigma", "seed", "dip_gap1", "dip_gap2",
               "resolved", "ssim", "final_data_loss", "wall_s")
FLOAT32_COLUMNS = ("plan", "max_abs_diff", "ssim_diff", "eligible")
# the bounds of test_default_float32_net_matches_float64
FLOAT32_MAX_ABS_DIFF = 1e-4
FLOAT32_SSIM_DIFF = 1e-3


def plan_name(plan) -> str:
    return "-".join(map(str, plan))


def weight_count(plan) -> int:
    return sum(9 * c_in * c_out for c_in, c_out in zip(plan, plan[1:]))


def _problem(geometry: str, noise_rel: float):
    """(scene, pattern set, readings, block-mean object) of one cell."""
    order, fov = GEOMETRIES[geometry]
    spec = SceneSpec(grid=FINER * order, fov=fov, **FIG4C)
    obj, diffracted = diffract_scene(spec)
    pset = walsh_hadamard_patterns(order, int(round(CR * order * order)),
                                   modulation_depth=spec.modulation_depth)
    sigma = noise_rel * float(np.std(measure(diffracted, pset).readings))
    meas = measure(diffracted, pset, noise_sigma=sigma, seed=NOISE_SEED)
    return spec, pset, meas, IntensityImage(block_pool(obj.values, order))


def run(plan, geometry: str, noise_rel: float, seed: int) -> dict:
    """One untrained fit, scored."""
    spec, pset, meas, reference = _problem(geometry, noise_rel)
    prop = spec.propagation(pset.order)
    start = time.perf_counter()
    result = reconstruct_untrained(meas, pset, prop, seed=seed,
                                   net=GeneratorNet(plan, seed, dtype=np.float32))
    wall = time.perf_counter() - start
    dips = gap_dips(result.image, spec)
    return dict(plan=plan_name(plan), geometry=geometry, noise_rel=noise_rel,
                noise_sigma=meas.noise_sigma, seed=seed, dip_gap1=dips[0], dip_gap2=dips[1],
                resolved=int(min(dips) > RESOLVED_DIP), ssim=ssim(result.image, reference),
                final_data_loss=objective(result.image.values, meas, pset, prop)[0],
                wall_s=round(wall, 3))


def float32_check(plan) -> dict:
    """test_default_float32_net_matches_float64 with `plan` as the default."""
    spec = SceneSpec(grid=64, fov=10.5e-3, wavelength=833.3e-6, distance=0.5e-3,
                     object_kind="three_slit", slit_widths=(2e-3, 1.5e-3, 1.5e-3),
                     slit_separations=(0.6e-3, 0.6e-3), noise_sigma=0.5, seed=1813382119)
    obj, diffracted = diffract_scene(spec)
    pset = walsh_hadamard_patterns(64, 1024, modulation_depth=spec.modulation_depth)
    meas = measure(diffracted, pset, noise_sigma=spec.noise_sigma, seed=spec.seed)
    seed = 827308000
    single, double = (
        reconstruct_untrained(meas, pset, spec.propagation(), iterations=50, seed=seed,
                              net=GeneratorNet(plan, seed, dtype=dtype)).image
        for dtype in (np.float32, np.float64))
    diff = float(np.abs(single.values - double.values).max())
    ssim_diff = abs(ssim(single, obj) - ssim(double, obj))
    return dict(plan=plan_name(plan), max_abs_diff=diff, ssim_diff=ssim_diff,
                eligible=int(diff <= FLOAT32_MAX_ABS_DIFF and ssim_diff <= FLOAT32_SSIM_DIFF))


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def choose_plan(runs: list, float32_rows: list) -> tuple:
    """The eligible plan with the fewest weights whose resolved fraction and
    median SSIM are no worse than REFERENCE_PLAN's in every geometry and
    noise cell of `runs` (rows of the two study files)."""
    eligible = {row["plan"] for row in float32_rows if int(row["eligible"])}
    cells = {(row["geometry"], row["noise_rel"]) for row in runs}

    def score(plan: str, cell) -> tuple:
        rows = [row for row in runs if row["plan"] == plan and (row["geometry"], row["noise_rel"]) == cell]
        return (statistics.mean(int(row["resolved"]) for row in rows),
                statistics.median(float(row["ssim"]) for row in rows))

    reference = plan_name(REFERENCE_PLAN)
    for plan in sorted(PLANS, key=weight_count):
        name = plan_name(plan)
        if name in eligible and all(
                all(a >= b for a, b in zip(score(name, cell), score(reference, cell)))
                for cell in cells):
            return plan
    return REFERENCE_PLAN


def _write(path: Path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--date", required=True, help="the date in the output file names")
    parser.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    args = parser.parse_args()
    grid = [(plan, geometry, noise_rel, seed) for geometry in GEOMETRIES for noise_rel in NOISE_REL
            for plan in PLANS for seed in SEEDS]
    with ProcessPoolExecutor(args.workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        checks = list(pool.map(float32_check, PLANS))
        runs = list(pool.map(run, *zip(*grid)))
    _write(ROOT / f"STUDY_{args.date}-width-float32.csv", FLOAT32_COLUMNS, checks)
    _write(ROOT / f"STUDY_{args.date}-width.csv", RUN_COLUMNS, runs)
    print("chosen plan:", choose_plan(read_csv(ROOT / f"STUDY_{args.date}-width.csv"), checks))


if __name__ == "__main__":
    main()
