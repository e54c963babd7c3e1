"""CS-TV's warm prox takes the number of dual steps that the committed prox
study picks (`studies/cstv_prox.py`)."""

import importlib.util
from pathlib import Path

from singlepixel import classical

ROOT = Path(__file__).resolve().parents[1]
STUDY_DATE = "2026-10-22"


def _study():
    spec = importlib.util.spec_from_file_location("cstv_prox", ROOT / "studies" / "cstv_prox.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prox_iterations_are_the_ones_the_study_chooses():
    study = _study()
    runs = study.read_csv(ROOT / f"STUDY_{STUDY_DATE}-cstv-prox.csv")
    grid = {(row["scene"], int(row["grid"]), float(row["cr"]), int(row["iterations"]),
             int(row["seed"]), row["prox"]) for row in runs}
    assert len(grid) == len(runs) == (len(study.SCENES) * len(study.GRIDS) * len(study.CRS)
                                      * len(study.ITERATIONS) * len(study.SEEDS)
                                      * (1 + len(study.STEPS)))
    assert study.choose_steps(runs) == classical.PROX_ITERATIONS


def test_the_rule_bounds_every_solve_not_the_median():
    """One step loses one problem of three by 2% of objective, two steps one
    by 0.004 of SSIM, so the rule picks three; with three worse too, none."""
    study = _study()

    def rows(prox, objectives, ssims):
        return [dict(scene="s", grid="32", cr="0.25", iterations="100", seed=str(seed),
                     prox=str(prox), objective=objective, ssim=ssim)
                for seed, (objective, ssim) in enumerate(zip(objectives, ssims))]

    runs = rows(study.COLD, (100, 200, 300), (0.9, 0.8, 0.7))
    runs += rows(1, (100, 200, 306), (0.9, 0.8, 0.7))
    runs += rows(2, (101, 202, 303), (0.9, 0.796, 0.7))
    runs += rows(3, (101, 202.5, 304), (0.898, 0.798, 0.698))
    assert study.choose_steps(runs) == 3
    runs[-1]["ssim"] = 0.69
    assert study.choose_steps(runs) is None
