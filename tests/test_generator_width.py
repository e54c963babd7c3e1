"""The generator's channel plan is the one the committed width study picks
(`studies/generator_width.py`)."""

import importlib.util
from pathlib import Path

from singlepixel import network

ROOT = Path(__file__).resolve().parents[1]
STUDY_DATE = "2026-10-20"


def _study():
    spec = importlib.util.spec_from_file_location("generator_width",
                                                  ROOT / "studies" / "generator_width.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_plan_is_the_one_the_study_chooses():
    width = _study()
    runs = width.read_csv(ROOT / f"STUDY_{STUDY_DATE}-width.csv")
    float32 = width.read_csv(ROOT / f"STUDY_{STUDY_DATE}-width-float32.csv")
    grid = {(row["plan"], row["geometry"], float(row["noise_rel"]), int(row["seed"])) for row in runs}
    assert len(grid) == len(runs) == (len(width.PLANS) * len(width.GEOMETRIES)
                                      * len(width.NOISE_REL) * len(width.SEEDS))
    assert sorted(row["plan"] for row in float32) == sorted(map(width.plan_name, width.PLANS))
    assert width.choose_plan(runs, float32) == network.DEFAULT_PLAN


def test_the_rule_skips_a_worse_or_ineligible_plan():
    """The narrowest plan loses one cell, the next one fails the float32
    check, so the rule picks the third; with none left, the reference."""
    width = _study()
    narrow = [width.plan_name(plan) for plan in sorted(width.PLANS, key=width.weight_count)]

    def rows(plan, resolved, ssim):
        return [dict(plan=plan, geometry=geometry, noise_rel=noise, resolved=resolved, ssim=ssim)
                for geometry in ("a", "b") for noise in ("0", "0.05")]

    runs = rows(narrow[-1], 1, 0.90) + rows(narrow[1], 1, 0.95) + rows(narrow[2], 1, 0.90)
    runs += [dict(row, ssim=0.5) if row["geometry"] == "b" else row for row in rows(narrow[0], 1, 0.99)]
    eligible = [dict(plan=plan, eligible=int(plan != narrow[1])) for plan in narrow]
    assert width.plan_name(width.choose_plan(runs, eligible)) == narrow[2]
    runs = [dict(row, resolved=0) if row["plan"] == narrow[2] else row for row in runs]
    assert width.choose_plan(runs, eligible) == width.REFERENCE_PLAN
