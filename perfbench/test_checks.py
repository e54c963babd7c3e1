"""Tests of the benchmark's own checks: each passes on the program's output
at a small grid and fails on a planted corruption.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed, Scene  # noqa: E402
from singlepixel.cli import main  # noqa: E402
from singlepixel.field import IntensityImage  # noqa: E402
from singlepixel.metrics import ssim as package_ssim  # noqa: E402
from tracing import self_times  # noqa: E402

SCENE = Scene(grid=32, fov=10.5e-3, wavelength=833.3e-6, distance=0.5e-3, sigma=0.5, seed=11,
              **run.CLI_SLITS)
COUNT = 256


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("round")
    scene = out / "scene.txt"
    scene.write_text(SCENE.text())
    spip, sim = str(out / "p.spip"), out / "sim"
    assert main(["patterns", "--order", "32", "--count", str(COUNT), "--out", spip]) == 0
    assert main(["simulate", "--scene", str(scene), "--patterns", spip, "--out-dir", str(sim)]) == 0
    for method, iterations in (("hspi", 1), ("dgi", 1), ("cstv", 40), ("untrained", 10)):
        assert main(["reconstruct", "--measurement", str(sim / "measurement.csv"), "--patterns", spip,
                     "--scene", str(scene), "--method", method, "--iterations", str(iterations),
                     "--reference", str(sim / "object.pgm"), "--out-dir", str(out / method)]) == 0
    return out


def flip_sample(pgm: bytes, index: int, delta: int) -> bytes:
    """Add delta to one 16-bit sample, counted from the end of the raster."""
    data = bytearray(pgm)
    pos = len(data) - 2 * (index + 1)
    value = int.from_bytes(data[pos : pos + 2], "big")
    value = value + delta if value + delta <= checks.MAXVAL else value - delta
    data[pos : pos + 2] = value.to_bytes(2, "big")
    return bytes(data)


def readings_and_masks(out):
    readings = checks.read_readings((out / "sim" / "measurement.csv").read_text())
    masks = checks.read_spip((out / "p.spip").read_bytes())
    return readings, masks


def history(path):
    return checks.read_loss_history(path.read_text())


class TestAcquisition:
    def test_object_matches_scene(self, outputs):
        checks.check_object((outputs / "sim" / "object.pgm").read_bytes(), SCENE)

    def test_object_rejects_one_changed_pixel(self, outputs):
        pgm = flip_sample((outputs / "sim" / "object.pgm").read_bytes(), 500, 1)
        with pytest.raises(CheckFailed):
            checks.check_object(pgm, SCENE)

    def test_diffraction_matches_within_quantization(self, outputs):
        checks.check_diffraction((outputs / "sim" / "diffracted.pgm").read_bytes(), checks.diffraction(SCENE))

    def test_diffraction_rejects_a_sample_off_by_two_quanta(self, outputs):
        pgm = flip_sample((outputs / "sim" / "diffracted.pgm").read_bytes(), 300, 2)
        with pytest.raises(CheckFailed, match="quanta"):
            checks.check_diffraction(pgm, checks.diffraction(SCENE))

    def test_diffraction_rejects_another_distance(self, outputs):
        other = Scene(**{**SCENE.__dict__, "distance": 0.6e-3})
        with pytest.raises(CheckFailed):
            checks.check_diffraction((outputs / "sim" / "diffracted.pgm").read_bytes(), checks.diffraction(other))

    def test_masks_are_hadamard_outer_products(self, outputs):
        _, masks = readings_and_masks(outputs)
        r1, r0 = checks.hadamard_rows(masks)
        assert (r1[0], r0[0]) == (0, 0)
        assert len(r1) == COUNT

    def test_masks_reject_a_flipped_byte(self, outputs):
        data = bytearray((outputs / "p.spip").read_bytes())
        pos = struct.calcsize("<4sHIIB") + 5 * 32 * 32 + 77
        data[pos] = 0x01 if data[pos] == 0xFF else 0xFF  # +1 <-> -1
        with pytest.raises(CheckFailed, match="outer product"):
            checks.hadamard_rows(checks.read_spip(bytes(data)))

    def test_masks_reject_a_repeated_mask(self, outputs):
        _, masks = readings_and_masks(outputs)
        with pytest.raises(CheckFailed, match="same"):
            checks.hadamard_rows(np.concatenate([masks, masks[-1:]]))

    def test_masks_reject_a_wrong_order(self, outputs):
        _, masks = readings_and_masks(outputs)
        with pytest.raises(CheckFailed, match="sequency"):
            checks.hadamard_rows(masks[::-1])

    def test_noise_has_the_stated_spread(self, outputs):
        readings, masks = readings_and_masks(outputs)
        projections = checks.mask_projections(masks, checks.diffraction(SCENE))
        checks.check_noise(readings, projections, SCENE.depth, SCENE.sigma)

    def test_noise_rejects_one_altered_reading(self, outputs):
        readings, masks = readings_and_masks(outputs)
        readings = readings.copy()
        readings[100] += 25 * SCENE.sigma
        projections = checks.mask_projections(masks, checks.diffraction(SCENE))
        with pytest.raises(CheckFailed, match="std"):
            checks.check_noise(readings, projections, SCENE.depth, SCENE.sigma)

    def test_noise_rejects_a_wrong_sigma(self, outputs):
        readings, masks = readings_and_masks(outputs)
        projections = checks.mask_projections(masks, checks.diffraction(SCENE))
        with pytest.raises(CheckFailed):
            checks.check_noise(readings, projections, SCENE.depth, 2 * SCENE.sigma)


class TestReconstructions:
    @pytest.mark.parametrize("method", ["hspi", "dgi"])
    def test_image_matches_formula(self, outputs, method):
        readings, masks = readings_and_masks(outputs)
        expected = (checks.clip_render(checks.hspi(masks, readings)) if method == "hspi"
                    else checks.minmax_render(checks.dgi(masks, readings)))
        checks.check_image((outputs / method / f"recon_{method}.pgm").read_bytes(), expected, method)

    @pytest.mark.parametrize("method", ["hspi", "dgi"])
    def test_image_rejects_one_altered_reading(self, outputs, method):
        readings, masks = readings_and_masks(outputs)
        readings = readings.copy()
        readings[7] += 5.0
        expected = (checks.clip_render(checks.hspi(masks, readings)) if method == "hspi"
                    else checks.minmax_render(checks.dgi(masks, readings)))
        with pytest.raises(CheckFailed, match="quanta"):
            checks.check_image((outputs / method / f"recon_{method}.pgm").read_bytes(), expected, method)

    def test_image_rejects_a_sample_off_by_one_quantum(self, outputs):
        readings, masks = readings_and_masks(outputs)
        pgm = flip_sample((outputs / "hspi" / "recon_hspi.pgm").read_bytes(), 40, 1)
        with pytest.raises(CheckFailed, match="quanta"):
            checks.check_image(pgm, checks.clip_render(checks.hspi(masks, readings)), "hspi")

    def test_cstv_loss_never_rises(self, outputs):
        checks.check_monotone(history(outputs / "cstv" / "loss_history.csv"), "CS-TV")

    def test_cstv_check_rejects_a_rise(self, outputs):
        values = history(outputs / "cstv" / "loss_history.csv")
        values[20] = values[19] * 1.0001
        with pytest.raises(CheckFailed, match="rises at iteration 20"):
            checks.check_monotone(values, "CS-TV")

    def test_untrained_loss_falls(self, outputs):
        checks.check_falls(history(outputs / "untrained" / "loss_history.csv"), "untrained")

    def test_untrained_check_rejects_a_rising_loss(self, outputs):
        with pytest.raises(CheckFailed, match="did not fall"):
            checks.check_falls(history(outputs / "untrained" / "loss_history.csv")[::-1], "untrained")

    def test_dips_found_in_the_object(self):
        checks.check_dips(checks.object_mask(SCENE), SCENE)

    def test_dips_rejects_a_filled_gap(self):
        image = checks.object_mask(SCENE)
        _, gaps = checks.feature_columns(SCENE)
        image[:, gaps[1]] = 1.0
        with pytest.raises(CheckFailed, match="no dip"):
            checks.check_dips(image, SCENE)

    def test_feature_columns_follow_the_drawn_mask(self):
        mask = checks.object_mask(SCENE)
        slits, gaps = checks.feature_columns(SCENE)
        row = mask[checks.slit_rows(SCENE)][0]
        assert all(row[c] == 1.0 for c in slits) and all(row[c] == 0.0 for c in gaps)

    def test_reported_ssim_matches(self, outputs):
        image = checks.read_pgm((outputs / "dgi" / "recon_dgi.pgm").read_bytes())[0] / checks.MAXVAL
        score = checks.ssim(image, checks.object_mask(SCENE))
        run.check_reported_ssim(outputs / "dgi", score)
        with pytest.raises(CheckFailed, match="reported SSIM"):
            run.check_reported_ssim(outputs / "dgi", score + 0.01)

    def test_ssim_agrees_with_its_definition(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((32, 32)), rng.random((32, 32))
        assert checks.ssim(a, a) == pytest.approx(1.0, abs=1e-12)
        expected = package_ssim(IntensityImage(a, 1.0), IntensityImage(b, 1.0))
        assert checks.ssim(a, b) == pytest.approx(expected, abs=1e-10)


class TestBenchmarkCsv:
    CELLS = [(0.25, m, s) for m in ("hspi", "dgi") for s in (0.0, 0.1)]

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench")
        (out / "scene.txt").write_text(SCENE.text())
        assert main(["benchmark", "--scene", str(out / "scene.txt"), "--cr", "0.25", "--methods", "hspi,dgi",
                     "--noise-sigma", "0,0.1", "--repeats", "2", "--out-dir", str(out)]) == 0
        return (out / "benchmark.csv").read_text()

    def test_rows_are_well_formed(self, table):
        rows = checks.check_benchmark_rows(table, self.CELLS, 2)
        assert [r[:3] for r in rows] == self.CELLS

    def test_rows_reject_a_missing_row(self, table):
        with pytest.raises(CheckFailed, match="rows"):
            checks.check_benchmark_rows("\n".join(table.splitlines()[:-1]), self.CELLS, 2)

    def test_rows_reject_other_repeats(self, table):
        with pytest.raises(CheckFailed, match="repeats"):
            checks.check_benchmark_rows(table, self.CELLS, 3)

    def test_rows_reject_ssim_out_of_range(self, table):
        lines = table.splitlines()
        fields = lines[1].split(",")
        fields[4] = "1.5"
        lines[1] = ",".join(fields)
        with pytest.raises(CheckFailed, match="SSIM"):
            checks.check_benchmark_rows("\n".join(lines), self.CELLS, 2)

    def test_plain_decimals(self):
        assert checks.plain_decimals("h\n0.25,hspi,0.1,2,0.9,0.0,1e-3,-2.5\n")
        assert not checks.plain_decimals("h\n0.25,hspi,0.1,2,np.float64(0.9),0.0,1.0,2.5\n")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "outer", 0.0, 10.0, 0, None),
        (2, "a", 1.0, 4.0, 1, None),
        (3, "b", 3.0, 6.0, 1, None),  # overlaps a, as pool threads do
        (4, "a", 8.0, 9.0, 1, None),
    ]
    own = self_times(spans)
    assert own["outer"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own["a"] == pytest.approx(4.0)
    assert own["b"] == pytest.approx(3.0)


def test_traced_round_reports_every_layer(tmp_path):
    (tmp_path / "scene.txt").write_text(SCENE.text())
    commands = [
        ["patterns", "--order", "32", "--count", "64", "--out", str(tmp_path / "p.spip")],
        ["simulate", "--scene", str(tmp_path / "scene.txt"), "--patterns", str(tmp_path / "p.spip"),
         "--out-dir", str(tmp_path / "sim")],
        ["reconstruct", "--measurement", str(tmp_path / "sim" / "measurement.csv"),
         "--patterns", str(tmp_path / "p.spip"), "--scene", str(tmp_path / "scene.txt"),
         "--method", "untrained", "--iterations", "3", "--out-dir", str(tmp_path / "rec")],
    ]
    run.run_child(tmp_path / "round", commands, trace=True)
    spans = json.loads((tmp_path / "round" / "spans.json").read_text())
    metrics = run.layer_metrics(spans, workers=1)
    assert metrics["prior.steps"] == 3
    assert metrics["network.forward_calls"] == 4  # three steps and the final image
    assert metrics["patterns.build_calls"] == 1
    assert metrics["propagation.calls"] == 1 + 2 * 3
    assert metrics["patterns.fwht_calls"] > 0 and metrics["patterns.fwht_s"] > 0
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {*metrics, "trace.overhead_s"} == {m["name"] for m in benchmark["per_layer"]}
