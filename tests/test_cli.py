import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import singlepixel
import singlepixel.cli as cli
from singlepixel.cli import main
from singlepixel.errors import SinglePixelError
from singlepixel.field import IntensityImage, normalize
from singlepixel.measurement import read_measurement_csv
from singlepixel.patterns import load_patterns
from singlepixel.pgm import read_pgm, write_pgm
from singlepixel.scenes import parse_scene

from conftest import star_mask

# The 0.7 mm gaps exceed the 0.66 mm pitch at 16 px, so every slit and gap
# covers a column at 16 and at 32 px, as the scene parser requires.
SCENE = """
grid = 16
fov = 10.5mm
wavelength = 833.3um
distance = 0.5mm
object = three_slit
slit_widths = 2mm, 1.5mm, 1.5mm
slit_separations = 0.7mm, 0.7mm
modulation_depth = 0.9
noise_sigma = 0.1
seed = 5
"""


@pytest.fixture
def workspace(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    patterns = tmp_path / "patterns.spip"
    assert main(["patterns", "--order", "16", "--count", "256", "--out", str(patterns)]) == 0
    return tmp_path, scene, patterns


def test_patterns_subcommand_writes_loadable_file(tmp_path):
    out = tmp_path / "p.spip"
    assert main(["patterns", "--order", "8", "--cr", "0.25", "--out", str(out)]) == 0
    pset = load_patterns(out)
    assert pset.order == 8
    assert pset.count == 16


def test_simulate_writes_expected_files(workspace):
    tmp_path, scene, patterns = workspace
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "object.pgm").exists()
    assert (out_dir / "diffracted.pgm").exists()
    meas = read_measurement_csv(out_dir / "measurement.csv")
    assert meas.count == 256
    assert meas.noise_sigma == 0.1
    assert meas.seed == 5


@pytest.mark.parametrize("flags, expected", [
    (["--seed", "7"], (0.1, 7)),
    (["--noise-sigma", "0.3"], (0.3, 5)),
    (["--noise-sigma", "0.3", "--seed", "7"], (0.3, 7)),
])
def test_simulate_flags_override_the_scene(workspace, flags, expected):
    tmp_path, scene, patterns = workspace
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
                 "--out-dir", str(out_dir), *flags]) == 0
    meas = read_measurement_csv(out_dir / "measurement.csv")
    assert (meas.noise_sigma, meas.seed) == expected


def test_simulate_reruns_are_byte_identical(workspace):
    tmp_path, scene, patterns = workspace
    a = tmp_path / "run_a"
    b = tmp_path / "run_b"
    for out_dir in (a, b):
        assert main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
                     "--out-dir", str(out_dir)]) == 0
    for name in ("object.pgm", "diffracted.pgm", "measurement.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("method", ["hspi", "dgi", "cstv"])
def test_reconstruct_classical_methods(workspace, method):
    tmp_path, scene, patterns = workspace
    sim_dir = tmp_path / "sim"
    main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
          "--out-dir", str(sim_dir)])
    out_dir = tmp_path / f"rec_{method}"
    code = main([
        "reconstruct",
        "--measurement", str(sim_dir / "measurement.csv"),
        "--patterns", str(patterns),
        "--scene", str(scene),
        "--method", method,
        "--iterations", "20",
        "--reference", str(sim_dir / "diffracted.pgm"),
        "--snr-mask", str(sim_dir / "object.pgm"),
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    assert (out_dir / f"recon_{method}.pgm").exists()
    metrics = (out_dir / "metrics.csv").read_text()
    assert "ssim," in metrics
    assert "snr," in metrics
    if method == "cstv":
        assert (out_dir / "loss_history.csv").exists()


def test_reconstruct_untrained_with_backprop_flag(workspace):
    tmp_path, scene, patterns = workspace
    sim_dir = tmp_path / "sim"
    main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
          "--out-dir", str(sim_dir)])
    out_dir = tmp_path / "rec_untrained"
    code = main([
        "reconstruct",
        "--measurement", str(sim_dir / "measurement.csv"),
        "--patterns", str(patterns),
        "--scene", str(scene),
        "--method", "untrained",
        "--iterations", "10",
        "--seed", "1",
        "--backprop-distance", "0.5mm",
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    img, comments = read_pgm(out_dir / "recon_untrained.pgm")
    assert comments["method"] == "untrained"
    history = (out_dir / "loss_history.csv").read_text().splitlines()
    assert history[0] == "iteration,loss"
    assert len(history) == 11


def test_reconstruct_cr_subsets_measurement(workspace):
    tmp_path, scene, patterns = workspace
    sim_dir = tmp_path / "sim"
    main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
          "--out-dir", str(sim_dir)])
    out_dir = tmp_path / "rec_cr"
    code = main([
        "reconstruct",
        "--measurement", str(sim_dir / "measurement.csv"),
        "--patterns", str(patterns),
        "--scene", str(scene),
        "--method", "hspi",
        "--cr", "0.25",
        "--out-dir", str(out_dir),
    ])
    assert code == 0


@pytest.mark.filterwarnings("error")
def test_tiny_cr_keeps_one_pattern_in_patterns_and_reconstruct(workspace):
    tmp_path, scene, _ = workspace
    patterns = tmp_path / "one.spip"
    assert main(["patterns", "--order", "16", "--cr", "1e-4", "--out", str(patterns)]) == 0
    assert load_patterns(patterns).count == 1
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
                 "--out-dir", str(sim_dir)]) == 0
    assert main(["reconstruct", "--measurement", str(sim_dir / "measurement.csv"),
                 "--patterns", str(patterns), "--scene", str(scene), "--method", "hspi",
                 "--cr", "1e-4", "--out-dir", str(tmp_path / "rec")]) == 0


@pytest.mark.filterwarnings("error")
def test_benchmark_of_an_all_inf_snr_writes_a_zero_spread(workspace):
    # one pattern, the constant row 0, gives a constant image: its SNR is inf
    tmp_path, scene, _ = workspace
    out_dir = tmp_path / "bench"
    assert main(["benchmark", "--scene", str(scene), "--cr", "1e-4", "--methods", "hspi",
                 "--repeats", "2", "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "benchmark.csv").read_text().splitlines()[1].endswith(",inf,0.0")


def test_reconstruct_with_slits_taller_than_the_field_exits_3(workspace, capsys):
    tmp_path, scene, patterns = workspace
    sim_dir = simulated(workspace)
    scene.write_text(SCENE + "slit_height = 11mm\n")
    assert main(["reconstruct", "--measurement", str(sim_dir / "measurement.csv"),
                 "--patterns", str(patterns), "--scene", str(scene), "--method", "hspi",
                 "--out-dir", str(tmp_path / "rec")]) == 3
    assert "error: invalid scene: slit height exceeds the field of view" in capsys.readouterr().err


def test_mismatched_pattern_file_exits_3(workspace, tmp_path):
    _, scene, patterns = workspace
    sim_dir = tmp_path / "sim"
    main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
          "--out-dir", str(sim_dir)])
    other = tmp_path / "other.spip"
    main(["patterns", "--order", "16", "--count", "256", "--ordering", "natural",
          "--out", str(other)])
    code = main([
        "reconstruct",
        "--measurement", str(sim_dir / "measurement.csv"),
        "--patterns", str(other),
        "--scene", str(scene),
        "--method", "hspi",
        "--out-dir", str(tmp_path / "rec"),
    ])
    assert code == 3


def test_corrupt_measurement_exits_3(workspace, tmp_path):
    _, scene, patterns = workspace
    bad = tmp_path / "bad.csv"
    bad.write_text("this is not a measurement\n")
    code = main([
        "reconstruct",
        "--measurement", str(bad),
        "--patterns", str(patterns),
        "--scene", str(scene),
        "--method", "hspi",
        "--out-dir", str(tmp_path / "rec"),
    ])
    assert code == 3


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--method", "warp"])
    assert exc.value.code == 2


def test_metrics_subcommand(tmp_path, capsys):
    star = star_mask(16, outer=0.4, inner=0.2)
    img_path = tmp_path / "a.pgm"
    ref_path = tmp_path / "b.pgm"
    write_pgm(img_path, star)
    write_pgm(ref_path, star)
    assert main(["metrics", "--image", str(img_path), "--reference", str(ref_path),
                 "--snr-mask", str(ref_path)]) == 0
    out = capsys.readouterr().out
    assert "ssim,1.0" in out
    assert "snr," in out


def metric_rows(text: str) -> dict:
    """metric -> value of a `metrics` CSV."""
    lines = text.splitlines()
    assert lines[0] == "metric,value"
    return dict(line.split(",") for line in lines[1:])


def test_metrics_scores_each_gap_of_a_three_slit_scene(workspace, capsys):
    """The scene's own object, drawn at 32 px and read at the image's grid:
    every gap is fully dark between bright slits."""
    tmp_path, scene, _ = workspace
    drawn = tmp_path / "scene32.txt"
    drawn.write_text(SCENE.replace("grid = 16", "grid = 32"))
    image = tmp_path / "object.pgm"
    write_pgm(image, cli.build_scene(parse_scene(drawn.read_text())))
    assert main(["metrics", "--image", str(image), "--scene", str(scene)]) == 0
    rows = metric_rows(capsys.readouterr().out)
    assert list(rows) == ["dip_gap1", "dip_gap2", "dip_mean"]
    assert [float(v) for v in rows.values()] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("scene_text", ["bitmap", None], ids=["bitmap scene", "missing file"])
def test_metrics_scene_without_gaps_exits_3(tmp_path, capsys, scene_text):
    image = tmp_path / "a.pgm"
    write_pgm(image, star_mask(16, outer=0.4, inner=0.2))
    scene = tmp_path / "scene.txt"
    if scene_text is not None:
        scene.write_text(SCENE.replace("object = three_slit",
                                       f"object = bitmap\nbitmap_path = {image}"))
    assert main(["metrics", "--image", str(image), "--scene", str(scene)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_metrics_prints_inf_for_a_constant_noise_region(tmp_path, capsys):
    """The star is 0 off its own mask, so its noise region is constant."""
    star = star_mask(16, outer=0.4, inner=0.2)
    img_path = tmp_path / "a.pgm"
    write_pgm(img_path, star)
    assert main(["metrics", "--image", str(img_path), "--snr-mask", str(img_path)]) == 0
    assert capsys.readouterr().out == "metric,value\nsnr,inf\n"


def test_benchmark_grid(workspace):
    tmp_path, scene, patterns = workspace
    out_dir = tmp_path / "bench"
    code = main([
        "benchmark",
        "--scene", str(scene),
        "--cr", "0.25,0.5",
        "--methods", "hspi,dgi",
        "--noise-sigma", "0,0.2",
        "--repeats", "2",
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    rows = (out_dir / "benchmark.csv").read_text().splitlines()
    assert rows[0] == "cr,method,noise_sigma,repeats,ssim_mean,ssim_std,snr_mean,snr_std"
    assert len(rows) == 1 + 2 * 2 * 2
    for row in rows[1:]:
        fields = row.split(",")
        del fields[1]  # method
        for field in fields:
            float(field)


@pytest.mark.parametrize("sigmas", [(0.1, 0.116777216), (0.0, 0.016777216)])
def test_cell_seed_tells_close_noise_levels_apart(sigmas):
    # 2**24 * 1e-9 apart: a key of int(sigma * 1e9) & 0xFFFFFF made these collide
    seeds = {cli._cell_seed(0, 0.25, "hspi", sigma, 0) for sigma in sigmas}
    assert len(seeds) == 2


def test_benchmark_identical_across_blas_threads(workspace):
    """BLAS is the only parallelism of `benchmark`: one BLAS thread and the
    default count write the same bytes.  The command reads no environment
    variable, so an empty `SPI_THREADS` changes nothing."""
    tmp_path, scene, _ = workspace
    scene.write_text(SCENE.replace("grid = 16", "grid = 32"))
    src = str(Path(singlepixel.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    outs = []
    for name, env in (("one", dict(base, OPENBLAS_NUM_THREADS="1", SPI_THREADS="")),
                      ("default", base)):
        out_dir = tmp_path / f"bench_{name}"
        subprocess.run(
            [sys.executable, "-m", "singlepixel.cli", "benchmark", "--scene", str(scene),
             "--cr", "0.25", "--methods", ",".join(cli.METHODS), "--noise-sigma", "0,0.1",
             "--repeats", "2", "--iterations", "5", "--out-dir", str(out_dir)],
            env=env, check=True, timeout=120,
        )
        outs.append((out_dir / "benchmark.csv").read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 1 + len(cli.METHODS) * 2


@pytest.mark.parametrize("flag", ["--cr", "--noise-sigma"])
@pytest.mark.parametrize("value", ["abc", "", "0.25,x"], ids=["abc", "empty", "0.25,x"])
def test_malformed_benchmark_list_is_a_usage_error(workspace, capsys, flag, value):
    tmp_path, scene, _ = workspace
    args = {"--cr": "0.25", "--noise-sigma": "0", flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["benchmark", "--scene", str(scene), *(x for kv in args.items() for x in kv),
              "--methods", "hspi", "--out-dir", str(tmp_path / "bench")])
    assert exc.value.code == 2
    assert f"argument {flag}: not a comma-separated list of numbers" in capsys.readouterr().err
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("sigma", ["nan", "inf", "-0.1"])
def test_benchmark_noise_sigma_out_of_range_exits_3(workspace, capsys, sigma):
    tmp_path, scene, _ = workspace
    out_dir = tmp_path / "bench"
    assert main(["benchmark", "--scene", str(scene), "--cr", "0.25", "--methods", "hspi",
                 "--noise-sigma", f"0,{sigma}", "--out-dir", str(out_dir)]) == 3
    assert "is not finite and >= 0" in capsys.readouterr().err
    assert not out_dir.exists()  # made only before the first write


def test_benchmark_identical_across_hash_seeds(workspace):
    tmp_path, scene, _ = workspace
    env = dict(os.environ, PYTHONPATH=str(Path(singlepixel.__file__).resolve().parents[1]))
    outs = []
    for hash_seed in ("1", "2"):
        out_dir = tmp_path / f"bench_{hash_seed}"
        subprocess.run(
            [sys.executable, "-m", "singlepixel.cli", "benchmark", "--scene", str(scene),
             "--cr", "0.25", "--methods", "hspi,dgi", "--noise-sigma", "0.1",
             "--out-dir", str(out_dir)],
            env={**env, "PYTHONHASHSEED": hash_seed}, check=True, timeout=120,
        )
        outs.append((out_dir / "benchmark.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("bad_scene,bad_rows", [
    ("grid = abc", None),
    ("seed = 1.5", None),
    (None, "x,1.0"),
    (None, "0,abc"),
])
def test_malformed_scene_or_measurement_exits_3(workspace, tmp_path, capsys, bad_scene, bad_rows):
    _, scene, patterns = workspace
    if bad_scene is not None:
        scene.write_text(SCENE + bad_scene + "\n")
    measurement = tmp_path / "m.csv"
    measurement.write_text("index,reading\n" + (bad_rows or "0,1.0") + "\n")
    code = main([
        "reconstruct", "--measurement", str(measurement), "--patterns", str(patterns),
        "--scene", str(scene), "--method", "hspi", "--out-dir", str(tmp_path / "rec"),
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_scene_with_a_vanished_gap_exits_3(workspace, capsys):
    # FIG4C at the default 64 px over 10.5 mm: one 118 um gap covers no column
    tmp_path, scene, patterns = workspace
    scene.write_text("object = three_slit\n"
                     "slit_widths = 1217um, 884um, 920um\n"
                     "slit_separations = 118um, 118um\n")
    code = main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
                 "--out-dir", str(tmp_path / "sim")])
    assert code == 3
    assert "covers no pixel column" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("bad_file", ["scene", "measurement"])
def test_non_utf8_input_exits_3(workspace, tmp_path, capsys, bad_file):
    _, scene, patterns = workspace
    measurement = tmp_path / "m.csv"
    measurement.write_text("index,reading\n0,1.0\n")
    target = scene if bad_file == "scene" else measurement
    target.write_bytes(b"\xff\xfe" + target.read_bytes())
    code = main([
        "reconstruct", "--measurement", str(measurement), "--patterns", str(patterns),
        "--scene", str(scene), "--method", "hspi", "--out-dir", str(tmp_path / "rec"),
    ])
    assert code == 3
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_benchmark_scores_untrained_against_the_object(tmp_path, monkeypatch):
    """The generator reconstructs the object plane, so benchmark.csv takes
    its SSIM against the object, which it matches better than the
    diffraction plane the classical methods are scored against."""
    spec = parse_scene(SCENE.replace("grid = 16", "grid = 32"))
    images = []

    def spy(image, reference):
        images.append(image)
        return real_ssim(image, reference)

    real_ssim = cli.ssim
    monkeypatch.setattr(cli, "ssim", spy)
    rows = cli.run_benchmark(spec, [0.25], ["untrained"], [0.0], 1, tmp_path / "b.csv",
                             iterations=30)
    (image,) = images
    obj, diffracted = cli.diffract_scene(spec)
    against_object = real_ssim(image, obj)
    against_diffraction = real_ssim(image, normalize(diffracted.values))
    assert float(rows[1].split(",")[4]) == against_object
    assert against_object > against_diffraction


RECONSTRUCTOR_NAMES = ("hspi_reconstruct", "dgi_reconstruct", "cstv_reconstruct",
                       "reconstruct_untrained")


def simulated(workspace):
    tmp_path, scene, patterns = workspace
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
                 "--out-dir", str(sim_dir)]) == 0
    return sim_dir


def test_dispatch_reaches_the_cli_module_attributes(workspace, monkeypatch):
    """`reconstruct` and `benchmark` call each reconstructor through its name
    on the cli module, looked up at call time, so a wrapper set on that
    attribute (a timer, a tracer) sees every call."""
    tmp_path, scene, patterns = workspace
    sim_dir = simulated(workspace)
    calls = dict.fromkeys(RECONSTRUCTOR_NAMES, 0)
    for name in RECONSTRUCTOR_NAMES:
        def spy(*args, _name=name, _real=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    for method in cli.METHODS:
        assert main(["reconstruct", "--measurement", str(sim_dir / "measurement.csv"),
                     "--patterns", str(patterns), "--scene", str(scene), "--method", method,
                     "--iterations", "2", "--out-dir", str(tmp_path / f"rec_{method}")]) == 0
    assert calls == dict.fromkeys(RECONSTRUCTOR_NAMES, 1)
    assert main(["benchmark", "--scene", str(scene), "--cr", "0.25",
                 "--methods", ",".join(cli.METHODS), "--iterations", "2",
                 "--out-dir", str(tmp_path / "bench")]) == 0
    assert calls == dict.fromkeys(RECONSTRUCTOR_NAMES, 2)


def test_reconstruct_of_zero_readings_writes_degenerate_ssim(workspace):
    tmp_path, scene, patterns = workspace
    sim_dir = simulated(workspace)
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("index,reading\n" + "".join(f"{i},0.0\n" for i in range(256)))
    for method in ("hspi", "dgi", "cstv"):
        out_dir = tmp_path / f"rec_{method}"
        assert main(["reconstruct", "--measurement", str(zeros), "--patterns", str(patterns),
                     "--scene", str(scene), "--method", method,
                     "--reference", str(sim_dir / "diffracted.pgm"),
                     "--out-dir", str(out_dir)]) == 0
        rows = (out_dir / "metrics.csv").read_text().splitlines()
        assert rows[-1] == "ssim,degenerate"


def test_metrics_of_a_constant_image_writes_degenerate_ssim(tmp_path):
    img_path, ref_path, out = tmp_path / "flat.pgm", tmp_path / "star.pgm", tmp_path / "m.csv"
    write_pgm(img_path, IntensityImage(values=np.full((16, 16), 0.5)))
    write_pgm(ref_path, star_mask(16, outer=0.4, inner=0.2))
    assert main(["metrics", "--image", str(img_path), "--reference", str(ref_path),
                 "--snr-mask", str(ref_path), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[:2] == ["metric,value", "ssim,degenerate"]
    assert rows[2].startswith("snr,")


def test_unknown_method_is_rejected(workspace, capsys):
    tmp_path, scene, patterns = workspace
    sim_dir = simulated(workspace)
    out_dir = tmp_path / "rec_warp"
    with pytest.raises(SinglePixelError, match="unknown method 'warp'"):
        cli.run_reconstruct(sim_dir / "measurement.csv", patterns, "warp",
                            parse_scene(SCENE), out_dir)
    assert not out_dir.exists()
    assert main(["benchmark", "--scene", str(scene), "--cr", "0.25", "--methods", "hspi,warp",
                 "--out-dir", str(tmp_path / "bench")]) == 3
    assert "unknown method 'warp'" in capsys.readouterr().err


@pytest.mark.parametrize("iterations", ["0", "-1"])
def test_non_positive_iterations_exit_3(workspace, capsys, iterations):
    """`--iterations` below 1 is rejected by every method of both commands,
    before a reconstruction runs or an output is written."""
    tmp_path, scene, patterns = workspace
    sim_dir = simulated(workspace)
    for method in cli.METHODS:
        out_dir = tmp_path / f"rec_{method}"
        assert main(["reconstruct", "--measurement", str(sim_dir / "measurement.csv"),
                     "--patterns", str(patterns), "--scene", str(scene), "--method", method,
                     "--iterations", iterations, "--out-dir", str(out_dir)]) == 3
        assert not out_dir.exists()
        assert "iterations must be >= 1" in capsys.readouterr().err
        bench_dir = tmp_path / f"bench_{method}"
        assert main(["benchmark", "--scene", str(scene), "--cr", "0.25", "--methods", method,
                     "--iterations", iterations, "--out-dir", str(bench_dir)]) == 3
        assert not (bench_dir / "benchmark.csv").exists()
        assert "iterations must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("cr", ["nan", "inf", "0", "-0.5"])
def test_cr_outside_unit_interval_exits_3(workspace, capsys, cr):
    """`--cr` outside (0, 1] is rejected by `reconstruct` and `patterns`
    before any rounding, and neither command writes an output file."""
    tmp_path, scene, patterns = workspace
    sim_dir = simulated(workspace)
    out_dir = tmp_path / "rec"
    assert main(["reconstruct", "--measurement", str(sim_dir / "measurement.csv"),
                 "--patterns", str(patterns), "--scene", str(scene), "--method", "hspi",
                 "--cr", cr, "--out-dir", str(out_dir)]) == 3
    assert f"compression ratio {float(cr)} outside (0, 1]" in capsys.readouterr().err
    assert not out_dir.exists()
    out = tmp_path / "p.spip"
    assert main(["patterns", "--order", "8", "--cr", cr, "--out", str(out)]) == 3
    assert f"compression ratio {float(cr)} outside (0, 1]" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("where", ["flag", "scene"])
@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_simulate_non_finite_noise_sigma_exits_3(workspace, capsys, where, sigma):
    tmp_path, scene, patterns = workspace
    args = ["simulate", "--scene", str(scene), "--patterns", str(patterns),
            "--out-dir", str(tmp_path / "sim")]
    if where == "flag":
        args += ["--noise-sigma", sigma]
    else:
        scene.write_text(SCENE.replace("noise_sigma = 0.1", f"noise_sigma = {sigma}"))
    assert main(args) == 3
    assert f"noise sigma {float(sigma)} is not finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "sim" / "measurement.csv").exists()


@pytest.mark.parametrize("method", cli.METHODS)
@pytest.mark.parametrize("weight", ["nan", "inf", "-1"])
def test_non_finite_tv_weight_exits_3(workspace, capsys, monkeypatch, method, weight):
    """A `--tv-weight` that is not finite and >= 0 is a parameter error for
    every method, also those that read no weight, raised before any input
    file is read."""
    tmp_path, scene, patterns = workspace

    def no_work(*args, **kwargs):
        raise AssertionError("an input file was read")

    monkeypatch.setattr(cli, "read_measurement_csv", no_work)
    monkeypatch.setattr(cli, "load_patterns", no_work)
    out_dir = tmp_path / "rec"
    assert main(["reconstruct", "--measurement", str(tmp_path / "measurement.csv"),
                 "--patterns", str(patterns), "--scene", str(scene), "--method", method,
                 "--iterations", "3", "--tv-weight", weight, "--out-dir", str(out_dir)]) == 3
    assert f"error: tv_weight {float(weight)} is not finite and >= 0" in capsys.readouterr().err
    assert not out_dir.exists()  # made only before the first write


def test_subnormal_tv_weight_runs_cstv(workspace):
    """A positive `--tv-weight` too small for the prox's dual step (0.25 over
    it overflows) regularizes nothing; the solve neither warns nor diverges."""
    tmp_path, scene, patterns = workspace
    sim_dir = simulated(workspace)
    for weight in ("1e-310", "0"):
        assert main(["reconstruct", "--measurement", str(sim_dir / "measurement.csv"),
                     "--patterns", str(patterns), "--scene", str(scene), "--method", "cstv",
                     "--iterations", "5", "--tv-weight", weight,
                     "--out-dir", str(tmp_path / f"rec_{weight}")]) == 0
    assert ((tmp_path / "rec_1e-310" / "recon_cstv.pgm").read_bytes()
            == (tmp_path / "rec_0" / "recon_cstv.pgm").read_bytes())


@pytest.mark.parametrize("key", ["fov", "wavelength", "distance", "slit_height"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_non_finite_scene_length_names_the_key(workspace, capsys, key, value):
    tmp_path, scene, patterns = workspace
    lines = [ln for ln in SCENE.splitlines() if not ln.startswith(f"{key} =")]
    scene.write_text("\n".join(lines) + f"\n{key} = {value}mm\n")
    assert main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
                 "--out-dir", str(tmp_path / "sim")]) == 3
    assert f"error: invalid scene: {key} {float(value)} outside (" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("key", ["slit_widths", "slit_separations"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_simulate_bad_slit_value_names_the_key(workspace, capsys, key, value):
    tmp_path, scene, patterns = workspace
    first = {"slit_widths": "2mm", "slit_separations": "0.7mm"}[key]
    scene.write_text(SCENE.replace(f"{key} = {first}", f"{key} = {value}mm"))
    assert main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
                 "--out-dir", str(tmp_path / "sim")]) == 3
    expected = f"error: invalid scene: {key} {float(value) * 1e-3} outside (0.0, inf)"
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_pattern_file_with_a_repeated_mask_exits_3(workspace, capsys):
    tmp_path, scene, _ = workspace
    blob = bytearray((tmp_path / "patterns.spip").read_bytes())
    blob[15 + 2 * 256 : 15 + 3 * 256] = blob[15 + 256 : 15 + 2 * 256]  # mask 2 := mask 1
    repeated = tmp_path / "repeated.spip"
    repeated.write_bytes(bytes(blob))
    assert main(["simulate", "--scene", str(scene), "--patterns", str(repeated),
                 "--out-dir", str(tmp_path / "sim")]) == 3
    assert "error: mask 2 (starting at byte 527) repeats mask 1" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_pattern_file_of_no_masks_exits_3(workspace, capsys):
    """A SPIP header that counts 0 masks is refused at its count field by
    `simulate`, and by `reconstruct` against a measurement of 0 readings."""
    tmp_path, scene, _ = workspace
    empty = tmp_path / "empty.spip"
    empty.write_bytes(struct.pack("<4sHIIB", b"SPIP", 1, 16, 0, 0))
    no_readings = tmp_path / "empty.csv"
    no_readings.write_text("index,reading\n")
    assert main(["simulate", "--scene", str(scene), "--patterns", str(empty),
                 "--out-dir", str(tmp_path / "sim")]) == 3
    for method in ("hspi", "cstv"):
        assert main(["reconstruct", "--measurement", str(no_readings), "--patterns", str(empty),
                     "--scene", str(scene), "--method", method,
                     "--out-dir", str(tmp_path / method)]) == 3
    assert capsys.readouterr().err.count("error: pattern file holds no masks (count 0 at byte 10)") == 3
    assert not any((tmp_path / name).exists() for name in ("sim", "hspi", "cstv"))


def test_scene_with_a_repeated_key_exits_3(workspace, capsys):
    tmp_path, scene, patterns = workspace
    scene.write_text(SCENE + "grid = 32\n")
    assert main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
                 "--out-dir", str(tmp_path / "sim")]) == 3
    assert "error: scene key 'grid' on line 12 repeats line 2" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["hspi", "dgi", "cstv"])
def test_non_finite_backprop_distance_exits_3_for_every_method(workspace, capsys, method):
    """The distance is part of the propagation geometry every method is
    given, so it is checked even where only the generator reads it."""
    tmp_path, scene, patterns = workspace
    sim_dir = simulated(workspace)
    assert main(["reconstruct", "--measurement", str(sim_dir / "measurement.csv"),
                 "--patterns", str(patterns), "--scene", str(scene), "--method", method,
                 "--backprop-distance=nan", "--out-dir", str(tmp_path / "rec")]) == 3
    assert "error: propagation distance must be finite" in capsys.readouterr().err
    assert not (tmp_path / "rec").exists()


def test_simulate_with_slits_of_no_row_exits_3(workspace, capsys):
    """A 10 um band at the 328 um pitch of 32 px covers no row: the scene is
    rejected, not drawn as an all-zero object."""
    tmp_path, scene, _ = workspace
    scene.write_text(SCENE.replace("grid = 16", "grid = 32") + "slit_height = 10um\n")
    patterns = tmp_path / "p32.spip"
    assert main(["patterns", "--order", "32", "--count", "64", "--out", str(patterns)]) == 0
    assert main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
                 "--out-dir", str(tmp_path / "sim")]) == 3
    assert capsys.readouterr().err == ("error: invalid scene: "
                                       "the slits cover no pixel row at grid 32\n")
    assert not (tmp_path / "sim").exists()


def test_metrics_image_too_coarse_for_the_slit_band_exits_3(tmp_path, capsys):
    """A 0.4 mm band covers rows of the 32 px scene but none of a 16 px image."""
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE.replace("grid = 16", "grid = 32") + "slit_height = 0.4mm\n")
    image = tmp_path / "a.pgm"
    write_pgm(image, IntensityImage(values=np.ones((16, 16))))
    assert main(["metrics", "--image", str(image), "--scene", str(scene)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the slits cover no pixel row at grid 16\n"


def test_failed_simulate_makes_no_output_directory(workspace, capsys):
    """`simulate` makes its output directory only before its first write."""
    tmp_path, scene, patterns = workspace
    scene.write_text(SCENE.replace("object = three_slit",
                                   f"object = bitmap\nbitmap_path = {tmp_path / 'missing.pgm'}"))
    assert main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
                 "--out-dir", str(tmp_path / "sim")]) == 3
    assert "missing.pgm" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("command", ["simulate", "reconstruct", "benchmark"])
def test_out_dir_under_a_file_exits_3_before_the_work(workspace, capsys, monkeypatch, command):
    tmp_path, scene, patterns = workspace
    sim_dir = simulated(workspace)
    (tmp_path / "file.txt").write_text("")
    out_dir = tmp_path / "file.txt" / "out"

    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(cli, "diffract_scene", no_work)
    monkeypatch.setattr(cli, "read_measurement_csv", no_work)
    argv = {
        "simulate": ["--patterns", str(patterns)],
        "reconstruct": ["--measurement", str(sim_dir / "measurement.csv"),
                        "--patterns", str(patterns), "--method", "cstv"],
        "benchmark": ["--cr", "0.25", "--methods", "hspi"],
    }[command]
    assert main([command, "--scene", str(scene), *argv, "--out-dir", str(out_dir)]) == 3
    expected = f"error: cannot make output directory {out_dir}: {tmp_path / 'file.txt'} is not a directory"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("flag,problem", [
    ("--reference", "missing"), ("--reference", "misshapen"), ("--reference", "below the window"),
    ("--snr-mask", "missing"), ("--snr-mask", "misshapen"),
    ("--snr-mask", "all black"), ("--snr-mask", "all white"),
])
def test_bad_reference_file_exits_3_before_the_work(workspace, capsys, monkeypatch, flag,
                                                    problem):
    """A reference or SNR mask that cannot score the reconstruction fails
    before any reconstructor runs and before the output directory is made."""
    tmp_path, scene, patterns = workspace
    sim_dir = simulated(workspace)
    path = tmp_path / "ref.pgm"
    if problem == "misshapen":
        write_pgm(path, IntensityImage(values=np.full((4, 4), 0.5)))
    elif problem.startswith("all "):  # no signal region, or no noise region
        write_pgm(path, IntensityImage(values=np.full((16, 16), float(problem == "all white"))))
    elif problem == "below the window":
        # an order-8 pattern grid is smaller than the 11 px SSIM window
        patterns = tmp_path / "p8.spip"
        assert main(["patterns", "--order", "8", "--count", "64", "--out", str(patterns)]) == 0
        sim_dir = tmp_path / "sim8"
        assert main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
                     "--out-dir", str(sim_dir)]) == 0
        write_pgm(path, IntensityImage(values=np.full((8, 8), 0.5)))

    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    for name in RECONSTRUCTOR_NAMES:
        monkeypatch.setattr(cli, name, no_work)
    out_dir = tmp_path / "rec"
    capsys.readouterr()
    for method in cli.METHODS:
        assert main(["reconstruct", "--measurement", str(sim_dir / "measurement.csv"),
                     "--patterns", str(patterns), "--scene", str(scene), "--method", method,
                     flag, str(path), "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_negative_scene_seed_exits_3(workspace, capsys, command):
    tmp_path, scene, patterns = workspace
    scene.write_text(SCENE.replace("seed = 5", "seed = -1"))
    argv = {"simulate": ["--patterns", str(patterns)],
            "benchmark": ["--cr", "0.25", "--methods", "hspi"]}[command]
    out_dir = tmp_path / "out"
    assert main([command, "--scene", str(scene), *argv, "--out-dir", str(out_dir)]) == 3
    assert capsys.readouterr().err == "error: invalid scene: seed -1 is negative\n"
    assert not out_dir.exists()


def test_negative_simulate_seed_exits_3(workspace, capsys):
    tmp_path, scene, patterns = workspace
    assert main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
                 "--seed", "-5", "--out-dir", str(tmp_path / "sim")]) == 3
    assert capsys.readouterr().err == "error: seed -5 is negative\n"
    assert not (tmp_path / "sim").exists()


def test_negative_reconstruct_seed_exits_3_for_every_method(workspace, capsys, monkeypatch):
    """Only the generator reads `--seed`, but every method rejects a negative
    one, before any reconstructor runs."""
    tmp_path, scene, patterns = workspace
    sim_dir = simulated(workspace)

    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    for name in RECONSTRUCTOR_NAMES:
        monkeypatch.setattr(cli, name, no_work)
    capsys.readouterr()
    for method in cli.METHODS:
        out_dir = tmp_path / f"rec_{method}"
        assert main(["reconstruct", "--measurement", str(sim_dir / "measurement.csv"),
                     "--patterns", str(patterns), "--scene", str(scene), "--method", method,
                     "--seed", "-1", "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err == "error: seed -1 is negative\n"
        assert not out_dir.exists()


@pytest.mark.parametrize("fill,message", [
    (0.0, "signal region is empty"), (1.0, "noise region needs at least 2 pixels"),
], ids=["all black", "all white"])
def test_benchmark_without_snr_regions_exits_3_before_the_work(workspace, capsys, monkeypatch,
                                                               fill, message):
    tmp_path, scene, _ = workspace
    bitmap = tmp_path / "flat.pgm"
    write_pgm(bitmap, IntensityImage(values=np.full((16, 16), fill)))
    scene.write_text(SCENE.replace("object = three_slit",
                                   f"object = bitmap\nbitmap_path = {bitmap}"))
    calls = []
    for name in RECONSTRUCTOR_NAMES:
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: calls.append(_name))
    out_dir = tmp_path / "bench"
    assert main(["benchmark", "--scene", str(scene), "--cr", "0.25",
                 "--methods", ",".join(cli.METHODS), "--out-dir", str(out_dir)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []
    assert not (out_dir / "benchmark.csv").exists()


def test_benchmark_below_the_ssim_window_exits_3_before_the_work(workspace, capsys, monkeypatch):
    """An 8 px scene is smaller than the 11 px SSIM window that scores every
    cell, so the run fails before the first reconstruction."""
    tmp_path, scene, _ = workspace
    bitmap = tmp_path / "star.pgm"
    write_pgm(bitmap, star_mask(8, outer=0.4, inner=0.2))
    scene.write_text(SCENE.replace("grid = 16", "grid = 8").replace(
        "object = three_slit", f"object = bitmap\nbitmap_path = {bitmap}"))
    calls = []
    for name in RECONSTRUCTOR_NAMES:
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: calls.append(_name))
    out_dir = tmp_path / "bench"
    assert main(["benchmark", "--scene", str(scene), "--cr", "0.25",
                 "--methods", "hspi,untrained", "--out-dir", str(out_dir)]) == 3
    assert capsys.readouterr().err == "error: image smaller than the SSIM window\n"
    assert calls == []
    assert not (out_dir / "benchmark.csv").exists()


@pytest.mark.parametrize("damaged,damage,message", [
    ("scene", lambda b: b.replace(b"=", b":", 1), "is not key=value"),
    ("measurement", lambda b: b.replace(b"\n0,", b"\n0;", 1), "malformed measurement row 0"),
    ("reference", lambda b: b[:-1], "raster has"),
], ids=["scene", "measurement", "pgm"])
def test_damaged_input_file_exits_3(workspace, capsys, damaged, damage, message):
    """One damaged file per parser (scene, measurement CSV, PGM) through
    cli.main: a typed error on standard error and exit code 3."""
    tmp_path, scene, patterns = workspace
    sim_dir = simulated(workspace)
    files = {"scene": scene, "measurement": sim_dir / "measurement.csv",
             "reference": sim_dir / "object.pgm"}
    files[damaged].write_bytes(damage(files[damaged].read_bytes()))
    capsys.readouterr()
    code = main(["reconstruct", "--measurement", str(files["measurement"]),
                 "--patterns", str(patterns), "--scene", str(scene), "--method", "hspi",
                 "--reference", str(files["reference"]), "--out-dir", str(tmp_path / "rec")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


FIG4C_IN_SILICON = f"""
grid = 256
fov = 5.25mm
wavelength = {833.3 / 3.417!r}um  # vacuum 833.3 um in silicon, n = 3.417
distance = 0.5mm
object = three_slit
slit_widths = 1217um, 884um, 920um
slit_separations = 118um, 118um
"""


def test_untrained_resolves_fig4c_simulated_four_times_finer(tmp_path):
    """The paper's 118 um gaps behind the 500 um silicon wafer (n = 3.417),
    simulated at 256 px and read through an order-64 pattern file, scored
    by `metrics --scene` at the pattern grid.  The untrained generator,
    which models the 64 px grid, resolves each gap; HSPI, which does not
    model the propagation, resolves neither."""
    scene = tmp_path / "fig4c.txt"
    scene.write_text(FIG4C_IN_SILICON)
    patterns = tmp_path / "p64.spip"
    assert main(["patterns", "--order", "64", "--cr", "0.25", "--out", str(patterns)]) == 0
    assert main(["simulate", "--scene", str(scene), "--patterns", str(patterns),
                 "--out-dir", str(tmp_path / "sim")]) == 0
    dips = {}
    for method in ("untrained", "hspi"):
        rec = tmp_path / method
        assert main(["reconstruct", "--measurement", str(tmp_path / "sim" / "measurement.csv"),
                     "--patterns", str(patterns), "--scene", str(scene), "--method", method,
                     "--seed", "0", "--out-dir", str(rec)]) == 0
        assert main(["metrics", "--image", str(rec / f"recon_{method}.pgm"),
                     "--scene", str(scene), "--out", str(rec / "dips.csv")]) == 0
        dips[method] = {k: float(v) for k, v in metric_rows((rec / "dips.csv").read_text()).items()}
    assert min(dips["untrained"]["dip_gap1"], dips["untrained"]["dip_gap2"]) > 0.8, dips
    assert dips["hspi"]["dip_mean"] < 0.3, dips


def test_hspi_from_a_pattern_file_far_larger_than_its_memory(tmp_path):
    """`patterns`, `simulate` and `reconstruct` stream a 32 MiB pattern file
    (2048 masks of 128 px) in blocks: none of them holds it whole."""
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE.replace("grid = 16", "grid = 128"))
    patterns = tmp_path / "p128.spip"
    sim_dir, rec_dir = tmp_path / "sim", tmp_path / "rec"
    commands = [
        ["patterns", "--order", "128", "--count", "2048", "--out", str(patterns)],
        ["simulate", "--scene", str(scene), "--patterns", str(patterns), "--out-dir", str(sim_dir)],
        ["reconstruct", "--measurement", str(sim_dir / "measurement.csv"),
         "--patterns", str(patterns), "--scene", str(scene), "--method", "hspi",
         "--out-dir", str(rec_dir)],
    ]
    for argv in commands:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (argv[0], peak)
    assert patterns.stat().st_size == 15 + 2048 * 128 * 128
    assert (rec_dir / "recon_hspi.pgm").exists()
