"""Command-line harness: scene simulation, reconstruction, benchmarking,
metric evaluation, and pattern-file generation.

Exit codes: 0 success, 2 usage error, 3 input-format/consistency error,
4 numerical failure.  All file writes are atomic (temp file + rename).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .classical import DEFAULT_CSTV_ITERATIONS, cstv_reconstruct, dgi_reconstruct, hspi_reconstruct
from .errors import ConsistencyError, DimensionError, NumericalError, ParameterError, SinglePixelError
from .field import IntensityImage, normalize
from .measurement import (
    Measurement,
    diffract,
    measure,
    read_measurement_csv,
    write_measurement_csv,
)
from .metrics import check_ssim_size, gap_dips, signal_region, snr, ssim
from .patterns import (
    PatternSet,
    load_patterns,
    save_patterns,
    walsh_hadamard_patterns,
)
from .pgm import read_pgm, write_pgm
from .prior import DEFAULT_ITERATIONS, reconstruct_untrained
from .propagation import PropagationSpec
from .scenes import SceneSpec, build_scene, load_scene, parse_length
from .tvreg import check_tv_weight


class Settings(NamedTuple):
    """What a reconstructor reads besides the data.

    CS-TV reads `cstv_iterations` and `tv_weight` (None: its default).  The
    generator reads `prop`, the propagation geometry of the pattern grid,
    `iterations`, `seed` and `tv_weight` (None: its default).
    """

    prop: PropagationSpec
    iterations: int = DEFAULT_ITERATIONS
    cstv_iterations: int = DEFAULT_CSTV_ITERATIONS
    seed: int = 0
    tv_weight: float | None = None


# name -> reconstructor(meas, pattern_set, settings).  Each entry looks its
# function up on this module when called, so a wrapper set on the module
# attribute (a timer or tracer) sees every call.
RECONSTRUCTORS = {
    "hspi": lambda meas, pset, s: hspi_reconstruct(meas, pset),
    "dgi": lambda meas, pset, s: dgi_reconstruct(meas, pset),
    "cstv": lambda meas, pset, s: cstv_reconstruct(
        meas, pset, tv_weight=s.tv_weight, max_iters=s.cstv_iterations
    ),
    "untrained": lambda meas, pset, s: reconstruct_untrained(
        meas, pset, s.prop, iterations=s.iterations, seed=s.seed, tv_weight=s.tv_weight
    ),
}
METHODS = tuple(RECONSTRUCTORS)


def _check_method(method: str) -> None:
    if method not in RECONSTRUCTORS:
        raise SinglePixelError(f"unknown method {method!r}")


def _check_iterations(iterations: int) -> None:
    if iterations < 1:
        raise SinglePixelError(f"iterations must be >= 1, got {iterations}")


def _check_cr(cr: float) -> None:
    if not 0 < cr <= 1:  # also rejects nan
        raise SinglePixelError(f"compression ratio {cr} outside (0, 1]")


def _pattern_count(cr: float, pixels: int) -> int:
    """Patterns that compression ratio `cr` keeps of `pixels`: the nearest
    whole number, and at least one."""
    return max(1, int(round(cr * pixels)))


def _check_out_dir(path) -> None:
    """Fail before the work if `path` cannot become a writable directory: its
    nearest existing ancestor must be one.  It is made only before the first write."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise NotADirectoryError(f"cannot make output directory {path}: {probe} is not a directory")
    if not os.access(probe, os.W_OK | os.X_OK):
        raise PermissionError(f"cannot write to output directory {path}: {probe} is not writable")


def _atomic_write(path, writer) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_csv(path, lines) -> None:
    text = "\n".join(lines) + "\n"

    def writer(tmp):
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    _atomic_write(path, writer)


def diffract_scene(spec: SceneSpec):
    """Object mask and its propagated intensity at the recording plane."""
    obj = build_scene(spec)
    return obj, diffract(obj, spec.propagation())


def run_simulate(spec: SceneSpec, pattern_set: PatternSet, out_dir):
    """Object -> field -> propagate -> intensity -> measure; writes files."""
    _check_out_dir(out_dir)
    obj, diffracted = diffract_scene(spec)
    meas = measure(diffracted, pattern_set, noise_sigma=spec.noise_sigma, seed=spec.seed)

    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(
        os.path.join(out_dir, "object.pgm"), lambda p: write_pgm(p, obj, {"scale": "1"})
    )
    _atomic_write(
        os.path.join(out_dir, "diffracted.pgm"),
        lambda p: write_pgm(p, normalize(diffracted.values),
                            {"scale": repr(float(diffracted.values.max()))}),
    )
    _atomic_write(
        os.path.join(out_dir, "measurement.csv"), lambda p: write_measurement_csv(p, meas)
    )
    return diffracted, meas


def _truncate(meas: Measurement, pattern_set: PatternSet, cr: float | None):
    if cr is None:
        return meas, pattern_set
    count = _pattern_count(cr, pattern_set.pixels)
    if count > min(meas.count, pattern_set.count):
        raise ConsistencyError(
            f"cr={cr} needs {count} patterns; have {pattern_set.count} patterns "
            f"and {meas.count} readings"
        )
    return replace(meas, readings=meas.readings[:count]), pattern_set.subset(count)


def run_reconstruct(
    meas_path,
    patterns_path,
    method: str,
    scene: SceneSpec,
    out_dir,
    cr: float | None = None,
    iterations: int | None = None,
    seed: int = 0,
    backprop_distance: float | None = None,
    tv_weight: float | None = None,
    reference_path=None,
    snr_mask_path=None,
):
    """Dispatch one reconstruction and write image + metrics files."""
    _check_method(method)
    if iterations is not None:
        _check_iterations(iterations)
    if seed < 0:
        raise ParameterError(f"seed {seed} is negative")
    if tv_weight is not None:  # None keeps each method's default
        check_tv_weight(tv_weight)
    if cr is not None:
        _check_cr(cr)
    _check_out_dir(out_dir)
    meas = read_measurement_csv(meas_path)
    pattern_set = load_patterns(patterns_path, modulation_depth=scene.modulation_depth)
    if meas.pattern_ref and meas.pattern_ref != pattern_set.identifier:
        raise ConsistencyError(
            f"measurement was taken with {meas.pattern_ref}, "
            f"pattern file is {pattern_set.identifier}"
        )
    if meas.count != pattern_set.count and cr is None:
        raise ConsistencyError(
            f"{meas.count} readings vs {pattern_set.count} patterns; pass --cr to subset"
        )
    meas, pattern_set = _truncate(meas, pattern_set, cr)
    n = pattern_set.order
    reference, snr_mask = _read_references(reference_path, snr_mask_path, (n, n))

    settings = Settings(scene.propagation(n, backprop_distance), seed=seed, tv_weight=tv_weight)
    if iterations is not None:  # absent keeps each method's default
        settings = settings._replace(iterations=iterations, cstv_iterations=iterations)
    result = RECONSTRUCTORS[method](meas, pattern_set, settings)

    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(
        os.path.join(out_dir, f"recon_{method}.pgm"),
        lambda p: write_pgm(p, result.image, {"method": method}),
    )

    rows = ["metric,value", f"method,{method}", f"iterations,{result.iterations_used}"]
    rows += _metric_rows(result.image, reference, snr_mask)
    _write_csv(os.path.join(out_dir, "metrics.csv"), rows)

    if result.residual_history:
        loss_rows = ["iteration,loss"]
        loss_rows.extend(f"{i},{v!r}" for i, v in enumerate(result.residual_history))
        _write_csv(os.path.join(out_dir, "loss_history.csv"), loss_rows)
    return result


def _read_references(reference_path, snr_mask_path, shape):
    """The SSIM reference image and the SNR signal mask (pixels >= 0.5) read
    from their PGM files, each None without a path.  Both are checked against
    an image of `shape`, and the mask's signal and noise regions as `snr`
    checks them, so a bad file fails before that image is made."""

    def read(path) -> IntensityImage:
        image, _ = read_pgm(path)
        if image.values.shape != shape:
            raise DimensionError(f"{path} is {image.width}x{image.height} pixels; "
                                 f"the image is {shape[1]}x{shape[0]}")
        return image

    reference = snr_mask = None
    if reference_path is not None:
        check_ssim_size(shape)
        reference = read(reference_path)
    if snr_mask_path is not None:
        snr_mask = signal_region(read(snr_mask_path).values >= 0.5)
    return reference, snr_mask


def _metric_rows(image: IntensityImage, reference, snr_mask) -> list:
    """`ssim,…` and `snr,…` rows of `image` against `_read_references`' output.

    A constant image has no structure to compare, so its SSIM row reads
    `ssim,degenerate`.
    """
    rows = []
    if reference is not None:
        if float(image.values.max()) == float(image.values.min()):
            rows.append("ssim,degenerate")
        else:
            rows.append(f"ssim,{ssim(image, reference)!r}")
    if snr_mask is not None:
        rows.append(f"snr,{snr(image, snr_mask)!r}")
    return rows


def _dip_rows(image: IntensityImage, spec: SceneSpec) -> list:
    """`dip_gap1,…`, `dip_gap2,…` and `dip_mean,…` rows of `image` against a
    three-slit scene (`metrics.gap_dips`)."""
    dips = gap_dips(image, spec)
    rows = [f"dip_gap{i},{dip!r}" for i, dip in enumerate(dips, start=1)]
    return rows + [f"dip_mean,{float(np.mean(dips))!r}"]


def _cell_seed(base_seed: int, cr: float, method: str, noise_sigma: float, repeat: int) -> int:
    """Noise and generator seed of one benchmark run, the same in every process.

    The noise level enters by its exact float64 bits, so distinct levels
    never share a seed.
    """
    key = (base_seed, int(round(cr * 1e6)), METHODS.index(method),
           int(np.float64(noise_sigma).view(np.uint64)), repeat)
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _benchmark_cell(diffracted, pattern_set, method, noise_sigma, settings, reference, snr_mask):
    """(SSIM, SNR) of one measurement, its noise drawn with the settings' seed."""
    meas = measure(diffracted, pattern_set, noise_sigma=noise_sigma, seed=settings.seed)
    result = RECONSTRUCTORS[method](meas, pattern_set, settings)
    return ssim(result.image, reference), snr(result.image, snr_mask)


def _spread(values: np.ndarray) -> float:
    """Standard deviation of a cell's repeats; 0.0 when they are all equal,
    an all-inf SNR included."""
    return 0.0 if np.all(values == values[0]) else float(values.std())


def run_benchmark(
    spec: SceneSpec,
    cr_list,
    methods,
    noise_levels,
    repeats: int,
    out_path,
    iterations: int = DEFAULT_ITERATIONS,
):
    """Grid of (cr x method x noise x repeat) runs; per-cell SSIM/SNR stats."""
    if repeats < 1:
        raise SinglePixelError("repeats must be >= 1")
    for cr in cr_list:
        _check_cr(cr)
    for noise_sigma in noise_levels:
        if not 0 <= noise_sigma < np.inf:  # the cell seed needs a finite sigma
            raise SinglePixelError(f"noise sigma {noise_sigma} is not finite and >= 0")
    for method in methods:
        _check_method(method)
    _check_iterations(iterations)
    _check_out_dir(os.path.dirname(os.path.abspath(out_path)))
    check_ssim_size((spec.grid, spec.grid))  # every cell is scored by SSIM
    obj, diffracted = diffract_scene(spec)
    snr_mask = signal_region(obj.values >= 0.5)  # fails before the first cell
    order = spec.grid
    # order = grid: full-sampling noiseless HSPI is the diffraction image up to m
    detector_reference = normalize(diffracted.values)
    # --iterations counts generator iterations only; CS-TV keeps its default
    settings = Settings(spec.propagation(), iterations=iterations)

    rows = ["cr,method,noise_sigma,repeats,ssim_mean,ssim_std,snr_mean,snr_std"]
    for cr in cr_list:
        pattern_set = walsh_hadamard_patterns(order, _pattern_count(cr, order * order),
                                              modulation_depth=spec.modulation_depth)
        for method in methods:
            # the generator images the object plane, not the detector plane
            reference = obj if method == "untrained" else detector_reference
            for noise_sigma in noise_levels:
                cells = (settings._replace(seed=_cell_seed(spec.seed, cr, method, noise_sigma, r))
                         for r in range(repeats))
                outcomes = [_benchmark_cell(diffracted, pattern_set, method, noise_sigma, cell,
                                            reference, snr_mask) for cell in cells]
                ssims, snrs = (np.array(values) for values in zip(*outcomes))
                rows.append(
                    f"{cr!r},{method},{noise_sigma!r},{repeats},"
                    f"{float(ssims.mean())!r},{_spread(ssims)!r},"
                    f"{float(snrs.mean())!r},{_spread(snrs)!r}"
                )
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    _write_csv(out_path, rows)
    return rows


def _float_list(text: str) -> list:
    """argparse type of a comma-separated list of numbers."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singlepixel",
        description="Single-pixel diffraction imaging: simulate, reconstruct, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="scene -> diffraction image + measurement CSV")
    sim.add_argument("--scene", required=True)
    sim.add_argument("--patterns", required=True)
    sim.add_argument("--noise-sigma", type=float, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out-dir", required=True)

    rec = sub.add_parser("reconstruct", help="measurement CSV -> reconstructed image")
    rec.add_argument("--measurement", required=True,
                     help="readings CSV: an open aperture reads m*N at the DC pattern and 0 at "
                          "every other (m the modulation depth, N the pattern grid's pixels)")
    rec.add_argument("--patterns", required=True)
    rec.add_argument("--scene", required=True)
    rec.add_argument("--method", required=True, choices=METHODS)
    rec.add_argument("--cr", type=float, default=None)
    rec.add_argument("--iterations", type=int, default=None,
                     help="iterations of the chosen method: untrained (default "
                          f"{DEFAULT_ITERATIONS}) or cstv (default {DEFAULT_CSTV_ITERATIONS}); "
                          "hspi and dgi do not iterate")
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--backprop-distance", type=parse_length, default=None)
    rec.add_argument("--tv-weight", type=float, default=None)
    rec.add_argument("--reference", default=None)
    rec.add_argument("--snr-mask", default=None)
    rec.add_argument("--out-dir", required=True)

    ben = sub.add_parser("benchmark", help="CR/method/noise grid -> summary CSV")
    ben.add_argument("--scene", required=True)
    ben.add_argument("--cr", type=_float_list, required=True,
                     help="comma-separated compression ratios")
    ben.add_argument("--methods", default="hspi,untrained")
    ben.add_argument("--noise-sigma", type=_float_list, default="0")
    ben.add_argument("--repeats", type=int, default=1)
    ben.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS,
                     help="untrained generator iterations (default %(default)s); "
                          f"cstv always runs {DEFAULT_CSTV_ITERATIONS}")
    ben.add_argument("--out-dir", required=True)

    met = sub.add_parser("metrics", help="SSIM/SNR between image files, dips at a scene's gaps")
    met.add_argument("--image", required=True)
    met.add_argument("--reference", default=None)
    met.add_argument("--snr-mask", default=None)
    met.add_argument("--scene", default=None,
                     help="three-slit scene: adds the dip at each gap and their mean")
    met.add_argument("--out", default=None)

    pat = sub.add_parser("patterns", help="generate a Walsh-Hadamard pattern file")
    pat.add_argument("--order", type=int, required=True)
    group = pat.add_mutually_exclusive_group(required=True)
    group.add_argument("--count", type=int)
    group.add_argument("--cr", type=float)
    pat.add_argument("--ordering", choices=("natural", "sequency"), default="sequency")
    pat.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            overrides = {"noise_sigma": args.noise_sigma, "seed": args.seed}
            spec = replace(load_scene(args.scene),
                           **{k: v for k, v in overrides.items() if v is not None})
            pattern_set = load_patterns(args.patterns, modulation_depth=spec.modulation_depth)
            run_simulate(spec, pattern_set, args.out_dir)
        elif args.command == "reconstruct":
            scene = load_scene(args.scene)
            run_reconstruct(
                args.measurement,
                args.patterns,
                args.method,
                scene,
                args.out_dir,
                cr=args.cr,
                iterations=args.iterations,
                seed=args.seed,
                backprop_distance=args.backprop_distance,
                tv_weight=args.tv_weight,
                reference_path=args.reference,
                snr_mask_path=args.snr_mask,
            )
        elif args.command == "benchmark":
            spec = load_scene(args.scene)
            run_benchmark(
                spec,
                args.cr,
                args.methods.split(","),
                args.noise_sigma,
                args.repeats,
                os.path.join(args.out_dir, "benchmark.csv"),
                iterations=args.iterations,
            )
        elif args.command == "metrics":
            image, _ = read_pgm(args.image)
            rows = ["metric,value"]
            rows += _metric_rows(image, *_read_references(args.reference, args.snr_mask,
                                                          image.values.shape))
            if args.scene is not None:
                rows += _dip_rows(image, load_scene(args.scene))
            if args.out:
                _write_csv(args.out, rows)
            else:
                print("\n".join(rows))
        elif args.command == "patterns":
            count = args.count
            if count is None:
                _check_cr(args.cr)
                count = _pattern_count(args.cr, args.order * args.order)
            pattern_set = walsh_hadamard_patterns(args.order, count, ordering=args.ordering)
            _atomic_write(args.out, lambda p: save_patterns(p, pattern_set))
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4
    except SinglePixelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
