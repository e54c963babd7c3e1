"""Benchmark of the singlepixel pipeline, driven through its CLI.

    python3 perfbench/run.py --workload untrained-64 --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload until the rounds have taken --seconds.  Each round
is a fresh process (perfbench/child.py) that imports the package and calls
singlepixel.cli.main once per command, so every round pays what a CLI user
pays.  After each round this process checks the outputs against its own
computations (perfbench/checks.py).  The last line of standard output is a
JSON object with "correct", "attempted", "failed" and "metrics": the
end-to-end metrics (medians over rounds) with --trace 0, the per-layer
metrics of traced rounds with --trace 1.  --workload all runs every
workload in turn.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from checks import CheckFailed, Scene, require
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
ROUND_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "wall_s": "s", "recon_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_ratio": "ratio", "_mb": "MB", "_melems": "Melem",
                   "_iters": "count", "_ms_p50": "ms", "steps": "count", "calls": "count", "busy": "ratio"}

WAVELENGTH = 833.3e-6
FOV = 10.5e-3
# The three-slit geometry of the CLI tests: every gap is drawn at 32 and 64 px.
CLI_SLITS = dict(widths=(2e-3, 1.5e-3, 1.5e-3), gaps=(0.6e-3, 0.6e-3))
# The target resolved in the paper's figure 4c: 118 um gaps, drawn at 128 px.
FIG4C_SLITS = dict(widths=(1217e-6, 884e-6, 920e-6), gaps=(118e-6, 118e-6))


class Workload:
    """Commands of one round, and the checks of its outputs."""

    name = ""
    mark_first_recon = False

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.work = work

    def commands(self, out: Path, index: int) -> list:
        """CLI argument vectors of round `index`, writing under `out`."""
        raise NotImplementedError

    def reconstructions(self) -> int:
        raise NotImplementedError

    def check(self, out: Path) -> tuple:
        """(operations attempted, operations failed) of a checked round."""
        raise NotImplementedError

    def workers(self) -> int:
        return 1


class UntrainedWorkload(Workload):
    """The paper's method at the CLI's default grid.

    Each round reconstructs once; the generator seed turns over a few seeds
    drawn from the workload seed, round by round.
    """

    name = "untrained-64"
    ITERATIONS = 50
    SEEDS = 3

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.scene = Scene(grid=64, fov=FOV, wavelength=WAVELENGTH, distance=0.5e-3,
                           sigma=0.5, seed=self.rng.randrange(1, 2**31), **CLI_SLITS)
        self.net_seeds = [self.rng.randrange(1, 2**31) for _ in range(self.SEEDS)]
        (work / "scene.txt").write_text(self.scene.text())

    def commands(self, out, index):
        scene, spip, sim = str(self.work / "scene.txt"), str(out / "p.spip"), out / "sim"
        return [
            ["patterns", "--order", "64", "--cr", "0.25", "--out", spip],
            ["simulate", "--scene", scene, "--patterns", spip, "--out-dir", str(sim)],
            ["reconstruct", "--measurement", str(sim / "measurement.csv"), "--patterns", spip,
             "--scene", scene, "--method", "untrained", "--iterations", str(self.ITERATIONS),
             "--seed", str(self.net_seeds[index % self.SEEDS]), "--reference", str(sim / "object.pgm"),
             "--out-dir", str(out / "rec")],
        ]

    def reconstructions(self):
        return 1

    def check(self, out):
        readings, masks = check_acquisition(self.scene, out, count=1024)
        obj = checks.object_mask(self.scene)
        hspi_ssim = checks.ssim(checks.clip_render(checks.hspi(masks, readings)), obj)
        rec = out / "rec"
        history = checks.read_loss_history((rec / "loss_history.csv").read_text())
        require(len(history) == self.ITERATIONS, f"{len(history)} loss values, expected {self.ITERATIONS}")
        checks.check_falls(history, "untrained")
        image = checks.read_pgm((rec / "recon_untrained.pgm").read_bytes())[0] / checks.MAXVAL
        checks.check_dips(image, self.scene)
        score = checks.ssim(image, obj)
        require(score > hspi_ssim, f"untrained SSIM {score:.3f} is not above HSPI's {hspi_ssim:.3f}")
        check_reported_ssim(rec, score)
        return 3, 0


class FileWorkload(Workload):
    """The file path at 128 px: SPIP, CSV and PGM in and out."""

    name = "cli-128"
    COUNT = 256
    CSTV_ITERATIONS = 100

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.scene = Scene(grid=128, fov=FOV, wavelength=WAVELENGTH, distance=0.5e-3,
                           sigma=0.5, seed=self.rng.randrange(1, 2**31), **FIG4C_SLITS)
        (work / "scene.txt").write_text(self.scene.text())

    def commands(self, out, index):
        scene, spip, sim = str(self.work / "scene.txt"), str(out / "p.spip"), out / "sim"
        cmds = [
            ["patterns", "--order", "128", "--count", str(self.COUNT), "--out", spip],
            ["simulate", "--scene", scene, "--patterns", spip, "--out-dir", str(sim)],
        ]
        for method in ("hspi", "dgi", "cstv"):
            cmds.append(["reconstruct", "--measurement", str(sim / "measurement.csv"), "--patterns", spip,
                         "--scene", scene, "--method", method, "--iterations", str(self.CSTV_ITERATIONS),
                         "--reference", str(sim / "object.pgm"), "--out-dir", str(out / method)])
        return cmds

    def reconstructions(self):
        return 3

    def check(self, out):
        readings, masks = check_acquisition(self.scene, out, count=self.COUNT)
        obj = checks.object_mask(self.scene)
        expected = {"hspi": checks.clip_render(checks.hspi(masks, readings)),
                    "dgi": checks.minmax_render(checks.dgi(masks, readings))}
        for method, image in expected.items():
            pgm = (out / method / f"recon_{method}.pgm").read_bytes()
            checks.check_image(pgm, image, f"recon_{method}.pgm")
            check_reported_ssim(out / method, checks.ssim(checks.read_pgm(pgm)[0] / checks.MAXVAL, obj))
        history = checks.read_loss_history((out / "cstv" / "loss_history.csv").read_text())
        require(len(history) == self.CSTV_ITERATIONS, f"{len(history)} CS-TV loss values")
        checks.check_monotone(history, "CS-TV")
        cstv = checks.read_pgm((out / "cstv" / "recon_cstv.pgm").read_bytes())[0]
        require(cstv.shape == (128, 128) and cstv.max() == checks.MAXVAL, "recon_cstv.pgm is not peak-normalized")
        return 5, 0


class BenchmarkWorkload(Workload):
    """The benchmark subcommand: many small problems on the pool's threads."""

    name = "benchmark-32"
    mark_first_recon = True
    CRS = ("0.25",)
    METHODS = ("hspi", "dgi", "cstv", "untrained")
    NOISE = ("0", "0.2")
    REPEATS = 2
    ITERATIONS = 20
    # The cross-process reproduction: one noisy cell each of two methods.
    REPRO = ["--cr", "0.25", "--methods", "hspi,dgi", "--noise-sigma", "0.2", "--repeats", "1",
             "--iterations", "1"]

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.scene = Scene(grid=32, fov=FOV, wavelength=WAVELENGTH, distance=0.5e-3,
                           seed=self.rng.randrange(1, 2**31), **CLI_SLITS)
        (work / "scene.txt").write_text(self.scene.text())

    def _benchmark(self, out: Path, args: list) -> list:
        return ["benchmark", "--scene", str(self.work / "scene.txt"), *args, "--out-dir", str(out)]

    def commands(self, out, index):
        return [self._benchmark(out / "bench", [
            "--cr", ",".join(self.CRS), "--methods", ",".join(self.METHODS),
            "--noise-sigma", ",".join(self.NOISE), "--repeats", str(self.REPEATS),
            "--iterations", str(self.ITERATIONS)])]

    def reconstructions(self):
        return len(self.CRS) * len(self.METHODS) * len(self.NOISE) * self.REPEATS

    def workers(self):
        jobs = self.reconstructions()
        return max(1, min(int(os.environ.get("SPI_THREADS", "0")) or (os.cpu_count() or 1), jobs))

    def check(self, out):
        text = (out / "bench" / "benchmark.csv").read_text()
        cells = [(float(cr), m, float(s)) for cr in self.CRS for m in self.METHODS for s in self.NOISE]
        checks.check_benchmark_rows(text, cells, self.REPEATS)
        failed = 0
        # Every value must parse as a plain decimal; numpy 2 writes np.float64(...).
        if not checks.plain_decimals(text):
            failed += 1
        # The same noisy cells in two fresh processes must give the same rows.
        dirs = [out / "repro0", out / "repro1"]
        run_children([(d, [self._benchmark(d, self.REPRO)]) for d in dirs])
        if (dirs[0] / "benchmark.csv").read_bytes() != (dirs[1] / "benchmark.csv").read_bytes():
            failed += 1
        return self.reconstructions() + 2, failed


WORKLOADS = {w.name: w for w in (UntrainedWorkload, FileWorkload, BenchmarkWorkload)}


def check_acquisition(scene: Scene, out: Path, count: int) -> tuple:
    """Checks shared by the CLI workloads; returns (readings, masks)."""
    sim = out / "sim"
    checks.check_object((sim / "object.pgm").read_bytes(), scene)
    diffracted = checks.diffraction(scene)
    checks.check_diffraction((sim / "diffracted.pgm").read_bytes(), diffracted)
    masks = checks.read_spip((out / "p.spip").read_bytes())
    require(masks.shape == (count, scene.grid, scene.grid), f"pattern file holds {masks.shape}")
    checks.hadamard_rows(masks)
    readings = checks.read_readings((sim / "measurement.csv").read_text())
    require(readings.size == count, f"{readings.size} readings, expected {count}")
    checks.check_noise(readings, checks.mask_projections(masks, diffracted), scene.depth, scene.sigma)
    return readings, masks


def check_reported_ssim(rec: Path, expected: float) -> None:
    """metrics.csv holds the SSIM against the reference, up to 16-bit rounding."""
    values = dict(row.split(",", 1) for row in (rec / "metrics.csv").read_text().splitlines()[1:])
    reported = float(values["ssim"])
    require(abs(reported - expected) < 1e-3, f"reported SSIM {reported!r}, recomputed {expected!r}")


def _start(out: Path, commands: list, trace: bool, mark: bool):
    out.mkdir(parents=True, exist_ok=True)
    spec = {"commands": commands, "trace": trace, "mark_first_recon": mark,
            "result": str(out / "result.json"), "spans": str(out / "spans.json")}
    (out / "round.json").write_text(json.dumps(spec))
    with open(out / "stderr.txt", "wb") as err:
        return time.monotonic(), subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(out / "round.json")],
            stdout=subprocess.DEVNULL, stderr=err)


def _finish(out: Path, started: float, proc) -> dict:
    try:
        code = proc.wait(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    ended = time.monotonic()
    if code != 0:
        sys.stderr.write((out / "stderr.txt").read_text()[-4000:])
        raise RuntimeError(f"round process exited with {code}")
    result = json.loads((out / "result.json").read_text())
    result.update(started=started, ended=ended)
    return result


def run_child(out: Path, commands: list, trace: bool = False, mark: bool = False) -> dict:
    """Run commands in a fresh process; returns its timings and exit codes."""
    return _finish(out, *_start(out, commands, trace, mark))


def run_children(jobs: list) -> list:
    """run_child for each (out, commands), all processes at once."""
    started = [(out, *_start(out, commands, False, False)) for out, commands in jobs]
    try:
        return [_finish(*job) for job in started]
    finally:
        for _, _, proc in started:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def run_round(workload: Workload, out: Path, index: int, trace: bool) -> dict:
    argvs = workload.commands(out, index)
    result = run_child(out, argvs, trace, workload.mark_first_recon and not trace)
    commands = result["commands"]
    bad = [c for c in commands if c["code"] != 0]
    if bad or len(commands) != len(argvs):
        sys.stderr.write((out / "stderr.txt").read_text()[-4000:])
        raise CheckFailed(f"command {bad[0]['command'] if bad else '?'} failed")
    attempted, failed = workload.check(out)
    recons = [c for c in commands if c["command"] in ("reconstruct", "benchmark")]
    setup_end = result["first_recon"] if workload.mark_first_recon and not trace else recons[0]["start"]
    row = {
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_end - result["started"],
        "wall_s": result["ended"] - result["started"],
        "recon_per_s": workload.reconstructions() / (recons[-1]["end"] - setup_end),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if trace:
        spans = json.loads((out / "spans.json").read_text())
        row["layers"] = layer_metrics(spans, workload.workers())
        shutil.copyfile(out / "spans.json", OUT / f"spans-{workload.name}.json")
    return row


def per_layer_unit(name: str) -> str:
    return next(unit for suffix, unit in PER_LAYER_UNITS.items() if name.endswith(suffix))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = WORKLOADS[name](seed, work)
        rounds = []
        measured = 0.0
        # A traced run alternates untraced and traced rounds, so that the
        # difference of their wall times is the tracing overhead.
        kinds = itertools.cycle((False, True)) if trace else itertools.repeat(False)
        correct = True
        for index, traced in enumerate(kinds):
            try:
                row = run_round(workload, work / f"round{index}", index, traced)
            except CheckFailed as err:
                print(f"{name}: check failed: {err}", file=sys.stderr)
                correct = False
                break
            finally:
                shutil.rmtree(work / f"round{index}", ignore_errors=True)
            rounds.append((traced, row))
            measured += row["wall_s"]
            if measured >= seconds and (not trace or index >= 1):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for traced, r in rounds if not traced]
    traced = [r for t, r in rounds if t]
    metrics = {}
    if trace and plain and traced:
        for metric in traced[0]["layers"]:
            value = statistics.median(r["layers"][metric] for r in traced)
            metrics[metric] = {"value": value, "unit": per_layer_unit(metric)}
        overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    elif plain and not trace:
        for metric, unit in END_TO_END.items():
            metrics[metric] = {"value": statistics.median(r[metric] for r in plain), "unit": unit}
    return {"correct": correct and bool(metrics), "attempted": sum(r["attempted"] for _, r in rounds),
            "failed": sum(r["failed"] for _, r in rounds), "metrics": metrics, "rounds": len(rounds)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "singlepixel" / "cli.py").is_file():
        print(f"no singlepixel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        rounds = result.pop("rounds")
        print(f"{name}: {rounds} rounds, {result['attempted']} operations attempted, "
              f"{result['failed']} failed, correct={result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:28s} {entry['value']:.6g} {entry['unit']}")
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
