import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlepixel.errors import FormatError, ParameterError
from singlepixel.pgm import write_pgm
from singlepixel.propagation import PropagationSpec
from singlepixel.scenes import (
    SceneSpec,
    build_scene,
    load_scene,
    parse_length,
    parse_scene,
    slit_feature_columns,
)

from conftest import FUZZ_PHASES, damaged_loads, star_mask

FIG4C = dict(
    object_kind="three_slit",
    slit_widths=(1217e-6, 884e-6, 920e-6),
    slit_separations=(118e-6, 118e-6),
)

ONE_PIXEL_SLITS = dict(
    object_kind="three_slit",
    slit_widths=(1e-4, 1e-4, 1e-4),
    slit_separations=(1e-3, 1e-3),
)


class TestParseLength:
    def test_millimeters(self):
        assert parse_length("0.5mm") == pytest.approx(0.5e-3)

    def test_micrometers(self):
        assert parse_length("833.3um") == pytest.approx(833.3e-6)

    def test_bare_meters(self):
        assert parse_length("0.0105") == pytest.approx(0.0105)

    def test_garbage_rejected(self):
        with pytest.raises(FormatError):
            parse_length("half a brick")


class TestSceneFile:
    SCENE = """
# three-slit resolution target
grid = 128
fov = 10.5mm
wavelength = 833.3um
distance = 0.5mm
object = three_slit
slit_widths = 1217um, 884um, 920um
slit_separations = 118um, 118um
modulation_depth = 0.9
noise_sigma = 0
seed = 7
"""

    def test_parse_round_trip_fields(self):
        spec = parse_scene(self.SCENE)
        assert spec.grid == 128
        assert spec.fov == pytest.approx(10.5e-3)
        assert spec.wavelength == pytest.approx(833.3e-6)
        assert spec.distance == pytest.approx(0.5e-3)
        assert spec.slit_widths == tuple(pytest.approx(w) for w in (1217e-6, 884e-6, 920e-6))
        assert spec.seed == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="unknown scene keys"):
            parse_scene(self.SCENE + "\nwarp_factor = 9\n")

    def test_missing_object_rejected(self):
        with pytest.raises(FormatError):
            parse_scene("grid = 64\n")

    @pytest.mark.parametrize("key,value", [
        ("grid", "abc"), ("seed", "1.5"), ("modulation_depth", "high"), ("noise_sigma", "x"),
    ])
    def test_non_numeric_value_rejected(self, key, value):
        lines = [ln for ln in self.SCENE.splitlines() if not ln.startswith(key)]
        with pytest.raises(FormatError, match=f"invalid scene: .*'{value}'"):
            parse_scene("\n".join(lines + [f"{key} = {value}"]))

    def test_load_scene_from_file(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text(self.SCENE)
        assert load_scene(path).grid == 128

    def test_load_scene_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_bytes(self.SCENE.encode() + b"# \xe9t\xe9\n")
        with pytest.raises(FormatError, match=r"not UTF-8 text: byte \d+ is 0xe9"):
            load_scene(path)

    @pytest.mark.parametrize("grid,widths", [
        # 164 um pitch, 118 um gaps: the second gap falls on no column
        ("64", "1217um, 884um, 920um"),
        # 82 um pitch: a 30 um middle slit falls on no column
        ("128", "1217um, 30um, 920um"),
    ])
    def test_slit_or_gap_without_a_column_rejected(self, grid, widths):
        text = self.SCENE.replace("grid = 128", f"grid = {grid}")
        text = text.replace("slit_widths = 1217um, 884um, 920um", f"slit_widths = {widths}")
        with pytest.raises(FormatError, match="covers no pixel column"):
            parse_scene(text)

    def test_slits_without_a_row_rejected(self):
        # 82 um pitch: a 10 um band falls between two row edges
        with pytest.raises(FormatError, match="the slits cover no pixel row at grid 128"):
            parse_scene(self.SCENE + "slit_height = 10um\n")

    @pytest.mark.parametrize("line,message", [
        ("slit_widths = 5mm, 5mm, 5mm", "exceeds the field of view"),
        ("slit_height = 11mm", "slit height exceeds the field of view"),
    ])
    def test_slits_outside_the_field_rejected(self, line, message):
        key = line.split(" =")[0]
        lines = [ln for ln in self.SCENE.splitlines() if not ln.startswith(key)]
        with pytest.raises(FormatError, match=message):
            parse_scene("\n".join(lines + [line]) + "\n")

    @pytest.mark.parametrize("seed", ["-1", "-2147483648"])
    def test_negative_seed_rejected(self, seed):
        lines = [ln for ln in self.SCENE.splitlines() if not ln.startswith("seed")]
        with pytest.raises(FormatError, match=f"invalid scene: seed {seed} is negative"):
            parse_scene("\n".join(lines + [f"seed = {seed}"]))

    def test_repeated_key_rejected(self):
        text = "grid = 64\nobject = three_slit\n\ngrid = 32\n"
        with pytest.raises(FormatError, match=r"scene key 'grid' on line 4 repeats line 1"):
            parse_scene(text)

    @given(grid=st.sampled_from([16, 32, 64]), distance=st.floats(-5e-3, 5e-3),
           modulation_depth=st.floats(0.01, 1.0), noise_sigma=st.floats(0.0, 10.0),
           seed=st.integers(0, 2**31), junk=st.integers(1, 255))
    @settings(max_examples=10, deadline=None, phases=FUZZ_PHASES)
    def test_round_trip_and_every_damaged_copy(self, tmp_path_factory, grid, distance,
                                               modulation_depth, noise_sigma, seed, junk):
        # every length in meters, written by repr, so the file reads back exactly
        spec = SceneSpec(grid=grid, fov=10.5e-3, wavelength=833.3e-6, distance=distance,
                         object_kind="three_slit", slit_widths=(2e-3, 1.5e-3, 1.5e-3),
                         slit_separations=(7e-4, 7e-4), modulation_depth=modulation_depth,
                         noise_sigma=noise_sigma, seed=seed)
        lengths = ", ".join
        text = (f"grid = {grid}\nfov = {spec.fov!r}\nwavelength = {spec.wavelength!r}\n"
                f"distance = {distance!r}\nobject = three_slit\n"
                f"slit_widths = {lengths(map(repr, spec.slit_widths))}\n"
                f"slit_separations = {lengths(map(repr, spec.slit_separations))}\n"
                f"modulation_depth = {modulation_depth!r}\nnoise_sigma = {noise_sigma!r}\n"
                f"seed = {seed}\n")
        path = tmp_path_factory.mktemp("scene") / "scene.txt"
        path.write_text(text)
        assert load_scene(path) == spec

        def load_and_seed(path):
            # a scene that loads seeds numpy's generators: "seed =-5" must not load
            np.random.PCG64(load_scene(path).seed)

        damaged_loads(load_and_seed, path, text.encode(), junk)

    def test_pitch_consistency(self):
        spec = parse_scene(self.SCENE)
        assert spec.pitch == pytest.approx(10.5e-3 / 128)


class TestPropagation:
    SPEC = SceneSpec(grid=128, fov=10.5e-3, wavelength=833.3e-6, distance=0.5e-3, **FIG4C)

    def test_default_is_the_scene_grid_and_distance(self):
        spec = self.SPEC
        assert spec.propagation() == PropagationSpec(833.3e-6, 0.5e-3, spec.pitch)
        assert spec.propagation().pitch == 10.5e-3 / 128

    def test_order_sets_the_pitch_over_the_field_of_view(self):
        assert self.SPEC.propagation(64) == PropagationSpec(833.3e-6, 0.5e-3, 10.5e-3 / 64)
        assert self.SPEC.propagation(512).pitch == 10.5e-3 / 512

    @pytest.mark.parametrize("distance", [-0.4e-3, 0.0, 2e-3])
    def test_distance_replaces_the_scene_distance(self, distance):
        assert (self.SPEC.propagation(distance=distance)
                == PropagationSpec(833.3e-6, distance, 10.5e-3 / 128))
        assert (self.SPEC.propagation(32, distance)
                == PropagationSpec(833.3e-6, distance, 10.5e-3 / 32))


class TestBuildScene:
    def test_fig4c_geometry_on_256_grid(self):
        spec = SceneSpec(grid=256, fov=10.5e-3, wavelength=833.3e-6, distance=0.0, **FIG4C)
        assert spec.pitch == pytest.approx(41.0e-6, rel=0.01)
        mask = build_scene(spec)
        cols = mask.values.max(axis=0)
        runs = np.diff(np.flatnonzero(np.diff(np.concatenate([[0], cols, [0]]))).reshape(-1, 2))
        assert len(runs) == 3  # three vertical bars
        widths_px = runs.ravel() * spec.pitch
        for got, want in zip(widths_px, (1217e-6, 884e-6, 920e-6)):
            assert abs(got - want) <= spec.pitch  # half-pixel error per edge

    def test_single_pixel_wide_slit(self):
        spec = SceneSpec(
            grid=64, fov=6.4e-3, wavelength=833.3e-6, distance=0.0,
            object_kind="three_slit",
            slit_widths=(1e-4, 1e-4, 1e-4),
            slit_separations=(1e-3, 1e-3),
        )
        mask = build_scene(spec)  # pitch 1e-4: each slit is one pixel wide
        cols = mask.values.max(axis=0)
        assert cols.sum() == 3

    def test_geometry_exceeding_fov_rejected(self):
        with pytest.raises(ParameterError, match="exceeds the field of view"):
            SceneSpec(
                grid=64, fov=2e-3, wavelength=833.3e-6, distance=0.0,
                object_kind="three_slit",
                slit_widths=(1e-3, 1e-3, 1e-3),
                slit_separations=(1e-4, 1e-4),
            )

    def test_bitmap_threshold_pass_through(self, tmp_path):
        star = star_mask(64)
        path = tmp_path / "star.pgm"
        write_pgm(path, star)
        spec = SceneSpec(
            grid=64, fov=10.5e-3, wavelength=833.3e-6, distance=0.0,
            object_kind="bitmap", bitmap_path=str(path),
        )
        mask = build_scene(spec)
        assert np.array_equal(mask.values, star.values)

    def test_feature_columns_match_rasterization(self):
        cases = [
            (128, 10.5e-3, FIG4C),
            # one-pixel slits whose edges all sit on half pixels
            (64, 6.4e-3, ONE_PIXEL_SLITS),
        ]
        for grid, fov, geometry in cases:
            spec = SceneSpec(grid=grid, fov=fov, wavelength=833.3e-6, distance=0.0, **geometry)
            mask = build_scene(spec)
            peaks, valleys = slit_feature_columns(spec)
            for col in peaks:
                assert mask.values[:, col].max() == 1.0
            for col in valleys:
                assert mask.values[:, col].max() == 0.0

    def test_feature_columns_reject_vanished_gap(self):
        # at 64 px over 10.5 mm the pitch (164 um) exceeds the 118 um gaps,
        # and the second gap rasterizes to no column
        spec = SceneSpec(grid=64, fov=10.5e-3, wavelength=833.3e-6, distance=0.0, **FIG4C)
        with pytest.raises(ParameterError, match="covers no pixel column"):
            slit_feature_columns(spec)


class TestStarMask:
    def test_binary_and_centered(self):
        star = star_mask(64)
        assert set(np.unique(star.values)) <= {0.0, 1.0}
        assert 0.05 < star.values.mean() < 0.5
        # center pixel is inside the star
        assert star.values[32, 32] == 1.0

    def test_point_count_changes_shape(self):
        a = star_mask(64, points=5)
        b = star_mask(64, points=7)
        assert not np.array_equal(a.values, b.values)
