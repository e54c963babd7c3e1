import numpy as np
import pytest

from singlepixel.errors import FormatError, ParameterError
from singlepixel.pgm import write_pgm
from singlepixel.scenes import (
    SceneSpec,
    build_scene,
    load_scene,
    parse_length,
    parse_scene,
    slit_feature_columns,
)

from conftest import star_mask

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

    @pytest.mark.parametrize("line,message", [
        ("slit_widths = 5mm, 5mm, 5mm", "exceeds the field of view"),
        ("slit_height = 11mm", "slit height exceeds the field of view"),
    ])
    def test_slits_outside_the_field_rejected(self, line, message):
        with pytest.raises(FormatError, match=message):
            parse_scene(self.SCENE + line + "\n")

    def test_pitch_consistency(self):
        spec = parse_scene(self.SCENE)
        assert spec.pitch == pytest.approx(10.5e-3 / 128)


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
        star = star_mask(64, 10.5e-3 / 64)
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
        star = star_mask(64, 1e-4)
        assert set(np.unique(star.values)) <= {0.0, 1.0}
        assert 0.05 < star.values.mean() < 0.5
        # center pixel is inside the star
        assert star.values[32, 32] == 1.0

    def test_point_count_changes_shape(self):
        a = star_mask(64, 1e-4, points=5)
        b = star_mask(64, 1e-4, points=7)
        assert not np.array_equal(a.values, b.values)
