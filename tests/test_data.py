"""Synthetic data, PPM I/O, resize, and manifest tests.

The bilinear oracle is computed by hand for a fixed ramp; PPM files are
built byte by byte in the tests so the reader is checked against the
format, not against the writer.
"""

import numpy as np
import pytest

from winvit.data import (
    Dataset,
    SyntheticSpec,
    bilinear_resize,
    generate_synthetic,
    load_manifest,
    read_ppm,
    read_ppm_p5,
    render_pattern,
    write_ppm_p5,
    write_ppm_p6,
)
from winvit.errors import ConfigError, DataError


# ---------------------------------------------------------------------------
# synthetic generation


class TestSyntheticGeneration:
    def test_same_seed_bit_identical(self):
        a = generate_synthetic(SyntheticSpec(samples_per_class=10, image_size=16, seed=4))
        b = generate_synthetic(SyntheticSpec(samples_per_class=10, image_size=16, seed=4))
        assert a["train"].labels == b["train"].labels
        for ia, ib in zip(a["train"].images, b["train"].images):
            np.testing.assert_array_equal(ia.data, ib.data)
        for ia, ib in zip(a["val"].images, b["val"].images):
            np.testing.assert_array_equal(ia.data, ib.data)

    def test_different_seed_different_images(self):
        a = generate_synthetic(SyntheticSpec(samples_per_class=5, image_size=16, seed=1))
        b = generate_synthetic(SyntheticSpec(samples_per_class=5, image_size=16, seed=2))
        assert np.abs(a["train"].images[0].data - b["train"].images[0].data).max() > 1e-4

    def test_round_robin_split_sizes(self):
        # every fifth sample per class goes to val: 80/20 exactly
        data = generate_synthetic(SyntheticSpec(samples_per_class=70, image_size=16))
        assert len(data["train"]) == 3 * 56
        assert len(data["val"]) == 3 * 14
        for split in ("train", "val"):
            labels = np.array(data[split].labels)
            for k in range(3):
                assert (labels == k).sum() == (56 if split == "train" else 14)

    def test_pixels_inside_unit_interval(self):
        data = generate_synthetic(SyntheticSpec(samples_per_class=5, image_size=16, seed=0))
        for ds in data.values():
            for img in ds.images:
                assert img.data.min() >= 0.0
                assert img.data.max() <= 1.0
                assert img.shape == (3, 16, 16)

    def test_class_names_follow_families(self):
        data = generate_synthetic(SyntheticSpec(samples_per_class=5, image_size=16))
        assert data["train"].class_names == ["stripes", "checker", "radial"]

    def test_render_is_deterministic(self):
        a = render_pattern(2, 32, 0.3, center=(1.0, -0.5))
        b = render_pattern(2, 32, 0.3, center=(1.0, -0.5))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, 32, 32)

    def test_families_are_structurally_distinct(self):
        # stripes are constant down columns; the checker is not; rings
        # with an uncentered origin are exactly transpose-symmetric
        stripes = render_pattern(0, 32, 0.0)
        assert np.abs(np.diff(stripes, axis=1)).max() < 1e-12
        checker = render_pattern(1, 32, 0.0)
        assert np.abs(np.diff(checker, axis=1)).max() > 0.01
        radial = render_pattern(2, 32, 0.0)
        np.testing.assert_allclose(radial, np.transpose(radial, (0, 2, 1)), atol=1e-12)
        # and pairwise the families are far apart
        for a, b in [(stripes, checker), (stripes, radial), (checker, radial)]:
            assert np.abs(a - b).mean() > 0.05

    def test_phase_moves_the_pattern(self):
        a = render_pattern(0, 32, 0.0)
        b = render_pattern(0, 32, 0.5)
        assert np.abs(a - b).max() > 0.05

    def test_nearest_centroid_baseline_separates_classes(self):
        # classes must be linearly separable enough that a centroid rule
        # gets nearly everything right; otherwise accuracy targets
        # downstream would be testing luck
        data = generate_synthetic(SyntheticSpec(samples_per_class=20, image_size=32, seed=0))
        train, val = data["train"], data["val"]
        centroids = []
        for k in range(3):
            members = [img.data.reshape(-1) for img, l in zip(train.images, train.labels) if l == k]
            centroids.append(np.mean(members, axis=0))
        centroids = np.stack(centroids)
        correct = 0
        for img, label in zip(val.images, val.labels):
            d = ((centroids - img.data.reshape(-1)) ** 2).sum(axis=1)
            correct += int(d.argmin()) == label
        assert correct / len(val.images) >= 0.95

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(num_classes=1)
        with pytest.raises(ConfigError):
            SyntheticSpec(samples_per_class=0)
        with pytest.raises(ConfigError):
            SyntheticSpec(image_size=4)
        with pytest.raises(ConfigError):
            SyntheticSpec(noise_std=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_noise_std_rejected(self, value):
        with pytest.raises(ConfigError, match="noise_std"):
            SyntheticSpec(noise_std=value)

    def test_more_than_three_classes_reuse_families(self):
        data = generate_synthetic(
            SyntheticSpec(num_classes=5, samples_per_class=5, image_size=16)
        )
        assert len(data["train"].class_names) == 5
        assert len(set(data["train"].labels)) == 5


# ---------------------------------------------------------------------------
# PPM I/O


class TestPpmIO:
    def test_one_white_pixel(self, tmp_path):
        # built from raw bytes: 1x1 pure-white P6
        path = tmp_path / "white.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\xff\xff\xff")
        img = read_ppm(path)
        np.testing.assert_array_equal(img, np.ones((3, 1, 1)))

    def test_known_pixels_and_layout(self, tmp_path):
        # 2x1: left red, right mid-gray; row-major RGB triples
        path = tmp_path / "two.ppm"
        path.write_bytes(b"P6\n2 1\n255\n\xff\x00\x00\x80\x80\x80")
        img = read_ppm(path)
        assert img.shape == (3, 1, 2)
        np.testing.assert_allclose(img[:, 0, 0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(img[:, 0, 1], [128 / 255] * 3)

    def test_comments_and_whitespace_in_header(self, tmp_path):
        path = tmp_path / "comment.ppm"
        path.write_bytes(b"P6\n# a comment line\n 1 # inline\n1\n255\n\x01\x02\x03")
        img = read_ppm(path)
        np.testing.assert_allclose(img[:, 0, 0], np.array([1, 2, 3]) / 255)

    def test_maxval_scaling(self, tmp_path):
        path = tmp_path / "maxval.ppm"
        path.write_bytes(b"P6\n1 1\n100\n\x64\x32\x00")
        img = read_ppm(path)
        np.testing.assert_allclose(img[:, 0, 0], [1.0, 0.5, 0.0])

    def test_write_read_roundtrip(self, tmp_path):
        rng = np.random.default_rng(180)
        raw = rng.integers(0, 256, size=(3, 5, 7)).astype(np.uint8)
        path = tmp_path / "rt.ppm"
        write_ppm_p6(path, raw)
        back = read_ppm(path)
        np.testing.assert_allclose(back, raw.astype(np.float64) / 255)

    def test_grayscale_roundtrip(self, tmp_path):
        rng = np.random.default_rng(181)
        raw = rng.integers(0, 256, size=(4, 6)).astype(np.uint8)
        path = tmp_path / "gray.pgm"
        write_ppm_p5(path, raw)
        back = read_ppm_p5(path)
        np.testing.assert_allclose(back, raw.astype(np.float64) / 255)

    def test_error_cases(self, tmp_path):
        bad_magic = tmp_path / "bad.ppm"
        bad_magic.write_bytes(b"P3\n1 1\n255\n1 2 3")
        with pytest.raises(DataError):
            read_ppm(bad_magic)
        truncated = tmp_path / "short.ppm"
        truncated.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(DataError):
            read_ppm(truncated)
        sixteen_bit = tmp_path / "wide.ppm"
        sixteen_bit.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(DataError):
            read_ppm(sixteen_bit)
        with pytest.raises(DataError):
            write_ppm_p6(tmp_path / "x.ppm", np.zeros((1, 4, 4)))

    @pytest.mark.parametrize("header", [b"P5\n-2 3\n255\n", b"P5\n0 3\n255\n"])
    def test_grayscale_rejects_nonpositive_dimensions(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + b"\x00" * 8)
        with pytest.raises(DataError, match="bad PPM dimensions"):
            read_ppm_p5(path)

    @pytest.mark.parametrize("reader", [read_ppm, read_ppm_p5])
    def test_unopenable_path_is_a_data_error(self, tmp_path, reader):
        for path in (tmp_path / "missing.ppm", tmp_path):
            with pytest.raises(DataError, match="cannot open image"):
                reader(path)

    @pytest.mark.parametrize("reader, header", [
        (read_ppm, b"P6\n99999999999 99999999999\n255\n"),
        (read_ppm_p5, b"P5\n99999999999 99999999999\n255\n"),
        (read_ppm, b"P6\n50000 50000\n255\n"),
        (read_ppm_p5, b"P5\n50000 50000\n255\n"),
    ])
    def test_oversized_dimensions_rejected_before_reading(self, tmp_path, reader, header):
        path = tmp_path / "huge.ppm"
        path.write_bytes(header + b"\x00" * 12)
        with pytest.raises(DataError, match="PPM payload truncated: 12 of"):
            reader(path)


# ---------------------------------------------------------------------------
# resize


class TestBilinearResize:
    def test_constant_image_invariant(self):
        img = np.full((3, 7, 11), 0.42)
        out = bilinear_resize(img, 16, 5)
        np.testing.assert_allclose(out, 0.42, rtol=1e-12)

    def test_identity_when_size_matches(self):
        rng = np.random.default_rng(182)
        img = rng.random((3, 6, 6))
        np.testing.assert_allclose(bilinear_resize(img, 6, 6), img, rtol=1e-12)

    def test_4x4_ramp_downsample_hand_computed(self):
        # half-pixel centers at scale 2: output pixel i samples source
        # coordinate 2i + 0.5, the midpoint of source pixels 2i and 2i+1
        ramp = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        out = bilinear_resize(ramp, 2, 2)
        expected = np.array([[[2.5, 4.5], [10.5, 12.5]]])
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_upsample_preserves_corner_values(self):
        # corner output samples clamp onto the corner source pixels
        img = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = bilinear_resize(img, 8, 8)
        np.testing.assert_allclose(out[0, 0, 0], 1.0)
        np.testing.assert_allclose(out[0, -1, -1], 4.0)
        assert out.min() >= 1.0 and out.max() <= 4.0

    def test_values_stay_in_hull(self):
        rng = np.random.default_rng(183)
        img = rng.random((3, 9, 5))
        out = bilinear_resize(img, 13, 17)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_bad_target_rejected(self):
        with pytest.raises(DataError):
            bilinear_resize(np.zeros((3, 4, 4)), 0, 4)


# ---------------------------------------------------------------------------
# manifest loading


def make_ppm(path, size=8, value=128):
    arr = np.full((3, size, size), value, dtype=np.uint8)
    write_ppm_p6(path, arr)


class TestManifest:
    def test_loads_and_resizes(self, tmp_path):
        make_ppm(tmp_path / "a.ppm", size=8)
        make_ppm(tmp_path / "b.ppm", size=12)
        manifest = tmp_path / "data.csv"
        manifest.write_text("a.ppm,0,train\nb.ppm,1,val\n")
        data = load_manifest(manifest, image_size=16)
        assert len(data["train"]) == 1 and len(data["val"]) == 1
        assert data["train"].images[0].shape == (3, 16, 16)
        np.testing.assert_allclose(data["train"].images[0].data, 128 / 255, rtol=1e-5)
        assert data["train"].labels == [0] and data["val"].labels == [1]

    def test_optional_header_row_skipped(self, tmp_path):
        make_ppm(tmp_path / "a.ppm")
        manifest = tmp_path / "data.csv"
        manifest.write_text("filepath,label,split\na.ppm,0,train\n")
        data = load_manifest(manifest, image_size=8)
        assert len(data["train"]) == 1

    def test_class_names_span_labels(self, tmp_path):
        make_ppm(tmp_path / "a.ppm")
        manifest = tmp_path / "data.csv"
        manifest.write_text("a.ppm,2,train\n")
        data = load_manifest(manifest, image_size=8)
        assert data["train"].class_names == ["class0", "class1", "class2"]

    def test_errors_name_the_row(self, tmp_path):
        make_ppm(tmp_path / "ok.ppm")
        cases = [
            ("ok.ppm,0\n", "row 1"),  # wrong column count
            ("ok.ppm,zero,train\n", "row 1"),  # non-integer label
            ("ok.ppm,0,test\n", "row 1"),  # unknown split
            ("missing.ppm,0,train\n", "row 1"),  # file not found
            ("ok.ppm,0,train\nok.ppm,-1,val\n", "row 2"),  # negative label
        ]
        for content, needle in cases:
            manifest = tmp_path / "data.csv"
            manifest.write_text(content)
            with pytest.raises(DataError) as exc:
                load_manifest(manifest, image_size=8)
            assert needle in str(exc.value), f"for {content!r}: {exc.value}"

    def test_label_bound_enforced_when_given(self, tmp_path):
        make_ppm(tmp_path / "a.ppm")
        manifest = tmp_path / "data.csv"
        manifest.write_text("a.ppm,3,train\n")
        with pytest.raises(DataError, match="row 1"):
            load_manifest(manifest, image_size=8, num_classes=3)

    def test_corrupt_image_error_carries_row(self, tmp_path):
        (tmp_path / "junk.ppm").write_bytes(b"P6\n2 2\n255\nxx")
        manifest = tmp_path / "data.csv"
        manifest.write_text("junk.ppm,0,train\n")
        with pytest.raises(DataError, match="row 1"):
            load_manifest(manifest, image_size=8)

    def test_non_utf8_row_is_data_error(self, tmp_path):
        make_ppm(tmp_path / "ok.ppm")
        manifest = tmp_path / "data.csv"
        manifest.write_bytes(b"ok.ppm,0,train\nok.ppm,1,v\xe9l\n")
        with pytest.raises(DataError, match="row 2") as exc:
            load_manifest(manifest, image_size=8)
        assert str(manifest) in str(exc.value)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_manifest(tmp_path / "absent.csv", image_size=8)
