import struct

import numpy as np
import pytest

from invarsim.errors import ConfigError
from invarsim.imgio import (
    FLO_MAGIC,
    read_flo,
    read_pfm,
    read_flo_header,
    read_ppm,
    read_ppm_header,
    write_flo,
    write_pfm,
    write_ppm,
)


class TestPfm:
    def test_color_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 10, size=(17, 23, 3)).astype(np.float32)
        path = tmp_path / "img.pfm"
        write_pfm(path, img)
        back = read_pfm(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, img)

    def test_gray_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, size=(5, 9)).astype(np.float32)
        path = tmp_path / "depth.pfm"
        write_pfm(path, img)
        assert np.array_equal(read_pfm(path), img)

    def test_header_format(self, tmp_path):
        path = tmp_path / "one.pfm"
        write_pfm(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw.startswith(b"Pf\n3 2\n-1.0\n")

    def test_row_order_bottom_up(self, tmp_path):
        img = np.zeros((2, 1), dtype=np.float32)
        img[0, 0] = 7.0  # top row
        path = tmp_path / "rows.pfm"
        write_pfm(path, img)
        payload = path.read_bytes()[len(b"Pf\n1 2\n-1.0\n"):]
        first_stored = np.frombuffer(payload[:4], dtype="<f4")[0]
        assert first_stored == 0.0  # bottom row is stored first

    def test_infinity_survives(self, tmp_path):
        img = np.full((3, 3), np.inf, dtype=np.float32)
        path = tmp_path / "inf.pfm"
        write_pfm(path, img)
        assert np.all(np.isinf(read_pfm(path)))

    @pytest.mark.parametrize("header", [
        b"PF\n2 -2\n-1.0\n", b"PF\n0 2\n-1.0\n", b"PF\n2 x\n-1.0\n", b"Pf\n2 2.5\n-1.0\n",
        b"PF\n2 2\nabc\n", b"PF\n2 2\n0.0\n", b"Pf\n2 2\nnan\n", b"Pf\n2 2\n-inf\n",
    ])
    def test_bad_header_value_rejected_naming_the_file(self, tmp_path, header):
        path = tmp_path / "bad.pfm"
        path.write_bytes(header + b"\x00" * 48)
        with pytest.raises(ConfigError, match="bad PFM") as err:
            read_pfm(path)
        assert str(path) in str(err.value)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"XX\n1 1\n-1.0\n" + b"\x00" * 4)
        with pytest.raises(ConfigError):
            read_pfm(path)


class TestPpm:
    def test_8bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(11, 7, 3)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img, maxval=255)
        back, maxval = read_ppm(path)
        assert maxval == 255
        assert np.array_equal(back, img)

    def test_16bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 1024, size=(6, 5, 3)).astype(np.uint16)
        path = tmp_path / "img10.ppm"
        write_ppm(path, img, maxval=1023)
        back, maxval = read_ppm(path)
        assert maxval == 1023
        assert np.array_equal(back, img)

    def test_header(self, tmp_path):
        path = tmp_path / "h.ppm"
        write_ppm(path, np.zeros((4, 6, 3), dtype=np.uint8), maxval=255)
        assert path.read_bytes().startswith(b"P6\n6 4\n255\n")

    def test_sample_exceeding_maxval_rejected(self, tmp_path):
        img = np.full((2, 2, 3), 300, dtype=np.uint16)
        with pytest.raises(ConfigError):
            write_ppm(tmp_path / "x.ppm", img, maxval=255)

    @pytest.mark.parametrize("header", [
        b"P6\n# CREATOR: GIMP PNM Filter Version 1.1\n6 4\n255\n",
        b"P6 6# width\n#\n4 #height\n255\n",
        b"P6\n6 4\n255# ends the header like a newline\n",
    ], ids=["gimp", "between-tokens", "before-raster"])
    def test_header_comments_read_like_the_plain_header(self, tmp_path, header):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(4, 6, 3)).astype(np.uint8)
        plain = tmp_path / "plain.ppm"
        write_ppm(plain, img, maxval=255)
        commented = tmp_path / "commented.ppm"
        commented.write_bytes(header + img.tobytes())
        back, maxval = read_ppm(commented)
        want, want_maxval = read_ppm(plain)
        assert maxval == want_maxval == 255
        assert back.dtype == want.dtype and np.array_equal(back, want)
        assert read_ppm_header(commented) == read_ppm_header(plain) == (4, 6, 255)

    @pytest.mark.parametrize("maxval", [0, 65536, 70000])
    def test_maxval_outside_format_rejected_naming_the_file(self, tmp_path, maxval):
        path = tmp_path / "bad.ppm"
        path.write_bytes(f"P6\n2 2\n{maxval}\n".encode() + b"\x00" * 24)
        for reader in (read_ppm, read_ppm_header):
            with pytest.raises(ConfigError, match="maxval") as err:
                reader(path)
            assert str(path) in str(err.value)

    @pytest.mark.parametrize("maxval, payload", [
        (100, bytes([1, 2, 3, 4, 5, 101])),
        (1023, b"\x00\x01" * 5 + b"\x04\x00"),  # 1024, big-endian
    ], ids=["8bit", "16bit"])
    def test_sample_above_maxval_rejected_on_read(self, tmp_path, maxval, payload):
        path = tmp_path / "over.ppm"
        path.write_bytes(f"P6\n2 1\n{maxval}\n".encode() + payload)
        assert read_ppm_header(path) == (1, 2, maxval)  # the header alone is fine
        with pytest.raises(ConfigError, match=f"exceeds maxval {maxval}") as err:
            read_ppm(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("raw", [
        b"P6\n2 2\n255\n" + b"\x00" * 11,
        b"P6\n-2 2\n255\n" + b"\x00" * 12,
        b"P6\n2 x\n255\n" + b"\x00" * 12,
        b"P3\n2 2\n255\n" + b"\x00" * 12,
    ], ids=["truncated", "negative-width", "non-numeric", "ascii-magic"])
    def test_bad_file_rejected_by_header_and_reader(self, tmp_path, raw):
        path = tmp_path / "bad.ppm"
        path.write_bytes(raw)
        for reader in (read_ppm, read_ppm_header):
            with pytest.raises(ConfigError) as err:
                reader(path)
            assert str(path) in str(err.value)

    def test_16bit_header(self, tmp_path):
        path = tmp_path / "deep.ppm"
        write_ppm(path, np.zeros((3, 5, 3), dtype=np.uint16), maxval=4095)
        header = read_ppm_header(path)
        assert header == (3, 5, 4095) and header.shape == (3, 5, 3)
        assert header.dtype == np.dtype(">u2")


class TestFlo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        flow = rng.normal(0, 3, size=(9, 13, 2)).astype(np.float32)
        path = tmp_path / "flow.flo"
        write_flo(path, flow)
        assert np.array_equal(read_flo(path), flow)

    def test_magic_number(self, tmp_path):
        path = tmp_path / "f.flo"
        write_flo(path, np.zeros((2, 2, 2), dtype=np.float32))
        raw = path.read_bytes()
        assert np.frombuffer(raw[:4], dtype="<f4")[0] == np.float32(FLO_MAGIC)
        w, h = np.frombuffer(raw[4:12], dtype="<i4")
        assert (w, h) == (2, 2)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.flo"
        path.write_bytes(b"\x00" * 16)
        with pytest.raises(ConfigError):
            read_flo(path)

    def test_header_gives_width_then_height(self, tmp_path):
        path = tmp_path / "f.flo"
        write_flo(path, np.zeros((3, 7, 2), dtype=np.float32))
        assert read_flo_header(path) == (7, 3)

    @pytest.mark.parametrize("keep", [12 + 3 * 7 * 8 - 1, 5], ids=["payload", "header"])
    def test_truncated_rejected_naming_the_file(self, tmp_path, keep):
        path = tmp_path / "short.flo"
        write_flo(path, np.zeros((3, 7, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:keep])
        for reader in (read_flo, read_flo_header):
            with pytest.raises(ConfigError, match="truncated") as err:
                reader(path)
            assert str(path) in str(err.value)

    def test_negative_size_rejected(self, tmp_path):
        path = tmp_path / "neg.flo"
        path.write_bytes(struct.pack("<fii", FLO_MAGIC, -3, 2) + b"\x00" * 64)
        for reader in (read_flo, read_flo_header):
            with pytest.raises(ConfigError, match="negative .flo size -3x2"):
                reader(path)
