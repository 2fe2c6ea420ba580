import numpy as np
import pytest

from qsmp import bsde, paths, storage


@pytest.fixture(scope="module")
def solved(exp_utility_spec):
    grid = paths.TimeGrid(12, 1.0)
    noise = paths.simulate_brownian(grid, 40, 1, seed=61)
    forward = paths.solve_forward_sde(exp_utility_spec, grid, noise, paths.ConstantControl((0.2,)))
    backward = bsde.solve_quadratic_bsde(exp_utility_spec, grid, noise, forward)
    return grid, forward, backward


class TestContainer:
    def test_round_trip(self, tmp_path, solved):
        grid, forward, backward = solved
        path = str(tmp_path / "solution.qsmp")
        storage.save_solution(path, grid, forward, backward)
        meta, arrays = storage.load_container(path)
        assert meta["M"] == forward.states.shape[0]
        assert meta["N"] == grid.N
        assert meta["dt"] == pytest.approx(grid.dt)
        assert np.array_equal(arrays["states"], forward.states)
        assert np.array_equal(arrays["controls"], forward.controls)
        assert np.array_equal(arrays["Y"], backward.Y)
        assert np.array_equal(arrays["Z"], backward.Z)

    def test_scalar_round_trips_with_ndim_zero(self, tmp_path):
        path = str(tmp_path / "scalar.qsmp")
        storage.save_container(path, {}, {"s": np.float64(2.5), "v": np.arange(3.0)})
        _, arrays = storage.load_container(path)
        assert arrays["s"].shape == () and arrays["s"] == 2.5
        assert np.array_equal(arrays["v"], np.arange(3.0))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.qsmp"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError):
            storage.load_container(str(path))

    def test_deterministic_bytes(self, tmp_path, solved):
        grid, forward, backward = solved
        p1 = str(tmp_path / "a.qsmp")
        p2 = str(tmp_path / "b.qsmp")
        storage.save_solution(p1, grid, forward, backward)
        storage.save_solution(p2, grid, forward, backward)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_step_major_writes_c_order_bytes(self, tmp_path, monkeypatch):
        # Blocks of 3 rows of 4 x 2 values: 7 rows end in a partial block.
        monkeypatch.setattr(storage, "_BLOCK_BYTES", 3 * 4 * 2 * 8)
        step_major = paths.step_major((7, 4, 2))
        step_major[...] = np.arange(56.0).reshape(7, 4, 2)
        arrays = {"a": step_major, "b": step_major[:, 1:3, 0], "c": np.float64(2.5), "d": np.zeros((0, 3))}
        p1, p2 = str(tmp_path / "step_major.qsmp"), str(tmp_path / "c_order.qsmp")
        storage.save_container(p1, {"M": 7.0}, arrays)
        # np.array, not np.ascontiguousarray, which would promote the 0-d "c" to shape (1,)
        storage.save_container(p2, {"M": 7.0}, {k: np.array(v, order="C") for k, v in arrays.items()})
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert np.array_equal(storage.load_container(p1)[1]["a"], step_major)

    def test_long_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            storage.save_container(str(tmp_path / "x.qsmp"), {"a" * 40: 1.0}, {})


class TestCsvExport:
    def test_paths_export_parses_back(self, tmp_path, solved, monkeypatch):
        grid, forward, backward = solved
        path = tmp_path / "paths.csv"
        monkeypatch.setattr(storage, "_EXPORTED_PATHS", 5)
        storage.export_paths_csv(str(path), grid, forward, backward)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == ["path", "step", "t", "x1", "u1", "Y", "Z1"]
        assert len(lines) == 1 + 5 * (grid.N + 1)
        first = lines[1].split(",")
        assert float(first[3]) == forward.states[0, 0, 0]
        # shortest round-trip float formatting: parsing back is exact
        assert float(lines[2].split(",")[6]) == backward.Z[0, 1, 0]
