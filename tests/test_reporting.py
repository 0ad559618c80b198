"""CSV emission: exact bytes, block order, and fixed-width formatting."""

import numpy as np
import pytest

from resadapt.bench.reporting import write_csv, write_eval_csv
from resadapt.errors import ContractError, ShapeError

HAND = np.array([[0.80, 0.50], [0.75, 0.90]])


class TestGrid:
    def test_single_cell_exact_bytes(self, tmp_path):
        grid, _ = write_csv(np.array([[0.9]]), tmp_path)
        assert grid.read_text() == "trained_task,eval_task,accuracy\n0,0,0.900000\n"

    def test_row_major_order(self, tmp_path):
        grid, _ = write_csv(HAND, tmp_path)
        rows = grid.read_text().strip().split("\n")[1:]
        coords = [tuple(r.split(",")[:2]) for r in rows]
        assert coords == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]

    def test_hand_matrix_exact(self, tmp_path):
        grid, _ = write_csv(HAND, tmp_path)
        assert grid.read_text() == (
            "trained_task,eval_task,accuracy\n"
            "0,0,0.800000\n0,1,0.500000\n1,0,0.750000\n1,1,0.900000\n"
        )

    def test_six_fraction_digits(self, tmp_path):
        grid, _ = write_csv(np.array([[1.0 / 3.0]]), tmp_path)
        assert "0,0,0.333333" in grid.read_text()


class TestSummary:
    def test_transfer_omitted_for_single_task(self, tmp_path):
        _, summary = write_csv(np.array([[0.9]]), tmp_path)
        text = summary.read_text()
        assert "transfer" not in text
        assert text == (
            "metric,task,value\n"
            "avg,0,0.900000\navg,aggregate,0.900000\n"
            "last,0,0.900000\nlast,aggregate,0.900000\n"
        )

    def test_hand_matrix_summary_exact(self, tmp_path):
        _, summary = write_csv(HAND, tmp_path)
        assert summary.read_text() == (
            "metric,task,value\n"
            "transfer,1,0.500000\n"
            "transfer,aggregate,0.500000\n"
            "avg,0,0.775000\navg,1,0.700000\navg,aggregate,0.737500\n"
            "last,0,0.750000\nlast,1,0.900000\nlast,aggregate,0.825000\n"
        )

    def test_block_order(self, tmp_path):
        _, summary = write_csv(np.full((3, 3), 0.5), tmp_path)
        metrics = [line.split(",")[0] for line in summary.read_text().strip().split("\n")[1:]]
        # transfer rows first, then avg, then last; no interleaving
        assert metrics == sorted(metrics, key=["transfer", "avg", "last"].index)
        assert metrics[0] == "transfer" and metrics[-1] == "last"


class TestDeterminismAndErrors:
    def test_repeat_writes_byte_identical(self, tmp_path):
        g1, s1 = write_csv(HAND, tmp_path / "a")
        g2, s2 = write_csv(HAND, tmp_path / "b")
        assert g1.read_bytes() == g2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_creates_nested_out_dir(self, tmp_path):
        grid, summary = write_csv(HAND, tmp_path / "x" / "y")
        assert grid.exists() and summary.exists()

    def test_rejects_non_square(self, tmp_path):
        with pytest.raises(ShapeError):
            write_csv(np.zeros((2, 3)), tmp_path)

    def test_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ContractError):
            write_csv(np.array([[1.5]]), tmp_path)

    def test_rejects_nan_and_writes_nothing(self, tmp_path):
        p = np.full((3, 3), 0.5)
        p[1, 2] = np.nan
        with pytest.raises(ContractError):
            write_csv(p, tmp_path)
        assert not (tmp_path / "grid.csv").exists()
        assert not (tmp_path / "summary.csv").exists()


class TestEvalCsv:
    def test_single_checkpoint_rows(self, tmp_path):
        grid, summary = write_eval_csv([0.5, 0.25], trained_task=3, out_dir=tmp_path)
        assert grid.read_text() == (
            "trained_task,eval_task,accuracy\n3,0,0.500000\n3,1,0.250000\n"
        )
        assert summary.read_text() == (
            "metric,task,value\n"
            "last,0,0.500000\nlast,1,0.250000\nlast,aggregate,0.375000\n"
        )

    @pytest.mark.parametrize("accs", [[0.5, float("nan")], [0.5, 1.5], [-0.1]])
    def test_rejects_out_of_range_and_writes_nothing(self, tmp_path, accs):
        with pytest.raises(ContractError):
            write_eval_csv(accs, trained_task=1, out_dir=tmp_path)
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("accs", [[], [[0.5]]])
    def test_rejects_empty_or_nested(self, tmp_path, accs):
        with pytest.raises(ShapeError):
            write_eval_csv(accs, trained_task=0, out_dir=tmp_path)
