"""Shared fixtures: tiny deterministic encoders and the session's full-scale runs."""

import functools
from pathlib import Path

import pytest

from resadapt.backbone import EncoderSpec
from resadapt.bench.cli import main
from resadapt.bench.verify import run_suite

DEFAULT_CFG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"


@pytest.fixture(scope="session")
def small_encoder():
    # d=8, depth=2, vocab=64: big enough to exercise everything, fast to run
    return EncoderSpec(vocab=64, d=8, depth=2, seed=0).build()


@pytest.fixture(scope="session")
def default_encoder():
    return EncoderSpec().build()


@pytest.fixture(scope="session")
def all_reports():
    # Every verify suite, claims included (three full runs of the default
    # stream, ~6 s), run once per session; the acceptance criteria read it.
    return run_suite("all")


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """`resadapt run --config configs/default.cfg --mode M`, once per mode.

    Returns a function of the mode that gives the run's output directory.
    """

    @functools.cache
    def run(mode: str) -> Path:
        out = tmp_path_factory.mktemp(f"default-{mode}")
        assert main(["run", "--config", str(DEFAULT_CFG), "--mode", mode, "--out", str(out)]) == 0
        return out

    return run
