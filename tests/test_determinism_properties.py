"""Property test of the determinism contract: a study's report bytes do not
depend on how its replications are batched, on how many rows the sampler
puts into one FFT block, or on how many threads the sampler runs.

Worker counts are covered by the workers-2 case of TestBatching in
test_study.py: forking a process pool for every example would be too slow.
The examples come from the derandomized profile in conftest.py.
"""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import mvfbm.fbm
import mvfbm.study
from mvfbm.model import preset_mean_deviation, preset_mean_reverting
from mvfbm.study import strong_error_study
from oracles import nested_ladders, planar_model

# Each model with the lowest H its diffusion kind admits.
MODELS = [
    (preset_mean_reverting(initial_spread=0.5), 0.05),  # d = 1, constant sigma
    (planar_model(), 0.05),  # d = 2, a matrix product per replication
    (preset_mean_deviation(initial_spread=0.5), 0.5),  # d = 1, one sigma per particle
]


# Convergence ladders of two or three coarse factors: a slope needs two.
LADDER_LENGTHS = range(2, 4)


@st.composite
def studies(draw):
    """A small convergence study on a nested ladder: its arguments and a way to batch it."""
    model, lowest_hurst = draw(st.sampled_from(MODELS))
    steps = draw(st.integers(8, 32).filter(lambda n: nested_ladders(n, LADDER_LENGTHS)))
    replications = draw(st.integers(2, 6))
    return {
        "model": model,
        "hurst": draw(st.floats(lowest_hurst, 0.95)),
        "particles": draw(st.integers(1, 6)),
        "replications": replications,
        "steps": steps,
        "factors": draw(st.sampled_from(nested_ladders(steps, LADDER_LENGTHS))),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "batch": draw(st.integers(1, replications)),
        "fft_rows": draw(st.integers(1, 5)),
        "threads": draw(st.integers(1, 3)),
    }


def _report_csv(study, batch, fft_rows=None, threads=1):
    """The study's CSV with ``batch`` replications per batch, ``threads``
    usable cores for the sampler and, if given, an FFT budget of
    ``fft_rows`` paths."""
    steps, particles = study["steps"], study["particles"]
    budget = batch * particles * steps * study["model"].dimension * 8
    fft_bytes = mvfbm.fbm._FFT_BLOCK_BYTES if fft_rows is None else fft_rows * 16 * (steps + 1)
    with mock.patch.object(mvfbm.study, "_BATCH_BYTES", budget), \
            mock.patch.object(mvfbm.fbm, "_FFT_BLOCK_BYTES", fft_bytes), \
            mock.patch.object(mvfbm.fbm, "usable_cores", lambda: threads):
        return strong_error_study(
            study["model"], study["hurst"], particles, study["replications"],
            [f / steps for f in study["factors"]], 1.0 / steps, study["seed"],
        ).to_csv()


@settings(max_examples=25)
@given(study=studies())
def test_report_bytes_independent_of_batch_budget_and_fft_block(study):
    assert (_report_csv(study, study["batch"], study["fft_rows"], study["threads"])
            == _report_csv(study, 1))
