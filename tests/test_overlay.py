"""overlay's physical-unit <-> pixel conversions: velocity_to_row against
mask_to_trace's readings, and time_to_col against the ECG strip's time axis
as the --dump-ecg CSV and the QRS marks read it."""

import numpy as np
import pytest

from midoppler.overlay import time_to_col, velocity_to_row
from midoppler.segmentation import EnvelopeMask, mask_to_trace

from conftest import make_manifest
from test_ecg import dump_times, mark_times


def staircase_trace(manifest, tops):
    """mask_to_trace of a mask whose column j is filled from row tops[j] down."""
    x0, y0, x1, y1 = manifest.spectral_region
    cells = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
    for j, top in enumerate(tops):
        cells[top - y0:, j] = True
    return mask_to_trace(EnvelopeMask(cells), manifest)


def test_baseline_row_maps_to_zero(manifest):
    assert velocity_to_row(0.0, manifest) == manifest.baseline_row


def test_linear_velocity_scale(manifest):
    assert velocity_to_row(0.05, manifest) == pytest.approx(manifest.baseline_row - 10)


def test_sign_convention_below_baseline():
    manifest = make_manifest(baseline_row=70)
    assert velocity_to_row(-0.1, manifest) == pytest.approx(90)


def test_flow_below_baseline_flips_sign():
    manifest = make_manifest(baseline_row=70, flow_above_baseline=False)
    assert velocity_to_row(0.1, manifest) == pytest.approx(90)


def test_time_origin_at_region_left(manifest):
    assert manifest.ecg_region[0] == manifest.spectral_region[0]
    assert dump_times(manifest)[0] == 0.0
    assert mark_times(manifest, 0).tolist() == [0.0]
    assert time_to_col(0.0, manifest) == manifest.spectral_region[0]


def test_row_to_velocity_strictly_decreasing(manifest):
    _, y0, _, _ = manifest.spectral_region
    rows = np.arange(y0, manifest.baseline_row + 1)  # top of the region down to the baseline
    velocities = staircase_trace(manifest, rows).velocities[: len(rows)]
    assert all(a > b for a, b in zip(velocities, velocities[1:]))
    assert velocities[-1] == 0.0


def test_conversions_invert_up_to_pixel_quantization():
    rng = np.random.default_rng(21)
    for _ in range(50):
        manifest = make_manifest(
            velocity_scale=float(rng.uniform(0.001, 0.02)),
            time_scale=float(rng.uniform(0.5, 10.0)),
        )
        x0, y0, x1, _ = manifest.spectral_region
        tops = rng.integers(y0, manifest.baseline_row + 1, size=x1 - x0 + 1)
        trace = staircase_trace(manifest, tops)
        for col in rng.integers(0, x1 - x0 + 1, size=5):
            assert round(velocity_to_row(trace.velocities[col], manifest)) == tops[col]
            assert round(time_to_col(col * trace.spacing, manifest)) == x0 + col
        for col in rng.integers(0, x1 - x0 + 1, size=5):
            assert round(time_to_col(dump_times(manifest)[col], manifest)) == x0 + col
            assert [round(time_to_col(t, manifest)) for t in mark_times(manifest, col)] == [x0 + col]
