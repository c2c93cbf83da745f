"""Kernel correctness: each kernel against a naive pure-python oracle.

The oracles spell each operation out pixel by pixel (sort the clamped
window, walk the vertical runs, flood-fill the 8-connected components).
Fixed random inputs pin a few cases; hypothesis property tests cover
shapes from 1x1 to 40x40, all-background and all-foreground masks, and
images shorter than the median window.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from midoppler import kernels


def naive_column_median(img, window):
    h, w = img.shape
    half = window // 2
    out = np.empty_like(img)
    for c in range(w):
        for r in range(h):
            rows = [min(max(r - half + k, 0), h - 1) for k in range(window)]
            out[r, c] = sorted(img[rr, c] for rr in rows)[half]
    return out


def naive_vertical_opening(mask, radius):
    min_len = 2 * radius + 1
    out = np.zeros_like(mask)
    h, w = mask.shape
    for c in range(w):
        r = 0
        while r < h:
            if mask[r, c]:
                r0 = r
                while r < h and mask[r, c]:
                    r += 1
                if r - r0 >= min_len:
                    out[r0:r, c] = True
            else:
                r += 1
    return out


def naive_remove_small(mask, min_area):
    h, w = mask.shape
    seen = np.zeros_like(mask)
    out = mask.copy()
    for r0 in range(h):
        for c0 in range(w):
            if mask[r0, c0] and not seen[r0, c0]:
                component = [(r0, c0)]
                seen[r0, c0] = True
                queue = [(r0, c0)]
                while queue:
                    r, c = queue.pop()
                    for dr in (-1, 0, 1):
                        for dc in (-1, 0, 1):
                            rr, cc = r + dr, c + dc
                            if 0 <= rr < h and 0 <= cc < w and mask[rr, cc] and not seen[rr, cc]:
                                seen[rr, cc] = True
                                component.append((rr, cc))
                                queue.append((rr, cc))
                if len(component) < min_area:
                    for r, c in component:
                        out[r, c] = False
    return out


@pytest.mark.parametrize("window", [1, 3, 5, 7])
def test_column_median_matches_naive(window):
    rng = np.random.default_rng(11)
    img = rng.uniform(0, 255, (24, 17)).astype(np.float32)
    assert np.array_equal(kernels.column_median(img, window), naive_column_median(img, window))


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_vertical_opening_matches_naive(radius):
    rng = np.random.default_rng(12)
    mask = rng.uniform(size=(30, 20)) > 0.5
    assert np.array_equal(kernels.vertical_opening(mask, radius), naive_vertical_opening(mask, radius))


@pytest.mark.parametrize("min_area", [1, 4, 9, 30])
def test_remove_small_components_matches_naive(min_area):
    rng = np.random.default_rng(13)
    mask = rng.uniform(size=(28, 22)) > 0.55
    assert np.array_equal(
        kernels.remove_small_components(mask, min_area), naive_remove_small(mask, min_area)
    )


def test_median_rejects_even_window():
    with pytest.raises(ValueError):
        kernels.column_median(np.zeros((4, 4), np.float32), 2)


def test_opening_rejects_negative_radius():
    with pytest.raises(ValueError):
        kernels.vertical_opening(np.zeros((4, 4), bool), -1)


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_opening_clears_columns_shorter_than_the_line(radius):
    for height in range(1, 2 * radius + 1):
        assert not kernels.vertical_opening(np.ones((height, 3), bool), radius).any()
    full = np.ones((2 * radius + 1, 3), bool)
    assert kernels.vertical_opening(full, radius).all()


# property tests --------------------------------------------------------------

SIDE = st.integers(1, 40)
WINDOWS = st.sampled_from([1, 3, 5, 7, 9])
KERNEL_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def images(draw):
    """(image, window); about half the images are shorter than the window."""
    window = draw(WINDOWS)
    height = draw(st.one_of(st.integers(1, window), SIDE))
    # integer luma levels; arrays() repeats a fill value, so ties are common
    levels = st.integers(0, 255).map(float)
    img = draw(arrays(np.float32, (height, draw(SIDE)), elements=levels))
    return img, window


@st.composite
def masks(draw):
    """Blank, full, sparse (shrinkable) or dense seeded-noise masks."""
    shape = (draw(SIDE), draw(SIDE))
    fill = draw(st.sampled_from(["background", "foreground", "sparse", "noise"]))
    if fill == "background":
        return np.zeros(shape, bool)
    if fill == "foreground":
        return np.ones(shape, bool)
    if fill == "sparse":
        return draw(arrays(np.bool_, shape))
    # independent pixels at a fixed density, so diagonal-only contacts and
    # runs of every length turn up
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(size=shape) < draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))


@KERNEL_SETTINGS
@given(images())
def test_column_median_property(case):
    img, window = case
    out = kernels.column_median(img, window)
    assert out.dtype == np.float32 and out.shape == img.shape
    assert np.array_equal(out, naive_column_median(img, window))


@KERNEL_SETTINGS
@given(masks(), st.integers(0, 3))
def test_vertical_opening_property(mask, radius):
    out = kernels.vertical_opening(mask, radius)
    assert out.dtype == np.bool_ and out.shape == mask.shape
    assert np.array_equal(out, naive_vertical_opening(mask, radius))


@KERNEL_SETTINGS
@given(masks(), st.integers(0, 50))
def test_remove_small_components_property(mask, min_area):
    out = kernels.remove_small_components(mask, min_area)
    assert out.dtype == np.bool_ and out.shape == mask.shape
    assert np.array_equal(out, naive_remove_small(mask, min_area))
