"""Kernel correctness: each kernel against a naive pure-python oracle.

The oracles spell each operation out pixel by pixel (sort the clamped
window, walk the vertical runs, flood-fill the 8-connected components).
Fixed random inputs pin a few cases; hypothesis property tests cover
shapes from 1x1 to 40x40, all-background and all-foreground masks, and
images shorter than the median window. The component filter is also held
bit for bit to a filter built on ``scipy.ndimage.label`` on masks up to
200x300, which the flood fill is too slow for, and on the shapes that are
hardest for its run labelling.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

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


@pytest.mark.parametrize("window", [1, 3, 5, 7, 9, 11, 13])
def test_column_median_matches_naive(window):
    rng = np.random.default_rng(11)
    img = rng.uniform(0, 255, (24, 17)).astype(np.float32)
    before = img.copy()
    assert np.array_equal(kernels.column_median(img, window), naive_column_median(img, window))
    assert np.array_equal(img, before)  # passes write only into the kernel's own buffers


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


def test_median_window_bound():
    # the widest window runs, and matches the naive median; the next odd one is refused
    img = np.random.default_rng(14).uniform(0, 255, (40, 6)).astype(np.float32)
    window = kernels.MAX_MEDIAN_WINDOW
    assert np.array_equal(kernels.column_median(img, window), naive_column_median(img, window))
    with pytest.raises(ValueError, match=f"got {window + 2}"):
        kernels.column_median(img, window + 2)


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


# what the median keeps exact: float32, the uint8 levels segmentation filters, masks
ELEMENTS = {
    np.float32: st.one_of(st.integers(0, 255).map(float), st.floats(0, 255, width=32)),
    np.uint8: st.integers(0, 255),
    np.bool_: st.booleans(),
}


@st.composite
def images(draw):
    """(image, window); about half the images are shorter than the window."""
    window = draw(WINDOWS)
    height = draw(st.one_of(st.integers(1, window), SIDE))
    dtype = draw(st.sampled_from(list(ELEMENTS)))
    # arrays() repeats a fill value, so ties are common
    img = draw(arrays(dtype, (height, draw(SIDE)), elements=ELEMENTS[dtype]))
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
    assert out.dtype == img.dtype and out.shape == img.shape
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


# component filter against scipy.ndimage ------------------------------------

def ndimage_remove_small(mask, min_area):
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3)))
    small = np.bincount(labels.ravel()) < min_area
    small[0] = False  # label 0 is the background
    return mask & ~small[labels]


@st.composite
def large_masks(draw):
    """Seeded noise up to 200x300, optionally opened as segmentation opens it."""
    shape = (draw(st.integers(1, 200)), draw(st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.uniform(size=shape) < draw(st.sampled_from([0.05, 0.3, 0.5, 0.7, 0.95]))
    return kernels.vertical_opening(mask, draw(st.integers(0, 2)))


@settings(max_examples=150, deadline=None)
@given(large_masks(), st.integers(0, 300))
def test_remove_small_components_matches_ndimage(mask, min_area):
    out = kernels.remove_small_components(mask, min_area)
    assert out.dtype == np.bool_ and out.shape == mask.shape
    assert np.array_equal(out, ndimage_remove_small(mask, min_area))


def spiral(size):
    """A one-pixel-wide square spiral whose turns are two pixels apart."""
    mask = np.zeros((size, size), bool)
    r = c = 0
    dr, dc = 0, 1
    mask[0, 0] = True
    legs = [size - 1] + [length for length in range(size - 1, 0, -2) for _ in (0, 1)]
    for length in legs:
        for _ in range(length):
            r, c = r + dr, c + dc
            mask[r, c] = True
        dr, dc = dc, -dr
    return mask


def maze(cells_h, cells_w, seed):
    """A random depth-first spanning tree of a cell grid: one component of
    one-pixel corridors that winds back on itself in every direction, so its
    runs join up only after several hooking rounds."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((2 * cells_h - 1, 2 * cells_w - 1), bool)
    mask[0, 0] = True
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        r, c = stack[-1]
        free = [(r + dr, c + dc) for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))
                if 0 <= r + dr < cells_h and 0 <= c + dc < cells_w and (r + dr, c + dc) not in seen]
        if not free:
            stack.pop()
            continue
        nr, nc = free[rng.integers(len(free))]
        seen.add((nr, nc))
        mask[2 * nr, 2 * nc] = mask[r + nr, c + nc] = True
        stack.append((nr, nc))
    return mask


def rake(teeth, length=20):
    """Teeth rooted in column 0, joined by a bar whose first left neighbour is
    a stub rooted after them: every tooth's root hooks to the bar's root in
    the same round, one round per tooth unless the smallest root wins."""
    mask = np.zeros((2 * teeth + 1, length + 2), bool)
    mask[2::2, :length + 1] = True
    mask[0, length] = True
    mask[:, length + 1] = True
    return mask


def serpentine(height, width):
    """Rows of bars joined alternately at the right and the left end."""
    mask = np.zeros((height, width), bool)
    mask[0::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


ONE_COMPONENT_SHAPES = {
    "spiral": spiral(61),
    "maze": maze(50, 80, seed=22),
    "rake": rake(50),
    "serpentine": serpentine(41, 60),
    "staircase": np.eye(40, dtype=bool),
    "antidiagonal staircase": np.eye(40, dtype=bool)[::-1],
    "single row": np.ones((1, 37), bool),
    "single column": np.ones((37, 1), bool),
    "all foreground": np.ones((30, 45), bool),
}


@pytest.mark.parametrize("name", ONE_COMPONENT_SHAPES)
@pytest.mark.parametrize("transform", ["as is", "transposed", "flipped"])
def test_remove_small_components_joins_hard_shapes(name, transform):
    mask = ONE_COMPONENT_SHAPES[name]
    mask = {"as is": mask, "transposed": mask.T, "flipped": mask[::-1, ::-1]}[transform].copy()
    assert ndimage.label(mask, structure=np.ones((3, 3)))[1] == 1
    area = int(mask.sum())
    # one component: kept whole at its own area, cleared whole one pixel above
    assert kernels.remove_small_components(mask, area) is mask
    assert not kernels.remove_small_components(mask, area + 1).any()


@pytest.mark.parametrize("shape", [(30, 40), (0, 40), (30, 0)])
def test_remove_small_components_all_background_returns_input(shape):
    mask = np.zeros(shape, bool)
    assert kernels.remove_small_components(mask, 25) is mask


@pytest.mark.parametrize("min_area", [0, 1])
def test_remove_small_components_min_area_below_two_returns_input(min_area):
    mask = np.random.default_rng(14).uniform(size=(30, 40)) < 0.3
    assert kernels.remove_small_components(mask, min_area) is mask


def test_remove_small_components_keeps_big_and_clears_small_in_one_mask():
    # the hard shapes side by side with isolated pixels and short runs
    mask = np.zeros((110, 400), bool)
    mask[:61, :61] = spiral(61)
    mask[:101, 70:92] = rake(50)
    mask[:41, 100:160] = serpentine(41, 60)
    mask[:99, 170:329] = maze(50, 80, seed=22)
    mask[105, 0:400:3] = True
    mask[104:107, 340:400:4] = True
    out = kernels.remove_small_components(mask, 30)
    assert np.array_equal(out, ndimage_remove_small(mask, 30))
    assert not out[104:107].any() and np.array_equal(out[:101], mask[:101])
