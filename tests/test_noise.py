"""Denoising, residual extraction, and raw-frame I/O."""

import gc
import os
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import correlate1d, uniform_filter

from blockprnu import (
    ConfigError,
    DenoiseConfig,
    SchemaError,
    extract_residual,
    read_yuv420,
    saturation_mask,
    wiener_adaptive,
    write_yuv420,
    zero_mean_rows_cols,
)
from blockprnu import noise
from blockprnu.noise import (_DEC_HI, _DEC_LO, wavedec2, waverec2,
                             wiener_spatial)


def reference_dwt_axis(x, axis):
    """Periodized analysis by explicit gather: band[k] = sum_m F[m] x[2k+m]."""
    n = x.shape[axis]
    xm = np.moveaxis(x, axis, -1)
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(_DEC_LO.size)[None, :]) % n
    win = xm[..., idx]
    return (np.moveaxis(win @ _DEC_LO, -1, axis),
            np.moveaxis(win @ _DEC_HI, -1, axis))


def reference_idwt_axis(lo, hi, axis):
    """Adjoint of reference_dwt_axis: upsample by zeros, then cyclic shifts."""
    lom = np.moveaxis(lo, axis, -1)
    him = np.moveaxis(hi, axis, -1)
    n = 2 * lom.shape[-1]
    up_lo = np.zeros(lom.shape[:-1] + (n,))
    up_hi = np.zeros_like(up_lo)
    up_lo[..., ::2] = lom
    up_hi[..., ::2] = him
    out = np.zeros_like(up_lo)
    for m in range(_DEC_LO.size):
        out += _DEC_LO[m] * np.roll(up_lo, m, axis=-1)
        out += _DEC_HI[m] * np.roll(up_hi, m, axis=-1)
    return np.moveaxis(out, -1, axis)


@settings(max_examples=60, deadline=None)
@example(half=1, other=3, axis=0, tile=1, seed=0)
@example(half=2, other=5, axis=1, tile=1, seed=1)   # fewer rows than the wrap
@example(half=23, other=4, axis=0, tile=1, seed=2)  # last strip of 7 rows
@given(half=st.integers(1, 32), other=st.integers(1, 12),
       axis=st.sampled_from([0, 1]), tile=st.sampled_from([1, 1 << 16]),
       seed=st.integers(0, 2**32 - 1))
def test_dwt_kernels_match_reference(half, other, axis, tile, seed):
    # even transform lengths 2-64, shorter and longer than the 8-tap filter,
    # on either axis of a non-square plane; a tile of 1 coefficient cuts a
    # level into strips of 4 rows (the last one takes what is left), the
    # default tile leaves it whole
    rng = np.random.default_rng(seed)
    shape = (2 * half, 2 * other) if axis == 0 else (2 * other, 2 * half)
    x = rng.normal(size=shape)
    rows = reference_dwt_axis(x, 0)
    # [column band][row band]: LL, LH, HL, HH
    want = [reference_dwt_axis(band, 1)[col] for col in (0, 1) for band in rows]
    bands = rng.normal(size=(4, shape[0] // 2, shape[1] // 2))
    with patch.object(noise, "TILE_COEFFS", tile):
        [level] = wavedec2(x, 1)
        got = waverec2([bands])
    assert level.shape == bands.shape
    assert np.max(np.abs(level - np.stack(want))) <= 1e-12
    # synthesis: columns, then rows
    cols = [reference_idwt_axis(bands[row], bands[2 + row], 1) for row in (0, 1)]
    want = reference_idwt_axis(*cols, 0)
    assert got.shape == want.shape == shape
    assert np.max(np.abs(got - want)) <= 1e-12


def on_threads(pool):
    """A `spread` that computes every item on the pool's threads."""
    return lambda fn, items: list(pool.map(fn, items))


# The scipy.ndimage kernels the package used before its numpy ones. They
# stay here as oracles: the package itself imports no scipy.

def scipy_dwt_axis(x, axis):
    even = np.arange(0, x.shape[axis], 2)
    return tuple(correlate1d(x, f, axis, mode="wrap", origin=-4).take(even, axis)
                 for f in (_DEC_LO, _DEC_HI))


def scipy_idwt_axis(lo, hi, axis):
    phases = [sum(correlate1d(band, f[r::2][::-1], axis, mode="wrap", origin=1)
                  for band, f in ((lo, _DEC_LO), (hi, _DEC_HI)))
              for r in (0, 1)]
    shape = list(lo.shape)
    shape[axis] *= 2
    return np.stack(phases, axis=axis + 1).reshape(shape)


def scipy_wiener_adaptive(coeffs, noise_var):
    signal_var = None
    sq = coeffs * coeffs
    for w in (3, 5, 7, 9):
        est = np.maximum(uniform_filter(sq, w, mode="reflect") - noise_var, 0.0)
        signal_var = est if signal_var is None else np.minimum(signal_var, est)
    return coeffs * signal_var / (signal_var + noise_var)


def scipy_wiener_spatial(x, noise_var):
    local_mean = uniform_filter(x, 3, mode="reflect")
    local_sq = uniform_filter(x * x, 3, mode="reflect")
    local_var = np.maximum(local_sq - local_mean * local_mean, 0.0)
    signal_var = np.maximum(local_var - noise_var, 0.0)
    return local_mean + (x - local_mean) * signal_var / (signal_var + noise_var)


def scipy_residual(luma, noise_var=3.0, levels=4):
    """extract_residual of the wavelet path, built from the scipy kernels."""
    x = luma.astype(np.float64)
    cur, details = x, []
    for _ in range(levels):
        if cur.shape[0] % 2 or cur.shape[1] % 2:
            break
        lo, hi = scipy_dwt_axis(cur, 1)
        cur, lh = scipy_dwt_axis(lo, 0)
        hl, hh = scipy_dwt_axis(hi, 0)
        details.append(tuple(scipy_wiener_adaptive(b, noise_var)
                             for b in (lh, hl, hh)))
    noise = np.zeros_like(cur)
    for lh, hl, hh in reversed(details):
        lo = scipy_idwt_axis(noise, lh, 0)
        hi = scipy_idwt_axis(hl, hh, 0)
        noise = scipy_idwt_axis(lo, hi, 1)
    return zero_mean_rows_cols(x - (x - noise))


@settings(max_examples=150, deadline=None)
@given(h=st.integers(1, 40), w=st.integers(1, 40), stack=st.integers(1, 3),
       scale=st.sampled_from([0.1, 1.0, 3.0, 30.0]),
       seed=st.integers(0, 2**32 - 1))
def test_wiener_filters_match_uniform_filter_oracle(h, w, stack, scale, seed):
    # every plane size from 1x1 up, including planes smaller than the 9x9
    # window, where the reflection wraps more than once; one call on a
    # stack of subbands equals one call per subband
    rng = np.random.default_rng(seed)
    coeffs = scale * rng.normal(size=(stack, h, w))
    got = wiener_adaptive(coeffs, 3.0)
    assert got.shape == coeffs.shape
    for band, out in zip(coeffs, got):
        want = scipy_wiener_adaptive(band, 3.0)
        assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(band))
    pixels = np.clip(128 + scale * 4 * rng.normal(size=(h, w)), 0, 255)
    want = scipy_wiener_spatial(pixels, 3.0)
    assert np.max(np.abs(wiener_spatial(pixels, 3.0) - want)) <= 1e-12 * 255


@pytest.mark.parametrize("shape", [(3, 300, 200), (3, 329, 200), (2000, 80)])
@pytest.mark.parametrize("tile", [noise.TILE_COEFFS, 1])
@pytest.mark.parametrize("in_place", [False, True])
def test_wiener_adaptive_tile_seams(shape, tile, in_place, monkeypatch):
    # at the default tile size each spans 3 or 4 strips; (3, 329, 200)
    # ends in a strip of 5 rows. A tile of 1 coefficient gives strips of 4
    # rows, the fewest allowed, so the rows a strip shares with each
    # neighbour's window are all of its rows. On 2 threads the strips run
    # in any order, and none may read a row another has written
    rng = np.random.default_rng(sum(shape))
    coeffs = 3 * rng.normal(size=shape)
    stack = coeffs.reshape((-1,) + shape[-2:])
    with monkeypatch.context() as m:
        m.setattr(noise, "TILE_COEFFS", coeffs.size * 16)
        whole = wiener_adaptive(coeffs, 3.0)
    monkeypatch.setattr(noise, "TILE_COEFFS", tile)
    with ThreadPoolExecutor(2) as pool:
        for spread in (None, on_threads(pool)):
            data = coeffs.copy()
            got = wiener_adaptive(data, 3.0, out=data if in_place else None,
                                  spread=spread)
            assert (got is data) == in_place
            assert np.array_equal(got, whole)
            if not in_place:
                assert np.array_equal(data, coeffs)
    for band, out in zip(stack, got.reshape(stack.shape)):
        want = scipy_wiener_adaptive(band, 3.0)
        assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(band))


def test_720p_extraction_peaks_under_three_planes():
    # room for the wavelet pyramid (4/3 of a plane), the residual and a few
    # strips of rows per thread, not for a frame-sized temporary
    rng = np.random.default_rng(15)
    luma = rng.integers(0, 256, size=(720, 1280), dtype=np.uint8)
    with ThreadPoolExecutor(2) as pool:
        for spread in (None, on_threads(pool)):
            tracemalloc.start()
            try:
                residual = extract_residual(luma, spread=spread)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert residual.shape == luma.shape
            assert peak <= 3 * residual.nbytes


def test_extraction_calls_each_kernel_by_module_name(monkeypatch):
    # the benchmark's tracer times the DWT, the Wiener filter and the IDWT
    # by rebinding these module attributes; a kernel reached another way
    # would read 0 there
    calls = {}
    for name in ("wavedec2", "wiener_adaptive", "waverec2"):
        kernel = getattr(noise, name)

        def counted(*args, _kernel=kernel, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(noise, name, counted)
    rng = np.random.default_rng(16)
    extract_residual(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
    # 64 -> 32 -> 16 -> 8 -> 4: four levels, each filtered once
    assert calls == {"wavedec2": 1, "wiener_adaptive": 4, "waverec2": 1}


def test_720p_residual_matches_scipy_kernels():
    rng = np.random.default_rng(12)
    yy, xx = np.mgrid[0:720, 0:1280]
    scene = 128 + 60 * np.sin(xx / 97.0) * np.cos(yy / 61.0)
    luma = np.clip(np.rint(scene + 6 * rng.normal(size=scene.shape)), 0, 255)
    luma = luma.astype(np.uint8)
    got = extract_residual(luma)
    assert np.max(np.abs(got - scipy_residual(luma))) <= 1e-12


def test_constant_frame_gives_degenerate_zero_residual():
    res = extract_residual(np.full((48, 48), 128, dtype=np.uint8))
    assert np.all(res == 0.0)
    assert res.shape == (48, 48)


def test_constant_frame_degenerate_for_spatial_too():
    res = extract_residual(np.full((32, 32), 7, dtype=np.uint8),
                           DenoiseConfig(method="spatial"))
    assert np.all(res == 0.0)


@pytest.mark.parametrize("method", ["wavelet", "spatial"])
@pytest.mark.parametrize("shape", [(6, 128, 128), (3, 48, 80), (3, 40, 72),
                                   (4, 8, 8), (3, 720, 1280)])
def test_stacked_extraction_equals_per_plane_calls(method, shape, monkeypatch):
    # 48x80 takes all 4 levels down to 3x5; 40x72 and 8x8 stop the DWT
    # after 3 (5x9 is odd, 1x1 too small). A constant plane inside a stack
    # still gets zeros, and its neighbours are untouched by it. At 720p the
    # second level's strips leave a short last one; a tile of 1 coefficient
    # cuts every level into strips of 4 rows and a longer last one (40x72:
    # 4, 4, 4, 8 rows). Strips computed on threads give the same bytes,
    # and so do strips of 4 rows: OpenBLAS computes each group of 4
    # outputs of a pass the same, however long the pass
    config = DenoiseConfig(method=method)
    rng = np.random.default_rng(sum(shape))
    stack = rng.integers(0, 256, size=shape, dtype=np.uint8)
    stack[1] = 93
    first = None
    with ThreadPoolExecutor(2) as pool:
        for tile in (noise.TILE_COEFFS, 1):
            monkeypatch.setattr(noise, "TILE_COEFFS", tile)
            got = extract_residual(stack, config)
            first = got.tobytes() if first is None else first
            assert got.tobytes() == first
            assert got.shape == shape and got.dtype == np.float64
            assert not got[1].any()
            for plane, residual in zip(stack, got):
                for spread in (None, on_threads(pool)):
                    alone = extract_residual(plane, config, spread=spread)
                    assert residual.tobytes() == alone.tobytes()


def test_stacked_levels_put_the_band_first():
    # a (k, H, W) stack gives (4, k, h, w) levels, each the plane's own
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(3, 32, 16))
    levels = wavedec2(stack, levels=2)
    assert [level.shape for level in levels] == [(4, 3, 8, 4), (4, 3, 16, 8)]
    for k, plane in enumerate(stack):
        for level, alone in zip(levels, wavedec2(plane, levels=2)):
            assert level[:, k].tobytes() == alone.tobytes()
    assert waverec2(levels).tobytes() == np.stack(
        [waverec2(wavedec2(plane, levels=2)) for plane in stack]).tobytes()


def test_wavedec2_waverec2_perfect_reconstruction():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(64, 48))
    levels = wavedec2(x, levels=4)
    assert len(levels) == 4
    taken = list(levels)
    y = waverec2(taken)
    assert taken == []
    assert y.shape == x.shape
    assert np.max(np.abs(y - x)) < 1e-10
    # each level was synthesized into the LL of the next finer one
    for coarse, fine in zip(levels, levels[1:]):
        assert np.array_equal(fine[0], waverec2([coarse]))


def test_wavedec2_stops_when_extent_goes_odd():
    # 24 -> 12 -> 6 -> 3; the 3-wide approximation cannot split again
    rng = np.random.default_rng(4)
    x = rng.normal(size=(24, 24))
    levels = wavedec2(x, levels=4)
    assert len(levels) == 3
    assert levels[0][0].shape == (3, 3)
    y = waverec2(levels)
    assert np.max(np.abs(y - x)) < 1e-10
    assert wavedec2(rng.normal(size=(5, 8)), levels=4) == []


def test_wavedec2_subband_shapes_halve():
    x = np.arange(32 * 16, dtype=np.float64).reshape(32, 16)
    levels = wavedec2(x, levels=2)
    # levels come coarse to fine, each one contiguous (LL, LH, HL, HH)
    assert [level.shape for level in levels] == [(4, 8, 4), (4, 16, 8)]
    assert all(level.flags.c_contiguous for level in levels)
    # the LL of the finer level is the plane the coarser one splits
    [coarse] = wavedec2(levels[1][0], levels=1)
    assert np.array_equal(coarse, levels[0])


def test_residual_invariant_to_constant_offset():
    rng = np.random.default_rng(6)
    base = np.clip(np.rint(110 + 12 * rng.normal(size=(64, 64))), 40, 180)
    lo = base.astype(np.uint8)
    hi = (base + 30).astype(np.uint8)
    for cfg in (DenoiseConfig(), DenoiseConfig(method="spatial")):
        r_lo = extract_residual(lo, cfg)
        r_hi = extract_residual(hi, cfg)
        assert np.max(np.abs(r_hi - r_lo)) < 1e-6


def test_white_noise_energy_ratio_frozen():
    # with no structure to protect, the wavelet path classifies nearly all
    # AC energy as noise; value frozen from this implementation
    rng = np.random.default_rng(5)
    luma = np.clip(np.rint(128 + 20 * rng.normal(size=(128, 128))), 0, 255)
    res = extract_residual(luma.astype(np.uint8))
    x = luma.astype(np.float64)
    ac = ((x - x.mean()) ** 2).sum()
    ratio = (res ** 2).sum() / ac
    assert ratio == pytest.approx(0.9644915505353632, rel=1e-9)


def test_spatial_filter_keeps_high_variance_texture():
    # local variance far above noise_var, so the spatial Wiener filter
    # passes the field through and removes almost nothing
    rng = np.random.default_rng(5)
    luma = np.clip(np.rint(128 + 20 * rng.normal(size=(128, 128))), 0, 255)
    res = extract_residual(luma.astype(np.uint8),
                           DenoiseConfig(method="spatial"))
    x = luma.astype(np.float64)
    ac = ((x - x.mean()) ** 2).sum()
    assert (res ** 2).sum() / ac < 0.01


def test_residual_tracks_sparse_spikes_on_smooth_ramp():
    yy, xx = np.mgrid[0:64, 0:64]
    ramp = 60 + 0.8 * xx + 0.5 * yy
    rng = np.random.default_rng(9)
    spikes = np.zeros((64, 64))
    pos = rng.choice(64 * 64, size=300, replace=False)
    spikes.flat[pos] = 25.0
    res = extract_residual(
        np.clip(np.rint(ramp + spikes), 0, 255).astype(np.uint8))
    centered = spikes - spikes.mean()
    corr = (res * centered).sum() / np.sqrt((res**2).sum() * (centered**2).sum())
    assert corr > 0.5


def test_zero_mean_rows_cols_kills_both_means():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(31, 57)) + 4.0
    y = zero_mean_rows_cols(x)
    assert np.max(np.abs(y.mean(axis=1))) < 1e-12
    assert np.max(np.abs(y.mean(axis=0))) < 1e-12
    assert x.mean() != 0.0  # input untouched


def test_residual_is_row_and_column_zero_meaned():
    rng = np.random.default_rng(8)
    luma = np.clip(np.rint(120 + 15 * rng.normal(size=(48, 80))), 0, 255)
    res = extract_residual(luma.astype(np.uint8))
    assert np.max(np.abs(res.mean(axis=1))) < 1e-10
    assert np.max(np.abs(res.mean(axis=0))) < 1e-10


def test_saturation_mask_bounds_are_exclusive():
    luma = np.array([[0, 5, 6, 128], [249, 250, 255, 100]], dtype=np.uint8)
    mask = saturation_mask(luma)
    expected = np.array([[0, 0, 1, 1], [1, 0, 0, 1]], dtype=np.float64)
    assert np.array_equal(mask, expected)
    assert mask.dtype == np.float64


def test_saturation_mask_half_and_half():
    luma = np.full((16, 16), 128, dtype=np.uint8)
    luma[:, 8:] = 255
    mask = saturation_mask(luma)
    assert np.all(mask[:, :8] == 1.0)
    assert np.all(mask[:, 8:] == 0.0)


def test_yuv420_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    frames = np.stack([
        rng.integers(0, 256, size=(16, 32), dtype=np.uint8)
        for _ in range(3)
    ])
    path = tmp_path / "clip.yuv"
    write_yuv420(frames, path)
    assert path.stat().st_size == 3 * (16 * 32 * 3 // 2)
    back = read_yuv420(path, width=32, height=16)
    assert back.shape == (3, 16, 32) and back.dtype == np.uint8
    with pytest.raises(ConfigError):
        write_yuv420(frames.astype(np.float64), tmp_path / "float.yuv")
    for a, b in zip(frames, back):
        assert np.array_equal(a, b)


def test_yuv420_round_trip_at_odd_size(tmp_path):
    # each chroma plane of a 33x17 frame is 17x9, not 16x8
    rng = np.random.default_rng(11)
    frames = np.stack([rng.integers(0, 256, size=(17, 33), dtype=np.uint8)
                       for _ in range(2)])
    path = tmp_path / "odd.yuv"
    write_yuv420(frames, path)
    assert path.stat().st_size == 2 * (33 * 17 + 2 * 17 * 9)
    back = read_yuv420(path, width=33, height=17)
    assert [b.tolist() for b in back] == [f.tolist() for f in frames]


def test_yuv420_size_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.yuv"
    path.write_bytes(b"\x80" * 100)
    with pytest.raises(SchemaError) as err:
        read_yuv420(path, width=32, height=16)
    assert "4:2:0" in str(err.value)


def test_yuv420_read_holds_only_the_luma(tmp_path):
    # 40 frames of 64x48: 123 kB of luma in a 184 kB file
    rng = np.random.default_rng(12)
    frames = rng.integers(0, 256, size=(40, 48, 64), dtype=np.uint8)
    path = tmp_path / "clip.yuv"
    write_yuv420(frames, path)
    tracemalloc.start()
    try:
        back = read_yuv420(path, width=64, height=48)[:]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, frames)
    assert peak <= frames.nbytes + 16 * 1024


def _eager_read_yuv420(path, width, height):
    """Oracle: every luma plane of the file read at once."""
    chroma = 2 * ((width + 1) // 2) * ((height + 1) // 2)
    frame_bytes = width * height + chroma
    size = os.path.getsize(path)
    luma = np.empty((size // frame_bytes, height, width), dtype=np.uint8)
    with open(path, "rb") as f:
        for plane in luma:
            assert f.readinto(plane) == plane.nbytes
            f.seek(chroma, os.SEEK_CUR)
    return luma


def test_yuv420_reads_only_what_it_is_asked_for(tmp_path):
    rng = np.random.default_rng(13)
    frames = rng.integers(0, 256, size=(7, 17, 33), dtype=np.uint8)
    path = tmp_path / "odd.yuv"
    write_yuv420(frames, path)
    want = _eager_read_yuv420(path, 33, 17)
    stack = read_yuv420(path, width=33, height=17)
    assert (stack.shape, stack.dtype, stack.ndim, stack.size, len(stack)) == (
        want.shape, want.dtype, want.ndim, want.size, len(want))
    assert all(np.array_equal(stack[i], want[i]) for i in range(-7, 7))
    for key in (slice(None), slice(2, 5), slice(None, None, 3),
                slice(None, None, -2), slice(6, 2, -1), slice(4, 4)):
        assert np.array_equal(stack[key], want[key]), key
    assert all(np.array_equal(a, b) for a, b in zip(stack, want))
    assert np.array_equal(np.asarray(stack), want)
    with pytest.raises(IndexError):
        stack[7]


def test_yuv420_read_allocates_only_the_planes_asked_for(tmp_path):
    rng = np.random.default_rng(14)
    frames = rng.integers(0, 256, size=(40, 48, 64), dtype=np.uint8)
    path = tmp_path / "clip.yuv"
    write_yuv420(frames, path)
    tracemalloc.start()
    try:
        stack = read_yuv420(path, width=64, height=48)
        _, opened = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        plane = stack[5]
        _, one = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for last in stack:
            pass
        _, iterated = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    plane_bytes = frames[0].nbytes
    assert opened < plane_bytes
    assert one < plane_bytes + 16 * 1024
    assert iterated < 2 * plane_bytes + 16 * 1024
    assert np.array_equal(plane, frames[5])
    assert np.array_equal(last, frames[-1])


def test_yuv420_read_of_a_shrunk_file_fails_and_no_file_stays_open(
        tmp_path, monkeypatch):
    path = tmp_path / "clip.yuv"
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        write_yuv420(np.zeros((4, 16, 32), np.uint8), path)
        stack = read_yuv420(path, width=32, height=16)
        first = iter(stack)
        next(first), next(first)    # an iteration left half done
        stack[2], stack[1:3]
        # the file shrinks to two and a half frames before a read
        with open(path, "r+b") as f:
            f.truncate(2 * 768 + 300)
        assert np.array_equal(stack[:2], np.zeros((2, 16, 32)))
        for late in (lambda: stack[2], lambda: stack[1:], lambda: stack[3],
                     lambda: list(stack), lambda: next(first)):
            with pytest.raises(SchemaError, match="truncated while reading"):
                late()
        del first, stack
        gc.collect()
    assert unraisable == []


def test_denoise_config_validation():
    with pytest.raises(ConfigError):
        DenoiseConfig(method="median")
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            DenoiseConfig(noise_var=bad)
