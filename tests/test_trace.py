"""
Lambda math, block records and the trace's block grids.
"""
from decimal import Decimal, getcontext

import numpy as np
import pytest

from blockprnu import (ALL_SCHEMES, BLOCK_TYPES, BlockRecord, SchemeConfig,
                       TraceFile, WeightTable, bits_per_pixel, build_mask,
                       lambda_grid, lambda_of_qp, paint_blocks,
                       skipped_block_rate)
from blockprnu.bitstream import load_trace_text, serialize_trace
from blockprnu.errors import CoverageGap, EmptyInput, RangeError, SchemaError
from conftest import grid_records

getcontext().prec = 50


def lam_oracle(qp):
    """0.852 ** ((qp - 12) / 3) evaluated at 50 decimal digits."""
    e = (Decimal(qp) - 12) / 3
    return float((e * Decimal("0.852").ln()).exp())


def test_lambda_of_qp_examples():
    assert lambda_of_qp(12) == 1.0
    assert abs(lambda_of_qp(15) - 0.852) < 1e-12
    assert abs(lambda_of_qp(51) - 0.852 ** 13) < 1e-15
    assert abs(lambda_of_qp(51) - 0.1245) < 2e-4


def test_lambda_of_qp_matches_high_precision_oracle():
    for qp in range(52):
        assert abs(lambda_of_qp(qp) - lam_oracle(qp)) < 1e-9


def test_lambda_of_qp_is_strictly_decreasing():
    values = [lambda_of_qp(q) for q in range(52)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_lambda_of_qp_domain():
    for qp in (-1, 52, 1000):
        with pytest.raises(RangeError):
            lambda_of_qp(qp)


def test_lambda_of_qp_is_lambda_grid_of_one_value():
    for qp in range(52):
        assert lambda_of_qp(qp) == float(lambda_grid(qp))
        assert lambda_of_qp(qp) == 0.852 ** ((qp - 12) / 3.0)
    for qp in (float("nan"), -0.5, 51.5):
        with pytest.raises(RangeError):
            lambda_of_qp(qp)
    with pytest.raises(RangeError, match="qp nan"):
        lambda_grid(np.array([20.0, float("nan")]))


def test_lambda_grid_matches_scalar():
    # vectorized and scalar pow may differ in the last ulp
    qps = np.arange(52).reshape(4, 13)
    grid = lambda_grid(qps)
    for y in range(4):
        for x in range(13):
            scalar = lambda_of_qp(int(qps[y, x]))
            assert abs(grid[y, x] - scalar) <= 1e-14 * scalar
    with pytest.raises(RangeError):
        lambda_grid(np.array([0, 52]))


def test_lambda_rate_examples():
    # one 16x16 frame per example block, read from the trace's stack
    examples = [(12, 100), (15, 0), (24, 50)]
    trace = TraceFile(16, 16, len(examples), [
        BlockRecord(f, 0, 0, "P", qp, bits)
        for f, (qp, bits) in enumerate(examples)])
    assert trace.lambda_rate.shape == (3, 1, 1)
    first, second, got = (float(v) for v in trace.lambda_rate.flat)
    assert first == 100.0
    assert second == 0.0
    assert abs(got - 50 * 0.852 ** 4) < 1e-6
    assert round(got, 2) == 26.35


def test_record_validation():
    BlockRecord(0, 0, 0, "I", 0, 0).validate()
    BlockRecord(0, 0, 0, "SKIP", 20, 1).validate()
    with pytest.raises(RangeError):
        BlockRecord(0, 0, 0, "P", 63, 10).validate()
    with pytest.raises(RangeError):
        BlockRecord(0, 0, 0, "P", -1, 10).validate()
    with pytest.raises(SchemaError):
        BlockRecord(0, 0, 0, "X", 20, 10).validate()
    with pytest.raises(RangeError):
        BlockRecord(0, 0, 0, "P", 20, -3).validate()
    # a "skip" burning 64 bits is not a skip
    with pytest.raises(RangeError):
        BlockRecord(0, 0, 0, "SKIP", 20, 64).validate()


def test_frame_map_grids():
    recs = [BlockRecord(0, 0, 0, "I", 10, 50),
            BlockRecord(0, 1, 0, "P", 20, 60),
            BlockRecord(0, 0, 1, "SKIP", 30, 1),
            BlockRecord(0, 1, 1, "B", 40, 70)]
    tf = TraceFile(32, 32, 1, recs)
    assert tf.qp[0, 0, 1] == 20         # indexed [frame, mb_y, mb_x]
    assert tf.qp[0, 1, 0] == 30
    assert tf.bits[0, 1, 1] == 70
    assert tf.skip.tolist() == [[[False, False], [True, False]]]
    expected_lr = lambda_grid(tf.qp) * tf.bits
    assert np.array_equal(tf.lambda_rate, expected_lr)
    assert BLOCK_TYPES[tf.type_code[0, 1, 0]] == "SKIP"


def test_frame_map_rejects_duplicates_and_gaps():
    recs = grid_records(0, [["P", "P"], ["P", "P"]])
    with pytest.raises(SchemaError):
        TraceFile(32, 32, 1, recs + [recs[0]])
    with pytest.raises(CoverageGap):
        TraceFile(32, 32, 1, recs[:-1])
    with pytest.raises(SchemaError):
        TraceFile(32, 32, 1, recs + [BlockRecord(0, 2, 0, "P", 20, 10)])


def test_trace_file_two_frames():
    recs = grid_records(0, [["I", "I"], ["I", "I"]]) + \
        grid_records(1, [["P", "SKIP"], ["P", "P"]])
    tf = TraceFile(width=32, height=32, frame_count=2, records=recs)
    assert len(tf.records) == 8
    assert tf.type_code.shape[0] == 2
    assert BLOCK_TYPES[tf.type_code[1, 0, 1]] == "SKIP"


def test_trace_gap_names_the_block():
    recs = grid_records(0, [["I", "I"], ["I", "I"]]) + \
        grid_records(1, [["P", "P"], ["P", "P"]])
    recs = [r for r in recs if not (r.frame_idx, r.mb_x, r.mb_y) == (1, 0, 1)]
    with pytest.raises(CoverageGap) as err:
        TraceFile(width=32, height=32, frame_count=2, records=recs)
    assert "(frame 1, 0, 1)" in str(err.value)


def test_skipped_block_rate():
    all_skip = TraceFile(32, 32, 1, grid_records(0, [["SKIP"] * 2] * 2))
    assert skipped_block_rate(all_skip) == 1.0
    none = TraceFile(32, 32, 1, grid_records(0, [["P"] * 2] * 2))
    assert skipped_block_rate(none) == 0.0
    mixed = TraceFile(width=32, height=32, frame_count=2, records=(
        grid_records(0, [["SKIP", "SKIP"], ["SKIP", "P"]]) +
        grid_records(1, [["P", "P"], ["P", "P"]])))
    assert skipped_block_rate(mixed) == 0.375
    with pytest.raises(EmptyInput):
        skipped_block_rate(TraceFile(32, 32, 0, []))


def test_bits_per_pixel():
    one = TraceFile(width=16, height=16, frame_count=1,
                    records=[BlockRecord(0, 0, 0, "I", 20, 256)])
    assert bits_per_pixel(one) == 1.0
    zero = TraceFile(width=16, height=16, frame_count=1,
                     records=[BlockRecord(0, 0, 0, "SKIP", 20, 0)])
    assert bits_per_pixel(zero) == 0.0


def test_bits_per_pixel_fixture_four_tenths():
    # 13,107 bits over 2 frames of 128x128
    recs = []
    for f in range(2):
        for y in range(8):
            for x in range(8):
                recs.append(BlockRecord(f, x, y, "P", 20, 102))
    recs[-1] = BlockRecord(1, 7, 7, "P", 20, 102 + 51)
    tf = TraceFile(width=128, height=128, frame_count=2, records=recs)
    assert sum(r.bits for r in tf.records) == 13107
    assert abs(bits_per_pixel(tf) - 0.4) < 1e-4


def test_bits_per_pixel_sums_bit_counts_beyond_int64_exactly():
    # the loader takes any count below 2**63; two of the largest wrap an
    # int64 sum negative
    big = 2 ** 63 - 1
    tf = TraceFile(16, 16, 2, [BlockRecord(f, 0, 0, "P", 20, big)
                               for f in range(2)])
    loaded = load_trace_text(serialize_trace(tf))
    assert bits_per_pixel(loaded) == 2 * big / (16 * 16 * 2)
    # ordinary traces give the plain sum's float
    rng = np.random.default_rng(46)
    tf = TraceFile(48, 32, 3, [BlockRecord(f, x, y, "P", 20,
                                           int(rng.integers(0, 10 ** 9)))
                               for f in range(3) for y in range(2)
                               for x in range(3)])
    assert bits_per_pixel(tf) == int(tf.bits.sum()) / (48 * 32 * 3)


# ---------------------------------------------------------------------------
# floor- and ceil-sized macroblock grids
# ---------------------------------------------------------------------------

def trace_text(width, height, grid_w, grid_h, frames=1, skip_row=None):
    """Full coverage of a grid_w x grid_h grid; row skip_row is all SKIP."""
    lines = [f"#w={width} h={height} mb=16 frames={frames}"]
    for f in range(frames):
        for y in range(grid_h):
            for x in range(grid_w):
                skip = y == skip_row and x % 2 == 0
                lines.append(f"{f},{x},{y},{'SKIP' if skip else 'P'},20,"
                             f"{1 if skip else 100 + x}")
    return "\n".join(lines) + "\n"


def test_decoder_grid_rounded_up_loads_and_masks_at_frame_size():
    # a real 1080p decoder logs ceil(1080 / 16) = 68 macroblock rows
    tf = load_trace_text(trace_text(1920, 1080, 120, 68, skip_row=67))
    assert (tf.grid_w, tf.grid_h) == (120, 68)
    assert tf.qp.shape == (1, 68, 120)
    assert bits_per_pixel(tf) == sum(r.bits for r in tf.records) / (1920 * 1080)
    tables = {
        "qp_all": WeightTable("qp_all", [15, 20], [1.0, 0.8], 15.0),
        "qp_noskip": WeightTable("qp_noskip", [15, 20], [1.0, 0.8], 15.0),
        "lambda_r": WeightTable("lambda_r", [1.0, 60.0, 3000.0],
                                [0.5, 1.0, 1.5], 60.0),
    }
    for scheme in ALL_SCHEMES:
        (weights,) = build_mask(tf, SchemeConfig(scheme, tables.get(scheme)))
        mask = paint_blocks(weights, (1080, 1920))
        assert mask.shape == (1080, 1920)
        # the partial last row is painted from row 67, cropped at 1080
        assert np.all(mask[1072:, 16:32] == mask[1072, 16])
        assert mask[1079, 16] > 0.0
        assert np.all(mask[1072:, :16] == (0.0 if scheme in
                                           ("skip_eliminate", "qp_noskip",
                                            "lambda_r") else mask[1079, 0]))


def test_floor_sized_grid_still_loads():
    text = trace_text(1920, 1080, 120, 67)
    tf = load_trace_text(text)
    assert (tf.grid_w, tf.grid_h) == (120, 67)
    assert tf.qp.shape == (1, 67, 120)
    assert serialize_trace(tf) == text
    # both axes rounded up, and both floor-sized, on a 40x24 frame
    assert load_trace_text(trace_text(40, 24, 3, 2)).qp.shape == (1, 2, 3)
    assert load_trace_text(trace_text(40, 24, 2, 1)).qp.shape == (1, 1, 2)


def test_grid_one_row_too_many_or_mixed_is_rejected():
    with pytest.raises(SchemaError):
        load_trace_text(trace_text(1920, 1080, 120, 69))
    with pytest.raises(SchemaError):
        load_trace_text(trace_text(40, 24, 4, 2))
    with pytest.raises(SchemaError):      # a multiple of 16 has no partial row
        load_trace_text(trace_text(32, 32, 2, 3))
    # one frame covers the rounded-up grid, the other only the floor grid
    mixed = trace_text(40, 24, 3, 2, frames=2).splitlines()
    mixed = [line for line in mixed if not line.startswith("1,2,")]
    with pytest.raises(CoverageGap):
        load_trace_text("\n".join(mixed) + "\n")


# ---------------------------------------------------------------------------
# the trace as arrays
# ---------------------------------------------------------------------------

def test_frames_are_read_only_views_of_the_trace_arrays():
    tf = load_trace_text(trace_text(40, 24, 3, 2, frames=2, skip_row=1))
    assert tf.type_code.shape == tf.qp.shape == tf.bits.shape == (2, 2, 3)
    assert (tf.type_code.dtype, tf.qp.dtype, tf.bits.dtype) == \
        (np.int8, np.int64, np.int64)
    for name in ("type_code", "qp", "bits"):
        grid = getattr(tf, name)[1]
        assert np.shares_memory(grid, getattr(tf, name))
        with pytest.raises(ValueError):
            grid[0, 0] = 0
    frame_records = [BlockRecord(1, x, y, BLOCK_TYPES[tf.type_code[1, y, x]],
                                 int(tf.qp[1, y, x]), int(tf.bits[1, y, x]))
                     for y in range(tf.grid_h) for x in range(tf.grid_w)]
    assert frame_records == [r for r in tf.records if r.frame_idx == 1]


def test_trace_from_arrays_is_checked_like_records():
    grid = np.ones((1, 1, 2), dtype=np.int64)
    tf = TraceFile(32, 16, 1, type_code=grid, qp=20 * grid, bits=9 * grid)
    assert tf.records == [BlockRecord(0, 0, 0, "P", 20, 9),
                          BlockRecord(0, 1, 0, "P", 20, 9)]
    with pytest.raises(SchemaError, match="unknown block type 'code 7'"):
        TraceFile(32, 16, 1, type_code=7 * grid, qp=20 * grid, bits=grid)
    with pytest.raises(RangeError):
        TraceFile(32, 16, 1, type_code=grid, qp=60 * grid, bits=grid)
    with pytest.raises(SchemaError, match="outside 2x1 grid"):
        TraceFile(32, 16, 1, type_code=np.ones((1, 2, 2)), qp=20 * np.ones((1, 2, 2)),
                  bits=np.ones((1, 2, 2)))
    with pytest.raises(CoverageGap):
        TraceFile(48, 16, 1, type_code=grid, qp=20 * grid, bits=grid)


def test_header_claiming_many_frames_fails_at_the_first_empty_one():
    # only the frames up to the first one without blocks are laid out
    with pytest.raises(CoverageGap, match=r"\(frame 1, 0, 0\)"):
        load_trace_text("#w=1920 h=1080 mb=16 frames=1000000000\n" +
                        trace_text(1920, 1080, 120, 68).split("\n", 1)[1])


def test_records_are_checked_when_the_trace_is_built():
    recs = grid_records(0, [["I", "I"], ["I", "I"]])
    bad_qp = recs[:3] + [BlockRecord(0, 1, 1, "I", 60, 100)]
    with pytest.raises(RangeError):
        TraceFile(width=32, height=32, frame_count=1, records=bad_qp)
    with pytest.raises(SchemaError, match="duplicate"):
        TraceFile(width=32, height=32, frame_count=1, records=recs + recs[:1])
    # records come back in (frame, y, x) order whatever order they came in
    tf = TraceFile(width=32, height=32, frame_count=1,
                   records=list(reversed(recs)))
    assert tf.records == recs
    assert (tf.grid_w, tf.grid_h) == (2, 2)
