"""
Walk through the coded-stream side of the toolkit: build a tiny Annex-B
stream in memory, pull slice headers back out of it, and round-trip the
per-block metadata trace that the estimation pipeline consumes.
"""
import numpy as np

from blockprnu import BlockRecord, TraceFile
from blockprnu.bitstream import (BitReader, BitWriter, NalUnit, parse_annexb,
                                 validate_against_slices)
from blockprnu.trace import load_trace_text, serialize_trace

# --- exp-Golomb primitives ---------------------------------------------------
# Header fields are coded as exp-Golomb integers. Write a few, read them back.
w = BitWriter()
for v in (0, 1, 7, 300):
    w.write_ue(v)
w.write_trailing()
r = BitReader(w.to_bytes())
print("ue round trip:", [r.read_ue() for _ in range(4)])

# --- a minimal SPS + PPS + slices stream -------------------------------------
def sps():
    w = BitWriter()
    w.write_bits(66, 8)      # baseline profile
    w.write_bits(0, 8)
    w.write_bits(30, 8)      # level
    w.write_ue(0)            # sps id
    w.write_ue(0)            # log2_max_frame_num_minus4
    w.write_ue(2)            # poc type
    w.write_ue(1)            # max ref frames
    w.write_bit(0)
    w.write_ue(3)            # width in mbs, minus 1 -> 64 px
    w.write_ue(3)            # height in mbs, minus 1 -> 64 px
    w.write_bit(1)           # frame_mbs_only
    w.write_bit(0)
    w.write_bit(0)
    w.write_bit(0)
    w.write_trailing()
    return w.to_bytes()

def pps(init_qp_minus26):
    w = BitWriter()
    w.write_ue(0); w.write_ue(0)
    w.write_bit(0); w.write_bit(0)
    w.write_ue(0); w.write_ue(0); w.write_ue(0)
    w.write_bit(0); w.write_bits(0, 2)
    w.write_se(init_qp_minus26)
    w.write_se(0); w.write_se(0)
    w.write_bit(0); w.write_bit(0); w.write_bit(0)
    w.write_trailing()
    return w.to_bytes()

def slice_hdr(type_code, qp_delta, idr=False):
    w = BitWriter()
    w.write_ue(0)            # first_mb_in_slice
    w.write_ue(type_code)
    w.write_ue(0)            # pps id
    w.write_bits(0, 4)       # frame_num
    if idr:
        w.write_ue(0)
    if type_code in (0, 5):  # P needs ref list syntax
        w.write_bit(0); w.write_bit(0)
    if idr:
        w.write_bit(0); w.write_bit(0)
    else:
        w.write_bit(0)
    w.write_se(qp_delta)
    w.write_trailing()
    return w.to_bytes()

stream = (NalUnit.build(3, 7, sps()).framed +
          NalUnit.build(3, 8, pps(init_qp_minus26=2)).framed +
          NalUnit.build(1, 5, slice_hdr(7, 4, idr=True)).framed +
          NalUnit.build(1, 1, slice_hdr(0, -3)).framed)
print(f"stream bytes: {len(stream)}")

slices, ctx = parse_annexb(stream)
for s in slices:
    print(f"  frame {s.frame_index}: type {s.slice_type}, base QP {s.base_qp}")
assert [s.base_qp for s in slices] == [32, 25]   # 26 + 2 + delta

# --- the block trace sidecar --------------------------------------------------
# Decoders see slice-level QP; per-block metadata rides in a text trace.
records = []
for t, row_types in enumerate(([["I"] * 4] * 4, [["P", "SKIP", "P", "SKIP"]] * 4)):
    for mb_y, row in enumerate(row_types):
        for mb_x, bt in enumerate(row):
            bits = 1 if bt == "SKIP" else 90
            records.append(BlockRecord(t, mb_x, mb_y, bt, 32 if t == 0 else 25,
                                       bits))
trace = TraceFile(width=64, height=64, frame_count=2, records=records)
text = serialize_trace(trace)
print("trace header:", text.splitlines()[0])
print("first rows:  ", *text.splitlines()[1:3])

reloaded = load_trace_text(text)
assert serialize_trace(reloaded) == text
print("text round trip: exact")

# The trace can be sanity-checked against what the bitstream itself says.
warnings = validate_against_slices(reloaded, slices)
print("cross-check warnings:", warnings if warnings else "none")
