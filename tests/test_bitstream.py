"""
NAL framing, exp-Golomb coding, parameter-set and slice-header parsing,
trace text files.
"""
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockprnu import BLOCK_TYPES, BlockRecord, TraceFile, trace
from blockprnu.bitstream import (BitReader, BitWriter, NalUnit,
                                 ParameterSetContext, escape_payload,
                                 parse_annexb, parse_slice_header, parse_sps,
                                 split_nal_units, unescape_payload,
                                 validate_against_slices)
from blockprnu.errors import (BitstreamExhausted, BlockPrnuError, CoverageGap,
                              MalformedStream, MissingParameterSet,
                              RangeError, SchemaError, TruncatedUnit,
                              UnsupportedProfile)
from blockprnu.trace import load_trace_text, serialize_trace
from conftest import grid_records


# ---------------------------------------------------------------------------
# exp-Golomb
# ---------------------------------------------------------------------------

def test_ue_shortest_codeword():
    assert BitReader(b"\x80").read_ue() == 0          # "1"


def test_ue_example_00101():
    assert BitReader(b"\x28").read_ue() == 4          # "00101" + padding


def test_ue_codewords_up_to_five_bits_against_brute_force():
    # codeword for k: (bitlen(k+1) - 1) zeros, then k+1 in binary
    for k in range(7):
        code = k + 1
        n = code.bit_length()
        expected = "0" * (n - 1) + format(code, "b")
        assert len(expected) <= 5
        w = BitWriter()
        w.write_ue(k)
        got = "".join(str((w.to_bytes()[i // 8] >> (7 - i % 8)) & 1)
                      for i in range(2 * n - 1))
        assert got == expected
        r = BitReader(w.to_bytes())
        assert r.read_ue() == k


def test_se_mapping_oracle():
    # k -> 0, +1, -1, +2, -2, ...
    expected = [0]
    for m in range(1, 9):
        expected += [m, -m]
    for k in range(17):
        w = BitWriter()
        w.write_ue(k)
        assert BitReader(w.to_bytes()).read_se() == expected[k]


def test_se_examples():
    w = BitWriter()
    w.write_ue(3)
    assert BitReader(w.to_bytes()).read_se() == 2
    w = BitWriter()
    w.write_ue(4)
    assert BitReader(w.to_bytes()).read_se() == -2


@given(st.integers(min_value=0, max_value=2 ** 16))
def test_ue_bijection(value):
    w = BitWriter()
    w.write_ue(value)
    assert BitReader(w.to_bytes()).read_ue() == value


@given(st.lists(st.integers(min_value=-3000, max_value=3000), max_size=40))
def test_se_sequence_round_trip(values):
    w = BitWriter()
    for v in values:
        w.write_se(v)
    w.write_trailing()
    r = BitReader(w.to_bytes())
    assert [r.read_se() for _ in values] == values


def test_ue_prefix_cap():
    with pytest.raises(MalformedStream):
        BitReader(bytes(10)).read_ue()


def test_reader_exhaustion():
    with pytest.raises(BitstreamExhausted):
        BitReader(b"").read_bit()
    with pytest.raises(BitstreamExhausted):
        BitReader(b"\x00").read_ue()


# ---------------------------------------------------------------------------
# escaping and NAL framing
# ---------------------------------------------------------------------------

def test_unescape_example():
    assert unescape_payload(b"\x00\x00\x03\x01") == b"\x00\x00\x01"


def test_escape_known_vectors():
    assert escape_payload(b"\x00\x00\x01") == b"\x00\x00\x03\x01"
    assert escape_payload(b"\x00\x00\x00") == b"\x00\x00\x03\x00"
    assert escape_payload(b"\x00\x00\x03") == b"\x00\x00\x03\x03"
    assert escape_payload(b"\x01\x02\x03") == b"\x01\x02\x03"


def test_unescape_rejects_raw_start_codes():
    for last in (0, 1, 2):
        with pytest.raises(MalformedStream):
            unescape_payload(bytes([0, 0, last]))


@given(st.binary(max_size=200))
def test_escape_round_trip(payload):
    assert unescape_payload(escape_payload(payload)) == payload


def test_split_single_unit():
    units = split_nal_units(b"\x00\x00\x01\x67\xAA")
    assert len(units) == 1
    assert units[0].nal_unit_type == 7
    assert units[0].nal_ref_idc == 3
    assert units[0].payload == b"\xAA"
    assert units[0].framed == b"\x00\x00\x01\x67\xAA"


def test_split_empty_stream():
    assert split_nal_units(b"") == []


def test_split_framing_round_trip():
    stream = (b"\x00\x00\x00\x01\x67\x42\x00\x1e" +
              b"\x00\x00\x01\x68\xCE" +
              b"\x00\x00\x00\x01\x65\x88\x00\x00")
    units = split_nal_units(stream)
    assert [u.nal_unit_type for u in units] == [7, 8, 5]
    assert b"".join(u.framed for u in units) == stream
    # trailing zero padding is framing, not payload
    assert units[-1].payload == b"\x88"


def test_split_errors():
    with pytest.raises(MalformedStream):
        split_nal_units(b"\xFF\x00\x00\x01\x67\xAA")   # garbage before start
    with pytest.raises(MalformedStream):
        split_nal_units(b"\x12\x34")                    # no start code at all
    with pytest.raises(TruncatedUnit):
        split_nal_units(b"\x00\x00\x01")                # start code, no body
    with pytest.raises(MalformedStream):
        split_nal_units(b"\x00\x00\x01\xE7\xAA")        # forbidden bit set


@given(st.binary(min_size=1, max_size=120))
@settings(max_examples=300)
def test_split_fuzz_only_package_errors(data):
    try:
        units = split_nal_units(data)
    except BlockPrnuError:
        return
    assert b"".join(u.framed for u in units) == data


# ---------------------------------------------------------------------------
# parameter sets and slice headers
# ---------------------------------------------------------------------------

def sps_rbsp(profile=66, sps_id=0, poc_type=2, log2_mfn_minus4=0,
             width_mbs=8, height_mbs=8, frame_mbs_only=1):
    w = BitWriter()
    w.write_bits(profile, 8)
    w.write_bits(0, 8)              # constraint flags + reserved
    w.write_bits(30, 8)             # level_idc
    w.write_ue(sps_id)
    w.write_ue(log2_mfn_minus4)
    w.write_ue(poc_type)
    if poc_type == 0:
        w.write_ue(0)               # log2_max_pic_order_cnt_lsb_minus4
    w.write_ue(1)                   # max_num_ref_frames
    w.write_bit(0)                  # gaps_in_frame_num_value_allowed
    w.write_ue(width_mbs - 1)
    w.write_ue(height_mbs - 1)
    w.write_bit(frame_mbs_only)
    w.write_bit(0)                  # direct_8x8_inference
    w.write_bit(0)                  # frame_cropping
    w.write_bit(0)                  # vui_parameters_present
    w.write_trailing()
    return w.to_bytes()


def pps_rbsp(pps_id=0, sps_id=0, init_qp_minus26=0, deblock_control=0,
             weighted_pred=0, entropy=0):
    w = BitWriter()
    w.write_ue(pps_id)
    w.write_ue(sps_id)
    w.write_bit(entropy)
    w.write_bit(0)                  # bottom_field_pic_order_in_frame_present
    w.write_ue(0)                   # num_slice_groups_minus1
    w.write_ue(0)                   # num_ref_idx_l0_default_active_minus1
    w.write_ue(0)
    w.write_bit(weighted_pred)
    w.write_bits(0, 2)              # weighted_bipred_idc
    w.write_se(init_qp_minus26)
    w.write_se(0)                   # pic_init_qs_minus26
    w.write_se(0)                   # chroma_qp_index_offset
    w.write_bit(deblock_control)
    w.write_bit(0)                  # constrained_intra_pred
    w.write_bit(0)                  # redundant_pic_cnt_present
    w.write_trailing()
    return w.to_bytes()


def slice_rbsp(slice_type_code, qp_delta, first_mb=0, idr=False, frame_num=0,
               log2_mfn=4, ref_idc=1, deblock_control=0, deblock_idc=0):
    name = {0: "P", 1: "B", 2: "I", 5: "P", 7: "I"}[slice_type_code]
    w = BitWriter()
    w.write_ue(first_mb)
    w.write_ue(slice_type_code)
    w.write_ue(0)                   # pps id
    w.write_bits(frame_num, log2_mfn)
    if idr:
        w.write_ue(0)               # idr_pic_id
    if name == "B":
        w.write_bit(0)              # direct_spatial_mv_pred
    if name in ("P", "B"):
        w.write_bit(0)              # num_ref_idx_active_override
        w.write_bit(0)              # ref_pic_list_modification l0
        if name == "B":
            w.write_bit(0)          # l1
    if ref_idc:
        if idr:
            w.write_bit(0)
            w.write_bit(0)
        else:
            w.write_bit(0)          # adaptive_ref_pic_marking_mode
    w.write_se(qp_delta)
    if deblock_control:
        w.write_ue(deblock_idc)
        if deblock_idc != 1:
            w.write_se(0)
            w.write_se(0)
    w.write_trailing()
    return w.to_bytes()


def full_stream(slices, init_qp_minus26=0, deblock_control=0):
    """SPS + PPS + the given (type_code, qp_delta, first_mb, idr) slices."""
    out = NalUnit.build(3, 7, sps_rbsp()).framed
    out += NalUnit.build(3, 8, pps_rbsp(init_qp_minus26=init_qp_minus26,
                                        deblock_control=deblock_control)).framed
    for code, delta, first_mb, idr in slices:
        body = slice_rbsp(code, delta, first_mb=first_mb, idr=idr,
                          deblock_control=deblock_control)
        out += NalUnit.build(1, 5 if idr else 1, body).framed
    return out


def test_slice_qp_fixture():
    # pic_init_qp_minus26 = 0, slice_qp_delta = +4 -> base_qp 30
    slices, _ = parse_annexb(full_stream([(7, 4, 0, True)]))
    assert len(slices) == 1
    assert slices[0].base_qp == 30
    assert slices[0].slice_type == "I"


def test_slice_qp_matches_construction_parameters():
    for init in (-10, 0, 9):
        for delta in (-6, 0, 11):
            stream = full_stream([(2, delta, 0, False)],
                                 init_qp_minus26=init)
            slices, _ = parse_annexb(stream)
            assert slices[0].base_qp == 26 + init + delta


def test_slice_types():
    slices, _ = parse_annexb(full_stream([(7, 0, 0, True), (0, 0, 0, False),
                                          (1, 0, 0, False)]))
    assert [s.slice_type for s in slices] == ["I", "P", "B"]


def test_missing_pps():
    stream = NalUnit.build(1, 5, slice_rbsp(7, 0, idr=True)).framed
    with pytest.raises(MissingParameterSet):
        parse_annexb(stream)


def test_unsupported_profile():
    with pytest.raises(UnsupportedProfile):
        parse_sps(sps_rbsp(profile=100))
    with pytest.raises(UnsupportedProfile):
        parse_sps(sps_rbsp(frame_mbs_only=0))


def test_sp_slice_unsupported():
    stream = (NalUnit.build(3, 7, sps_rbsp()).framed +
              NalUnit.build(3, 8, pps_rbsp()).framed +
              NalUnit.build(1, 1, slice_rbsp(0, 0)).framed)
    units = split_nal_units(stream)
    ctx = ParameterSetContext()
    ctx.feed(units[0])
    ctx.feed(units[1])
    w = BitWriter()
    w.write_ue(0)
    w.write_ue(3)       # SP
    w.write_ue(0)
    bad = NalUnit.build(1, 1, w.to_bytes())
    with pytest.raises(UnsupportedProfile):
        parse_slice_header(bad, ctx)


def test_slice_qp_out_of_range():
    with pytest.raises(MalformedStream):
        parse_annexb(full_stream([(7, 30, 0, True)]))   # 26 + 30 = 56


def test_deblocking_flag():
    slices, _ = parse_annexb(full_stream([(7, 0, 0, True)],
                                         deblock_control=1))
    assert not slices[0].deblocking_disabled
    stream = (NalUnit.build(3, 7, sps_rbsp()).framed +
              NalUnit.build(3, 8, pps_rbsp(deblock_control=1)).framed +
              NalUnit.build(1, 5, slice_rbsp(7, 0, idr=True,
                                             deblock_control=1,
                                             deblock_idc=1)).framed)
    slices, _ = parse_annexb(stream)
    assert slices[0].deblocking_disabled


def test_frame_ordinals_from_first_mb():
    # second slice of the same picture starts at mb 4
    slices, _ = parse_annexb(full_stream([(7, 0, 0, True), (2, 0, 4, False),
                                          (2, 0, 0, False)]))
    assert [s.frame_index for s in slices] == [0, 0, 1]


@given(st.binary(min_size=0, max_size=80), st.integers(0, 31))
@settings(max_examples=400)
def test_slice_parse_fuzz_only_package_errors(payload, nal_type):
    stream = (NalUnit.build(3, 7, sps_rbsp()).framed +
              NalUnit.build(3, 8, pps_rbsp()).framed +
              NalUnit.build(1, nal_type or 1, payload).framed)
    try:
        parse_annexb(stream)
    except BlockPrnuError:
        pass


# ---------------------------------------------------------------------------
# trace text format
# ---------------------------------------------------------------------------

def sample_trace():
    recs = grid_records(0, [["I", "I"], ["I", "I"]], qp=30, bits=120) + \
        grid_records(1, [["P", "SKIP"], ["P", "P"]], qp=30, bits=80)
    return TraceFile(width=32, height=32, frame_count=2, records=recs)


def test_trace_text_round_trip():
    text = serialize_trace(sample_trace())
    assert text.startswith("#w=32 h=32 mb=16 frames=2\n")
    tf = load_trace_text(text)
    assert serialize_trace(tf) == text


def test_trace_serialization_is_canonical():
    tf = sample_trace()
    shuffled = TraceFile(width=32, height=32, frame_count=2,
                         records=list(reversed(tf.records)))
    assert serialize_trace(shuffled) == serialize_trace(tf)


def test_trace_header_errors():
    with pytest.raises(SchemaError):
        load_trace_text("")
    with pytest.raises(SchemaError):
        load_trace_text("#width=32\n")
    with pytest.raises(SchemaError):
        load_trace_text("#w=32 h=32 mb=8 frames=1\n0,0,0,I,20,10\n")
    with pytest.raises(SchemaError):
        load_trace_text("#w=8 h=32 mb=16 frames=1\n")


def test_trace_row_errors():
    head = "#w=16 h=16 mb=16 frames=1\n"
    with pytest.raises(SchemaError):
        load_trace_text(head + "0,0,0,I,20\n")
    with pytest.raises(SchemaError):
        load_trace_text(head + "0,0,zero,I,20,10\n")
    with pytest.raises(RangeError):
        load_trace_text(head + "0,0,0,I,63,10\n")
    with pytest.raises(CoverageGap):
        load_trace_text("#w=32 h=16 mb=16 frames=1\n0,0,0,I,20,10\n")
    with pytest.raises(SchemaError):
        load_trace_text(head + "0,0,0,I,20,10\n0,0,0,P,20,10\n")
    with pytest.raises(SchemaError):
        load_trace_text(head + "3,0,0,I,20,10\n")


def per_line_load(text):
    """The per-line parser and per-frame checks that `load_trace_text`
    replaced, kept as its oracle: the (frames, grid_h, grid_w) type code,
    QP and bits stacks, or the error it raises."""
    lines = text.splitlines()
    if not lines:
        raise SchemaError("empty trace")
    m = re.match(r"^#w=(\d+) h=(\d+) mb=(\d+) frames=(\d+)$", lines[0])
    if not m:
        raise SchemaError(f"bad trace header: {lines[0]!r}")
    width, height, mb, frame_count = (int(g) for g in m.groups())
    if mb != 16:
        raise SchemaError(f"unsupported macroblock size {mb}")
    if width < 16 or height < 16:
        raise SchemaError("trace smaller than one macroblock")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise SchemaError(f"line {lineno}: expected 6 fields, got {len(parts)}")
        try:
            rec = BlockRecord(frame_idx=int(parts[0]), mb_x=int(parts[1]),
                              mb_y=int(parts[2]), block_type=parts[3],
                              qp=int(parts[4]), bits=int(parts[5]))
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: {exc}") from exc
        rec.validate()
        records.append(rec)
    buckets = [[] for _ in range(frame_count)]
    for rec in records:
        if not (0 <= rec.frame_idx < frame_count):
            raise SchemaError(f"record frame {rec.frame_idx} outside "
                              f"0..{frame_count - 1}")
        buckets[rec.frame_idx].append(rec)

    def extent(pixels, positions):
        whole = pixels // 16
        if pixels % 16 and max(positions, default=-1) >= whole:
            return whole + 1
        return whole

    gw = extent(width, [r.mb_x for r in records])
    gh = extent(height, [r.mb_y for r in records])
    type_code = np.full((frame_count, gh, gw), -1, dtype=np.int8)
    qp = np.zeros((frame_count, gh, gw), dtype=np.int64)
    bits = np.zeros((frame_count, gh, gw), dtype=np.int64)
    for f, bucket in enumerate(buckets):
        for rec in bucket:
            if not (0 <= rec.mb_x < gw and 0 <= rec.mb_y < gh):
                raise SchemaError(f"block ({rec.mb_x},{rec.mb_y}) outside "
                                  f"{gw}x{gh} grid in frame {f}")
            if type_code[f, rec.mb_y, rec.mb_x] != -1:
                raise SchemaError(f"duplicate block (frame {f}, "
                                  f"{rec.mb_x}, {rec.mb_y})")
            type_code[f, rec.mb_y, rec.mb_x] = BLOCK_TYPES.index(rec.block_type)
            qp[f, rec.mb_y, rec.mb_x] = rec.qp
            bits[f, rec.mb_y, rec.mb_x] = rec.bits
        gap = np.argwhere(type_code[f] < 0)
        if gap.size:
            y, x = gap[0]
            raise CoverageGap(f"no record for (frame {f}, {x}, {y})")
    return type_code, qp, bits


ODD_TOKENS = ["zero", "1.5", "", " 7", "7 ", "+7", "-3", "1_0", "0x1", "0007",
              "٣", "\ud800", "99999999999999999999", "-99999999999999999999",
              "1234567890123456789", "SKIP", "I", "skip", " P", "I\x00",
              "7\x00", "\xa07", "7\u3000", "\x1f7"]


@st.composite
def trace_texts(draw):
    """Trace text around a valid trace, possibly damaged: shuffled, blank
    lines, rounded-up or mixed grids, gaps, duplicates, wrong field counts,
    odd tokens and out-of-range values."""
    width, height = draw(st.integers(16, 72)), draw(st.integers(16, 72))
    frames = draw(st.integers(0, 3))
    gw = -(-width // 16) if draw(st.booleans()) else width // 16
    gh = -(-height // 16) if draw(st.booleans()) else height // 16
    rows = []
    for f in range(frames):
        for y in range(gh):
            for x in range(gw):
                kind = draw(st.sampled_from(BLOCK_TYPES))
                bits = draw(st.integers(0, 63) if kind == "SKIP"
                            else st.integers(0, 5000))
                rows.append([f, x, y, kind, draw(st.integers(0, 51)), bits])
    if rows and draw(st.booleans()):    # one frame covers only the floor grid
        f = draw(st.integers(0, frames - 1))
        rows = [r for r in rows if r[0] != f or (r[1] < width // 16
                                                 and r[2] < height // 16)]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        what = draw(st.sampled_from(["gap", "duplicate", "move", "field",
                                     "qp", "bits", "frame", "position"]))
        row = list(rows[i])
        if what == "gap":
            del rows[i]
            continue
        if what == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), row)
            continue
        if what == "move":
            j = draw(st.integers(0, len(rows) - 1))
            row[:3] = rows[j][:3]
        elif what == "field":
            row[draw(st.integers(0, 5))] = draw(st.sampled_from(ODD_TOKENS))
        elif what == "qp":
            row[4] = draw(st.sampled_from([-1, 52, 63, 10 ** 20]))
        elif what == "bits":
            row[5] = draw(st.sampled_from([-1, 64, 10 ** 6, 2 ** 63, 10 ** 30]))
        elif what == "frame":
            row[0] = draw(st.sampled_from([-1, frames, frames + 5, 10 ** 20]))
        else:
            row[draw(st.integers(1, 2))] = draw(st.sampled_from(
                [-1, gw, gh, gw + 1, 10 ** 20, -10 ** 20]))
        rows[i] = row
    lines = [",".join(map(str, r)) for r in rows]
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 3))):
        line = draw(st.sampled_from(["", "   ", "\t", "\u3000", "\x1f ", "1,2,3",
                                     "0,0,0,P,20", "0,0,0,P,20,10,1", ",,,,,"]))
        lines.insert(draw(st.integers(0, len(lines))), line)
    end = draw(st.sampled_from(["\n", "\r\n", "\r", "\u2028"]))
    return end.join([f"#w={width} h={height} mb=16 frames={frames}", *lines, ""])


def outcome(load, text):
    """The (type code, QP, bits) stacks a loader returns, or its error."""
    try:
        result = load(text)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, TraceFile):
        result = (result.type_code, result.qp, result.bits)
    return [(a.dtype, a.shape, a.tolist()) for a in result]


@settings(max_examples=400, deadline=None)
@given(trace_texts())
# a duplicate before a gap in its own frame, before one in a later frame
# and before a frame with no blocks; and a gap before a later duplicate
@example("#w=48 h=16 mb=16 frames=1\n0,2,0,P,20,9\n0,0,0,P,20,9\n0,0,0,I,20,9\n")
@example("#w=32 h=16 mb=16 frames=2\n0,0,0,P,20,9\n0,1,0,P,20,9\n"
         "0,1,0,P,20,9\n1,1,0,P,20,9\n")
@example("#w=32 h=16 mb=16 frames=2\n0,1,0,P,20,9\n0,0,0,P,20,9\n0,1,0,P,20,9\n")
@example("#w=32 h=16 mb=16 frames=2\n0,1,0,P,20,9\n1,0,0,P,20,9\n"
         "1,1,0,P,20,9\n1,0,0,P,20,9\n")
def test_trace_parser_matches_per_line_oracle(text):
    assert outcome(load_trace_text, text) == outcome(per_line_load, text)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7])
@settings(max_examples=150, deadline=None)
@given(text=trace_texts())
def test_trace_parser_matches_per_line_oracle_across_chunks(chunk_rows, text):
    # the default chunk holds every generated text whole, so no precedence
    # rule would cross a chunk boundary there
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "_CHUNK_ROWS", chunk_rows)
        assert outcome(load_trace_text, text) == outcome(per_line_load, text)


# int reads both as 30; numpy rejects the first and is never given the second
@pytest.mark.parametrize("qp", ["3_0", "\u0663\u0660"])
def test_odd_field_reads_only_its_chunk_row_by_row(monkeypatch, qp):
    shape = (5, 45, 80)     # 18,000 rows of 720p: three chunks
    tf = TraceFile(width=1280, height=720, frame_count=5,
                   type_code=np.zeros(shape, dtype=np.int8),
                   qp=np.full(shape, 30), bits=np.full(shape, 100))
    lines = serialize_trace(tf).split("\n")
    fields = lines[9000].split(",")
    fields[4] = qp          # in the second chunk
    lines[9000] = ",".join(fields)
    calls = []
    row_record = trace._row_record

    def counted(lineno, line):
        calls.append(lineno)
        return row_record(lineno, line)

    monkeypatch.setattr(trace, "_row_record", counted)
    odd = load_trace_text("\n".join(lines))
    assert 0 < len(calls) <= trace._CHUNK_ROWS
    for name in ("type_code", "qp", "bits"):
        assert np.array_equal(getattr(odd, name), getattr(tf, name))


@settings(max_examples=100, deadline=None)
@given(trace_texts())
def test_serialize_inverts_load_on_canonical_text(text):
    try:
        tf = load_trace_text(text)
    except BlockPrnuError:
        return
    canonical = serialize_trace(tf)
    again = load_trace_text(canonical)
    assert serialize_trace(again) == canonical
    for name in ("type_code", "qp", "bits"):
        assert np.array_equal(getattr(again, name), getattr(tf, name))


def test_nul_unit_separator_and_trailing_blank_line_load_as_int_reads_them():
    head = "#w=16 h=16 mb=16 frames=1\n"
    with pytest.raises(SchemaError, match=re.escape("unknown block type 'I\\x00'")):
        load_trace_text(head + "0,0,0,I\x00,20,5\n")
    with pytest.raises(SchemaError, match=re.escape("line 2: invalid literal")):
        load_trace_text(head + "0,0,0,I,20,\x1f5\n")
    text = serialize_trace(sample_trace())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        padded = load_trace_text(text + "\n")
    tf = load_trace_text(text)
    for name in ("type_code", "qp", "bits"):
        assert np.array_equal(getattr(padded, name), getattr(tf, name))


def test_bit_count_beyond_int64_is_a_range_error():
    # the per-line parser let this escape as a bare OverflowError
    head = "#w=16 h=16 mb=16 frames=1\n"
    with pytest.raises(RangeError, match="does not fit 64 bits"):
        load_trace_text(head + f"0,0,0,P,20,{2 ** 63}\n")
    tf = load_trace_text(head + f"0,0,0,P,20,{2 ** 63 - 1}\n")
    assert tf.bits[0, 0, 0] == 2 ** 63 - 1


def test_validate_against_slices():
    tf = sample_trace()
    slices, _ = parse_annexb(full_stream([(7, 4, 0, True), (0, 4, 0, False)]))
    assert validate_against_slices(tf, slices) == []

    far = TraceFile(width=32, height=32, frame_count=2, records=(
        grid_records(0, [["I", "I"], ["I", "I"]], qp=3) +
        grid_records(1, [["P", "P"], ["P", "P"]], qp=30)))
    warnings = validate_against_slices(far, slices)   # base 30 vs qp 3
    assert warnings and "frame 0" in warnings[0]

    short, _ = parse_annexb(full_stream([(7, 4, 0, True)]))
    warnings = validate_against_slices(tf, short)
    assert any("frames" in w for w in warnings)
