"""
Annex-B elementary stream parsing (NAL units, exp-Golomb, SPS/PPS/slice
headers for the Baseline/Main subset) and the block-trace text format.

Only headers are decoded; residual entropy decoding is out of scope, so
block-level metadata is consumed from trace files produced externally or
by the simulator.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (BitstreamExhausted, MalformedStream, MissingParameterSet,
                     RangeError, SchemaError, TruncatedUnit,
                     UnsupportedProfile)
from .trace import BLOCK_TYPES, BlockColumns, BlockRecord, TraceFile

START_CODE = b"\x00\x00\x01"
NAL_SLICE = 1
NAL_IDR_SLICE = 5
NAL_SPS = 7
NAL_PPS = 8

_SLICE_TYPE_NAMES = {0: "P", 1: "B", 2: "I", 3: "SP", 4: "SI",
                     5: "P", 6: "B", 7: "I", 8: "SP", 9: "SI"}

# exp-Golomb prefixes longer than this never occur in real streams; treating
# them as malformed keeps fuzzed all-zero buffers from decoding to huge ints
_MAX_UE_LEADING_ZEROS = 64


class BitReader:
    """MSB-first bit cursor over a byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # in bits

    def bits_left(self) -> int:
        return 8 * len(self._data) - self._pos

    def read_bit(self) -> int:
        if self._pos >= 8 * len(self._data):
            raise BitstreamExhausted("read past end of payload")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, n: int) -> int:
        value = 0
        for _ in range(n):
            value = (value << 1) | self.read_bit()
        return value

    def read_ue(self) -> int:
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
            if zeros > _MAX_UE_LEADING_ZEROS:
                raise MalformedStream("exp-Golomb prefix too long")
        return (1 << zeros) - 1 + self.read_bits(zeros)

    def read_se(self) -> int:
        k = self.read_ue()
        mag = (k + 1) >> 1
        return mag if k & 1 else -mag


class BitWriter:
    """MSB-first bit sink; pads the final byte with zeros."""

    def __init__(self):
        self._bits: list[int] = []

    def write_bit(self, bit: int) -> None:
        self._bits.append(bit & 1)

    def write_bits(self, value: int, n: int) -> None:
        for i in range(n - 1, -1, -1):
            self.write_bit((value >> i) & 1)

    def write_ue(self, value: int) -> None:
        if value < 0:
            raise RangeError(f"ue(v) codes non-negative values, got {value}")
        code = value + 1
        n = code.bit_length()
        self.write_bits(0, n - 1)
        self.write_bits(code, n)

    def write_se(self, value: int) -> None:
        self.write_ue(2 * value - 1 if value > 0 else -2 * value)

    def write_trailing(self) -> None:
        """rbsp_trailing_bits: stop bit then zero-pad to a byte edge."""
        self.write_bit(1)
        while len(self._bits) % 8:
            self.write_bit(0)

    def to_bytes(self) -> bytes:
        out = bytearray()
        acc = 0
        for i, bit in enumerate(self._bits):
            acc = (acc << 1) | bit
            if i % 8 == 7:
                out.append(acc)
                acc = 0
        rem = len(self._bits) % 8
        if rem:
            out.append(acc << (8 - rem))
        return bytes(out)


def unescape_payload(ebsp: bytes) -> bytes:
    """Strip emulation-prevention bytes (00 00 03 -> 00 00).

    Raises MalformedStream on 00 00 00 / 00 00 01 / 00 00 02 runs, which a
    conforming encoder would have escaped.
    """
    out = bytearray()
    zeros = 0
    for b in ebsp:
        if zeros >= 2:
            if b == 3:
                zeros = 0
                continue
            if b <= 2:
                raise MalformedStream("unescaped 00 00 0%d inside NAL payload" % b)
        zeros = zeros + 1 if b == 0 else 0
        out.append(b)
    return bytes(out)


def escape_payload(rbsp: bytes) -> bytes:
    """Insert emulation-prevention bytes (inverse of unescape_payload)."""
    out = bytearray()
    zeros = 0
    for b in rbsp:
        if zeros >= 2 and b <= 3:
            out.append(3)
            zeros = 0
        out.append(b)
        zeros = zeros + 1 if b == 0 else 0
    return bytes(out)


@dataclass(frozen=True)
class NalUnit:
    """One NAL unit with enough framing kept around for exact re-assembly."""
    nal_ref_idc: int
    nal_unit_type: int
    payload: bytes          # RBSP after the header byte, unescaped
    start_code: bytes = b"\x00\x00\x00\x01"
    raw: bytes = b""        # header byte + escaped payload, verbatim

    @property
    def framed(self) -> bytes:
        return self.start_code + self.raw

    @classmethod
    def build(cls, nal_ref_idc: int, nal_unit_type: int, payload: bytes,
              start_code: bytes = b"\x00\x00\x00\x01") -> "NalUnit":
        header = bytes([(nal_ref_idc & 3) << 5 | (nal_unit_type & 0x1F)])
        return cls(nal_ref_idc, nal_unit_type, payload, start_code,
                   header + escape_payload(payload))


def split_nal_units(stream: bytes) -> list[NalUnit]:
    """Split an Annex-B byte stream into NAL units.

    Zero bytes before a start code are treated as framing and folded into
    that unit's start_code; concatenating unit.framed over the result
    reproduces the input byte for byte.
    """
    if not stream:
        return []
    starts = []
    pos = stream.find(START_CODE)
    while pos != -1:
        starts.append(pos)
        pos = stream.find(START_CODE, pos + 3)
    if not starts:
        raise MalformedStream("no start code in nonempty stream")
    if any(stream[i] != 0 for i in range(starts[0])):
        raise MalformedStream("garbage before first start code")

    out = []
    prev_end = 0
    for k, p in enumerate(starts):
        body_start = p + 3
        if k + 1 < len(starts):
            # zero bytes running up to the next start code are its framing
            nxt = starts[k + 1]
            z = 0
            while nxt - z - 1 >= body_start and stream[nxt - z - 1] == 0:
                z += 1
            body_end = nxt - z
        else:
            body_end = len(stream)
        raw = stream[body_start:body_end]
        if not raw:
            raise TruncatedUnit("start code with no unit body")
        start_code = stream[prev_end:body_start]
        prev_end = body_end
        header = raw[0]
        if header & 0x80:
            raise MalformedStream("forbidden_zero_bit set in NAL header")
        # trailing zero padding after the last unit stays in raw but is not payload
        body = raw.rstrip(b"\x00") if k == len(starts) - 1 else raw
        out.append(NalUnit(nal_ref_idc=(header >> 5) & 3,
                           nal_unit_type=header & 0x1F,
                           payload=unescape_payload(body[1:]),
                           start_code=start_code,
                           raw=raw))
    return out


# ---------------------------------------------------------------------------
# parameter sets and slice headers (Baseline / Main subset)
# ---------------------------------------------------------------------------

SUPPORTED_PROFILES = (66, 77)


@dataclass
class Sps:
    seq_parameter_set_id: int = 0
    profile_idc: int = 66
    log2_max_frame_num: int = 4
    pic_order_cnt_type: int = 2
    log2_max_pic_order_cnt_lsb: int = 4
    delta_pic_order_always_zero_flag: int = 1
    pic_width_in_mbs: int = 0
    pic_height_in_map_units: int = 0
    frame_mbs_only_flag: int = 1


@dataclass
class Pps:
    pic_parameter_set_id: int = 0
    seq_parameter_set_id: int = 0
    entropy_coding_mode_flag: int = 0
    bottom_field_pic_order_in_frame_present_flag: int = 0
    num_ref_idx_l0_default_active: int = 1
    num_ref_idx_l1_default_active: int = 1
    weighted_pred_flag: int = 0
    weighted_bipred_idc: int = 0
    pic_init_qp: int = 26
    deblocking_filter_control_present_flag: int = 0
    redundant_pic_cnt_present_flag: int = 0


@dataclass(frozen=True)
class SliceHeaderInfo:
    """Decoded slice-header subset relevant to block weighting."""
    frame_index: int
    slice_type: str          # I, P or B
    base_qp: int
    deblocking_disabled: bool
    first_mb_in_slice: int = 0
    frame_num: int = 0


class ParameterSetContext:
    """Holds the SPS/PPS seen so far in a stream."""

    def __init__(self):
        self.sps: dict[int, Sps] = {}
        self.pps: dict[int, Pps] = {}

    def feed(self, unit: NalUnit) -> None:
        if unit.nal_unit_type == NAL_SPS:
            sps = parse_sps(unit.payload)
            self.sps[sps.seq_parameter_set_id] = sps
        elif unit.nal_unit_type == NAL_PPS:
            pps = parse_pps(unit.payload)
            self.pps[pps.pic_parameter_set_id] = pps


def parse_sps(payload: bytes) -> Sps:
    r = BitReader(payload)
    profile_idc = r.read_bits(8)
    if profile_idc not in SUPPORTED_PROFILES:
        raise UnsupportedProfile(f"profile_idc {profile_idc}")
    r.read_bits(8)  # constraint flags + reserved
    r.read_bits(8)  # level_idc
    sps = Sps(profile_idc=profile_idc)
    sps.seq_parameter_set_id = r.read_ue()
    if sps.seq_parameter_set_id > 31:
        raise MalformedStream("seq_parameter_set_id out of range")
    v = r.read_ue()
    if v > 12:
        raise MalformedStream("log2_max_frame_num_minus4 out of range")
    sps.log2_max_frame_num = v + 4
    sps.pic_order_cnt_type = r.read_ue()
    if sps.pic_order_cnt_type == 0:
        v = r.read_ue()
        if v > 12:
            raise MalformedStream("log2_max_pic_order_cnt_lsb_minus4 out of range")
        sps.log2_max_pic_order_cnt_lsb = v + 4
    elif sps.pic_order_cnt_type == 1:
        sps.delta_pic_order_always_zero_flag = r.read_bit()
        r.read_se()
        r.read_se()
        n = r.read_ue()
        if n > 255:
            raise MalformedStream("num_ref_frames_in_pic_order_cnt_cycle out of range")
        for _ in range(n):
            r.read_se()
    elif sps.pic_order_cnt_type > 2:
        raise MalformedStream("pic_order_cnt_type out of range")
    r.read_ue()     # max_num_ref_frames
    r.read_bit()    # gaps_in_frame_num_value_allowed_flag
    sps.pic_width_in_mbs = r.read_ue() + 1
    sps.pic_height_in_map_units = r.read_ue() + 1
    sps.frame_mbs_only_flag = r.read_bit()
    if not sps.frame_mbs_only_flag:
        raise UnsupportedProfile("interlaced coding (frame_mbs_only_flag=0)")
    r.read_bit()    # direct_8x8_inference_flag
    if r.read_bit():  # frame_cropping_flag
        for _ in range(4):
            r.read_ue()
    # VUI, if present, carries nothing this package needs
    return sps


def parse_pps(payload: bytes) -> Pps:
    r = BitReader(payload)
    pps = Pps()
    pps.pic_parameter_set_id = r.read_ue()
    if pps.pic_parameter_set_id > 255:
        raise MalformedStream("pic_parameter_set_id out of range")
    pps.seq_parameter_set_id = r.read_ue()
    pps.entropy_coding_mode_flag = r.read_bit()
    pps.bottom_field_pic_order_in_frame_present_flag = r.read_bit()
    num_slice_groups = r.read_ue() + 1
    if num_slice_groups > 1:
        _parse_slice_groups(r, num_slice_groups)
    pps.num_ref_idx_l0_default_active = r.read_ue() + 1
    pps.num_ref_idx_l1_default_active = r.read_ue() + 1
    pps.weighted_pred_flag = r.read_bit()
    pps.weighted_bipred_idc = r.read_bits(2)
    pps.pic_init_qp = r.read_se() + 26
    r.read_se()     # pic_init_qs_minus26
    r.read_se()     # chroma_qp_index_offset
    pps.deblocking_filter_control_present_flag = r.read_bit()
    r.read_bit()    # constrained_intra_pred_flag
    pps.redundant_pic_cnt_present_flag = r.read_bit()
    return pps


def _parse_slice_groups(r: BitReader, num_slice_groups: int) -> None:
    map_type = r.read_ue()
    if map_type in (0,):
        for _ in range(num_slice_groups):
            r.read_ue()
    elif map_type == 2:
        for _ in range(num_slice_groups - 1):
            r.read_ue()
            r.read_ue()
    elif map_type in (3, 4, 5):
        r.read_bit()
        r.read_ue()
    elif map_type == 6:
        n = r.read_ue() + 1
        if n > 1 << 16:
            raise MalformedStream("slice group map too large")
        bits = max(1, (num_slice_groups - 1).bit_length())
        for _ in range(n):
            r.read_bits(bits)
    elif map_type != 1:
        raise MalformedStream("slice_group_map_type out of range")


def parse_slice_header(unit: NalUnit, context: ParameterSetContext,
                       frame_index: int = 0) -> SliceHeaderInfo:
    """Decode a slice header far enough to recover type, QP and deblocking.

    frame_index is the caller-assigned picture ordinal (the slice itself
    only carries frame_num, which wraps).
    """
    if unit.nal_unit_type not in (NAL_SLICE, NAL_IDR_SLICE):
        raise MalformedStream(f"NAL type {unit.nal_unit_type} is not a coded slice")
    idr = unit.nal_unit_type == NAL_IDR_SLICE
    r = BitReader(unit.payload)
    first_mb_in_slice = r.read_ue()
    slice_type_code = r.read_ue()
    if slice_type_code > 9:
        raise MalformedStream("slice_type out of range")
    slice_type = _SLICE_TYPE_NAMES[slice_type_code]
    if slice_type in ("SP", "SI"):
        raise UnsupportedProfile(f"slice type {slice_type}")
    pps_id = r.read_ue()
    if pps_id not in context.pps:
        raise MissingParameterSet(f"pps {pps_id} not seen")
    pps = context.pps[pps_id]
    if pps.seq_parameter_set_id not in context.sps:
        raise MissingParameterSet(f"sps {pps.seq_parameter_set_id} not seen")
    sps = context.sps[pps.seq_parameter_set_id]

    frame_num = r.read_bits(sps.log2_max_frame_num)
    if idr:
        r.read_ue()  # idr_pic_id
    if sps.pic_order_cnt_type == 0:
        r.read_bits(sps.log2_max_pic_order_cnt_lsb)
        if pps.bottom_field_pic_order_in_frame_present_flag:
            r.read_se()
    elif sps.pic_order_cnt_type == 1 and not sps.delta_pic_order_always_zero_flag:
        r.read_se()
        if pps.bottom_field_pic_order_in_frame_present_flag:
            r.read_se()
    if pps.redundant_pic_cnt_present_flag:
        r.read_ue()

    num_ref_l0 = pps.num_ref_idx_l0_default_active
    num_ref_l1 = pps.num_ref_idx_l1_default_active
    if slice_type == "B":
        r.read_bit()  # direct_spatial_mv_pred_flag
    if slice_type in ("P", "B"):
        if r.read_bit():  # num_ref_idx_active_override_flag
            num_ref_l0 = r.read_ue() + 1
            if slice_type == "B":
                num_ref_l1 = r.read_ue() + 1
        if num_ref_l0 > 32 or num_ref_l1 > 32:
            raise MalformedStream("reference list longer than 32")
        _parse_ref_list_modification(r)
        if slice_type == "B":
            _parse_ref_list_modification(r)
    if (pps.weighted_pred_flag and slice_type == "P") or \
            (pps.weighted_bipred_idc == 1 and slice_type == "B"):
        _parse_pred_weight_table(r, num_ref_l0,
                                 num_ref_l1 if slice_type == "B" else 0)
    if unit.nal_ref_idc != 0:
        _parse_dec_ref_pic_marking(r, idr)
    if pps.entropy_coding_mode_flag and slice_type != "I":
        r.read_ue()  # cabac_init_idc

    base_qp = pps.pic_init_qp + r.read_se()
    if not (0 <= base_qp <= 51):
        raise MalformedStream(f"slice QP {base_qp} outside [0, 51]")
    deblocking_disabled = False
    if pps.deblocking_filter_control_present_flag:
        idc = r.read_ue()
        if idc > 2:
            raise MalformedStream("disable_deblocking_filter_idc out of range")
        deblocking_disabled = idc == 1
        if idc != 1:
            r.read_se()
            r.read_se()
    return SliceHeaderInfo(frame_index=frame_index, slice_type=slice_type,
                           base_qp=base_qp,
                           deblocking_disabled=deblocking_disabled,
                           first_mb_in_slice=first_mb_in_slice,
                           frame_num=frame_num)


def _parse_ref_list_modification(r: BitReader) -> None:
    if not r.read_bit():
        return
    for _ in range(64):
        idc = r.read_ue()
        if idc == 3:
            return
        if idc > 3:
            raise MalformedStream("modification_of_pic_nums_idc out of range")
        r.read_ue()
    raise MalformedStream("unterminated ref_pic_list_modification")


def _parse_pred_weight_table(r: BitReader, num_l0: int, num_l1: int) -> None:
    r.read_ue()  # luma_log2_weight_denom
    r.read_ue()  # chroma_log2_weight_denom (4:2:0 always has chroma)
    for count in (num_l0, num_l1):
        for _ in range(count):
            if r.read_bit():
                r.read_se()
                r.read_se()
            if r.read_bit():
                for _ in range(4):
                    r.read_se()


def _parse_dec_ref_pic_marking(r: BitReader, idr: bool) -> None:
    if idr:
        r.read_bit()
        r.read_bit()
        return
    if not r.read_bit():
        return
    for _ in range(64):
        op = r.read_ue()
        if op == 0:
            return
        if op > 6:
            raise MalformedStream("memory_management_control_operation out of range")
        if op in (1, 3):
            r.read_ue()
        if op == 2:
            r.read_ue()
        if op in (3, 6):
            r.read_ue()
        if op == 4:
            r.read_ue()
    raise MalformedStream("unterminated dec_ref_pic_marking")


def parse_annexb(stream: bytes) -> tuple[list[SliceHeaderInfo], ParameterSetContext]:
    """Walk a whole stream: collect parameter sets, decode slice headers.

    Picture ordinals are assigned in decode order, bumping whenever a slice
    starts at macroblock 0.
    """
    context = ParameterSetContext()
    slices: list[SliceHeaderInfo] = []
    frame_index = -1
    for unit in split_nal_units(stream):
        if unit.nal_unit_type in (NAL_SPS, NAL_PPS):
            context.feed(unit)
        elif unit.nal_unit_type in (NAL_SLICE, NAL_IDR_SLICE):
            probe = parse_slice_header(unit, context, frame_index=0)
            if probe.first_mb_in_slice == 0 or frame_index < 0:
                frame_index += 1
            slices.append(SliceHeaderInfo(
                frame_index=frame_index, slice_type=probe.slice_type,
                base_qp=probe.base_qp,
                deblocking_disabled=probe.deblocking_disabled,
                first_mb_in_slice=probe.first_mb_in_slice,
                frame_num=probe.frame_num))
    return slices, context


# ---------------------------------------------------------------------------
# trace text format
# ---------------------------------------------------------------------------

_TRACE_HEADER = re.compile(r"^#w=(\d+) h=(\d+) mb=(\d+) frames=(\d+)$")
_TRACE_FIELDS = 6
# integer fields of a trace row; field 3 is the block type
_INT_FIELDS = (0, 1, 2, 4, 5)
# a run of at most this many ASCII digits fits int64 whatever its digits
_PLAIN_DIGITS = 18
_INT64 = np.iinfo(np.int64)


def _row_record(lineno: int, line: str) -> BlockRecord:
    """One trace row as a record, unchecked; raises SchemaError when it
    does not have six fields or an integer field is not an integer."""
    parts = line.split(",")
    if len(parts) != _TRACE_FIELDS:
        raise SchemaError(f"line {lineno}: expected {_TRACE_FIELDS} fields, "
                          f"got {len(parts)}")
    try:
        return BlockRecord(frame_idx=int(parts[0]), mb_x=int(parts[1]),
                           mb_y=int(parts[2]), block_type=parts[3],
                           qp=int(parts[4]), bits=int(parts[5]))
    except ValueError as exc:
        raise SchemaError(f"line {lineno}: {exc}") from exc


def _trace_columns(lines: list[str]) -> tuple[BlockColumns, int, np.ndarray]:
    """Parse trace rows into columns with array passes over their bytes.

    Blank lines are dropped. Returns the columns of the rows before the
    first one that cannot be stored (wrong field count, a field that `int`
    rejects, or a bit count beyond int64), that row's index (the number of
    rows when there is none), and the index in `lines` of every row.
    Fields of up to 18 ASCII digits are read here; any other field is given
    to `int`, so a field parses exactly as `int` parses it. Other values
    beyond int64 are clamped, which keeps them out of range for every check.
    """
    if not lines:
        return BlockColumns(*np.zeros((6, 0), dtype=np.int64)), 0, np.arange(0)
    # padded, so that reading a few bytes past any field stays in bounds
    text = "\n".join(lines) + "\0" * _PLAIN_DIGITS
    data = np.frombuffer(text.encode(errors="surrogatepass"), dtype=np.uint8)
    seps = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    # token k spans data[ends[k - 1] + 1:ends[k]]
    ends = np.concatenate(([-1], seps, [data.size - _PLAIN_DIGITS]))
    fields = np.diff(np.flatnonzero(np.append(data[seps] == ord("\n"), True)),
                     prepend=-1)
    # a blank line has no comma, so only one-field lines need a closer look
    blank = [i for i in np.flatnonzero(fields == 1) if not lines[i].strip()]
    if blank:
        rows = np.delete(np.arange(len(lines)), blank)
        cols, stop, kept = _trace_columns([lines[i] for i in rows])
        return cols, stop, rows[kept]
    miscounted = np.flatnonzero(fields != _TRACE_FIELDS)
    stop = int(miscounted[0]) if miscounted.size else len(lines)
    n = _TRACE_FIELDS * stop

    def field(c: int) -> tuple[np.ndarray, np.ndarray]:
        """Start and size of field c of the first `stop` rows."""
        first = ends[c:n:_TRACE_FIELDS] + 1
        return first, ends[c + 1:n + 1:_TRACE_FIELDS] - first

    columns, plain = [], []
    for c in _INT_FIELDS:
        first, size = field(c)
        value = np.zeros(stop, dtype=np.int64)
        digits = (size > 0) & (size <= _PLAIN_DIGITS)
        for k in range(min(int(size.max(initial=0)), _PLAIN_DIGITS)):
            more = size > k
            digit = data[first + k] - np.uint8(ord("0"))
            digits &= ~more | (digit <= 9)
            value = np.where(more, value * 10 + digit, value)
        columns.append(value)
        plain.append(digits)
    code = np.full(stop, -1, dtype=np.int64)
    first, size = field(3)
    for i, name in enumerate(BLOCK_TYPES):
        hit = size == len(name)
        for k, b in enumerate(name.encode()):
            hit &= data[first + k] == b
        code[hit] = i

    for r, j in zip(*np.nonzero(~np.stack(plain, axis=1))):
        try:
            v = int(lines[r].split(",")[_INT_FIELDS[j]])
        except ValueError:
            stop = int(r)
            break
        if not _INT64.min <= v <= _INT64.max and _INT_FIELDS[j] == 5:
            stop = int(r)       # a bit count that cannot be stored
            break
        columns[j][r] = min(max(v, _INT64.min), _INT64.max)
    frame, x, y, qp, bits = (col[:stop] for col in columns)
    return BlockColumns(frame, x, y, code[:stop], qp, bits), stop, np.arange(len(lines))


def load_trace_text(text: str) -> TraceFile:
    """Parse and fully validate trace text.

    Blank lines are skipped and rows may come in any order. Errors name the
    first faulty row in file order, then the first faulty frame.
    """
    lines = text.splitlines()
    if not lines:
        raise SchemaError("empty trace")
    m = _TRACE_HEADER.match(lines[0])
    if not m:
        raise SchemaError(f"bad trace header: {lines[0]!r}")
    width, height, mb, frame_count = (int(g) for g in m.groups())
    if mb != 16:
        raise SchemaError(f"unsupported macroblock size {mb}")
    if width < 16 or height < 16:
        raise SchemaError("trace smaller than one macroblock")
    cols, stop, rows = _trace_columns(lines[1:])

    def record(i: int) -> BlockRecord:
        return _row_record(int(rows[i]) + 2, lines[rows[i] + 1])

    if stop < len(rows):
        cols.check(record)
        record(stop).validate()
    return TraceFile.from_columns(width, height, frame_count, cols, record)


def load_trace(path: str | Path) -> TraceFile:
    """Load and fully validate a trace file."""
    return load_trace_text(Path(path).read_text())


def serialize_trace(tf: TraceFile) -> str:
    """Canonical text form: header, then blocks in (frame, y, x) order."""
    frame, y, x = (a.ravel().tolist() for a in np.indices(tf.type_code.shape))
    rows = map("{},{},{},{},{},{}".format, frame, x, y,
               np.array(BLOCK_TYPES)[tf.type_code.ravel()].tolist(),
               tf.qp.ravel().tolist(), tf.bits.ravel().tolist())
    header = f"#w={tf.width} h={tf.height} mb=16 frames={tf.frame_count}"
    return "\n".join([header, *rows]) + "\n"


def save_trace(tf: TraceFile, path: str | Path) -> None:
    Path(path).write_text(serialize_trace(tf))


def validate_against_slices(tf: TraceFile,
                            slices: Iterable[SliceHeaderInfo]) -> list[str]:
    """Plausibility cross-check of a trace against parsed slice headers.

    Returns human-readable warnings; nothing here is fatal because trace
    bit counts and QPs come from a different producer than the headers.
    """
    warnings = []
    slices = list(slices)
    n_pictures = len({s.frame_index for s in slices})
    if n_pictures and n_pictures != tf.frame_count:
        warnings.append(f"trace has {tf.frame_count} frames, stream has "
                        f"{n_pictures} pictures")
    base_by_frame: dict[int, int] = {}
    for s in slices:
        base_by_frame.setdefault(s.frame_index, s.base_qp)
    for f, base in sorted(base_by_frame.items()):
        if 0 <= f < tf.frame_count:
            for y, x in np.argwhere(np.abs(tf.qp[f] - base) > 26):
                warnings.append(f"frame {f} block ({x},{y}) qp {tf.qp[f, y, x]} "
                                f"far from slice base {base}")
    return warnings
