"""Typed wire protocol for the multi-tenant serving API.

The serving layer speaks two message types: :class:`UploadRequest` (client
-> server: one noised intermediate-feature tensor) and
:class:`FeatureResponse` (server -> client: the N per-body feature maps).
Both serialize to real bytes — ``to_bytes`` / ``from_bytes`` round-trip
exactly — so the byte-counting :class:`~repro.ci.channel.Channel` accounts
the *actual* framed payload rather than the historical
``ndarray.nbytes + 64`` approximation.

Frame layout
------------
A message is a sequence of frames, one per carried array.  Every frame is
a fixed 64-byte little-endian header followed by the raw array bytes::

    offset  size  field
         0     4  magic  b"ENSB"
         4     2  protocol version (WIRE_VERSION)
         6     2  message kind (1 = upload, 2 = response)
         8     8  session id (uint64)
        16     8  request id (uint64)
        24     2  flags (bit 0: record / attack-capture consent;
                  bit 1: response served from a degraded ensemble)
        26     2  array index within the message
        28     2  array count of the message
        30     2  dtype code (see _DTYPE_CODES)
        32     2  ndim (1..6)
        34     2  codec (see Codec; 0 = identity fp32 framing)
        36    24  shape, 6 x uint32 (unused dims zero; an int8-quantised
                  frame carries its float32 scale / offset bits in
                  slots 4 and 5, so it may use at most 4 real dims)
        60     4  CRC32 of the first 60 header bytes + the array payload
                  (wire version 3; this field was zero padding in v2)

The header size deliberately equals the channel's historical
``HEADER_BYTES`` framing constant, so ``wire_nbytes()`` — the exact length
of ``to_bytes()`` — coincides with the accounting every Table-III latency
calibration already used: ``sum(arr.nbytes + 64)``.

Codec negotiation
-----------------
Wire version 2 repurposes the formerly-reserved header field as a
:class:`Codec` code, negotiated per session at ``open_session``.  Two
non-identity codecs exist today:

* :attr:`Codec.FP16` narrows float32 ``FeatureResponse`` payloads — the
  dominant Table-III downlink term — to fp16 on the wire, halving
  downlink bytes at ~1e-3 absolute feature error.
* :attr:`Codec.INT8` quantises each float32 map *affinely* to int8
  (``q = round((x - offset) / scale) - 128`` with ``offset`` the map's
  minimum), quartering the payload.  The per-map ``scale`` and
  ``offset`` (float32 each) ride in the two
  highest shape slots of that map's own 64-byte header — the slots are
  reserved (zero) for the ≤4-d tensors the protocol ships, so the frame
  layout and size are unchanged.  Per-map parameters bound the round-trip
  error at ``(max - min) / 510`` per map, which is what keeps coarse
  quantisation compatible with the ensemble-inversion privacy framing:
  the reconstruction-relevant signal degrades before classification does.

Uplink frames always travel at the client's native dtype (codec 0).

Wire hardening (version 3)
--------------------------
Version 3 spends the formerly-reserved padding word on a **CRC32
checksum** of each frame (the first 60 header bytes plus the raw array
payload).  A truncated, bit-flipped or otherwise mangled frame therefore
fails parsing with a typed
:class:`~repro.serving.errors.ProtocolError` — never a raw
``struct.error`` / ``ValueError`` / a silently wrong-shaped array — which
is the contract the fault-injection layer (:mod:`repro.serving.faults`)
and the protocol fuzz tests hold ``from_bytes`` to.  The header stays 64
bytes, so ``wire_nbytes()`` and the historical byte accounting are
unchanged.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import struct
import zlib

import numpy as np

from repro.ci.channel import HEADER_BYTES
from repro.serving.errors import ProtocolError

WIRE_VERSION = 3
_MAGIC = b"ENSB"
_KIND_UPLOAD = 1
_KIND_RESPONSE = 2
_FLAG_RECORD = 1
_FLAG_DEGRADED = 2
_MAX_NDIM = 6

# magic, version, kind, session, request, flags, index, count, dtype, ndim,
# codec, shape[6] — the 60 checksummed bytes; the CRC32 itself follows.
_FRAME = struct.Struct("<4s2H2Q6H6I")
_CRC = struct.Struct("<I")
assert _FRAME.size + _CRC.size == HEADER_BYTES, \
    "frame header must match channel framing"


class Codec(enum.IntEnum):
    """Wire encoding of a message's array payloads, negotiated per session.

    ``FP32`` is the identity codec: arrays travel at their native dtype.
    ``FP16`` narrows float32 arrays to half precision on the wire.
    ``INT8`` quantises each float32 array affinely to int8 with per-map
    ``(scale, offset)`` parameters carried in that map's frame header.
    Whatever the codec, the byte accounting (``wire_nbytes``) charges the
    narrowed frames exactly.
    """

    FP32 = 0
    FP16 = 1
    INT8 = 2

    @classmethod
    def parse(cls, value: "Codec | int | str | None") -> "Codec":
        """Coerce a user-facing spec to a :class:`Codec` member.

        Args:
            value: ``'fp16'`` / ``'int8'`` (any case), a wire code int, a
                :class:`Codec` member, or ``None`` (meaning ``FP32``).

        Returns:
            The corresponding :class:`Codec`; raises ``ValueError`` on an
            unknown name or code.
        """
        if value is None:
            return cls.FP32
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls[value.upper()]
            except KeyError:
                raise ValueError(
                    f"unknown codec {value!r}; choose from "
                    f"{[c.name.lower() for c in cls]}") from None
        return cls(value)

    @property
    def wire_itemsize(self) -> int:
        """Bytes per element a float32 map occupies under this codec."""
        return {Codec.FP32: 4, Codec.FP16: 2, Codec.INT8: 1}[self]

    def narrow(self, arr: np.ndarray) -> np.ndarray:
        """Encode one array for the wire (fp16 narrows float32 maps).

        Only valid for the parameter-free codecs; :attr:`INT8` needs its
        per-map quantisation parameters, so use :meth:`encode_array`.
        """
        if self is Codec.INT8:
            raise ValueError("int8 carries per-map parameters; "
                             "use Codec.encode_array")
        if self is Codec.FP16 and arr.dtype == np.float32:
            return arr.astype(np.float16)
        return arr

    def widen(self, arr: np.ndarray) -> np.ndarray:
        """Decode one wire array back to compute dtype (fp16 -> float32).

        Only valid for the parameter-free codecs; :attr:`INT8` needs its
        per-map quantisation parameters, so use :meth:`decode_array`.
        """
        if self is Codec.INT8 and arr.dtype == np.int8:
            raise ValueError("int8 carries per-map parameters; "
                             "use Codec.decode_array")
        if self is Codec.FP16 and arr.dtype == np.float16:
            return arr.astype(np.float32)
        return arr

    def encode_array(self, arr: np.ndarray
                     ) -> "tuple[np.ndarray, tuple[float, float] | None]":
        """Encode one array for the wire, with any per-map parameters.

        Args:
            arr: a compute-dtype array (float32 maps are narrowed or
                quantised; other dtypes pass through unchanged).

        Returns:
            ``(wire_array, qparams)`` where ``qparams`` is the
            ``(scale, offset)`` pair for an int8-quantised map and
            ``None`` otherwise.
        """
        if self is Codec.INT8:
            if arr.dtype == np.float32:
                return _quantize_int8(arr)
            return arr, None  # non-float payloads pass through unquantised
        return self.narrow(arr), None

    def decode_array(self, arr: np.ndarray,
                     qparams: "tuple[float, float] | None" = None
                     ) -> np.ndarray:
        """Decode one wire array back to compute dtype.

        Args:
            arr: the wire-form array (fp16 or int8 for narrowed maps).
            qparams: the ``(scale, offset)`` pair carried in the
                frame header for int8-quantised maps; ``None`` otherwise.

        Returns:
            The float32 (or original-dtype) compute array.
        """
        if self is Codec.INT8 and arr.dtype == np.int8 and qparams is not None:
            return _dequantize_int8(arr, qparams)
        if self is Codec.INT8:
            return arr
        return self.widen(arr)


#: int8 affine quantisation spreads a map's [min, max] over 255 levels, so
#: the worst-case round-trip error is half a level: (max - min) / 510.
INT8_LEVELS = 255


def _quantize_int8(arr: np.ndarray
                   ) -> "tuple[np.ndarray, tuple[float, float]]":
    """Affine-quantise one float32 map: ``q = round((x - offset)/scale) - 128``.

    The per-map parameters are ``scale = (max - min) / 255`` and
    ``offset = min`` — the map's own minimum, which is already an exact
    float32 (anchoring at the minimum is what keeps the error bound
    offset-independent: a combined zero-point ``-128 - min/scale`` would
    lose whole quantisation levels to float32 rounding whenever the map
    sits far from zero).  ``scale`` is rounded through float32 *before*
    quantising, so the stored parameters are the exact ones the
    ``(max - min) / 510`` bound holds for.  A constant map quantises to
    all ``-128`` with ``scale = 1``, reproducing it exactly.
    """
    lo = float(arr.min())
    hi = float(arr.max())
    span = hi - lo  # float64: a full float32 range must not overflow
    offset = np.float32(lo)
    # Clamp the scale to the smallest *normal* float32: a sub-normal
    # span / 255 would round to 0.0 in the header, breaking the
    # "scale of 0 never occurs" invariant the decoder keys on.  Such a
    # map then quantises to all -128 and reconstructs as its minimum —
    # error <= span < 1e-40, far inside any practical tolerance.
    if span <= 0.0:
        scale = np.float32(1.0)
    else:
        scale = np.float32(max(span / INT8_LEVELS,
                               float(np.finfo(np.float32).tiny)))
    q = np.clip(np.rint((arr.astype(np.float64) - float(offset))
                        / float(scale)) - 128, -128, 127).astype(np.int8)
    return q, (float(scale), float(offset))


def _dequantize_int8(arr: np.ndarray,
                     qparams: "tuple[float, float]") -> np.ndarray:
    """Invert :func:`_quantize_int8`: ``x = (q + 128) * scale + offset``.

    Computed in float64 and rounded once to float32 at the end, so the
    reconstruction lands on the nearest representable value to the ideal
    dequantisation.
    """
    scale, offset = qparams
    return ((arr.astype(np.float64) + 128.0) * scale
            + offset).astype(np.float32)

_DTYPE_CODES: dict[np.dtype, int] = {
    np.dtype(np.float32): 0,
    np.dtype(np.float64): 1,
    np.dtype(np.float16): 2,
    np.dtype(np.int64): 3,
    np.dtype(np.int32): 4,
    np.dtype(np.int16): 5,
    np.dtype(np.int8): 6,
    np.dtype(np.uint8): 7,
    np.dtype(np.bool_): 8,
}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}


def _frame_nbytes(arrays: list[np.ndarray]) -> int:
    return sum(arr.nbytes + HEADER_BYTES for arr in arrays)


def _float_bits(value: float) -> int:
    """The uint32 bit pattern of a float32 (how shape slots carry floats)."""
    return struct.unpack("<I", struct.pack("<f", value))[0]


def _bits_float(bits: int) -> float:
    """Invert :func:`_float_bits`."""
    return struct.unpack("<f", struct.pack("<I", bits))[0]


def _pack(kind: int, session_id: int, request_id: int, flags: int,
          arrays: list[np.ndarray], codec: Codec = Codec.FP32,
          quant: "list[tuple[float, float] | None] | None" = None) -> bytes:
    if not arrays:
        raise ProtocolError("a message must carry at least one array")
    if quant is not None and len(quant) != len(arrays):
        raise ProtocolError("quant parameters must match the array count")
    chunks = []
    for index, arr in enumerate(arrays):
        if arr.dtype not in _DTYPE_CODES:
            raise ProtocolError(f"unsupported wire dtype {arr.dtype}")
        if not 1 <= arr.ndim <= _MAX_NDIM:
            raise ProtocolError(f"wire arrays must be 1..{_MAX_NDIM}-d, got {arr.ndim}-d")
        shape = list(arr.shape) + [0] * (_MAX_NDIM - arr.ndim)
        qparams = quant[index] if quant is not None else None
        if qparams is not None:
            # The per-map scale / offset ride in the two highest shape
            # slots, which an int8-quantised tensor must leave free.
            if arr.ndim > _MAX_NDIM - 2:
                raise ProtocolError(
                    f"int8-quantised arrays must be 1..{_MAX_NDIM - 2}-d so "
                    f"the header can carry scale/offset, got {arr.ndim}-d")
            scale, offset = qparams
            shape[_MAX_NDIM - 2] = _float_bits(scale)
            shape[_MAX_NDIM - 1] = _float_bits(offset)
        head = _FRAME.pack(_MAGIC, WIRE_VERSION, kind, session_id,
                           request_id, flags, index, len(arrays),
                           _DTYPE_CODES[arr.dtype], arr.ndim,
                           int(codec), *shape)
        payload = np.ascontiguousarray(arr).tobytes()
        # Per-frame CRC32 over the 60 header bytes + the payload: a flipped
        # bit anywhere in the frame fails the parse with a ProtocolError.
        chunks.append(head)
        chunks.append(_CRC.pack(zlib.crc32(payload, zlib.crc32(head))))
        chunks.append(payload)
    return b"".join(chunks)


def _unpack(data: bytes, expected_kind: int, zero_copy: bool = False
            ) -> "tuple[int, int, int, Codec, list[np.ndarray], list[tuple[float, float] | None]]":
    """Parse frames.

    Returns ``(session_id, request_id, flags, codec, arrays, quant)``
    where ``quant`` holds each frame's ``(scale, offset)`` pair (int8
    frames) or ``None``.

    With ``zero_copy=True`` and an *immutable* ``bytes`` input, the
    returned arrays are read-only :func:`numpy.frombuffer` views straight
    into ``data`` — no payload copy happens at decode time (the serve
    path copies a payload at most once, into the staging buffer of a
    multi-request group; a lone request is served from the view).
    Mutable buffers (``bytearray``, writable ``memoryview``)
    always get defensive copies regardless of the flag: a view into a
    buffer the sender may recycle would let post-decode mutations alias
    into served features.
    """
    offset = 0
    # One memoryview over the whole message: slicing it is O(1), unlike
    # slicing ``bytes`` which would copy each payload before the parse
    # even decides whether a copy is needed.
    view = memoryview(data)
    share = zero_copy and isinstance(data, bytes)
    header: tuple[int, int, int, int] | None = None
    count = None
    arrays: list[np.ndarray] = []
    quant: list[tuple[float, float] | None] = []
    while offset < len(data):
        if len(data) - offset < HEADER_BYTES:
            raise ProtocolError("truncated frame header")
        (magic, version, kind, session_id, request_id, flags, index,
         array_count, dtype_code, ndim, codec_code, *shape6) = _FRAME.unpack_from(
            data, offset)
        (stored_crc,) = _CRC.unpack_from(data, offset + _FRAME.size)
        header_bytes = view[offset:offset + _FRAME.size]
        offset += HEADER_BYTES
        if magic != _MAGIC:
            raise ProtocolError(f"bad magic {magic!r}")
        if version != WIRE_VERSION:
            raise ProtocolError(f"unsupported protocol version {version}")
        if kind != expected_kind:
            raise ProtocolError(f"unexpected message kind {kind}")
        if not 1 <= ndim <= _MAX_NDIM:
            raise ProtocolError(f"bad ndim {ndim}")
        if dtype_code not in _CODE_DTYPES:
            raise ProtocolError(f"unknown dtype code {dtype_code}")
        try:
            codec = Codec(codec_code)
        except ValueError:
            raise ProtocolError(f"unknown codec code {codec_code}") from None
        if header is None:
            header, count = (session_id, request_id, flags, codec_code), array_count
        elif header != (session_id, request_id, flags, codec_code) or count != array_count:
            raise ProtocolError("inconsistent frame headers within one message")
        if index != len(arrays):
            raise ProtocolError(f"out-of-order frame index {index}")
        dtype = _CODE_DTYPES[dtype_code]
        shape = tuple(shape6[:ndim])
        # An int8-quantised frame stores its scale / offset float32
        # bits in the two highest shape slots (a scale of 0 never occurs,
        # so zero slots mean "plain int8 payload, no parameters").
        if (codec is Codec.INT8 and dtype == np.dtype(np.int8)
                and ndim <= _MAX_NDIM - 2 and shape6[_MAX_NDIM - 2] != 0):
            quant.append((_bits_float(shape6[_MAX_NDIM - 2]),
                          _bits_float(shape6[_MAX_NDIM - 1])))
        else:
            quant.append(None)
        # Element counts multiply in Python ints: 6 garbage uint32 shape
        # slots can overflow a fixed-width product into a negative nbytes,
        # which would slip past the length check below.
        count_elems = math.prod(shape)
        nbytes = count_elems * dtype.itemsize
        if len(data) - offset < nbytes:
            raise ProtocolError("truncated array payload")
        payload = view[offset:offset + nbytes]
        if zlib.crc32(payload, zlib.crc32(header_bytes)) != stored_crc:
            raise ProtocolError("frame checksum mismatch")
        # frombuffer over a memoryview of ``bytes`` yields a *read-only*
        # array, so the shared serve path cannot scribble on the wire
        # buffer even by accident — the aliasing fuzz tests assert this.
        arr = np.frombuffer(payload, dtype=dtype,
                            count=count_elems).reshape(shape)
        if not share:
            arr = arr.copy()
        arrays.append(arr)
        offset += nbytes
    if header is None:
        raise ProtocolError("empty message")
    if len(arrays) != count:
        raise ProtocolError(f"expected {count} arrays, got {len(arrays)}")
    session_id, request_id, flags, codec_code = header
    return (session_id, request_id, flags, Codec(codec_code), arrays, quant)


@dataclasses.dataclass
class UploadRequest:
    """Client -> server: one noised intermediate-feature tensor.

    ``record`` mirrors the pipelines' attack-capture flag: a semi-honest
    server may retain the uploaded features for its inversion decoder.

    ``arrival_time`` and ``deadline`` are *scheduling metadata*, not wire
    fields: the service stamps ``arrival_time`` from its virtual clock at
    admission, and a deadline-aware scheduler reads ``deadline`` (an
    absolute clock value) to order and group requests.  ``attempts``
    counts the failed stacked passes this request has ridden through (a
    crashed tick re-queues its group up to ``ServingConfig.tick_retries``
    times before the request fails terminally).  ``from_bytes`` leaves
    all three unset — they belong to the receiving scheduler, not the
    sender.
    """

    session_id: int
    request_id: int
    features: np.ndarray
    record: bool = False
    arrival_time: float | None = None
    deadline: float | None = None
    attempts: int = 0

    @property
    def batch_size(self) -> int:
        return int(self.features.shape[0])

    @property
    def coalesce_key(self) -> tuple:
        """Requests coalesce iff their per-sample shape and dtype agree."""
        return (self.features.shape[1:], self.features.dtype)

    def wire_nbytes(self) -> int:
        """Exact length of :meth:`to_bytes` without materialising it."""
        return _frame_nbytes([self.features])

    def to_bytes(self) -> bytes:
        """Serialise to wire frames; inverse of :meth:`from_bytes`."""
        flags = _FLAG_RECORD if self.record else 0
        return _pack(_KIND_UPLOAD, self.session_id, self.request_id, flags,
                     [self.features])

    @classmethod
    def from_bytes(cls, data: bytes, zero_copy: bool = False) -> "UploadRequest":
        """Parse one framed upload; inverse of :meth:`to_bytes`.

        ``zero_copy=True`` returns ``features`` as a read-only view into
        ``data`` when ``data`` is immutable ``bytes`` (see
        :func:`_unpack`); mutable buffers are still copied defensively.
        """
        session_id, request_id, flags, _codec, arrays, _quant = _unpack(
            data, _KIND_UPLOAD, zero_copy=zero_copy)
        if len(arrays) != 1:
            raise ProtocolError(f"upload carries one tensor, got {len(arrays)}")
        return cls(session_id, request_id, arrays[0],
                   record=bool(flags & _FLAG_RECORD))


@dataclasses.dataclass
class FeatureResponse:
    """Server -> client: all N per-body feature maps for one request.

    Every client always receives all N maps — which P of them the tail
    consumes is decided by the session's private selector and never
    crosses the wire.

    ``outputs`` holds the *wire-form* arrays: under a non-identity codec
    they are already narrowed (fp16) or quantised (int8), so
    ``wire_nbytes`` charges exactly what ``to_bytes`` frames.  ``quant``
    holds the per-map ``(scale, offset)`` pairs of int8-quantised
    outputs (``None`` for parameter-free codecs); on the wire they travel
    inside each map's own frame header.  Build narrowed responses with
    :meth:`encode` and read compute-dtype maps back with :meth:`decoded`.

    ``degraded`` (wire flag bit 1) marks a response served from a
    shrunken ensemble subset by an overloaded service: positions outside
    the served subset alias served maps cyclically, so the client knows
    its accuracy was traded for fleet capacity (see
    :mod:`repro.serving.overload`).
    """

    session_id: int
    request_id: int
    outputs: list[np.ndarray]
    codec: Codec = Codec.FP32
    quant: "list[tuple[float, float] | None] | None" = None
    degraded: bool = False

    @classmethod
    def encode(cls, session_id: int, request_id: int,
               outputs: list[np.ndarray],
               codec: "Codec | int | str | None" = Codec.FP32,
               degraded: bool = False) -> "FeatureResponse":
        """Apply the session's negotiated codec to fresh server outputs.

        Args:
            session_id / request_id: the request being answered.
            outputs: the N compute-dtype (float32) feature maps.
            codec: the session's negotiated downlink codec spec.
            degraded: whether an overloaded service served this response
                from a reduced ensemble subset (sets wire flag bit 1).

        Returns:
            A response holding the wire-form (narrowed / quantised)
            arrays plus any per-map quantisation parameters.
        """
        codec = Codec.parse(codec)
        encoded = [codec.encode_array(arr) for arr in outputs]
        params = [q for _, q in encoded]
        return cls(session_id, request_id, [arr for arr, _ in encoded], codec,
                   params if any(q is not None for q in params) else None,
                   degraded=degraded)

    def decoded(self) -> list[np.ndarray]:
        """The client-side view: wire maps decoded back to float32."""
        params = self.quant or [None] * len(self.outputs)
        return [self.codec.decode_array(arr, q)
                for arr, q in zip(self.outputs, params)]

    @property
    def num_nets(self) -> int:
        """How many per-body feature maps the response carries (N)."""
        return len(self.outputs)

    def wire_nbytes(self) -> int:
        """Exact length of :meth:`to_bytes` without materialising it."""
        return _frame_nbytes(self.outputs)

    def to_bytes(self) -> bytes:
        """Serialise to wire frames; inverse of :meth:`from_bytes`."""
        flags = _FLAG_DEGRADED if self.degraded else 0
        return _pack(_KIND_RESPONSE, self.session_id, self.request_id, flags,
                     list(self.outputs), codec=self.codec, quant=self.quant)

    @classmethod
    def from_bytes(cls, data: bytes, zero_copy: bool = False) -> "FeatureResponse":
        """Parse framed response bytes; inverse of :meth:`to_bytes`.

        ``zero_copy=True`` returns read-only views into immutable
        ``bytes`` input (see :func:`_unpack`).
        """
        session_id, request_id, flags, codec, arrays, quant = _unpack(
            data, _KIND_RESPONSE, zero_copy=zero_copy)
        return cls(session_id, request_id, arrays, codec,
                   quant if any(q is not None for q in quant) else None,
                   degraded=bool(flags & _FLAG_DEGRADED))
