"""Binary wire framing for the route-query service.

A frame is a fixed 12-byte header (``!4sBBHI`` — magic, version,
flags, reserved, body length) followed by a JSON body encoded with
``sort_keys=True``.  A batch is a single frame whose body is a JSON
array; the reply to a batch is a single frame carrying the array of
replies, its body joined from the replies' canonical bodies
(:func:`join_payloads`) and written as a header + ``memoryview`` pair.

A stream that does not open with :data:`MAGIC` (JSON text, say) is
rejected with an unrecoverable ``wire-protocol`` error: without a
valid header there is no next frame boundary to resynchronize on.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, List, Optional, Tuple

from .errors import WireProtocolError

__all__ = [
    "MAGIC",
    "FRAME_VERSION",
    "HEADER",
    "MAX_FRAME_BYTES",
    "encode_payload",
    "join_payloads",
    "decode_payload",
    "frame_header",
    "encode_frame",
    "read_frame",
    "reply_views",
]

#: First bytes of every frame.  ``0xAB`` is outside printable ASCII,
#: so text sent to the port by mistake fails the magic check at once.
MAGIC = b"\xabRQ1"

#: Bump when the header layout or body encoding changes.
FRAME_VERSION = 1

#: ``magic(4s) version(B) flags(B) reserved(H) body_length(I)``.
HEADER = struct.Struct("!4sBBHI")

#: Default ceiling on one frame body: a malformed client gets a typed
#: error, not an out-of-memory control plane, while a many-thousand-
#: query pipelined batch is still valid traffic.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Discard chunk size while draining an oversized frame body.
_DRAIN_CHUNK = 64 * 1024


def encode_payload(obj: Any) -> bytes:
    """Canonical JSON body bytes."""
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def join_payloads(parts: List[bytes]) -> bytes:
    """The body of a JSON array from its elements' canonical bodies:
    ``join_payloads([encode_payload(x) for x in xs])`` equals
    ``encode_payload(xs)``."""
    return b"[" + b", ".join(parts) + b"]"


def decode_payload(data: bytes) -> Any:
    return json.loads(data)


def frame_header(body_length: int, flags: int = 0) -> bytes:
    """The 12-byte header for a body of ``body_length`` bytes."""
    return HEADER.pack(MAGIC, FRAME_VERSION, flags, 0, body_length)


def encode_frame(obj: Any, flags: int = 0) -> bytes:
    """One self-contained frame (header + body) for ``obj``."""
    body = encode_payload(obj)
    return frame_header(len(body), flags) + body


async def _drain_exact(reader: asyncio.StreamReader, count: int) -> bool:
    """Discard exactly ``count`` bytes; ``False`` if EOF cut it short."""
    remaining = count
    while remaining > 0:
        chunk = await reader.read(min(_DRAIN_CHUNK, remaining))
        if not chunk:
            return False
        remaining -= len(chunk)
    return True


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> Optional[bytes]:
    """Read one frame; returns the raw body bytes.

    - ``None`` on a clean EOF at a frame boundary.
    - Raises :class:`asyncio.IncompleteReadError` when the peer dies
      mid-frame (truncated header or body).
    - Raises :class:`WireProtocolError` on a bad magic/version
      (``data["recoverable"] is False`` — the next boundary is lost)
      or an oversized body (``data["recoverable"] is True`` — the body
      is fully drained first, so the stream stays in sync).
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise
    magic, version, _flags, _reserved, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise WireProtocolError(
            f"bad frame magic {magic!r}",
            {"recoverable": False},
        )
    if version != FRAME_VERSION:
        raise WireProtocolError(
            f"unsupported frame version {version} "
            f"(this peer speaks {FRAME_VERSION})",
            {"recoverable": False, "version": int(version)},
        )
    if length > max_frame_bytes:
        drained = await _drain_exact(reader, length)
        if not drained:
            raise asyncio.IncompleteReadError(b"", length)
        raise WireProtocolError(
            f"frame body of {length} bytes exceeds the "
            f"{max_frame_bytes}-byte limit",
            {
                "recoverable": True,
                "length": int(length),
                "limit_bytes": int(max_frame_bytes),
            },
        )
    return await reader.readexactly(length)


def reply_views(payload: bytes, flags: int = 0) -> Tuple[bytes, memoryview]:
    """Header + zero-copy body view for writing a reply frame."""
    return frame_header(len(payload), flags), memoryview(payload)
