"""Wire-level packet representation shared by all transports.

Messages are packetized at the NIC MTU.  Control packets (RTS/CTS/ACK)
carry no payload but still occupy the wire for their header time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional


class PacketKind(Enum):
    """Wire packet types."""

    DATA = "data"          # message payload fragment
    RTS = "rts"            # rendezvous request-to-send (carries envelope)
    CTS = "cts"            # rendezvous clear-to-send (carries buffer handle)
    ACK = "ack"            # reliability acknowledgment (kernel transports)

    # Members are singletons that compare by identity, so identity
    # hashing agrees with equality; it keeps :data:`KIND_TEXT` lookups
    # in C instead of ``Enum.__hash__``, a Python-level call.
    __hash__ = object.__hash__


#: Each kind's text as trace records carry it.  The per-packet emit
#: sites read this table: ``Enum.value`` is a Python-level descriptor,
#: paid once per traced packet event.
KIND_TEXT: Dict[PacketKind, str] = {kind: kind.value for kind in PacketKind}


_msg_ids = itertools.count(1)


def next_msg_id() -> int:
    """Globally unique message identifier (per interpreter)."""
    return next(_msg_ids)


@dataclass(slots=True)
class Envelope:
    """MPI matching envelope carried by a message's first packet (or RTS)."""

    src_rank: int
    dst_rank: int
    tag: int
    nbytes: int
    #: Sender-side sequence number in (src, dst) order — enforces the MPI
    #: non-overtaking rule.
    seq: int = 0


@dataclass(slots=True)
class Packet:
    """One unit of wire transfer."""

    kind: PacketKind
    src: int                    # source node id
    dst: int                    # destination node id
    msg_id: int                 # message this packet belongs to
    payload_bytes: int = 0      # payload carried (0 for control packets)
    index: int = 0              # fragment index within the message
    is_first: bool = False
    is_last: bool = False
    #: Matching envelope; present on first DATA packet and on RTS.
    envelope: Optional[Envelope] = None
    #: Free-form transport metadata (receive-buffer handles, ack ranges...).
    meta: Dict[str, Any] = field(default_factory=dict)

    def wire_bytes(self, header_bytes: int) -> int:
        """Bytes this packet occupies on the wire."""
        return self.payload_bytes + header_bytes


def packetize(
    kind: PacketKind,
    src: int,
    dst: int,
    msg_id: int,
    nbytes: int,
    mtu: int,
    envelope: Optional[Envelope] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> List[Packet]:
    """Split a message of ``nbytes`` into MTU-sized :class:`Packet` list.

    A zero-byte message still produces one (empty) packet so that envelope
    and completion semantics are uniform.
    """
    if nbytes < 0:
        raise ValueError("negative message size")
    if mtu <= 0:
        raise ValueError("MTU must be positive")
    sizes: List[int] = []
    remaining = nbytes
    while remaining > mtu:
        sizes.append(mtu)
        remaining -= mtu
    sizes.append(remaining)  # last fragment (possibly 0 for empty messages)
    packets: List[Packet] = []
    n = len(sizes)
    for i, sz in enumerate(sizes):
        packets.append(
            Packet(
                kind=kind,
                src=src,
                dst=dst,
                msg_id=msg_id,
                payload_bytes=sz,
                index=i,
                is_first=(i == 0),
                is_last=(i == n - 1),
                envelope=envelope if i == 0 else None,
                meta=dict(meta) if meta else {},
            )
        )
    return packets


def control_packet(
    kind: PacketKind,
    src: int,
    dst: int,
    msg_id: int,
    envelope: Optional[Envelope] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Packet:
    """Build a single zero-payload control packet (RTS/CTS/ACK)."""
    return Packet(
        kind=kind,
        src=src,
        dst=dst,
        msg_id=msg_id,
        payload_bytes=0,
        is_first=True,
        is_last=True,
        envelope=envelope,
        meta=dict(meta) if meta else {},
    )
