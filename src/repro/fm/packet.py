"""FM packet format.

FM moves fixed-maximum-size packets (1560 bytes on the paper's system).
Messages larger than one payload are fragmented by ``FM_send`` and
reassembled by the receiving library.  Control packets (credit refills,
and the halt/ready packets of the flush protocol) are small,
"specially tagged", are only counted rather than buffered, and do not
consume flow-control credits.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.errors import ConfigError


class PacketType(enum.Enum):
    DATA = "data"      # application payload fragment
    REFILL = "refill"  # credit refill (FM flow control)
    HALT = "halt"      # flush protocol: "I stopped sending" (NIC-to-NIC)
    READY = "ready"    # release protocol: "I can receive again" (NIC-to-NIC)
    ACK = "ack"        # PM-style transport (alternatives.pm_nack) only
    NACK = "nack"      # PM-style: receive queue full, please resend


_DATA = PacketType.DATA

#: Types that are NIC-to-NIC control traffic: never buffered in receive
#: queues, never credited, allowed through while the network is halted.
NIC_CONTROL_TYPES = frozenset({PacketType.HALT, PacketType.READY})

_seq_counter = itertools.count()


@dataclass(slots=True)
class Packet:
    """One wire packet.

    ``msg_id``/``frag_index``/``frag_count`` implement fragmentation;
    ``piggyback_refill`` carries credits returned opportunistically on a
    data packet travelling in the reverse direction.
    """

    ptype: PacketType
    src_node: int
    dst_node: int
    job_id: int = -1
    src_rank: int = -1
    dst_rank: int = -1
    payload_bytes: int = 0
    msg_id: int = -1
    frag_index: int = 0
    frag_count: int = 1
    piggyback_refill: int = 0
    refill_credits: int = 0          # explicit refill amount (REFILL only)
    ack_seq: int = -1                # seq being (n)acked (ACK/NACK only)
    #: Contiguous per-channel (job, src->dst) sequence number, stamped by
    #: the reliability driver at first transmission; retransmit clones
    #: keep the original's.  Cumulative-ack and NACK strategies reason
    #: about prefixes/gaps in this space (the global ``seq`` counter is
    #: interleaved across channels and therefore gap-free nowhere).
    rel_seq: int = -1
    tag: int = 0                     # application message tag (MPI layer)
    payload_obj: object = None       # opaque app payload (last fragment)
    #: Set by the fault-injection layer (link bit errors, NIC SRAM
    #: flips).  A corrupted packet fails the receiver's CRC check and is
    #: discarded without acknowledgement; the reliability layer recovers
    #: it from the sender's pristine host-side copy.
    corrupted: bool = False
    seq: int = field(default_factory=_seq_counter.__next__)
    #: Bytes occupied on the wire (and in a buffer slot).  Derived from
    #: the payload once at construction — the send/receive/transmit paths
    #: each read it per packet, so it must be a plain attribute.
    size_bytes: int = field(init=False, repr=False, compare=False)

    HEADER_BYTES = 24
    CONTROL_BYTES = 16

    def __post_init__(self):
        # Runs for every packet built (one per fragment and per control
        # packet): one type test picks the size, the checks ride along.
        payload = self.payload_bytes
        if payload < 0:
            raise ConfigError(f"negative payload {payload}")
        if self.ptype is _DATA:
            self.size_bytes = self.HEADER_BYTES + payload
        elif payload:
            raise ConfigError(f"{self.ptype} packets carry no payload")
        else:
            self.size_bytes = self.CONTROL_BYTES
        if not 0 <= self.frag_index < self.frag_count:
            raise ConfigError(
                f"fragment index {self.frag_index} out of range for count {self.frag_count}"
            )

    @property
    def is_data(self) -> bool:
        return self.ptype is PacketType.DATA

    @property
    def is_nic_control(self) -> bool:
        return self.ptype in NIC_CONTROL_TYPES

    @property
    def is_last_fragment(self) -> bool:
        return self.frag_index == self.frag_count - 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Pkt {self.ptype.value} {self.src_node}->{self.dst_node}"
            f" job={self.job_id} msg={self.msg_id}.{self.frag_index} {self.payload_bytes}B>"
        )
