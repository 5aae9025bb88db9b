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


@dataclass(slots=True, init=False)
class Packet:
    """One wire packet.

    ``msg_id``/``frag_index``/``frag_count`` implement fragmentation;
    ``piggyback_refill`` carries credits returned opportunistically on a
    data packet travelling in the reverse direction.

    The field defaults live in the hand-written ``__init__``: every
    fragment and control packet is built through it, and one plain
    ``__slots__`` initialiser costs a fraction of the generated keyword
    ``__init__`` plus ``__post_init__``.  The class stays a dataclass, so
    ``dataclasses.replace`` copies a packet with its ``seq`` and
    re-derives ``size_bytes``.
    """

    ptype: PacketType
    src_node: int
    dst_node: int
    #: The run's construction order (:attr:`Simulator.next_seq
    #: <repro.sim.core.Simulator.next_seq>`); a copy keeps its original's.
    seq: int
    job_id: int
    src_rank: int
    dst_rank: int
    payload_bytes: int
    msg_id: int
    frag_index: int
    frag_count: int
    piggyback_refill: int
    refill_credits: int              # explicit refill amount (REFILL only)
    ack_seq: int                     # seq being (n)acked (ACK/NACK only)
    #: Contiguous per-channel (job, src->dst) sequence number, stamped by
    #: the reliability driver at first transmission; retransmit clones
    #: keep the original's.  Cumulative-ack and NACK strategies reason
    #: about prefixes/gaps in this space (``seq`` numbers every packet of
    #: the run, so it is interleaved across channels and gap-free nowhere).
    rel_seq: int
    #: Set by the fault-injection layer (link bit errors, NIC SRAM
    #: flips).  A corrupted packet fails the receiver's CRC check and is
    #: discarded without acknowledgement; the reliability layer recovers
    #: it from the sender's pristine host-side copy.
    corrupted: bool
    #: Bytes occupied on the wire (and in a buffer slot).  Derived from
    #: the payload once at construction — the send/receive/transmit paths
    #: each read it per packet, so it must be a plain attribute.
    size_bytes: int = field(init=False, repr=False, compare=False)

    HEADER_BYTES = 24
    CONTROL_BYTES = 16

    def __init__(self, ptype: PacketType, src_node: int, dst_node: int,
                 seq: int, job_id: int = -1, src_rank: int = -1,
                 dst_rank: int = -1, payload_bytes: int = 0, msg_id: int = -1,
                 frag_index: int = 0, frag_count: int = 1,
                 piggyback_refill: int = 0, refill_credits: int = 0,
                 ack_seq: int = -1, rel_seq: int = -1,
                 corrupted: bool = False):
        self.ptype = ptype
        self.src_node = src_node
        self.dst_node = dst_node
        self.seq = seq
        self.job_id = job_id
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        self.payload_bytes = payload_bytes
        self.msg_id = msg_id
        self.frag_index = frag_index
        self.frag_count = frag_count
        self.piggyback_refill = piggyback_refill
        self.refill_credits = refill_credits
        self.ack_seq = ack_seq
        self.rel_seq = rel_seq
        self.corrupted = corrupted
        # One type test picks the size; the checks ride along.
        if payload_bytes < 0:
            raise ConfigError(f"negative payload {payload_bytes}")
        if ptype is _DATA:
            self.size_bytes = self.HEADER_BYTES + payload_bytes
        elif payload_bytes:
            raise ConfigError(f"{ptype} packets carry no payload")
        else:
            self.size_bytes = self.CONTROL_BYTES
        if not 0 <= frag_index < frag_count:
            raise ConfigError(
                f"fragment index {frag_index} out of range for count {frag_count}"
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
