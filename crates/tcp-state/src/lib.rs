//! Reference TCP connection tracker for label generation.
//!
//! The CLAP paper instruments Linux's netfilter `conntrack` subsystem and
//! replays benign traffic through it to harvest, for every packet, the pair
//! *(master TCP state after the packet, in-/out-of-window verdict)* — the
//! 11 × 2 = 22-class label that drives the inter-packet-context RNN
//! (paper §3.3(a), Table 5). This crate is that reference implementation,
//! built from scratch: a middlebox-viewpoint, bidirectional TCP state
//! machine in the style of `nf_conntrack_proto_tcp.c`, with
//!
//! * the 11 master states (conntrack's state alphabet, including the
//!   simultaneous-open `SynSent2` and the liveness states),
//! * sequence-window validation (a simplified `tcp_in_window`): segment
//!   sequence range against the receiver's expected window, acknowledgment
//!   plausibility, and PAWS-style timestamp monotonicity,
//! * endhost-fidelity checksum gating: packets with invalid IP/TCP checksums
//!   never advance the machine, exactly like a rigorous endpoint that drops
//!   them (this is the discrepancy many evasion attacks exploit).
//!
//! The tracker never panics on hostile input; every packet yields a label.
//! It keeps only what a label reads — no packet counter — because a
//! streaming detector holds one per live flow: a [`FlowTracker`] is 44
//! bytes, and a UDP or generic flow's lifecycle holds nothing at all.
//! A caller that also reads a packet's checksums elsewhere computes them
//! once ([`net_packet::Packet::checksums`]) and hands the verdicts to
//! [`FlowTracker::process_with`].

pub mod tracker;

pub use tracker::{
    label_connection, FlowTracker, GenericTracker, StateLabel, TcpState, TcpTracker, UdpTracker,
};

/// Number of master TCP states tracked.
pub const NUM_STATES: usize = 11;

/// Number of RNN label classes: each master state × {in-window, out-of-window}.
pub const NUM_CLASSES: usize = NUM_STATES * 2;
