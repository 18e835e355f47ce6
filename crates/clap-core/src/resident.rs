//! Resident per-flow neural state: the GRU hidden vector and the last
//! `stack − 1` context profiles of every flow a scorer holds, in one dense
//! arena indexed by the flow's slot.
//!
//! A flow is addressed by packet index, not ring position: packet `t`'s
//! profile lives in ring row `t % (stack − 1)`, and only this module knows
//! it. The current packet's profile is never resident — the scorer builds
//! it in scratch and it enters the window from there — so the ring holds
//! strictly the rows future windows will re-read.
//!
//! [`ResidentMode::Int8`] stores both in the 7-bit activation format of
//! `neural::quant` (codes plus one `(scale, min)` pair per row),
//! dequantized on read and requantized on store — ~4× smaller, at the
//! price of one round trip through the grid per packet.

use crate::profile::PROFILE_LEN;
use neural::{dequantize_activations_into, quantize_activations, ActQuant};

/// In-table representation of each flow's GRU hidden vector and profile
/// ring. Independent of [`QuantMode`](neural::QuantMode), which quantizes
/// weights: this quantizes the state a flow carries between packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResidentMode {
    /// Exact f32 resident state — preserves every batch-equivalence
    /// guarantee bit for bit.
    #[default]
    F32,
    /// 7-bit quantized resident state (~4× smaller). Scores drift within
    /// the calibrated resident-quantization bound.
    Int8,
}

/// Dense per-flow neural state: slot `s` owns `hidden` elements of the
/// hidden-state arena and `stack − 1` rows of the profile-ring arena. One
/// representation for the whole arena (not per flow), so the f32 path
/// stays branch-free per row and the int8 path adds no per-flow
/// discriminant.
#[derive(Debug)]
pub(crate) struct ResidentArena {
    hidden: usize,
    ring_rows: usize,
    state: State,
}

#[derive(Debug)]
enum State {
    F32 {
        h: Vec<f32>,
        ring: Vec<f32>,
    },
    Int8 {
        h: Vec<u8>,
        hq: Vec<ActQuant>,
        ring: Vec<u8>,
        ringq: Vec<ActQuant>,
    },
}

/// Quant pair of an all-zero row (`scale` 0 dequantizes every code to
/// `min` = 0), the state of a fresh flow's hidden vector.
const ZERO_Q: ActQuant = ActQuant {
    scale: 0.0,
    min: 0.0,
};

impl ResidentArena {
    /// An empty arena for flows of a `hidden`-wide GRU scored in windows
    /// of `stack` profiles.
    pub(crate) fn new(mode: ResidentMode, hidden: usize, stack: usize) -> ResidentArena {
        ResidentArena {
            hidden,
            ring_rows: stack - 1,
            state: match mode {
                ResidentMode::F32 => State::F32 {
                    h: Vec::new(),
                    ring: Vec::new(),
                },
                ResidentMode::Int8 => State::Int8 {
                    h: Vec::new(),
                    hq: Vec::new(),
                    ring: Vec::new(),
                    ringq: Vec::new(),
                },
            },
        }
    }

    fn hidden_span(&self, slot: usize) -> std::ops::Range<usize> {
        slot * self.hidden..(slot + 1) * self.hidden
    }

    /// Arena row and element span of the profile of the slot's packet `t`.
    fn profile_span(&self, slot: usize, t: usize) -> (usize, std::ops::Range<usize>) {
        let r = slot * self.ring_rows + t % self.ring_rows;
        (r, r * PROFILE_LEN..(r + 1) * PROFILE_LEN)
    }

    /// Appends one zeroed slot's worth of state.
    pub(crate) fn push_slot(&mut self) {
        let (hidden, ring_rows) = (self.hidden, self.ring_rows);
        match &mut self.state {
            State::F32 { h, ring } => {
                h.resize(h.len() + hidden, 0.0);
                ring.resize(ring.len() + ring_rows * PROFILE_LEN, 0.0);
            }
            State::Int8 { h, hq, ring, ringq } => {
                h.resize(h.len() + hidden, 0);
                hq.push(ZERO_Q);
                ring.resize(ring.len() + ring_rows * PROFILE_LEN, 0);
                ringq.resize(ringq.len() + ring_rows, ZERO_Q);
            }
        }
    }

    /// Zeroes a reused slot's hidden state. Ring rows need no clearing: a
    /// flow writes packet `t`'s row before any window reads it, so stale
    /// rows of the previous occupant are unreachable (pinned by the slab
    /// recycling test and the reused-`ClapScorer` test).
    pub(crate) fn clear_slot(&mut self, slot: usize) {
        let span = self.hidden_span(slot);
        match &mut self.state {
            State::F32 { h, .. } => h[span].fill(0.0),
            State::Int8 { h, hq, .. } => {
                h[span].fill(0);
                hq[slot] = ZERO_Q;
            }
        }
    }

    /// Copies (f32) or dequantizes (int8) the slot's hidden vector into
    /// `out`.
    pub(crate) fn read_hidden(&self, slot: usize, out: &mut [f32]) {
        let span = self.hidden_span(slot);
        match &self.state {
            State::F32 { h, .. } => out.copy_from_slice(&h[span]),
            State::Int8 { h, hq, .. } => dequantize_activations_into(&h[span], hq[slot], out),
        }
    }

    /// Stores `row` as the slot's hidden vector (quantizing through
    /// `codes` scratch in int8 mode).
    pub(crate) fn store_hidden(&mut self, slot: usize, row: &[f32], codes: &mut Vec<u8>) {
        let span = self.hidden_span(slot);
        match &mut self.state {
            State::F32 { h, .. } => h[span].copy_from_slice(row),
            State::Int8 { h, hq, .. } => {
                hq[slot] = quantize_activations(row, codes);
                h[span].copy_from_slice(codes);
            }
        }
    }

    /// Advances the slot's hidden vector through `step`: in place on the
    /// resident f32 row, or (int8) dequantized into `scratch`, stepped
    /// there and requantized.
    pub(crate) fn step_hidden(
        &mut self,
        slot: usize,
        scratch: &mut Vec<f32>,
        codes: &mut Vec<u8>,
        step: impl FnOnce(&mut [f32]),
    ) {
        let span = self.hidden_span(slot);
        if let State::F32 { h, .. } = &mut self.state {
            step(&mut h[span]);
        } else {
            scratch.resize(self.hidden, 0.0);
            self.read_hidden(slot, scratch);
            step(scratch);
            self.store_hidden(slot, scratch, codes);
        }
    }

    /// Copies (f32) or dequantizes (int8) the profile of the slot's packet
    /// `t` — one of its last `stack − 1` — into `out`.
    pub(crate) fn read_profile(&self, slot: usize, t: usize, out: &mut [f32]) {
        let (r, span) = self.profile_span(slot, t);
        match &self.state {
            State::F32 { ring, .. } => out.copy_from_slice(&ring[span]),
            State::Int8 { ring, ringq, .. } => {
                dequantize_activations_into(&ring[span], ringq[r], out)
            }
        }
    }

    /// Stores `row` as the profile of the slot's packet `t`, over that of
    /// packet `t − (stack − 1)` (quantizing through `codes` scratch in
    /// int8 mode). Nothing is kept when `stack` is 1.
    pub(crate) fn store_profile(
        &mut self,
        slot: usize,
        t: usize,
        row: &[f32],
        codes: &mut Vec<u8>,
    ) {
        if self.ring_rows == 0 {
            return;
        }
        let (r, span) = self.profile_span(slot, t);
        match &mut self.state {
            State::F32 { ring, .. } => ring[span].copy_from_slice(row),
            State::Int8 { ring, ringq, .. } => {
                ringq[r] = quantize_activations(row, codes);
                ring[span].copy_from_slice(codes);
            }
        }
    }

    /// Assembles the window the slot's packet `t` (`t ≥ stack − 1`)
    /// completes: the `stack − 1` profiles before it from the ring, oldest
    /// first, then `row` — `t`'s own, which is not resident yet (store it
    /// after; the ring must still be "as of packet `t − 1`" here).
    pub(crate) fn read_window(&self, slot: usize, t: usize, row: &[f32], window: &mut [f32]) {
        let (head, last) = window.split_at_mut(self.ring_rows * PROFILE_LEN);
        for (j, dst) in head.chunks_exact_mut(PROFILE_LEN).enumerate() {
            self.read_profile(slot, t - self.ring_rows + j, dst);
        }
        last.copy_from_slice(row);
    }

    /// Grows capacity to exactly `target_slots` (never Vec doubling), so
    /// the arena tracks the flow table's own exact-growth policy.
    pub(crate) fn reserve_slots(&mut self, target_slots: usize) {
        fn up_to<T>(v: &mut Vec<T>, target: usize) {
            if target > v.capacity() {
                v.reserve_exact(target - v.len());
            }
        }
        let (hidden, ring_rows) = (self.hidden, self.ring_rows);
        match &mut self.state {
            State::F32 { h, ring } => {
                up_to(h, target_slots * hidden);
                up_to(ring, target_slots * ring_rows * PROFILE_LEN);
            }
            State::Int8 { h, hq, ring, ringq } => {
                up_to(h, target_slots * hidden);
                up_to(hq, target_slots);
                up_to(ring, target_slots * ring_rows * PROFILE_LEN);
                up_to(ringq, target_slots * ring_rows);
            }
        }
    }

    /// Drops every slot, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        match &mut self.state {
            State::F32 { h, ring } => {
                h.clear();
                ring.clear();
            }
            State::Int8 { h, hq, ring, ringq } => {
                h.clear();
                hq.clear();
                ring.clear();
                ringq.clear();
            }
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        match &self.state {
            State::F32 { h, ring } => (h.capacity() + ring.capacity()) * size_of::<f32>(),
            State::Int8 { h, hq, ring, ringq } => {
                h.capacity()
                    + ring.capacity()
                    + (hq.capacity() + ringq.capacity()) * size_of::<ActQuant>()
            }
        }
    }
}
