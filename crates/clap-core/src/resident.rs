//! Resident per-flow neural state: the GRU hidden vector and the last
//! `stack − 1` context profiles of every flow a scorer holds, in one
//! arena indexed by the flow's slot.
//!
//! **Growth.** The arena grows one slot per slot the flow table appends,
//! in the fixed chunks of [`crate::chunked`]: each per-slot array is
//! clamped to the table's size, so it adds a chunk at the same push the
//! slab does, with no capacity handed over between the two. A chunk
//! never moves, so once the first chunk is whole (below that it doubles
//! from 64 slots, copying at most half a chunk) growing the arena copies
//! no flow's state, and what it reserves stays within one chunk of the
//! peak flow count.
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

use crate::chunked::Chunked;
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

/// Per-flow neural state: slot `s` owns `hidden` elements of the
/// hidden-state arrays and `stack − 1` rows of the profile-ring arrays.
/// One representation for the whole arena (not per flow), so the f32 path
/// stays branch-free per row and the int8 path adds no per-flow
/// discriminant.
///
/// Every per-slot array is a [`Chunked`] container clamped to the same
/// slot count as the owner's flow table, so the arena adds a chunk at the
/// push the table adds its own, and a slot's rows never move once their
/// chunk is whole (see [`crate::chunked`]).
#[derive(Debug)]
pub(crate) struct ResidentArena {
    hidden: usize,
    ring_rows: usize,
    state: State,
}

#[derive(Debug)]
enum State {
    F32 {
        h: Chunked<f32>,
        ring: Chunked<f32>,
    },
    Int8 {
        h: Chunked<u8>,
        hq: Chunked<ActQuant>,
        ring: Chunked<u8>,
        ringq: Chunked<ActQuant>,
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
    /// of `stack` profiles, reserving room for at most `max_slots` slots
    /// (the owner's flow-table size).
    pub(crate) fn new(
        mode: ResidentMode,
        hidden: usize,
        stack: usize,
        max_slots: usize,
    ) -> ResidentArena {
        let ring_rows = stack - 1;
        let ring = ring_rows * PROFILE_LEN;
        ResidentArena {
            hidden,
            ring_rows,
            state: match mode {
                ResidentMode::F32 => State::F32 {
                    h: Chunked::new(hidden, max_slots),
                    ring: Chunked::new(ring, max_slots),
                },
                ResidentMode::Int8 => State::Int8 {
                    h: Chunked::new(hidden, max_slots),
                    hq: Chunked::new(1, max_slots),
                    ring: Chunked::new(ring, max_slots),
                    ringq: Chunked::new(ring_rows, max_slots),
                },
            },
        }
    }

    /// Ring row of the slot's packet `t` and its element span in the
    /// slot's ring.
    fn ring_row(&self, t: usize) -> (usize, std::ops::Range<usize>) {
        let r = t % self.ring_rows;
        (r, r * PROFILE_LEN..(r + 1) * PROFILE_LEN)
    }

    /// Appends one zeroed slot's worth of state.
    pub(crate) fn push_slot(&mut self) {
        match &mut self.state {
            State::F32 { h, ring } => {
                h.push(0.0);
                ring.push(0.0);
            }
            State::Int8 { h, hq, ring, ringq } => {
                h.push(0);
                hq.push(ZERO_Q);
                ring.push(0);
                ringq.push(ZERO_Q);
            }
        }
    }

    /// Zeroes a reused slot's hidden state. Ring rows need no clearing: a
    /// flow writes packet `t`'s row before any window reads it, so stale
    /// rows of the previous occupant are unreachable (pinned by the slab
    /// recycling test and the reused-`ClapScorer` test).
    pub(crate) fn clear_slot(&mut self, slot: usize) {
        match &mut self.state {
            State::F32 { h, .. } => h.row_mut(slot).fill(0.0),
            State::Int8 { h, hq, .. } => {
                h.row_mut(slot).fill(0);
                *hq.get_mut(slot) = ZERO_Q;
            }
        }
    }

    /// Copies (f32) or dequantizes (int8) the slot's hidden vector into
    /// `out`.
    pub(crate) fn read_hidden(&self, slot: usize, out: &mut [f32]) {
        match &self.state {
            State::F32 { h, .. } => out.copy_from_slice(h.row(slot)),
            State::Int8 { h, hq, .. } => {
                dequantize_activations_into(h.row(slot), *hq.get(slot), out)
            }
        }
    }

    /// Stores `row` as the slot's hidden vector (quantizing through
    /// `codes` scratch in int8 mode).
    pub(crate) fn store_hidden(&mut self, slot: usize, row: &[f32], codes: &mut Vec<u8>) {
        match &mut self.state {
            State::F32 { h, .. } => h.row_mut(slot).copy_from_slice(row),
            State::Int8 { h, hq, .. } => {
                *hq.get_mut(slot) = quantize_activations(row, codes);
                h.row_mut(slot).copy_from_slice(codes);
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
        if let State::F32 { h, .. } = &mut self.state {
            step(h.row_mut(slot));
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
        let (r, span) = self.ring_row(t);
        match &self.state {
            State::F32 { ring, .. } => out.copy_from_slice(&ring.row(slot)[span]),
            State::Int8 { ring, ringq, .. } => {
                dequantize_activations_into(&ring.row(slot)[span], ringq.row(slot)[r], out)
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
        let (r, span) = self.ring_row(t);
        match &mut self.state {
            State::F32 { ring, .. } => ring.row_mut(slot)[span].copy_from_slice(row),
            State::Int8 { ring, ringq, .. } => {
                ringq.row_mut(slot)[r] = quantize_activations(row, codes);
                ring.row_mut(slot)[span].copy_from_slice(codes);
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

    /// Drops every slot, keeping the chunks.
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
        match &self.state {
            State::F32 { h, ring } => h.heap_bytes() + ring.heap_bytes(),
            State::Int8 { h, hq, ring, ringq } => {
                h.heap_bytes() + hq.heap_bytes() + ring.heap_bytes() + ringq.heap_bytes()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::CHUNK;

    /// Where slot `s` lives: the address of its row in each array.
    fn addresses(a: &ResidentArena, s: usize) -> Vec<usize> {
        match &a.state {
            State::F32 { h, ring } => {
                vec![h.row(s).as_ptr() as usize, ring.row(s).as_ptr() as usize]
            }
            State::Int8 { h, hq, ring, ringq } => vec![
                h.row(s).as_ptr() as usize,
                hq.row(s).as_ptr() as usize,
                ring.row(s).as_ptr() as usize,
                ringq.row(s).as_ptr() as usize,
            ],
        }
    }

    /// Each array's capacity, in slots.
    fn capacities(a: &ResidentArena) -> Vec<usize> {
        match &a.state {
            State::F32 { h, ring } => vec![h.capacity(), ring.capacity()],
            State::Int8 { h, hq, ring, ringq } => {
                vec![
                    h.capacity(),
                    hq.capacity(),
                    ring.capacity(),
                    ringq.capacity(),
                ]
            }
        }
    }

    /// What slot `s` reads back, as bits: its hidden vector, then its
    /// ring rows.
    fn bits(a: &ResidentArena, s: usize) -> Vec<u32> {
        let mut out = vec![0.0; a.hidden];
        a.read_hidden(s, &mut out);
        let mut row = [0.0; PROFILE_LEN];
        for t in 0..a.ring_rows {
            a.read_profile(s, t, &mut row);
            out.extend_from_slice(&row);
        }
        out.iter().map(|x| x.to_bits()).collect()
    }

    /// Driven as the stream scorer drives it — one `push_slot` per slot
    /// the flow table appends, both clamped to one size — every array adds
    /// its chunk at the push a one-wide container (the slab's shape) adds
    /// its own, and across growth through four chunks a slot's rows keep
    /// their address and read back the same bits, at both precisions.
    #[test]
    fn slot_rows_keep_their_address_and_bits_as_the_arena_grows() {
        let (hidden, stack, max_slots) = (32, 3, 1 << 20);
        for mode in [ResidentMode::F32, ResidentMode::Int8] {
            let mut arena = ResidentArena::new(mode, hidden, stack, max_slots);
            let mut slab = Chunked::<u8>::new(1, max_slots);
            let mut codes = Vec::new();
            let mut pinned = Vec::new();
            for s in 0..4 * CHUNK + 1 {
                let before = slab.capacity();
                slab.push(0);
                arena.push_slot();
                assert!(capacities(&arena).iter().all(|&c| c == slab.capacity()));
                let row = |t: usize| -> Vec<f32> {
                    (0..PROFILE_LEN)
                        .map(|i| ((s * 7 + t * 3 + i) as f32 * 0.37).sin())
                        .collect()
                };
                arena.store_hidden(s, &row(stack)[..hidden], &mut codes);
                for t in 0..stack - 1 {
                    arena.store_profile(s, t, &row(t), &mut codes);
                }
                if s + 1 == CHUNK {
                    pinned = (0..CHUNK)
                        .map(|s| (s, addresses(&arena, s), bits(&arena, s)))
                        .collect();
                } else if s >= CHUNK {
                    pinned.push((s, addresses(&arena, s), bits(&arena, s)));
                }
                if slab.capacity() != before {
                    for (s, at, held) in &pinned {
                        assert_eq!(addresses(&arena, *s), *at, "{mode:?}: slot {s} moved");
                        assert_eq!(bits(&arena, *s), *held, "{mode:?}: slot {s} changed");
                    }
                }
            }
        }
    }
}
