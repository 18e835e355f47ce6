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
//! **Ring rows.** A profile is 115 values, and 33 of them are the one-bit
//! indicators of [`INDICATOR_MASK`]. A ring row stores the other 82 — the
//! 18 numeric packet features and the 64 gate activations — densely, and
//! after them, in the same row, one `u64` holding the 33 indicator bits:
//! 336 B a row at f32. Packing and expanding a row is straight-line code:
//! one move per numeric feature from a constant slot table (`NUMERIC`),
//! the gates as one fixed-length block, and the indicators by a walk of
//! the constant mask that unrolls. Reading a row expands it back, bitwise
//! the profile that was stored, so every window the autoencoder sees is
//! the one the scorer built. A flow shorter than the stack is looked up in
//! the scorer's padded-window memo by its rows as stored
//! ([`ResidentArena::pad_key`]): only a miss expands them.
//!
//! [`ResidentMode::Int8`] stores the hidden vector and each ring row in
//! the 7-bit activation format of `neural::quant` (codes plus one
//! `(scale, min)` pair per row, the whole 115-wide row quantized as one),
//! dequantized on read and requantized on store. A ring row then keeps
//! the 82 dense codes, and its word holds, above the indicator bits, the
//! two codes the row's `0.0` and `1.0` quantized to: 98 B a row with its
//! pair, at the price of one round trip through the grid per packet.

use crate::chunked::Chunked;
use crate::features::{INDICATOR_MASK, NUM_INDICATORS, NUM_PACKET};
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
    /// 7-bit quantized resident state (~3× smaller). Scores drift within
    /// the calibrated resident-quantization bound.
    Int8,
}

/// Per-flow neural state: slot `s` owns `hidden` elements of the
/// hidden-state arrays and `stack − 1` rows of the profile ring.
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
        ring: Ring<f32>,
    },
    Int8 {
        h: Chunked<u8>,
        hq: Chunked<ActQuant>,
        ring: Ring<u8>,
        ringq: Chunked<ActQuant>,
    },
}

/// Quant pair of an all-zero row (`scale` 0 dequantizes every code to
/// `min` = 0), the state of a fresh flow's hidden vector.
const ZERO_Q: ActQuant = ActQuant {
    scale: 0.0,
    min: 0.0,
};

/// Values a ring row keeps densely: every profile slot but the
/// indicators.
const DENSE_LEN: usize = PROFILE_LEN - NUM_INDICATORS;

/// Whether profile slot `s` is one of the [`INDICATOR_MASK`] bits.
const fn is_indicator(s: usize) -> bool {
    s < NUM_PACKET && INDICATOR_MASK >> s & 1 == 1
}

/// Packet features a ring row keeps densely: all but the indicators.
const NUMERIC_LEN: usize = NUM_PACKET - NUM_INDICATORS;

/// The numeric packet-feature slots in lane order: lane `i < NUMERIC_LEN`
/// of a ring row's dense values is profile slot `NUMERIC[i]`, and the
/// gate activations (slots from [`NUM_PACKET`] on, never indicators)
/// follow as they are.
const NUMERIC: [usize; NUMERIC_LEN] = {
    let mut out = [0; NUMERIC_LEN];
    let (mut s, mut i) = (0, 0);
    while s < NUM_PACKET {
        if !is_indicator(s) {
            out[i] = s;
            i += 1;
        }
        s += 1;
    }
    out
};

/// Runs `f(b, s)` for each indicator in bit order: bit `b` of a row's
/// word is profile slot `s`, the `b`-th set bit of [`INDICATOR_MASK`]. The
/// walk of a constant mask unrolls into straight-line code.
#[inline(always)]
fn for_each_indicator(mut f: impl FnMut(usize, usize)) {
    let (mut mask, mut b) = (INDICATOR_MASK, 0);
    while mask != 0 {
        f(b, mask.trailing_zeros() as usize);
        (mask, b) = (mask & (mask - 1), b + 1);
    }
}

/// Where an int8 row's word keeps the codes its `0.0` and `1.0`
/// quantized to, one byte each above the indicator bits.
const UNLIT_CODE: u32 = NUM_INDICATORS as u32;
const LIT_CODE: u32 = UNLIT_CODE + 8;

/// Copies the dense slots of the profile-wide `full` into `dense`: the
/// numeric features one constant slot at a time, then the gates as one
/// fixed-length block — straight-line code once inlined.
#[inline(always)]
fn gather<T: Copy>(full: &[T; PROFILE_LEN], dense: &mut [T; DENSE_LEN]) {
    let (numeric, gates) = dense.split_at_mut(NUMERIC_LEN);
    for (d, &s) in numeric.iter_mut().zip(&NUMERIC) {
        *d = full[s];
    }
    gates.copy_from_slice(&full[NUM_PACKET..]);
}

/// The indicator bits of a profile, which must hold exactly `0.0` or
/// `1.0` in every indicator slot.
fn indicator_bits(profile: &[f32]) -> u64 {
    let mut word = 0;
    for_each_indicator(|b, s| {
        let v = profile[s];
        debug_assert!(
            v.to_bits() == 0 || v.to_bits() == 1f32.to_bits(),
            "profile slot {s} is an indicator but holds {v:?}"
        );
        word |= u64::from(v == 1.0) << b;
    });
    word
}

/// The word of an int8 row: the profile's indicator bits, and the codes
/// its unlit and lit indicators quantized to (`codes` is the whole row's).
fn int8_word(profile: &[f32], codes: &[u8]) -> u64 {
    let bits = indicator_bits(profile);
    let mut by_bit = [0u8; 2];
    for_each_indicator(|b, s| by_bit[(bits >> b & 1) as usize] = codes[s]);
    bits | u64::from(by_bit[0]) << UNLIT_CODE | u64::from(by_bit[1]) << LIT_CODE
}

/// Expands a packed row into the profile-wide `full`: the dense values to
/// their slots, and indicator `b` as `lit[1]` when bit `b` of `word` is
/// set, else `lit[0]`.
#[inline(always)]
fn scatter<T: Copy>(dense: &[T; DENSE_LEN], word: u64, lit: [T; 2], full: &mut [T; PROFILE_LEN]) {
    let (numeric, gates) = dense.split_at(NUMERIC_LEN);
    for (&d, &s) in numeric.iter().zip(&NUMERIC) {
        full[s] = d;
    }
    full[NUM_PACKET..].copy_from_slice(gates);
    for_each_indicator(|b, s| full[s] = lit[(word >> b & 1) as usize]);
}

/// The codes an int8 row's word says its unlit and lit indicators hold.
fn lit_codes(word: u64) -> [u8; 2] {
    [(word >> UNLIT_CODE) as u8, (word >> LIT_CODE) as u8]
}

/// Lanes an int8 ring row takes in a [`ResidentArena::pad_key`]: its
/// codes and word four to a lane, then its `(scale, min)` pair.
const INT8_KEY_ROW: usize = Ring::<u8>::ROW.div_ceil(4) + 2;

/// What a ring row is made of: f32 values, or int8 codes.
trait Lane: Copy {
    /// Lanes a row's word takes, after its dense values.
    const WORD_LANES: usize;
    fn store_word(word: u64, lanes: &mut [Self]);
    fn load_word(lanes: &[Self]) -> u64;
}

/// The word's halves as two f32 bit patterns: a copy keeps every bit,
/// NaN patterns included, as it does for the dense values.
impl Lane for f32 {
    const WORD_LANES: usize = 2;

    fn store_word(word: u64, lanes: &mut [f32]) {
        lanes[0] = f32::from_bits(word as u32);
        lanes[1] = f32::from_bits((word >> 32) as u32);
    }

    fn load_word(lanes: &[f32]) -> u64 {
        u64::from(lanes[0].to_bits()) | u64::from(lanes[1].to_bits()) << 32
    }
}

impl Lane for u8 {
    const WORD_LANES: usize = 8;

    fn store_word(word: u64, lanes: &mut [u8]) {
        lanes.copy_from_slice(&word.to_le_bytes());
    }

    fn load_word(lanes: &[u8]) -> u64 {
        u64::from_le_bytes(lanes.try_into().expect("a word is 8 code lanes"))
    }
}

/// Each slot's `stack − 1` packed profile rows, one after another: per
/// row, the dense values and then the word, in lanes of `T` — one array,
/// so a row's word shares its cache lines.
#[derive(Debug)]
struct Ring<T> {
    rows: Chunked<T>,
}

impl<T: Lane> Ring<T> {
    /// Lanes of one packed row.
    const ROW: usize = DENSE_LEN + T::WORD_LANES;

    fn new(rows: usize, max_slots: usize) -> Ring<T> {
        Ring {
            rows: Chunked::new(rows * Self::ROW, max_slots),
        }
    }

    fn push(&mut self, zero: T) {
        self.rows.push(zero);
    }

    /// The dense values and the word of the slot's row `r`.
    fn row(&self, slot: usize, r: usize) -> (&[T; DENSE_LEN], u64) {
        let row = &self.rows.row(slot)[r * Self::ROW..(r + 1) * Self::ROW];
        let (dense, word) = row.split_at(DENSE_LEN);
        (
            dense.try_into().expect("a row's dense lanes"),
            T::load_word(word),
        )
    }

    /// Stores the dense slots of `full` and `word` as the slot's row `r`.
    fn store(&mut self, slot: usize, r: usize, full: &[T], word: u64) {
        let row = &mut self.rows.row_mut(slot)[r * Self::ROW..(r + 1) * Self::ROW];
        let (dense, lanes) = row.split_at_mut(DENSE_LEN);
        let full = full.try_into().expect("a profile-wide row");
        gather(full, dense.try_into().expect("a row's dense lanes"));
        T::store_word(word, lanes);
    }

    /// The slot's first `n` packed rows, as stored.
    fn packed(&self, slot: usize, n: usize) -> &[T] {
        &self.rows.row(slot)[..n * Self::ROW]
    }

    fn clear(&mut self) {
        self.rows.clear();
    }

    fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes()
    }
}

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
        ResidentArena {
            hidden,
            ring_rows,
            state: match mode {
                ResidentMode::F32 => State::F32 {
                    h: Chunked::new(hidden, max_slots),
                    ring: Ring::new(ring_rows, max_slots),
                },
                ResidentMode::Int8 => State::Int8 {
                    h: Chunked::new(hidden, max_slots),
                    hq: Chunked::new(1, max_slots),
                    ring: Ring::new(ring_rows, max_slots),
                    ringq: Chunked::new(ring_rows, max_slots),
                },
            },
        }
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

    /// Expands (f32) or expands and dequantizes (int8) the profile of the
    /// slot's packet `t` — one of its last `stack − 1` — into `out`.
    pub(crate) fn read_profile(&self, slot: usize, t: usize, out: &mut [f32]) {
        let r = t % self.ring_rows;
        match &self.state {
            State::F32 { ring, .. } => {
                let (dense, word) = ring.row(slot, r);
                let out = out.try_into().expect("a profile-wide row");
                scatter(dense, word, [0.0, 1.0], out);
            }
            State::Int8 { ring, ringq, .. } => {
                let (dense, word) = ring.row(slot, r);
                let mut codes = [0; PROFILE_LEN];
                scatter(dense, word, lit_codes(word), &mut codes);
                dequantize_activations_into(&codes, ringq.row(slot)[r], out)
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
        let r = t % self.ring_rows;
        match &mut self.state {
            State::F32 { ring, .. } => ring.store(slot, r, row, indicator_bits(row)),
            State::Int8 { ring, ringq, .. } => {
                ringq.row_mut(slot)[r] = quantize_activations(row, codes);
                ring.store(slot, r, codes, int8_word(row, codes));
            }
        }
    }

    /// Lanes of [`pad_key`](Self::pad_key): `stack − 1` rows' worth.
    pub(crate) fn pad_key_len(&self) -> usize {
        let row = match &self.state {
            State::F32 { .. } => Ring::<f32>::ROW,
            State::Int8 { .. } => INT8_KEY_ROW,
        };
        self.ring_rows * row
    }

    /// Writes into `key` ([`pad_key_len`](Self::pad_key_len) lanes) what
    /// the padded window of a flow that has scored `packets` packets
    /// (`1 ≤ packets ≤ stack − 1`) is a pure function of: the bits of
    /// the slot's first `packets` ring rows as they are stored (at int8,
    /// each row's codes and word four to a lane, then its `(scale, min)`
    /// pair), the last repeated for the rows the flow never wrote, as the
    /// window repeats its last profile. A recycled slot's stale rows never
    /// enter it. At f32 a row is its profile's bits, so two keys are equal
    /// exactly when their windows are; at int8 two rows may decode to one
    /// profile, and their windows then share an error under two keys.
    pub(crate) fn pad_key(&self, slot: usize, packets: usize, key: &mut [f32]) {
        debug_assert!((1..=self.ring_rows).contains(&packets));
        let lanes = key.len() / self.ring_rows;
        let (held, repeated) = key.split_at_mut(lanes * packets);
        match &self.state {
            State::F32 { ring, .. } => held.copy_from_slice(ring.packed(slot, packets)),
            State::Int8 { ring, ringq, .. } => {
                let packed = ring.packed(slot, packets).chunks_exact(Ring::<u8>::ROW);
                let rows = held.chunks_exact_mut(INT8_KEY_ROW).zip(packed);
                for ((lanes, codes), q) in rows.zip(ringq.row(slot)) {
                    let (quads, pair) = lanes.split_at_mut(INT8_KEY_ROW - 2);
                    for (lane, quad) in quads.iter_mut().zip(codes.chunks(4)) {
                        let mut bytes = [0; 4];
                        bytes[..quad.len()].copy_from_slice(quad);
                        *lane = f32::from_bits(u32::from_le_bytes(bytes));
                    }
                    pair.copy_from_slice(&[q.scale, q.min]);
                }
            }
        }
        let last = &held[held.len() - lanes..];
        for row in repeated.chunks_exact_mut(lanes) {
            row.copy_from_slice(last);
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
    use proptest::prelude::*;

    /// Where slot `s` lives: the address of its row in each array.
    fn addresses(a: &ResidentArena, s: usize) -> Vec<usize> {
        fn at<T>(row: &[T]) -> usize {
            row.as_ptr() as usize
        }
        match &a.state {
            State::F32 { h, ring } => vec![at(h.row(s)), at(ring.rows.row(s))],
            State::Int8 { h, hq, ring, ringq } => vec![
                at(h.row(s)),
                at(hq.row(s)),
                at(ring.rows.row(s)),
                at(ringq.row(s)),
            ],
        }
    }

    /// Each array's capacity, in slots.
    fn capacities(a: &ResidentArena) -> Vec<usize> {
        match &a.state {
            State::F32 { h, ring } => vec![h.capacity(), ring.rows.capacity()],
            State::Int8 { h, hq, ring, ringq } => vec![
                h.capacity(),
                hq.capacity(),
                ring.rows.capacity(),
                ringq.capacity(),
            ],
        }
    }

    /// A profile holding `dense` in its dense slots, in slot order, and
    /// lighting indicator `b` when bit `b` of `bits` is set — built from
    /// the mask alone, not from the codec's tables.
    fn profile(dense: &[f32], bits: u64) -> Vec<f32> {
        let (mut dense, mut b) = (dense.iter(), 0);
        let full = (0..PROFILE_LEN)
            .map(|s| {
                if s < NUM_PACKET && INDICATOR_MASK >> s & 1 == 1 {
                    b += 1;
                    (bits >> (b - 1) & 1 == 1) as u8 as f32
                } else {
                    *dense.next().expect("one dense value per dense slot")
                }
            })
            .collect();
        assert!(dense.next().is_none(), "one dense value per dense slot");
        full
    }

    fn to_bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    /// Dense values the codec must carry bit for bit: NaNs with payloads
    /// of either sign, ±0.0, subnormals, ±inf and the extremes, beside
    /// arbitrary bit patterns and ordinary activations.
    fn value() -> impl Strategy<Value = f32> {
        const SPECIAL: [u32; 12] = [
            0x7fc0_0000, // NaN
            0x7fc0_1234, // quiet NaN, payload
            0xffa0_0001, // negative signalling NaN, payload
            0x8000_0000, // −0.0
            0x0000_0000, // +0.0
            0x0000_0001, // smallest subnormal
            0x807f_ffff, // largest negative subnormal
            0x7f80_0000, // +inf
            0xff80_0000, // −inf
            0x7f7f_ffff, // f32::MAX
            0xff7f_ffff, // f32::MIN
            0x3f80_0000, // 1.0
        ];
        prop_oneof![
            (0..SPECIAL.len()).prop_map(|i| f32::from_bits(SPECIAL[i])),
            any::<u32>().prop_map(f32::from_bits),
            0.0f32..1.0,
            -3.0f32..3.0,
        ]
    }

    /// A profile's packed row, slot by slot from the mask alone: the
    /// dense lanes of `lanes` (the profile itself, or its codes) in slot
    /// order, then the word — the indicator bits, and above them the
    /// `code` of the last unlit and of the last lit indicator's lane
    /// (`0` where there is none).
    fn reference_row<T: Copy>(
        profile: &[f32],
        lanes: &[T],
        code: impl Fn(T) -> u64,
    ) -> (Vec<T>, u64) {
        let (mut dense, mut word, mut b) = (Vec::new(), 0u64, 0);
        let mut codes = [0u64; 2];
        for (s, (&v, &lane)) in profile.iter().zip(lanes).enumerate() {
            if s < NUM_PACKET && INDICATOR_MASK >> s & 1 == 1 {
                let lit = v == 1.0;
                word |= u64::from(lit) << b;
                codes[usize::from(lit)] = code(lane);
                b += 1;
            } else {
                dense.push(lane);
            }
        }
        (dense, word | codes[0] << 33 | codes[1] << 41)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A profile whose indicators are exactly `0.0` or `1.0` packs
        /// into the ring row a slot-by-slot loop over the mask builds —
        /// its dense values (f32) or dense codes (int8) in slot order,
        /// then the word — and expands back bitwise: to the profile at
        /// f32, and at int8 to the dequantized codes of the whole
        /// 115-wide row.
        #[test]
        fn a_ring_row_expands_to_the_profile_it_packed(
            dense in prop::collection::vec(value(), DENSE_LEN),
            bits in prop_oneof![any::<u64>(), Just(0u64), Just(u64::MAX)],
            t in 0usize..6,
        ) {
            let row = profile(&dense, bits);
            let (mut codes, mut out) = (Vec::new(), vec![0.0; PROFILE_LEN]);
            for mode in [ResidentMode::F32, ResidentMode::Int8] {
                let mut arena = ResidentArena::new(mode, 4, 3, 2);
                arena.push_slot();
                arena.push_slot();
                arena.store_profile(1, t, &row, &mut codes);
                arena.read_profile(1, t, &mut out);
                let want = match &arena.state {
                    State::F32 { ring, .. } => {
                        let (dense, word) = ring.row(1, t % 2);
                        let (want_dense, want_word) = reference_row(&row, &row, |_| 0);
                        prop_assert_eq!(to_bits(dense), to_bits(&want_dense));
                        prop_assert_eq!(word, want_word);
                        row.clone()
                    }
                    State::Int8 { ring, .. } => {
                        let q = quantize_activations(&row, &mut codes);
                        let (dense, word) = ring.row(1, t % 2);
                        let want_row = reference_row(&row, &codes, u64::from);
                        prop_assert_eq!((dense.to_vec(), word), want_row);
                        let mut want = vec![0.0; PROFILE_LEN];
                        dequantize_activations_into(&codes, q, &mut want);
                        want
                    }
                };
                prop_assert_eq!(to_bits(&out), to_bits(&want), "{:?}", mode);
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
                    let dense: Vec<f32> = (0..DENSE_LEN)
                        .map(|i| ((s * 7 + t * 3 + i) as f32 * 0.37).sin())
                        .collect();
                    profile(
                        &dense,
                        ((s * 7 + t * 3) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    )
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
