//! The per-packet scoring core — CLAP's testing phase (paper Fig. 3) for
//! one packet of one flow: packet features ‖ GRU gates → context profile
//! → stacked window → autoencoder reconstruction error.
//!
//! This is the only inference path in the crate. [`StreamScorer`] calls
//! [`Scorer::advance`] per packet on a flow-table slot; [`ClapScorer`]
//! loops it over a connection on a one-slot arena — which is why online
//! and offline scores agree bitwise. A flow shorter than the window
//! stack is scored when it closes on one padded window
//! ([`Scorer::pad_error`]), through the same 1-row autoencoder pass.
//!
//! Padded windows are also memoised. A short flow's features are
//! relative to its own anchors and name no address, port or ISN, and its
//! GRU starts from `h = 0`, so the short flows one template sends — a
//! scan's probes, a SYN flood, backscatter — pad to the same window bit
//! for bit. Each scorer keeps a small set-associative [`BitsMemo`] from
//! what a padded window is a pure function of — the exact bits of the
//! flow's packed ring rows as the arena stores them, the last repeated as
//! the window repeats it ([`ResidentArena::pad_key`]) — to the window's
//! error: a hit reads no profile back, and only the windows it misses are
//! expanded and reach the autoencoder. For the same reason a flow's *prefix* steps — the GRU
//! steps of its first `stack − 1` packets, the ones a padded window holds
//! — repeat bit for bit across a template's flows: a first step starts
//! from `h = 0`, a second from the `h₁` the first left.
//! A second memo of the same type maps a prefix step's input and hidden
//! state to the `h′ ‖ z ‖ r` it computes. Later steps and sliding windows
//! are not memoised: they carry a flow's history and practically never
//! repeat, so a long flow pays at most `stack − 1` step probes and cannot
//! evict a template's entries.
//!
//! [`StreamScorer`]: crate::StreamScorer
//! [`ClapScorer`]: crate::ClapScorer

use crate::features::{Anchors, FeatureVector, NUM_PACKET};
use crate::pipeline::Clap;
use crate::profile::{ProfileBuilder, PROFILE_LEN};
use crate::resident::ResidentArena;
use crate::score::{score_errors, ScoredConnection};
use clap_telemetry::hist::{LapClock, Stage};
use net_packet::{Checksums, Direction, Packet};
use neural::{AeEngine, AeWorkspace, GruEngine, GruStepScratch, Matrix};

/// One flow's scoring state, borrowed for a call from wherever it lives: a
/// flow-table slot and its arena rows, or a [`ClapScorer`]'s locals.
///
/// [`ClapScorer`]: crate::ClapScorer
pub(crate) struct Flow<'s> {
    /// Feature anchors (ISNs, previous timestamps).
    pub(crate) anchors: &'s mut Anchors,
    /// The byte that holds the anchors' presence bits.
    pub(crate) present: &'s mut u8,
    /// Packets scored so far.
    pub(crate) packets: &'s mut u32,
    /// Holds the flow's hidden vector and profile ring, at `slot`.
    pub(crate) resident: &'s mut ResidentArena,
    pub(crate) slot: usize,
}

/// The engines (f32 or int8) and every flow-independent scratch buffer
/// the core threads through; scoring through it allocates nothing once
/// the buffers have been through one packet.
pub(crate) struct Scorer<'a> {
    pub(crate) clap: &'a Clap,
    pub(crate) builder: ProfileBuilder,
    pub(crate) gru: GruEngine,
    ae: AeEngine<'a>,
    gru_scratch: GruStepScratch,
    /// The autoencoder's scratch, for packets' windows and padded ones.
    ae_ws: AeWorkspace,
    /// The current packet's GRU input (`base`), among its other features.
    fv: FeatureVector,
    /// 1×stacked_len window the current packet completed, or the padded
    /// window [`pad_error`](Self::pad_error) scores.
    window: Matrix,
    err_scratch: Vec<f32>,
    /// Padded-window errors by the exact bits of the flow's packed ring
    /// rows ([`ResidentArena::pad_key`]).
    pads: BitsMemo,
    /// The current padded window's key for `pads`.
    pad_key: Vec<f32>,
    /// Prefix steps' `h′ ‖ z ‖ r` by the exact bits of their GRU input
    /// and the hidden state they start from.
    steps: BitsMemo,
    /// The current prefix step's key for `steps`: input ‖ hidden state.
    step_key: Vec<f32>,
    /// Padded windows scored, and how many of them `pads` answered.
    pub(crate) pad_counts: MemoCounts,
    /// Prefix steps taken, and how many of them `steps` answered.
    pub(crate) step_counts: MemoCounts,
    /// The current packet's profile row (features ‖ z ‖ r), built here
    /// and copied into the flow's ring after the window uses it.
    row: Vec<f32>,
    /// Dequantized hidden state staging for int8 resident state.
    h_scratch: Vec<f32>,
    /// Activation-code staging for int8 resident stores.
    code_scratch: Vec<u8>,
}

impl<'a> Scorer<'a> {
    /// A scorer for flows held in arenas whose padded-window keys are
    /// `pad_key_len` lanes ([`ResidentArena::pad_key_len`]).
    pub(crate) fn new(
        clap: &'a Clap,
        gru: GruEngine,
        ae: AeEngine<'a>,
        pad_key_len: usize,
    ) -> Scorer<'a> {
        let (input, hidden) = (gru.input_size(), gru.hidden_size());
        Scorer {
            clap,
            builder: ProfileBuilder::new(clap.config.stack),
            gru,
            ae,
            gru_scratch: GruStepScratch::new(),
            ae_ws: AeWorkspace::new(),
            fv: FeatureVector {
                base: Vec::new(),
                raw: Vec::new(),
                equiv_ok: false,
            },
            window: Matrix::zeros(1, clap.config.stack * PROFILE_LEN),
            err_scratch: Vec::new(),
            pads: BitsMemo::new(pad_key_len, 1),
            pad_key: vec![0.0; pad_key_len],
            steps: BitsMemo::new(input + hidden, 3 * hidden),
            step_key: Vec::new(),
            pad_counts: MemoCounts::default(),
            step_counts: MemoCounts::default(),
            row: vec![0.0; PROFILE_LEN],
            h_scratch: Vec::new(),
            code_scratch: Vec::new(),
        }
    }

    /// Advances `flow` by packet `p`, travelling in direction `dir` with
    /// checksum verdicts `sums`, and returns the reconstruction error of
    /// the window `p` completes, if any. Incremental feature extraction
    /// leaves the GRU input in `fv.base` and the packet features at the
    /// front of `row`; one resumable GRU step on the flow's resident
    /// hidden state fills the row's gates. A prefix step (`t + 1 < stack`) the step memo holds is
    /// answered from it — `h′` into the hidden state, `z`/`r` into the row;
    /// a missed one runs and is memoised. Once the flow has a full stack of
    /// profiles — the previous `stack − 1` from its ring, this packet's
    /// from `row` — the window is scored in one 1-row autoencoder pass, and
    /// the row is stored in the ring. `clock`, when sampling, laps each
    /// stage.
    pub(crate) fn advance(
        &mut self,
        flow: Flow<'_>,
        p: &Packet,
        dir: Direction,
        sums: Checksums,
        clock: &mut Option<LapClock<'_>>,
    ) -> Option<f32> {
        let Flow {
            anchors,
            present,
            packets,
            resident,
            slot,
        } = flow;
        anchors.push_into(present, p, dir, sums, &mut self.fv);
        let t = *packets as usize;
        *packets += 1;
        self.clap
            .ranges
            .write_packet_features(&self.fv, &mut self.row[..NUM_PACKET]);
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::Extract);
        }

        let hidden = self.gru.hidden_size();
        let (z, r) = self.row[NUM_PACKET..].split_at_mut(hidden);
        let (gru, x, gru_scratch) = (&self.gru, &self.fv.base, &mut self.gru_scratch);
        let complete = t + 1 >= self.builder.stack;
        let (steps, key, counts) = (&mut self.steps, &mut self.step_key, &mut self.step_counts);
        resident.step_hidden(slot, &mut self.h_scratch, &mut self.code_scratch, |h| {
            if complete {
                return gru.step(x, h, gru_scratch, z, r);
            }
            key.clear();
            key.extend_from_slice(x);
            key.extend_from_slice(h);
            let hash = bits_hash(key);
            let memoised = steps.get(hash, key);
            counts.add(memoised.is_some());
            if let Some(v) = memoised {
                h.copy_from_slice(&v[..hidden]);
                z.copy_from_slice(&v[hidden..2 * hidden]);
                r.copy_from_slice(&v[2 * hidden..]);
            } else {
                gru.step(x, h, gru_scratch, z, r);
                steps.insert(hash, key, &[h, z, r]);
            }
        });
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::Gru);
        }
        // The ring must still be "as of packet `t − 1`" here.
        if complete {
            resident.read_window(slot, t, &self.row, self.window.row_mut(0));
        }
        resident.store_profile(slot, t, &self.row, &mut self.code_scratch);
        if !complete {
            return None;
        }
        self.err_scratch.clear();
        self.ae
            .reconstruction_errors_into(&self.window, &mut self.ae_ws, &mut self.err_scratch);
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::AeWindow);
        }
        Some(self.err_scratch[0])
    }

    /// The padded-window error of the flow at `slot`, which has scored
    /// `packets` packets: the error of its profiles, the last repeated
    /// until the window is full. The memo is asked by the flow's packed
    /// ring rows, the last repeated likewise, which the window is a pure
    /// function of; only a miss expands the profiles into `window`, runs the 1-row
    /// autoencoder pass a packet's window runs and memoises the error.
    /// `None` for an empty flow and for one that has had its windows.
    pub(crate) fn pad_error(
        &mut self,
        resident: &ResidentArena,
        slot: usize,
        packets: usize,
    ) -> Option<f32> {
        if packets == 0 || packets >= self.builder.stack {
            return None;
        }
        // Packets 0..packets all still sit in the `stack − 1`-row ring.
        resident.pad_key(slot, packets, &mut self.pad_key);
        let hash = bits_hash(&self.pad_key);
        let memoised = self.pads.get(hash, &self.pad_key).map(|v| v[0]);
        self.pad_counts.add(memoised.is_some());
        if memoised.is_some() {
            return memoised;
        }
        let window = self.window.row_mut(0);
        for (j, profile) in window.chunks_exact_mut(PROFILE_LEN).enumerate() {
            resident.read_profile(slot, j.min(packets - 1), profile);
        }
        self.err_scratch.clear();
        self.ae
            .reconstruction_errors_into(&self.window, &mut self.ae_ws, &mut self.err_scratch);
        let err = self.err_scratch[0];
        self.pads.insert(hash, &self.pad_key, &[&[err]]);
        Some(err)
    }

    /// How many windows a flow of `packets` packets has emitted: one per
    /// packet from its `stack`-th on (a padded window is not one of them).
    pub(crate) fn windows(&self, packets: u32) -> usize {
        (packets as usize + 1).saturating_sub(self.builder.stack)
    }

    /// Summarizes a finished flow's window errors into its verdict.
    pub(crate) fn verdict(&self, window_errors: Vec<f32>, packets: usize) -> ScoredConnection {
        let (peak_window, score) = score_errors(&window_errors, self.clap.config.score_window);
        ScoredConnection {
            peak_packet: self.builder.window_center(peak_window, packets),
            peak_window,
            window_errors,
            score,
        }
    }
}

/// One memo's lookups: how many a scorer made and how many the memo
/// answered — see [`StreamScorer::pad_windows`] and
/// [`StreamScorer::prefix_steps`].
///
/// [`StreamScorer::pad_windows`]: crate::StreamScorer::pad_windows
/// [`StreamScorer::prefix_steps`]: crate::StreamScorer::prefix_steps
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Lookups: padded windows scored, or prefix steps taken.
    pub scored: u64,
    /// Of those, the ones the memo answered: no autoencoder pass, or no
    /// GRU step.
    pub memo_hits: u64,
}

impl MemoCounts {
    fn add(&mut self, hit: bool) {
        self.scored += 1;
        self.memo_hits += u64::from(hit);
    }
}

/// log₂ of the memo's sets.
const MEMO_SET_BITS: u32 = 4;
const MEMO_SETS: usize = 1 << MEMO_SET_BITS;
/// Entries per set.
const MEMO_WAYS: usize = 4;
/// The memo's capacity: 64 entries.
const MEMO_ENTRIES: usize = MEMO_SETS * MEMO_WAYS;
/// The tag of an empty way; [`bits_hash`] never returns it.
const EMPTY: u64 = 0;

/// A `val_len`-value result by the exact bits of the `key_len` values it
/// is a pure function of: [`MEMO_SETS`] sets of [`MEMO_WAYS`] ways,
/// replaced round-robin within a set. Keys are compared by
/// [`f32::to_bits`] — `+0.0` and `−0.0` differ, NaN payloads compare
/// exactly — and the tag is the key's [`bits_hash`]. A scorer keeps
/// two: a short flow's packed ring rows ([`ResidentArena::pad_key`]) →
/// its padded window's error, and prefix GRU steps' input ‖ hidden state
/// → `h′ ‖ z ‖ r`.
///
/// The hash is unkeyed, so an attacker can craft keys that share a set or
/// a tag. That costs a miss, never a wrong result: every tag match is
/// confirmed against the whole key, a probe is at most `MEMO_WAYS`
/// compares, and a miss computes as an unmemoised scorer would — at worst
/// that price plus one key built and hashed and one entry's copy. An
/// entry is published tag-last (its tag is cleared before its key and
/// value are written), so a write cut short — a panic the sharded
/// engine's worker survives — leaves no entry that can match.
///
/// The entries are allocated at the first insert: at the paper's stack
/// of 3, ≈ 43 KiB for pad keys of two 84-lane f32 rows (≈ 13 KiB for
/// two 25-lane int8 rows: 23 lanes of codes and word, and the `(scale,
/// min)` pair), and ≈ 40 KiB for its 32 + 32 → 96-value
/// steps. A memo is a fixed cost per scorer, like the packed weights and
/// the autoencoder workspace, not a cost per flow, so
/// [`StreamScorer::mem_bytes`] leaves it out; and it is never cleared,
/// because its values are pure functions of their keys' bits.
///
/// [`StreamScorer::mem_bytes`]: crate::StreamScorer::mem_bytes
#[derive(Debug)]
pub(crate) struct BitsMemo {
    key_len: usize,
    val_len: usize,
    /// Way `e`'s tag, or [`EMPTY`]; empty until the first insert.
    tags: Vec<u64>,
    /// Way `e`'s key ‖ value, at `e · (key_len + val_len)`; empty until
    /// the first insert.
    entries: Vec<f32>,
    /// Per set: the way its next insert replaces.
    next: [u8; MEMO_SETS],
}

impl BitsMemo {
    pub(crate) fn new(key_len: usize, val_len: usize) -> BitsMemo {
        BitsMemo {
            key_len,
            val_len,
            tags: Vec::new(),
            entries: Vec::new(),
            next: [0; MEMO_SETS],
        }
    }

    /// The first way of `hash`'s set: its top [`MEMO_SET_BITS`] bits.
    fn set_start(hash: u64) -> usize {
        (hash >> (u64::BITS - MEMO_SET_BITS)) as usize * MEMO_WAYS
    }

    /// Way `e`'s key and value.
    fn entry(&self, e: usize) -> (&[f32], &[f32]) {
        let stride = self.key_len + self.val_len;
        self.entries[e * stride..(e + 1) * stride].split_at(self.key_len)
    }

    /// The value memoised for `key`, whose hash is `hash`.
    pub(crate) fn get(&self, hash: u64, key: &[f32]) -> Option<&[f32]> {
        if self.tags.is_empty() {
            return None;
        }
        let start = Self::set_start(hash);
        (start..start + MEMO_WAYS)
            .find(|&e| self.tags[e] == hash && same_bits(self.entry(e).0, key))
            .map(|e| self.entry(e).1)
    }

    /// Memoises the value `parts` concatenate for `key`, whose hash is
    /// `hash`, in the way its set replaces next — unless `key` is already
    /// there.
    pub(crate) fn insert(&mut self, hash: u64, key: &[f32], parts: &[&[f32]]) {
        let val_len: usize = parts.iter().map(|p| p.len()).sum();
        assert!(hash != EMPTY && key.len() == self.key_len && val_len == self.val_len);
        if self.get(hash, key).is_some() {
            return;
        }
        let stride = self.key_len + self.val_len;
        if self.tags.is_empty() {
            self.tags = vec![EMPTY; MEMO_ENTRIES];
            self.entries = vec![0.0; MEMO_ENTRIES * stride];
        }
        let set = Self::set_start(hash) / MEMO_WAYS;
        let e = set * MEMO_WAYS + usize::from(self.next[set]);
        self.next[set] = ((usize::from(self.next[set]) + 1) % MEMO_WAYS) as u8;
        self.tags[e] = EMPTY;
        let (k, mut val) = self.entries[e * stride..(e + 1) * stride].split_at_mut(self.key_len);
        k.copy_from_slice(key);
        for part in parts {
            let (head, rest) = val.split_at_mut(part.len());
            head.copy_from_slice(part);
            val = rest;
        }
        self.tags[e] = hash;
    }
}

/// An unkeyed word-fold of a memo key's bits — a short flow's pad key,
/// or a prefix step's input ‖ hidden state: four independent lanes fold
/// two words at a time (xor, multiply, rotate), then fold into one word
/// and avalanche. Never [`EMPTY`].
pub(crate) fn bits_hash(key: &[f32]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(31);
    let mut lanes = [0u64; 4];
    let mut chunks = key.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, pair) in lanes.iter_mut().zip(chunk.chunks_exact(2)) {
            let word = u64::from(pair[0].to_bits()) | (u64::from(pair[1].to_bits()) << 32);
            *lane = fold(*lane, word);
        }
    }
    let h = lanes.into_iter().fold(key.len() as u64, fold);
    let h = chunks
        .remainder()
        .iter()
        .fold(h, |h, v| fold(h, u64::from(v.to_bits())));
    let h = (h ^ (h >> 29)).wrapping_mul(K);
    (h ^ (h >> 32)).max(1)
}

/// Whether `a` and `b` hold the same bits, value for value.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .fold(0, |d, (x, y)| d | (x.to_bits() ^ y.to_bits()))
            == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{FeatureExtractor, NUM_BASE};
    use crate::pipeline::ClapConfig;
    use crate::resident::ResidentMode;
    use net_packet::{Connection, IpHeader};
    use neural::QuantMode;
    use std::sync::OnceLock;

    fn model() -> &'static Clap {
        static MODEL: OnceLock<Clap> = OnceLock::new();
        MODEL.get_or_init(|| {
            let benign = traffic_gen::dataset(95, 20);
            let mut cfg = ClapConfig::ci();
            cfg.ae.epochs = 8;
            Clap::train(&benign, &cfg).0
        })
    }

    /// Every precision a scorer runs at: weights × resident state.
    const PRECISIONS: [(QuantMode, ResidentMode); 4] = [
        (QuantMode::Off, ResidentMode::F32),
        (QuantMode::Off, ResidentMode::Int8),
        (QuantMode::Int8, ResidentMode::F32),
        (QuantMode::Int8, ResidentMode::Int8),
    ];

    /// A scorer at `quant` weights for flows resident as `mode`, and an
    /// empty arena of `slots` slots for them.
    fn scorer(
        clap: &Clap,
        quant: QuantMode,
        mode: ResidentMode,
        slots: usize,
    ) -> (Scorer<'_>, ResidentArena) {
        let gru = GruEngine::from_packed(clap.rnn.packed(), quant);
        let resident = ResidentArena::new(mode, gru.hidden_size(), clap.config.stack, slots);
        let ae = AeEngine::from_model(&clap.ae, quant);
        (Scorer::new(clap, gru, ae, resident.pad_key_len()), resident)
    }

    /// A short flow held in an arena: its slot and packet count, the
    /// padded window its ring rows expand to, and its pad key.
    struct Short {
        slot: usize,
        packets: usize,
        window: Vec<f32>,
        key: Vec<f32>,
    }

    /// The short flow at `slot` of `packets` packets, read back.
    fn short(resident: &ResidentArena, stack: usize, slot: usize, packets: usize) -> Short {
        let mut window = vec![0.0; stack * PROFILE_LEN];
        for (j, profile) in window.chunks_exact_mut(PROFILE_LEN).enumerate() {
            resident.read_profile(slot, j.min(packets - 1), profile);
        }
        let mut key = vec![0.0; resident.pad_key_len()];
        resident.pad_key(slot, packets, &mut key);
        Short {
            slot,
            packets,
            window,
            key,
        }
    }

    /// Short flows — the first one or two packets of benign connections —
    /// scored at `quant` weights into slots of their own, resident as
    /// `mode`, keeping those whose pad keys differ.
    fn short_flows(
        clap: &Clap,
        quant: QuantMode,
        mode: ResidentMode,
    ) -> (Scorer<'_>, ResidentArena, Vec<Short>) {
        let stack = clap.config.stack;
        let conns = traffic_gen::dataset(96, 12);
        let (mut scorer, mut resident) = scorer(clap, quant, mode, 64);
        let mut flows: Vec<Short> = Vec::new();
        for (slot, (conn, take)) in conns.iter().flat_map(|c| [(c, 1), (c, 2)]).enumerate() {
            resident.push_slot();
            let (mut extractor, mut packets) = (FeatureExtractor::new(), 0u32);
            for (i, p) in conn.packets[..take].iter().enumerate() {
                let flow = Flow {
                    anchors: &mut extractor.anchors,
                    present: &mut extractor.present,
                    packets: &mut packets,
                    resident: &mut resident,
                    slot,
                };
                let (dir, sums) = (conn.direction(i), p.checksums());
                assert_eq!(scorer.advance(flow, p, dir, sums, &mut None), None);
            }
            let flow = short(&resident, stack, slot, take);
            if flows.iter().all(|f| !same_bits(&f.key, &flow.key)) {
                flows.push(flow);
            }
        }
        assert!(flows.len() >= 8, "only {} distinct pad keys", flows.len());
        (scorer, resident, flows)
    }

    /// The error of `window` scored alone, in a 1-row pass of its own.
    fn alone(scorer: &Scorer<'_>, window: &[f32]) -> u32 {
        let (mut ws, mut err) = (AeWorkspace::new(), Vec::new());
        let x = Matrix::from_vec(1, window.len(), window.to_vec());
        scorer.ae.reconstruction_errors_into(&x, &mut ws, &mut err);
        err[0].to_bits()
    }

    /// A tag match is only a candidate: the whole key must match bit for
    /// bit, in both memos' key shapes. The same hash over `+0.0` and
    /// `−0.0` (a pad key's first lane, a step key's first hidden value),
    /// over two NaN payloads (mid-key, a step's input), or over keys one
    /// value apart (the last, so a key that stops short misses it) is a
    /// miss.
    #[test]
    fn memo_same_tag_other_bits_is_a_miss() {
        let pad = ResidentArena::new(ResidentMode::F32, 32, 3, 1).pad_key_len();
        let step = NUM_BASE + 32;
        let nan_a = f32::from_bits(0x7fc0_0001);
        let nan_b = f32::from_bits(0x7fc0_0002);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (len, val_len, zero_at, nan_at) in [(pad, 1, 0, pad / 2), (step, 96, NUM_BASE, 5)] {
            let hash = 0x5a5a_5a5a_5a5a_5a5a;
            let mut memo = BitsMemo::new(len, val_len);
            let key: Vec<f32> = (0..len).map(|i| i as f32 * 0.25).collect();
            let val: Vec<f32> = (0..val_len).map(|i| 7.5 + i as f32).collect();
            let variants = |at: usize, a: f32, b: f32| {
                let (mut x, mut y) = (key.clone(), key.clone());
                (x[at], y[at]) = (a, b);
                (x, y)
            };
            for (x, y) in [
                variants(zero_at, 0.0, -0.0),
                variants(nan_at, nan_a, nan_b),
                variants(len - 1, 1.0, 1.0 + f32::EPSILON),
            ] {
                memo.insert(hash, &x, &[&val]);
                assert_eq!(memo.get(hash, &x).map(bits), Some(bits(&val)));
                assert_eq!(memo.get(hash, &y), None, "a tag-only match");
                assert_eq!(memo.get(hash ^ 1, &x), None, "a key-only match");
            }
            let (x, y) = variants(zero_at, 0.0, -0.0);
            assert_ne!(bits_hash(&x), bits_hash(&y));
        }
    }

    /// Four ways a set: a fifth key in a full set replaces its oldest, the
    /// next the one after; an evicted flow's window scores again to the
    /// same bits and is memoised again, at every precision.
    #[test]
    fn memo_evicts_round_robin_and_recomputes_the_same_bits() {
        for (quant, mode) in PRECISIONS {
            let (mut scorer, resident, flows) = short_flows(model(), quant, mode);
            let Short {
                slot,
                packets,
                ref key,
                ..
            } = flows[0];
            let score = |scorer: &mut Scorer<'_>| {
                let err = scorer.pad_error(&resident, slot, packets);
                err.expect("a short flow").to_bits()
            };
            let first = score(&mut scorer);
            let hash = bits_hash(key);
            let memoised = scorer.pads.get(hash, key).map(|v| v[0].to_bits());
            assert_eq!(memoised, Some(first), "{quant:?} {mode:?}");
            // Keys with their own tags in `key`'s set.
            let set = hash & (u64::MAX << (u64::BITS - MEMO_SET_BITS));
            let others: Vec<(u64, Vec<f32>)> = (1..=5u64)
                .map(|i| (set | i, vec![i as f32; key.len()]))
                .collect();
            for (i, (tag, other)) in others.iter().enumerate() {
                scorer.pads.insert(*tag, other, &[&[i as f32]]);
                let present = |(t, k): &(u64, Vec<f32>)| scorer.pads.get(*t, k).is_some();
                let held: Vec<bool> = others.iter().map(present).collect();
                let key_held = scorer.pads.get(hash, key).is_some();
                match i {
                    0..=2 => assert!(key_held && held[..=i].iter().all(|&h| h)),
                    3 => assert_eq!((key_held, &held[..4]), (false, &[true; 4][..])),
                    _ => assert_eq!(&held, &[false, true, true, true, true]),
                }
            }
            let counts = scorer.pad_counts;
            assert_eq!(score(&mut scorer), first, "recomputed after eviction");
            assert_eq!(scorer.pad_counts.memo_hits, counts.memo_hits, "a miss");
            assert_eq!(score(&mut scorer), first);
            assert_eq!(
                scorer.pad_counts.memo_hits,
                counts.memo_hits + 1,
                "memoised again"
            );
        }
    }

    /// Flows asked for in an interleaved order, hits among misses, at
    /// every precision: each error is bitwise the lone 1-row score of the
    /// window the flow's rows expand to and is memoised under the flow's
    /// key, and the memo answers every ask but the first of each distinct
    /// key.
    #[test]
    fn memo_equals_the_one_row_score() {
        for (quant, mode) in PRECISIONS {
            let (mut scorer, resident, flows) = short_flows(model(), quant, mode);
            let want: Vec<u32> = flows.iter().map(|f| alone(&scorer, &f.window)).collect();
            let before = scorer.pad_counts;
            let order = [0, 1, 2, 3, 4, 0, 4, 1, 2, 5, 3, 5, 0];
            for (k, &i) in order.iter().enumerate() {
                let Short {
                    slot,
                    packets,
                    ref key,
                    ..
                } = flows[i];
                let at = format!("{quant:?} {mode:?}: ask {k}, flow {i}");
                let err = scorer.pad_error(&resident, slot, packets);
                assert_eq!(err.map(f32::to_bits), Some(want[i]), "{at}");
                let memoised = scorer.pads.get(bits_hash(key), key);
                assert_eq!(memoised.map(|v| v[0].to_bits()), Some(want[i]), "{at}");
            }
            assert_eq!(
                scorer.pad_counts,
                MemoCounts {
                    scored: before.scored + order.len() as u64,
                    memo_hits: before.memo_hits + order.len() as u64 - 6,
                },
                "{quant:?} {mode:?}: six keys, one miss each"
            );
        }
    }

    /// The pad key is the flow's own rows, the last repeated as its padded
    /// window repeats it, at every precision. A one-packet flow and a
    /// two-packet flow with the same first row and an all-zero-bits second
    /// row miss each other in either order; a two-packet flow whose second
    /// row repeats its first pads to the one-packet flow's window, keys as
    /// it does and hits its entry. A recycled slot that held a two-packet
    /// flow, scored last, and now holds that one-packet flow keys exactly
    /// as a fresh slot does — neither its stale second row nor the
    /// scorer's last key enters — so it hits the fresh slot's entry,
    /// memoised under the flow's own key with the bits its window scores.
    #[test]
    fn pad_key_is_the_flows_rows_as_its_window_repeats_them() {
        let clap = model();
        let stack = clap.config.stack;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (quant, mode) in PRECISIONS {
            let at = format!("{quant:?} {mode:?}");
            let (_, source, flows) = short_flows(clap, quant, mode);
            let profile = |slot: usize, t: usize| {
                let mut row = vec![0.0; PROFILE_LEN];
                source.read_profile(slot, t, &mut row);
                row
            };
            let two = flows
                .iter()
                .find(|f| f.packets == 2)
                .expect("a two-packet flow");
            let (p, zero) = (profile(flows[0].slot, 0), vec![0.0; PROFILE_LEN]);
            let stale = [profile(two.slot, 0), profile(two.slot, 1)];
            let (mut scorer, mut resident) = scorer(clap, quant, mode, 5);
            let mut codes = Vec::new();
            let (one, longer, twin, fresh, recycled) = (0, 1, 2, 3, 4);
            for (slot, rows) in [
                (one, vec![&p]),
                (longer, vec![&p, &zero]),
                (twin, vec![&p, &p]),
                (fresh, vec![&p]),
                (recycled, vec![&stale[0], &stale[1]]),
            ] {
                resident.push_slot();
                for (t, row) in rows.into_iter().enumerate() {
                    resident.store_profile(slot, t, row, &mut codes);
                }
            }

            let held = |slot, packets| short(&resident, stack, slot, packets);
            let (a, b, t) = (held(one, 1), held(longer, 2), held(twin, 2));
            let row = a.key.len() / (stack - 1);
            assert!(b.key[row..].iter().all(|x| x.to_bits() == 0), "{at}");
            assert!(a.key[row..].iter().any(|x| x.to_bits() != 0), "{at}");
            assert_eq!(bits(&a.key[row..]), bits(&a.key[..row]), "{at}: repeated");
            assert_eq!(bits(&a.key[..row]), bits(&b.key[..row]), "{at}");
            assert_eq!(bits(&t.key), bits(&a.key), "{at}: the twin's key");
            for pair in [[&a, &b], [&b, &a]] {
                let (mut scorer, _) = self::scorer(clap, quant, mode, 1);
                for f in pair.into_iter().chain([&t]) {
                    let err = scorer.pad_error(&resident, f.slot, f.packets);
                    let want = alone(&scorer, &f.window);
                    assert_eq!(err.map(f32::to_bits), Some(want), "{at}");
                }
                let twin_hits = MemoCounts {
                    scored: 3,
                    memo_hits: 1,
                };
                assert_eq!(scorer.pad_counts, twin_hits, "{at}");
            }

            assert!(scorer.pad_error(&resident, recycled, 2).is_some());
            resident.clear_slot(recycled);
            resident.store_profile(recycled, 0, &p, &mut codes);
            let (f, r) = (
                short(&resident, stack, fresh, 1),
                short(&resident, stack, recycled, 1),
            );
            assert_eq!(bits(&f.key), bits(&r.key), "{at}: a stale row in the key");
            let want = alone(&scorer, &r.window);
            for slot in [fresh, recycled] {
                let err = scorer.pad_error(&resident, slot, 1);
                assert_eq!(err.map(f32::to_bits), Some(want), "{at}");
                let memoised = scorer.pads.get(bits_hash(&r.key), &r.key);
                assert_eq!(memoised.map(|v| v[0].to_bits()), Some(want), "{at}");
            }
            let one_hit = MemoCounts {
                scored: 3,
                memo_hits: 1,
            };
            assert_eq!(scorer.pad_counts, one_hit, "{at}");
        }
    }

    /// A prefix step the memo answers has the bits the step computes.
    /// Per benign connection three prefixes are stepped — its first
    /// packet, its first two, and its first two after a first packet with
    /// another TTL (a second step whose input an earlier step had, from
    /// another hidden state). Each step is taken again with no memo from
    /// the hidden state the scorer's step started from, and `h′`, `z` and
    /// `r` match the row (its gates poisoned before the step), the
    /// resident state and the memo's entry bit for bit: at f32 and int8
    /// weights, with the hidden state resident as f32 and as int8. Each
    /// step is counted once, a hit exactly when the memo held its key,
    /// and a two-packet prefix's first step is answered by its
    /// one-packet twin's.
    #[test]
    fn step_memo_equals_the_computed_step() {
        let clap = model();
        let stack = clap.config.stack;
        let conns = traffic_gen::dataset(96, 12);
        let flows: Vec<(&Connection, Vec<Packet>)> = conns
            .iter()
            .flat_map(|c| {
                let mut other = c.packets[..2].to_vec();
                match &mut other[0].ip {
                    IpHeader::V4(h) => h.ttl ^= 1,
                    IpHeader::V6(h) => h.hop_limit ^= 1,
                }
                [
                    (c, c.packets[..1].to_vec()),
                    (c, c.packets[..2].to_vec()),
                    (c, other),
                ]
            })
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (quant, mode) in PRECISIONS {
            let (mut scorer, mut resident) = scorer(clap, quant, mode, flows.len());
            let hidden = scorer.gru.hidden_size();
            let mut fresh = ResidentArena::new(mode, hidden, stack, flows.len());
            let (mut gru_scratch, mut codes) = (GruStepScratch::new(), Vec::new());
            let (mut h, mut zr) = (vec![0.0; hidden], vec![0.0; 2 * hidden]);
            let (mut after, mut want_after) = (h.clone(), h.clone());
            // Every step's (input, hidden state) bits.
            let mut keys: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
            let mut fv = FeatureVector {
                base: Vec::new(),
                raw: Vec::new(),
                equiv_ok: false,
            };
            for (slot, (conn, packets)) in flows.iter().enumerate() {
                resident.push_slot();
                fresh.push_slot();
                let (mut extractor, mut n) = (FeatureExtractor::new(), 0u32);
                for (i, p) in packets.iter().enumerate() {
                    let dir = conn.direction(i);
                    // The step's input, from a copy of the flow's anchors.
                    extractor.clone().push_into(p, dir, &mut fv);
                    resident.read_hidden(slot, &mut h);
                    keys.push((bits(&fv.base), bits(&h)));
                    let key: Vec<f32> = fv.base.iter().chain(&h).copied().collect();
                    let held = scorer.steps.get(bits_hash(&key), &key).is_some();
                    let before = scorer.step_counts;
                    scorer.row[NUM_PACKET..].fill(f32::NAN);
                    let flow = Flow {
                        anchors: &mut extractor.anchors,
                        present: &mut extractor.present,
                        packets: &mut n,
                        resident: &mut resident,
                        slot,
                    };
                    let sums = p.checksums();
                    assert_eq!(scorer.advance(flow, p, dir, sums, &mut None), None);
                    assert_eq!(bits(&scorer.fv.base), bits(&fv.base));
                    // The same step, computed.
                    let (z, r) = zr.split_at_mut(hidden);
                    scorer.gru.step(&fv.base, &mut h, &mut gru_scratch, z, r);
                    let at = format!("{quant:?} {mode:?}, flow {slot} packet {i}");
                    assert_eq!(bits(&scorer.row[NUM_PACKET..]), bits(&zr), "{at}");
                    fresh.store_hidden(slot, &h, &mut codes);
                    fresh.read_hidden(slot, &mut want_after);
                    resident.read_hidden(slot, &mut after);
                    assert_eq!(bits(&after), bits(&want_after), "{at}");
                    let want = [bits(&h), bits(&zr)].concat();
                    let memoised = scorer.steps.get(bits_hash(&key), &key).map(bits);
                    assert_eq!(memoised.as_ref(), Some(&want), "{at}");
                    let counted = MemoCounts {
                        scored: before.scored + 1,
                        memo_hits: before.memo_hits + u64::from(held),
                    };
                    assert_eq!(scorer.step_counts, counted, "{at}");
                    assert!(held || i > 0 || slot % 3 != 1, "{at}: its twin's step");
                }
            }
            let steps: usize = flows.iter().map(|(_, p)| p.len()).sum();
            assert_eq!(scorer.step_counts.scored, steps as u64);
            assert!(scorer.step_counts.memo_hits >= conns.len() as u64);
            let same_input =
                |(x, h): &(Vec<u32>, Vec<u32>)| keys.iter().any(|(y, g)| x == y && h != g);
            assert!(keys.iter().any(same_input), "one input, two hidden states");
        }
    }
}
