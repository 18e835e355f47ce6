//! The per-packet scoring core — CLAP's testing phase (paper Fig. 3) for
//! one packet of one flow: packet features ‖ GRU gates → context profile
//! → stacked window → autoencoder reconstruction error.
//!
//! This is the only inference path in the crate. [`StreamScorer`] calls
//! [`Scorer::advance`] per packet on a flow-table slot; [`ClapScorer`]
//! loops it over a connection on a one-slot arena — which is why online
//! and offline scores agree bitwise. (`microbatch` stages the rows
//! [`extract_row`] starts, replays each through [`Scorer::step_profile`]
//! — the GRU half of `advance` — in staging order, and scores the windows
//! they complete in one batched autoencoder pass.) A flow shorter than
//! the window stack is scored when it closes on one padded window
//! ([`Scorer::pad_error`]), through the same 1-row autoencoder pass.
//!
//! Padded windows are also memoised ([`PadMemo`]). A short flow's
//! features are relative to its own anchors and name no address, port or
//! ISN, and its GRU starts from `h = 0`, so the short flows one template
//! sends — a scan's probes, a SYN flood, backscatter — pad to the same
//! window bit for bit. Each scorer keeps a small set-associative memo
//! from a padded window's exact bits to its error, and only the windows
//! it misses reach the autoencoder. Sliding windows are not memoised:
//! they carry a flow's history and practically never repeat.
//!
//! [`StreamScorer`]: crate::StreamScorer
//! [`ClapScorer`]: crate::ClapScorer

use crate::features::{FeatureExtractor, FeatureVector, RangeModel, NUM_PACKET};
use crate::pipeline::Clap;
use crate::profile::{ProfileBuilder, PROFILE_LEN};
use crate::resident::ResidentArena;
use crate::score::{score_errors, ScoredConnection};
use clap_telemetry::hist::{LapClock, Stage};
use net_packet::{Direction, Packet};
use neural::{AeEngine, AeWorkspace, GruEngine, GruStepScratch, Matrix};

/// One flow's scoring state, borrowed for a call from wherever it lives: a
/// flow-table slot and its arena rows, or a [`ClapScorer`]'s locals.
///
/// [`ClapScorer`]: crate::ClapScorer
pub(crate) struct Flow<'s> {
    /// Feature anchors (ISNs, previous timestamps).
    pub(crate) extractor: &'s mut FeatureExtractor,
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
    pub(crate) ae: AeEngine<'a>,
    gru_scratch: GruStepScratch,
    /// The autoencoder's scratch, for packets' windows and padded ones.
    pub(crate) ae_ws: AeWorkspace,
    /// The current packet's GRU input (`base`), among its other features.
    pub(crate) fv: FeatureVector,
    /// 1×stacked_len window the current packet completed, or the padded
    /// window [`pad_error`](Self::pad_error) scores.
    pub(crate) window: Matrix,
    pub(crate) err_scratch: Vec<f32>,
    /// Padded-window errors by the window's exact bits.
    memo: PadMemo,
    /// Padded windows scored, and how many of them the memo answered.
    pub(crate) pad_counts: PadCounts,
    /// The current packet's profile row (features ‖ z ‖ r), built here
    /// and copied into the flow's ring after the window uses it.
    pub(crate) row: Vec<f32>,
    /// Dequantized hidden state staging for int8 resident state.
    h_scratch: Vec<f32>,
    /// Activation-code staging for int8 resident stores.
    code_scratch: Vec<u8>,
}

impl<'a> Scorer<'a> {
    pub(crate) fn new(clap: &'a Clap, gru: GruEngine, ae: AeEngine<'a>) -> Scorer<'a> {
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
            memo: PadMemo::new(clap.config.stack * PROFILE_LEN),
            pad_counts: PadCounts::default(),
            row: vec![0.0; PROFILE_LEN],
            h_scratch: Vec::new(),
            code_scratch: Vec::new(),
        }
    }

    /// Advances `flow` by packet `p`, travelling in direction `dir`:
    /// incremental feature extraction, the GRU step and profile-ring store
    /// of [`step_profile`](Self::step_profile) and — once the flow has a
    /// full stack of profiles — the reconstruction error of the window
    /// this packet completes, which is returned. `clock`, when sampling,
    /// laps each stage.
    pub(crate) fn advance(
        &mut self,
        flow: Flow<'_>,
        p: &Packet,
        dir: Direction,
        clock: &mut Option<LapClock<'_>>,
    ) -> Option<f32> {
        let Flow {
            extractor,
            packets,
            resident,
            slot,
        } = flow;
        let t = extract_row(
            &self.clap.ranges,
            &mut self.fv,
            extractor,
            packets,
            p,
            dir,
            &mut self.row,
        );
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::Extract);
        }
        if !self.step_profile(resident, slot, t, clock) {
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

    /// The GRU half of packet `t` of the flow at `slot`, whose GRU input
    /// [`extract_row`] left in `fv.base` and whose features it left at the
    /// front of `row`: one resumable GRU step on the flow's resident
    /// hidden state fills the row's gates (`clock` laps it); a packet
    /// that completes a window — the previous `stack − 1` profiles from
    /// the flow's ring, this packet's from `row` — copies it into `window`
    /// and returns `true`; the row is then stored in the ring. Every
    /// packet's GRU step runs here, scored at once or staged.
    pub(crate) fn step_profile(
        &mut self,
        resident: &mut ResidentArena,
        slot: usize,
        t: usize,
        clock: &mut Option<LapClock<'_>>,
    ) -> bool {
        let (z, r) = self.row[NUM_PACKET..].split_at_mut(self.gru.hidden_size());
        let (gru, x, gru_scratch) = (&self.gru, &self.fv.base, &mut self.gru_scratch);
        resident.step_hidden(slot, &mut self.h_scratch, &mut self.code_scratch, |h| {
            gru.step(x, h, gru_scratch, z, r)
        });
        if let Some(c) = clock.as_mut() {
            c.lap(Stage::Gru);
        }
        // The ring must still be "as of packet `t − 1`" here.
        let complete = t + 1 >= self.builder.stack;
        if complete {
            resident.read_window(slot, t, &self.row, self.window.row_mut(0));
        }
        resident.store_profile(slot, t, &self.row, &mut self.code_scratch);
        complete
    }

    /// The padded-window error of the flow at `slot`, which has scored
    /// `packets` packets: its profiles, the last repeated until the window
    /// is full, copied into `window`. A window the memo holds is answered
    /// from it; a miss runs the 1-row autoencoder pass a packet's window
    /// runs and is memoised. `None` for an empty flow and for one that has
    /// had its windows.
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
        let window = self.window.row_mut(0);
        for (j, profile) in window.chunks_exact_mut(PROFILE_LEN).enumerate() {
            resident.read_profile(slot, j.min(packets - 1), profile);
        }
        let window = self.window.row(0);
        let hash = window_hash(window);
        let memoised = self.memo.get(hash, window);
        self.pad_counts.add(memoised.is_some());
        if memoised.is_some() {
            return memoised;
        }
        self.err_scratch.clear();
        self.ae
            .reconstruction_errors_into(&self.window, &mut self.ae_ws, &mut self.err_scratch);
        let err = self.err_scratch[0];
        self.memo.insert(hash, self.window.row(0), err);
        Some(err)
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

/// Padded windows a scorer has scored, and how many of them the memo
/// answered without an autoencoder pass — see [`StreamScorer::pad_windows`].
///
/// [`StreamScorer::pad_windows`]: crate::StreamScorer::pad_windows
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PadCounts {
    /// Padded windows scored.
    pub scored: u64,
    /// Of those, the ones that ran no autoencoder pass.
    pub memo_hits: u64,
}

impl PadCounts {
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
/// The memo's capacity: 64 windows.
const MEMO_ENTRIES: usize = MEMO_SETS * MEMO_WAYS;
/// The tag of an empty way; [`window_hash`] never returns it.
const EMPTY: u64 = 0;

/// A padded window's reconstruction error by the window's exact bits:
/// [`MEMO_SETS`] sets of [`MEMO_WAYS`] ways, replaced round-robin within
/// a set. The key is the window's `stack × PROFILE_LEN` values compared
/// by [`f32::to_bits`] — `+0.0` and `−0.0` differ, NaN payloads compare
/// exactly — and the tag is the key's [`window_hash`].
///
/// The hash is unkeyed, so an attacker can craft windows that share a
/// set or a tag. That costs a miss, never a wrong score: every tag match
/// is confirmed against the whole key, a probe is at most `MEMO_WAYS`
/// compares, and a miss runs the autoencoder as an unmemoised scorer
/// would — at worst today's price plus one hash. An entry is published
/// tag-last (its tag is cleared before its key and error are written), so
/// a write cut short — a panic the sharded engine's worker survives —
/// leaves no entry that can match.
///
/// The ways, ≈ 87 KiB at the paper's 3 × 115-value window, are allocated
/// at the first insert. The memo is a fixed cost per scorer, like the
/// packed weights and the autoencoder workspace, not a cost per flow, so
/// [`StreamScorer::mem_bytes`] leaves it out; and it is never cleared,
/// because an error is a pure function of its window's bits.
///
/// [`StreamScorer::mem_bytes`]: crate::StreamScorer::mem_bytes
#[derive(Debug)]
pub(crate) struct PadMemo {
    key_len: usize,
    /// Way `e`'s tag (or [`EMPTY`]) and error; empty until the first
    /// insert.
    ways: Vec<(u64, f32)>,
    /// Way `e`'s key, at `e · key_len`; empty until the first insert.
    keys: Vec<f32>,
    /// Per set: the way its next insert replaces.
    next: [u8; MEMO_SETS],
}

impl PadMemo {
    pub(crate) fn new(key_len: usize) -> PadMemo {
        PadMemo {
            key_len,
            ways: Vec::new(),
            keys: Vec::new(),
            next: [0; MEMO_SETS],
        }
    }

    /// The first way of `hash`'s set: its top [`MEMO_SET_BITS`] bits.
    fn set_start(hash: u64) -> usize {
        (hash >> (u64::BITS - MEMO_SET_BITS)) as usize * MEMO_WAYS
    }

    fn key(&self, e: usize) -> &[f32] {
        &self.keys[e * self.key_len..(e + 1) * self.key_len]
    }

    /// The error memoised for `key`, whose hash is `hash`.
    pub(crate) fn get(&self, hash: u64, key: &[f32]) -> Option<f32> {
        if self.ways.is_empty() {
            return None;
        }
        let start = Self::set_start(hash);
        (start..start + MEMO_WAYS)
            .find(|&e| self.ways[e].0 == hash && same_bits(self.key(e), key))
            .map(|e| self.ways[e].1)
    }

    /// Memoises `err` for `key`, whose hash is `hash`, in the way its set
    /// replaces next — unless `key` is already there.
    pub(crate) fn insert(&mut self, hash: u64, key: &[f32], err: f32) {
        assert!(hash != EMPTY && key.len() == self.key_len);
        if self.get(hash, key).is_some() {
            return;
        }
        if self.ways.is_empty() {
            self.ways = vec![(EMPTY, 0.0); MEMO_ENTRIES];
            self.keys = vec![0.0; MEMO_ENTRIES * self.key_len];
        }
        let set = Self::set_start(hash) / MEMO_WAYS;
        let e = set * MEMO_WAYS + usize::from(self.next[set]);
        self.next[set] = ((usize::from(self.next[set]) + 1) % MEMO_WAYS) as u8;
        self.ways[e] = (EMPTY, err);
        self.keys[e * self.key_len..(e + 1) * self.key_len].copy_from_slice(key);
        self.ways[e].0 = hash;
    }
}

/// An unkeyed word-fold of `window`'s bits: four independent lanes fold
/// two words at a time (xor, multiply, rotate), then fold into one word
/// and avalanche. Never [`EMPTY`].
pub(crate) fn window_hash(window: &[f32]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(31);
    let mut lanes = [0u64; 4];
    let mut chunks = window.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, pair) in lanes.iter_mut().zip(chunk.chunks_exact(2)) {
            let word = u64::from(pair[0].to_bits()) | (u64::from(pair[1].to_bits()) << 32);
            *lane = fold(*lane, word);
        }
    }
    let h = lanes.into_iter().fold(window.len() as u64, fold);
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

/// Extracts `p` as the next packet of a flow and starts its profile row
/// (packet features ‖ update gates ‖ reset gates): the extractor and the
/// packet count advance, the GRU input lands in `fv.base` and the feature
/// third at the front of `row`; the gate two-thirds are the GRU step's to
/// fill. Returns the packet's 0-based index in its flow.
pub(crate) fn extract_row(
    ranges: &RangeModel,
    fv: &mut FeatureVector,
    extractor: &mut FeatureExtractor,
    packets: &mut u32,
    p: &Packet,
    dir: Direction,
    row: &mut [f32],
) -> usize {
    extractor.push_into(p, dir, fv);
    let t = *packets as usize;
    *packets += 1;
    ranges.write_packet_features(fv, &mut row[..NUM_PACKET]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ClapConfig;
    use crate::resident::ResidentMode;
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

    fn scorer(clap: &Clap) -> Scorer<'_> {
        Scorer::new(
            clap,
            GruEngine::from_packed(clap.rnn.packed(), QuantMode::Off),
            AeEngine::from_model(&clap.ae, QuantMode::Off),
        )
    }

    /// Short flows — the first one or two packets of benign connections —
    /// scored into slots of their own, keeping those whose padded windows
    /// differ: `(slot, packets, window)` each.
    fn short_flows<'a>(
        clap: &'a Clap,
        scorer: &mut Scorer<'a>,
    ) -> (ResidentArena, Vec<(usize, usize, Vec<f32>)>) {
        let stack = clap.config.stack;
        let conns = traffic_gen::dataset(96, 12);
        let mut resident =
            ResidentArena::new(ResidentMode::F32, scorer.gru.hidden_size(), stack, 64);
        let mut flows: Vec<(usize, usize, Vec<f32>)> = Vec::new();
        for (slot, (conn, take)) in conns.iter().flat_map(|c| [(c, 1), (c, 2)]).enumerate() {
            resident.push_slot();
            let (mut extractor, mut packets) = (FeatureExtractor::new(), 0u32);
            for (i, p) in conn.packets[..take].iter().enumerate() {
                let flow = Flow {
                    extractor: &mut extractor,
                    packets: &mut packets,
                    resident: &mut resident,
                    slot,
                };
                assert_eq!(scorer.advance(flow, p, conn.direction(i), &mut None), None);
            }
            let mut window = vec![0.0; stack * PROFILE_LEN];
            for (j, profile) in window.chunks_exact_mut(PROFILE_LEN).enumerate() {
                resident.read_profile(slot, j.min(take - 1), profile);
            }
            if flows.iter().all(|(.., w)| !same_bits(w, &window)) {
                flows.push((slot, take, window));
            }
        }
        assert!(
            flows.len() >= 8,
            "only {} distinct padded windows",
            flows.len()
        );
        (resident, flows)
    }

    /// A tag match is only a candidate: the whole key must match bit for
    /// bit. The same hash over `+0.0` and `−0.0`, over two NaN payloads,
    /// or over keys one value apart (the last, so a key that stops short
    /// misses it) is a miss.
    #[test]
    fn memo_same_tag_other_bits_is_a_miss() {
        let len = 3 * PROFILE_LEN;
        let hash = 0x5a5a_5a5a_5a5a_5a5a;
        let mut memo = PadMemo::new(len);
        let key: Vec<f32> = (0..len).map(|i| i as f32 * 0.25).collect();
        let variants = |at: usize, a: f32, b: f32| {
            let (mut x, mut y) = (key.clone(), key.clone());
            (x[at], y[at]) = (a, b);
            (x, y)
        };
        let nan_a = f32::from_bits(0x7fc0_0001);
        let nan_b = f32::from_bits(0x7fc0_0002);
        for (x, y) in [
            variants(0, 0.0, -0.0),
            variants(len / 2, nan_a, nan_b),
            variants(len - 1, 1.0, 1.0 + f32::EPSILON),
        ] {
            memo.insert(hash, &x, 7.5);
            assert_eq!(memo.get(hash, &x).map(f32::to_bits), Some(7.5f32.to_bits()));
            assert_eq!(memo.get(hash, &y), None, "a tag-only match");
            assert_eq!(memo.get(hash ^ 1, &x), None, "a key-only match");
        }
        assert_ne!(
            window_hash(&variants(0, 0.0, -0.0).0),
            window_hash(&variants(0, 0.0, -0.0).1)
        );
    }

    /// Four ways a set: a fifth key in a full set replaces its oldest, the
    /// next the one after; an evicted window scores again to the same
    /// bits and is memoised again.
    #[test]
    fn memo_evicts_round_robin_and_recomputes_the_same_bits() {
        let clap = model();
        let mut scorer = scorer(clap);
        let (resident, flows) = short_flows(clap, &mut scorer);
        let (slot, packets, ref window) = flows[0];
        let score = |scorer: &mut Scorer<'_>| {
            let err = scorer.pad_error(&resident, slot, packets);
            err.expect("a short flow").to_bits()
        };
        let first = score(&mut scorer);
        let hash = window_hash(window);
        assert_eq!(scorer.memo.get(hash, window).map(f32::to_bits), Some(first));
        // Keys with their own tags in `window`'s set.
        let set = hash & (u64::MAX << (u64::BITS - MEMO_SET_BITS));
        let others: Vec<(u64, Vec<f32>)> = (1..=5u64)
            .map(|i| (set | i, vec![i as f32; window.len()]))
            .collect();
        for (i, (tag, key)) in others.iter().enumerate() {
            scorer.memo.insert(*tag, key, i as f32);
            let present = |(t, k): &(u64, Vec<f32>)| scorer.memo.get(*t, k).is_some();
            let held: Vec<bool> = others.iter().map(present).collect();
            let window_held = scorer.memo.get(hash, window).is_some();
            match i {
                0..=2 => assert!(window_held && held[..=i].iter().all(|&h| h)),
                3 => assert_eq!((window_held, &held[..4]), (false, &[true; 4][..])),
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

    /// Windows asked for in an interleaved order, hits among misses: each
    /// error is bitwise the window's lone 1-row score and is memoised, and
    /// the memo answers every window but the first of each distinct one.
    #[test]
    fn memo_equals_the_one_row_score() {
        let clap = model();
        let mut scorer = scorer(clap);
        let (resident, flows) = short_flows(clap, &mut scorer);
        let alone = |window: &[f32]| {
            let (mut ws, mut err) = (AeWorkspace::new(), Vec::new());
            let x = Matrix::from_vec(1, window.len(), window.to_vec());
            scorer.ae.reconstruction_errors_into(&x, &mut ws, &mut err);
            err[0].to_bits()
        };
        let want: Vec<u32> = flows.iter().map(|(.., w)| alone(w)).collect();
        let before = scorer.pad_counts;
        let order = [0, 1, 2, 3, 4, 0, 4, 1, 2, 5, 3, 5, 0];
        for (k, &i) in order.iter().enumerate() {
            let (slot, packets, ref window) = flows[i];
            let err = scorer.pad_error(&resident, slot, packets);
            assert_eq!(err.map(f32::to_bits), Some(want[i]), "ask {k}, window {i}");
            let memoised = scorer.memo.get(window_hash(window), window);
            assert_eq!(memoised.map(f32::to_bits), Some(want[i]), "window {i}");
        }
        assert_eq!(
            scorer.pad_counts,
            PadCounts {
                scored: before.scored + order.len() as u64,
                memo_hits: before.memo_hits + order.len() as u64 - 6,
            },
            "six windows, one miss each"
        );
    }
}
