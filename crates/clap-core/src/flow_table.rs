//! The flow table — *which flows exist and when they leave*: key index,
//! slab of per-flow [`Slot`]s, vacant-slot free list and expiry queue,
//! built for millions of concurrent flows. It never scores and knows no
//! neural type — a flow's GRU state lives in a parallel arena its owner
//! ([`StreamScorer`](crate::StreamScorer)) indexes by the same handle,
//! which is why [`FlowTable::open`] says
//! whether a handle is recycled or new, and why the table only *names*
//! the flows to close ([`expired`](FlowTable::expired),
//! [`probe_stalest`](FlowTable::probe_stalest)): the owner finalizes
//! what it keeps for the handle, then calls [`FlowTable::remove`].
//!
//! **Slab + key index.** Flow state lives in a slab of [`Slot`]s
//! addressed by a `u32` handle (184 bytes a slot on 64-bit targets,
//! const-asserted below), stored in fixed chunks (`crate::chunked`). A
//! slot keeps only what a verdict, the expiry queue or the flow dump
//! read: the 42 B key, a 44 B tracker with no packet counter, 24 B of
//! feature anchors whose presence bits share the flags byte, and the
//! error log as a 16 B boxed slice whose used length is the flow's window
//! count. The header an index probe and an expiry re-queue touch —
//! `last_seen`, key hash, queue links, key, flags — is its first 63
//! bytes. The `CanonicalKey → handle` index is an open-addressed,
//! power-of-two array of **8-byte** `(tag, handle)` buckets, linearly
//! probed from `tag & mask` at load ≤ 1/2 — 16–32 bytes
//! per live flow, 16.4 at the benchmark's 16 k-flow plateau, where the
//! whole index is 256 KiB. A bucket holds no key: the flow's slot already
//! stores one (a canonical key is 80 bytes, two 16-byte-aligned
//! `(u128 address, port)` pairs plus the protocol), so a probe compares
//! the 32-bit tag and confirms a hit against the slot, a line the packet
//! is about to touch anyway. Deletion shifts the rest of the probe run
//! back instead of leaving a tombstone, so churn never lengthens probes.
//! The tag is the low half of a per-table randomly keyed SipHash
//! (`RandomState`, what std's own map uses): keys are chosen by whoever
//! sends the traffic, and an unkeyed or linear hash — the dispatcher's
//! Toeplitz `rss_hash` included — would let them pile flows onto one
//! probe run. A key is hashed once, in [`FlowTable::lookup`]; the hash
//! rides to [`open`](FlowTable::open) and the tag is kept in the slot, so
//! `remove`, `clear` and growth (which re-places buckets by their stored
//! tags) hash nothing. Departed slots go on an intrusive free list
//! (reusing the expiry queue's `next` link) and are recycled in place —
//! eviction and admission never reallocate at steady state, slab iteration is
//! cache-linear within each chunk, and [`FlowTable::slots`] is exactly the
//! peak concurrent flow count. The slab grows one chunk of 1 024 slots at
//! a time (below one chunk it doubles from 64), and a chunk never moves:
//! growth copies no flow's slot — nor, since the owner's resident arena
//! grows the same way, its neural state — where a doubling slab copied
//! every live flow, tens of MB and ≈10 ms in one push at 20 k flows.
//! Capacity stays within one chunk of the peak and is clamped to the
//! configured table size, the last chunk cut short.
//!
//! **Expiry queue.** A flow leaves `idle_timeout` seconds after its last
//! packet: one timeout class, one constant, on a stream clock that never
//! runs backwards — so deadline order *is* `last_seen` order, and an
//! ordered list is all a timer needs (Varghese & Lauck's Scheme 2 with
//! equal intervals). The list is one intrusive doubly-linked queue
//! threaded through the slab slots, stalest flow at the head. A packet
//! moves its flow to the tail — nothing to do when it is the tail
//! already, back-to-back packets of one flow. A flow is linked behind the
//! last flow no fresher than it, which is the tail itself for every
//! caller on a monotone clock, so the order is the table's invariant and
//! not its caller's promise. What has [`expired`](FlowTable::expired) is
//! the run of `last_seen < clock − idle_timeout` at the head — exact,
//! O(expired) whatever the clock jumped by — and the flow to drop when
//! the table is full ([`probe_stalest`](FlowTable::probe_stalest)) is the
//! head itself. (A flow whose TCP tracker reaches TIME_WAIT is closed by
//! its owner on that packet; the table has no second timeout class for
//! it.)
//!
//! **One expiry predicate.** [`EvictionMode::Wheel`] and the full-scan
//! [`EvictionMode::Sweep`] reference differ only in where candidates come
//! from — the head of the queue, or every live slot. Both feed the same
//! `last_seen < clock − idle_timeout` test, at the same boundaries, so the two
//! report identical flow sets (pinned by proptest, here against a model
//! of the table and in `tests/proptests.rs` through a whole scorer).
//!
//! **Per-flow memory** at Table-6 sizes (`H = 32`, `stack = 3`, 115-value
//! profiles): 16–32 B of index, a 184 B slot, the flow's error log
//! (4 B per window it has emitted, allocated as a `Vec` grows: 4, 8, 16,
//! … entries), and — in the owner's arena — resident
//! state: the hidden vector and two packed profile rows, each the
//! profile's 82 dense values and an 8 B word of its 33 indicator bits
//! (the owner's resident arena packs them). That is `4×32 + 2×(4×82 + 8)` = 800 B at
//! f32, or `32 + 2×(82 + 8)` B of codes and words plus 3 quant pairs =
//! 236 B at int8, plus 24 B per chunk for each array's list of chunks. A
//! TCP flow picked up mid-stream also holds its first packets, and what
//! they own, until its orientation resolves. Measured by the benchmark:
//! 474.8 B/flow int8-resident at `churn_16k`'s 16 000-flow plateau (16
//! chunks, 32 Ki index buckets); f32-resident, 1 031.5 B/flow at
//! `syn_scan`'s 20 048 flows (20 chunks, 64 Ki buckets). (507.6 and
//! 1 064.2 B with a 216 B slot.)
//! [`FlowTable::heap_bytes`] is the table's share of
//! [`StreamScorer::mem_bytes`](crate::StreamScorer::mem_bytes).

use crate::chunked::Chunked;
use crate::features::{Anchors, PRESENT_MASK};
use net_packet::{CanonicalKey, Checksums, Direction, FlowKey, Packet};
use std::hash::{BuildHasher, RandomState};
use tcp_state::FlowTracker;

/// How idle expiry walks the flow table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionMode {
    /// One expiry queue in `last_seen` order: O(1) per packet, and each
    /// sweep boundary reads only the expired flows off the queue head.
    /// (Once a timing wheel; the name stayed because `benchmark/`,
    /// frozen between PRs, spells it.)
    #[default]
    Wheel,
    /// Full slab scan at every sweep boundary. O(live flows) per sweep —
    /// the reference implementation the queue is proptest-pinned
    /// against, kept for that harness and for debugging, not for
    /// production use.
    Sweep,
}

/// Null handle / list terminator for the slab's intrusive links.
const NIL: u32 = u32::MAX;

/// Slot flag: occupied by a live flow (clear = on the free list).
const FLAG_LIVE: u8 = 1 << 6;
// The flags byte's low bits hold the flow's feature-anchor presence bits
// (`Slot::scoring_state`), which the table's own flag must not overlap.
const _: () = assert!(FLAG_LIVE & PRESENT_MASK == 0);

/// Per-flow slab slot: a table-owned header (`last_seen`, key hash, queue
/// links, flags) around the per-flow state the owner works on. The queue
/// links double as the free-list link when the slot is vacant.
///
/// The fields are laid out in order (`repr(C)`): the header and the key —
/// all that an index probe and an expiry re-queue read — fill the first 63
/// bytes, and the 184-byte slot has no padding but the byte after them.
#[derive(Debug, Clone)]
#[repr(C)]
pub(crate) struct Slot {
    /// Stream-clock time of the flow's last packet: the expiry queue's
    /// order.
    last_seen: f64,
    /// The key's hash as [`open`](FlowTable::open) received it: where the
    /// flow's index bucket probes from, so `remove` hashes nothing.
    hash: KeyHash,
    /// The next fresher flow of the expiry queue; the free-list link
    /// when vacant.
    queue_next: u32,
    /// The next staler flow of the expiry queue.
    queue_prev: u32,
    pub(crate) key: FlowKey,
    /// [`FLAG_LIVE`], and in the low [`PRESENT_MASK`] bits the presence
    /// bits of `anchors`.
    flags: u8,
    pub(crate) tracker: FlowTracker,
    /// Packets scored so far.
    pub(crate) packets: u32,
    /// Feature anchors (ISNs, previous timestamps); their presence bits
    /// are in `flags`.
    anchors: Anchors,
    /// Reconstruction error per emitted stacked window, in order.
    pub(crate) window_errors: ErrorLog,
    /// Leading packets held back (with their arrival tags) while the
    /// flow's orientation is still undecided (`Some` only for TCP flows
    /// that did not start with a pure SYN, until the owner's orient buffer
    /// fills or a SYN lands). Boxed: the common case is `None` and the
    /// slab stays dense — the extra indirection trades a pointer-sized
    /// field here for 16 fewer bytes in every one of a million slots.
    #[allow(clippy::box_collection)]
    pub(crate) pending: Option<Box<Vec<(u64, Packet)>>>,
    /// Arrival tag of this incarnation's first packet.
    pub(crate) arrival: u64,
    /// Stream-clock time of this incarnation's first packet.
    pub(crate) first_seen: f64,
    /// Total wire bytes seen by this incarnation (conntrack-style
    /// accounting for the flow dump).
    pub(crate) bytes: u64,
}

// The module docs, and every bytes-per-flow figure derived from them,
// quote these sizes.
#[cfg(target_pointer_width = "64")]
const _: () = {
    assert!(std::mem::size_of::<Slot>() == 184);
    assert!(std::mem::offset_of!(Slot, flags) == 62);
    assert!(std::mem::size_of::<Bucket>() == 8);
};

/// A flow's reconstruction error per emitted window, in order: a boxed
/// slice whose length is its capacity, grown exactly as a `Vec` grows (4,
/// 8, 16, … entries), so it holds a `Vec`'s heap bytes in 16 slot bytes
/// where a `Vec` takes 24. It does not store how many entries are in use:
/// that is the flow's window count, which its owner derives from the
/// flow's packets and the window stack.
#[derive(Debug, Clone, Default)]
pub(crate) struct ErrorLog(Box<[f32]>);

impl ErrorLog {
    /// Writes entry `at` — one past the last in use — growing the log
    /// when it is full.
    pub(crate) fn push(&mut self, at: usize, err: f32) {
        if at == self.0.len() {
            // `Vec`'s own amortised growth; filled to its capacity, the
            // vector becomes a boxed slice without reallocating.
            let mut grown = std::mem::take(&mut self.0).into_vec();
            grown.reserve(1);
            grown.resize(grown.capacity(), 0.0);
            self.0 = grown.into_boxed_slice();
        }
        self.0[at] = err;
    }

    /// The first `used` entries.
    pub(crate) fn errors(&self, used: usize) -> &[f32] {
        &self.0[..used]
    }

    /// The first `used` entries as a `Vec` on the log's own allocation.
    pub(crate) fn into_vec(self, used: usize) -> Vec<f32> {
        let mut errors = self.0.into_vec();
        errors.truncate(used);
        errors
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.0)
    }
}

impl Slot {
    fn new(hash: KeyHash, key: FlowKey, now: f64, arrival: u64) -> Slot {
        let tracker = FlowTracker::for_proto(key.proto);
        Slot {
            last_seen: now,
            hash,
            queue_next: NIL,
            queue_prev: NIL,
            key,
            flags: FLAG_LIVE,
            tracker,
            packets: 0,
            anchors: Anchors::default(),
            window_errors: ErrorLog::default(),
            pending: None,
            arrival,
            first_seen: now,
            bytes: 0,
        }
    }

    fn live(&self) -> bool {
        self.flags & FLAG_LIVE != 0
    }

    /// The flow's scoring state: its feature anchors, the byte holding
    /// their presence bits — the flags, whose other bits the anchors never
    /// touch — and its packet count.
    pub(crate) fn scoring_state(&mut self) -> (&mut Anchors, &mut u8, &mut u32) {
        (&mut self.anchors, &mut self.flags, &mut self.packets)
    }

    /// Stream-clock time of the flow's last [`FlowTable::touch`].
    pub(crate) fn last_seen(&self) -> f64 {
        self.last_seen
    }

    /// Books packet `p`, whose checksum verdicts are `sums`, to the flow —
    /// its direction under the flow's orientation, one TCP/UDP tracker
    /// transition, its wire bytes — and returns the direction for whoever
    /// extracts features next.
    pub(crate) fn register(&mut self, p: &Packet, sums: Checksums) -> Direction {
        // Same fallback as `Connection::direction`: packets matching
        // neither orientation count as client→server.
        let dir = self
            .key
            .direction_of(p)
            .unwrap_or(Direction::ClientToServer);
        self.tracker.process_with(p, dir, sums);
        self.bytes += p.wire_len() as u64;
        dir
    }
}

/// The expiry queue (see the module docs): the stalest flow at `head`,
/// the freshest at `tail`, the links in the slab slots.
#[derive(Debug, Clone, Copy)]
struct Queue {
    head: u32,
    tail: u32,
}

const EMPTY_QUEUE: Queue = Queue {
    head: NIL,
    tail: NIL,
};

/// A canonical key's hash under one table's hasher, as
/// [`FlowTable::lookup`] computed it: the owner carries it from a miss to
/// [`FlowTable::open`] so the key is hashed once per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyHash(u32);

/// One index bucket: a key's hash and the handle of the slot holding the
/// key itself. Empty when `handle == NIL`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    tag: u32,
    handle: u32,
}

const EMPTY: Bucket = Bucket {
    tag: 0,
    handle: NIL,
};

/// The slab: one [`Slot`] per row of a [`Chunked`] container, indexed by
/// handle, so a slot never moves once its chunk is whole.
#[derive(Debug)]
struct Slab(Chunked<Slot>);

impl std::ops::Index<u32> for Slab {
    type Output = Slot;

    fn index(&self, h: u32) -> &Slot {
        self.0.get(h as usize)
    }
}

impl std::ops::IndexMut<u32> for Slab {
    fn index_mut(&mut self, h: u32) -> &mut Slot {
        self.0.get_mut(h as usize)
    }
}

/// The `CanonicalKey → handle` index (see the module docs): open
/// addressing over a power-of-two bucket array at load ≤ 1/2, so every
/// probe run ends at an empty bucket. It never hashes — callers bring the
/// tag — and stores no key: a tag match is confirmed in the slab.
#[derive(Debug, Default)]
struct Index {
    buckets: Vec<Bucket>,
    len: usize,
}

impl Index {
    fn find(&self, slab: &Slab, tag: u32, ck: &CanonicalKey) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let b = self.buckets[i];
            if b.handle == NIL {
                return None;
            }
            // CanonicalKey is orientation-invariant, so a slot key
            // re-oriented since `open` still compares equal.
            if b.tag == tag && CanonicalKey::of_key(&slab[b.handle].key) == *ck {
                return Some(b.handle);
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds a key the index does not hold.
    fn insert(&mut self, tag: u32, handle: u32) {
        if (self.len + 1) * 2 > self.buckets.len() {
            // Growth re-places the live buckets by their stored tags: no
            // key is hashed and the slab is not read.
            let doubled = vec![EMPTY; (self.buckets.len() * 2).max(8)];
            for b in std::mem::replace(&mut self.buckets, doubled) {
                if b.handle != NIL {
                    self.place(b);
                }
            }
        }
        self.place(Bucket { tag, handle });
        self.len += 1;
    }

    fn place(&mut self, b: Bucket) {
        let mask = self.buckets.len() - 1;
        let mut i = b.tag as usize & mask;
        while self.buckets[i].handle != NIL {
            i = (i + 1) & mask;
        }
        self.buckets[i] = b;
    }

    /// Drops `handle`'s bucket and closes the gap: each later bucket of
    /// the probe run moves back into the hole unless that would put it
    /// before its home, so no run is ever broken by an empty bucket.
    fn remove(&mut self, tag: u32, handle: u32) {
        let mask = self.buckets.len() - 1;
        let mut hole = tag as usize & mask;
        while self.buckets[hole].handle != handle {
            assert!(self.buckets[hole].handle != NIL, "flow {handle} is indexed");
            hole = (hole + 1) & mask;
        }
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let b = self.buckets[i];
            if b.handle == NIL {
                break;
            }
            let home = b.tag as usize & mask;
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.buckets[hole] = b;
                hole = i;
            }
        }
        self.buckets[hole] = EMPTY;
        self.len -= 1;
    }

    fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.len = 0;
    }
}

/// The flow table (see the module docs): key index, slab, free list and
/// expiry queue, addressed by `u32` handles.
/// `table[h]` is the live flow at handle `h`.
#[derive(Debug)]
pub(crate) struct FlowTable<S = RandomState> {
    /// `CanonicalKey → slab handle`.
    index: Index,
    /// Keyed at random per table (`S` is anything else only in tests).
    hasher: S,
    slab: Slab,
    /// Head of the vacant-slot free list (threaded through `queue_next`).
    free_head: u32,
    /// Every live flow, in `last_seen` order.
    queue: Queue,
    idle_timeout: f64,
    eviction: EvictionMode,
}

impl<S: BuildHasher + Default> FlowTable<S> {
    /// An empty table that expires flows idle for `idle_timeout` seconds
    /// and holds at most `max_flows`.
    pub(crate) fn new(idle_timeout: f64, max_flows: usize, eviction: EvictionMode) -> FlowTable<S> {
        FlowTable {
            index: Index::default(),
            hasher: S::default(),
            slab: Slab(Chunked::new(1, max_flows)),
            free_head: NIL,
            queue: EMPTY_QUEUE,
            idle_timeout,
            eviction,
        }
    }

    /// Live flows.
    pub(crate) fn len(&self) -> usize {
        self.index.len
    }

    /// Slab slots ever allocated — the peak of [`len`](Self::len), since
    /// a slot is only appended when the free list is empty.
    pub(crate) fn slots(&self) -> usize {
        self.slab.0.len()
    }

    /// Slots the slab has room for before it next grows.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.slab.0.capacity()
    }

    /// Hashes `ck` — the only place a key is hashed — and
    /// [`find`](Self::find)s it.
    pub(crate) fn lookup(&self, ck: &CanonicalKey) -> (KeyHash, Option<u32>) {
        let hash = KeyHash(self.hasher.hash_one(ck) as u32);
        (hash, self.find(hash, ck))
    }

    /// The live flow with canonical key `ck`, whose hash (from
    /// [`lookup`](Self::lookup)) is `hash`.
    pub(crate) fn find(&self, hash: KeyHash, ck: &CanonicalKey) -> Option<u32> {
        self.index.find(&self.slab, hash.0, ck)
    }

    /// Handles of the live flows, in slab order.
    pub(crate) fn live_handles(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.slab.0.len() as u32).filter(|&h| self.slab[h].live())
    }

    /// Admits a flow first seen at `now` (recycling the free list before
    /// growing the slab) and returns its handle, and whether that handle
    /// is a slot appended by this call rather than a recycled one. `hash`
    /// is what [`lookup`](Self::lookup) returned when it missed `key`'s
    /// canonical key.
    pub(crate) fn open(
        &mut self,
        hash: KeyHash,
        key: FlowKey,
        now: f64,
        arrival: u64,
    ) -> (u32, bool) {
        let appended = self.free_head == NIL;
        let h = if appended {
            self.slab.0.push(Slot::new(hash, key, now, arrival)) as u32
        } else {
            let h = self.free_head;
            let slot = &mut self.slab[h];
            self.free_head = slot.queue_next;
            *slot = Slot::new(hash, key, now, arrival);
            h
        };
        self.index.insert(hash.0, h);
        self.link(h);
        (h, appended)
    }

    /// Records a packet at `now` on flow `h`, which makes it the freshest
    /// of the queue.
    pub(crate) fn touch(&mut self, h: u32, now: f64) {
        let slot = &mut self.slab[h];
        // Back-to-back packets of one flow: it is the tail already.
        let in_place = self.queue.tail == h && now >= slot.last_seen;
        slot.last_seen = now;
        if !in_place {
            self.unlink(h);
            self.link(h);
        }
    }

    /// Links flow `h` into the queue behind the last flow no fresher
    /// than it — the tail, unless the caller's clock ran backwards.
    fn link(&mut self, h: u32) {
        let seen = self.slab[h].last_seen;
        let mut prev = self.queue.tail;
        let mut next = NIL;
        while prev != NIL && self.slab[prev].last_seen > seen {
            next = prev;
            prev = self.slab[prev].queue_prev;
        }
        let slot = &mut self.slab[h];
        slot.queue_prev = prev;
        slot.queue_next = next;
        match prev {
            NIL => self.queue.head = h,
            _ => self.slab[prev].queue_next = h,
        }
        match next {
            NIL => self.queue.tail = h,
            _ => self.slab[next].queue_prev = h,
        }
    }

    /// Takes flow `h` out of the queue.
    fn unlink(&mut self, h: u32) {
        let slot = &self.slab[h];
        let (prev, next) = (slot.queue_prev, slot.queue_next);
        match prev {
            NIL => self.queue.head = next,
            _ => self.slab[prev].queue_next = next,
        }
        match next {
            NIL => self.queue.tail = prev,
            _ => self.slab[next].queue_prev = prev,
        }
    }

    fn due(&self, h: u32, clock: f64) -> bool {
        self.slab[h].last_seen < clock - self.idle_timeout
    }

    /// Fills `out` with the flows whose idle timeout has run out at
    /// stream time `clock`, for the owner to close: the run of due flows
    /// at the head of the queue, stalest first — or, in
    /// [`EvictionMode::Sweep`], every live flow that is due, in slab
    /// order. Both apply the one `last_seen < clock − idle_timeout` test.
    pub(crate) fn expired(&self, clock: f64, out: &mut Vec<u32>) {
        out.clear();
        match self.eviction {
            EvictionMode::Wheel => {
                let mut h = self.queue.head;
                while h != NIL && self.due(h, clock) {
                    out.push(h);
                    h = self.slab[h].queue_next;
                }
            }
            EvictionMode::Sweep => {
                out.extend(self.live_handles().filter(|&h| self.due(h, clock)));
            }
        }
    }

    /// Table-full eviction: names the stalest flow — the queue head — for
    /// the owner to close.
    pub(crate) fn probe_stalest(&self) -> Option<u32> {
        (self.queue.head != NIL).then_some(self.queue.head)
    }

    /// Forgets flow `h`: drops its index entry, takes it off its queue
    /// and returns its slot to the free list.
    pub(crate) fn remove(&mut self, h: u32) {
        self.index.remove(self.slab[h].hash.0, h);
        self.unlink(h);
        let slot = &mut self.slab[h];
        slot.flags = 0;
        slot.pending = None;
        slot.queue_prev = NIL;
        slot.queue_next = self.free_head;
        self.free_head = h;
    }

    /// Discards every flow without a word to the owner, keeping the
    /// allocations.
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.slab.0.clear();
        self.free_head = NIL;
        self.queue = EMPTY_QUEUE;
    }

    /// Heap footprint: index, slab and what its slots own (error logs,
    /// orient buffers and the heap of each packet they hold). O(slab).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let logs: usize = (0..self.slab.0.len() as u32)
            .map(|h| {
                let s = &self.slab[h];
                s.window_errors.heap_bytes()
                    + s.pending.as_ref().map_or(0, |b| {
                        size_of::<Vec<(u64, Packet)>>()
                            + b.capacity() * size_of::<(u64, Packet)>()
                            + b.iter().map(|(_, p)| p.heap_bytes()).sum::<usize>()
                    })
            })
            .sum();
        self.index.buckets.capacity() * size_of::<Bucket>() + self.slab.0.heap_bytes() + logs
    }
}

impl<S> std::ops::Index<u32> for FlowTable<S> {
    type Output = Slot;

    fn index(&self, h: u32) -> &Slot {
        let slot = &self.slab[h];
        debug_assert!(slot.live(), "handle {h} names a vacant slot");
        slot
    }
}

impl<S> std::ops::IndexMut<u32> for FlowTable<S> {
    fn index_mut(&mut self, h: u32) -> &mut Slot {
        let slot = &mut self.slab[h];
        debug_assert!(slot.live(), "handle {h} names a vacant slot");
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::CHUNK;
    use net_packet::Endpoint;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use std::collections::{BTreeMap, HashMap};
    use std::hash::{DefaultHasher, Hasher};
    use std::net::Ipv4Addr;

    /// Distinct flows the random traffic draws from: enough to keep a
    /// bounded table full, few enough that keys recur.
    const KEYS: u16 = 48;

    fn key(id: u16) -> FlowKey {
        FlowKey::new(
            Endpoint::new(Ipv4Addr::new(10, 0, 1, id as u8), 40_000 + id),
            Endpoint::new(Ipv4Addr::new(192, 0, 2, 1), 443),
        )
    }

    /// What the model knows of one live flow.
    #[derive(Debug, Clone, Copy)]
    struct Live {
        handle: u32,
        last_seen: f64,
    }

    /// A queue table, a sweep table and the naive model of both, driven
    /// through the same operations. The harness is the tables' owner: it
    /// closes what they name, in handle order, so the two free lists —
    /// and with them every later handle — stay comparable.
    struct Harness {
        tables: [FlowTable; 2],
        live: BTreeMap<u16, Live>,
        /// The free list as the model predicts it: a stack of handles.
        free: Vec<u32>,
        slots: u32,
        idle_timeout: f64,
        max_flows: usize,
        clock: f64,
    }

    impl Harness {
        fn new(idle_timeout: f64, max_flows: usize) -> Harness {
            let table = |mode| FlowTable::new(idle_timeout, max_flows, mode);
            Harness {
                tables: [table(EvictionMode::Wheel), table(EvictionMode::Sweep)],
                live: BTreeMap::new(),
                free: Vec::new(),
                slots: 0,
                idle_timeout,
                max_flows,
                clock: 0.0,
            }
        }

        /// One packet of flow `id` stamped `now`: what `ingest` does —
        /// make room, open, touch.
        fn packet(&mut self, id: u16, now: f64) {
            let ck = CanonicalKey::of_key(&key(id));
            // Each table keys its own hasher: the hashes differ, the
            // answers must not.
            let found = self.tables.each_ref().map(|t| t.lookup(&ck));
            assert_eq!(found[0].1, found[1].1);
            assert_eq!(found[0].1, self.live.get(&id).map(|f| f.handle));
            let h = match found[0].1 {
                Some(h) => h,
                None => {
                    if self.live.len() >= self.max_flows {
                        self.evict_stalest();
                    }
                    let want = self.free.pop().unwrap_or(self.slots);
                    let appended = want == self.slots;
                    self.slots += u32::from(appended);
                    for (t, (hash, _)) in self.tables.iter_mut().zip(found) {
                        let got = t.open(hash, key(id), now, u64::from(id));
                        assert_eq!(got, (want, appended), "free-list order");
                        assert!(t.capacity() <= self.max_flows.max(64), "slab clamp");
                    }
                    want
                }
            };
            for t in &mut self.tables {
                t.touch(h, now);
            }
            let flow = self.live.entry(id).or_insert(Live {
                handle: h,
                last_seen: 0.0,
            });
            flow.last_seen = now;
        }

        fn close(&mut self, h: u32) {
            let id = *self
                .live
                .iter()
                .find(|(_, f)| f.handle == h)
                .expect("closing a flow the model holds")
                .0;
            self.live.remove(&id);
            self.free.push(h);
            for t in &mut self.tables {
                t.remove(h);
            }
        }

        fn evict_stalest(&mut self) {
            let victims = self.tables.each_ref().map(FlowTable::probe_stalest);
            assert_eq!(victims[0], victims[1], "queue order");
            let Some(h) = victims[0] else {
                assert!(self.live.is_empty());
                return;
            };
            let seen = |f: &Live| f.last_seen;
            let victim = self.live.values().find(|f| f.handle == h).map(seen);
            assert!(victim.is_some(), "named a vacant slot");
            let stalest = self.live.values().map(seen).min_by(f64::total_cmp);
            assert_eq!(victim, stalest);
            self.close(h);
        }

        /// A sweep boundary: both tables and the model must name the same
        /// expired set.
        fn expire(&mut self) {
            let mut want: Vec<u32> = self
                .live
                .values()
                .filter(|f| f.last_seen < self.clock - self.idle_timeout)
                .map(|f| f.handle)
                .collect();
            want.sort_unstable();
            for t in &mut self.tables {
                let mut due = vec![u32::MAX];
                t.expired(self.clock, &mut due);
                due.sort_unstable();
                assert_eq!(due, want, "{:?} at clock {}", t.eviction, self.clock);
            }
            for h in want {
                self.close(h);
            }
        }

        fn clear(&mut self) {
            for t in &mut self.tables {
                t.clear();
            }
            self.live.clear();
            self.free.clear();
            self.slots = 0;
        }

        fn check(&self) {
            let mut handles: Vec<u32> = self.live.values().map(|f| f.handle).collect();
            handles.sort_unstable();
            for t in &self.tables {
                assert_eq!(t.len(), self.live.len());
                assert_eq!(t.slots(), self.slots as usize);
                assert_eq!(t.live_handles().collect::<Vec<_>>(), handles);
                for f in self.live.values() {
                    let slot = &t[f.handle];
                    assert_eq!(slot.last_seen(), f.last_seen);
                }
                // Both modes keep the queue: every live flow is on it,
                // nothing vacant is, the links agree both ways and
                // `last_seen` never falls from head to tail.
                let mut linked = 0;
                let (mut prev, mut h) = (NIL, t.queue.head);
                while h != NIL {
                    let slot = &t.slab[h];
                    assert!(slot.live(), "vacant slot {h} on the queue");
                    assert_eq!(slot.queue_prev, prev);
                    if prev != NIL {
                        assert!(t.slab[prev].last_seen <= slot.last_seen);
                    }
                    linked += 1;
                    (prev, h) = (h, slot.queue_next);
                }
                assert_eq!(t.queue.tail, prev);
                assert_eq!(linked, t.len());
            }
        }
    }

    proptest! {
        // No model to train and microseconds a case: ten times the cases
        // of the whole-scorer `wheel_idle_eviction_matches_sweep`.
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random open / touch / clock-jump / expire / capacity eviction
        /// / teardown / clear sequences, through a queue table, a sweep
        /// table and a `BTreeMap`: the same expired set at every
        /// boundary, the model's stalest flow from every capacity
        /// eviction, the same handle from every `open`, the index as
        /// large as the live set, and the queue sorted and complete.
        #[test]
        fn table_matches_a_naive_model_in_both_eviction_modes(
            seed in any::<u64>(),
            idle_timeout in prop_oneof![Just(2.0f64), Just(30.0), Just(300.0)],
            max_flows in prop_oneof![Just(6usize), Just(24usize), Just(1usize << 20)],
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut h = Harness::new(idle_timeout, max_flows);
            for _ in 0..400 {
                let id = rng.gen_range(0..KEYS);
                match rng.gen_range(0..100) {
                    0..=39 => h.packet(id, h.clock),
                    // A caller whose clock ran backwards: the queue stays
                    // sorted all the same.
                    40..=44 => h.packet(id, h.clock - idle_timeout * rng.gen_range(0.0..1.5)),
                    45..=64 => {
                        // Mostly a fraction of the timeout, sometimes past
                        // it, now and then hours.
                        h.clock += match rng.gen_range(0..20) {
                            0 => rng.gen_range(3_600.0..200_000.0),
                            1..=4 => idle_timeout * rng.gen_range(0.5..2.0),
                            _ => idle_timeout * rng.gen_range(0.0..0.2),
                        };
                    }
                    65..=82 => h.expire(),
                    83..=93 => {
                        if let Some(flow) = h.live.get(&id) {
                            h.close(flow.handle);
                        }
                    }
                    94..=98 => h.evict_stalest(),
                    _ => h.clear(),
                }
                h.check();
            }
        }

        /// Random open / find / re-orient / remove / clear sequences
        /// through the table's index and a `HashMap` oracle, under std's
        /// hasher and the two rigged ones.
        #[test]
        fn index_matches_a_hashmap_oracle(seed in any::<u64>(), regime in 0..3u8) {
            match regime {
                0 => index_against_oracle::<RandomState>(seed),
                1 => index_against_oracle::<OneRun>(seed),
                _ => index_against_oracle::<LastTwoHomes>(seed),
            }
        }
    }

    thread_local! {
        /// Keys this thread's [`Rigged`] hashers have been asked to hash
        /// (the test harness runs each test on a thread of its own).
        static HASHED: Cell<usize> = const { Cell::new(0) };
    }

    /// SipHash under fixed keys, forced to `(hash & AND) | OR`, counting
    /// every key hashed in [`HASHED`].
    #[derive(Debug, Default)]
    struct Rigged<const AND: u64, const OR: u64>;

    struct RiggedHasher<const AND: u64, const OR: u64>(DefaultHasher);

    impl<const AND: u64, const OR: u64> BuildHasher for Rigged<AND, OR> {
        type Hasher = RiggedHasher<AND, OR>;

        fn build_hasher(&self) -> Self::Hasher {
            HASHED.set(HASHED.get() + 1);
            RiggedHasher(DefaultHasher::new())
        }
    }

    impl<const AND: u64, const OR: u64> Hasher for RiggedHasher<AND, OR> {
        fn write(&mut self, bytes: &[u8]) {
            self.0.write(bytes);
        }

        fn finish(&self) -> u64 {
            (self.0.finish() & AND) | OR
        }
    }

    /// An honest hash, counted.
    type Counted = Rigged<{ u64::MAX }, 0>;
    /// Every key gets one hash: the whole index is a single probe run
    /// of equal tags, so only the key comparison in the slab can tell a
    /// hit from a miss.
    type OneRun = Rigged<0, 7>;
    /// Every tag is all-ones or all-ones-but-the-last-bit: whatever the
    /// array's size, homes are its last two buckets, so every probe run
    /// — and every backward shift — wraps around its end.
    type LastTwoHomes = Rigged<1, { u64::MAX << 1 }>;

    fn ck(id: u16) -> CanonicalKey {
        CanonicalKey::of_key(&key(id))
    }

    fn table_with<S: BuildHasher + Default>() -> FlowTable<S> {
        FlowTable::new(30.0, 1 << 20, EvictionMode::Wheel)
    }

    /// What `ingest` does with a packet of flow `id`: one lookup, and on
    /// a miss `open` with the hash the lookup made.
    fn packet<S: BuildHasher + Default>(t: &mut FlowTable<S>, id: u16) -> u32 {
        let (hash, found) = t.lookup(&ck(id));
        let h = found.unwrap_or_else(|| t.open(hash, key(id), 0.0, u64::from(id)).0);
        t.touch(h, 0.0);
        h
    }

    /// The index's own invariants: a power-of-two array at load ≤ 1/2,
    /// one bucket per live flow carrying the tag its slot stores, and
    /// every bucket reachable from its home without crossing an empty one.
    fn check_index<S: BuildHasher + Default>(t: &FlowTable<S>) {
        let buckets = &t.index.buckets;
        if buckets.is_empty() {
            assert_eq!(t.index.len, 0);
            return;
        }
        assert!(buckets.len().is_power_of_two());
        assert!(t.index.len * 2 <= buckets.len(), "load above 1/2");
        let mask = buckets.len() - 1;
        let mut handles = Vec::new();
        for (i, b) in buckets.iter().enumerate().filter(|(_, b)| b.handle != NIL) {
            handles.push(b.handle);
            assert_eq!(t[b.handle].hash, KeyHash(b.tag));
            let mut at = b.tag as usize & mask;
            while at != i {
                assert!(
                    buckets[at].handle != NIL,
                    "bucket {i} is cut off from its home"
                );
                at = (at + 1) & mask;
            }
        }
        handles.sort_unstable();
        assert_eq!(handles, t.live_handles().collect::<Vec<_>>());
        assert_eq!(handles.len(), t.index.len);
    }

    fn index_against_oracle<S: BuildHasher + Default>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = table_with::<S>();
        let mut oracle: HashMap<CanonicalKey, u32> = HashMap::new();
        for _ in 0..300 {
            let id = rng.gen_range(0..KEYS);
            match rng.gen_range(0..100) {
                0..=49 => {
                    let h = packet(&mut t, id);
                    assert_eq!(*oracle.entry(ck(id)).or_insert(h), h);
                }
                50..=59 => {
                    // A late SYN re-orients the slot's key; the canonical
                    // key it is found by does not move.
                    if let Some(&h) = oracle.get(&ck(id)) {
                        let k = t[h].key;
                        t[h].key = FlowKey::new(k.server, k.client).with_proto(k.proto);
                    }
                }
                60..=98 => {
                    if let Some(h) = oracle.remove(&ck(id)) {
                        t.remove(h);
                    }
                }
                _ => {
                    t.clear();
                    oracle.clear();
                }
            }
            assert_eq!(t.len(), oracle.len());
            for id in 0..KEYS {
                assert_eq!(
                    t.lookup(&ck(id)).1,
                    oracle.get(&ck(id)).copied(),
                    "key {id}"
                );
            }
            check_index(&t);
        }
    }

    /// One hash per packet — established flow or new — and none in
    /// `remove`, `clear` or the growth that 1 000 opens force.
    #[test]
    fn only_lookup_hashes() {
        let mut t = table_with::<Counted>();
        let handles: Vec<u32> = (0..1_000).map(|id| packet(&mut t, id)).collect();
        assert_eq!(
            HASHED.get(),
            1_000,
            "one hash per flow opened, none to grow"
        );
        assert!(t.index.buckets.len() >= 2_000);
        check_index(&t);
        for (id, &h) in handles.iter().enumerate() {
            assert_eq!(packet(&mut t, id as u16), h, "growth kept the mapping");
        }
        assert_eq!(HASHED.get(), 2_000, "one hash per packet of a live flow");
        for &h in handles.iter().step_by(2) {
            t.remove(h);
        }
        check_index(&t);
        t.clear();
        assert_eq!(HASHED.get(), 2_000, "remove and clear hash nothing");
        assert_eq!((t.len(), t.lookup(&ck(1)).1), (0, None));
    }

    /// 4 096 distinct keys with one tag — the probe run an attacker
    /// would want — cost time, never a wrong answer.
    #[test]
    fn one_home_for_every_key_stays_correct() {
        let mut t = table_with::<OneRun>();
        let handles: Vec<u32> = (0..4_096).map(|id| packet(&mut t, id)).collect();
        for &h in handles.iter().step_by(2) {
            t.remove(h);
        }
        check_index(&t);
        for (id, &h) in handles.iter().enumerate() {
            let found = t.lookup(&ck(id as u16)).1;
            assert_eq!(found, (id % 2 == 1).then_some(h), "key {id}");
        }
    }

    /// Opening flows through four chunks, the slab reserves within one
    /// chunk of its peak and never past the table's size — `max_flows =
    /// CHUNK + 7` cuts the second chunk short — and once a slot's chunk
    /// is whole, growth moves neither the slot nor what it holds.
    #[test]
    fn slab_reserves_a_chunk_at_a_time_and_never_moves_a_slot() {
        for max_flows in [CHUNK + 7, 1 << 20] {
            let mut t = FlowTable::<RandomState>::new(30.0, max_flows, EvictionMode::Wheel);
            let mut pinned: Vec<(u16, u32, *const Slot)> = Vec::new();
            for id in 0..(4 * CHUNK + 1).min(max_flows) as u16 {
                let before = t.capacity();
                let h = packet(&mut t, id);
                let bound = t.slots().next_multiple_of(CHUNK).min(max_flows);
                assert!(
                    t.capacity() <= bound,
                    "{} slots reserved for {}",
                    t.capacity(),
                    t.slots()
                );
                if t.slots() == CHUNK {
                    pinned = (0..CHUNK as u16)
                        .map(|id| (id, u32::from(id), &t[u32::from(id)] as *const Slot))
                        .collect();
                } else if t.slots() > CHUNK {
                    pinned.push((id, h, &t[h]));
                }
                if t.capacity() != before {
                    for &(id, h, at) in &pinned {
                        assert!(std::ptr::eq(&t[h], at), "slot {h} moved");
                        assert_eq!(t[h].key, key(id));
                    }
                }
            }
            let reserved = if max_flows == CHUNK + 7 {
                max_flows
            } else {
                5 * CHUNK
            };
            assert_eq!(t.capacity(), reserved);
        }
    }

    /// The production hasher is keyed per table: nothing learnt from one
    /// table's collisions carries over to another's.
    #[test]
    fn two_tables_hash_one_key_differently() {
        let hashes = |t: &FlowTable| -> Vec<KeyHash> {
            let of = |id| t.lookup(&ck(id)).0;
            (0..4).map(of).collect()
        };
        assert_ne!(hashes(&table_with()), hashes(&table_with()));
    }
}
