//! Training lanes: the threads one `train()` call spreads its batches over.
//!
//! [`scope`] runs a closure with the calling thread plus
//! `rayon::current_num_threads() − 1` helpers, spawned once for the call
//! and joined when it returns. A training step hands them *phases*: a
//! phase is a count of units and one job, every unit runs exactly once on
//! whichever lane claims it from a shared counter, and the phase returns
//! when the last unit has finished. Claiming unit by unit, not by fixed
//! shares, means a lane the host deschedules holds up at most the one
//! unit it is running. Between phases the helpers spin, then yield; they
//! never park, so a phase starts without a wake-up (about 1 ms on an idle
//! virtual CPU, against a phase of about half that).
//!
//! Which lane runs a unit never shows in a result: a unit writes only its
//! own outputs, each with the same chain of operations it would run alone
//! ([`Board`] hands out those outputs), and anything summed across units
//! is summed by the caller, in a fixed order. One lane is the same code
//! with no helpers.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Idle polls a lane spins through before it starts yielding its CPU
/// (under Miri, whose interpreted threads gain nothing by spinning, one).
const SPINS: u32 = if cfg!(miri) { 1 } else { 1 << 12 };

/// A phase's job, called once per unit.
type Job<'a> = &'a (dyn Fn(usize) + Sync);

/// What the lanes of one [`scope`] share.
struct Shared {
    /// `units << 32 | next`: the current phase's unit count and its next
    /// unclaimed unit. A claim is one `fetch_add`; a phase starts with
    /// one store.
    claim: AtomicU64,
    /// Units of the current phase that have finished, on a cache line of
    /// its own: every finished unit writes it, and the helpers poll the
    /// line `claim` is on.
    done: OwnLine<AtomicUsize>,
    /// The current phase's job, its lifetime erased; written by the
    /// caller only between phases.
    job: UnsafeCell<Option<Job<'static>>>,
    /// The first panic a unit raised in this phase, re-raised by the
    /// caller once the phase is over.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set when the scope ends: the helpers return.
    stop: AtomicBool,
}

// SAFETY: the atomics and the mutex synchronise themselves; `job` is the
// one field without. The caller writes it only between phases (after
// `done` has counted every unit of the last one) and before it publishes
// the next with a release store of `claim`; a lane reads it only after
// winning a claim of that phase, which acquires the store, and before
// counting its unit `done`. The job it points to is `Sync`.
unsafe impl Sync for Shared {}

/// A value alone on its cache line.
#[repr(align(64))]
struct OwnLine<T>(T);

/// The lanes of one [`scope`]. Not `Sync`, so neither a job (`Sync`) nor
/// a phase's `caller` closure (`Send`) can hold it and start a phase
/// inside a phase.
pub(crate) struct Lanes<'s> {
    shared: &'s Shared,
    _not_sync: PhantomData<Cell<()>>,
}

/// Runs `f` with `rayon::current_num_threads()` lanes: the caller and
/// that many minus one helpers, which live until `f` returns. Inside
/// `ThreadPool::install(1)`, or on a rayon worker, that is the caller
/// alone.
pub(crate) fn scope<R>(f: impl FnOnce(&Lanes) -> R) -> R {
    let helpers = rayon::current_num_threads().max(1) - 1;
    let shared = Shared {
        claim: AtomicU64::new(0),
        done: OwnLine(AtomicUsize::new(0)),
        job: UnsafeCell::new(None),
        panic: Mutex::new(None),
        stop: AtomicBool::new(false),
    };
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(|| help(&shared));
        }
        // Stops the helpers however `f` ends, or the scope never joins.
        let _stop = Stop(&shared);
        f(&Lanes {
            shared: &shared,
            _not_sync: PhantomData,
        })
    })
}

struct Stop<'s>(&'s Shared);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::Release);
    }
}

/// A helper's life: claim units while a phase has some, otherwise spin,
/// then yield, until the scope ends.
fn help(shared: &Shared) {
    let mut idle = 0u32;
    while !shared.stop.load(Ordering::Acquire) {
        let (units, next) = split(shared.claim.load(Ordering::Relaxed));
        if next < units {
            work(shared);
            idle = 0;
        } else if idle < SPINS {
            idle += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

fn split(claim: u64) -> (usize, usize) {
    ((claim >> 32) as usize, claim as u32 as usize)
}

/// Claims and runs units of the current phase until none is left.
fn work(shared: &Shared) {
    loop {
        let (units, next) = split(shared.claim.load(Ordering::Relaxed));
        if next >= units {
            return;
        }
        let (units, unit) = split(shared.claim.fetch_add(1, Ordering::Acquire));
        if unit >= units {
            return;
        }
        // SAFETY: this lane won `unit` of the phase whose `claim` store it
        // just acquired, so the caller wrote that phase's job before, and
        // writes `job` again only after this unit is counted `done` below.
        let job = unsafe { *shared.job.get() }.expect("a published phase has a job");
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| job(unit))) {
            let mut first = shared.panic.lock().unwrap_or_else(|p| p.into_inner());
            first.get_or_insert(payload);
        }
        shared.done.0.fetch_add(1, Ordering::Release);
    }
}

impl Lanes<'_> {
    /// Runs `job(u)` for every `u` in `0..units`, each once, on whichever
    /// lane claims it, and `caller` on the calling thread while the
    /// helpers start; returns when all of it is done. A panic in either is
    /// re-raised here, after the phase is over. A phase of one unit runs
    /// on the caller.
    fn run(&self, units: usize, job: &(dyn Fn(usize) + Sync), caller: impl FnOnce() + Send) {
        assert!(units < 1 << 32, "too many units in one phase");
        if units <= 1 {
            // Nothing to share: the helpers are not told.
            caller();
            return (0..units).for_each(job);
        }
        let shared = self.shared;
        // SAFETY: no phase is running (the last `run` waited until `done`
        // counted all its units), so no lane reads `job` until the `claim`
        // store below publishes this phase; `job` outlives the phase,
        // because this function waits for the phase to end before it
        // returns or unwinds.
        unsafe {
            *shared.job.get() = Some(std::mem::transmute::<Job<'_>, Job<'static>>(job));
        }
        shared.done.0.store(0, Ordering::Relaxed);
        shared.claim.store((units as u64) << 32, Ordering::Release);
        let caller = panic::catch_unwind(AssertUnwindSafe(caller));
        work(shared);
        let mut idle = 0u32;
        while shared.done.0.load(Ordering::Acquire) < units {
            if idle < SPINS {
                idle += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SAFETY: every unit of the phase is done (acquired above), so no
        // lane reads `job` until the next phase is published.
        unsafe { *shared.job.get() = None };
        let payload = shared
            .panic
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        if let Some(payload) = payload.or(caller.err()) {
            panic::resume_unwind(payload);
        }
    }

    /// Runs `job(i, &mut items[i])` for every item, each on one lane.
    pub(crate) fn each_mut<T: Send>(&self, items: &mut [T], job: impl Fn(usize, &mut T) + Sync) {
        let base = Base(items.as_mut_ptr());
        let base = &base;
        self.run(
            items.len(),
            &|i| {
                // SAFETY: `i < items.len()` is a unit of this phase, and the
                // claim counter hands each unit to exactly one lane, so this
                // is the only reference to `items[i]` while the phase runs;
                // `items` stays mutably borrowed until it ends.
                let item = unsafe { &mut *base.0.add(i) };
                job(i, item)
            },
            || {},
        );
    }

    /// Runs `job` on every block of `board`, each on one lane, and
    /// `caller` on the calling thread meanwhile.
    pub(crate) fn each_block(
        &self,
        board: &Board,
        job: impl Fn(Block<'_>) + Sync,
        caller: impl FnOnce() + Send,
    ) {
        self.run(board.units(), &|unit| job(board.block(unit)), caller);
    }
}

/// The base of a slice whose elements lanes take one each.
struct Base<T>(*mut T);

// SAFETY: shared only inside `each_mut`, whose units reach disjoint
// elements (see the claim there); `T: Send` lets them move across lanes.
unsafe impl<T: Send> Sync for Base<T> {}

/// Storage for a [`Board`]'s table of buffers, kept across phases so that
/// setting up a phase does not allocate once the first one has.
#[derive(Debug, Default)]
pub(crate) struct Table {
    parts: Vec<Part>,
    groups: Vec<Group>,
}

/// One buffer on the board: `rows × width` floats, row-major.
#[derive(Debug)]
struct Part {
    ptr: *mut f32,
    width: usize,
}

/// Buffers that share a row count and a split into blocks of rows.
#[derive(Debug)]
struct Group {
    /// Index of the group's first part.
    first: usize,
    rows: usize,
    block: usize,
    /// Units before this group's first block.
    units_before: usize,
}

/// The buffers a phase's units write, each split into blocks of rows.
/// Buffers join in groups that share a row count and a block size; a unit
/// is one block of one group and may write that block's rows of the
/// group's buffers and nothing else — so every row has one writer.
pub(crate) struct Board<'a> {
    table: &'a mut Table,
    /// The boarded buffers stay mutably borrowed while the board lives.
    _bufs: PhantomData<&'a mut [f32]>,
}

// SAFETY: the table's pointers, to `f32`s borrowed for `'a`, are
// dereferenced only through `Block::parts`, and `Board::block` makes one
// `Block` per claimed unit, whose rows no other unit of the phase owns;
// the rest of the table is only read while lanes share the board.
unsafe impl Sync for Board<'_> {}

impl<'a> Board<'a> {
    pub(crate) fn new(table: &'a mut Table) -> Self {
        table.parts.clear();
        table.groups.clear();
        Board {
            table,
            _bufs: PhantomData,
        }
    }

    /// Opens a group of buffers with `rows` rows each, one unit per block
    /// of `block` rows.
    pub(crate) fn group(&mut self, rows: usize, block: usize) {
        assert!(block > 0, "a block has rows");
        let units_before = self.units();
        self.table.groups.push(Group {
            first: self.table.parts.len(),
            rows,
            block,
            units_before,
        });
    }

    /// Adds `buf`, `width` floats a row, to the open group.
    pub(crate) fn part(&mut self, buf: &'a mut [f32], width: usize) {
        let group = self.table.groups.last().expect("a part joins a group");
        assert_eq!(buf.len(), group.rows * width, "part shape mismatch");
        self.table.parts.push(Part {
            ptr: buf.as_mut_ptr(),
            width,
        });
    }

    fn units(&self) -> usize {
        self.table
            .groups
            .last()
            .map_or(0, |g| g.units_before + g.rows.div_ceil(g.block))
    }

    /// The block unit `unit` owns; called once per claimed unit.
    fn block(&self, unit: usize) -> Block<'_> {
        let groups = &self.table.groups;
        let g = groups.partition_point(|g| g.units_before <= unit) - 1;
        let group = &groups[g];
        let start = (unit - group.units_before) * group.block;
        let end = group.rows.min(start + group.block);
        let last = groups
            .get(g + 1)
            .map_or(self.table.parts.len(), |n| n.first);
        Block {
            parts: &self.table.parts[group.first..last],
            group: g,
            rows: start..end,
        }
    }
}

/// One unit's share of a [`Board`]: a block of rows of one group.
pub(crate) struct Block<'b> {
    parts: &'b [Part],
    group: usize,
    rows: Range<usize>,
}

impl Block<'_> {
    /// The group's index, in the order the board opened them.
    pub(crate) fn group(&self) -> usize {
        self.group
    }

    /// The rows this block owns.
    pub(crate) fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// This block's rows of the group's parts `idx` (numbered in the order
    /// they joined the group), which must be distinct.
    pub(crate) fn parts<const N: usize>(&mut self, idx: [usize; N]) -> [&mut [f32]; N] {
        for (i, a) in idx.iter().enumerate() {
            assert!(!idx[..i].contains(a), "part {a} taken twice");
        }
        idx.map(|i| {
            let part = &self.parts[i];
            let (start, len) = (self.rows.start * part.width, self.rows.len() * part.width);
            // SAFETY: the block's rows of this part lie inside the buffer
            // `Board::part` checked to be `rows × width`; no other unit
            // owns these rows (each unit is claimed by one lane and names
            // one block), the distinct indices above give each part once,
            // and the `&mut self` borrow keeps this call's slices apart
            // from any later call's.
            unsafe { std::slice::from_raw_parts_mut(part.ptr.add(start), len) }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pinned<R>(lanes: usize, f: impl FnOnce() -> R) -> R {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(lanes)
            .build()
            .unwrap();
        pool.install(f)
    }

    #[test]
    fn every_unit_runs_once_at_any_lane_count() {
        for lanes in 1..=3 {
            let mut hits = vec![0u32; 37];
            pinned(lanes, || {
                scope(|l| {
                    for round in 1..=3 {
                        l.each_mut(&mut hits, |i, h| *h += (i as u32 + 1) * round);
                    }
                })
            });
            let want: Vec<u32> = (1..=37).map(|i| i * 6).collect();
            assert_eq!(hits, want, "{lanes} lanes");
        }
    }

    #[test]
    fn blocks_cover_each_row_of_each_group_once() {
        let mut a = vec![0.0f32; 7 * 3];
        let mut b = vec![0.0f32; 7];
        let mut c = vec![0.0f32; 5 * 2];
        let mut table = Table::default();
        for lanes in 1..=3 {
            let mut board = Board::new(&mut table);
            board.group(7, 2);
            board.part(&mut a, 3);
            board.part(&mut b, 1);
            board.group(5, 4);
            board.part(&mut c, 2);
            let mut ran = false;
            pinned(lanes, || {
                scope(|l| {
                    l.each_block(
                        &board,
                        |mut blk| {
                            let (g, rows) = (blk.group(), blk.rows());
                            let tag = |r: usize| (g * 100 + r) as f32;
                            if g == 0 {
                                let [a, b] = blk.parts([0, 1]);
                                for (i, r) in rows.enumerate() {
                                    a[3 * i..3 * i + 3].iter_mut().for_each(|v| *v += tag(r));
                                    b[i] += tag(r);
                                }
                            } else {
                                let [c] = blk.parts([0]);
                                for (i, r) in rows.enumerate() {
                                    c[2 * i..2 * i + 2].iter_mut().for_each(|v| *v += tag(r));
                                }
                            }
                        },
                        || ran = true,
                    )
                })
            });
            assert!(ran);
            let n = lanes as f32;
            assert!(a
                .chunks(3)
                .enumerate()
                .all(|(r, v)| v.iter().all(|&x| x == r as f32 * n)));
            assert!(b.iter().enumerate().all(|(r, &x)| x == r as f32 * n));
            assert!(c
                .chunks(2)
                .enumerate()
                .all(|(r, v)| v.iter().all(|&x| x == (100 + r) as f32 * n)));
        }
    }

    #[test]
    #[should_panic(expected = "part 1 taken twice")]
    fn a_block_gives_each_part_once() {
        let (mut a, mut b) = (vec![0.0f32; 4], vec![0.0f32; 4]);
        let mut table = Table::default();
        let mut board = Board::new(&mut table);
        board.group(4, 4);
        board.part(&mut a, 1);
        board.part(&mut b, 1);
        scope(|l| {
            l.each_block(
                &board,
                |mut blk| {
                    let _ = blk.parts([1, 0, 1]);
                },
                || {},
            )
        });
    }

    #[test]
    fn a_panicking_unit_surfaces_after_the_phase() {
        for lanes in 1..=2 {
            let mut items = vec![0u8; 9];
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pinned(lanes, || {
                    scope(|l| {
                        l.each_mut(&mut items, |i, v| {
                            assert_ne!(i, 4, "unit four fails");
                            *v = 1;
                        })
                    })
                })
            }));
            let msg = caught.unwrap_err();
            assert!(msg
                .downcast_ref::<String>()
                .unwrap()
                .contains("unit four fails"));
            assert_eq!(
                items.iter().filter(|&&v| v == 1).count(),
                8,
                "{lanes} lanes"
            );
        }
    }
}
