//! Steady-state allocation discipline for the streaming flow table and
//! the offline scorer.
//!
//! At a churn plateau the stream scorer recycles slab slots,
//! resident-arena rows and the canonical-key map in place, so the
//! per-packet hot path must not allocate. The only inherent allocation is
//! per flow *retirement*: a [`ClosedFlow`] takes ownership of the flow's
//! score log (`mem::take` of `window_errors`), so the recycled slot
//! regrows a small vector for its next occupant. Offline, a warmed-up
//! [`ClapScorer`] allocates exactly the `window_errors` it returns. This
//! test pins those facts with a counting global allocator: allocations
//! scale with flows closed or connections scored, not with packets.
//!
//! The same allocator tracks *live* bytes, which is what
//! [`StreamScorer::mem_bytes`] estimates from capacities: the benchmark's
//! `bytes_per_flow` is that estimate divided by peak flows, so a table
//! term it stopped counting would read as a memory gain. The third case
//! holds the estimate to the allocator's own count, with the table
//! clamped near its plateau and unclamped, where it reserves a chunk at a
//! time.
//!
//! Growth itself allocates and never reallocates-and-copies the table:
//! opening thousands of flows costs an allocation per chunk of the slab
//! and of each resident array, one per index growth and a constant, and
//! no reallocation moves more than half a chunk (the fifth case).
//!
//! Training has the same discipline per batch: `Autoencoder::train` sizes
//! its workspace on the first batch and reuses it, so a longer run costs
//! no extra allocation, on any number of training lanes (the fourth case).
//! `GruClassifier::train` allocates per sequence, never per step, so
//! longer sequences cost no extra allocation either (the sixth case).
//!
//! The whole file is one `#[test]` because the counters are
//! process-global.
//!
//! [`ClosedFlow`]: clap_core::ClosedFlow
//! [`ClapScorer`]: clap_core::ClapScorer
//! [`StreamScorer::mem_bytes`]: clap_core::StreamScorer::mem_bytes

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use clap_core::{
    Clap, ClapConfig, EvictionMode, QuantMode, ResidentMode, StageHists, StreamCells, StreamConfig,
    NUM_INDICATORS, PROFILE_LEN,
};
use net_packet::{Ipv4Header, Packet, TcpFlags, TcpHeader, TcpOption};
use neural::{Autoencoder, AutoencoderConfig, GruClassifier, GruClassifierConfig, Matrix};
use std::net::Ipv4Addr;
use traffic_gen::ChurnConfig;

/// Counts every heap acquisition (alloc, alloc_zeroed, realloc) in
/// [`ALLOCS`] — deallocation is free and uncounted there — the bytes
/// currently held in [`LIVE`] (requested sizes: alloc − dealloc, a realloc
/// by its difference) and the largest block a realloc moved in
/// [`REALLOC_MAX`].
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Wrapping: only differences between two reads are meaningful.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// Old size of the largest block reallocated since the last reset.
static REALLOC_MAX: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        REALLOC_MAX.fetch_max(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const WARMUP_PACKETS: usize = 20_000;
const WINDOW_PACKETS: usize = 40_000;
const PLATEAU_FLOWS: usize = 96;
/// Rows per chunk of the flow table's slab and resident arrays (clap-core's
/// crate-private `chunked::CHUNK`).
const CHUNK: usize = 1024;
/// Bytes of one flow-table slot (const-asserted in clap-core's
/// `flow_table.rs`).
const SLOT_BYTES: usize = 184;

#[test]
fn hot_paths_do_not_allocate_per_packet() {
    let benign = traffic_gen::dataset(77, 20);
    let mut cfg = ClapConfig::ci();
    cfg.ae.epochs = 8;
    let clap = Clap::train(&benign, &cfg).0;
    steady_state_pushes_do_not_allocate_per_packet(&clap);
    offline_scoring_allocates_only_its_results(&clap, &benign);
    mem_bytes_tracks_the_allocator(&clap);
    autoencoder_training_allocates_per_run_not_per_batch();
    growth_allocates_a_chunk_at_a_time(&clap);
    gru_training_allocates_per_sequence_not_per_step();
}

fn steady_state_pushes_do_not_allocate_per_packet(clap: &Clap) {
    // Pre-materialize the whole stream so generator allocations (packet
    // buffers, RNG state) stay outside the measured window.
    let churn = ChurnConfig::new(0xa110c, PLATEAU_FLOWS, WARMUP_PACKETS + WINDOW_PACKETS);
    let packets: Vec<_> = traffic_gen::churn(&churn).collect();
    assert_eq!(packets.len(), WARMUP_PACKETS + WINDOW_PACKETS);

    let mut scorer = clap.stream_scorer_with(StreamConfig {
        quant: QuantMode::Off,
        resident: ResidentMode::Int8,
        eviction: EvictionMode::Wheel,
        idle_timeout: 30.0,
        ..StreamConfig::default()
    });
    // Telemetry on: counter cells and stage histograms attached up front
    // must keep the measured hot path allocation-free (the cells are
    // fixed-size atomics; a latency sample records into preallocated
    // buckets).
    scorer.attach_telemetry(std::sync::Arc::new(StreamCells::default()));
    scorer.attach_stages(std::sync::Arc::new(StageHists::default()));

    // Warmup: reach the churn plateau so the slab, resident arena, key
    // map and every scratch buffer are at their steady size.
    for p in &packets[..WARMUP_PACKETS] {
        scorer.push(p);
    }
    drop(scorer.drain_closed());
    let closed_before: u64 = {
        let s = scorer.stats();
        s.closed_tcp + s.evicted_idle + s.evicted_capacity + s.length_capped
    };

    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    for p in &packets[WARMUP_PACKETS..] {
        scorer.push(p);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;

    let closed: u64 = {
        let s = scorer.stats();
        s.closed_tcp + s.evicted_idle + s.evicted_capacity + s.length_capped
    } - closed_before;
    assert!(
        closed > 1_000,
        "churn window retired only {closed} flows — not a steady-state measurement"
    );

    eprintln!("steady window: {allocs} allocations, {WINDOW_PACKETS} packets, {closed} closes");

    // Retiring a flow hands its score log to the ClosedFlow and regrows a
    // small vector in the recycled slot: a handful of allocations per
    // close. Nothing on the per-packet path allocates.
    let budget = closed * 8 + 256;
    assert!(
        allocs <= budget,
        "{allocs} allocations for {WINDOW_PACKETS} packets / {closed} closes \
         (budget {budget}) — the per-packet path is allocating"
    );
    assert!(
        allocs < (WINDOW_PACKETS as u64) / 4,
        "{allocs} allocations across {WINDOW_PACKETS} packets — \
         allocation is scaling with packets, not flow turnover"
    );
}

/// A reused `ClapScorer` owns every buffer its per-packet core needs; once
/// one connection has been through them, scoring costs one allocation per
/// connection — the exact-capacity `window_errors` it hands back — at
/// either precision, however many packets the connection has.
fn offline_scoring_allocates_only_its_results(clap: &Clap, conns: &[net_packet::Connection]) {
    let packets: usize = conns.iter().map(net_packet::Connection::len).sum();
    assert!(
        packets > 20 * conns.len(),
        "connections are many packets long"
    );
    for mode in [QuantMode::Off, QuantMode::Int8] {
        let mut scorer = clap.scorer_with(mode);
        scorer.score_connection(&conns[0]);
        let allocs_before = ALLOCS.load(Ordering::Relaxed);
        for conn in conns {
            let scored = scorer.score_connection(conn);
            assert_eq!(scored.window_errors.len(), scored.window_errors.capacity());
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
        assert_eq!(
            allocs,
            conns.len() as u64,
            "{mode:?}: {allocs} allocations for {} connections / {packets} packets",
            conns.len()
        );
    }
}

/// `mem_bytes()` is an estimate from capacities; the allocator knows the
/// truth. Between the first packet and a 4 608-flow churn plateau (the
/// benchmark's `churn_16k` shape, smaller) the two must grow by the same
/// amount to within [`MEM_TOLERANCE`], at both resident precisions — so
/// a table term that drops out of the estimate, or is counted twice,
/// fails here instead of moving `bytes_per_flow`. Each precision runs
/// twice: with the table clamped just above the plateau, and unclamped at
/// 2²⁰ flows as `syn_scan` and `mixed_frag` run it, where the slab and
/// resident arrays reserve whole chunks — so its bytes per flow exceed
/// the clamped table's by less than one chunk of per-slot cost. The
/// plateau is 4½ chunks: 5 120 slots reserved, where doubling would
/// reserve 8 192. A last run opens 4 608 flows mid-stream and stops while
/// each still holds its first packets for orientation, so the estimate
/// must count what those packets own.
fn mem_bytes_tracks_the_allocator(clap: &Clap) {
    const FLOWS: usize = 4608;
    // The benchmark's bound on `bytes_per_flow`; measured 0.1 % apart.
    const MEM_TOLERANCE: f64 = 0.02;
    let churn = ChurnConfig {
        // 0.02 s of packet time: nothing idles out, flows leave by
        // teardown and their slots are reused.
        pps: 2e6,
        ..ChurnConfig::new(0x3e3b, FLOWS, FLOWS * 10)
    };
    let packets: Vec<_> = traffic_gen::churn(&churn).collect();
    // Slot plus resident state: the hidden vector and `stack − 1` packed
    // profile rows — each the profile's dense values and one word of
    // indicator bits — as f32, or as codes with one quant pair per row.
    let (hidden, stack) = (clap.config.rnn.hidden, clap.config.stack);
    let (rows, dense) = (stack - 1, PROFILE_LEN - NUM_INDICATORS);
    let (word, pair) = (8, std::mem::size_of::<neural::ActQuant>());
    for (quant, resident, slot_bytes) in [
        (
            QuantMode::Off,
            ResidentMode::F32,
            SLOT_BYTES + 4 * hidden + rows * (4 * dense + word),
        ),
        (
            QuantMode::Int8,
            ResidentMode::Int8,
            SLOT_BYTES + hidden + pair + rows * (dense + word + pair),
        ),
    ] {
        let mut clamped_per_flow = None;
        for max_flows in [FLOWS + FLOWS / 32, 1 << 20] {
            let mut scorer = clap.stream_scorer_with(StreamConfig {
                quant,
                resident,
                idle_timeout: 30.0,
                max_flows,
                ..StreamConfig::default()
            });
            scorer.push(&packets[0]);
            let (live_before, mem_before) = (LIVE.load(Ordering::Relaxed), scorer.mem_bytes());
            for (i, p) in packets.iter().enumerate().skip(1) {
                scorer.push(p);
                if i % 1024 == 0 {
                    // Verdicts belong to the caller, not to the table.
                    drop(scorer.drain_closed());
                }
            }
            drop(scorer.drain_closed());
            let live = LIVE.load(Ordering::Relaxed).wrapping_sub(live_before) as f64;
            let mem = (scorer.mem_bytes() - mem_before) as f64;

            let stats = scorer.stats();
            assert!(
                stats.flows_peak >= FLOWS as u64 && stats.closed_tcp > 1_000,
                "{resident:?}: peak {} flows, {} closed — not a churn plateau",
                stats.flows_peak,
                stats.closed_tcp
            );
            let peak = stats.flows_peak as f64;
            let per_flow = mem / peak;
            eprintln!(
                "{resident:?}, max_flows {max_flows}: mem_bytes grew {mem:.0} B, the allocator \
                 {live:.0} B (ratio {:.4}, {per_flow:.1} B/flow estimated)",
                mem / live,
            );
            assert!(
                (mem / live - 1.0).abs() <= MEM_TOLERANCE,
                "{resident:?}, max_flows {max_flows}: mem_bytes() grew {mem:.0} B where the \
                 allocator counted {live:.0} B"
            );
            match clamped_per_flow {
                None => clamped_per_flow = Some(per_flow),
                Some(clamped) => assert!(
                    per_flow - clamped <= (CHUNK * slot_bytes) as f64 / peak,
                    "{resident:?}: {per_flow:.1} B/flow unclamped against {clamped:.1} clamped \
                     — more than one chunk of {slot_bytes} B slots"
                ),
            }
        }
    }

    // Flows picked up mid-stream: each opens on a data segment and holds
    // its first packets — payload, TCP options and all — in its orient
    // buffer until a SYN or a full buffer decides its orientation. At the
    // measurement every flow still holds two, so the estimate must count
    // what each buffered packet owns.
    let mid_stream: Vec<Packet> = (0..2 * FLOWS)
        .map(|i| {
            let flow = (i % FLOWS) as u32;
            let src = Ipv4Addr::from(0x0a01_0000 + flow);
            let ip = Ipv4Header::new(src, Ipv4Addr::new(10, 0, 0, 1), 64);
            let mut tcp = TcpHeader::new(40_000, 443, 7 + i as u32, 99);
            tcp.flags = TcpFlags::ACK | TcpFlags::PSH;
            tcp.options = vec![
                TcpOption::Nop,
                TcpOption::Nop,
                TcpOption::Timestamps {
                    tsval: i as u32,
                    tsecr: 5,
                },
                TcpOption::Sack(vec![(1, 2)]),
            ];
            Packet::new(i as f64 * 1e-6, ip, tcp, vec![0x5a; 64 + i % 512])
        })
        .collect();
    let mut scorer = clap.stream_scorer_with(StreamConfig {
        idle_timeout: 30.0,
        ..StreamConfig::default()
    });
    scorer.push(&mid_stream[0]);
    let (live_before, mem_before) = (LIVE.load(Ordering::Relaxed), scorer.mem_bytes());
    for p in &mid_stream[1..] {
        assert_eq!(scorer.push(p), None, "a buffering flow scores nothing");
    }
    let live = LIVE.load(Ordering::Relaxed).wrapping_sub(live_before) as f64;
    let mem = (scorer.mem_bytes() - mem_before) as f64;
    eprintln!(
        "mid-stream, {FLOWS} buffering flows: mem_bytes grew {mem:.0} B, the allocator {live:.0} B \
         (ratio {:.4})",
        mem / live
    );
    assert_eq!(scorer.stats().flows_peak, FLOWS as u64);
    assert!(
        (mem / live - 1.0).abs() <= MEM_TOLERANCE,
        "mid-stream flows: mem_bytes() grew {mem:.0} B where the allocator counted {live:.0} B"
    );
}

/// Every batch of `Autoencoder::train` runs through buffers the first one
/// sized — the gathered rows, each layer's output and gradient, the
/// parameter gradients, the lanes' table of them — so 6 epochs allocate
/// exactly as often as 2, on one training lane and on the default number
/// (whose helper threads are spawned once per call). 150 rows at batch 32
/// end every epoch on a ragged 22-row batch, which must shrink into the
/// buffers and the next epoch's first batch grow back without
/// reallocating.
fn autoencoder_training_allocates_per_run_not_per_batch() {
    let data = Matrix::from_fn(150, 24, |r, c| ((r * 24 + c) as f32 * 0.37).sin());
    let allocs = |epochs| {
        let cfg = AutoencoderConfig {
            layer_sizes: vec![24, 12, 6, 12, 24],
            epochs,
            batch_size: 32,
            learning_rate: 1e-3,
            seed: 3,
        };
        let mut ae = Autoencoder::new(&cfg.layer_sizes, cfg.seed);
        let before = ALLOCS.load(Ordering::Relaxed);
        let losses = ae.train(&data, &cfg);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(losses.len(), epochs);
        allocs
    };
    let one_lane = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    for (lanes, (short, long)) in [
        (1, one_lane.install(|| (allocs(2), allocs(6)))),
        (rayon::current_num_threads(), (allocs(2), allocs(6))),
    ] {
        eprintln!(
            "Autoencoder::train on {lanes} lanes: {short} allocations at 2 epochs, {long} at 6"
        );
        assert_eq!(
            short, long,
            "{lanes} lanes: training allocates per batch or per epoch"
        );
    }
}

/// A fresh scorer fed the pure SYNs of 5 × [`CHUNK`] distinct flows (a
/// scan: no flow closes, all stay live) grows its slab and resident arrays
/// from empty to 5 chunks and its key index from nothing to 16 384
/// buckets. That allocates per chunk of each of the three arrays and per
/// index doubling, plus a constant, and nothing per flow; and no reallocation
/// moves more than the first chunk's last doubling, half a chunk of the
/// widest array. A table that doubled would move 4 096 flows' profile
/// rings, ≈3.8 MB, at its last growth.
fn growth_allocates_a_chunk_at_a_time(clap: &Clap) {
    const FLOWS: usize = 5 * CHUNK;
    let syns: Vec<Packet> = (0..FLOWS)
        .map(|i| {
            let mut tcp = TcpHeader::new(1024 + i as u16, 443, i as u32, 0);
            tcp.flags = TcpFlags::SYN;
            let ip = Ipv4Header::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::from(0x2000_0000 + i as u32),
                64,
            );
            Packet::new(i as f64 * 1e-5, ip, tcp, Vec::new())
        })
        .collect();
    let mut scorer = clap.stream_scorer_with(StreamConfig {
        resident: ResidentMode::F32,
        ..StreamConfig::default()
    });

    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    REALLOC_MAX.store(0, Ordering::Relaxed);
    for p in &syns {
        scorer.push(p);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let moved = REALLOC_MAX.load(Ordering::Relaxed) as usize;
    assert_eq!(scorer.live_flows(), FLOWS);

    // Slab, hidden vectors and profile rings; 8 buckets doubling to
    // 16 384, the first power of two holding FLOWS at load ≤ 1/2.
    // Per array, the constant is the first chunk's doublings from 64 rows
    // and the chunk list's growths (1, 4, 8 entries); the scoring core's
    // scratch, sized by the first packet, takes the rest.
    let arrays = 3;
    let first_chunk_doublings = (CHUNK / 64).trailing_zeros() as usize;
    let index_growths = (2 * FLOWS).next_power_of_two().trailing_zeros() as usize - 2;
    let budget = arrays * (FLOWS / CHUNK + first_chunk_doublings + 3) + index_growths + 16;
    // A packed ring row: the dense values and the indicator word.
    let ring_row = (clap.config.stack - 1) * ((PROFILE_LEN - NUM_INDICATORS) * 4 + 8);
    eprintln!(
        "{FLOWS} SYNs into a fresh scorer: {allocs} allocations (budget {budget}), \
         largest reallocation {moved} B"
    );
    assert!(
        allocs as usize <= budget,
        "{allocs} allocations to open {FLOWS} flows (budget {budget}) — growth or admission \
         allocates per flow"
    );
    assert!(
        moved <= CHUNK / 2 * ring_row,
        "a reallocation moved {moved} B — more than half a chunk of profile rings"
    );
}

/// `GruClassifier::train` over the same 7 sequences (a ragged last batch
/// of 3) allocates exactly as often at 64 steps a sequence as at 8, on one
/// training lane and on the default number: the trace, the head's
/// products and BPTT's buffers are sized once per sequence.
fn gru_training_allocates_per_sequence_not_per_step() {
    let cfg = GruClassifierConfig {
        input: 5,
        hidden: 8,
        classes: 3,
        epochs: 2,
        batch_size: 4,
        learning_rate: 1e-3,
        seed: 5,
    };
    let allocs = |steps: usize| {
        let data: Vec<(Vec<Vec<f32>>, Vec<usize>)> = (0..7)
            .map(|s| {
                let xs = (0..steps)
                    .map(|t| {
                        (0..cfg.input)
                            .map(|i| ((s * 131 + t * 7 + i) as f32 * 0.29).sin())
                            .collect()
                    })
                    .collect();
                (xs, (0..steps).map(|t| (s + t) % cfg.classes).collect())
            })
            .collect();
        let mut clf = GruClassifier::new(&cfg);
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = clf.train(&data, &cfg);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(report.epoch_loss.len(), cfg.epochs);
        allocs
    };
    let one_lane = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    for (lanes, (short, long)) in [
        (1, one_lane.install(|| (allocs(8), allocs(64)))),
        (rayon::current_num_threads(), (allocs(8), allocs(64))),
    ] {
        eprintln!(
            "GruClassifier::train on {lanes} lanes: {short} allocations at 8 steps, {long} at 64"
        );
        assert_eq!(
            short, long,
            "{lanes} lanes: GRU training allocates per step"
        );
    }
}
