//! Raw kernel throughput at the eight hot matvec shapes (the six
//! autoencoder layers and the GRU's two projections): the row-major f32
//! matvec training runs on, the f32 panel GEMV the inference engines run
//! on (`PanelMatrix::matvec_into`) and the int8 row (plan + encode + panel
//! GEMV) with its bare panel GEMV, each panel kernel with the weight bytes
//! it streams per nanosecond; then training: each autoencoder layer's three batch GEMMs through the
//! training kernels next to the `dot4` / `dot` / `axpy` loops they
//! replaced, and the wall time of a ci-shaped `Autoencoder::train` and
//! `GruClassifier::train`, each on one training lane and on all of them.
//!
//! ```text
//! cargo run --release --example profile_kernels
//! ```

use neural::classifier::LabeledSequence;
use neural::quant::{self, QuantMatrix};
use neural::{
    Adam, Autoencoder, AutoencoderConfig, GruClassifier, GruClassifierConfig, KernelSet, Matrix,
    PanelMatrix,
};
use std::hint::black_box;
use std::time::Instant;

/// Mean nanoseconds per call of `f` over `iters` calls.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

fn main() {
    let ks = KernelSet::active();
    println!("kernel set: {}", ks.name);
    println!(
        "rows x cols | f32 row-major | f32 panel GEMV, weight bytes streamed | \
         int8 row | int8 panel GEMV, weight bytes streamed"
    );
    let (mut row_major_total, mut panel_total) = (0.0, 0.0);
    for (rows, cols) in [
        (192usize, 345usize),
        (96, 192),
        (40, 96),
        (96, 40),
        (192, 96),
        (345, 192),
        (96, 37),
        (96, 32),
    ] {
        let w = Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * 0.29).cos());
        let pw = PanelMatrix::pack(&w);
        let qw = QuantMatrix::quantize(&w);
        let x: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut y = vec![0.0f32; rows];
        let mut qa = Vec::new();
        let iters = (400_000_000 / (rows * cols)) as u32;

        let f32_ns = ns_per_call(iters, || w.matvec_into(black_box(&x), &mut y));
        let panel_ns = ns_per_call(iters, || pw.matvec_into(black_box(&x), &mut y));
        let panel_bytes = std::mem::size_of_val(pw.lines());
        row_major_total += f32_ns;
        panel_total += panel_ns;
        let i8_ns = ns_per_call(iters, || qw.matvec_into(black_box(&x), &mut qa, &mut y));
        // `qa` now holds this row's codes, padded to whole k-quads.
        let act = quant::quantize_activations(&x, &mut Vec::new());
        let panels = qw.panels();
        let gemv_ns = ns_per_call(iters, || {
            ks.panel_gemv_i8(&panels, black_box(&qa), act, &mut y)
        });
        let bytes = std::mem::size_of_val(panels.q);
        println!(
            "{rows:>4} x {cols:<4} | {f32_ns:>7.0} ns | {panel_ns:>7.0} ns, {panel_bytes:>6} B, {:>5.1} B/ns | \
             {i8_ns:>6.0} ns | {gemv_ns:>6.0} ns, {bytes:>6} B, {:>5.1} B/ns",
            panel_bytes as f64 / panel_ns,
            bytes as f64 / gemv_ns,
        );
    }
    println!(
        "all eight shapes: f32 row-major {row_major_total:.0} ns, f32 panel {panel_total:.0} ns"
    );

    // Activation quantization alone, per 345-wide row.
    let mut qa = Vec::new();
    let x: Vec<f32> = (0..345).map(|i| (i as f32 * 0.17).sin()).collect();
    let t = Instant::now();
    for _ in 0..200_000 {
        quant::quantize_activations(std::hint::black_box(&x), &mut qa);
    }
    println!(
        "quantize_activations(345): {:.0} ns/row",
        t.elapsed().as_secs_f64() * 1e9 / 200_000.0
    );

    training(ks);
}

/// The autoencoder's layers as (inputs, outputs), input side first.
const AE_LAYERS: [(usize, usize); 6] = [
    (345, 192),
    (192, 96),
    (96, 40),
    (40, 96),
    (96, 192),
    (192, 345),
];
/// Rows per training batch (`AutoencoderConfig::clap_paper`).
const BATCH: usize = 64;

/// `X · Wᵀ` a row at a time through the set's `dot4` / `dot` — the loop
/// `KernelSet::gemm_nt_f32` replaced.
fn loop_nt(ks: &KernelSet, x: &Matrix, w: &Matrix, c: &mut Matrix) {
    c.resize(x.rows, w.rows);
    for i in 0..x.rows {
        let crow = c.row_mut(i);
        let mut j = 0;
        while j + 4 <= w.rows {
            let out = ks.dot4(x.row(i), w.row(j), w.row(j + 1), w.row(j + 2), w.row(j + 3));
            crow[j..j + 4].copy_from_slice(&out);
            j += 4;
        }
        for (j, cv) in crow.iter_mut().enumerate().skip(j) {
            *cv = ks.dot(x.row(i), w.row(j));
        }
    }
}

/// `dW = dYᵀ · X` as one axpy per non-zero gradient, batch row by batch
/// row — the loop behind the replaced `matmul_tn`.
fn loop_tn(ks: &KernelSet, dy: &Matrix, x: &Matrix, dw: &mut Matrix) {
    dw.resize(dy.cols, x.cols);
    dw.data.fill(0.0);
    for k in 0..dy.rows {
        for (i, &g) in dy.row(k).iter().enumerate() {
            if g != 0.0 {
                ks.axpy(dw.row_mut(i), x.row(k), g);
            }
        }
    }
}

/// `dX = dY · W` as one axpy per non-zero gradient — the loop behind the
/// replaced `matmul_nn`.
fn loop_nn(ks: &KernelSet, dy: &Matrix, w: &Matrix, dx: &mut Matrix) {
    dx.resize(dy.rows, w.cols);
    for i in 0..dy.rows {
        dx.row_mut(i).fill(0.0);
        for (k, &g) in dy.row(i).iter().enumerate() {
            if g != 0.0 {
                ks.axpy(dx.row_mut(i), w.row(k), g);
            }
        }
    }
}

/// Training: the three batch GEMMs of every autoencoder layer through the
/// kernels and through the loops they replaced, then a ci-shaped
/// `Autoencoder::train` end to end and the share of it Adam takes.
fn training(ks: &KernelSet) {
    println!(
        "AE training GEMMs, batch {BATCH}, GFLOP/s kernel (loop): \
         forward X·Wᵀ | dW = dYᵀ·X | dX = dY·W"
    );
    // A third of the features are zero, as in stacked profiles.
    let features = |rows, cols| {
        Matrix::from_fn(rows, cols, |r, c| {
            if (r * 7 + c) % 3 == 0 {
                0.0
            } else {
                ((r * cols + c) as f32 * 0.13).sin()
            }
        })
    };
    let mut c = Matrix::default();
    for (inp, out) in AE_LAYERS {
        let x = features(BATCH, inp);
        let w = Matrix::from_fn(out, inp, |r, c| ((r * inp + c) as f32 * 0.29).cos() * 0.1);
        let dy = Matrix::from_fn(BATCH, out, |r, c| {
            ((r * out + c) as f32 * 0.71).sin() * 1e-3
        });
        let iters = (200_000_000 / (BATCH * inp * out)) as u32;
        let gflops = |ns: f64| 2.0 * (BATCH * inp * out) as f64 / ns;
        let mut pair = |kernel: &mut dyn FnMut(&mut Matrix),
                        reference: &mut dyn FnMut(&mut Matrix)| {
            let k = ns_per_call(iters, || kernel(&mut c));
            let r = ns_per_call(iters, || reference(&mut c));
            format!("{:>5.1} ({:>5.1})", gflops(k), gflops(r))
        };
        let fwd = pair(
            &mut |c| Matrix::matmul_nt_into(black_box(&x), &w, c),
            &mut |c| loop_nt(ks, black_box(&x), &w, c),
        );
        let dw = pair(
            &mut |c| Matrix::matmul_tn_into(black_box(&dy), &x, c),
            &mut |c| loop_tn(ks, black_box(&dy), &x, c),
        );
        let dx = pair(
            &mut |c| Matrix::matmul_nn_into(black_box(&dy), &w, c),
            &mut |c| loop_nn(ks, black_box(&dy), &w, c),
        );
        println!("{inp:>3} -> {out:<3} | {fwd} | {dw} | {dx}");
    }

    // `ClapConfig::ci()`'s autoencoder on the benchmark's training-set
    // size: 1 427 stacked profiles, 15 epochs — on one training lane and
    // on all of them (the weights are the same bits either way).
    let (rows, epochs) = (1427, 15);
    let data = features(rows, 345);
    let cfg = AutoencoderConfig {
        epochs,
        ..AutoencoderConfig::clap_paper(345)
    };
    // Per row: forward and dW for every layer, dX for all but the first.
    let macs: usize = AE_LAYERS.iter().map(|&(i, o)| 3 * i * o).sum::<usize>() - 345 * 192;
    let flops = 2.0 * (macs * rows * epochs) as f64;
    let row_epochs = (rows * epochs) as f64;
    let all = rayon::current_num_threads();
    let mut train_s = 0.0;
    for lanes in [1, all] {
        let t = on_lanes(lanes, || {
            let mut ae = Autoencoder::new(&cfg.layer_sizes, cfg.seed);
            let t = Instant::now();
            black_box(ae.train(&data, &cfg));
            t.elapsed().as_secs_f64()
        });
        if lanes == 1 {
            train_s = t;
        }
        println!(
            "Autoencoder::train {rows} x 345, {epochs} epochs, batch {BATCH}, {lanes} lane(s): \
             {t:.3} s, {:.0} rows·epochs/s, {:.1} GFLOP/s over {:.1} GFLOP ({:.2}x one lane)",
            row_epochs / t,
            flops / t / 1e9,
            flops / 1e9,
            train_s / t,
        );
    }

    // The same number of Adam steps on tensors of the same shapes.
    let mut params: Vec<(Vec<f32>, Adam)> = Autoencoder::new(&cfg.layer_sizes, cfg.seed)
        .layers()
        .iter()
        .flat_map(|l| [l.w.data.clone(), l.b.clone()])
        .map(|p| {
            let len = p.len();
            (p, Adam::new(len, cfg.learning_rate))
        })
        .collect();
    let grads: Vec<Vec<f32>> = params.iter().map(|(p, _)| vec![1e-4; p.len()]).collect();
    let steps = rows.div_ceil(BATCH) * epochs;
    let t = Instant::now();
    for _ in 0..steps {
        for ((p, opt), g) in params.iter_mut().zip(&grads) {
            opt.step(p, g);
        }
    }
    let adam_s = t.elapsed().as_secs_f64();
    println!(
        "  of which Adam ({steps} steps, one lane): {adam_s:.3} s, {:.0} %",
        100.0 * adam_s / train_s
    );

    // `ClapConfig::ci()`'s GRU on sequences shaped like the benchmark's
    // training set: 60 connections of 8–54 packets, 32 features each.
    let sequences: Vec<LabeledSequence> = (0..60)
        .map(|s| {
            let len = 8 + (s * 17) % 47;
            let xs = (0..len)
                .map(|t| {
                    (0..32)
                        .map(|i| ((s * 131 + t * 32 + i) as f32 * 0.23).sin())
                        .collect()
                })
                .collect();
            (xs, (0..len).map(|t| (s + t) % 22).collect())
        })
        .collect();
    let packets: usize = sequences.iter().map(|(xs, _)| xs.len()).sum();
    let cfg = GruClassifierConfig {
        epochs: 12,
        batch_size: 8,
        ..GruClassifierConfig::clap_paper(22)
    };
    let mut one = 0.0;
    for lanes in [1, all] {
        let t = on_lanes(lanes, || {
            let mut clf = GruClassifier::new(&cfg);
            let t = Instant::now();
            black_box(clf.train(&sequences, &cfg));
            t.elapsed().as_secs_f64()
        });
        if lanes == 1 {
            one = t;
        }
        println!(
            "GruClassifier::train {} sequences, {packets} steps, {} epochs, batch {}, {lanes} lane(s): \
             {t:.3} s, {:.0} steps·epochs/s ({:.2}x one lane)",
            sequences.len(),
            cfg.epochs,
            cfg.batch_size,
            (packets * cfg.epochs) as f64 / t,
            one / t,
        );
    }
}

/// Runs `f` with `lanes` training lanes.
fn on_lanes<R>(lanes: usize, f: impl FnOnce() -> R) -> R {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(lanes)
        .build()
        .unwrap();
    pool.install(f)
}
