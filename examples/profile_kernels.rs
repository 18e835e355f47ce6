//! Raw kernel throughput at the eight hot matvec shapes (the six
//! autoencoder layers and the GRU's two projections): the row-major f32
//! matvec training runs on, the f32 panel GEMV the inference engines run on
//! and the int8 matvec (plan + encode + panel GEMV) with its bare panel
//! GEMV — each panel GEMV with the weight bytes it streams per nanosecond;
//! then batched products, the f32 row loop next to the 4-row panel GEMM;
//! then training: each autoencoder layer's three batch GEMMs through the
//! training kernels next to the `dot4` / `dot` / `axpy` loops they
//! replaced, and the wall time of a ci-shaped `Autoencoder::train`.
//!
//! ```text
//! cargo run --release --example profile_kernels
//! ```

use neural::quant::{self, QuantMatrix};
use neural::{Adam, Autoencoder, AutoencoderConfig, KernelSet, Matrix, PanelMatrix};
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
         int8 matvec | int8 panel GEMV, weight bytes streamed"
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
        let panel_ns = ns_per_call(iters, || {
            ks.panel_gemv_f32(pw.lines(), cols, black_box(&x), &mut y)
        });
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

    // Batched products: f32 one panel GEMV per row (the 1-row price ×
    // rows), the f32 4-row panel GEMM `matmul_nt_into` runs, and int8 (one
    // quantize + GEMV per row). 4 rows is the pad flush, 16 a micro-batch
    // flush; 8000 rows is no scorer's shape, the large-batch bound.
    let mut qa = Vec::new();
    println!(
        "batch GEMM rows x cols x outs | f32 row loop | f32 4-row GEMM | int8 row loop (GMAC/s)"
    );
    for (rows, cols, outs) in [
        (4usize, 345usize, 192usize),
        (16, 345, 192),
        (8000, 345, 192),
        (8000, 192, 96),
        (8000, 96, 40),
    ] {
        let a = Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * 0.13).sin());
        let w = Matrix::from_fn(outs, cols, |r, c| ((r * cols + c) as f32 * 0.29).cos());
        let pw = PanelMatrix::pack(&w);
        let qw = QuantMatrix::quantize(&w);
        let mut c = Matrix::zeros(rows, outs);
        let iters = (50_000_000 / (rows * cols * outs)).max(3) as u32;
        let gmacs = |ns: f64| (rows * cols * outs) as f64 / ns;
        let row_loop = ns_per_call(iters, || {
            for i in 0..rows {
                pw.matvec_into(black_box(a.row(i)), c.row_mut(i));
            }
        });
        let gemm = ns_per_call(iters, || pw.matmul_nt_into(black_box(&a), &mut c));
        let int8 = ns_per_call(iters, || qw.matmul_nt_into(black_box(&a), &mut qa, &mut c));
        println!(
            "{rows:>5} x {cols} x {outs:<3} | {:>6.2} | {:>6.2} ({:.2}x) | {:>6.2}",
            gmacs(row_loop),
            gmacs(gemm),
            row_loop / gemm,
            gmacs(int8),
        );
    }

    // Activation quantization alone, per 345-wide row.
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
    // size: 1 427 stacked profiles, 15 epochs.
    let (rows, epochs) = (1427, 15);
    let data = features(rows, 345);
    let cfg = AutoencoderConfig {
        epochs,
        ..AutoencoderConfig::clap_paper(345)
    };
    let mut ae = Autoencoder::new(&cfg.layer_sizes, cfg.seed);
    let t = Instant::now();
    black_box(ae.train(&data, &cfg));
    let train_s = t.elapsed().as_secs_f64();
    // Per row: forward and dW for every layer, dX for all but the first.
    let macs: usize = AE_LAYERS.iter().map(|&(i, o)| 3 * i * o).sum::<usize>() - 345 * 192;
    let flops = 2.0 * (macs * rows * epochs) as f64;
    let row_epochs = (rows * epochs) as f64;
    println!(
        "Autoencoder::train {rows} x 345, {epochs} epochs, batch {BATCH}: {train_s:.3} s, \
         {:.0} rows·epochs/s, {:.1} GFLOP/s over {:.1} GFLOP",
        row_epochs / train_s,
        flops / train_s / 1e9,
        flops / 1e9,
    );

    // The same number of Adam steps on the same parameter tensors.
    let mut params: Vec<(Vec<f32>, Adam)> = ae
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
        "  of which Adam ({steps} steps): {adam_s:.3} s, {:.0} %",
        100.0 * adam_s / train_s
    );
}
