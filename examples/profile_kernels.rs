//! Raw kernel throughput at the eight hot matvec shapes (the six
//! autoencoder layers and the GRU's two projections): the row-major f32
//! matvec training runs on, the f32 panel GEMV the inference engines run on
//! and the int8 matvec (plan + encode + panel GEMV) with its bare panel
//! GEMV — each panel GEMV with the weight bytes it streams per nanosecond.
//!
//! ```text
//! cargo run --release --example profile_kernels
//! ```

use neural::quant::{self, QuantMatrix};
use neural::{KernelSet, Matrix, PanelMatrix};
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

    // The engines' batched products — both go row by row through their
    // panel GEMV (int8: quantize-activations included) — at the AE layer-1
    // shape.
    let a = Matrix::from_fn(26, 345, |r, c| ((r * 345 + c) as f32 * 0.13).sin());
    let w = Matrix::from_fn(192, 345, |r, c| ((r * 345 + c) as f32 * 0.29).cos());
    let pw = PanelMatrix::pack(&w);
    let qw = QuantMatrix::quantize(&w);
    let mut c = Matrix::default();
    let mut qa = Vec::new();
    let iters = 200;

    let t = Instant::now();
    for _ in 0..iters {
        pw.matmul_nt_into(std::hint::black_box(&a), &mut c);
    }
    let f32_t = t.elapsed();
    let t = Instant::now();
    for _ in 0..iters {
        qw.matmul_nt_into(std::hint::black_box(&a), &mut qa, &mut c);
    }
    let i8_t = t.elapsed();
    let macs = iters as f64 * 26.0 * 345.0 * 192.0;
    println!(
        "AE layer-1 GEMM 26x345x192: f32 {:.2} GMAC/s | int8 {:.2} GMAC/s | ratio {:.2}x",
        macs / f32_t.as_secs_f64() / 1e9,
        macs / i8_t.as_secs_f64() / 1e9,
        f32_t.as_secs_f64() / i8_t.as_secs_f64(),
    );

    // Large-batch GEMM. No scorer sends this shape (offline scoring goes
    // packet by packet, the micro-batch flush sends ≤ 16 rows); it is the
    // row-by-row figure a register-blocked M-row panel GEMM would be
    // measured against.
    for (rows, cols, outs) in [
        (8000usize, 345usize, 192usize),
        (8000, 192, 96),
        (8000, 96, 40),
    ] {
        let a = Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * 0.13).sin());
        let w = Matrix::from_fn(outs, cols, |r, c| ((r * cols + c) as f32 * 0.29).cos());
        let pw = PanelMatrix::pack(&w);
        let qw = QuantMatrix::quantize(&w);
        let mut c = Matrix::default();
        let iters = 3;
        let t = Instant::now();
        for _ in 0..iters {
            pw.matmul_nt_into(std::hint::black_box(&a), &mut c);
        }
        let f32_t = t.elapsed();
        let t = Instant::now();
        for _ in 0..iters {
            qw.matmul_nt_into(std::hint::black_box(&a), &mut qa, &mut c);
        }
        let i8_t = t.elapsed();
        let macs = iters as f64 * (rows * cols * outs) as f64;
        println!(
            "batch GEMM {rows}x{cols}x{outs}: f32 {:.2} GMAC/s | int8 {:.2} GMAC/s | ratio {:.2}x",
            macs / f32_t.as_secs_f64() / 1e9,
            macs / i8_t.as_secs_f64() / 1e9,
            f32_t.as_secs_f64() / i8_t.as_secs_f64(),
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
}
