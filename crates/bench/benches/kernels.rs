//! Micro-benchmarks of the hot kernels: feature extraction, reference
//! tracker labeling, GRU stepping and autoencoder forward passes.
//!
//! `ae_window_1row_{f32,int8}` and `gru_step_{f32,int8}` are the two model
//! layers of one streaming packet at the paper's Table-6 sizes — one
//! 345-wide window through the autoencoder engine, one 37→32 GRU step —
//! through the same engine calls `benchmark/`'s layer replay times as
//! `ae.window_ns` and `gru.step_ns`, so the two sets of figures should
//! reconcile (criterion's are cache-hot and so the lower bound). A sample
//! is [`CALLS`] back-to-back calls — one 200 ns call is below what a clock
//! read per sample resolves — so a sample's µs read as ns per call.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use neural::{
    AeEngine, AeWorkspace, Autoencoder, GruCell, GruClassifier, GruClassifierConfig, GruEngine,
    GruStepScratch, Matrix, PackedGru, QuantMode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_feature_extraction(c: &mut Criterion) {
    let conns = traffic_gen::dataset(0xfea7, 50);
    let packets: usize = conns.iter().map(net_packet::Connection::len).sum();
    let mut group = c.benchmark_group("substrate");
    group.throughput(Throughput::Elements(packets as u64));
    group.sample_size(20);
    group.bench_function("feature_extraction", |b| {
        b.iter(|| {
            conns
                .iter()
                .map(clap_core::extract_connection)
                .map(|f| f.len())
                .sum::<usize>()
        })
    });
    group.bench_function("tcp_state_labeling", |b| {
        b.iter(|| {
            conns
                .iter()
                .map(|c| tcp_state::label_connection(c).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_models(c: &mut Criterion) {
    let cfg = GruClassifierConfig {
        input: 32,
        hidden: 32,
        classes: 22,
        epochs: 1,
        batch_size: 8,
        learning_rate: 1e-3,
        seed: 1,
    };
    let rnn = GruClassifier::new(&cfg);
    let seq: Vec<Vec<f32>> = (0..16).map(|t| vec![0.1 * t as f32; 32]).collect();

    let ae = Autoencoder::new(&[345, 192, 96, 40, 96, 192, 345], 2);
    let batch = Matrix::from_fn(32, 345, |r, c| ((r * 31 + c) % 17) as f32 / 17.0);

    let mut group = c.benchmark_group("models");
    group.sample_size(30);
    group.bench_function("gru_forward_16pkt", |b| b.iter(|| rnn.trace(&seq).len()));
    group.bench_function("ae_forward_batch32", |b| {
        b.iter(|| ae.reconstruction_errors(&batch).len())
    });
    group.finish();
}

/// Calls per sample of the `streaming_layers` benches.
const CALLS: u64 = 1000;

fn bench_streaming_layers(c: &mut Criterion) {
    let ae = Autoencoder::new(&[345, 192, 96, 40, 96, 192, 345], 2);
    let window = Matrix::from_fn(1, 345, |_, c| (c % 17) as f32 / 17.0);
    let cell = GruCell::new(37, 32, &mut StdRng::seed_from_u64(3));
    let x: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();

    let mut group = c.benchmark_group("streaming_layers");
    group.throughput(Throughput::Elements(CALLS));
    group.sample_size(30);
    for (name, mode) in [("f32", QuantMode::Off), ("int8", QuantMode::Int8)] {
        let engine = AeEngine::from_model(&ae, mode);
        let mut ws = AeWorkspace::new();
        let mut errs = Vec::new();
        group.bench_function(format!("ae_window_1row_{name}"), |b| {
            b.iter(|| {
                for _ in 0..CALLS {
                    errs.clear();
                    engine.reconstruction_errors_into(black_box(&window), &mut ws, &mut errs);
                }
                errs[0]
            })
        });

        let gru = GruEngine::from_packed(PackedGru::pack(&cell), mode);
        let mut scratch = GruStepScratch::new();
        let (mut h, mut z, mut r) = (vec![0.0f32; 32], vec![0.0f32; 32], vec![0.0f32; 32]);
        group.bench_function(format!("gru_step_{name}"), |b| {
            b.iter(|| {
                for _ in 0..CALLS {
                    gru.step(black_box(&x), &mut h, &mut scratch, &mut z, &mut r);
                }
                h[0]
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_feature_extraction,
    bench_models,
    bench_streaming_layers
);
criterion_main!(benches);
