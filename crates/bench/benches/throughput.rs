//! Criterion micro-benchmarks behind Table 3: end-to-end scoring
//! throughput of CLAP vs the baselines on a fixed connection corpus.

use baselines::{Baseline1, Baseline1Config, KitsuneConfig, KitsuneLite};
use clap_core::{Clap, ClapConfig};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

fn bench_scoring(c: &mut Criterion) {
    // Small but non-trivial models; benches measure inference, not training.
    let mut cfg = ClapConfig::ci();
    cfg.ae.epochs = 4;
    cfg.rnn.epochs = 2;
    let train = traffic_gen::dataset(0xbe9c, 40);
    let (clap, _) = Clap::train(&train, &cfg);
    let mut b1_cfg = Baseline1Config::quick();
    b1_cfg.ae.epochs = 10;
    let b1 = Baseline1::train(&train, &b1_cfg);
    let k_cfg = KitsuneConfig {
        epochs: 1,
        ..KitsuneConfig::default()
    };
    let kitsune = KitsuneLite::train(&train, &k_cfg);

    let corpus = traffic_gen::dataset(0xc0de, 20);
    let packets: usize = corpus.iter().map(net_packet::Connection::len).sum();

    let mut group = c.benchmark_group("scoring_throughput");
    group.throughput(Throughput::Elements(packets as u64));
    group.sample_size(10);
    group.bench_function("clap", |b| {
        b.iter_batched(
            || corpus.clone(),
            |conns| clap.score_connections(&conns),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("baseline1", |b| {
        b.iter_batched(
            || corpus.clone(),
            |conns| b1.score_connections(&conns),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("kitsune_lite", |b| {
        b.iter_batched(
            || corpus.clone(),
            |conns| kitsune.score_connections(&conns),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_scoring);
criterion_main!(benches);
