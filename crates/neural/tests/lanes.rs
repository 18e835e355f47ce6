//! Training is a pure function of its input, not of the core count: the
//! autoencoder and the GRU classifier, trained on 1 to 4 lanes (pinned
//! through `ThreadPool::install`), end on the same weight bits and the
//! same loss curve. The shapes are chosen to stress the splits: widths
//! that are not a multiple of a unit's block, layers of one unit beside
//! layers of many, a ragged last batch,
//! batches with fewer rows than there are lanes, all-zero rows and
//! features, and sequences of uneven length (one of them empty).
//!
//! CI runs this file under Miri, which skips the one case at the paper's
//! shape.

use neural::{Autoencoder, AutoencoderConfig, GruClassifier, GruClassifierConfig, Matrix};

/// Runs `f` with `lanes` training lanes.
fn on_lanes<R>(lanes: usize, f: impl FnOnce() -> R) -> R {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(lanes)
        .build()
        .unwrap();
    pool.install(f)
}

fn bits<'a>(values: impl IntoIterator<Item = &'a f32>) -> Vec<u32> {
    values.into_iter().map(|v| v.to_bits()).collect()
}

/// Rows with every third feature zero and every fifth row all zero.
fn data(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        if r % 5 == 2 || (r + c) % 3 == 0 {
            0.0
        } else {
            ((r * cols + c) as f32 * 0.37).sin()
        }
    })
}

/// Trained weight and bias bits of every layer, then the loss curve's.
fn train_ae(layer_sizes: &[usize], rows: usize, batch_size: usize) -> Vec<u32> {
    let cfg = AutoencoderConfig {
        layer_sizes: layer_sizes.to_vec(),
        epochs: 2,
        batch_size,
        learning_rate: 3e-3,
        seed: 11,
    };
    let mut ae = Autoencoder::new(&cfg.layer_sizes, cfg.seed);
    let losses = ae.train(&data(rows, layer_sizes[0]), &cfg);
    let mut out: Vec<u32> = ae
        .layers()
        .iter()
        .flat_map(|l| bits(&l.w.data).into_iter().chain(bits(&l.b)))
        .collect();
    out.extend(bits(&losses));
    out
}

#[test]
fn autoencoder_weights_do_not_depend_on_the_lane_count() {
    let baseline1 = [37, 5, 37];
    let deep = [24, 12, 6, 12, 24];
    // (shape, rows, batch): batches of several row blocks with a ragged
    // last batch, batches of 1 and 3 rows (fewer rows than lanes), and a
    // batch larger than the data.
    let cases: [(&[usize], usize, usize); 5] = [
        (&baseline1, 40, 19),
        (&baseline1, 5, 1),
        (&deep, 10, 3),
        (&deep, 29, 12),
        (&deep, 6, 64),
    ];
    // The paper's shape, whose rows and output neurons split into many
    // units (a small model runs a unit per layer); too big for Miri.
    let paper = [345, 192, 96, 40, 96, 192, 345];
    let paper_cases: &[(&[usize], usize, usize)] =
        if cfg!(miri) { &[] } else { &[(&paper, 45, 21)] };
    for &(shape, rows, batch) in cases.iter().chain(paper_cases) {
        let one = on_lanes(1, || train_ae(shape, rows, batch));
        for lanes in 2..=4 {
            let many = on_lanes(lanes, || train_ae(shape, rows, batch));
            assert!(
                one == many,
                "{shape:?}, {rows} rows, batch {batch}: {lanes} lanes moved a bit"
            );
        }
    }
}

/// Trained cell and head bits, then the per-epoch loss and accuracy bits.
fn train_gru(batch_size: usize) -> Vec<u32> {
    let cfg = GruClassifierConfig {
        input: 3,
        hidden: 5,
        classes: 4,
        epochs: 2,
        batch_size,
        learning_rate: 5e-3,
        seed: 4,
    };
    let sequences: Vec<(Vec<Vec<f32>>, Vec<usize>)> = (0..7)
        .map(|s| {
            let len = [3, 0, 1, 5, 2, 4, 1][s];
            let xs = (0..len)
                .map(|t| {
                    (0..3)
                        .map(|i| ((s * 7 + t * 3 + i) as f32 * 0.41).cos())
                        .collect()
                })
                .collect();
            let labels = (0..len).map(|t| (s + t) % 4).collect();
            (xs, labels)
        })
        .collect();
    let mut clf = GruClassifier::new(&cfg);
    let report = clf.train(&sequences, &cfg);
    let cell = &clf.cell;
    let mut out = Vec::new();
    for m in [&cell.w, &cell.u, &clf.wo] {
        out.extend(bits(&m.data));
    }
    for b in [&cell.b, &clf.bo] {
        out.extend(bits(b));
    }
    out.extend(bits(&report.epoch_loss));
    out.extend(bits(&report.epoch_accuracy));
    out.push(clf.accuracy(&sequences).to_bits());
    out
}

#[test]
fn gru_classifier_weights_do_not_depend_on_the_lane_count() {
    for batch in [1, 3] {
        let one = on_lanes(1, || train_gru(batch));
        for lanes in 2..=4 {
            let many = on_lanes(lanes, || train_gru(batch));
            assert!(one == many, "batch {batch}: {lanes} lanes moved a bit");
        }
    }
}
