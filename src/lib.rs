//! Umbrella crate for the CLAP reproduction workspace.
//!
//! Re-exports every member crate under one dependency so the examples and
//! integration tests at the repository root — and downstream users who
//! want the whole system — can depend on a single crate:
//!
//! ```
//! use clap_repro::clap_core::{Clap, ClapConfig};
//!
//! let benign = clap_repro::traffic_gen::dataset(42, 40);
//! let (detector, _summary) = Clap::train(&benign, &ClapConfig::ci());
//! let scored = detector.score_connection(&benign[0]);
//! assert!(scored.score.is_finite());
//! ```
//!
//! `ROADMAP.md` holds the project's aims and open items, `CHANGES.md` its
//! change log, and each `crates/bench` `exp_*` binary's module doc the
//! paper artifact it regenerates and how to run it.

pub use baselines;
pub use clap_core;
pub use dpi_attacks;
pub use net_packet;
pub use neural;
pub use tcp_state;
pub use traffic_gen;
