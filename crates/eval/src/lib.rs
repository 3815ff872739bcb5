//! # dpmg-eval
//!
//! Evaluation harness for the reproduction: error metrics, experiment
//! sweeps with parallel trial execution, table/CSV output, and an empirical
//! differential-privacy auditor.
//!
//! * [`metrics`] — maximum error, MSE, error quantiles, and heavy-hitter
//!   precision/recall/F1 against exact ground truth.
//! * [`experiment`] — aligned-text + CSV table writer and a scoped-thread
//!   parallel trial runner (each trial gets an independent seeded RNG, so
//!   experiments stay reproducible).
//! * [`plot`] — dependency-free ASCII charts so growth orders (linear vs
//!   logarithmic in `k`) are visible directly in experiment output.
//! * [`audit`] — an empirical `(ε, δ)` distinguisher: runs a mechanism many
//!   times on a pair of neighbouring inputs and lower-bounds the privacy
//!   loss from the observed output distributions. Used by experiment E5 to
//!   show that the paper's PMG honours its budget while Böhler–Kerschbaum's
//!   published mechanism does not.
//! * [`sweep`] — the registry-driven sweep runner: mechanism × workload ×
//!   `(ε, δ)` grid with shared error metrics and CSV output, so experiment
//!   binaries sweep *every* release path without per-mechanism plumbing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod experiment;
pub mod metrics;
pub mod plot;
pub mod sweep;
