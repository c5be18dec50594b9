//! Experiment drivers behind `limit-repro run`. Each experiment in
//! DESIGN.md §4 has a module here whose `render()` produces its table(s),
//! and a row in [`experiments::ALL`]; the CLI prints them and pins them in
//! `results/<name>.json`.

pub mod experiments;
pub mod spans;

pub use experiments::*;
