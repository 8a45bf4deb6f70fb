//! The E1–E18 experiment driver binary. The experiment bodies live in
//! `hm_bench::experiments` so the `hm` CLI (`hm exp E3 …`) runs exactly
//! the same code.
//!
//! Usage: `cargo run -p hm-bench --bin experiments [-- E1 E6 …]`
//! (no arguments = run everything). Output is deterministic. An unknown
//! experiment name exits 2 with a suggestion, before anything runs; an
//! engine error exits 1.

use hm_bench::experiments::{run, ExperimentError};

fn main() {
    let requested: Vec<String> = std::env::args().skip(1).collect();
    // Ungoverned: resource flags live on `hm exp`.
    if let Err(e) = run(&requested, &hm_engine::Limits::none()) {
        eprintln!("{e}");
        let code = match e {
            ExperimentError::Unknown { .. } => 2,
            ExperimentError::Engine(_) => 1,
        };
        std::process::exit(code);
    }
}
