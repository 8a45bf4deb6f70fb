//! Simultaneous agreement under crash failures ([DM90], Section 11 fn. 5).
//!
//! Usage: `cargo run --example agreement_rounds`
//!
//! Enumerates every crash pattern of a synchronous full-information
//! protocol with n = 3, f = 1, checks agreement/validity/simultaneity,
//! and shows that the decision value becomes common knowledge exactly at
//! the end of round f + 1 — the knowledge-theoretic reason simultaneous
//! agreement needs f + 1 rounds.

use halpern_moses::core::agreement::{
    agreement_builder, agreement_system, check_safety, ck_onset_in_clean_run, AgreementSpec,
    Reduction,
};
use halpern_moses::limits::Budget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = AgreementSpec { n: 3, f: 1 };
    let system = agreement_system(spec, Reduction::Naive, &Budget::unlimited())?;
    println!(
        "n = {}, f = {}: {} runs (all crash patterns x all inputs)",
        spec.n,
        spec.f,
        system.num_runs()
    );

    let report = check_safety(&system);
    println!(
        "agreement violations: {}   validity violations: {}   (over {} runs)",
        report.agreement_violations, report.validity_violations, report.runs
    );

    let isys = agreement_builder(spec, Reduction::Naive, &Budget::unlimited())?.build();
    for inputs in [0b110u64, 0b010, 0b000] {
        let onset = ck_onset_in_clean_run(&isys, inputs)?;
        println!(
            "inputs {:03b}: C(decision value) first at t = {:?}  [end of round f+1 = t=3]",
            inputs, onset
        );
    }
    println!("\n(CK at t < 3 would contradict the f+1 round lower bound.)");
    Ok(())
}
