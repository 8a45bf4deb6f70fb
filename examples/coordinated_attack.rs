//! The coordinated attack problem (Sections 4 and 7 of the paper).
//!
//! Usage: `cargo run --example coordinated_attack -- [horizon]`
//!
//! Builds the full run space of the generals' handshake under a lossy
//! messenger, prints the knowledge ladder per delivered message, verifies
//! that `dispatched` never becomes common knowledge, and sweeps a family
//! of threshold attack rules (every one is unsafe or never attacks —
//! Corollary 6).

use halpern_moses::core::puzzles::attack::{
    classify_attack_rule, common_knowledge_of_dispatch, generals_builder, ladder_depth_at_end,
    AttackRuleOutcome,
};
use halpern_moses::limits::Budget;
use halpern_moses::logic::{EvalCache, Frame};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let horizon: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("horizon must be a number"))
        .unwrap_or(8);

    let isys = generals_builder(horizon, &Budget::unlimited())?.build();
    println!(
        "generals' handshake, horizon {horizon}: {} runs, {} points",
        isys.system().num_runs(),
        isys.model().num_worlds()
    );

    println!("\ndeliveries -> interleaved knowledge depth of `dispatched`:");
    let max_d = (horizon as usize).div_ceil(2);
    let mut cache = EvalCache::new();
    for d in 0..=max_d {
        let depth = ladder_depth_at_end(&isys, d, max_d + 3, &mut cache);
        let formula = match depth {
            0 => "(none)".to_string(),
            k => {
                let mut s = String::new();
                for level in (1..=k).rev() {
                    s.push_str(if level % 2 == 1 { "K_B " } else { "K_A " });
                }
                s + "dispatched"
            }
        };
        println!("  d = {d}: depth {depth}  {formula}");
    }

    let ck = common_knowledge_of_dispatch(&isys);
    println!(
        "\nC(dispatched) holds at {} points (paper: none — Theorem 5)",
        ck.count()
    );

    println!("\nthreshold attack-rule sweep (Corollary 6):");
    for ta in 0..=2usize {
        for tb in 0..=2usize {
            let verdict = match classify_attack_rule(horizon, ta, tb)? {
                AttackRuleOutcome::Unsafe(run) => format!("UNSAFE (lone attacker in {run})"),
                AttackRuleOutcome::AttacksWithoutPlan(run) => {
                    format!("INADMISSIBLE (attacks without communication in {run})")
                }
                AttackRuleOutcome::NeverAttacks => "never attacks".to_string(),
                AttackRuleOutcome::CoordinatedAttack => {
                    "COORDINATED?! (would contradict Corollary 6)".to_string()
                }
            };
            println!("  thresholds (A={ta}, B={tb}): {verdict}");
        }
    }
    Ok(())
}
