//! The R2–D2 ε-ladder (Section 8 of the paper).
//!
//! Usage: `cargo run --example r2d2_epsilon -- [eps]`
//!
//! Shows that with delivery uncertainty ε, every level of "R2 knows that
//! D2 knows" costs exactly ε time units and common knowledge is never
//! attained — and that removing the uncertainty (exact delay, or a
//! timestamped message under a global clock) restores it at `t_S + ε`.

use halpern_moses::core::puzzles::r2d2::{ck_sent, first_time, ladder_onsets, r2d2_parts};
use halpern_moses::kripke::{AgentGroup, WorldSet};
use halpern_moses::logic::{EvalCache, Formula};
use halpern_moses::netsim::scenarios::R2d2Mode;
use halpern_moses::runs::InterpretedSystem;

/// Points of `set` at times strictly before `cutoff`.
fn isys_window_count(isys: &InterpretedSystem, set: &WorldSet, cutoff: u64) -> usize {
    isys.system()
        .runs()
        .flat_map(|(rid, run)| {
            (0..cutoff.min(run.horizon() + 1))
                .map(move |t| (rid, t))
                .collect::<Vec<_>>()
        })
        .filter(|&(rid, t)| set.contains(isys.world(rid, t)))
        .count()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let eps: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("eps must be a number"))
        .unwrap_or(3);

    println!("== uncertain delivery (0 or ε = {eps}) ==");
    let (builder, meta) = r2d2_parts(eps, 4, 4, R2d2Mode::Uncertain);
    let isys = builder.build();
    let ts = meta.ts;
    println!("message sent at t_S = {ts}; onsets in the slow run:");
    for (k, onset) in ladder_onsets(&isys, &meta, 3, &mut EvalCache::new())?
        .iter()
        .enumerate()
    {
        match onset {
            Some(t) => {
                let expect = if k == 0 {
                    format!("t_S = {ts}")
                } else {
                    format!("t_S + {k}ε (+1) = {}", ts + k as u64 * eps + 1)
                };
                println!("  (K_R K_D)^{k} sent first holds at t = {t}   [{expect}]");
            }
            None => println!("  (K_R K_D)^{k} sent never holds"),
        }
    }
    // Count CK points inside the meaningful window (before the finite
    // family's last send time, past which `sent` is vacuously valid).
    let last_send = 8 * eps; // (pre + post) · ε with pre = post = 4
    let ck = ck_sent(&isys, &mut EvalCache::new())?;
    let in_window = isys_window_count(&isys, &ck, last_send);
    println!("C(sent) points before t = {last_send}: {in_window} (paper: unattainable)");

    println!("\n== delivery in exactly ε ==");
    let (builder, meta) = r2d2_parts(eps, 2, 2, R2d2Mode::Exact);
    let isys = builder.build();
    let f = Formula::common(AgentGroup::all(2), Formula::atom("sent"));
    let onset = first_time(&isys, meta.focus_slow, &f, &mut EvalCache::new())?;
    println!(
        "C(sent) first holds at t = {:?}   [paper: t_S + ε = {}]",
        onset,
        meta.ts + eps
    );

    println!("\n== timestamped message, global clock ==");
    let (builder, meta) = r2d2_parts(eps, 2, 2, R2d2Mode::Timestamped);
    let isys = builder.build();
    let f = Formula::common(AgentGroup::all(2), Formula::atom("sent_focus"));
    let onset = first_time(&isys, meta.focus_slow, &f, &mut EvalCache::new())?;
    println!(
        "C(sent m') first holds at t = {:?}   [paper: t_S + ε = {}]",
        onset,
        meta.ts + eps
    );
    println!("\n(The +1 offsets are the discrete-history comprehension tick; see DESIGN.md.)");
    Ok(())
}
