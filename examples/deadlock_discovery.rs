//! Fact discovery and fact publication (Section 3 of the paper).
//!
//! Usage: `cargo run --example deadlock_discovery`
//!
//! A deadlock starts as *distributed* knowledge (the wait-for graph is
//! spread over the processes), a probe protocol *discovers* it
//! (`D → S`), and the detector's broadcast *publishes* it
//! (`S → E → C^T`). Plain common knowledge is out of reach; timestamped
//! common knowledge is what the broadcast actually achieves.

use halpern_moses::core::discovery::{deadlock_system, discovery_trajectory, publication_stamp};
use halpern_moses::logic::Frame;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let isys = deadlock_system(3, 12)?;
    println!(
        "wait-for graphs over 3 processes: {} runs, {} points\n",
        isys.system().num_runs(),
        isys.model().num_worlds()
    );

    for (label, graph) in [
        ("three-cycle 0->1->2->0", [1u64, 2, 0]),
        ("two-cycle 0<->1, 2 free", [1, 0, 3]),
        ("chain 0->1->2 (no deadlock)", [1, 2, 3]),
    ] {
        let traj = discovery_trajectory(&isys, &graph)?;
        println!("{label}:");
        println!("  D(deadlock) from t = {:?}", traj.d_onset);
        println!(
            "  S(deadlock) from t = {:?}   (the discovery)",
            traj.s_onset
        );
        println!(
            "  E(deadlock) from t = {:?}   (after the alarm)",
            traj.e_onset
        );
        if traj.s_onset.is_some() {
            let stamp = publication_stamp(&isys, &graph)?;
            println!("  C^T(deadlock) publishable with timestamp T = {stamp:?}");
        }
        println!();
    }
    Ok(())
}
