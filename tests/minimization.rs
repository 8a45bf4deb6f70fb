//! Bisimulation minimisation applied to interpreted run systems: the
//! quotient gives the same answers for the D-free language at a fraction
//! of the size (extension X3, DESIGN.md).

use halpern_moses::core::puzzles::attack::generals_builder;
use halpern_moses::core::puzzles::muddy::MuddyChildren;
use halpern_moses::kripke::{minimize, random_model, AgentGroup, AgentId, RandomModelSpec};
use halpern_moses::limits::Budget;
use halpern_moses::logic::{evaluate, Formula, Frame};

#[test]
fn generals_points_compress_and_answers_agree() {
    let isys = generals_builder(8, &Budget::unlimited()).unwrap().build();
    let model = isys.model();
    let min = minimize(model, &Budget::unlimited()).unwrap();
    assert!(
        min.model.num_worlds() < model.num_worlds(),
        "quiet stretches of the runs should collapse ({} vs {})",
        min.model.num_worlds(),
        model.num_worlds()
    );
    let g = AgentGroup::all(2);
    for f in [
        Formula::atom("dispatched"),
        Formula::knows(AgentId::new(1), Formula::atom("dispatched")),
        Formula::knows(
            AgentId::new(0),
            Formula::knows(AgentId::new(1), Formula::atom("dispatched")),
        ),
        Formula::everyone(g.clone(), Formula::atom("dispatched")),
        Formula::someone(g.clone(), Formula::atom("dispatched")),
        Formula::everyone_k(g.clone(), 2, Formula::atom("dispatched")),
        Formula::everyone_k(g.clone(), 3, Formula::atom("dispatched")),
        Formula::common(g, Formula::atom("dispatched")),
    ] {
        let on_full = evaluate(model, &f).unwrap();
        let on_min = evaluate(&min.model, &f).unwrap();
        for w in model.worlds() {
            assert_eq!(
                on_full.contains(w),
                on_min.contains(min.image(w)),
                "{f} differs at {}",
                model.world_label(w)
            );
        }
    }
}

/// The group operators built from `K_i` (E, S, Eᵏ, C) answer alike on a
/// random model and on its quotient, read back through the quotient map.
#[test]
fn group_operators_agree_on_random_quotients() {
    for seed in 0..30u64 {
        let m = random_model(
            seed,
            RandomModelSpec {
                num_agents: 2 + (seed % 2) as usize,
                num_worlds: 6 + (seed % 18) as usize,
                num_atoms: 1,
                max_blocks: 3,
            },
        );
        let min = minimize(&m, &Budget::unlimited()).unwrap();
        let g = AgentGroup::all(m.num_agents());
        let q = || Formula::atom("q0");
        for f in [
            Formula::everyone(g.clone(), q()),
            Formula::someone(g.clone(), q()),
            Formula::everyone_k(g.clone(), 3, q()),
            Formula::common(g.clone(), q()),
        ] {
            let on_full = evaluate(&m, &f).unwrap();
            let on_min = evaluate(&min.model, &f).unwrap();
            for w in m.worlds() {
                assert_eq!(
                    on_full.contains(w),
                    on_min.contains(min.image(w)),
                    "seed {seed}: {f} differs at {w}"
                );
            }
        }
    }
}

#[test]
fn muddy_children_model_is_already_minimal() {
    // Every world of the muddy model is epistemically distinct (each
    // muddiness vector has a unique atom valuation), so minimisation is
    // the identity in size.
    let p = MuddyChildren::new(5);
    let min = minimize(p.model(), &Budget::unlimited()).unwrap();
    assert_eq!(min.model.num_worlds(), p.model().num_worlds());
}

#[test]
fn compression_ratio_reported() {
    // Not a claim from the paper — a sanity bound to catch regressions
    // in view interning: the generals' 54-point system should compress
    // by at least a third (quiet ticks dominate).
    let isys = generals_builder(8, &Budget::unlimited()).unwrap().build();
    let before = isys.model().num_worlds();
    let after = minimize(isys.model(), &Budget::unlimited())
        .unwrap()
        .model
        .num_worlds();
    assert!(
        after * 3 <= before * 2,
        "expected >= 1/3 compression: {before} -> {after}"
    );
}
