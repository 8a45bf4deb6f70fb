//! Deterministic pseudo-random model generation.
//!
//! Property-based tests across the workspace (S5 axioms, fixed-point laws,
//! hierarchy inclusions) need a supply of arbitrary finite S5 models. To
//! keep `hm-kripke` dependency-free we ship a tiny deterministic SplitMix64
//! generator rather than pulling in `rand`; callers that want `proptest`
//! integration seed this from a proptest-chosen `u64`.

use crate::agent::AgentId;
use crate::model::{KripkeModel, ModelBuilder};

/// SplitMix64: a tiny, high-quality, deterministic PRNG (public domain
/// algorithm by Sebastiano Vigna). Identical seeds give identical models on
/// every platform.
///
/// # Examples
///
/// ```
/// use hm_kripke::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection-free multiply-shift is fine for test-grade uniformity.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Bernoulli draw with probability `num/denom`.
    pub fn next_bool(&mut self, num: u64, denom: u64) -> bool {
        self.next_below(denom) < num
    }
}

/// Shape parameters for [`random_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomModelSpec {
    /// Number of agents (≥ 1).
    pub num_agents: usize,
    /// Number of worlds (≥ 1).
    pub num_worlds: usize,
    /// Number of ground atoms (≥ 0, each true at ~half the worlds).
    pub num_atoms: usize,
    /// Upper bound on blocks per agent partition (≥ 1); actual block count
    /// is random in `1..=max_blocks`, capped by `num_worlds`.
    pub max_blocks: usize,
}

impl Default for RandomModelSpec {
    fn default() -> Self {
        RandomModelSpec {
            num_agents: 3,
            num_worlds: 12,
            num_atoms: 2,
            max_blocks: 4,
        }
    }
}

/// Generates a deterministic pseudo-random S5 model from `seed`.
///
/// Every agent's relation is a genuine partition (assignment of worlds to
/// random block keys), so the result is S5 by construction — which is the
/// point: property tests over these models check the theorems of the paper,
/// not the generator.
///
/// # Examples
///
/// ```
/// use hm_kripke::{random_model, RandomModelSpec};
/// let m = random_model(7, RandomModelSpec::default());
/// assert_eq!(m.num_worlds(), 12);
/// let m2 = random_model(7, RandomModelSpec::default());
/// assert_eq!(m.partition(0.into()), m2.partition(0.into()));
/// ```
pub fn random_model(seed: u64, spec: RandomModelSpec) -> KripkeModel {
    assert!(spec.num_agents >= 1 && spec.num_worlds >= 1 && spec.max_blocks >= 1);
    let mut rng = SplitMix64::new(seed);
    let mut b = ModelBuilder::new(spec.num_agents);
    for w in 0..spec.num_worlds {
        b.add_world(format!("r{w}"));
    }
    for a in 0..spec.num_atoms {
        let atom = b.atom(format!("q{a}"));
        for w in 0..spec.num_worlds {
            if rng.next_bool(1, 2) {
                b.set_atom(atom, w.into(), true);
            }
        }
    }
    for i in 0..spec.num_agents {
        let blocks = 1 + rng.next_below(spec.max_blocks.min(spec.num_worlds) as u64);
        let keys: Vec<u64> = (0..spec.num_worlds)
            .map(|_| rng.next_below(blocks))
            .collect();
        b.set_partition_by_key(AgentId::new(i), |w| keys[w.index()]);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentGroup;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let mut r = SplitMix64::new(0);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, b);
        // Known-answer: SplitMix64(0) first output.
        assert_eq!(a, 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn next_below_in_range() {
        let mut r = SplitMix64::new(99);
        for _ in 0..1000 {
            assert!(r.next_below(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(1).next_below(0);
    }

    #[test]
    fn random_models_reproducible() {
        let spec = RandomModelSpec::default();
        let (m1, m2) = (random_model(5, spec), random_model(5, spec));
        for i in 0..spec.num_agents {
            assert_eq!(m1.partition(i.into()), m2.partition(i.into()));
        }
        for a in 0..spec.num_atoms {
            assert_eq!(m1.atom_set(a.into()), m2.atom_set(a.into()));
        }
    }

    #[test]
    fn random_model_knowledge_axiom_smoke() {
        // K_i A ⊆ A over a batch of random models (Proposition 1, A1).
        for seed in 0..20 {
            let m = random_model(seed, RandomModelSpec::default());
            let a = m.atom_set(0.into());
            for i in 0..m.num_agents() {
                assert!(m.knowledge(i.into(), &a).is_subset(&a));
            }
            let g = AgentGroup::all(m.num_agents());
            assert!(m.common_knowledge(&g, &a).is_subset(&a));
            assert!(m.distributed_knowledge(&g, &a).is_subset(&a));
        }
    }

    #[test]
    fn ck_characterisations_agree_on_random_models() {
        for seed in 0..30 {
            let m = random_model(
                seed,
                RandomModelSpec {
                    num_agents: 2 + (seed as usize % 3),
                    num_worlds: 5 + (seed as usize % 20),
                    num_atoms: 1,
                    max_blocks: 5,
                },
            );
            let g = AgentGroup::all(m.num_agents());
            let a = m.atom_set(0.into());
            assert_eq!(
                m.common_knowledge(&g, &a),
                m.common_knowledge_gfp(&g, &a),
                "seed {seed}"
            );
        }
    }
}
