//! The probabilistic coordinated attack (Section 8).
//!
//! "A protocol that guarantees that if one party attacks, then with high
//! probability the other will attack is achievable, under appropriate
//! probabilistic assumptions about message delivery. The details of such
//! a protocol are straightforward and left to the reader." — here is the
//! reader's protocol, with *exact* rational probabilities computed over
//! the fully enumerated run space (the run set is finite, so we weight
//! runs instead of sampling).
//!
//! Protocol: general A sends `k` copies of "attack at time T", then
//! attacks at `T` unconditionally; general B attacks at `T` iff it
//! received at least one copy. Each copy is delivered independently with
//! probability `p`. Then `P(B attacks | A attacks) = 1 − (1−p)^k → 1`.

use hm_kripke::AgentId;
use hm_limits::Limits;
use hm_netsim::scenarios::ACT_ATTACK;
use hm_netsim::{
    enumerate_runs, Command, EnumerateError, ExecutionSpec, FnProtocol, LocalView, LossyFixedDelay,
};
use hm_runs::{Message, Run};

/// An exact non-negative rational (numerator/denominator in lowest
/// terms). Sufficient for run-weighting; not a general arithmetic type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    /// Numerator.
    pub num: u128,
    /// Denominator (non-zero).
    pub den: u128,
}

impl Ratio {
    /// Creates `num/den` reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: u128, den: u128) -> Self {
        assert!(den != 0, "denominator must be non-zero");
        if num == 0 {
            return Ratio { num: 0, den: 1 };
        }
        let g = gcd(num, den);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// Zero.
    pub fn zero() -> Self {
        Ratio { num: 0, den: 1 }
    }

    /// One.
    pub fn one() -> Self {
        Ratio { num: 1, den: 1 }
    }

    /// Sum.
    #[allow(clippy::should_implement_trait)] // named methods keep the API tiny
    pub fn add(self, other: Ratio) -> Ratio {
        Ratio::new(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )
    }

    /// Product.
    fn mul(self, other: Ratio) -> Ratio {
        Ratio::new(self.num * other.num, self.den * other.den)
    }

    /// `1 − self` (requires `self ≤ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `self > 1`.
    pub fn complement(self) -> Ratio {
        assert!(self.num <= self.den, "complement needs a probability");
        Ratio::new(self.den - self.num, self.den)
    }

    /// `self^k`.
    fn pow(self, k: u32) -> Ratio {
        let mut out = Ratio::one();
        for _ in 0..k {
            out = out.mul(self);
        }
        out
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Outcome statistics of the `k`-copy probabilistic attack protocol with
/// per-message delivery probability `p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackStats {
    /// Number of enumerated runs (`2^k`).
    pub runs: usize,
    /// `P(both attack)` — A always attacks, so this is
    /// `P(B attacks | A attacks)` as well.
    pub p_coordinated: Ratio,
    /// `P(A attacks alone)` — the residual risk the paper's remark
    /// quantifies over.
    pub p_lone_attack: Ratio,
}

/// Enumerates the protocol's runs and weights them exactly.
///
/// # Errors
///
/// Propagates [`EnumerateError`].
///
/// # Panics
///
/// Panics if `p` is not a probability (`num > den`) or `k == 0`.
pub fn probabilistic_attack(k: u32, p: Ratio) -> Result<AttackStats, EnumerateError> {
    assert!(p.num <= p.den, "p must be a probability");
    assert!(k >= 1, "at least one copy");
    let horizon = k as u64 + 2;
    let attack_time = k as u64 + 1;
    let protocol = FnProtocol::new("prob-attack", move |v: &LocalView<'_>| {
        let mut cmds = Vec::new();
        match v.me.index() {
            0 => {
                let sent = v.sent().count();
                if sent < k as usize {
                    cmds.push(Command::Send {
                        to: AgentId::new(1),
                        msg: Message::new(1, sent as u64),
                    });
                }
                // A attacks at T unconditionally (it committed).
                if sent == k as usize && !v.has_acted(ACT_ATTACK) {
                    cmds.push(Command::Act {
                        action: ACT_ATTACK,
                        data: 0,
                    });
                }
            }
            // B attacks iff it received any copy. Without clocks B times
            // its attack by message count plus silence — here it acts as
            // soon as a copy is in its history (simplification: act once).
            1 if v.received().count() > 0 && !v.has_acted(ACT_ATTACK) => {
                cmds.push(Command::Act {
                    action: ACT_ATTACK,
                    data: 0,
                });
            }
            _ => {}
        }
        cmds
    });
    let budget = Limits::none().max_runs(1 << (k + 2)).budget();
    let system = enumerate_runs(
        &protocol,
        &LossyFixedDelay { delay: 1 },
        &[ExecutionSpec::simple(2, horizon)],
        &budget,
    )?
    .into_system()?;
    let mut p_coordinated = Ratio::zero();
    let mut p_lone = Ratio::zero();
    let q = p.complement();
    for (_, run) in system.runs() {
        let delivered = run.deliveries_before(run.horizon() + 1) as u32;
        let weight = p.pow(delivered).mul(q.pow(k - delivered));
        let b_attacks = attacks_in_run(run, 1);
        if b_attacks {
            p_coordinated = p_coordinated.add(weight);
        } else {
            p_lone = p_lone.add(weight);
        }
    }
    let _ = attack_time;
    Ok(AttackStats {
        runs: system.num_runs(),
        p_coordinated,
        p_lone_attack: p_lone,
    })
}

fn attacks_in_run(run: Run<'_>, i: usize) -> bool {
    run.proc(AgentId::new(i))
        .events()
        .iter()
        .any(|e| matches!(e.event, hm_runs::Event::Act { action, .. } if action == ACT_ATTACK))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_arithmetic() {
        let half = Ratio::new(2, 4);
        assert_eq!(half, Ratio::new(1, 2));
        assert_eq!(half.add(half), Ratio::one());
        assert_eq!(half.mul(half), Ratio::new(1, 4));
        assert_eq!(half.complement(), half);
        assert_eq!(Ratio::new(9, 10).pow(2), Ratio::new(81, 100));
        assert_eq!(Ratio::zero().add(Ratio::one()), Ratio::one());
        assert_eq!(format!("{}", Ratio::new(3, 9)), "1/3");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_denominator_panics() {
        Ratio::new(1, 0);
    }

    #[test]
    fn coordination_probability_is_one_minus_qk() {
        let p = Ratio::new(9, 10);
        for k in 1..=4u32 {
            let stats = probabilistic_attack(k, p).unwrap();
            assert_eq!(stats.runs, 1 << k, "k={k}");
            let expected_lone = p.complement().pow(k);
            assert_eq!(stats.p_lone_attack, expected_lone, "k={k}");
            assert_eq!(stats.p_coordinated, expected_lone.complement(), "k={k}");
        }
    }

    #[test]
    fn risk_decreases_monotonically_in_k() {
        let p = Ratio::new(3, 4);
        let mut prev = Ratio::one();
        for k in 1..=5u32 {
            let stats = probabilistic_attack(k, p).unwrap();
            let lone = stats.p_lone_attack;
            assert!(
                lone.num * prev.den < prev.num * lone.den,
                "k={k}: risk must strictly decrease"
            );
            prev = lone;
        }
    }

    #[test]
    fn total_probability_is_one() {
        let p = Ratio::new(1, 3);
        let stats = probabilistic_attack(3, p).unwrap();
        assert_eq!(stats.p_coordinated.add(stats.p_lone_attack), Ratio::one());
    }
}
