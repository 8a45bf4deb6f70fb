//! Fuzz properties for the two text parsers that face untrusted input:
//! the formula parser (`hm_logic::parse`, behind every `hm ask` and
//! `POST /query`) and the scenario spec parser
//! (`ScenarioRegistry::resolve` / `canonical_spec`, behind every spec
//! string).
//!
//! The contract is the JSON reader's (`crates/serve/tests/props_json.rs`):
//! **never panic** — answer `Ok` or a typed error, whatever the input.
//! Whatever the formula parser accepts must also print back to text that
//! parses to the same formula, and whatever `canonical_spec` accepts must
//! be a fixed point of it.
//!
//! Every property runs on a thread with the 2 MiB stack a
//! `std::thread::spawn` server worker gets, so a parser that recurses
//! without bound fails here as it would in `hm serve`. Case counts are
//! fixed and generation is deterministic per case seed, so failures
//! replay.

use halpern_moses::engine::ScenarioRegistry;
use halpern_moses::kripke::{AgentGroup, AgentId};
use halpern_moses::logic::{parse, Formula, F};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// Runs `property` on a thread with a server worker's 2 MiB stack,
/// re-raising its panic (a failed case) on the test thread.
fn on_worker_stack(property: fn()) {
    let worker = std::thread::Builder::new().stack_size(2 << 20);
    if let Err(panic) = worker.spawn(property).expect("spawn").join() {
        std::panic::resume_unwind(panic);
    }
}

/// Deterministic byte expansion from a seed (SplitMix64 steps).
fn bytes_from(mut seed: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        out.push((z & 0xff) as u8);
    }
    out
}

/// `len` tokens drawn by `seed` from `alphabet`, concatenated.
fn token_soup(alphabet: &[&str], seed: u64, len: usize) -> String {
    bytes_from(seed, len)
        .into_iter()
        .map(|b| alphabet[b as usize % alphabet.len()])
        .collect()
}

/// Formula syntax fragments: whole tokens, their pieces, and bytes the
/// grammar gives no meaning to.
#[rustfmt::skip]
const FORMULA_TOKENS: &[&str] = &[
    "p", "q0", "K0", "K1", "K99999999999999999999", "@", "[", "]", "{", "}", ",", "p1", "E", "E^",
    "^0", "^3", "S", "D", "C", "Eeps", "Ceps", "Eev", "Cev", "ET", "CT", "next", "even", "alw",
    "once", "nu", "mu", "X", "$", "$X", ".", "!", "&", "|", "->", "<->", "<", "-", "(", ")",
    "true", "false", " ", "\t", "7", "18446744073709551616", "λ", "\u{0}", "'",
];

/// Random formulas over the whole syntax: every connective, knowledge
/// and temporal operator, and both binders (free variables included —
/// the parser does not check binding).
fn formula_strategy() -> BoxedStrategy<F> {
    let g = || AgentGroup::all(2);
    let leaf = prop_oneof![
        Just(Formula::atom("q0")),
        Just(Formula::atom("q1")),
        Just(Formula::var("X")),
        Just(Formula::tt()),
        Just(Formula::ff()),
    ];
    leaf.prop_recursive(4, 48, 2, move |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and([a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or([a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::iff(a, b)),
            (0usize..3, inner.clone()).prop_map(|(i, a)| Formula::knows(AgentId::new(i), a)),
            (0usize..3, 0u64..9, inner.clone()).prop_map(|(i, t, a)| Formula::knows_at(
                AgentId::new(i),
                t,
                a
            )),
            (1u32..4, inner.clone()).prop_map(move |(k, a)| Formula::everyone_k(g(), k, a)),
            inner.clone().prop_map(move |a| Formula::someone(g(), a)),
            inner
                .clone()
                .prop_map(move |a| Formula::distributed(g(), a)),
            inner.clone().prop_map(move |a| Formula::common(g(), a)),
            (0u64..4, inner.clone()).prop_map(move |(e, a)| Formula::everyone_eps(g(), e, a)),
            (0u64..4, inner.clone()).prop_map(move |(e, a)| Formula::common_eps(g(), e, a)),
            inner
                .clone()
                .prop_map(move |a| Formula::everyone_ev(g(), a)),
            inner.clone().prop_map(move |a| Formula::common_ev(g(), a)),
            (0u64..9, inner.clone()).prop_map(move |(t, a)| Formula::everyone_ts(g(), t, a)),
            (0u64..9, inner.clone()).prop_map(move |(t, a)| Formula::common_ts(g(), t, a)),
            inner.clone().prop_map(Formula::next),
            inner.clone().prop_map(Formula::eventually),
            inner.clone().prop_map(Formula::always),
            inner.clone().prop_map(Formula::once),
            inner.clone().prop_map(|a| Formula::gfp("X", a)),
            inner.prop_map(|a| Formula::lfp("X", a)),
        ]
    })
    .boxed()
}

/// Applies one seeded single-byte mutation (truncate, insert, overwrite
/// or delete) to a document.
fn mutate(doc: &str, seed: u64, kind: u8) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let at = (seed as usize) % (bytes.len() + 1);
    let noise = bytes_from(seed ^ 0xdead_beef, 1)[0];
    match kind % 4 {
        0 => bytes.truncate(at),
        1 => bytes.insert(at, noise),
        2 if at < bytes.len() => bytes[at] = noise,
        _ if at < bytes.len() => {
            bytes.remove(at);
        }
        _ => bytes.push(noise),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The formula contract: parse or fail with a typed error; what parses
/// prints back to text that parses to the same formula.
fn check_formula_text(src: &str) -> TestCaseResult {
    if let Ok(f) = parse(src) {
        let printed = f.to_string();
        let again = parse(&printed);
        prop_assert_eq!(again.as_ref(), Ok(&f), "`{}` printed as `{}`", src, printed);
    }
    Ok(())
}

/// Spec syntax fragments: every registered name, parameter keys, values
/// in and out of range, and separators in the wrong places.
#[rustfmt::skip]
const SPEC_TOKENS: &[&str] = &[
    "agreement", "generals", "muddy", "r2d2", "r2d2-timestamped", "random", "views", "n", "f",
    "dirty", "horizon", "eps", "pre", "post", "worlds", "agents", "atoms", "blocks", "seed", ":",
    ",", "=", "0", "1", "3", "-1", "99999999999999999999999", "true", " ", "", "x", "λ", "\u{0}",
];

/// The spec contract: `resolve` and `canonical_spec` answer `Ok` or a
/// typed error; a canonical spec resolves and is its own canonical form.
fn check_spec_text(registry: &ScenarioRegistry, spec: &str) -> TestCaseResult {
    let resolved = registry.resolve(spec).is_ok();
    match registry.canonical_spec(spec) {
        Ok(canonical) => {
            prop_assert!(resolved, "`{}` canonicalises but does not resolve", spec);
            prop_assert!(registry.resolve(&canonical).is_ok(), "`{}`", canonical);
            let again = registry.canonical_spec(&canonical);
            prop_assert_eq!(
                again.as_ref(),
                Ok(&canonical),
                "`{}` is not canonical",
                canonical
            );
        }
        Err(_) => prop_assert!(!resolved, "`{}` resolves but does not canonicalise", spec),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn formula_soup(seed in 0u64..u64::MAX, len in 0usize..64, raw in 0u8..4) {
        let src = if raw == 0 {
            String::from_utf8_lossy(&bytes_from(seed, len * 4)).into_owned()
        } else {
            token_soup(FORMULA_TOKENS, seed, len)
        };
        check_formula_text(&src)?;
    }

    fn mutated_formulas(f in formula_strategy(), seed in 0u64..u64::MAX, kind in 0u8..4) {
        check_formula_text(&f.to_string())?;
        check_formula_text(&mutate(&f.to_string(), seed, kind))?;
    }

    fn spec_soup(seed in 0u64..u64::MAX, len in 0usize..12, raw in 0u8..4) {
        let registry = ScenarioRegistry::builtin();
        let spec = if raw == 0 {
            String::from_utf8_lossy(&bytes_from(seed, len * 3)).into_owned()
        } else {
            token_soup(SPEC_TOKENS, seed, len)
        };
        check_spec_text(&registry, &spec)?;
    }

    fn mutated_specs(pick in 0usize..64, seed in 0u64..u64::MAX, kind in 0u8..4) {
        let registry = ScenarioRegistry::builtin();
        let names = registry.names();
        let name = &names[pick % names.len()];
        let canonical = registry.canonical_spec(name).expect("registered names resolve");
        check_spec_text(&registry, &mutate(&canonical, seed, kind))?;
    }
}

#[test]
fn formula_parser_survives_byte_soup() {
    on_worker_stack(formula_soup);
}

#[test]
fn formula_parser_survives_mutated_formulas() {
    on_worker_stack(mutated_formulas);
}

#[test]
fn spec_parser_survives_byte_soup() {
    on_worker_stack(spec_soup);
}

#[test]
fn spec_parser_survives_mutated_specs() {
    on_worker_stack(mutated_specs);
}
