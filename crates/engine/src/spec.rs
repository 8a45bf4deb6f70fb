//! The scenario spec grammar: `"name:key=value,key=value"`.
//!
//! A *spec string* addresses one configured frame of the paper in a
//! single token — `"agreement:n=4,f=2"`, `"muddy:n=6,dirty=3"`,
//! `"r2d2:eps=3"`, `"skewed:skew=2"` — so external callers (the `hm`
//! CLI, the experiment driver, scripts) reach every registered scenario
//! without writing Rust. The grammar is deliberately tiny:
//!
//! ```text
//! spec   := name [ ":" param ("," param)* ]
//! param  := key "=" value
//! name   := [a-z0-9-]+          (scenario family, e.g. "uncertain-start")
//! key    := [a-z0-9_]+          (declared by the scenario, e.g. "n")
//! value  := integer | bool | choice identifier
//! ```
//!
//! Parsing is split in two phases. [`ScenarioSpec::parse`] checks the
//! *syntax* only and yields raw `(key, value)` text pairs. Validation
//! against a concrete scenario — unknown keys, type errors, range
//! checks, defaults — happens in
//! [`ScenarioRegistry::resolve`](crate::ScenarioRegistry::resolve),
//! which knows the scenario's [`ParamDescriptor`]s. Every failure mode
//! has its own [`SpecError`] variant with an actionable message,
//! including a nearest-name suggestion for misspelled scenarios.
//!
//! # Examples
//!
//! ```
//! use hm_engine::ScenarioSpec;
//! let spec = ScenarioSpec::parse("agreement:n=4,f=2")?;
//! assert_eq!(spec.name, "agreement");
//! assert_eq!(spec.params, vec![("n".into(), "4".into()), ("f".into(), "2".into())]);
//! assert_eq!(spec.to_string(), "agreement:n=4,f=2");
//! # Ok::<(), hm_engine::SpecError>(())
//! ```

use std::fmt;

/// A syntactically parsed spec string: the scenario name plus raw
/// `(key, value)` pairs, not yet validated against any scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// The scenario family name (the part before `:`).
    pub name: String,
    /// The raw parameter pairs, in source order.
    pub params: Vec<(String, String)>,
}

impl ScenarioSpec {
    /// Parses the `name:key=value,...` syntax (see the module docs for
    /// the grammar). No scenario lookup happens here.
    ///
    /// # Errors
    ///
    /// [`SpecError::Syntax`] on an empty name, an empty or `=`-less
    /// parameter, an empty key or value, or characters outside the
    /// grammar.
    pub fn parse(src: &str) -> Result<ScenarioSpec, SpecError> {
        let syntax = |what: &str| SpecError::Syntax {
            spec: src.to_string(),
            what: what.to_string(),
        };
        let (name, rest) = match src.split_once(':') {
            Some((n, r)) => (n, Some(r)),
            None => (src, None),
        };
        if name.is_empty() {
            return Err(syntax("empty scenario name"));
        }
        if !name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            return Err(syntax(&format!(
                "scenario name `{name}` (allowed: a-z, 0-9, -)"
            )));
        }
        let mut params = Vec::new();
        if let Some(rest) = rest {
            if rest.is_empty() {
                return Err(syntax("trailing `:` without parameters"));
            }
            for pair in rest.split(',') {
                let Some((key, value)) = pair.split_once('=') else {
                    return Err(syntax(&format!("parameter `{pair}` (expected key=value)")));
                };
                if key.is_empty() || value.is_empty() {
                    return Err(syntax(&format!("parameter `{pair}` (expected key=value)")));
                }
                if !key
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                {
                    return Err(syntax(&format!("key `{key}` (allowed: a-z, 0-9, _)")));
                }
                params.push((key.to_string(), value.to_string()));
            }
        }
        Ok(ScenarioSpec {
            name: name.to_string(),
            params,
        })
    }

    /// The canonical spelling of this spec: parameters sorted by key, so
    /// orderings of the same assignment render identically —
    /// `r2d2:eps=2,pre=1` and `r2d2:pre=1,eps=2` both canonicalize to
    /// `r2d2:eps=2,pre=1`. Canonicalization is purely syntactic (no
    /// registry lookup): defaults a spec omits stay omitted. For a cache
    /// key that also equates `generals` with `generals:horizon=8`, use
    /// [`ScenarioRegistry::canonical_spec`](crate::ScenarioRegistry::canonical_spec),
    /// which resolves defaults first.
    ///
    /// The result round-trips: parsing it yields an equal spec modulo
    /// parameter order, and canonicalizing again is a fixed point.
    ///
    /// # Examples
    ///
    /// ```
    /// use hm_engine::ScenarioSpec;
    /// let a = ScenarioSpec::parse("r2d2:pre=1,eps=2")?;
    /// let b = ScenarioSpec::parse("r2d2:eps=2,pre=1")?;
    /// assert_eq!(a.canonical(), "r2d2:eps=2,pre=1");
    /// assert_eq!(a.canonical(), b.canonical());
    /// # Ok::<(), hm_engine::SpecError>(())
    /// ```
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut sorted = self.params.clone();
        sorted.sort_by(|(a, _), (b, _)| a.cmp(b));
        let spec = ScenarioSpec {
            name: self.name.clone(),
            params: sorted,
        };
        spec.to_string()
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for (i, (k, v)) in self.params.iter().enumerate() {
            write!(f, "{}{k}={v}", if i == 0 { ':' } else { ',' })?;
        }
        Ok(())
    }
}

impl std::str::FromStr for ScenarioSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScenarioSpec::parse(s)
    }
}

/// The type and range of one scenario parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamKind {
    /// An unsigned integer in `min..=max`.
    Int {
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
    /// `true` or `false`.
    Bool,
    /// One name out of a fixed list.
    Choice(&'static [&'static str]),
}

impl fmt::Display for ParamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamKind::Int { min, max } if *max == u64::MAX => write!(f, "integer >= {min}"),
            ParamKind::Int { min, max } => write!(f, "integer in {min}..={max}"),
            ParamKind::Bool => write!(f, "true|false"),
            ParamKind::Choice(options) => write!(f, "{}", options.join("|")),
        }
    }
}

/// A typed parameter a scenario declares: key, kind (with range),
/// default, and a one-line doc string (surfaced by `hm describe` and
/// `SCENARIOS.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDescriptor {
    /// The parameter key as written in spec strings.
    pub key: &'static str,
    /// Type and accepted range.
    pub kind: ParamKind,
    /// The value used when the spec omits the key.
    pub default: ParamValue,
    /// One-line description.
    pub doc: &'static str,
}

impl ParamDescriptor {
    /// An integer parameter in `min..=max`.
    pub fn int(key: &'static str, default: u64, min: u64, max: u64, doc: &'static str) -> Self {
        debug_assert!((min..=max).contains(&default));
        ParamDescriptor {
            key,
            kind: ParamKind::Int { min, max },
            default: ParamValue::Int(default),
            doc,
        }
    }

    /// A boolean parameter.
    pub fn boolean(key: &'static str, default: bool, doc: &'static str) -> Self {
        ParamDescriptor {
            key,
            kind: ParamKind::Bool,
            default: ParamValue::Bool(default),
            doc,
        }
    }

    /// A choice parameter; `default` must be one of `options`.
    pub fn choice(
        key: &'static str,
        default: &'static str,
        options: &'static [&'static str],
        doc: &'static str,
    ) -> Self {
        debug_assert!(options.contains(&default));
        ParamDescriptor {
            key,
            kind: ParamKind::Choice(options),
            default: ParamValue::Choice(default),
            doc,
        }
    }

    /// Parses and validates one raw value against this descriptor.
    fn check(&self, scenario: &str, raw: &str) -> Result<ParamValue, SpecError> {
        match &self.kind {
            ParamKind::Int { min, max } => {
                let v: u64 = raw.parse().map_err(|_| SpecError::InvalidValue {
                    scenario: scenario.to_string(),
                    key: self.key.to_string(),
                    value: raw.to_string(),
                    expected: self.kind.to_string(),
                })?;
                if !(*min..=*max).contains(&v) {
                    return Err(SpecError::OutOfRange {
                        scenario: scenario.to_string(),
                        key: self.key.to_string(),
                        value: raw.to_string(),
                        range: self.kind.to_string(),
                    });
                }
                Ok(ParamValue::Int(v))
            }
            ParamKind::Bool => match raw {
                "true" => Ok(ParamValue::Bool(true)),
                "false" => Ok(ParamValue::Bool(false)),
                _ => Err(SpecError::InvalidValue {
                    scenario: scenario.to_string(),
                    key: self.key.to_string(),
                    value: raw.to_string(),
                    expected: self.kind.to_string(),
                }),
            },
            ParamKind::Choice(options) => options
                .iter()
                .find(|&&o| o == raw)
                .map(|&o| ParamValue::Choice(o))
                .ok_or_else(|| SpecError::InvalidValue {
                    scenario: scenario.to_string(),
                    key: self.key.to_string(),
                    value: raw.to_string(),
                    expected: self.kind.to_string(),
                }),
        }
    }
}

/// A validated parameter value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamValue {
    /// An unsigned integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A canonical choice name (one of the descriptor's options).
    Choice(&'static str),
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Bool(v) => write!(f, "{v}"),
            ParamValue::Choice(v) => write!(f, "{v}"),
        }
    }
}

/// The fully resolved parameter assignment of one spec: every declared
/// key is present (spec value or default). Scenario `build`
/// implementations read from this; the typed accessors panic only on
/// scenario-implementation bugs (asking for an undeclared key or the
/// wrong type), never on user input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParamValues {
    values: Vec<(&'static str, ParamValue)>,
}

impl ParamValues {
    /// Every descriptor's default — the assignment a bare scenario name
    /// resolves to. [`Engine::with_scenario`](crate::Engine::with_scenario)
    /// uses this so custom scenarios see their declared defaults.
    pub fn defaults(descriptors: &[ParamDescriptor]) -> ParamValues {
        ParamValues {
            values: descriptors
                .iter()
                .map(|d| (d.key, d.default.clone()))
                .collect(),
        }
    }

    /// Resolves raw pairs against descriptors: rejects unknown and
    /// duplicate keys, type- and range-checks values, fills defaults.
    pub(crate) fn resolve(
        scenario: &str,
        descriptors: &[ParamDescriptor],
        raw: &[(String, String)],
    ) -> Result<ParamValues, SpecError> {
        let mut values: Vec<(&'static str, ParamValue)> = Vec::with_capacity(descriptors.len());
        for (key, value) in raw {
            let Some(d) = descriptors.iter().find(|d| d.key == key) else {
                return Err(SpecError::UnknownParam {
                    scenario: scenario.to_string(),
                    key: key.clone(),
                    known: descriptors.iter().map(|d| d.key.to_string()).collect(),
                });
            };
            if values.iter().any(|(k, _)| *k == d.key) {
                return Err(SpecError::DuplicateParam {
                    scenario: scenario.to_string(),
                    key: key.clone(),
                });
            }
            values.push((d.key, d.check(scenario, value)?));
        }
        for d in descriptors {
            if !values.iter().any(|(k, _)| *k == d.key) {
                values.push((d.key, d.default.clone()));
            }
        }
        Ok(ParamValues { values })
    }

    /// The value of `key`, if declared.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.values.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// All resolved `(key, value)` pairs (explicit spec values and
    /// filled defaults alike), in resolution order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, &ParamValue)> {
        self.values.iter().map(|(k, v)| (*k, v))
    }

    /// The integer value of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` was not declared as an integer parameter.
    pub fn int(&self, key: &str) -> u64 {
        match self.get(key) {
            Some(ParamValue::Int(v)) => *v,
            other => panic!("parameter `{key}` is not a declared integer (got {other:?})"),
        }
    }

    /// The integer value of `key`, as a `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `key` was not declared as an integer parameter.
    pub fn size(&self, key: &str) -> usize {
        usize::try_from(self.int(key)).expect("declared ranges fit usize")
    }

    /// The boolean value of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` was not declared as a boolean parameter.
    pub fn flag(&self, key: &str) -> bool {
        match self.get(key) {
            Some(ParamValue::Bool(v)) => *v,
            other => panic!("parameter `{key}` is not a declared boolean (got {other:?})"),
        }
    }

    /// The choice value of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` was not declared as a choice parameter.
    pub fn choice(&self, key: &str) -> &'static str {
        match self.get(key) {
            Some(ParamValue::Choice(v)) => v,
            other => panic!("parameter `{key}` is not a declared choice (got {other:?})"),
        }
    }
}

/// Everything that can go wrong between a spec string and a buildable
/// scenario. Every variant's `Display` names the offending part and
/// what would have been accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec string does not match the grammar.
    Syntax {
        /// The offending spec string.
        spec: String,
        /// What was malformed.
        what: String,
    },
    /// No scenario of this name is registered.
    UnknownScenario {
        /// The requested name.
        name: String,
        /// The registered name closest by edit distance, if any is
        /// close enough to be a plausible typo.
        suggestion: Option<String>,
        /// All registered names.
        known: Vec<String>,
    },
    /// The scenario does not declare this parameter.
    UnknownParam {
        /// The scenario name.
        scenario: String,
        /// The unknown key.
        key: String,
        /// The declared keys.
        known: Vec<String>,
    },
    /// The same key appeared twice.
    DuplicateParam {
        /// The scenario name.
        scenario: String,
        /// The repeated key.
        key: String,
    },
    /// The value does not parse as the parameter's type.
    InvalidValue {
        /// The scenario name.
        scenario: String,
        /// The parameter key.
        key: String,
        /// The rejected value text.
        value: String,
        /// What the parameter accepts.
        expected: String,
    },
    /// The value parses but falls outside the declared range.
    OutOfRange {
        /// The scenario name.
        scenario: String,
        /// The parameter key.
        key: String,
        /// The rejected value text.
        value: String,
        /// The accepted range.
        range: String,
    },
    /// The values are individually valid but jointly inconsistent
    /// (e.g. `muddy:n=4,dirty=6`).
    Constraint {
        /// The scenario name.
        scenario: String,
        /// What the scenario requires.
        what: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax { spec, what } => {
                write!(
                    f,
                    "malformed spec `{spec}`: {what}; expected name:key=value,..."
                )
            }
            SpecError::UnknownScenario {
                name,
                suggestion,
                known,
            } => {
                write!(f, "unknown scenario `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, " — did you mean `{s}`?")?;
                }
                write!(f, " (registered: {})", known.join(", "))
            }
            SpecError::UnknownParam {
                scenario,
                key,
                known,
            } => {
                write!(f, "scenario `{scenario}` has no parameter `{key}`")?;
                if known.is_empty() {
                    write!(f, " (it takes no parameters)")
                } else {
                    write!(f, " (expected: {})", known.join(", "))
                }
            }
            SpecError::DuplicateParam { scenario, key } => {
                write!(f, "parameter `{key}` given twice for scenario `{scenario}`")
            }
            SpecError::InvalidValue {
                scenario,
                key,
                value,
                expected,
            } => write!(
                f,
                "invalid value `{value}` for `{scenario}` parameter `{key}` (expected {expected})"
            ),
            SpecError::OutOfRange {
                scenario,
                key,
                value,
                range,
            } => write!(
                f,
                "value `{value}` for `{scenario}` parameter `{key}` is out of range (expected {range})"
            ),
            SpecError::Constraint { scenario, what } => {
                write!(f, "inconsistent parameters for `{scenario}`: {what}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Levenshtein edit distance, for nearest-name suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The candidate closest to `name` by edit distance, if plausibly a
/// typo (distance at most 2, or 3 for names longer than 6 characters);
/// the first such candidate on ties. Scenario errors use it, and so may
/// any other selector by name (`hm exp` does, for experiments).
pub fn nearest_name<S: AsRef<str>>(name: &str, candidates: &[S]) -> Option<String> {
    let budget = if name.chars().count() > 6 { 3 } else { 2 };
    candidates
        .iter()
        .map(|c| (edit_distance(name, c.as_ref()), c.as_ref()))
        .filter(|(d, _)| *d <= budget)
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_name() {
        let s = ScenarioSpec::parse("generals").unwrap();
        assert_eq!(s.name, "generals");
        assert!(s.params.is_empty());
        assert_eq!(s.to_string(), "generals");
    }

    #[test]
    fn parses_params_in_order() {
        let s = ScenarioSpec::parse("agreement:n=4,f=2").unwrap();
        assert_eq!(s.name, "agreement");
        assert_eq!(s.params.len(), 2);
        assert_eq!(s.to_string(), "agreement:n=4,f=2");
    }

    #[test]
    fn canonical_sorts_params_and_round_trips() {
        // Orderings of the same assignment share one canonical form…
        let a = ScenarioSpec::parse("r2d2:eps=2,pre=1").unwrap();
        let b = ScenarioSpec::parse("r2d2:pre=1,eps=2").unwrap();
        assert_eq!(a.canonical(), "r2d2:eps=2,pre=1");
        assert_eq!(a.canonical(), b.canonical());
        // …which parses back to the same assignment (round-trip) and is
        // a fixed point of canonicalization.
        let re = ScenarioSpec::parse(&a.canonical()).unwrap();
        assert_eq!(re.canonical(), a.canonical());
        let mut sorted = b.params;
        sorted.sort();
        assert_eq!(re.params, sorted);
        // Bare names are their own canonical form.
        assert_eq!(
            ScenarioSpec::parse("generals").unwrap().canonical(),
            "generals"
        );
    }

    #[test]
    fn syntax_errors_name_the_problem() {
        for (src, needle) in [
            ("", "empty scenario name"),
            (":n=4", "empty scenario name"),
            ("muddy:", "trailing `:`"),
            ("muddy:n", "expected key=value"),
            ("muddy:n=", "expected key=value"),
            ("muddy:=4", "expected key=value"),
            ("muddy:n=4,", "expected key=value"),
            ("Muddy", "scenario name"),
            ("muddy:N=4", "key `N`"),
        ] {
            let err = ScenarioSpec::parse(src).unwrap_err();
            assert!(
                matches!(&err, SpecError::Syntax { .. }) && err.to_string().contains(needle),
                "{src}: {err}"
            );
        }
    }

    #[test]
    fn resolve_fills_defaults_and_validates() {
        let ds = vec![
            ParamDescriptor::int("n", 4, 2, 10, "children"),
            ParamDescriptor::boolean("fast", false, "speed"),
            ParamDescriptor::choice("view", "complete", &["complete", "last"], "view"),
        ];
        let v = ParamValues::resolve("demo", &ds, &[("n".to_string(), "6".to_string())]).unwrap();
        assert_eq!(v.int("n"), 6);
        assert_eq!(v.size("n"), 6);
        assert!(!v.flag("fast"));
        assert_eq!(v.choice("view"), "complete");
        assert_eq!(v.get("nope"), None);
    }

    #[test]
    fn resolve_rejects_unknown_duplicate_invalid_out_of_range() {
        let ds = vec![ParamDescriptor::int("n", 4, 2, 10, "children")];
        let r = |pairs: &[(&str, &str)]| {
            ParamValues::resolve(
                "demo",
                &ds,
                &pairs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect::<Vec<_>>(),
            )
        };
        assert!(matches!(
            r(&[("m", "4")]),
            Err(SpecError::UnknownParam { .. })
        ));
        assert!(matches!(
            r(&[("n", "4"), ("n", "5")]),
            Err(SpecError::DuplicateParam { .. })
        ));
        assert!(matches!(
            r(&[("n", "x")]),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            r(&[("n", "11")]),
            Err(SpecError::OutOfRange { .. })
        ));
        assert!(matches!(
            r(&[("n", "1")]),
            Err(SpecError::OutOfRange { .. })
        ));
    }

    #[test]
    fn bool_and_choice_values() {
        let ds = vec![
            ParamDescriptor::boolean("fast", false, "speed"),
            ParamDescriptor::choice("view", "complete", &["complete", "last"], "view"),
        ];
        let one =
            |k: &str, v: &str| ParamValues::resolve("demo", &ds, &[(k.to_string(), v.to_string())]);
        assert!(one("fast", "true").unwrap().flag("fast"));
        assert!(matches!(
            one("fast", "1"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert_eq!(one("view", "last").unwrap().choice("view"), "last");
        assert!(matches!(
            one("view", "lost"),
            Err(SpecError::InvalidValue { .. })
        ));
    }

    #[test]
    fn nearest_name_suggests_typos_only() {
        let names: Vec<String> = ["generals", "agreement", "muddy", "ok"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            nearest_name("agrement", &names).as_deref(),
            Some("agreement")
        );
        assert_eq!(nearest_name("generls", &names).as_deref(), Some("generals"));
        assert_eq!(nearest_name("zap", &names), None);
    }

    #[test]
    fn error_messages_are_actionable() {
        let err = SpecError::UnknownScenario {
            name: "agrement".into(),
            suggestion: Some("agreement".into()),
            known: vec!["generals".into(), "agreement".into()],
        };
        let msg = err.to_string();
        assert!(msg.contains("did you mean `agreement`?"), "{msg}");
        assert!(msg.contains("registered: generals, agreement"), "{msg}");
    }
}
