//! The [`Diagnostics`] report schema (`hm check --json`) over the shared
//! [`crate::json`] codec: `from_json(to_json(d)) == d`. `message` and
//! `severity` are emitted for consumers but derived on read; each
//! diagnostic's identity is `(code, payload, path)`.

use super::{DiagKind, Diagnostic, Diagnostics, Facts, Severity};
use crate::json::{esc, Value};
use std::fmt::Write as _;

fn opt_usize(out: &mut String, v: Option<usize>) {
    match v {
        Some(n) => {
            let _ = write!(out, "{n}");
        }
        None => out.push_str("null"),
    }
}

fn write_diag(out: &mut String, d: &Diagnostic) {
    out.push_str("{\"severity\":");
    esc(
        out,
        match d.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        },
    );
    out.push_str(",\"code\":");
    esc(out, d.code());
    out.push_str(",\"path\":");
    esc(out, d.path());
    out.push_str(",\"message\":");
    esc(out, &d.message());
    match &d.kind {
        DiagKind::UnknownAtom(a) => {
            out.push_str(",\"atom\":");
            esc(out, a);
        }
        DiagKind::AgentOutOfRange(i) => {
            let _ = write!(out, ",\"agent\":{i}");
        }
        DiagKind::UnboundVar(x)
        | DiagKind::NonMonotone(x)
        | DiagKind::ShadowedVar(x)
        | DiagKind::VacuousFixpoint(x) => {
            out.push_str(",\"var\":");
            esc(out, x);
        }
        DiagKind::NoTemporalStructure(op) | DiagKind::NotQuotientSafe(op) => {
            out.push_str(",\"op\":");
            esc(out, op);
        }
        DiagKind::DeadSubformula(why) => {
            out.push_str(",\"detail\":");
            esc(out, why);
        }
        DiagKind::ConstantFormula(v) => {
            let _ = write!(out, ",\"value\":{v}");
        }
        DiagKind::TemporalDepthExceedsHorizon { depth, horizon } => {
            let _ = write!(out, ",\"depth\":{depth},\"horizon\":{horizon}");
        }
    }
    out.push('}');
}

impl Diagnostics {
    /// Serializes the report to one line of JSON. Round-trips through
    /// [`from_json`](Self::from_json).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"errors\":[");
        for (i, d) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_diag(&mut out, d);
        }
        out.push_str("],\"warnings\":[");
        for (i, d) in self.warnings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_diag(&mut out, d);
        }
        out.push_str("],\"facts\":{\"nodes\":");
        let f = &self.facts;
        let _ = write!(
            out,
            "{},\"modal_depth\":{},\"temporal_depth\":{},\"agents\":[",
            f.nodes, f.modal_depth, f.temporal_depth
        );
        for (i, a) in f.agents.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{a}");
        }
        out.push_str("],\"atoms\":[");
        for (i, a) in f.atoms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            esc(&mut out, a);
        }
        let _ = write!(out, "],\"quotient_safe\":{},", f.quotient_safe);
        out.push_str("\"quotient_unsafe_path\":");
        match &f.quotient_unsafe {
            Some((path, op)) => {
                esc(&mut out, path);
                out.push_str(",\"quotient_unsafe_op\":");
                esc(&mut out, op);
            }
            None => out.push_str("null,\"quotient_unsafe_op\":null"),
        }
        out.push_str(",\"instructions\":");
        opt_usize(&mut out, f.instructions);
        out.push_str(",\"instructions_simplified\":");
        opt_usize(&mut out, f.instructions_simplified);
        out.push_str(",\"simplified\":");
        esc(&mut out, &f.simplified);
        out.push_str("}}");
        out
    }

    /// Reads a report back from [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax or schema
    /// problem.
    pub fn from_json(src: &str) -> Result<Diagnostics, String> {
        let v = Value::parse(src)?;
        let errors = v
            .field("errors")?
            .array()?
            .iter()
            .map(read_diag)
            .collect::<Result<Vec<_>, _>>()?;
        let warnings = v
            .field("warnings")?
            .array()?
            .iter()
            .map(read_diag)
            .collect::<Result<Vec<_>, _>>()?;
        let fv = v.field("facts")?;
        // `field` reads an explicit `null` as absent, so the nullable
        // facts go through `opt_field`.
        let quotient_unsafe = match fv.opt_field("quotient_unsafe_path") {
            None => None,
            Some(p) => Some((p.string()?, fv.field("quotient_unsafe_op")?.string()?)),
        };
        let count = |name: &str| fv.opt_field(name).map(usize_of).transpose();
        let facts = Facts {
            nodes: usize_of(fv.field("nodes")?)?,
            modal_depth: fv.field("modal_depth")?.u64()? as u32,
            temporal_depth: fv.field("temporal_depth")?.u64()? as u32,
            agents: fv
                .field("agents")?
                .array()?
                .iter()
                .map(usize_of)
                .collect::<Result<Vec<_>, _>>()?,
            atoms: fv
                .field("atoms")?
                .array()?
                .iter()
                .map(Value::string)
                .collect::<Result<Vec<_>, _>>()?,
            quotient_safe: fv.field("quotient_safe")?.boolean()?,
            quotient_unsafe,
            instructions: count("instructions")?,
            instructions_simplified: count("instructions_simplified")?,
            simplified: fv.field("simplified")?.string()?,
        };
        Ok(Diagnostics {
            errors,
            warnings,
            facts,
        })
    }
}

fn usize_of(v: &Value) -> Result<usize, String> {
    v.u64().map(|n| n as usize)
}

fn read_diag(v: &Value) -> Result<Diagnostic, String> {
    let code = v.field("code")?.string()?;
    let path = v.field("path")?.string()?;
    let var = || v.field("var")?.string();
    let op = || v.field("op")?.string();
    let kind = match code.as_str() {
        "unknown-atom" => DiagKind::UnknownAtom(v.field("atom")?.string()?),
        "agent-out-of-range" => DiagKind::AgentOutOfRange(usize_of(v.field("agent")?)?),
        "unbound-var" => DiagKind::UnboundVar(var()?),
        "non-monotone" => DiagKind::NonMonotone(var()?),
        "no-temporal-structure" => DiagKind::NoTemporalStructure(op()?),
        "shadowed-var" => DiagKind::ShadowedVar(var()?),
        "dead-subformula" => DiagKind::DeadSubformula(v.field("detail")?.string()?),
        "vacuous-fixpoint" => DiagKind::VacuousFixpoint(var()?),
        "constant-formula" => DiagKind::ConstantFormula(v.field("value")?.boolean()?),
        "temporal-depth-exceeds-horizon" => DiagKind::TemporalDepthExceedsHorizon {
            depth: v.field("depth")?.u64()? as u32,
            horizon: v.field("horizon")?.u64()?,
        },
        "not-quotient-safe" => DiagKind::NotQuotientSafe(op()?),
        other => return Err(format!("unknown diagnostic code `{other}`")),
    };
    Ok(Diagnostic { kind, path })
}

#[cfg(test)]
mod tests {
    use super::super::Analyzer;
    use super::*;
    use crate::parser::parse;

    #[test]
    fn reports_round_trip() {
        let vocab = vec!["p".to_string(), "q\"uote".to_string()];
        for src in [
            "K0 p -> C{0,1} (p | q)",
            "K9 (zap & $X) | (nu Y. nu Y. $Y) | D{0,1} (p & false)",
            "next next next (p <-> true)",
        ] {
            let d = Analyzer::new()
                .vocabulary(&vocab)
                .num_agents(2)
                .temporal(true)
                .horizon(2)
                .minimize(true)
                .analyze(&parse(src).unwrap());
            let json = d.to_json();
            let back = Diagnostics::from_json(&json).expect(&json);
            assert_eq!(back, d, "{src}");
            // And a second trip is byte-identical.
            assert_eq!(back.to_json(), json, "{src}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_without_recursing() {
        // A report reader is a JSON reader: adversarially deep input must
        // be a parse error at the shared depth cap, not a stack overflow.
        for src in ["[".repeat(1 << 20), "{\"a\":".repeat(200_000)] {
            let err = Diagnostics::from_json(&src).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Diagnostics::from_json("").is_err());
        assert!(Diagnostics::from_json("{}").is_err());
        assert!(Diagnostics::from_json("{\"errors\":[],\"warnings\":[]}").is_err());
    }
}
