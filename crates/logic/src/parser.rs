//! A small text syntax for formulas.
//!
//! Intended for examples, tests and the experiment driver; the grammar
//! mirrors the `Display` output of [`Formula`], so printing and parsing
//! round-trip.
//!
//! ```text
//! formula := iff
//! iff     := impl ('<->' impl)*
//! impl    := or ('->' impl)?                  (right associative)
//! or      := and ('|' and)*
//! and     := unary ('&' unary)*
//! unary   := '!' unary | modal unary | 'nu' VAR '.' formula
//!          | 'mu' VAR '.' formula | 'true' | 'false' | '$' VAR | ATOM
//!          | '(' formula ')'
//! modal   := 'K' NAT ('@' '[' NAT ']')?
//!          | 'E' ('^' NAT)? group | 'S' group | 'D' group | 'C' group
//!          | 'Eeps' '[' NAT ']' group | 'Ceps' '[' NAT ']' group
//!          | 'Eev' group | 'Cev' group
//!          | 'ET' '[' NAT ']' group | 'CT' '[' NAT ']' group
//!          | 'next' | 'even' | 'alw' | 'once'
//! group   := '{' ('p'? NAT) (',' 'p'? NAT)* '}'
//! ```
//!
//! The identifiers `true false nu mu next even alw once` and the modal
//! heads `K<digits> E S D C Eeps Ceps Eev Cev ET CT` are reserved and
//! cannot be used as atom names.
//!
//! The parser reads adversarial input (`hm serve` parses any `formula`
//! string of a `POST /query` body), so nesting deeper than
//! [`MAX_FORMULA_DEPTH`] is rejected with a [`ParseError`] instead of
//! recursing until the stack runs out.

use crate::formula::{Formula, F};
use hm_kripke::{AgentGroup, AgentId};
use std::fmt;

/// Deepest accepted nesting of `!`, modal and temporal prefixes,
/// `nu`/`mu` binders, parentheses and chained `->`/`<->`. Far beyond
/// any formula a person writes, and far below what overflows a worker
/// stack in the recursive passes that follow the parser (analysis,
/// simplification, compilation).
pub const MAX_FORMULA_DEPTH: usize = 128;

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset at which the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a formula from text.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, including trailing garbage.
///
/// # Examples
///
/// ```
/// use hm_logic::parse;
/// let f = parse("C{0,1} (muddy0 | muddy1)")?;
/// assert_eq!(f.to_string(), "C{p0,p1} (muddy0 | muddy1)");
/// # Ok::<(), hm_logic::ParseError>(())
/// ```
pub fn parse(input: &str) -> Result<F, ParseError> {
    let mut p = Parser {
        src: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let f = p.formula()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(f)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    /// Current nesting, checked against [`MAX_FORMULA_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    /// Charges one level of nesting; fails past [`MAX_FORMULA_DEPTH`].
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_FORMULA_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_FORMULA_DEPTH}")));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn ident(&mut self) -> Option<String> {
        self.skip_ws();
        let start = self.pos;
        if self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphabetic() || self.src[self.pos] == b'_')
        {
            self.pos += 1;
            while self.pos < self.src.len()
                && (self.src[self.pos].is_ascii_alphanumeric()
                    || self.src[self.pos] == b'_'
                    || self.src[self.pos] == b'\'')
            {
                self.pos += 1;
            }
            Some(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
        } else {
            None
        }
    }

    fn nat(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a number"));
        }
        String::from_utf8_lossy(&self.src[start..self.pos])
            .parse()
            .map_err(|_| self.err("number too large"))
    }

    fn bracketed_nat(&mut self) -> Result<u64, ParseError> {
        self.expect("[")?;
        let n = self.nat()?;
        self.expect("]")?;
        Ok(n)
    }

    fn group(&mut self) -> Result<AgentGroup, ParseError> {
        self.expect("{")?;
        let mut members = Vec::new();
        loop {
            self.skip_ws();
            // Optional `p` prefix, as printed by Display.
            if self.src.get(self.pos) == Some(&b'p')
                && self.src.get(self.pos + 1).is_some_and(u8::is_ascii_digit)
            {
                self.pos += 1;
            }
            members.push(AgentId::new(self.nat()? as usize));
            if !self.eat(",") {
                break;
            }
        }
        self.expect("}")?;
        Ok(AgentGroup::new(members))
    }

    fn formula(&mut self) -> Result<F, ParseError> {
        let base = self.depth;
        let mut lhs = self.implication()?;
        while self.eat("<->") {
            // Each `<->` nests the (left-associated) tree one level deeper.
            self.descend()?;
            let rhs = self.implication()?;
            lhs = Formula::iff(lhs, rhs);
        }
        self.depth = base;
        Ok(lhs)
    }

    fn implication(&mut self) -> Result<F, ParseError> {
        let lhs = self.disjunction()?;
        // Look ahead: `->` but not `<->` (the `<` is consumed elsewhere).
        if self.eat("->") {
            self.descend()?;
            let rhs = self.implication()?;
            self.depth -= 1;
            return Ok(Formula::implies(lhs, rhs));
        }
        Ok(lhs)
    }

    fn disjunction(&mut self) -> Result<F, ParseError> {
        let mut parts = vec![self.conjunction()?];
        while self.peek() == Some(b'|') {
            self.pos += 1;
            parts.push(self.conjunction()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Formula::or(parts)
        })
    }

    fn conjunction(&mut self) -> Result<F, ParseError> {
        let mut parts = vec![self.unary()?];
        while self.peek() == Some(b'&') {
            self.pos += 1;
            parts.push(self.unary()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Formula::and(parts)
        })
    }

    /// One operand; every recursive production (`!`, prefixes, binders,
    /// parentheses) passes through here, so this is where nesting is
    /// charged.
    fn unary(&mut self) -> Result<F, ParseError> {
        self.descend()?;
        let f = self.operand()?;
        self.depth -= 1;
        Ok(f)
    }

    fn operand(&mut self) -> Result<F, ParseError> {
        match self.peek() {
            Some(b'!') => {
                self.pos += 1;
                Ok(Formula::not(self.unary()?))
            }
            Some(b'(') => {
                self.pos += 1;
                let f = self.formula()?;
                self.expect(")")?;
                Ok(f)
            }
            Some(b'$') => {
                self.pos += 1;
                let name = self
                    .ident()
                    .ok_or_else(|| self.err("expected variable name"))?;
                Ok(Formula::var(name))
            }
            Some(_) => self.ident_led(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn ident_led(&mut self) -> Result<F, ParseError> {
        let save = self.pos;
        let id = self.ident().ok_or_else(|| self.err("expected a formula"))?;
        match id.as_str() {
            "true" => Ok(Formula::tt()),
            "false" => Ok(Formula::ff()),
            "nu" | "mu" => {
                let var = self.ident().ok_or_else(|| self.err("expected variable"))?;
                self.expect(".")?;
                let body = self.formula()?;
                Ok(if id == "nu" {
                    Formula::gfp(var, body)
                } else {
                    Formula::lfp(var, body)
                })
            }
            "next" => Ok(Formula::next(self.unary()?)),
            "even" => Ok(Formula::eventually(self.unary()?)),
            "alw" => Ok(Formula::always(self.unary()?)),
            "once" => Ok(Formula::once(self.unary()?)),
            "E" => {
                let k = if self.eat("^") { self.nat()? as u32 } else { 1 };
                if k == 0 {
                    return Err(self.err("E^k requires k >= 1"));
                }
                let g = self.group()?;
                Ok(Formula::everyone_k(g, k, self.unary()?))
            }
            "S" => {
                let g = self.group()?;
                Ok(Formula::someone(g, self.unary()?))
            }
            "D" => {
                let g = self.group()?;
                Ok(Formula::distributed(g, self.unary()?))
            }
            "C" => {
                let g = self.group()?;
                Ok(Formula::common(g, self.unary()?))
            }
            "Eeps" => {
                let e = self.bracketed_nat()?;
                let g = self.group()?;
                Ok(Formula::everyone_eps(g, e, self.unary()?))
            }
            "Ceps" => {
                let e = self.bracketed_nat()?;
                let g = self.group()?;
                Ok(Formula::common_eps(g, e, self.unary()?))
            }
            "Eev" => {
                let g = self.group()?;
                Ok(Formula::everyone_ev(g, self.unary()?))
            }
            "Cev" => {
                let g = self.group()?;
                Ok(Formula::common_ev(g, self.unary()?))
            }
            "ET" => {
                let t = self.bracketed_nat()?;
                let g = self.group()?;
                Ok(Formula::everyone_ts(g, t, self.unary()?))
            }
            "CT" => {
                let t = self.bracketed_nat()?;
                let g = self.group()?;
                Ok(Formula::common_ts(g, t, self.unary()?))
            }
            _ if id.starts_with('K')
                && id[1..].chars().all(|c| c.is_ascii_digit())
                && id.len() > 1 =>
            {
                let agent = AgentId::new(
                    id[1..]
                        .parse::<usize>()
                        .map_err(|_| self.err("agent index too large"))?,
                );
                if self.eat("@") {
                    let t = self.bracketed_nat()?;
                    Ok(Formula::knows_at(agent, t, self.unary()?))
                } else {
                    Ok(Formula::knows(agent, self.unary()?))
                }
            }
            _ => {
                // Plain atom — but reject if followed by `{` (likely a
                // misspelled modal head).
                if self.peek() == Some(b'{') {
                    self.pos = save;
                    return Err(self.err(format!("`{id}` is not a modal operator")));
                }
                Ok(Formula::atom(id))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(src: &str) {
        let f = parse(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        let printed = f.to_string();
        let f2 = parse(&printed).unwrap_or_else(|e| panic!("{printed}: {e}"));
        assert_eq!(f, f2, "round trip {src} → {printed}");
    }

    #[test]
    fn atoms_and_booleans() {
        assert_eq!(parse("p").unwrap(), Formula::atom("p"));
        assert_eq!(parse("true").unwrap(), Formula::tt());
        assert_eq!(
            parse("p & q & r").unwrap(),
            Formula::and([Formula::atom("p"), Formula::atom("q"), Formula::atom("r")])
        );
        assert_eq!(
            parse("!p | q").unwrap(),
            Formula::or([Formula::not(Formula::atom("p")), Formula::atom("q")])
        );
    }

    #[test]
    fn precedence() {
        // & binds tighter than |, which binds tighter than ->, then <->.
        let f = parse("a & b | c -> d <-> e").unwrap();
        assert_eq!(f.to_string(), "a & b | c -> d <-> e");
        round_trip("a & b | c -> d <-> e");
        // Right-associative implication.
        let g = parse("a -> b -> c").unwrap();
        assert_eq!(g.to_string(), "a -> (b -> c)");
    }

    #[test]
    fn modalities() {
        let f = parse("K0 K1 p").unwrap();
        assert_eq!(
            f,
            Formula::knows(
                AgentId::new(0),
                Formula::knows(AgentId::new(1), Formula::atom("p"))
            )
        );
        let f = parse("E^3{0,1} p").unwrap();
        assert_eq!(
            f,
            Formula::everyone_k(AgentGroup::all(2), 3, Formula::atom("p"))
        );
        let f = parse("Ceps[2]{p0,p1} sent").unwrap();
        assert_eq!(
            f,
            Formula::common_eps(AgentGroup::all(2), 2, Formula::atom("sent"))
        );
        let f = parse("K1@[5] p").unwrap();
        assert_eq!(f, Formula::knows_at(AgentId::new(1), 5, Formula::atom("p")));
    }

    #[test]
    fn fixpoints() {
        let f = parse("nu X. E{0,1} (p & $X)").unwrap();
        assert_eq!(
            f,
            Formula::common_as_gfp(AgentGroup::all(2), Formula::atom("p"))
        );
        round_trip("mu Y. p | S{0,2} $Y");
    }

    #[test]
    fn round_trips() {
        for src in [
            "C{0,1} (p | q)",
            "K0 p -> C{p0,p1} (p | q)",
            "nu X. E{p0,p1} (p & $X)",
            "Eeps[3]{0,1,2} m & Cev{0,1} m",
            "ET[7]{0,1} v <-> CT[7]{0,1} v",
            "next (even p) & alw q | once r",
            "D{0,1} p & S{0,1} q & E^2{0,1} r",
            "!(p -> q) & !!r",
        ] {
            round_trip(src);
        }
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("p q").is_err(), "trailing garbage");
        assert!(parse("(p").is_err(), "unclosed paren");
        assert!(parse("E{} p").is_err(), "empty group");
        assert!(parse("E^0{0} p").is_err(), "E^0 rejected");
        assert!(parse("Q{0} p").is_err(), "unknown modal head");
        assert!(parse("$").is_err(), "bare dollar");
        assert!(parse("nu X p").is_err(), "missing dot");
        let e = parse("&").unwrap_err();
        assert!(e.to_string().contains("parse error"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // The stack a `std::thread::spawn` worker gets.
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        worker
            .spawn(|| {
                let n = 100_000;
                for (open, close) in [
                    ("(", ")"),
                    ("!", ""),
                    ("K0 ", ""),
                    ("C{0,1} ", ""),
                    ("ET[3]{0} ", ""),
                    ("next ", ""),
                    ("nu X. ", ""),
                    ("p -> ", ""),
                    ("p <-> ", ""),
                ] {
                    let src = format!("{}p{}", open.repeat(n), close.repeat(n));
                    let e = parse(&src).unwrap_err();
                    assert!(e.message.contains("nesting deeper than"), "{open}: {e}");
                    // Just past the cap fails at the first extra level…
                    let at = MAX_FORMULA_DEPTH + 1;
                    let src = format!("{}p{}", open.repeat(at), close.repeat(at));
                    assert!(parse(&src).is_err(), "{open} x {at}");
                    // …and the cap itself parses.
                    let src = format!(
                        "{}p{}",
                        open.repeat(MAX_FORMULA_DEPTH - 1),
                        close.repeat(MAX_FORMULA_DEPTH - 1)
                    );
                    parse(&src)
                        .unwrap_or_else(|e| panic!("{open} x {}: {e}", MAX_FORMULA_DEPTH - 1));
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn k_ident_vs_atom() {
        // `K0` is a modality; `Kx` and `K` alone are atoms.
        assert_eq!(
            parse("K0 p").unwrap(),
            Formula::knows(AgentId::new(0), Formula::atom("p"))
        );
        assert_eq!(parse("Kx").unwrap(), Formula::atom("Kx"));
        assert_eq!(parse("K").unwrap(), Formula::atom("K"));
    }
}
