//! Golden-output tests of the `hm` CLI: the printed text is part of the
//! contract (scripts parse it), so it is pinned verbatim here. Cargo
//! builds the binary before running this test and exposes its path as
//! `CARGO_BIN_EXE_hm`.

use std::process::{Command, Output};

fn hm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hm"))
        .args(args)
        .output()
        .expect("spawn hm")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf8 stderr")
}

#[test]
fn ask_golden_output() {
    let out = hm(&["ask", "muddy:n=3,dirty=1", "K0 muddy0", "--show", "8"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "scenario: muddy:n=3,dirty=1\n\
         formula:  K0 muddy0\n\
         holds at 1/7 worlds\n\
         \x20\x20001\n",
        "after the announcement, only the lone muddy child knows"
    );
}

#[test]
fn ask_counts_only_with_show_zero() {
    let out = hm(&["ask", "agreement", "C{0,1,2} min0", "--show", "0"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "scenario: agreement\n\
         formula:  C{p0,p1,p2} min0\n\
         holds at 344/1000 points\n"
    );
}

#[test]
fn exp_matches_the_experiment_driver() {
    let out = hm(&["exp", "E16"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "==== E16 ====\n\
         K0(sent_twice) points — complete-history: 2, last-event: 0, lambda: 0\n\
         (finest view knows most; lambda knows only valid facts)\n\n"
    );
}

#[test]
fn unknown_experiment_names_fail_with_a_suggestion() {
    let out = hm(&["exp", "E99"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert_eq!(stdout(&out), "");
    assert_eq!(
        stderr(&out),
        "unknown experiment `E99` — did you mean `E9`? (experiments: E1–E18)\n"
    );
    // A bad name anywhere in the list fails before any experiment runs.
    let out = hm(&["exp", "E16", "e3"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(stdout(&out), "");
    assert!(
        stderr(&out).contains("did you mean `E3`?"),
        "{}",
        stderr(&out)
    );
    // No suggestion when nothing is close.
    let out = hm(&["exp", "frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr(&out),
        "unknown experiment `frobnicate` (experiments: E1–E18)\n"
    );
    // The `experiments` binary refuses the same way.
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("E99")
        .output()
        .expect("spawn experiments");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(stdout(&out), "");
    assert!(stderr(&out).starts_with("unknown experiment `E99`"));
}

#[test]
fn list_covers_the_catalog() {
    let out = hm(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("registered scenarios (spec syntax: name:key=value,...):\n"));
    for name in [
        "muddy",
        "generals",
        "generals-unbounded",
        "r2d2",
        "r2d2-exact",
        "r2d2-timestamped",
        "uncertain-start",
        "ok",
        "skewed",
        "agreement",
        "deadlock",
        "consistency",
        "views",
        "random",
    ] {
        assert!(
            text.lines().any(|l| l.trim_start().starts_with(name)),
            "`{name}` missing from hm list:\n{text}"
        );
    }
}

#[test]
fn spec_errors_exit_2_with_suggestion() {
    let out = hm(&["ask", "agrement", "K0 m"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("did you mean `agreement`?"), "{err}");

    let out = hm(&["ask", "muddy:n=99", "K0 m"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("out of range"), "{}", stderr(&out));

    let out = hm(&["describe", "generls"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("did you mean `generals`?"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn describe_shows_parameters_and_example() {
    let out = hm(&["describe", "agreement"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for needle in [
        "agreement — simultaneous agreement under crash failures",
        "exercised by: E18",
        "integer in 3..=5",
        "integer in 1..=3",
        "auto|naive|reduced",
        "example: hm ask agreement \"C{0,1,2} min0\"",
    ] {
        assert!(text.contains(needle), "`{needle}` missing:\n{text}");
    }
}

#[test]
fn check_reports_each_malformed_class_without_panicking() {
    // (args, expected code in the diagnostic line) — each class must
    // exit 1 with a structured diagnostic, not a panic or bind error.
    let cases: &[(&[&str], &str)] = &[
        (&["check", "generals", "C{0,1} dispatchd"], "unknown-atom"),
        (
            &["check", "generals", "K5 dispatched"],
            "agent-out-of-range",
        ),
        (&["check", "generals", "$Y & dispatched"], "unbound-var"),
        (
            &[
                "check",
                "--horizon",
                "3",
                "generals",
                "next next next next next dispatched",
            ],
            "temporal-depth-exceeds-horizon",
        ),
    ];
    for (args, code) in cases {
        let out = hm(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains(code), "`{code}` missing from:\n{text}");
    }
}

#[test]
fn check_clean_query_exits_zero() {
    let out = hm(&["check", "generals", "C{0,1} dispatched"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "ok: no diagnostics for `C{0,1} dispatched` on `generals`\n"
    );
}

#[test]
fn check_json_round_trips() {
    let out = hm(&["check", "--json", "generals", "C{0,1} dispatchd"]);
    assert_eq!(out.status.code(), Some(1));
    let report = hm_engine::Diagnostics::from_json(stdout(&out).trim()).expect("parse report");
    assert!(report.has_errors());
    assert_eq!(report.errors()[0].code(), "unknown-atom");
    // Second round trip: serializing the parsed report reproduces the
    // CLI's bytes exactly.
    assert_eq!(report.to_json(), stdout(&out).trim());
}

#[test]
fn check_explain_prints_the_facts_table() {
    let out = hm(&["check", "--explain", "generals", "C{0} C{0} dispatched"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for needle in [
        "facts:",
        "modal depth",
        "quotient-safe",
        "after simplification",
    ] {
        assert!(text.contains(needle), "`{needle}` missing from:\n{text}");
    }
}

#[test]
fn check_catalog_is_clean() {
    let out = hm(&["check", "--catalog"]);
    assert!(out.status.success(), "{}", stdout(&out));
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 14, "one line per scenario:\n{text}");
    assert!(text.lines().all(|l| l.starts_with("ok")), "{text}");
}

/// Both driver printouts are pinned byte for byte against files under
/// `tests/golden/`, so a refactor that moves any experiment's output (or
/// any catalog lint) fails here. After a deliberate change, re-pin with
/// `cargo run -q -p hm-bench --bin experiments > crates/bench/tests/golden/experiments.txt`
/// (and `--bin hm -- check --catalog` for `check_catalog.txt`).
#[test]
fn experiments_output_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .output()
        .expect("spawn experiments");
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out), include_str!("golden/experiments.txt"));
}

#[test]
fn check_catalog_output_matches_golden() {
    let out = hm(&["check", "--catalog"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert_eq!(stdout(&out), include_str!("golden/check_catalog.txt"));
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["ask", "generals"][..],
        &["describe"][..],
        &["frobnicate"][..],
        &["ask", "generals", "K1 dispatched", "--horizon"][..],
    ] {
        let out = hm(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
    // `hm` and `hm help` print usage and succeed.
    for args in [&[][..], &["help"][..]] {
        let out = hm(args);
        assert!(out.status.success(), "{args:?}");
        assert!(stdout(&out).contains("usage:"));
    }
}
