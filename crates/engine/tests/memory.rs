//! Memory guard for the largest interactive frame: building
//! `agreement:n=4,f=3` and asking `C{0,1,2,3} min0` must keep the peak
//! resident set (`VmHWM`) under [`PEAK_MIB`].
//!
//! One test per binary, so the high-water mark is this build's alone.
//! Release builds only (a debug f=3 build is slow and its peak
//! differs); `ci.sh` runs it with `--release`. Skipped where
//! `/proc/self/status` does not exist.

#![cfg(not(debug_assertions))]

use hm_engine::{Engine, Query};

/// Peak-RSS ceiling in MiB. The f=3 peak was ~257 MiB on a 2-vCPU Linux
/// host when last measured (~304 MiB when every run first moved into
/// one flat store); with a heap per run it was ~493 MiB. 400 MiB leaves
/// 1.5x headroom over the current peak and fails the heap-per-run one.
const PEAK_MIB: u64 = 400;

/// `VmHWM` of this process in KiB, when the kernel reports it.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn f3_build_and_ask_stays_under_the_peak_rss_bound() {
    if peak_rss_kib().is_none() {
        eprintln!("skipped: no /proc/self/status");
        return;
    }
    let session = Engine::for_scenario("agreement:n=4,f=3")
        .build()
        .expect("f=3 builds");
    let answer = session
        .ask(&Query::parse("C{0,1,2,3} min0").expect("query parses"))
        .expect("query answers");
    assert!(!answer.is_empty(), "CK of min0 holds somewhere");
    let peak_mib = peak_rss_kib().expect("VmHWM readable") / 1024;
    eprintln!("f=3 build + ask: peak RSS {peak_mib} MiB (bound {PEAK_MIB} MiB)");
    assert!(
        peak_mib < PEAK_MIB,
        "f=3 build + ask peaked at {peak_mib} MiB, over the {PEAK_MIB} MiB bound"
    );
}
