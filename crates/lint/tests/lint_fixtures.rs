//! End-to-end tests of the `mmt-lint` binary: one fixture per rule
//! (positive + negative + escaped), exact rule/path/line assertions,
//! the exit-code contract, JSON output, and the workspace-clean gate.

use std::process::Command;

/// Run the built binary from the lint crate directory; returns
/// (exit code, stdout, stderr).
fn lint(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mmt-lint"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("spawn mmt-lint");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

fn assert_has(out: &str, needle: &str) {
    assert!(out.contains(needle), "expected {needle:?} in:\n{out}");
}

#[test]
fn d1_fixture_exact_diagnostics() {
    let (code, out, _) = lint(&["--assume-crate", "core", "tests/fixtures/d1"]);
    assert_eq!(code, 1);
    assert_has(&out, "tests/fixtures/d1/src/code.rs:4: [D1]");
    assert_has(&out, "tests/fixtures/d1/src/code.rs:7: [D1]");
    assert_has(&out, "use `BTreeMap`");
    assert_has(&out, "use `BTreeSet`");
    assert_has(&out, "2 violation(s)");
}

#[test]
fn d2_fixture_exact_diagnostics() {
    let (code, out, _) = lint(&["--assume-crate", "netsim", "tests/fixtures/d2"]);
    assert_eq!(code, 1);
    assert_has(&out, "tests/fixtures/d2/src/code.rs:4: [D2]");
    assert_has(&out, "tests/fixtures/d2/src/code.rs:5: [D2]");
    assert_has(&out, "tests/fixtures/d2/src/code.rs:6: [D2]");
    assert_has(&out, "`Instant`");
    assert_has(&out, "`SystemTime`");
    assert_has(&out, "`std::env`");
    assert_has(&out, "3 violation(s)");
}

#[test]
fn d2_flags_sockets_and_threads_in_sim_critical_code() {
    // Pin the guarantee that keeps the sans-io refactor honest: if a
    // socket or thread import sneaks into mmt-core, the lint gains a
    // violation.
    let (code, out, _) = lint(&["--assume-crate", "core", "tests/fixtures/d2io"]);
    assert_eq!(code, 1);
    // `use std::net::X` lines fire both the path rule and the type rule.
    assert_has(&out, "tests/fixtures/d2io/src/code.rs:4: [D2]");
    assert_has(&out, "tests/fixtures/d2io/src/code.rs:5: [D2]");
    assert_has(&out, "tests/fixtures/d2io/src/code.rs:6: [D2]");
    assert_has(&out, "tests/fixtures/d2io/src/code.rs:7: [D2]");
    assert_has(&out, "tests/fixtures/d2io/src/code.rs:8: [D2]");
    assert_has(&out, "`UdpSocket`");
    assert_has(&out, "`TcpStream`");
    assert_has(&out, "`TcpListener`");
    assert_has(&out, "`std::net`");
    assert_has(&out, "`std::thread`");
    // 3 × (path + type) on the net lines + 2 thread paths; the escaped
    // spawn on line 10 stays exempt.
    assert_has(&out, "8 violation(s)");
}

#[test]
fn d2_io_crate_is_exempt_from_sans_io_rules() {
    // mmt-io is the one crate whose whole point is real I/O: the same
    // fixture must scan clean there.
    let (code, out, _) = lint(&["--assume-crate", "io", "tests/fixtures/d2io"]);
    assert_eq!(code, 0, "io crate must be D2-exempt, got:\n{out}");
}

#[test]
fn p1_fixture_exact_diagnostics() {
    let (code, out, _) = lint(&["--assume-crate", "core", "tests/fixtures/p1"]);
    assert_eq!(code, 1);
    assert_has(&out, "tests/fixtures/p1/src/code.rs:4: [P1]");
    assert_has(&out, "tests/fixtures/p1/src/code.rs:8: [P1]");
    assert_has(&out, "tests/fixtures/p1/src/code.rs:12: [P1]");
    // `unwrap_or` (line 16), the escaped unwrap (line 20), and the
    // #[cfg(test)] region must all be exempt.
    assert_has(&out, "3 violation(s)");
}

#[test]
fn p1_applies_outside_sim_critical_crates_too() {
    let (code, out, _) = lint(&["--assume-crate", "pilot", "tests/fixtures/p1"]);
    assert_eq!(code, 1);
    assert_has(&out, "3 violation(s)");
}

#[test]
fn s1_fixture_exact_diagnostics() {
    let (code, out, _) = lint(&["--assume-crate", "transport", "tests/fixtures/s1"]);
    assert_eq!(code, 1);
    assert_has(&out, "tests/fixtures/s1/src/code.rs:4: [S1]");
    assert_has(&out, "sequence number `seq`");
    assert_has(&out, "1 violation(s)");
}

#[test]
fn s1_is_scoped_to_sim_critical_crates() {
    let (code, out, _) = lint(&["--assume-crate", "pilot", "tests/fixtures/s1"]);
    assert_eq!(code, 0, "{out}");
}

#[test]
fn u1_fixture_positive_and_negative() {
    let (code, out, _) = lint(&["--assume-crate", "daq", "tests/fixtures/u1/bad"]);
    assert_eq!(code, 1);
    assert_has(&out, "tests/fixtures/u1/bad/src/lib.rs:1: [U1]");
    assert_has(&out, "#![forbid(unsafe_code)]");
    let (code, out, _) = lint(&["--assume-crate", "daq", "tests/fixtures/u1/good"]);
    assert_eq!(code, 0, "{out}");
}

#[test]
fn esc_fixture_reports_malformed_escapes() {
    let (code, out, _) = lint(&["--assume-crate", "core", "tests/fixtures/esc"]);
    assert_eq!(code, 1);
    assert_has(&out, "tests/fixtures/esc/src/code.rs:4: [ESC]");
    assert_has(&out, "tests/fixtures/esc/src/code.rs:5: [ESC]");
    assert_has(&out, "tests/fixtures/esc/src/code.rs:6: [ESC]");
    assert_has(&out, "3 violation(s)");
}

#[test]
fn f1_fixture_exact_diagnostics() {
    let (code, out, _) = lint(&["--assume-crate", "netsim", "tests/fixtures/f1"]);
    assert_eq!(code, 1);
    assert_has(&out, "tests/fixtures/f1/src/code.rs:4: [F1]");
    assert_has(&out, "tests/fixtures/f1/src/code.rs:8: [F1]");
    assert_has(&out, "tests/fixtures/f1/src/code.rs:12: [F1]");
    assert_has(&out, "tests/fixtures/f1/src/code.rs:16: [F1]");
    assert_has(&out, "float literal");
    assert_has(&out, "`as f64`/`as f32` cast");
    assert_has(&out, "`.ln()` is libm-backed");
    assert_has(&out, "float format spec `{:.3}`");
    // Integer division, IEEE-exact sqrt, and the escaped literal stay
    // silent: 5 findings (line 8 carries both a cast and a literal).
    assert_has(&out, "5 violation(s), 1 escape(s)");
}

#[test]
fn f1_is_scoped_to_digest_critical_crates() {
    let (code, out, _) = lint(&["--assume-crate", "telemetry", "tests/fixtures/f1"]);
    assert_eq!(code, 0, "{out}");
}

#[test]
fn a1_fixture_exact_diagnostics() {
    let (code, out, _) = lint(&["--assume-crate", "netsim", "tests/fixtures/a1"]);
    assert_eq!(code, 1);
    assert_has(&out, "tests/fixtures/a1/src/code.rs:5: [A1]");
    assert_has(&out, "tests/fixtures/a1/src/code.rs:10: [A1]");
    assert_has(&out, "tests/fixtures/a1/src/code.rs:15: [A1]");
    assert_has(&out, "`Vec::new` allocates in hot function `hot_alloc`");
    assert_has(&out, "`vec!` allocates in hot function `hot_vec_macro`");
    assert_has(&out, "`.to_vec()` allocates in hot function `hot_clone`");
    // The unmarked function and the escaped one are exempt.
    assert_has(&out, "3 violation(s), 1 escape(s)");
}

/// The MMT layout and view modules are hot by path, like the rest of the
/// codec: an unmarked function that allocates there fires A1, and
/// `// mmt-lint: cold` opts one out.
#[test]
fn a1_covers_the_codec_modules_by_path() {
    let (code, out, _) = lint(&["--assume-crate", "wire", "tests/fixtures/a1mod"]);
    assert_eq!(code, 1);
    assert_has(&out, "tests/fixtures/a1mod/wire/src/mmt/ext.rs:4: [A1]");
    assert_has(&out, "tests/fixtures/a1mod/wire/src/mmt/header.rs:4: [A1]");
    assert_has(&out, "2 file(s) scanned, 2 violation(s)");
}

#[test]
fn w1_fixture_exact_diagnostics() {
    let (code, out, _) = lint(&["--assume-crate", "core", "tests/fixtures/w1"]);
    assert_eq!(code, 1);
    assert_has(&out, "tests/fixtures/w1/src/code.rs:13: [W1]");
    assert_has(&out, "wildcard arm");
    // The exhaustive match, the non-wire match, and the escaped wildcard
    // are all exempt: exactly one finding.
    assert_has(&out, "1 violation(s), 1 escape(s)");
}

#[test]
fn e1_fixture_exact_diagnostics() {
    let (code, out, _) = lint(&["--assume-crate", "core", "tests/fixtures/e1"]);
    assert_eq!(code, 1);
    assert_has(&out, "tests/fixtures/e1/src/code.rs:4: [E1]");
    assert_has(&out, "tests/fixtures/e1/src/code.rs:12: [E1]");
    assert_has(&out, "tests/fixtures/e1/src/code.rs:17: [E1]");
    assert_has(&out, "stale escape: no P1 violation fires");
    assert_has(&out, "unknown rule `Z9`");
    assert_has(&out, "stale escape: no D1 violation fires");
    // The live P1 escape on line 8 is not stale.
    assert_has(&out, "3 violation(s), 4 escape(s)");
}

/// The standalone-escape binder is token-aware: it covers the whole
/// statement beginning on the next line (surviving a rustfmt rewrap that
/// pushes the violation down), and stops at that statement's end.
#[test]
fn binder_fixture_covers_statement_not_line() {
    let (code, out, _) = lint(&["--assume-crate", "core", "tests/fixtures/binder"]);
    assert_eq!(code, 1);
    // `rewrapped`: the unwrap two lines below the escape is covered — no
    // P1 there, and the escape is live (no E1 either).
    assert!(!out.contains("code.rs:9:"), "{out}");
    assert!(!out.contains("code.rs:7:"), "{out}");
    // `next_statement_not_covered`: coverage ends at `let w = v;`, so the
    // unwrap on the following statement fires P1 and the escape is stale.
    assert_has(&out, "tests/fixtures/binder/src/code.rs:13: [E1]");
    assert_has(&out, "tests/fixtures/binder/src/code.rs:15: [P1]");
    assert_has(&out, "2 violation(s), 2 escape(s)");
}

#[test]
fn clean_fixture_exits_zero() {
    let (code, out, _) = lint(&["--assume-crate", "core", "tests/fixtures/clean"]);
    assert_eq!(code, 0, "{out}");
    assert_has(&out, "1 file(s) scanned, 0 violation(s)");
}

#[test]
fn json_format_is_machine_readable() {
    let (code, out, _) = lint(&[
        "--format",
        "json",
        "--assume-crate",
        "core",
        "tests/fixtures/d1",
    ]);
    assert_eq!(code, 1);
    assert_has(&out, "\"files_scanned\":1");
    assert_has(&out, "\"rule\":\"D1\"");
    assert_has(&out, "\"path\":\"tests/fixtures/d1/src/code.rs\"");
    assert_has(&out, "\"line\":4");
    assert_has(&out, "\"line\":7");
    // Whole payload is a single JSON object on one line.
    assert!(out.trim_start().starts_with('{') && out.trim_end().ends_with('}'));
    assert_eq!(out.trim_end().lines().count(), 1);
}

#[test]
fn exit_code_contract_usage_errors() {
    let (code, _, err) = lint(&["--bogus-flag"]);
    assert_eq!(code, 2);
    assert!(err.contains("usage"), "{err}");
    let (code, _, err) = lint(&["tests/fixtures/does-not-exist"]);
    assert_eq!(code, 2);
    assert!(err.contains("error"), "{err}");
    let (code, _, _) = lint(&["--format", "yaml"]);
    assert_eq!(code, 2);
    let (code, _, _) = lint(&["--assume-crate"]);
    assert_eq!(code, 2);
}

#[test]
fn help_exits_zero() {
    let (code, out, _) = lint(&["--help"]);
    assert_eq!(code, 0);
    assert_has(&out, "usage: mmt-lint");
}

/// The acceptance gate: the workspace itself must lint clean. Run from
/// the repository root so the scan covers every crate plus the facade.
#[test]
fn workspace_is_lint_clean() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = Command::new(env!("CARGO_BIN_EXE_mmt-lint"))
        .current_dir(root)
        .arg(".")
        .output()
        .expect("spawn mmt-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace has lint violations:\n{stdout}"
    );
    assert!(stdout.contains(", 0 violation(s)"), "{stdout}");
    // The summary carries the live escape count (the budget CI tracks);
    // E1 running clean means every one of them still suppresses a real
    // violation.
    assert!(stdout.contains(" escape(s)"), "{stdout}");
}
