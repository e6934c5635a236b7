//! Negative-path CLI tests: bad flags must produce a clean usage error
//! (exit code 2 and a pointed message on stderr), never a panic and never
//! a silently-ignored value. A process-level panic would show up as an
//! abort signal / exit 101, which every assertion here would catch.

use std::process::{Command, Output};

fn mmt_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mmt-sim"))
        .args(args)
        .output()
        .expect("spawn mmt-sim")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Exit code 2, no panic, and the given needle on stderr.
fn assert_clean_usage_error(args: &[&str], needle: &str) {
    let out = mmt_sim(args);
    let stderr = stderr_of(&out);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?}: expected exit 2, got {:?}\nstderr: {stderr}",
        out.status
    );
    assert!(
        stderr.contains(needle),
        "{args:?}: stderr missing {needle:?}\nstderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?}: the CLI panicked\nstderr: {stderr}"
    );
}

#[test]
fn no_command_prints_usage() {
    assert_clean_usage_error(&[], "usage: mmt-sim");
}

#[test]
fn unknown_command_prints_usage() {
    assert_clean_usage_error(&["frobnicate"], "usage: mmt-sim");
}

#[test]
fn positional_argument_is_a_syntax_error() {
    assert_clean_usage_error(&["pilot", "extra"], "bad flag syntax");
}

#[test]
fn dangling_flag_is_a_syntax_error() {
    assert_clean_usage_error(&["pilot", "--seed"], "bad flag syntax");
}

#[test]
fn reorder_probability_above_one_rejected() {
    assert_clean_usage_error(
        &["pilot", "--reorder", "1.5"],
        "--reorder must be a probability in [0, 1]",
    );
}

#[test]
fn reorder_probability_non_numeric_rejected() {
    assert_clean_usage_error(&["pilot", "--reorder", "abc"], "could not parse --reorder");
}

#[test]
fn dup_probability_negative_rejected() {
    assert_clean_usage_error(
        &["pilot", "--dup", "-0.1"],
        "--dup must be a probability in [0, 1]",
    );
}

#[test]
fn nak_loss_infinite_rejected() {
    // "inf" parses as a float, so it must be caught by the finiteness
    // check rather than the parse.
    assert_clean_usage_error(
        &["pilot", "--nak-loss", "inf"],
        "--nak-loss must be a probability in [0, 1]",
    );
}

#[test]
fn lone_flap_period_rejected() {
    assert_clean_usage_error(
        &["pilot", "--flap-period-ms", "50"],
        "--flap-period-ms and --flap-down-ms must be given together",
    );
}

#[test]
fn lone_flap_down_rejected() {
    assert_clean_usage_error(
        &["pilot", "--flap-down-ms", "2"],
        "--flap-period-ms and --flap-down-ms must be given together",
    );
}

#[test]
fn flap_down_covering_whole_period_rejected() {
    assert_clean_usage_error(
        &["pilot", "--flap-period-ms", "50", "--flap-down-ms", "50"],
        "must be shorter than",
    );
}

#[test]
fn bad_trace_format_rejected() {
    assert_clean_usage_error(
        &["pilot", "--trace-format", "xml"],
        "--trace-format must be chrome or jsonl",
    );
}

#[test]
fn zero_trace_cap_rejected() {
    assert_clean_usage_error(
        &["pilot", "--trace-cap", "0"],
        "--trace-cap must be at least 1",
    );
}

#[test]
fn non_numeric_message_count_rejected() {
    assert_clean_usage_error(
        &["pilot", "--messages", "lots"],
        "could not parse --messages",
    );
}

#[test]
fn crash_at_without_crash_node_rejected() {
    assert_clean_usage_error(
        &["pilot", "--crash-at", "6"],
        "--crash-at/--restart-at require --crash-node",
    );
}

#[test]
fn restart_before_crash_rejected() {
    assert_clean_usage_error(
        &[
            "pilot",
            "--crash-node",
            "dtn1",
            "--crash-at",
            "6",
            "--restart-at",
            "3",
        ],
        "must be later than --crash-at",
    );
}

#[test]
fn restart_equal_to_crash_rejected() {
    assert_clean_usage_error(
        &["failover", "--crash-at", "6", "--restart-at", "6"],
        "must be later than --crash-at",
    );
}

#[test]
fn unknown_crash_node_rejected() {
    assert_clean_usage_error(
        &["pilot", "--crash-node", "router9"],
        "--crash-node router9 is not a pilot node",
    );
}

#[test]
fn standby_crash_without_adapt_rejected() {
    assert_clean_usage_error(
        &["pilot", "--crash-node", "standby"],
        "--crash-node standby requires --adapt 1",
    );
}

#[test]
fn bad_adapt_value_rejected() {
    assert_clean_usage_error(&["pilot", "--adapt", "2"], "--adapt must be 0 or 1");
}

/// Sanity: a crash + adaptation run works end-to-end through the binary
/// and reports the transition summary and the re-homed source.
#[test]
fn valid_crash_flags_run_clean() {
    let out = mmt_sim(&[
        "pilot",
        "--messages",
        "200",
        "--loss",
        "1e-2",
        "--crash-node",
        "dtn1",
        "--crash-at",
        "6",
        "--adapt",
        "1",
        "--seed",
        "7",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "crash/adapt pilot run failed\nstderr: {}",
        stderr_of(&out)
    );
    assert!(stdout.contains("adaptation:"), "stdout: {stdout}");
    assert!(
        stdout.contains("receiver retransmit source: 10.0.0.6:47001"),
        "stdout: {stdout}"
    );
}

/// Sanity: the fault flags that SHOULD work do work end-to-end through the
/// binary, and the run reports its fault hits.
#[test]
fn valid_fault_flags_run_clean() {
    let out = mmt_sim(&[
        "pilot",
        "--messages",
        "100",
        "--reorder",
        "0.05",
        "--dup",
        "0.02",
        "--nak-loss",
        "0.1",
        "--seed",
        "7",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "faulted pilot run failed\nstderr: {}",
        stderr_of(&out)
    );
    assert!(stdout.contains("fault hits:"), "stdout: {stdout}");
}

#[test]
fn zero_series_interval_rejected() {
    assert_clean_usage_error(
        &[
            "pilot",
            "--series-out",
            "s.jsonl",
            "--series-interval-us",
            "0",
        ],
        "--series-interval-us must be at least 1",
    );
}

#[test]
fn series_interval_without_out_rejected() {
    assert_clean_usage_error(
        &["pilot", "--series-interval-us", "100"],
        "--series-interval-us requires --series-out",
    );
}

#[test]
fn series_out_with_missing_parent_dir_rejected() {
    let path = std::env::temp_dir()
        .join("mmt-no-such-dir-cli-negative")
        .join("series.jsonl");
    assert_clean_usage_error(
        &[
            "pilot",
            "--series-out",
            path.to_str().expect("utf-8 tmpdir"),
        ],
        "--series-out parent directory",
    );
}

#[test]
fn zero_flight_cap_rejected() {
    assert_clean_usage_error(
        &["pilot", "--flight-out", "f.jsonl", "--flight-cap", "0"],
        "--flight-cap must be at least 1",
    );
}

#[test]
fn flight_cap_without_out_rejected() {
    assert_clean_usage_error(
        &["pilot", "--flight-cap", "16"],
        "--flight-cap requires --flight-out",
    );
}

#[test]
fn flight_out_with_missing_parent_dir_rejected() {
    let path = std::env::temp_dir()
        .join("mmt-no-such-dir-cli-negative")
        .join("flight.jsonl");
    assert_clean_usage_error(
        &[
            "pilot",
            "--flight-out",
            path.to_str().expect("utf-8 tmpdir"),
        ],
        "--flight-out parent directory",
    );
}

#[test]
fn misspelt_pilot_flag_rejected() {
    // Used to run the default 2 000-message shape and exit 0.
    assert_clean_usage_error(
        &["pilot", "--mesages", "10"],
        "unknown flag --mesages for pilot",
    );
}

#[test]
fn fleet_scheduler_flag_rejected() {
    assert_clean_usage_error(
        &["fleet", "--scheduler", "heap"],
        "unknown flag --scheduler for fleet",
    );
}

#[test]
fn fleet_profile_flag_rejected() {
    assert_clean_usage_error(
        &["fleet", "--profile", "1"],
        "unknown flag --profile for fleet",
    );
}

#[test]
fn retired_bench_command_prints_usage() {
    assert_clean_usage_error(&["bench", "--quick", "1"], "usage: mmt-sim");
}

#[test]
fn fleet_zero_sensors_rejected() {
    assert_clean_usage_error(&["fleet", "--sensors", "0"], "--sensors and --packets");
}

#[test]
fn fleet_zero_packets_rejected() {
    assert_clean_usage_error(&["fleet", "--packets", "0"], "--sensors and --packets");
}

#[test]
fn fleet_non_numeric_sensors_rejected() {
    assert_clean_usage_error(&["fleet", "--sensors", "abc"], "could not parse --sensors");
}

/// Sanity: a small fleet runs through the binary, exits 0 and prints the
/// cells the CI memory gate reads.
#[test]
fn fleet_runs_clean_and_prints_the_rss_cell() {
    let out = mmt_sim(&["fleet", "--sensors", "64", "--packets", "2", "--seed", "3"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "fleet run failed\nstderr: {}",
        stderr_of(&out)
    );
    assert!(stdout.contains("\npackets 128\n"), "stdout: {stdout}");
    for key in [
        "events ",
        "digest ",
        "peak_rss_kb ",
        "peak_rss_per_flow_bytes ",
    ] {
        assert!(
            stdout.lines().any(|l| l.starts_with(key)),
            "missing {key:?} in stdout: {stdout}"
        );
    }
}

#[test]
fn pilot_report_counts_delivered_against_messages_asked_for() {
    // The sensor crashes after half the stream and never comes back, so
    // it sends nothing more: the report must say 1000 of the 2000 asked
    // for, not 1000 of the 1000 sent, and the run exits 4 like a degraded
    // io-pilot.
    let out = mmt_sim(&[
        "pilot",
        "--messages",
        "2000",
        "--seed",
        "7",
        "--crash-node",
        "sensor",
        "--crash-at",
        "1",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(4),
        "an incomplete pilot must exit 4\nstderr: {}",
        stderr_of(&out)
    );
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("delivered 1000/2000 ")),
        "stdout: {stdout}"
    );
}

#[test]
fn io_pilot_bad_listen_address_rejected() {
    assert_clean_usage_error(
        &["io-pilot", "--listen", "not-an-addr"],
        "--listen expects IP:PORT",
    );
}

#[test]
fn io_pilot_bad_connect_address_rejected() {
    // A bare IP without a port is also not a socket address.
    assert_clean_usage_error(
        &["io-pilot", "--connect", "127.0.0.1"],
        "--connect expects IP:PORT",
    );
}

#[test]
fn io_pilot_zero_deadline_rejected() {
    assert_clean_usage_error(
        &["io-pilot", "--deadline-us", "0"],
        "--deadline-us must be at least 1",
    );
}

#[test]
fn io_pilot_loss_above_one_rejected() {
    assert_clean_usage_error(
        &["io-pilot", "--loss", "1.5"],
        "--loss must be a probability in [0, 1]",
    );
}

#[test]
fn io_pilot_listen_and_connect_both_rejected() {
    assert_clean_usage_error(
        &[
            "io-pilot",
            "--listen",
            "127.0.0.1:4000",
            "--connect",
            "127.0.0.1:4001",
        ],
        "--listen and --connect are mutually exclusive",
    );
}

#[test]
fn io_pilot_tiny_payload_rejected() {
    assert_clean_usage_error(&["io-pilot", "--len", "4"], "--len must be at least 8");
}

#[test]
fn io_pilot_zero_nak_retries_rejected() {
    assert_clean_usage_error(
        &["io-pilot", "--nak-retries", "0"],
        "--nak-retries must be at least 1",
    );
}

/// Sanity: a lossy loopback io-pilot run works end-to-end through the
/// binary and exits 0 with exactly-once delivery.
#[test]
fn io_pilot_lossy_loopback_runs_clean() {
    let out = mmt_sim(&[
        "io-pilot",
        "--messages",
        "100",
        "--loss",
        "0.05",
        "--seed",
        "3",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "lossy io-pilot run failed\nstderr: {}",
        stderr_of(&out)
    );
    assert!(stdout.contains("delivered 100/100"), "stdout: {stdout}");
}
