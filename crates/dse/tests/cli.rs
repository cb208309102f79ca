//! Pins the `cimflow-dse` command line: which flags each mode accepts,
//! and the exit code and first stderr line of every usage error. The
//! binary runs with stdin closed and a spec path that does not exist, so
//! no case can start a sweep, an exploration or a server by mistake. The
//! usage text itself is not pinned.

use std::process::{Command, Output, Stdio};

/// Every flag with a value it accepts, and the modes it applies to.
const FLAGS: &[(&str, Option<&str>, &[&str])] = &[
    ("--workers", Some("2"), &["sweep", "explore", "serve"]),
    ("--sequential", None, &["sweep", "explore", "serve"]),
    ("--trace-out", Some("trace.json"), &["sweep", "explore", "serve"]),
    ("--metrics-out", Some("metrics.prom"), &["sweep", "explore", "serve"]),
    ("--quiet", None, &["sweep", "explore", "serve"]),
    ("--objective", Some("p99"), &["sweep", "explore"]),
    ("--csv", Some("out.csv"), &["sweep", "explore"]),
    ("--json", Some("out.json"), &["sweep", "explore"]),
    ("--journal", Some("journal.jsonl"), &["sweep", "explore"]),
    ("--cache", Some("cache.json"), &["sweep", "serve"]),
    ("--search", Some("joint"), &["sweep"]),
    ("--budget", Some("8"), &["explore"]),
    ("--algorithm", Some("evolutionary"), &["explore"]),
    ("--seed", Some("7"), &["explore"]),
    ("--rungs", Some("analytical"), &["explore"]),
    ("--scout-share", Some("0.5"), &["explore"]),
    ("--stall", Some("2"), &["explore"]),
    ("--max-area", Some("100"), &["explore"]),
    ("--max-power", Some("5"), &["explore"]),
    ("--queue", Some("4"), &["serve"]),
    ("--quota", Some("2"), &["serve"]),
    ("--tcp", Some("0"), &["serve"]),
];

const MODES: &[&str] = &["sweep", "explore", "serve", "journal"];

/// A spec or journal path that does not exist.
const MISSING: &str = "no-such-file.json";

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cimflow-dse"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("the cimflow-dse binary runs")
}

/// The exit code and first stderr line of a run.
fn failure(args: &[&str]) -> (Option<i32>, String) {
    let output = run(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    (output.status.code(), stderr.lines().next().unwrap_or_default().to_owned())
}

/// The command line that selects `mode`, before any flag.
fn mode_args(mode: &str) -> Vec<&'static str> {
    match mode {
        "sweep" => vec![MISSING],
        "explore" => vec!["explore", MISSING],
        "serve" => vec!["serve"],
        "journal" => vec!["journal", "compact", MISSING],
        other => panic!("unknown mode {other}"),
    }
}

#[test]
fn help_exits_zero_and_lists_every_flag() {
    let output = run(&["--help"]);
    assert_eq!(output.status.code(), Some(0));
    let help = String::from_utf8_lossy(&output.stdout);
    for (flag, _, _) in FLAGS {
        assert!(help.contains(flag), "--help does not list {flag}:\n{help}");
    }
}

#[test]
fn malformed_command_lines_are_usage_errors() {
    let cases: &[(&[&str], &str)] = &[
        (&[MISSING, "--bogus"], "unknown flag `--bogus`"),
        (&[MISSING, "--csv"], "--csv needs a value"),
        (&[MISSING, "--workers", "banana"], "--workers expects a number, got `banana`"),
        (&[MISSING, "--search", "fast"], "--search expects `sequential` or `joint`, got `fast`"),
        (
            &["explore", MISSING, "--algorithm", "nope"],
            "--algorithm expects `successive_halving` or `evolutionary`, got `nope`",
        ),
        (
            &["explore", MISSING, "--rungs", "replay"],
            "--rungs: unknown fidelity rung `replay`: expected `analytical` or `coarse<px>` \
             (e.g. `coarse32`)",
        ),
        (&["serve", "extra"], "unexpected argument `extra`"),
    ];
    for (args, expected) in cases {
        assert_eq!(failure(args), (Some(1), (*expected).to_owned()), "{args:?}");
    }
    let (code, line) = failure(&["journal", "compact"]);
    assert_eq!(code, Some(1));
    assert!(line.contains("journal compact <PATH>"), "{line}");
}

#[test]
fn every_flag_a_mode_does_not_take_is_refused_by_name() {
    let mut refused = 0;
    for &mode in MODES {
        for &(flag, value, _) in FLAGS.iter().filter(|(_, _, modes)| !modes.contains(&mode)) {
            let mut args = mode_args(mode);
            args.push(flag);
            args.extend(value);
            let (code, line) = failure(&args);
            assert_eq!(code, Some(1), "{args:?}: {line}");
            let names_flag =
                line.split(|c: char| c.is_whitespace() || c == '/' || c == '`').any(|w| w == flag);
            assert!(names_flag, "{args:?} does not name {flag}: {line}");
            assert!(line.contains(&format!("does not apply to {mode} mode")), "{args:?}: {line}");
            refused += 1;
        }
    }
    // 11 sweep, 5 explore, 13 serve and all 22 journal pairs.
    assert_eq!(refused, 51);
}

#[test]
fn serve_accepts_its_switches() {
    let output = run(&["serve", "--sequential", "--quiet"]);
    assert_eq!(output.status.code(), Some(0), "{}", String::from_utf8_lossy(&output.stderr));
}
