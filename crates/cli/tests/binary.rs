//! End-to-end tests of the `nimblock-cli` binary itself: real process,
//! real exit codes, real stdout/stderr.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nimblock-cli"))
}

#[test]
fn run_succeeds_and_prints_a_summary() {
    let out = cli()
        .args(["run", "--scheduler", "fcfs", "--events", "3", "--seed", "1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("FCFS: 3 applications"), "{stdout}");
}

#[test]
fn errors_exit_nonzero_with_message_on_stderr() {
    let out = cli()
        .args(["run", "--scheduler", "bogus"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown scheduler 'bogus'"), "{stderr}");
    assert!(stderr.contains("USAGE"), "usage shown on parse errors");
}

#[test]
fn help_exits_zero() {
    let out = cli().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE"));
}

#[test]
fn generate_then_run_roundtrip_through_the_filesystem() {
    let dir = std::env::temp_dir().join(format!("nimblock-cli-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stim = dir.join("s.json");
    let out = cli()
        .args([
            "generate", "--batch", "2", "--delay-ms", "100", "--events", "3",
            "--output", stim.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = cli()
        .args(["run", "--input", stim.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("3 applications"));
}

#[test]
fn missing_input_file_fails_cleanly() {
    let out = cli()
        .args(["run", "--input", "/definitely/not/here.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("cannot read"));
}

#[test]
fn zero_slots_is_bad_input_not_a_panic() {
    for command in ["run", "compare"] {
        let out = cli()
            .args([command, "--slots", "0", "--events", "2"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{command} --slots 0 must exit 2");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("--slots must be at least 1"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn zero_batch_size_in_a_stimulus_is_bad_input_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("nimblock-cli-batch0-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stim = dir.join("s.json");
    let out = cli()
        .args([
            "generate", "--batch", "2", "--delay-ms", "100", "--events", "3",
            "--output", stim.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    // Zero the second event's batch size in the generated stimulus.
    let text = std::fs::read_to_string(&stim).unwrap();
    let field = "\"batch_size\": 2";
    let (at, _) = text.match_indices(field).nth(1).expect("three events");
    let zeroed = format!("{}\"batch_size\": 0{}", &text[..at], &text[at + field.len()..]);
    std::fs::write(&stim, zeroed).unwrap();
    for command in ["run", "compare"] {
        let out = cli().args([command, "--input", stim.to_str().unwrap()]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{command} must exit 2");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("stimulus event 1 has batch_size 0"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
