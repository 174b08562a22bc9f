//! Command-line contract of the `experiments` binary.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

#[test]
fn zero_threads_is_a_usage_error() {
    for bad in ["0", "-1", "many"] {
        let out = experiments(&["--threads", bad, "constants"]);
        assert_eq!(out.status.code(), Some(2), "--threads {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("positive integer"),
            "--threads {bad}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "--threads {bad} ran the command anyway"
        );
    }
}

#[test]
fn positive_threads_runs_the_command() {
    let out = experiments(&["--threads", "1", "constants"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(!out.stdout.is_empty());
}
