//! The experiments command line: unknown names fail loudly, known ones
//! run.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sushi-bench"))
        .args(args)
        .output()
        .expect("sushi-bench starts")
}

/// A name the command does not know (here the name of the function
/// behind `delay`) prints the valid names and fails instead of printing
/// nothing.
#[test]
fn unknown_experiment_names_the_valid_list_and_fails() {
    let out = run(&["--quick", "delay_ablation"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("\"delay_ablation\""), "{err}");
    for name in [
        "table1", "delay", "reload", "states", "bench", "serve", "fps",
    ] {
        assert!(err.split_whitespace().any(|w| w == name), "{name}: {err}");
    }
}

#[test]
fn known_experiment_prints_its_table() {
    let out = run(&["table1"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("## Table 1: RSFQ cell constraints"), "{text}");
    assert!(text.contains("| ndro | din-rst    | 39.90"), "{text}");
}
