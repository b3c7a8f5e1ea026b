//! Workspace smoke test: the examples compile, the end-to-end
//! `sanity_check` regeneration binary runs to completion and reruns
//! print the same stdout, and a figure binary refuses a signature pool
//! too small for any of its rows.
//!
//! These shell out to the same `cargo` that is running the test suite,
//! against this workspace, so a broken example or a bit-rotted bench
//! binary fails tier-1 instead of lingering until someone runs it by
//! hand.

use std::process::Command;

fn cargo() -> Command {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd
}

/// The smoke tests shell out to `cargo ... --release`, so running them
/// from a debug `cargo test` triggers a second, cold full-workspace
/// release build. CI's debug matrix leg sets this variable to skip them
/// there (the release leg still runs them).
fn release_smoke_skipped() -> bool {
    // Non-empty value required: CI exports the variable as "" on the
    // release leg (GitHub env expressions cannot omit a key).
    std::env::var("FMETER_SKIP_RELEASE_SMOKE").is_ok_and(|v| !v.is_empty())
}

#[test]
fn examples_compile() {
    // Builds in the ambient profile (no --release), so this stays cheap
    // and is not gated by FMETER_SKIP_RELEASE_SMOKE.
    let output = cargo()
        .args(["build", "--examples", "--quiet"])
        .output()
        .expect("cargo is invocable");
    assert!(
        output.status.success(),
        "`cargo build --examples` failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn streaming_daemon_example_runs_to_completion() {
    if release_smoke_skipped() {
        return;
    }
    // Release: the ingest loop simulates a full rolling-mix monitoring
    // run. The example self-checks online accuracy and post-refit
    // equivalence with a from-scratch rebuild, so a green exit means the
    // incremental path still works end to end.
    let output = cargo()
        .args([
            "run",
            "--release",
            "--quiet",
            "--example",
            "streaming_daemon",
        ])
        .output()
        .expect("cargo is invocable");
    assert!(
        output.status.success(),
        "streaming_daemon exited with {:?}:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    for marker in ["online classification accuracy", "post-refit equivalence"] {
        assert!(
            stdout.contains(marker),
            "streaming_daemon output lost the `{marker}` section:\n{stdout}"
        );
    }
}

/// Runs the release `sanity_check` binary and returns its stdout.
fn sanity_check_stdout() -> String {
    // Release: the binary simulates tens of millions of kernel calls.
    let output = cargo()
        .args([
            "run",
            "--release",
            "--quiet",
            "-p",
            "fmeter-bench",
            "--bin",
            "sanity_check",
        ])
        .output()
        .expect("cargo is invocable");
    assert!(
        output.status.success(),
        "sanity_check exited with {:?}:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn sanity_check_runs_to_completion() {
    if release_smoke_skipped() {
        return;
    }
    let stdout = sanity_check_stdout();
    for marker in ["SVM scp vs kcompile", "KMeans purity"] {
        assert!(
            stdout.contains(marker),
            "sanity_check output lost the `{marker}` section:\n{stdout}"
        );
    }
    // Everything on stdout is seed-determined: a rerun prints the same
    // bytes (timings go to stderr).
    assert_eq!(
        sanity_check_stdout(),
        stdout,
        "two sanity_check runs printed different stdout"
    );
}

#[test]
fn figure_binaries_refuse_a_pool_below_their_smallest_sample() {
    if release_smoke_skipped() {
        return;
    }
    // Below fig5's smallest sample size (20 per class) the figure would
    // have no row: the binary must say so and fail before collecting.
    let output = cargo()
        .args([
            "run",
            "--release",
            "--quiet",
            "-p",
            "fmeter-bench",
            "--bin",
            "fig5_kmeans_purity",
        ])
        .env("FMETER_SIGS", "16")
        .output()
        .expect("cargo is invocable");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "fig5 at FMETER_SIGS=16 exited 0:\n{stderr}"
    );
    assert!(
        stderr.contains("at least 20") && !stderr.contains("collecting"),
        "fig5 did not name the minimum before collecting:\n{stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "fig5 printed a figure with no rows"
    );
}
