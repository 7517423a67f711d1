//! The `--metrics` output of `doctor` and a small `dse` sweep, compared
//! byte for byte with committed fixtures at `--threads 1` and `2`.
//!
//! Each command runs in a fresh `cordoba` process, so each starts from an
//! empty metrics registry and no other test's counters leak in.
//!
//! Two things vary from run to run of the same binary and are normalized
//! away before the comparison:
//! - every line containing `_ns`: the wall-clock timing histograms
//!   (`core/op_time_sweep_ns`, `core/evaluate_space_ns`), in their
//!   Prometheus `# TYPE`, bucket, sum and count lines and their JSON line;
//! - the sample count in `prometheus exposition: OK (…; N samples)`, which
//!   includes the timing histogram's bucket lines, so it moves with the
//!   timings (runs of one binary printed 33, 34 and 35). It is masked as
//!   `* samples`.
//!
//! After those two edits the output is identical across runs and thread
//! counts. A deliberate change to the metrics output edits the fixture in
//! the same change.

use std::path::Path;
use std::process::Command;

/// `stdout` with every `_ns` line dropped and the exposition's sample
/// count masked.
fn normalize(stdout: &str) -> String {
    let mut out = String::new();
    for line in stdout.lines().filter(|line| !line.contains("_ns")) {
        match line
            .strip_prefix("prometheus exposition: OK (")
            .and_then(|rest| rest.rsplit_once("; "))
        {
            Some((families, _)) => {
                out.push_str("prometheus exposition: OK (");
                out.push_str(families);
                out.push_str("; * samples)");
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Runs `cordoba <args> --threads <threads>` and checks its normalized
/// stdout against `fixtures/metrics/<fixture>`.
fn check(args: &[&str], fixture: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/metrics")
        .join(fixture);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    for threads in ["1", "2"] {
        let output = Command::new(env!("CARGO_BIN_EXE_cordoba"))
            .args(args)
            .args(["--threads", threads])
            .output()
            .expect("the cordoba binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            output.status.success(),
            "{args:?} --threads {threads}: {stderr}"
        );
        assert!(stderr.is_empty(), "{args:?} --threads {threads}: {stderr}");
        let actual = normalize(&String::from_utf8_lossy(&output.stdout));
        assert!(
            actual == expected,
            "{args:?} --threads {threads} differs from {fixture}\n--- expected\n{expected}--- actual\n{actual}"
        );
    }
}

#[test]
fn doctor_metrics_matches_its_fixture() {
    check(&["doctor", "--metrics"], "doctor.expected");
}

#[test]
fn dse_metrics_matches_its_fixture() {
    check(
        &[
            "dse",
            "--task",
            "xr5",
            "--lo",
            "5",
            "--hi",
            "7",
            "--metrics",
        ],
        "dse_xr5.expected",
    );
}
