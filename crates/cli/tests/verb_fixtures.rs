//! The stdout, stderr and exit code of `provision`, a lenient `dse` with
//! an attribution ledger, a deadline-checkpointed `dse` followed by its
//! `--resume`, a `--resume` of a checkpoint with a damaged count header, a
//! cold and a warm `dse --store` followed by `replay` and `cache inspect`,
//! three `dse` usage errors, the table verbs, a `metrics` design point and
//! four more usage errors, compared byte for byte with committed fixtures
//! at `--threads 1` and `2`; the checkpoint file's bytes are compared too.
//!
//! Each command runs in a fresh `cordoba` process inside its own temporary
//! working directory, so the relative checkpoint and store paths land
//! there. The fixtures under `tests/fixtures/verbs/` record each command as
//!
//! ```text
//! exit: <code>
//! --- stdout
//! <stdout bytes>--- stderr
//! <stderr bytes>
//! ```
//!
//! None of these outputs carries a timing, and two runs of one binary
//! printed the same bytes, so nothing is normalized away;
//! a deliberate change to a verb's output edits its fixture in the same
//! change.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The contents of `tests/fixtures/verbs/<name>`.
fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/verbs")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// A fresh, empty working directory for one test at one thread count.
fn work_dir(tag: &str, threads: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cordoba-verb-fixtures-{tag}-{threads}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temporary directory is writable");
    dir
}

/// Runs `cordoba <args> --threads <threads>` in `dir` and checks its
/// transcript against `fixtures/verbs/<fixture>`.
fn check(dir: &Path, args: &[&str], threads: &str, fixture: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_cordoba"))
        .current_dir(dir)
        .args(args)
        .args(["--threads", threads])
        .output()
        .expect("the cordoba binary runs");
    let actual = format!(
        "exit: {}\n--- stdout\n{}--- stderr\n{}",
        output
            .status
            .code()
            .map_or_else(|| "signal".to_string(), |code| code.to_string()),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let expected = read_fixture(fixture);
    assert!(
        actual == expected,
        "{args:?} --threads {threads} differs from {fixture}\n--- expected\n{expected}--- actual\n{actual}"
    );
}

#[test]
fn provision_all_matches_its_fixture() {
    for threads in ["1", "2"] {
        let dir = work_dir("provision", threads);
        check(
            &dir,
            &["provision", "--app", "all"],
            threads,
            "provision_all.expected",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn lenient_dse_with_attribution_matches_its_fixture() {
    for threads in ["1", "2"] {
        let dir = work_dir("lenient", threads);
        check(
            &dir,
            &[
                "dse",
                "--task",
                "xr5",
                "--lo",
                "5",
                "--hi",
                "7",
                "--lenient",
                "--attribution",
                "-",
            ],
            threads,
            "dse_lenient_attribution.expected",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn deadline_checkpoint_and_resume_match_their_fixtures() {
    for threads in ["1", "2"] {
        let dir = work_dir("checkpoint", threads);
        check(
            &dir,
            &[
                "dse",
                "--task",
                "xr5",
                "--lo",
                "5",
                "--hi",
                "7",
                "--deadline",
                "0s",
                "--checkpoint",
                "sweep.ckpt",
            ],
            threads,
            "dse_deadline_checkpoint.expected",
        );
        let written = std::fs::read_to_string(dir.join("sweep.ckpt"))
            .expect("the deadline run writes its checkpoint");
        let expected = read_fixture("sweep.ckpt");
        assert!(
            written == expected,
            "--threads {threads}: sweep.ckpt differs from its fixture\n--- expected\n{expected}--- actual\n{written}"
        );
        check(
            &dir,
            &["dse", "--resume", "sweep.ckpt"],
            threads,
            "dse_resume.expected",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A cold `dse --store` fills the store and a warm one reads it back with
/// the same transcript; `replay` of the run hash it prints renders that
/// transcript again, and `cache inspect` lists the three entries the cold
/// run wrote and the warm run did not add to.
#[test]
fn store_cold_warm_replay_and_inspect_match_their_fixtures() {
    let dse = [
        "dse", "--task", "xr5", "--lo", "5", "--hi", "7", "--store", "st",
    ];
    for threads in ["1", "2"] {
        let dir = work_dir("store", threads);
        check(&dir, &dse, threads, "dse_store.expected");
        check(&dir, &dse, threads, "dse_store.expected");
        check(
            &dir,
            &[
                "replay",
                "761f42abb2aa2daf0eccfc1c19c88398",
                "--store",
                "st",
            ],
            threads,
            "replay_store.expected",
        );
        check(
            &dir,
            &["cache", "inspect", "--store", "st"],
            threads,
            "cache_inspect_store.expected",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A checkpoint whose task-count header exceeds any file is refused with
/// exit 2, as a truncated one is, rather than sized from the header.
#[test]
fn resume_of_a_damaged_count_header_matches_its_fixture() {
    let checkpoint = "cordoba-sweep-checkpoint v1\n\
        reason deadline-exceeded\n\
        ci_use 4077c00000000000\n\
        task_counts 18446744073709551615\n";
    for threads in ["1", "2"] {
        let dir = work_dir("damaged", threads);
        std::fs::write(dir.join("huge.ckpt"), checkpoint).expect("work dir is writable");
        check(
            &dir,
            &["dse", "--resume", "huge.ckpt"],
            threads,
            "dse_resume_damaged_count.expected",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A valued option given bare, `--resume` with `--lenient`, and
/// `--checkpoint` without `--deadline` each exit 2 with a naming error.
#[test]
fn dse_usage_errors_match_their_fixtures() {
    let cases: [(&[&str], &str); 3] = [
        (
            &["dse", "--task", "xr5", "--store"],
            "dse_store_missing_value.expected",
        ),
        (
            &["dse", "--resume", "c", "--lenient"],
            "dse_resume_lenient.expected",
        ),
        (
            &["dse", "--checkpoint", "c"],
            "dse_checkpoint_without_deadline.expected",
        ),
    ];
    for threads in ["1", "2"] {
        let dir = work_dir("usage", threads);
        for (args, fixture) in cases {
            check(&dir, args, threads, fixture);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The table verbs and a `metrics` design point, which read no file and
/// print no timing.
#[test]
fn small_verbs_match_their_fixtures() {
    let cases: [(&[&str], &str); 5] = [
        (&["stacking"], "stacking.expected"),
        (&["kernels"], "kernels.expected"),
        (&["tasks"], "tasks.expected"),
        (&["grids"], "grids.expected"),
        (
            &[
                "metrics",
                "--delay",
                "1",
                "--energy",
                "40",
                "--embodied",
                "8000",
            ],
            "metrics.expected",
        ),
    ];
    for threads in ["1", "2"] {
        let dir = work_dir("small", threads);
        for (args, fixture) in cases {
            check(&dir, args, threads, fixture);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A missing required option, an unknown app, `eliminate` without its
/// CSV and an unknown command each exit 2 with a naming error.
#[test]
fn small_verb_usage_errors_match_their_fixtures() {
    let cases: [(&[&str], &str); 4] = [
        (
            &["metrics", "--energy", "40"],
            "metrics_missing_delay.expected",
        ),
        (
            &["provision", "--app", "bogus"],
            "provision_bogus_app.expected",
        ),
        (&["eliminate"], "eliminate_without_csv.expected"),
        (&["bogus"], "unknown_command.expected"),
    ];
    for threads in ["1", "2"] {
        let dir = work_dir("small-usage", threads);
        for (args, fixture) in cases {
            check(&dir, args, threads, fixture);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
