//! Unit tests of the CLI, driven through [`run`] and the verb table.

use super::dse::parse_duration;
use super::*;
use crate::args::{GLOBAL_FLAGS, GLOBAL_OPTIONS};
use std::fmt::Write as _;
use std::time::Duration;

fn run_str(s: &str) -> Result<String, CliError> {
    let argv: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
    run(&argv)
}

#[test]
fn no_command_prints_usage() {
    let out = run(&[]).unwrap();
    assert!(out.contains("USAGE"));
    assert!(run_str("help").unwrap().contains("COMMANDS"));
}

#[test]
fn unknown_command_errors() {
    let err = run_str("frobnicate").unwrap_err();
    assert!(err.to_string().contains("frobnicate"));
}

#[test]
fn metrics_computes_tcdp() {
    let out =
        run_str("metrics --delay 0.5 --energy 2.0 --embodied 450 --tasks 1e8 --grid us").unwrap();
    assert!(out.contains("tCDP"));
    assert!(out.contains("% embodied"));
    // Missing required option.
    let err = run_str("metrics --delay 0.5").unwrap_err();
    assert!(err.to_string().contains("--energy"));
    // Bad numbers.
    assert!(run_str("metrics --delay x --energy 1 --embodied 1").is_err());
}

#[test]
fn metrics_rejects_unknown_options() {
    let err = run_str("metrics --delay 1 --energy 1 --embodied 1 --bogus 3").unwrap_err();
    assert!(err.to_string().contains("bogus"));
}

#[test]
fn threads_option_is_global_and_validated() {
    // Accepted on any command; results are thread-count invariant.
    let capped = run_str("provision --app m1 --threads 2").unwrap();
    let auto = run_str("provision --app m1").unwrap();
    assert_eq!(capped, auto);
    // Zero and non-numeric counts are rejected up front.
    for bad in ["0", "x", "-1"] {
        let err = run_str(&format!(
            "metrics --delay 1 --energy 1 --embodied 1 --threads {bad}"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("threads"), "{bad}: {err}");
    }
}

#[test]
fn dse_runs_for_every_task_name() {
    for task in ["all", "xr10", "ai10", "xr5", "ai5"] {
        let out = run_str(&format!("dse --task {task} --lo 5 --hi 8")).unwrap();
        assert!(out.contains("survivors:"), "{task}");
    }
    assert!(run_str("dse --task nope").is_err());
    assert!(run_str("dse --lo 8 --hi 5").is_err());
}

/// Value of a named global counter (0 if it never registered).
fn counter_value(name: &str) -> u64 {
    cordoba_obs::registry_snapshot().counter(name)
}

#[test]
fn dse_store_warm_and_replay_are_byte_identical() {
    let dir = std::env::temp_dir().join("cordoba-cli-test-store-dse");
    let _ = std::fs::remove_dir_all(&dir);
    let cmd = format!("dse --task xr5 --lo 5 --hi 7 --store {}", dir.display());
    let cold = run_str(&cmd).unwrap();
    assert!(cold.contains("survivors:"));
    let hash = cold
        .lines()
        .find_map(|l| l.strip_prefix("store: run "))
        .expect("stored run prints its hash")
        .to_owned();
    // Second run is served from the store, byte-for-byte.
    let warm = run_str(&cmd).unwrap();
    assert_eq!(cold, warm);
    // `replay <hash>` re-emits the identical bytes.
    let replayed = run_str(&format!("replay {hash} --store {}", dir.display())).unwrap();
    assert_eq!(replayed, cold);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_does_not_recompute() {
    let dir = std::env::temp_dir().join("cordoba-cli-test-store-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let cold = run_str(&format!(
        "dse --task ai5 --lo 5 --hi 7 --store {}",
        dir.display()
    ))
    .unwrap();
    let hash = cold
        .lines()
        .find_map(|l| l.strip_prefix("store: run "))
        .unwrap()
        .to_owned();
    // With metrics on, replay must be served from the store.
    let hits_before = counter_value("events/store_hit");
    let out = run_str(&format!(
        "replay {hash} --store {} --metrics",
        dir.display()
    ))
    .unwrap();
    assert!(out.starts_with(&cold), "replay re-emits the stored bytes");
    assert!(counter_value("events/store_hit") > hits_before);
    // Usage errors: malformed hash, missing --store, unknown hash.
    assert!(run_str("replay nothex --store /tmp/x").is_err());
    assert!(run_str(&format!("replay {hash}")).is_err());
    let missing = format!("{:032x}", 7u128);
    assert!(run_str(&format!("replay {missing} --store {}", dir.display())).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run that finishes must not switch the metrics registry off under
/// another in-process run that is still counting (before the layers
/// were reference-counted, a `replay --metrics` beside a looping
/// `kernels --metrics` run lost store hits).
#[test]
fn a_finishing_run_leaves_overlapping_runs_counting() {
    // Stands in for a `--metrics` run still in progress elsewhere.
    cordoba_obs::acquire(Layer::Metrics);
    let finished = run_str("kernels --metrics");
    let still_counting = cordoba_obs::metrics_enabled();
    cordoba_obs::release(Layer::Metrics);
    finished.unwrap();
    assert!(still_counting, "a finishing run switched metrics off");
}

#[test]
fn cache_inspect_and_evict_round_trip() {
    let dir = std::env::temp_dir().join("cordoba-cli-test-store-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cold = run_str(&format!(
        "dse --task xr10 --lo 5 --hi 7 --store {}",
        dir.display()
    ))
    .unwrap();
    let hash = cold
        .lines()
        .find_map(|l| l.strip_prefix("store: run "))
        .unwrap()
        .to_owned();
    // One run leaves one entry per memoized stage.
    let listing = run_str(&format!("cache inspect --store {}", dir.display())).unwrap();
    assert!(listing.contains("eval_space"));
    assert!(listing.contains("op_time_sweep"));
    assert!(listing.contains(&hash));
    assert!(listing.contains("total: 3 entries"));
    // Evicting one kind leaves the others; the replayed run is gone.
    let out = run_str(&format!("cache evict --store {} --kind run", dir.display())).unwrap();
    assert!(out.contains("evicted 1"));
    assert!(run_str(&format!("replay {hash} --store {}", dir.display())).is_err());
    let out = run_str(&format!("cache evict --store {}", dir.display())).unwrap();
    assert!(out.contains("evicted 2"));
    let listing = run_str(&format!("cache inspect --store {}", dir.display())).unwrap();
    assert!(listing.contains("total: 0 entries"));
    // Usage errors.
    assert!(run_str("cache inspect").is_err());
    assert!(run_str(&format!("cache defrost --store {}", dir.display())).is_err());
    assert!(run_str(&format!(
        "cache inspect --store {} --kind run",
        dir.display()
    ))
    .is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dse_store_conflicts_with_supervision() {
    for conflict in ["--deadline 5s", "--checkpoint /tmp/c", "--resume /tmp/c"] {
        let err = run_str(&format!("dse --task xr5 --store /tmp/s {conflict}")).unwrap_err();
        assert!(err.to_string().contains("--store"), "{conflict}: {err}");
    }
}

#[test]
fn provision_reports_optimum() {
    let out = run_str("provision --app m1").unwrap();
    assert!(out.contains("<== optimal"));
    assert!(out.contains("4 cores"));
    assert!(run_str("provision --app nope").is_err());
}

#[test]
fn stacking_reports_winner() {
    let out = run_str("stacking --share 0.08").unwrap();
    assert!(out.contains("3D_2K_8M"));
    let out = run_str("stacking --share 0.8").unwrap();
    assert!(out.contains("3D_2K_4M"));
}

#[test]
fn grids_accepts_names_and_numbers() {
    assert!(grid_by_name("solar").is_ok());
    assert!((grid_by_name("123.5").unwrap().value() - 123.5).abs() < 1e-12);
    assert!(grid_by_name("unobtainium").is_err());
    let out = run_str("grids").unwrap();
    assert!(out.contains("coal") && out.contains("820"));
}

#[test]
fn kernel_and_task_listings() {
    let out = run_str("kernels").unwrap();
    assert!(out.contains("SR (1024x1024)"));
    assert_eq!(out.lines().count(), 16); // header + 15 kernels
    let out = run_str("tasks").unwrap();
    assert!(out.contains("XR 5 kernels"));
}

#[test]
fn eliminate_parses_csv() {
    let csv = "name,delay,energy,embodied\n\
               lean,1.6,1.0,90\n\
               wasteful,1.6,3.0,300\n\
               beefy,0.5,4.0,420\n";
    let points = parse_design_csv(csv).unwrap();
    assert_eq!(points.len(), 3);
    let sweep = BetaSweep::run(&points);
    assert!(sweep.eliminated_names().contains(&"wasteful"));
    // Malformed rows.
    assert!(parse_design_csv("a,b\n").is_err());
    assert!(parse_design_csv("x,1,2,banana\n").is_err());
    assert!(parse_design_csv("\n# only comments\n").is_err());
}

#[test]
fn eliminate_end_to_end_via_tempfile() {
    let dir = std::env::temp_dir().join("cordoba-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("designs.csv");
    std::fs::write(&path, "a,1.0,1.0,10\nb,2.0,2.0,20\n").unwrap();
    let out = run_str(&format!("eliminate --csv {}", path.display())).unwrap();
    assert!(out.contains("survivors"));
    assert!(out.contains('b'));
    let _ = std::fs::remove_file(path);
    assert!(run_str("eliminate --csv /nonexistent/x.csv").is_err());
    assert!(run_str("eliminate").is_err());
}

#[test]
fn help_flags_per_command() {
    for cmd in [
        "metrics",
        "dse",
        "provision",
        "stacking",
        "eliminate",
        "doctor",
    ] {
        let out = run_str(&format!("{cmd} --help")).unwrap();
        assert!(out.contains("cordoba"), "{cmd}");
    }
}

#[test]
fn lenient_csv_parser_reports_line_numbers() {
    let csv = "name,delay,energy,embodied\n\
               good,1.0,1.0,10\n\
               bad,row\n\
               worse,1.0,banana,30\n\
               fine,2.0,2.0,20\n";
    // Strict mode aborts on the first malformed row with its line.
    let err = parse_design_csv(csv).unwrap_err().to_string();
    assert!(err.contains("line 3"), "{err}");
    // Lenient mode keeps the good rows and reports each skip.
    let report = parse_design_csv_lenient(csv).unwrap();
    assert_eq!(report.points.len(), 2);
    assert_eq!(report.skipped.len(), 2);
    assert!(report.skipped[0].contains("line 3"));
    assert!(report.skipped[1].contains("line 4"));
    assert!(report.skipped[1].contains("banana"));
    // A fully malformed file is still an error.
    assert!(parse_design_csv_lenient("junk,row\n").is_err());
}

#[test]
fn lenient_eliminate_skips_bad_rows() {
    let dir = std::env::temp_dir().join("cordoba-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("messy.csv");
    std::fs::write(&path, "a,1.0,1.0,10\nnot a row\nb,2.0,2.0,20\n").unwrap();
    let arg = format!("eliminate --csv {}", path.display());
    assert!(run_str(&arg).is_err(), "strict mode must abort");
    let out = run_str(&format!("{arg} --lenient")).unwrap();
    assert!(out.contains("skipped 1 malformed rows"));
    assert!(out.contains("line 2"));
    assert!(out.contains("2 candidates"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn dse_lenient_matches_strict_on_clean_space() {
    let strict = run_str("dse --task xr5 --lo 5 --hi 7").unwrap();
    let lenient = run_str("dse --task xr5 --lo 5 --hi 7 --lenient").unwrap();
    // The built-in space is clean, so no quarantine block appears and
    // the sweep output is identical.
    assert_eq!(strict, lenient);
}

#[test]
fn parse_duration_accepts_suffixes_and_rejects_garbage() {
    assert_eq!(parse_duration("5s").unwrap(), Duration::from_secs(5));
    assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
    assert_eq!(parse_duration("2m").unwrap(), Duration::from_secs(120));
    assert_eq!(parse_duration("1h").unwrap(), Duration::from_secs(3600));
    assert_eq!(parse_duration("0s").unwrap(), Duration::ZERO);
    assert_eq!(parse_duration("1.5").unwrap(), Duration::from_millis(1500));
    for bad in ["", "banana", "-3s", "nan", "9e99h", "5 s s"] {
        assert!(parse_duration(bad).is_err(), "{bad}");
    }
}

#[test]
fn strict_csv_parser_reports_every_malformed_line() {
    let csv = "name,delay,energy,embodied\n\
               good,1.0,1.0,10\n\
               bad,row\n\
               worse,1.0,banana,30\n\
               fine,2.0,2.0,20\n";
    let err = parse_design_csv(csv).unwrap_err().to_string();
    assert!(err.contains("2 malformed row(s)"), "{err}");
    assert!(err.contains("line 3"), "{err}");
    assert!(err.contains("line 4"), "{err}");
    assert!(err.contains("banana"), "{err}");
}

#[test]
fn dse_deadline_writes_checkpoint_and_resume_matches_direct_run() {
    let dir = std::env::temp_dir().join("cordoba-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.ckpt");
    let _ = std::fs::remove_file(&path);
    // A zero deadline interrupts before any row but after the
    // deadline-free evaluation stage, so the checkpoint always lands.
    let out = run_str(&format!(
        "dse --task xr5 --lo 5 --hi 7 --deadline 0s --checkpoint {}",
        path.display()
    ))
    .unwrap();
    assert!(
        out.contains("sweep interrupted (deadline-exceeded)"),
        "{out}"
    );
    assert!(out.contains("checkpoint written"), "{out}");
    let saved = std::fs::read_to_string(&path).unwrap();
    assert!(saved.starts_with("cordoba-sweep-checkpoint v1"), "{saved}");
    // Resuming completes the sweep and reproduces the direct run's
    // crossover table and elimination summary exactly.
    let resumed = run_str(&format!("dse --resume {}", path.display())).unwrap();
    let direct = run_str("dse --task xr5 --lo 5 --hi 7").unwrap();
    assert!(resumed.starts_with("resuming"), "{resumed}");
    let resumed_body: Vec<&str> = resumed.lines().skip(1).collect();
    let direct_body: Vec<&str> = direct.lines().skip(1).collect();
    assert_eq!(resumed_body, direct_body);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dse_deadline_without_checkpoint_is_an_error() {
    let err = run_str("dse --task xr5 --lo 5 --hi 7 --deadline 0s").unwrap_err();
    assert!(err.to_string().contains("--checkpoint"), "{err}");
}

#[test]
fn dse_resume_validates_inputs() {
    // Resume with sweep-shaping options is contradictory.
    let err = run_str("dse --resume whatever.ckpt --task xr5").unwrap_err();
    assert!(err.to_string().contains("--task"), "{err}");
    // Missing and corrupt checkpoint files are usage errors.
    assert!(run_str("dse --resume /nonexistent/x.ckpt").is_err());
    let dir = std::env::temp_dir().join("cordoba-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.ckpt");
    std::fs::write(&path, "not a checkpoint\n").unwrap();
    let err = run_str(&format!("dse --resume {}", path.display())).unwrap_err();
    assert!(err.to_string().contains("checkpoint"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dse_rejects_bad_deadline() {
    let err = run_str("dse --task xr5 --deadline banana").unwrap_err();
    assert!(err.to_string().contains("duration"), "{err}");
}

#[test]
fn dse_attribution_table_appends_to_output() {
    let out = run_str("dse --task xr5 --lo 5 --hi 7 --attribution -").unwrap();
    assert!(out.contains("survivors:"), "{out}");
    assert!(out.contains("attribution:"), "{out}");
    assert!(out.contains("embodied*D"), "{out}");
    assert!(out.contains("operational*D"), "{out}");
    // The base sweep output is unchanged by the ledger request.
    let plain = run_str("dse --task xr5 --lo 5 --hi 7").unwrap();
    assert!(out.starts_with(&plain), "ledger must append, not rewrite");
}

#[test]
fn dse_attribution_json_reconciles_with_sweep() {
    let dir = std::env::temp_dir().join("cordoba-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("attrib.json");
    let _ = std::fs::remove_file(&path);
    let out = run_str(&format!(
        "dse --task ai5 --lo 5 --hi 7 --attribution {}",
        path.display()
    ))
    .unwrap();
    assert!(out.contains("attribution written to"), "{out}");
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = cordoba_obs::json::parse(&text).expect("ledger is valid JSON");
    for key in ["ci_use", "task_counts", "configs", "totals", "quarantined"] {
        assert!(doc.get(key).is_some(), "missing `{key}` in ledger");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dse_attribution_rides_along_with_store() {
    let dir = std::env::temp_dir().join("cordoba-cli-test-store-attrib");
    let _ = std::fs::remove_dir_all(&dir);
    let base = format!("dse --task xr5 --lo 5 --hi 7 --store {}", dir.display());
    let cold = run_str(&base).unwrap();
    // A warm attribution request bypasses the run memo but reuses the
    // stage memos underneath; the stored payload stays byte-identical
    // and the ledger appends after it.
    let with_ledger = run_str(&format!("{base} --attribution -")).unwrap();
    assert!(with_ledger.starts_with(&cold), "{with_ledger}");
    assert!(with_ledger.contains("attribution:"), "{with_ledger}");
    // A later plain warm run is still served from the memo unchanged.
    assert_eq!(run_str(&base).unwrap(), cold);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dse_attribution_conflicts_with_resume() {
    let err = run_str("dse --resume x.ckpt --attribution -").unwrap_err();
    assert!(err.to_string().contains("attribution"), "{err}");
}

#[test]
fn dse_lenient_conflicts_with_resume() {
    // A resumed sweep never re-evaluates the space, so `--lenient`
    // would be silently ignored.
    let err = run_str("dse --resume x.ckpt --lenient").unwrap_err();
    assert!(err.to_string().contains("drop --lenient"), "{err}");
}

#[test]
fn dse_checkpoint_requires_deadline() {
    // Without a deadline the sweep is never interrupted, so the
    // checkpoint file would never be written.
    let err = run_str("dse --task xr5 --lo 5 --hi 7 --checkpoint x.ckpt").unwrap_err();
    assert!(err.to_string().contains("add --deadline"), "{err}");
    let err = run_str("dse --resume x.ckpt --checkpoint y.ckpt").unwrap_err();
    assert!(err.to_string().contains("add --deadline"), "{err}");
}

#[test]
fn profile_verb_aggregates_a_captured_trace() {
    let dir = std::env::temp_dir().join("cordoba-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profile-trace.json");
    let _ = std::fs::remove_file(&path);
    let out = run_str(&format!(
        "dse --task xr5 --lo 5 --hi 7 --trace-out {}",
        path.display()
    ))
    .unwrap();
    assert!(out.contains("trace written to"), "{out}");
    let table = run_str(&format!("profile {}", path.display())).unwrap();
    assert!(table.contains("span"), "{table}");
    assert!(table.contains("self_ns"), "{table}");
    assert!(table.contains("core/evaluate_space"), "{table}");
    // --top caps the table body.
    let capped = run_str(&format!("profile {} --top 1", path.display())).unwrap();
    assert!(capped.lines().count() < table.lines().count(), "{capped}");
    // Usage errors: missing path, unreadable file, invalid trace.
    assert!(run_str("profile").is_err());
    assert!(run_str("profile /nonexistent/trace.json").is_err());
    let bad = dir.join("not-a-trace.json");
    std::fs::write(&bad, "hello").unwrap();
    assert!(run_str(&format!("profile {}", bad.display())).is_err());
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn profile_out_writes_profile_json() {
    let dir = std::env::temp_dir().join("cordoba-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep-profile.json");
    let _ = std::fs::remove_file(&path);
    let out = run_str(&format!(
        "dse --task xr5 --lo 5 --hi 7 --profile-out {}",
        path.display()
    ))
    .unwrap();
    assert!(out.contains("profile written to"), "{out}");
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = cordoba_obs::json::parse(&text).expect("profile is valid JSON");
    for key in ["entries", "wall_ns", "spans", "threads"] {
        assert!(doc.get(key).is_some(), "missing `{key}` in profile");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn doctor_prometheus_probe_self_validates() {
    let out = run_str("doctor --metrics").unwrap();
    assert!(out.contains("# TYPE"), "{out}");
    assert!(out.contains("prometheus exposition: OK"), "{out}");
}

#[test]
fn cache_inspect_metrics_prints_store_counters() {
    let dir = std::env::temp_dir().join("cordoba-cli-test-store-inspect");
    let _ = std::fs::remove_dir_all(&dir);
    run_str(&format!(
        "dse --task xr5 --lo 5 --hi 7 --store {}",
        dir.display()
    ))
    .unwrap();
    let plain = run_str(&format!("cache inspect --store {}", dir.display())).unwrap();
    assert!(!plain.contains("store ops this process"), "{plain}");
    let with_counters = run_str(&format!(
        "cache inspect --store {} --metrics",
        dir.display()
    ))
    .unwrap();
    assert!(
        with_counters.contains("store ops this process:"),
        "{with_counters}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctor_self_check_reports_supervision_health() {
    let out = run_str("doctor --metrics").unwrap();
    assert!(
        out.contains("supervision: deadline + checkpoint + panic probes"),
        "{out}"
    );
    assert!(out.contains("deadline-bounded sweep: interrupts"), "{out}");
    assert!(out.contains("checkpoint round-trip: bit-exact"), "{out}");
    assert!(
        out.contains("interrupted resume: bit-identical to uninterrupted sweep"),
        "{out}"
    );
    assert!(
        out.contains("panic isolation: quarantined (process intact)"),
        "{out}"
    );
    assert!(out.contains("supervision status: ok"), "{out}");
    // The probe populates the whole supervision counter family, so the
    // appended metrics dump must carry it.
    for counter in [
        "supervision_deadline_exceeded",
        "supervision_cancelled",
        "supervision_chunk_panic",
        "supervision_checkpoint_written",
        "supervision_checkpoint_restored",
    ] {
        assert!(out.contains(counter), "missing {counter} in:\n{out}");
    }
}

#[test]
fn doctor_reports_trace_repairs() {
    let dir = std::env::temp_dir().join("cordoba-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.csv");
    std::fs::write(
        &path,
        "time_s,ci\n0,400\n3600,nan\n7200,-5\n7200,410\n10800,420\nbroken line\n",
    )
    .unwrap();
    let out = run_str(&format!("doctor --trace {}", path.display())).unwrap();
    assert!(out.contains("5 rows parsed, 1 unparseable"), "{out}");
    assert!(out.contains("line 7"), "{out}");
    assert!(out.contains("DEGRADED"), "{out}");
    assert!(out.contains("span:"), "{out}");
    assert!(out.contains("mean CI over span (exact):"), "{out}");
    // Unknown policy is rejected; known policies both work.
    assert!(run_str(&format!("doctor --trace {} --policy bogus", path.display())).is_err());
    let out = run_str(&format!(
        "doctor --trace {} --policy production",
        path.display()
    ))
    .unwrap();
    assert!(out.contains("sanitized"), "{out}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn doctor_reports_design_rows_and_requires_input() {
    let dir = std::env::temp_dir().join("cordoba-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("doctor-designs.csv");
    std::fs::write(&path, "a,1.0,1.0,10\nbad\n").unwrap();
    let out = run_str(&format!("doctor --designs {}", path.display())).unwrap();
    assert!(out.contains("1 rows parsed, 1 skipped"), "{out}");
    assert!(out.contains("DEGRADED"), "{out}");
    let _ = std::fs::remove_file(path);
    // No input at all is a usage error.
    assert!(run_str("doctor").is_err());
}

/// The `--name`s a help text mentions.
fn mentioned_names(help: &str) -> Vec<&str> {
    help.split("--")
        .skip(1)
        .filter_map(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .unwrap_or(rest.len());
            (end > 0).then(|| &rest[..end])
        })
        .collect()
}

/// Every verb's declaration is what its command line, its `--help` and
/// `cordoba help` honour, and the help texts match the recorded fixture.
#[test]
fn verb_table_is_the_contract() {
    let mut transcript = format!("$ cordoba help\n{}", run_str("help").unwrap());
    for verb in VERBS {
        let name = verb.name;
        let help = run_str(&format!("{name} --help")).unwrap();
        assert_eq!(help, verb.help, "{name}");
        let _ = write!(transcript, "$ cordoba {name} --help\n{help}");

        let mentioned = mentioned_names(verb.help);
        for declared in verb.flags.iter().chain(verb.options) {
            assert!(
                mentioned.contains(declared),
                "{name}: --{declared} undocumented"
            );
        }
        for &used in &mentioned {
            assert!(
                [verb.flags, verb.options, &GLOBAL_FLAGS, &GLOBAL_OPTIONS]
                    .iter()
                    .any(|names| names.contains(&used)),
                "{name}: help names undeclared --{used}"
            );
        }

        for option in verb.options.iter().chain(&GLOBAL_OPTIONS) {
            let err = run_str(&format!("{name} --{option}")).unwrap_err();
            assert!(
                err.to_string().contains("requires a value"),
                "{name} --{option}: {err}"
            );
        }
        let flags: Vec<&str> = verb.flags.iter().chain(&GLOBAL_FLAGS).copied().collect();
        for &flag in &flags {
            let err = run_str(&format!("{name} --{flag}=x")).unwrap_err();
            assert!(
                matches!(&err, CliError::Args(ArgError::InvalidValue { key, .. }) if key == flag),
                "{name} --{flag}=x: {err}"
            );
            // A flag before a positional leaves the positional alone.
            let raw = [format!("--{flag}"), "pos".to_owned()];
            let parsed = Args::parse(&raw, verb.flags, verb.options, verb.positionals);
            if verb.positionals == 0 {
                assert_eq!(
                    parsed,
                    Err(ArgError::UnexpectedArgument("pos".to_owned())),
                    "{name} --{flag} pos"
                );
            } else {
                let parsed = parsed.unwrap();
                assert!(parsed.flag(flag), "{name} --{flag} pos");
                assert_eq!(parsed.positional(), ["pos"], "{name} --{flag} pos");
            }
        }
        let err = run_str(&format!("{name} --bogus")).unwrap_err();
        assert!(
            matches!(&err, CliError::Args(ArgError::UnknownOption(k)) if k == "bogus"),
            "{name}: {err}"
        );
        let surplus = vec!["p"; verb.positionals + 1].join(" ");
        let err = run_str(&format!("{name} {surplus}")).unwrap_err();
        assert!(
            matches!(&err, CliError::Args(ArgError::UnexpectedArgument(p)) if p == "p"),
            "{name} {surplus}: {err}"
        );
    }
    assert_eq!(
        transcript,
        include_str!("../../tests/fixtures/help.expected")
    );
    // `doctor` never read its `--grid`, so it no longer accepts one.
    assert!(matches!(
        run_str("doctor --grid coal"),
        Err(CliError::Args(ArgError::UnknownOption(k))) if k == "grid"
    ));
}
