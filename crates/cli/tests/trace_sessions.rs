//! Overlapping traced runs in one process export only their own spans.
//!
//! Untraced runs that overlap a traced one still add their spans to its
//! trace (the tracing switch is process-wide), so this check lives in its
//! own integration binary, where no other test runs beside it.

use cordoba_cli::run;
use std::collections::BTreeSet;

/// The span names of the Chrome trace at `path`.
fn span_names(path: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(path).unwrap();
    cordoba_obs::profile_chrome_trace(&text)
        .unwrap()
        .entries
        .into_iter()
        .map(|e| e.name)
        .collect()
}

/// Runs `verb` traced `rounds` times and returns the span names seen in
/// each exported trace.
fn traced_rounds(verb: &str, tag: &str, rounds: usize) -> Vec<BTreeSet<String>> {
    let path = std::env::temp_dir().join(format!(
        "cordoba_trace_sessions_{tag}_{}.json",
        std::process::id()
    ));
    let path = path.to_str().unwrap().to_owned();
    let mut argv: Vec<String> = verb.split_whitespace().map(str::to_owned).collect();
    argv.extend(["--trace-out".to_owned(), path.clone()]);
    let seen = (0..rounds)
        .map(|_| {
            run(&argv).unwrap();
            span_names(&path)
        })
        .collect();
    std::fs::remove_file(&path).ok();
    seen
}

#[test]
fn overlapping_traced_runs_export_only_their_own_spans() {
    let rounds = 40;
    let (provision, dse) = std::thread::scope(|scope| {
        let provision = scope.spawn(|| traced_rounds("provision --app m1", "provision", rounds));
        let dse = scope.spawn(|| traced_rounds("dse --task xr5 --lo 5 --hi 7", "dse", rounds));
        (provision.join().unwrap(), dse.join().unwrap())
    });
    let is_dse = |name: &String| !name.starts_with("soc/");
    for (round, names) in provision.iter().enumerate() {
        assert!(
            names.contains("soc/provisioning_sweep"),
            "round {round}: {names:?}"
        );
        assert!(
            !names.iter().any(is_dse),
            "round {round}: dse spans in {names:?}"
        );
    }
    for (round, names) in dse.iter().enumerate() {
        assert!(
            names.contains("core/evaluate_space"),
            "round {round}: {names:?}"
        );
        assert!(
            names.iter().all(is_dse),
            "round {round}: provision spans in {names:?}"
        );
    }
}
