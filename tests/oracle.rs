//! The differential oracle (`tommy_contract::oracle`) over its seed budget,
//! and every saved counterexample replayed over the full roster.

use tommy_contract::oracle::{fuzz, parse_log, replay, MESSAGES, SEEDS};

/// Every contract holds on every run the default budget draws, and those
/// runs reach every path the differential suites existed to exercise.
#[test]
fn every_contract_holds_over_the_default_budget() {
    let coverage =
        fuzz(0..SEEDS, MESSAGES).unwrap_or_else(|counterexample| panic!("{counterexample}"));
    assert_eq!(coverage.runs, SEEDS);
    assert!(
        coverage.unreached().is_empty(),
        "unreached {:?}: {coverage:?}",
        coverage.unreached()
    );
}

/// Ten times the seeds, each run four times as long.
#[test]
#[ignore = "the deep budget; run in release with --include-ignored"]
fn every_contract_holds_over_the_deep_budget() {
    if let Err(counterexample) = fuzz(0..10 * SEEDS, 4 * MESSAGES) {
        panic!("{counterexample}");
    }
}

/// The shrunk counterexamples under `tests/regressions/`, each once a
/// failure the oracle found, replay clean.
#[test]
fn saved_counterexamples_replay_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/regressions");
    let mut logs: Vec<_> = std::fs::read_dir(dir)
        .expect("regressions directory")
        .map(|e| e.unwrap().path())
        .collect();
    logs.retain(|path| path.extension().is_some_and(|ext| ext == "ops"));
    logs.sort();
    assert!(!logs.is_empty(), "no op-logs in {dir}");
    for path in logs {
        let text = std::fs::read_to_string(&path).expect("readable op-log");
        let (setup, ops) = parse_log(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Err(failure) = replay(&setup, &ops) {
            panic!("{}: {failure}", path.display());
        }
    }
}
