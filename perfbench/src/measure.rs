//! Turning passes into reported metrics: the end-to-end run (untraced
//! passes only) and the per-layer run (traced passes next to untraced ones).

use crate::drive::{self, PassResult, Prepared};
use crate::layers::{self, metric, Metric, PER_LAYER};
use crate::score;
use crate::trace::{self, Off, SpanLog};
use crate::workload::{Engine, Spec, NET_DELAY, TRACE_MESSAGES};
use std::path::Path;
use std::time::Instant;

/// A run never reports from fewer timed passes than this.
const MIN_PASSES: usize = 5;
/// A per-layer run never reports from fewer traced passes than this.
const MIN_ROUNDS: usize = 3;
/// The stream is generated at least this many times: the median is the
/// one-time part of `setup_s`, and equal fingerprints show the generator is
/// deterministic. A quick generator repeats (up to `MAX_GENERATIONS`) until
/// `GENERATION_BUDGET_S` is spent, so a millisecond set-up is as steady as a
/// second-long one.
const MIN_GENERATIONS: usize = 3;
const MAX_GENERATIONS: usize = 25;
const GENERATION_BUDGET_S: f64 = 0.5;

/// The end-to-end metrics with the share of the parent's median by which
/// each may worsen. The benchmark is accepted only while each metric's
/// spread over ten seeds stays inside its bound, so the bounds follow the
/// measured spreads (README.md, BASELINE.json): host noise for the timings,
/// seed-to-seed differences for the deterministic metrics.
pub const END_TO_END: [(Metric, f64); 6] = [
    (metric("setup_s", "s", "lower"), 0.25),
    (metric("throughput_msgs_per_s", "msgs/s", "higher"), 0.25),
    (metric("hold_p50", "simtime", "lower"), 0.1),
    (metric("hold_p99", "simtime", "lower"), 0.25),
    (metric("ras", "score", "higher"), 0.04),
    (metric("delivered_ratio", "ratio", "higher"), 0.00001),
];

/// What one run of one workload in one mode reports.
pub struct Outcome {
    pub correct: bool,
    /// Messages generated, summed over every checked pass.
    pub attempted: u64,
    /// Messages not released exactly once plus driver calls that failed.
    pub failed: u64,
    /// Metric values in table order.
    pub values: Vec<f64>,
    pub notes: Vec<String>,
}

/// Bookkeeping shared by both modes: every pass is checked for exactly-once
/// delivery and against the first pass's output hash and counters.
struct Ledger {
    generated: usize,
    reference: Option<(u64, drive::Counters)>,
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Ledger {
    fn new(generated: usize) -> Self {
        Ledger {
            generated,
            reference: None,
            correct: true,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn fail(&mut self, note: String) {
        self.correct = false;
        self.notes.push(format!("FAILED: {note}"));
    }

    fn record(&mut self, pass: &PassResult, what: &str) {
        let delivery = score::check_delivery(&pass.released, self.generated);
        let hash = score::output_hash(&pass.released);
        self.attempted += self.generated as u64;
        self.failed += delivery.failed() + pass.errors;
        if !delivery.ok() || pass.errors > 0 {
            self.fail(format!(
                "{what}: {} messages not released exactly once, {} rank regressions, {} driver errors",
                delivery.failed(),
                delivery.rank_regressions,
                pass.errors
            ));
        }
        let Some((first_hash, first_counters)) = &self.reference else {
            self.reference = Some((hash, pass.counters.clone()));
            return;
        };
        let (same_hash, same_counters) = (*first_hash == hash, *first_counters == pass.counters);
        if !same_hash {
            self.fail(format!("{what}: output hash differs from the first pass"));
        }
        if !same_counters {
            self.fail(format!("{what}: counters differ from the first pass"));
        }
    }

    fn finish(mut self, values: Vec<f64>) -> Outcome {
        if let Some(bad) = values.iter().position(|v| !v.is_finite()) {
            self.fail(format!("metric #{bad} is not a finite number"));
        }
        Outcome {
            correct: self.correct,
            attempted: self.attempted.max(1),
            failed: self.failed,
            values: values
                .into_iter()
                .map(|v| if v.is_finite() { v } else { 0.0 })
                .collect(),
            notes: self.notes,
        }
    }
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The end-to-end metrics of `spec` from untraced passes: one warm-up, then
/// timed passes until `budget_s` has been measured (at least `MIN_PASSES`;
/// one pass under `--smoke`). `setup_s` takes medians. Throughput takes the
/// fastest pass: interference on a shared host only ever slows a pass, so
/// the fastest one repeats better between runs than the median (measured in
/// README.md).
pub fn end_to_end(spec: &Spec, messages: usize, seed: u64, budget_s: f64, smoke: bool) -> Outcome {
    let mut generation_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    let mut ledger = Ledger::new(messages);
    let generating = Instant::now();
    while generation_s.len() < MIN_GENERATIONS
        || (generation_s.len() < MAX_GENERATIONS
            && generating.elapsed().as_secs_f64() < GENERATION_BUDGET_S)
    {
        let started = Instant::now();
        let next = drive::prepare(spec, messages, seed);
        generation_s.push(started.elapsed().as_secs_f64());
        if let Some(first) = &prepared {
            if first.stream.fingerprint() != next.stream.fingerprint() {
                ledger.fail("the generator is not deterministic for this seed".into());
            }
        }
        prepared = Some(next);
    }
    let prep = prepared.expect("generated at least once");

    let warm_up = drive::run_pass(&prep, &mut Off);
    ledger.record(&warm_up, "warm-up pass");
    let holds = score::hold_times(&warm_up.released, &arrivals(&prep));
    let ras = score::ras(&warm_up.released, &prep.stream.true_time);
    drop(warm_up);

    let (mut drive_s, mut setup_s) = (Vec::new(), Vec::new());
    let min_passes = if smoke { 1 } else { MIN_PASSES };
    let started = Instant::now();
    while drive_s.len() < min_passes || (!smoke && started.elapsed().as_secs_f64() < budget_s) {
        let pass = drive::run_pass(&prep, &mut Off);
        ledger.record(&pass, &format!("timed pass {}", drive_s.len() + 1));
        drive_s.push(seconds(pass.drive_ns));
        setup_s.push(seconds(pass.setup_ns));
    }

    let fastest_s = drive_s.iter().copied().fold(f64::INFINITY, f64::min);
    let delivered = 1.0 - ledger.failed as f64 / ledger.attempted as f64;
    ledger.notes.push(format!(
        "{} messages, {} events, {} timed passes, fastest pass {:.4} s, median {:.4} s, iqr/median {:.4}, each {:.4?}",
        messages,
        prep.stream.events.len(),
        drive_s.len(),
        fastest_s,
        score::median(&drive_s),
        score::iqr_ratio(&drive_s),
        drive_s
    ));
    ledger.notes.push(format!(
        "hold percentiles from {} samples ({} beyond p99); ras pairs: {} correct, {} incorrect, {} same-batch",
        holds.len(),
        holds.len() - (0.99 * holds.len() as f64).ceil() as usize,
        ras.correct,
        ras.incorrect,
        ras.indifferent
    ));
    ledger.notes.push(format!(
        "failed_ratio {} ({} of {} messages over all passes)",
        1.0 - delivered,
        ledger.failed,
        ledger.attempted
    ));
    // Nothing released leaves no hold time to report: not a number, which
    // `finish` turns into a failed run.
    let hold = |q: f64| {
        if holds.is_empty() {
            f64::NAN
        } else {
            score::percentile(&holds, q)
        }
    };
    let values = vec![
        score::median(&generation_s) + score::median(&setup_s),
        messages as f64 / fastest_s,
        hold(0.5),
        hold(0.99),
        ras.normalized(),
        delivered,
    ];
    ledger.finish(values)
}

/// Nominal arrival time of every message: a fault-free delivery of its
/// first transmission.
fn arrivals(prep: &Prepared) -> Vec<f64> {
    prep.stream.sent_at.iter().map(|t| t + NET_DELAY).collect()
}

/// One traced pass, aggregated.
fn traced(
    prep: &Prepared,
    run: fn(&Prepared, &mut SpanLog) -> PassResult,
) -> (PassResult, Vec<trace::LayerTotals>, Vec<trace::Span>) {
    let mut log = SpanLog::with_capacity(prep.stream.events.len() * 6 + 1024);
    let pass = run(prep, &mut log);
    let totals = trace::aggregate(&log.spans);
    (pass, totals, log.spans)
}

/// The per-layer metrics of `spec`, from rounds of one untraced and one
/// traced pass over the first `TRACE_MESSAGES` messages, until `budget_s`
/// has been measured (at least `MIN_ROUNDS`; one under `--smoke`).
/// `full_path` and `sharded_k2` add an untraced and a traced pass of the
/// same stream through a bare `OnlineSequencer` to each round, for their
/// `*_vs_gauss_steady` metrics. Reported values are per-metric medians over
/// the rounds.
pub fn per_layer(
    spec: &Spec,
    messages: usize,
    seed: u64,
    budget_s: f64,
    smoke: bool,
    trace_out: Option<&Path>,
) -> Outcome {
    let messages = messages.min(TRACE_MESSAGES);
    let prep = drive::prepare(spec, messages, seed);
    let mut ledger = Ledger::new(messages);
    let compares = matches!(spec.engine, Engine::FullPath | Engine::Sharded);

    let warm_up = drive::run_pass(&prep, &mut Off);
    ledger.record(&warm_up, "warm-up pass");
    drop(warm_up);

    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut reference_s, mut reference_submit_ns) = (Vec::new(), Vec::new());
    let mut self_time_gap: f64 = 0.0;
    let mut busy_table = String::new();
    let mut last_spans = Vec::new();
    let min_rounds = if smoke { 1 } else { MIN_ROUNDS };
    let started = Instant::now();
    while rounds.len() < min_rounds || (!smoke && started.elapsed().as_secs_f64() < budget_s) {
        let round = rounds.len() + 1;
        let plain = drive::run_pass(&prep, &mut Off);
        ledger.record(&plain, &format!("untraced pass {round}"));
        untraced_s.push(seconds(plain.drive_ns));
        drop(plain);

        let (pass, totals, spans) = traced(&prep, drive::run_pass::<SpanLog>);
        ledger.record(&pass, &format!("traced pass {round}"));
        traced_s.push(seconds(pass.drive_ns));
        rounds.push(layers::layer_metrics(&prep, &pass, &totals));

        // Self times must account for the whole pass.
        let pass_ns = totals[trace::Layer::Pass as usize].busy_ns as f64;
        let self_sum: u64 = totals.iter().map(|t| t.self_ns).sum();
        self_time_gap = self_time_gap.max((self_sum as f64 - pass_ns).abs() / pass_ns);
        busy_table = trace::Layer::ALL
            .iter()
            .zip(&totals)
            .filter(|(_, t)| t.calls > 0)
            .map(|(layer, t)| format!("{} {:.4}", layer.name(), t.self_ns as f64 / pass_ns))
            .collect::<Vec<_>>()
            .join(", ");
        if trace_out.is_some() {
            last_spans = spans;
        }
        drop(pass);

        if compares {
            // Not recorded in the ledger: a different engine legitimately
            // releases a different order.
            reference_s.push(seconds(drive::reference_pass(&prep, &mut Off).drive_ns));
            let (_, totals, _) = traced(&prep, drive::reference_pass::<SpanLog>);
            let submit = &totals[trace::Layer::OnlineSubmit as usize].durations;
            reference_submit_ns.push(score::percentile(submit, 0.5) as f64);
        }
    }

    if let Some(path) = trace_out {
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut out| {
                trace::write_json_lines(&last_spans, &mut out)?;
                std::io::Write::flush(&mut out)
            });
        if let Err(error) = written {
            ledger.fail(format!("--trace-out {}: {error}", path.display()));
        }
    }

    let mut values: Vec<f64> = (0..PER_LAYER.len())
        .map(|i| score::median(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect();
    let own_submit_ns = values[layers::index_of("core.online.submit_ns_p50")];
    let mut set = |name: &str, value: f64| values[layers::index_of(name)] = value;
    set(
        "driver.trace_overhead_ratio",
        score::median(&traced_s) / score::median(&untraced_s),
    );
    set("driver.pass_iqr_ratio", score::iqr_ratio(&untraced_s));
    match spec.engine {
        Engine::FullPath => set(
            "core.defense.submit_ns_delta_vs_gauss_steady",
            own_submit_ns - score::median(&reference_submit_ns),
        ),
        Engine::Sharded => set(
            "core.sharded.throughput_ratio_vs_gauss_steady",
            score::median(&reference_s) / score::median(&untraced_s),
        ),
        Engine::Online | Engine::Offline => {}
    }

    if self_time_gap > 0.02 {
        ledger.fail(format!(
            "span self times miss the pass time by {self_time_gap:.4}"
        ));
    }
    ledger.notes.push(format!(
        "{} messages, {} rounds; self-time shares of the last traced pass: {busy_table}",
        messages,
        rounds.len()
    ));
    ledger.finish(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn value(outcome: &Outcome, name: &str) -> f64 {
        outcome.values[layers::index_of(name)]
    }

    /// The in-process `--smoke` run: every workload at 1/100 size, one pass
    /// per mode, with the layer-exclusivity the benchmark promises.
    #[test]
    fn smoke_every_workload_in_both_modes() {
        for spec in WORKLOADS {
            let messages = spec.messages / 100;
            let e2e = end_to_end(&spec, messages, 42, 0.0, true);
            assert!(e2e.correct, "{}: {:?}", spec.name, e2e.notes);
            assert_eq!(e2e.failed, 0, "{}", spec.name);
            assert_eq!(e2e.values.len(), END_TO_END.len());
            for ((metric, _), v) in END_TO_END.iter().zip(&e2e.values) {
                assert!(
                    *v != 0.0 && v.is_finite(),
                    "{} {} = {v}",
                    spec.name,
                    metric.name
                );
            }
            assert_eq!(e2e.values[5], 1.0, "{} delivered_ratio", spec.name);

            let layered = per_layer(&spec, messages, 42, 0.0, true, None);
            assert!(layered.correct, "{}: {:?}", spec.name, layered.notes);
            assert_eq!(layered.values.len(), PER_LAYER.len());
            let is = |name: &str| spec.name == name;
            assert_eq!(value(&layered, "wire.frame.frames") > 0.0, is("full_path"));
            assert_eq!(
                value(&layered, "wire.stream.receive_ns_per_frame") > 0.0,
                is("full_path")
            );
            assert_eq!(
                value(&layered, "netsim.fault.frames_dropped") > 0.0,
                is("full_path")
            );
            assert_eq!(
                value(&layered, "core.sharded.shard_merges") > 0.0,
                is("sharded_k2")
            );
            assert_eq!(
                value(&layered, "core.fas.exhaustive_passes") > 0.0,
                is("cyclic_dense")
            );
            assert_eq!(
                value(&layered, "core.offline.batches") > 0.0,
                is("offline_batch")
            );
            assert_eq!(
                value(&layered, "core.precedence.peak_matrix_bytes") > 0.0,
                is("cyclic_dense")
            );
            assert!(value(&layered, "driver.self_share") > 0.0);
            assert!(value(&layered, "driver.trace_overhead_ratio") > 0.0);
        }
    }

    #[test]
    fn passes_of_one_stream_release_the_same_order() {
        let spec = crate::workload::find("full_path").unwrap();
        let prep = drive::prepare(&spec, 1_500, 7);
        let a = drive::run_pass(&prep, &mut Off);
        let b = drive::run_pass(&prep, &mut SpanLog::with_capacity(64));
        assert_eq!(
            score::output_hash(&a.released),
            score::output_hash(&b.released)
        );
        assert_eq!(a.counters, b.counters);
        let mut ids: Vec<u64> = a
            .released
            .iter()
            .flat_map(|b| b.ids.iter().copied())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..1_500).collect::<Vec<u64>>());
        assert!(a.counters.session.gaps_detected > 0, "loss must open gaps");
        assert_eq!(
            a.counters.session.sequences_skipped, 0,
            "every loss is recovered"
        );
    }

    #[test]
    fn ledger_flags_a_pass_that_differs_from_the_first() {
        let spec = crate::workload::find("gauss_steady").unwrap();
        let prep = drive::prepare(&spec, 400, 3);
        let good = drive::run_pass(&prep, &mut Off);
        let mut ledger = Ledger::new(400);
        ledger.record(&good, "first");
        assert!(ledger.correct);
        let mut tampered = drive::run_pass(&prep, &mut Off);
        let lost = tampered.released.pop().expect("something was released");
        ledger.record(&tampered, "second");
        assert!(!ledger.correct);
        assert_eq!(ledger.failed, lost.ids.len() as u64);
        assert_eq!(ledger.attempted, 800);
    }
}
