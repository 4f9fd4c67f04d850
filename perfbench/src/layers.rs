//! The per-layer metric table and its assembly from one traced pass.
//!
//! Every metric is reported on every workload; a layer the workload bypasses
//! reads 0. That is deliberate: each optimisable layer has a workload that
//! exercises it and one that shows it idle.

use crate::drive::{PassResult, Prepared};
use crate::score::percentile;
use crate::trace::{Layer, LayerTotals};
use crate::workload::Engine;

/// A metric's name, unit and which direction is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Every per-layer metric, in report order.
pub const PER_LAYER: [Metric; 68] = [
    metric("driver.self_share", "ratio", "lower"),
    metric("driver.trace_overhead_ratio", "ratio", "lower"),
    metric("driver.pass_iqr_ratio", "ratio", "lower"),
    metric("driver.events", "count", "lower"),
    metric("driver.heartbeats_per_msg", "ratio", "lower"),
    metric("core.online.submit_ns_p50", "ns", "lower"),
    metric("core.online.submit_ns_p99", "ns", "lower"),
    metric("core.online.submit_busy_share", "ratio", "lower"),
    metric("core.online.submit_emit_ns_p50", "ns", "lower"),
    metric("core.online.heartbeat_emit_ns_p50", "ns", "lower"),
    metric("core.online.emit_busy_share", "ratio", "lower"),
    metric("core.online.heartbeat_ns_p50", "ns", "lower"),
    metric("core.online.heartbeat_ns_p99", "ns", "lower"),
    metric("core.online.heartbeat_busy_share", "ratio", "lower"),
    metric("core.online.take_emitted_busy_share", "ratio", "lower"),
    metric("core.online.batches_emitted", "count", "higher"),
    metric("core.online.mean_batch_size", "msgs", "lower"),
    metric("core.online.max_pending", "msgs", "lower"),
    metric("core.online.fairness_violations", "count", "lower"),
    metric("core.online.watermark_stall_ticks", "count", "lower"),
    metric("core.online.evictions", "count", "lower"),
    metric("core.online.rejoins", "count", "lower"),
    metric("core.sparse.lazy_evals_per_msg", "ratio", "lower"),
    metric("core.sparse.dense_columns_avoided", "count", "higher"),
    metric("core.sparse.mode_switches", "count", "lower"),
    metric("core.sparse.peak_index_bytes", "bytes", "lower"),
    metric(
        "core.registry.probability_queries_per_msg",
        "ratio",
        "lower",
    ),
    metric("core.precedence.peak_matrix_bytes", "bytes", "lower"),
    metric("core.batching.boundary_evals_per_msg", "ratio", "lower"),
    metric("core.batching.batch_splits", "count", "lower"),
    metric("core.batching.batch_merges", "count", "lower"),
    metric("core.tournament.full_rebuilds", "count", "lower"),
    metric("core.tournament.local_repairs", "count", "lower"),
    metric("core.fas.exhaustive_passes", "count", "lower"),
    metric("core.defense.quarantines", "count", "lower"),
    metric("core.defense.reestimations", "count", "lower"),
    metric("core.defense.margin_fallbacks", "count", "lower"),
    metric("core.defense.collusion_checks", "count", "lower"),
    metric(
        "core.defense.submit_ns_delta_vs_gauss_steady",
        "ns",
        "lower",
    ),
    metric("wire.frame.encode_ns_per_frame", "ns", "lower"),
    metric("wire.frame.decode_ns_per_frame", "ns", "lower"),
    metric("wire.frame.decode_busy_share", "ratio", "lower"),
    metric("wire.frame.bytes_per_frame", "bytes", "lower"),
    metric("wire.frame.frames", "count", "lower"),
    metric("wire.stream.wrap_ns_per_frame", "ns", "lower"),
    metric("wire.stream.receive_ns_per_frame", "ns", "lower"),
    metric("wire.stream.receive_busy_share", "ratio", "lower"),
    metric("wire.stream.poll_ns_per_call", "ns", "lower"),
    metric("wire.stream.useful_frame_ratio", "ratio", "higher"),
    metric("core.session.gaps_detected", "count", "lower"),
    metric("core.session.dupes_dropped", "count", "lower"),
    metric("core.session.reorders_buffered", "count", "lower"),
    metric("core.session.retransmit_requests", "count", "lower"),
    metric("core.session.sequences_skipped", "count", "lower"),
    metric("netsim.fault.frames_dropped", "count", "lower"),
    metric("netsim.fault.frames_duplicated", "count", "lower"),
    metric("netsim.fault.frames_delayed", "count", "lower"),
    metric("netsim.fault.retransmits_answered", "count", "lower"),
    metric("core.sharded.submit_ns_p50", "ns", "lower"),
    metric("core.sharded.drive_ns_per_call", "ns", "lower"),
    metric("core.sharded.drive_busy_share", "ratio", "lower"),
    metric("core.sharded.cross_shard_evals_per_msg", "ratio", "lower"),
    metric("core.sharded.shard_merges", "count", "lower"),
    metric("core.sharded.shard_imbalance", "msgs", "lower"),
    metric("core.sharded.threads_detected", "count", "higher"),
    metric(
        "core.sharded.throughput_ratio_vs_gauss_steady",
        "ratio",
        "higher",
    ),
    metric("core.offline.sequence_s_p50", "s", "lower"),
    metric("core.offline.batches", "count", "higher"),
];

/// Index of a per-layer metric by name.
pub fn index_of(name: &str) -> usize {
    PER_LAYER
        .iter()
        .position(|metric| metric.name == name)
        .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn p(durations: &[u64], q: f64) -> f64 {
    if durations.is_empty() {
        0.0
    } else {
        percentile(durations, q) as f64
    }
}

/// The per-layer metrics of one traced pass, in [`PER_LAYER`] order. The
/// metrics that compare runs (`driver.trace_overhead_ratio`,
/// `driver.pass_iqr_ratio` and the two `*_vs_gauss_steady`) are left 0 for
/// the caller to fill in.
pub fn layer_metrics(prep: &Prepared, pass: &PassResult, totals: &[LayerTotals]) -> Vec<f64> {
    let t = |layer: Layer| &totals[layer as usize];
    let pass_ns = t(Layer::Pass).busy_ns as f64;
    let share = |layer: Layer| ratio(t(layer).busy_ns as f64, pass_ns);
    let per_call = |layer: Layer| ratio(t(layer).busy_ns as f64, t(layer).calls as f64);
    let c = &pass.counters;
    let s = &c.stats;
    let messages = prep.stream.messages() as f64;
    let (submit, heartbeat) = (t(Layer::OnlineSubmit), t(Layer::OnlineHeartbeat));
    let wire = prep.wire.as_ref();
    let wire_count =
        |pick: fn(&crate::drive::WirePrep) -> u64| wire.map_or(0.0, |w| pick(w) as f64);
    let frames_sent = wire_count(|w| w.frames_sent);
    let sharded = prep.spec.engine == Engine::Sharded;

    let mut values = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &str, value: f64| {
        assert_eq!(
            PER_LAYER[values.len()].name,
            name,
            "metric out of table order"
        );
        values.push(value);
    };
    put(
        "driver.self_share",
        ratio(t(Layer::Pass).self_ns as f64, pass_ns),
    );
    put("driver.trace_overhead_ratio", 0.0);
    put("driver.pass_iqr_ratio", 0.0);
    put("driver.events", prep.stream.events.len() as f64);
    put(
        "driver.heartbeats_per_msg",
        ratio(prep.stream.heartbeats() as f64, messages),
    );
    put("core.online.submit_ns_p50", p(&submit.durations, 0.5));
    put("core.online.submit_ns_p99", p(&submit.durations, 0.99));
    put("core.online.submit_busy_share", share(Layer::OnlineSubmit));
    put(
        "core.online.submit_emit_ns_p50",
        p(&submit.emitting_durations, 0.5),
    );
    put(
        "core.online.heartbeat_emit_ns_p50",
        p(&heartbeat.emitting_durations, 0.5),
    );
    put(
        "core.online.emit_busy_share",
        ratio((submit.emitting_ns + heartbeat.emitting_ns) as f64, pass_ns),
    );
    put("core.online.heartbeat_ns_p50", p(&heartbeat.durations, 0.5));
    put(
        "core.online.heartbeat_ns_p99",
        p(&heartbeat.durations, 0.99),
    );
    put(
        "core.online.heartbeat_busy_share",
        share(Layer::OnlineHeartbeat),
    );
    put(
        "core.online.take_emitted_busy_share",
        share(Layer::OnlineTakeEmitted),
    );
    put("core.online.batches_emitted", s.batches_emitted as f64);
    put(
        "core.online.mean_batch_size",
        ratio(s.messages_emitted as f64, s.batches_emitted as f64),
    );
    put("core.online.max_pending", s.max_pending as f64);
    put(
        "core.online.fairness_violations",
        s.fairness_violations as f64,
    );
    put(
        "core.online.watermark_stall_ticks",
        s.watermark_stall_ticks as f64,
    );
    put("core.online.evictions", s.evictions as f64);
    put("core.online.rejoins", s.rejoins as f64);
    put(
        "core.sparse.lazy_evals_per_msg",
        ratio(s.lazy_evals as f64, messages),
    );
    put(
        "core.sparse.dense_columns_avoided",
        s.dense_columns_avoided as f64,
    );
    put("core.sparse.mode_switches", s.mode_switches as f64);
    put("core.sparse.peak_index_bytes", s.peak_index_bytes as f64);
    put(
        "core.registry.probability_queries_per_msg",
        ratio(c.probability_queries as f64, messages),
    );
    put(
        "core.precedence.peak_matrix_bytes",
        s.peak_matrix_bytes as f64,
    );
    put(
        "core.batching.boundary_evals_per_msg",
        ratio(c.fair.boundary_evals as f64, messages),
    );
    put("core.batching.batch_splits", c.fair.batch_splits as f64);
    put("core.batching.batch_merges", c.fair.batch_merges as f64);
    put(
        "core.tournament.full_rebuilds",
        c.tournament_full_rebuilds as f64,
    );
    put(
        "core.tournament.local_repairs",
        c.tournament_local_repairs as f64,
    );
    put("core.fas.exhaustive_passes", c.fas_exhaustive_passes as f64);
    put("core.defense.quarantines", s.quarantines as f64);
    put("core.defense.reestimations", s.reestimations as f64);
    put("core.defense.margin_fallbacks", s.margin_fallbacks as f64);
    put("core.defense.collusion_checks", s.collusion_checks as f64);
    put("core.defense.submit_ns_delta_vs_gauss_steady", 0.0);
    put(
        "wire.frame.encode_ns_per_frame",
        ratio(wire_count(|w| w.encode_ns), frames_sent),
    );
    put(
        "wire.frame.decode_ns_per_frame",
        per_call(Layer::FrameDecode),
    );
    put("wire.frame.decode_busy_share", share(Layer::FrameDecode));
    put(
        "wire.frame.bytes_per_frame",
        ratio(wire_count(|w| w.bytes_sent), frames_sent),
    );
    put("wire.frame.frames", c.frames_received as f64);
    put(
        "wire.stream.wrap_ns_per_frame",
        ratio(wire_count(|w| w.wrap_ns), frames_sent),
    );
    put(
        "wire.stream.receive_ns_per_frame",
        per_call(Layer::StreamReceive),
    );
    put(
        "wire.stream.receive_busy_share",
        share(Layer::StreamReceive),
    );
    put("wire.stream.poll_ns_per_call", per_call(Layer::StreamPoll));
    put(
        "wire.stream.useful_frame_ratio",
        ratio(c.frames_released as f64, c.frames_received as f64),
    );
    put("core.session.gaps_detected", c.session.gaps_detected as f64);
    put("core.session.dupes_dropped", c.session.dupes_dropped as f64);
    put(
        "core.session.reorders_buffered",
        c.session.reorders_buffered as f64,
    );
    put(
        "core.session.retransmit_requests",
        c.session.retransmit_requests as f64,
    );
    put(
        "core.session.sequences_skipped",
        c.session.sequences_skipped as f64,
    );
    put(
        "netsim.fault.frames_dropped",
        wire_count(|w| w.frames_dropped),
    );
    put(
        "netsim.fault.frames_duplicated",
        wire_count(|w| w.frames_duplicated),
    );
    put(
        "netsim.fault.frames_delayed",
        wire_count(|w| w.frames_delayed),
    );
    put(
        "netsim.fault.retransmits_answered",
        c.retransmits_answered as f64,
    );
    put(
        "core.sharded.submit_ns_p50",
        p(&t(Layer::ShardedSubmit).durations, 0.5),
    );
    put(
        "core.sharded.drive_ns_per_call",
        per_call(Layer::ShardedDrive),
    );
    put("core.sharded.drive_busy_share", share(Layer::ShardedDrive));
    put(
        "core.sharded.cross_shard_evals_per_msg",
        ratio(s.cross_shard_evals as f64, messages),
    );
    put("core.sharded.shard_merges", s.shard_merges as f64);
    put("core.sharded.shard_imbalance", s.shard_imbalance as f64);
    put(
        "core.sharded.threads_detected",
        if sharded {
            std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
        } else {
            0.0
        },
    );
    put("core.sharded.throughput_ratio_vs_gauss_steady", 0.0);
    put(
        "core.offline.sequence_s_p50",
        p(&t(Layer::OfflineSequence).durations, 0.5) / 1e9,
    );
    put("core.offline.batches", c.offline_batches as f64);
    assert_eq!(values.len(), PER_LAYER.len());
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<_> = PER_LAYER.iter().map(|metric| metric.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for metric in &PER_LAYER {
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16);
            assert!(metric.better == "lower" || metric.better == "higher");
        }
        assert_eq!(index_of("core.offline.batches"), PER_LAYER.len() - 1);
    }
}
