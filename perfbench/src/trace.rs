//! Outside-in tracing: the harness wraps a span around each call it makes
//! *into* a layer's public function. Spans live in a preallocated `Vec` and
//! are aggregated after the pass; the untraced passes use [`Off`], whose
//! methods compile to nothing.

use std::time::Instant;

/// The layer boundaries the harness calls across. `Pass` is the root span:
/// the whole timed region, whose self time is the harness's own cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    Pass,
    OnlineSubmit,
    OnlineHeartbeat,
    OnlineTick,
    OnlineFlush,
    OnlineTakeEmitted,
    FrameDecode,
    FrameEncode,
    StreamReceive,
    StreamPoll,
    ShardedSubmit,
    ShardedHeartbeat,
    ShardedDrive,
    ShardedFlush,
    ShardedTakeEmitted,
    OfflineSequence,
}

impl Layer {
    pub const ALL: [Layer; 16] = [
        Layer::Pass,
        Layer::OnlineSubmit,
        Layer::OnlineHeartbeat,
        Layer::OnlineTick,
        Layer::OnlineFlush,
        Layer::OnlineTakeEmitted,
        Layer::FrameDecode,
        Layer::FrameEncode,
        Layer::StreamReceive,
        Layer::StreamPoll,
        Layer::ShardedSubmit,
        Layer::ShardedHeartbeat,
        Layer::ShardedDrive,
        Layer::ShardedFlush,
        Layer::ShardedTakeEmitted,
        Layer::OfflineSequence,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Pass => "driver",
            Layer::OnlineSubmit => "core.online.submit",
            Layer::OnlineHeartbeat => "core.online.heartbeat",
            Layer::OnlineTick => "core.online.tick",
            Layer::OnlineFlush => "core.online.flush",
            Layer::OnlineTakeEmitted => "core.online.take_emitted",
            Layer::FrameDecode => "wire.frame.decode",
            Layer::FrameEncode => "wire.frame.encode",
            Layer::StreamReceive => "wire.stream.receive",
            Layer::StreamPoll => "wire.stream.poll",
            Layer::ShardedSubmit => "core.sharded.submit",
            Layer::ShardedHeartbeat => "core.sharded.heartbeat",
            Layer::ShardedDrive => "core.sharded.drive",
            Layer::ShardedFlush => "core.sharded.flush",
            Layer::ShardedTakeEmitted => "core.sharded.take_emitted",
            Layer::OfflineSequence => "core.offline.sequence",
        }
    }
}

/// "No span is open" / "no request": the root span's parent and request.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    /// Whether the call returned at least one emitted batch.
    pub emitted: bool,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Index of the stream event that caused the call, or [`NONE`].
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What a driver reports its layer calls to.
pub trait Tracer {
    /// Open a span; the token goes back to [`end`](Tracer::end).
    fn begin(&mut self, layer: Layer, request: u32) -> u32;
    fn end(&mut self, token: u32, emitted: bool);
}

/// Tracing off: nothing is recorded and no clock is read.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn begin(&mut self, _layer: Layer, _request: u32) -> u32 {
        0
    }

    #[inline(always)]
    fn end(&mut self, _token: u32, _emitted: bool) {}
}

/// Tracing on: every span of one pass, in begin order.
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    pub fn with_capacity(spans: usize) -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Tracer for SpanLog {
    #[inline]
    fn begin(&mut self, layer: Layer, request: u32) -> u32 {
        let token = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(token);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            emitted: false,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        token
    }

    #[inline]
    fn end(&mut self, token: u32, emitted: bool) {
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(token), "spans must nest");
        let span = &mut self.spans[token as usize];
        span.end_ns = end_ns;
        span.emitted = emitted;
    }
}

/// Per-layer totals of one traced pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Sum of span durations minus the time their child spans cover.
    pub self_ns: u64,
    /// Calls that returned at least one batch, and their summed duration.
    pub emitting_calls: u64,
    pub emitting_ns: u64,
    /// Every span duration, ascending (for percentiles).
    pub durations: Vec<u64>,
    /// Durations of the emitting calls only, ascending.
    pub emitting_durations: Vec<u64>,
}

/// Aggregate a pass's spans per layer, indexed by `Layer as usize`.
pub fn aggregate(spans: &[Span]) -> Vec<LayerTotals> {
    let mut covered_by_children = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NONE {
            covered_by_children[span.parent as usize] += span.duration_ns();
        }
    }
    let mut totals = vec![LayerTotals::default(); Layer::ALL.len()];
    for (span, &covered) in spans.iter().zip(&covered_by_children) {
        let t = &mut totals[span.layer as usize];
        let duration = span.duration_ns();
        t.calls += 1;
        t.busy_ns += duration;
        t.self_ns += duration.saturating_sub(covered);
        t.durations.push(duration);
        if span.emitted {
            t.emitting_calls += 1;
            t.emitting_ns += duration;
            t.emitting_durations.push(duration);
        }
    }
    for t in &mut totals {
        t.durations.sort_unstable();
        t.emitting_durations.sort_unstable();
    }
    totals
}

/// Write spans as JSON lines (`--trace-out`).
pub fn write_json_lines(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    let id = |x: u32| if x == NONE { -1 } else { i64::from(x) };
    for (index, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"span\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"emitted\":{}}}",
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            id(s.parent),
            id(s.request),
            s.emitted
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start_ns: u64, end_ns: u64, emitted: bool) -> Span {
        Span {
            layer,
            emitted,
            parent,
            request: NONE,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_root() {
        // pass [0,100] > submit [10,40] > take_emitted [20,25]; heartbeat [50,70].
        let spans = [
            span(Layer::Pass, NONE, 0, 100, false),
            span(Layer::OnlineSubmit, 0, 10, 40, true),
            span(Layer::OnlineTakeEmitted, 1, 20, 25, false),
            span(Layer::OnlineHeartbeat, 0, 50, 70, false),
        ];
        let totals = aggregate(&spans);
        assert_eq!(totals[Layer::Pass as usize].self_ns, 50);
        assert_eq!(totals[Layer::OnlineSubmit as usize].busy_ns, 30);
        assert_eq!(totals[Layer::OnlineSubmit as usize].self_ns, 25);
        assert_eq!(totals[Layer::OnlineSubmit as usize].emitting_ns, 30);
        assert_eq!(totals[Layer::OnlineSubmit as usize].emitting_calls, 1);
        assert_eq!(totals[Layer::OnlineTakeEmitted as usize].self_ns, 5);
        assert_eq!(totals[Layer::OnlineHeartbeat as usize].self_ns, 20);
        assert_eq!(totals[Layer::OnlineHeartbeat as usize].emitting_calls, 0);
        let all_self: u64 = totals.iter().map(|t| t.self_ns).sum();
        assert_eq!(all_self, spans[0].duration_ns());
    }

    #[test]
    fn span_log_nests_and_records_parents_and_requests() {
        let mut log = SpanLog::with_capacity(4);
        let root = log.begin(Layer::Pass, NONE);
        let a = log.begin(Layer::OnlineSubmit, 7);
        log.end(a, true);
        let b = log.begin(Layer::OnlineHeartbeat, 8);
        log.end(b, false);
        log.end(root, false);
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[0].parent, NONE);
        assert_eq!((log.spans[1].parent, log.spans[1].request), (0, 7));
        assert_eq!((log.spans[2].parent, log.spans[2].request), (0, 8));
        assert!(log.spans[1].emitted && !log.spans[2].emitted);
        for s in &log.spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(log.spans[0].end_ns >= log.spans[2].end_ns);

        let mut text = Vec::new();
        write_json_lines(&log.spans, &mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().contains("\"parent\":-1"));
    }

    #[test]
    fn layer_table_matches_discriminants() {
        for (i, layer) in Layer::ALL.iter().enumerate() {
            assert_eq!(*layer as usize, i);
        }
    }
}
