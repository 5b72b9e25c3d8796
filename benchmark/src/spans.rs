//! The benchmark's own in-memory span recorder. Spans are taken from the
//! benchmark's files, around the calls into each layer's public
//! functions; nothing inside the program is instrumented.
//!
//! [`Recorder::begin`]/[`Recorder::end`] always time the interval (the
//! elapsed time feeds the per-layer samples), but a span is only *stored*
//! on a traced run, so an untraced run pays two clock reads per interval
//! and no allocation.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Stored spans are capped so a long traced run cannot grow without
/// bound; spans past the cap are counted in `dropped_spans`.
const MAX_SPANS: usize = 200_000;

/// One stored interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// Shared by every span of one repetition or request.
    pub trace_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open interval; hand it back to [`Recorder::end`].
#[derive(Debug)]
#[must_use = "an open span must be ended"]
pub struct Open {
    start: Instant,
    index: Option<u32>,
}

/// Span store plus per-layer samples for one workload run.
#[derive(Debug)]
pub struct Recorder {
    store: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    trace_id: u64,
    dropped: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
    sums: BTreeMap<&'static str, f64>,
}

impl Recorder {
    /// A recorder that stores spans iff `store` (the traced run).
    pub fn new(store: bool) -> Recorder {
        Recorder {
            store,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace_id: 0,
            dropped: 0,
            samples: BTreeMap::new(),
            sums: BTreeMap::new(),
        }
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.store
    }

    /// Starts a new trace: spans begun from now on share a fresh id.
    pub fn next_trace(&mut self) {
        self.trace_id += 1;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let mut index = None;
        if self.store {
            if self.spans.len() < MAX_SPANS {
                let i = self.spans.len() as u32;
                self.spans.push(Span {
                    parent: self.open.last().copied(),
                    trace_id: self.trace_id,
                    name,
                    start_ns: 0,
                    end_ns: 0,
                });
                self.open.push(i);
                index = Some(i);
            } else {
                self.dropped += 1;
            }
        }
        // Read the clock last so bookkeeping is outside the interval.
        Open {
            start: Instant::now(),
            index,
        }
    }

    /// Closes `open` and returns how long it lasted.
    pub fn end(&mut self, open: Open) -> Duration {
        let elapsed = open.start.elapsed();
        if let Some(i) = open.index {
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            let span = &mut self.spans[i as usize];
            span.start_ns = start_ns;
            span.end_ns = start_ns + elapsed.as_nanos() as u64;
            // Spans close innermost-first; tolerate a skipped `end`.
            while let Some(top) = self.open.pop() {
                if top == i {
                    break;
                }
            }
        }
        elapsed
    }

    /// Closes `open` and records its duration, in milliseconds, as a
    /// sample of the per-layer metric `metric`.
    pub fn end_ms(&mut self, open: Open, metric: &'static str) -> Duration {
        let elapsed = self.end(open);
        self.sample(metric, elapsed.as_secs_f64() * 1e3);
        elapsed
    }

    /// Adds one sample of a per-layer metric.
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    /// Adds `value` to the running total of the counter `metric`.
    pub fn add(&mut self, metric: &'static str, value: f64) {
        *self.sums.entry(metric).or_default() += value;
    }

    /// The running total of the counter `metric` (0 if never added to).
    pub fn sum(&self, metric: &str) -> f64 {
        self.sums.get(metric).copied().unwrap_or(0.0)
    }

    /// The samples recorded for `metric`, in recording order.
    pub fn samples(&self, metric: &str) -> &[f64] {
        self.samples.get(metric).map_or(&[], Vec::as_slice)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped_spans(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children never overlap (one thread, properly
/// nested), so that part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            let covered = span.end_ns - span.start_ns;
            own[p as usize] = own[p as usize].saturating_sub(covered);
        }
    }
    own
}

/// Per span name: `(count, total duration ns, total self time ns)`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own_ns) in spans.iter().zip(own) {
        let row = by_name.entry(span.name).or_default();
        row.0 += 1;
        row.1 += span.end_ns - span.start_ns;
        row.2 += own_ns;
    }
    by_name
}

/// The trace file of one workload: every stored span with its parent
/// link, the per-name totals with self times, and `counters`.
pub fn trace_json(workload: &str, rec: &Recorder, counters: Json) -> Json {
    let spans = rec.spans();
    let own = self_times_ns(spans);
    let rows = spans
        .iter()
        .zip(&own)
        .enumerate()
        .map(|(i, (s, own_ns))| {
            Json::obj([
                ("id", Json::Num(i as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("trace", Json::Num(s.trace_id as f64)),
                ("name", Json::Str(s.name.to_owned())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(*own_ns as f64)),
            ])
        })
        .collect();
    let by_name = totals_by_name(spans)
        .into_iter()
        .map(|(name, (count, total, own))| {
            (
                name,
                Json::obj([
                    ("count", Json::Num(count as f64)),
                    ("total_ms", Json::Num(total as f64 / 1e6)),
                    ("self_ms", Json::Num(own as f64 / 1e6)),
                ]),
            )
        });
    Json::obj([
        ("workload", Json::Str(workload.to_owned())),
        ("dropped_spans", Json::Num(rec.dropped_spans() as f64)),
        ("by_name", Json::obj(by_name)),
        ("counters", counters),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            trace_id: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(None, "rep", 0, 100),
            span(Some(0), "run", 10, 60),
            span(Some(1), "gc", 20, 35),
            span(Some(0), "check", 70, 90),
        ];
        // rep: 100 - (50 + 20); run: 50 - 15; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![30, 35, 15, 20]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["rep"], (1, 100, 30));
        assert_eq!(totals["gc"], (1, 15, 15));
    }

    #[test]
    fn recorder_links_parents_and_trace_ids() {
        let mut rec = Recorder::new(true);
        rec.next_trace();
        let outer = rec.begin("outer");
        let inner = rec.begin("inner");
        rec.end_ms(inner, "inner_ms");
        rec.end(outer);
        rec.next_trace();
        let second = rec.begin("outer");
        rec.end(second);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!((spans[0].trace_id, spans[2].trace_id), (1, 2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(rec.samples("inner_ms").len(), 1);
        assert!(rec.samples("absent").is_empty());
        let file = trace_json("w", &rec, Json::Null).to_string();
        let parsed = Json::parse(&file).unwrap();
        assert_eq!(
            parsed
                .get("spans")
                .map(|s| matches!(s, Json::Arr(a) if a.len() == 3)),
            Some(true)
        );
    }

    #[test]
    fn untraced_recorder_times_but_stores_nothing() {
        let mut rec = Recorder::new(false);
        let open = rec.begin("x");
        let elapsed = rec.end_ms(open, "x_ms");
        assert!(rec.spans().is_empty());
        assert_eq!(rec.samples("x_ms"), &[elapsed.as_secs_f64() * 1e3]);
        rec.add("n", 2.0);
        rec.add("n", 3.0);
        assert_eq!((rec.sum("n"), rec.sum("absent")), (5.0, 0.0));
    }
}
