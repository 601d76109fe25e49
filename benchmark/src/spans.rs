//! In-memory span recording for the traced run.
//!
//! Every span is recorded by the harness *around* a call into a crate's
//! public API (name, start, end, parent, the rep it belongs to); nothing
//! inside the crates is instrumented. Spans stay in memory until the run
//! ends and are then written to `benchmark/out/trace-<workload>.json`.

use crate::util::json_num;
use std::time::Instant;
use tea_audit::report::json_str;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the parent span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    pub end: f64,
    /// Which rep of the workload this span belongs to (the identifier
    /// all spans of one operation share).
    pub rep: usize,
    /// Rank (deck workloads) or worker (serve) that executed the span.
    pub lane: usize,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One thread's span log. Ranks and serve workers each own one and the
/// harness concatenates them afterwards, so recording takes no lock.
pub struct Recorder {
    epoch: Instant,
    rep: usize,
    lane: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, rep: usize, lane: usize) -> Self {
        Recorder {
            epoch,
            rep,
            lane,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            rep: self.rep,
            lane: self.lane,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: start.duration_since(self.epoch).as_secs_f64(),
            end: end.duration_since(self.epoch).as_secs_f64(),
            rep: self.rep,
            lane: self.lane,
        });
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed spans at the end of a rep");
        self.spans
    }
}

/// A finished rep's spans from every lane, with parents re-indexed into
/// the concatenated list.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Appends one lane's spans, hanging its top-level spans under
    /// `parent` (an index into this log). Returns the index the lane's
    /// first span received.
    pub fn absorb(&mut self, lane_spans: Vec<Span>, parent: Option<usize>) -> usize {
        let base = self.spans.len();
        self.spans.extend(lane_spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
        base
    }

    /// Self time of span `i`: its duration minus the part its children
    /// on the same lane cover. A lane is one thread, so those never
    /// overlap; children on other lanes (ranks, serve workers) run
    /// beside the parent's own thread and are not subtracted.
    pub fn self_time(&self, i: usize) -> f64 {
        let lane = self.spans[i].lane;
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i) && s.lane == lane)
            .map(Span::duration)
            .sum();
        self.spans[i].duration() - children
    }

    /// Σ duration of spans named `name` in `rep` on `lane`.
    pub fn total(&self, name: &str, rep: usize, lane: usize) -> f64 {
        self.select(name, rep, lane)
            .map(|(_, s)| s.duration())
            .sum()
    }

    /// Σ self time of spans named `name` in `rep` on `lane`.
    pub fn total_self(&self, name: &str, rep: usize, lane: usize) -> f64 {
        self.select(name, rep, lane)
            .map(|(i, _)| self.self_time(i))
            .sum()
    }

    fn select<'a>(
        &'a self,
        name: &'a str,
        rep: usize,
        lane: usize,
    ) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name && s.rep == rep && s.lane == lane)
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":{},\"spans\":[\n", json_str(workload));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":{},\"parent\":{},\"rep\":{},\"lane\":{},\
                 \"start_s\":{},\"end_s\":{},\"self_s\":{}}}",
                json_str(s.name),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.rep,
                s.lane,
                json_num(s.start),
                json_num(s.end),
                json_num(self.self_time(i)),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::default();
        let span = |name, parent, start, end| Span {
            name,
            parent,
            start,
            end,
            rep: 0,
            lane: 0,
        };
        log.absorb(
            vec![
                span("outer", None, 0.0, 10.0),
                span("a", Some(0), 1.0, 4.0),
                span("a", Some(0), 5.0, 7.0),
            ],
            None,
        );
        assert_eq!(log.self_time(0), 5.0);
        assert_eq!(log.total("a", 0, 0), 5.0);
        // a second batch is re-indexed past the first and hung under it
        let base = log.absorb(
            vec![span("rank", None, 0.0, 2.0), span("a", Some(0), 0.0, 1.0)],
            Some(0),
        );
        assert_eq!(base, 3);
        assert_eq!(log.spans[3].parent, Some(0));
        assert_eq!(log.spans[4].parent, Some(3));
        assert_eq!(log.self_time(3), 1.0);
        assert_eq!(log.self_time(0), 3.0);
    }
}
