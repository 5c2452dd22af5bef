//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the workspace crates'
//! public functions; each records its name, start, end, parent span and
//! request id. Nothing is written until [`Tracer::write_jsonl`] at the end
//! of the run, so recording costs two clock reads and a `Vec` push.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64()
    }
}

/// Span recorder. A disabled tracer records nothing, so the untraced run
/// and warm-up phases drive the same code without spans.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggling with open spans");
        self.enabled = enabled;
    }

    /// Index the next span will get; spans from a mark onwards belong to
    /// the region that started at the mark.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans named `name` recorded since `mark`.
    pub fn total(&self, name: &str, mark: usize) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations in seconds of the spans named `name` since `mark`.
    pub fn durations(&self, name: &str, mark: usize) -> Vec<f64> {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time of span `idx`: its duration minus the time its direct
    /// children cover. Children of one span run one after another on the
    /// recording thread, so their durations add up without overlap.
    pub fn self_secs(&self, idx: usize) -> f64 {
        let children: f64 = self.spans[idx + 1..]
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::secs)
            .sum();
        self.spans[idx].secs() - children
    }

    /// Self seconds of the spans in `range` per crate, the part of a span
    /// name before its first dot. Spans named in `skip` are left out, but
    /// still count as children of their parents. The values add up to the
    /// time the top-level spans of `range` cover, less the skipped ones.
    pub fn self_by_crate(
        &self,
        range: std::ops::Range<usize>,
        skip: &[&str],
    ) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for idx in range.filter(|&i| !skip.contains(&self.spans[i].name)) {
            let name = self.spans[idx].name;
            let krate = name.split_once('.').map_or(name, |(c, _)| c);
            *out.entry(krate).or_insert(0.0) += self.self_secs(idx);
        }
        out
    }

    /// Estimated share of `wall_secs` spent recording the spans since
    /// `mark`, in percent: their count times the measured cost of one
    /// enter/exit pair. Timing the same work with the tracer off and on
    /// gives the same answer buried in run-to-run noise; this estimate is
    /// the part of that difference the tracer itself causes.
    pub fn overhead_pct(&self, mark: usize, wall_secs: f64) -> f64 {
        let spans = (self.spans.len() - mark) as f64;
        100.0 * spans * span_cost_secs() / wall_secs
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.req
            )?;
        }
        out.flush()
    }
}

/// Median cost of one enter/exit pair on a fresh tracer.
fn span_cost_secs() -> f64 {
    const PAIRS: usize = 20_000;
    let mut costs: Vec<f64> = (0..5)
        .map(|_| {
            let mut tr = Tracer::new(true);
            tr.spans.reserve(PAIRS);
            let t = Instant::now();
            for i in 0..PAIRS {
                tr.enter("cost", i as u64);
                tr.exit();
            }
            std::hint::black_box(&tr.spans);
            t.elapsed().as_secs_f64() / PAIRS as f64
        })
        .collect();
    costs.sort_by(f64::total_cmp);
    costs[costs.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.enter("parent", 0);
        tr.span("child", 0, || std::thread::sleep(Duration::from_millis(5)));
        tr.span("child", 0, || std::thread::sleep(Duration::from_millis(5)));
        tr.exit();
        let parent = 0;
        assert_eq!(tr.spans()[parent].name, "parent");
        let own = tr.self_secs(parent);
        assert!(own >= 0.0);
        assert!(own < tr.spans()[parent].secs() - 0.009);
        assert_eq!(tr.durations("child", 0).len(), 2);
        assert_eq!(tr.spans()[2].parent, Some(parent));
        let by_crate = tr.self_by_crate(0..3, &[]);
        let parent_secs = tr.spans()[parent].secs();
        assert!((by_crate.values().sum::<f64>() - parent_secs).abs() < 1e-9);
        assert_eq!(
            by_crate.keys().copied().collect::<Vec<_>>(),
            ["child", "parent"]
        );
    }

    #[test]
    fn self_by_crate_groups_on_the_first_dot() {
        let mut tr = Tracer::new(true);
        tr.enter("nn.fwd", 0);
        tr.span("graph.norm", 0, || ());
        tr.exit();
        tr.span("nn.bwd.x", 0, || ());
        let by_crate = tr.self_by_crate(0..3, &["graph.norm"]);
        assert_eq!(by_crate.keys().copied().collect::<Vec<_>>(), ["nn"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("x", 1, || 7);
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }
}
