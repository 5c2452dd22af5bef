//! The benchmark's metric registry, result collection and statistics.
//!
//! Every metric a workload reports must be declared here with its unit.
//! The result line carries the gated metrics, which every workload
//! reports: the end-to-end ones from the untraced run, the per-layer ones
//! from the traced run. `BENCHMARK.json` lists exactly these (a test keeps
//! the two in step). Detail metrics only apply to some workloads; they are
//! printed with their unit and sample count but stay out of the result
//! line.

pub const TRAIN_E2GCL: &str = "train-e2gcl";
pub const TRAIN_GRACE: &str = "train-grace-minibatch";
pub const SERVE_MIXED: &str = "serve-mixed";
pub const WORKLOADS: [&str; 3] = [TRAIN_E2GCL, TRAIN_GRACE, SERVE_MIXED];

const TRAIN: &[&str] = &[TRAIN_E2GCL, TRAIN_GRACE];
const E2GCL: &[&str] = &[TRAIN_E2GCL];
const GRACE: &[&str] = &[TRAIN_GRACE];
const SERVE: &[&str] = &[SERVE_MIXED];

/// A gated metric: reported by every workload. A per-layer one names the
/// end-to-end metrics it should move (none for the trace's own validity
/// checks); an end-to-end one names none.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static [&'static str],
}

/// A metric printed only by the workloads it applies to, from the traced
/// run (`traced`, naming what it should move like a per-layer metric) or
/// the untraced one.
pub struct Detail {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static [&'static str],
    pub workloads: &'static [&'static str],
    pub traced: bool,
}

const fn gated(name: &'static str, unit: &'static str) -> Metric {
    layer(name, unit, &[])
}

const fn layer(name: &'static str, unit: &'static str, moves: &'static [&'static str]) -> Metric {
    Metric { name, unit, moves }
}

const fn detail(
    name: &'static str,
    unit: &'static str,
    workloads: &'static [&'static str],
) -> Detail {
    Detail {
        name,
        unit,
        moves: &[],
        workloads,
        traced: false,
    }
}

const fn traced(
    name: &'static str,
    unit: &'static str,
    moves: &'static [&'static str],
    workloads: &'static [&'static str],
) -> Detail {
    Detail {
        name,
        unit,
        moves,
        workloads,
        traced: true,
    }
}

/// Crates whose share of the traced operation is reported; the span names
/// of the traced runs start with one of these followed by a dot.
pub const LAYERS: [&str; 6] = ["selector", "views", "graph", "nn", "e2gcl", "serve"];

/// What a user of the trainer or server sees. `op_ms` is the workload's
/// timed operation: one `ContrastiveModel::pretrain` call on the training
/// workloads, one request from scheduled arrival to completion at the low
/// offered rate on serve-mixed. `quality_pct` is the linear-probe accuracy
/// on the training workloads and IVF recall@10 against exact top-k on
/// serve-mixed.
pub const END_TO_END: &[Metric] = &[
    gated("setup_s", "s"),
    gated("peak_rss_mb", "MB"),
    gated("op_ms", "ms"),
    gated("quality_pct", "%"),
];

/// From the traced run. `<crate>.share_pct` is the crate's self time as a
/// share of the traced operation: a whole `pretrain` call rebuilt from its
/// one-off spans and one steady-state epoch on the training workloads, the
/// traced request window on serve-mixed. A crate the workload does not
/// call reports 0.
pub const PER_LAYER: &[Metric] = &[
    layer("datasets.gen_s", "s", SETUP),
    layer("selector.share_pct", "%", OP),
    layer("views.share_pct", "%", OP),
    layer("graph.share_pct", "%", OP),
    layer("nn.share_pct", "%", OP),
    layer("e2gcl.share_pct", "%", OP),
    layer("serve.share_pct", "%", OP),
    layer("linalg.spmm_gflops", "GFLOP/s", OP),
    layer("linalg.matrix_allocs_per_op", "count", OP),
    layer("trace.coverage", "ratio", &[]),
    layer("trace.overhead_pct", "%", &[]),
];

const SETUP: &[&str] = &["setup_s"];
const OP: &[&str] = &["op_ms"];
const RSS: &[&str] = &["peak_rss_mb"];
const P99: &[&str] = &["lat_p99_us.low", "lat_p99_us.high"];
const QUEUE: &[&str] = &["lat_p99_us.high", "peak_qps"];

pub const DETAILS: &[Detail] = &[
    detail("final_loss", "loss", TRAIN),
    detail("lat_p99_us.low", "us", SERVE),
    detail("lat_p50_us.high", "us", SERVE),
    detail("lat_p99_us.high", "us", SERVE),
    detail("peak_qps", "req/s", SERVE),
    traced("selector.select_s", "s", OP, E2GCL),
    traced("selector.assign_weights_s", "s", OP, E2GCL),
    traced("selector.cross_bytes", "B", RSS, E2GCL),
    traced("views.view_gen_s", "s", OP, E2GCL),
    traced("views.augment_s", "s", OP, GRACE),
    traced("graph.sample_s", "s", OP, GRACE),
    traced("graph.view_nodes", "count", OP, GRACE),
    traced("graph.norm_s", "s", OP, TRAIN),
    traced("graph.ego_us", "us", P99, SERVE),
    traced("nn.gcn_fwd_s", "s", OP, TRAIN),
    traced("nn.gcn_bwd_s", "s", OP, TRAIN),
    traced("nn.optim_s", "s", OP, TRAIN),
    traced("nn.head_s", "s", OP, GRACE),
    traced("nn.infonce_s", "s", OP, GRACE),
    traced("nn.margin_loss_s", "s", OP, E2GCL),
    traced("nn.frozen_fwd_us", "us", P99, SERVE),
    traced("linalg.matmul_transpose_gflops", "GFLOP/s", OP, GRACE),
    traced("linalg.infonce_flops_per_epoch", "FLOP", OP, GRACE),
    traced("e2gcl.self_s", "s", OP, TRAIN),
    traced("serve.ivf_probe_us", "us", OP, SERVE),
    traced("serve.rerank_us", "us", OP, SERVE),
    traced("serve.inductive_us", "us", P99, SERVE),
    traced("serve.lru_hit_ratio", "ratio", P99, SERVE),
    traced("serve.queue_wait_us.p99", "us", QUEUE, SERVE),
    traced("serve.flush_us.p50", "us", QUEUE, SERVE),
    traced("serve.batch_mean", "count", QUEUE, SERVE),
    traced("serve.hist_samples", "count", RSS, SERVE),
    traced("driver.late_us.p99", "us", &[], SERVE),
];

/// The `<crate>.share_pct` metric of a crate in [`LAYERS`].
pub fn share_metric(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| n.strip_suffix(".share_pct") == Some(layer))
        .unwrap_or_else(|| panic!("{layer} has no share metric"))
}

fn is_gated(name: &str) -> bool {
    END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name)
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| (m.name, m.unit))
        .chain(DETAILS.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// One reported value with the number of samples behind it.
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// What one run of one workload produces.
#[derive(Default)]
pub struct Report {
    pub values: Vec<Value>,
    /// Metrics the workload cannot measure, with the reason.
    pub absent: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Environment and bookkeeping lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(unit_of(name).is_some(), "metric {name} is not registered");
        if !value.is_finite() {
            self.errors.push(format!("{name} is not finite ({value})"));
            return;
        }
        self.values.push(Value {
            name,
            value,
            samples,
        });
    }

    pub fn absent(&mut self, name: &'static str, reason: &str) {
        assert!(unit_of(name).is_some(), "metric {name} is not registered");
        self.absent.push((name, reason.to_string()));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Checks that the run reported exactly the metrics of its kind: every
    /// gated one once, and every detail that applies to `workload` once or
    /// with a stated reason for being absent.
    pub fn verify_complete(&mut self, workload: &str, traced: bool) {
        let gated = if traced { PER_LAYER } else { END_TO_END };
        let details = DETAILS
            .iter()
            .filter(|m| m.traced == traced && m.workloads.contains(&workload));
        let mut expected: Vec<&str> = Vec::new();
        for (name, may_be_absent) in gated
            .iter()
            .map(|m| (m.name, false))
            .chain(details.map(|m| (m.name, true)))
        {
            expected.push(name);
            let n = self.values.iter().filter(|v| v.name == name).count();
            let why = may_be_absent && self.absent.iter().any(|(a, _)| *a == name);
            if n > 1 || (n == 0 && !why) {
                self.errors
                    .push(format!("metric {name}: reported {n} times, absent: {why}"));
            }
        }
        for v in &self.values {
            if !expected.contains(&v.name) {
                self.errors
                    .push(format!("metric {} does not apply to {workload}", v.name));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Human-readable lines: notes, metrics with unit and sample count
    /// (details marked), absent metrics, failed checks.
    pub fn lines(&self) -> Vec<String> {
        let mut out = self.notes.clone();
        for v in &self.values {
            let moves = PER_LAYER
                .iter()
                .map(|m| (m.name, m.moves))
                .chain(
                    DETAILS
                        .iter()
                        .filter(|m| m.traced)
                        .map(|m| (m.name, m.moves)),
                )
                .find(|(n, _)| *n == v.name)
                .map_or(String::new(), |(_, moves)| match moves {
                    [] => " [validity check]".to_string(),
                    moves => format!(" [moves {}]", moves.join(", ")),
                });
            let detail = if is_gated(v.name) { "" } else { " [detail]" };
            let tag = format!("{detail}{moves}");
            out.push(format!(
                "metric {} = {} {} (n={}){tag}",
                v.name,
                v.value,
                unit_of(v.name).unwrap_or("?"),
                v.samples
            ));
        }
        for (name, why) in &self.absent {
            out.push(format!("absent {name}: {why}"));
        }
        for e in &self.errors {
            out.push(format!("check failed: {e}"));
        }
        out
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics` (the gated metrics).
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .filter(|v| is_gated(v.name))
            .map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    v.name,
                    v.value,
                    unit_of(v.name).unwrap_or("?")
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Set-up runs per run of the benchmark: at least `SETUP_MIN`, and more
/// while they add up to less than `SETUP_BUDGET_S`, so a set-up of tens of
/// milliseconds gets enough runs for a steady median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

/// Runs `setup` repeatedly (see `SETUP_MIN`), dropping each result before
/// the next run so only one copy is ever resident. Returns the last result
/// and the seconds of every run.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN
        || (times.len() < SETUP_MAX && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_MIN >= 1"), times))
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_limits() {
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .chain(DETAILS.iter().map(|m| m.name))
        {
            assert!(valid_name(n), "bad name {n}");
            assert!(seen.insert(n), "name {n} used twice");
        }
        for u in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.unit)
            .chain(DETAILS.iter().map(|m| m.unit))
        {
            assert!(valid_unit(u), "bad unit {u}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn every_layer_has_a_share_and_every_detail_a_workload() {
        for layer in LAYERS {
            let name = format!("{layer}.share_pct");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} missing");
        }
        for m in DETAILS {
            assert!(!m.workloads.is_empty(), "{} has no workload", m.name);
        }
    }

    /// Every per-layer metric, gated or detail, names the end-to-end
    /// metrics it should move, measured on a workload it is measured on;
    /// only the driver's and the tracer's validity checks move nothing.
    #[test]
    fn every_layer_metric_maps_to_end_to_end_and_workload() {
        let layer_metrics = PER_LAYER
            .iter()
            .map(|m| (m.name, m.moves, &WORKLOADS[..]))
            .chain(
                DETAILS
                    .iter()
                    .filter(|m| m.traced)
                    .map(|m| (m.name, m.moves, m.workloads)),
            );
        for (name, moves, workloads) in layer_metrics {
            let validity = name.starts_with("driver.") || name.starts_with("trace.");
            assert_eq!(moves.is_empty(), validity, "{name} moves nothing");
            for e in moves {
                let on: &[&str] = if END_TO_END.iter().any(|t| t.name == *e) {
                    &WORKLOADS
                } else {
                    DETAILS
                        .iter()
                        .find(|t| t.name == *e && !t.traced)
                        .unwrap_or_else(|| panic!("{name} moves unknown {e}"))
                        .workloads
                };
                assert!(
                    workloads.iter().any(|w| on.contains(w)),
                    "{name} moves {e} on no shared workload"
                );
            }
        }
        assert!(END_TO_END.iter().all(|m| m.moves.is_empty()));
        assert!(DETAILS.iter().all(|m| m.traced || m.moves.is_empty()));
    }

    /// `BENCHMARK.json` declares exactly the registry's workloads and gated
    /// metrics, with the same units.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let declared = text.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(text.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
    }

    #[test]
    fn cheap_setups_repeat_more() {
        let (v, times) = repeated_setup(|| Ok::<_, String>(7)).unwrap();
        assert_eq!((v, times.len()), (7, SETUP_MAX));
        let (_, times) = repeated_setup(|| {
            std::thread::sleep(std::time::Duration::from_millis(400));
            Ok::<_, String>(())
        })
        .unwrap();
        assert_eq!(times.len(), SETUP_MIN);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.put("setup_s", 0.5, 3);
        let line = r.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        r.put("lat_p99_us.low", 9.0, 2_000);
        assert!(!r.json().contains("lat_p99_us.low"), "details stay out");
        r.put("op_ms", f64::NAN, 1);
        assert!(!r.correct());
    }

    /// Every gated metric is required of every workload; details only of
    /// theirs.
    #[test]
    fn completeness_requires_every_gated_metric() {
        let mut r = Report::default();
        for m in END_TO_END {
            r.put(m.name, 1.0, 1);
        }
        for m in DETAILS
            .iter()
            .filter(|m| !m.traced && m.workloads.contains(&SERVE_MIXED))
        {
            r.put(m.name, 1.0, 1);
        }
        r.verify_complete(SERVE_MIXED, false);
        assert!(r.correct(), "{:?}", r.errors);
        r.verify_complete(TRAIN_E2GCL, false);
        assert!(!r.correct(), "serve details do not apply to train-e2gcl");
        let mut r = Report::default();
        r.put("setup_s", 1.0, 1);
        r.verify_complete(TRAIN_GRACE, false);
        assert!(r.errors.iter().any(|e| e.contains("op_ms")));
    }
}
