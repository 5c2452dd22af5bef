//! The `serve-mixed` workload: an open-loop driver in front of
//! `MicroBatcher` + `BatchServer::with_index`.
//!
//! Setup trains an artifact on a `products-sim-1m` slice and builds the
//! store and IVF index; no training code runs while requests are timed.
//! Traffic is generated from the workload seed: Poisson arrivals at a fixed
//! offered rate, one request in [`INDUCTIVE_EVERY`] a `TopKInductive` with
//! skewed node popularity (so the inductive LRU both hits and misses, see
//! [`Traffic`]), the rest stored `TopK`. Every request is stamped with its
//! scheduled arrival time and its latency runs from that time to its
//! completion, so a stall counts against every request it delays.

use crate::metrics::{
    median, peak_rss_mb, percentile, repeated_setup, share_metric, Report, LAYERS, SERVE_MIXED,
};
use crate::trace::Tracer;
use crate::train::spmm_gflops;
use e2gcl::datasets::{spec, NodeDataset};
use e2gcl::graph::{norm, GraphView};
use e2gcl::linalg::{alloc_stats, SeedRng};
use e2gcl::models::grace::GraceModel;
use e2gcl::{ContrastiveModel, MinibatchConfig, TrainConfig};
use e2gcl_serve::{
    Artifact, ArtifactMeta, BatchServer, Clock, Completed, InductiveEngine, IvfConfig, IvfIndex,
    MicroBatcher, Request, Response, SchedulerConfig,
};
use std::time::Instant;

const DATA: (&str, f64) = ("products-sim-1m", 0.01);
const K: usize = 10;
/// One request in this many is a `TopKInductive`; the rest are stored
/// `TopK` over uniformly drawn nodes.
pub const INDUCTIVE_EVERY: usize = 8;
/// Inductive popularity: most inductive requests go to a small hot set
/// that stays in the engine's LRU; one in `COLD_EVERY` goes to a node not
/// asked for before in the run, which misses it. Misses are then a fixed
/// 1/96 of all requests. Egos next to a hub take 20-40 ms to forward
/// (about 1% of nodes); at this share at most about one sub-window in five
/// (see `SUBWINDOW`) holds one, so the median over sub-windows reports the
/// usual miss and the hub tail stays visible in the sub-windows it hits.
const HOT_NODES: usize = 32;
const COLD_EVERY: usize = 12;

/// Fixed offered rates. The low rate is about 10% of the saturated
/// throughput measured when the benchmark was defined (about 20k req/s on
/// a 2-vCPU x86-64 host, AVX2 kernels, two worker threads); the high rate
/// is about 30%, not 65%: misses are served one after another, and at 65%
/// the queue behind the largest ego forwards makes the p99 swing with the
/// host's speed by more than any bound the benchmark can hold.
pub const RATE_LOW: f64 = 2_000.0;
pub const RATE_HIGH: f64 = 6_000.0;
/// Offered rate of the saturation window: far above capacity, so every
/// flush finds a full batch waiting.
const RATE_OVER: f64 = 100_000.0;

/// Share of `--seconds` spent at each rate: low, high, saturation.
const SHARE_LOW: f64 = 0.5;
const SHARE_HIGH: f64 = 0.3;
const SHARE_SATURATION: f64 = 0.2;
/// Discarded warm-up before each rate.
const WARMUP_REQUESTS: usize = 1_000;
const SATURATION_WARMUP_US: u64 = 300_000;
/// Latency percentiles are taken per run of this many consecutive
/// requests (20 samples beyond each p99) and the median over runs is
/// reported; throughput likewise per bin of `QPS_BIN_US`. A stall of the
/// host, or a forward over a hub's ego graph with a queue behind it, then
/// moves one sub-window instead of the whole figure.
const SUBWINDOW: usize = 2_000;
const QPS_BIN_US: u64 = 250_000;
const RECALL_QUERIES: usize = 500;

/// Measured requests at `rate` for `share` of the run: an odd number of
/// whole sub-windows, at least three, so the median is one sub-window's.
fn requests(rate: f64, share: f64, seconds: u64) -> usize {
    let n = (rate * share * seconds as f64 / SUBWINDOW as f64).round() as usize;
    (n.max(3) | 1) * SUBWINDOW
}

fn scheduler() -> SchedulerConfig {
    SchedulerConfig::default()
}

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Offset from the start of the window, microseconds.
    pub due_us: u64,
    pub request: Request,
}

/// The run's request generator: a pure function of the workload seed and
/// the sequence of windows drawn from it.
pub struct Traffic {
    rng: SeedRng,
    num_nodes: usize,
    hot: Vec<usize>,
    cold: Vec<usize>,
    next_cold: usize,
    inductive: usize,
}

impl Traffic {
    pub fn new(seed: u64, num_nodes: usize) -> Traffic {
        let mut rng = SeedRng::new(seed ^ 0x7aff1c);
        let mut perm: Vec<usize> = (0..num_nodes).collect();
        rng.shuffle(&mut perm);
        let cold = perm.split_off(HOT_NODES.min(num_nodes));
        Traffic {
            rng,
            num_nodes,
            hot: perm,
            cold,
            next_cold: 0,
            inductive: 0,
        }
    }

    fn inductive_node(&mut self) -> usize {
        self.inductive += 1;
        if self.inductive.is_multiple_of(COLD_EVERY) && !self.cold.is_empty() {
            let v = self.cold[self.next_cold % self.cold.len()];
            self.next_cold += 1;
            v
        } else {
            self.hot[self.rng.below(self.hot.len())]
        }
    }

    /// `count` requests with exponential gaps at `rate_qps` (independent
    /// users), times relative to the window start.
    pub fn window(&mut self, rate_qps: f64, count: usize) -> Vec<Arrival> {
        let mut t = 0.0f64;
        (0..count)
            .map(|i| {
                t += -(1.0 - self.rng.uniform_f64()).ln() / rate_qps * 1e6;
                let request = if i % INDUCTIVE_EVERY == INDUCTIVE_EVERY - 1 {
                    Request::TopKInductive {
                        node: self.inductive_node(),
                        k: K,
                    }
                } else {
                    Request::TopK {
                        node: self.rng.below(self.num_nodes),
                        k: K,
                    }
                };
                Arrival {
                    due_us: t as u64,
                    request,
                }
            })
            .collect()
    }
}

/// One request's timeline and answer.
#[derive(Clone, Debug)]
pub struct Served {
    pub due_us: u64,
    /// When the driver handed it to the batcher.
    pub sent_us: u64,
    pub flush_start_us: u64,
    pub done_us: u64,
    pub request: Request,
    pub response: Response,
}

/// Waits for `target_us` on the server's clock. A wall clock is polled,
/// never slept on: waking a halted vCPU on a shared host takes anywhere
/// from microseconds to milliseconds, and that delay would land in the
/// latency of the request the driver was waiting to send.
fn wait_until(clock: &Clock, target_us: u64) {
    match clock {
        Clock::Wall(_) => {
            while clock.now_us() < target_us {
                std::hint::spin_loop();
            }
        }
        Clock::Virtual(_) => {
            let now = clock.now_us();
            if target_us > now {
                clock.advance_us(target_us - now);
            }
        }
    }
}

/// How the driver feeds the batcher.
#[derive(Clone, Copy)]
pub struct DriveMode {
    /// Hand over at most this many pending requests; the rest wait in the
    /// driver's schedule. `None` hands over everything that is due.
    pub max_pending: Option<usize>,
    /// Stop sending new requests this long after the window starts.
    pub stop_after_us: Option<u64>,
}

pub const OPEN_LOOP: DriveMode = DriveMode {
    max_pending: None,
    stop_after_us: None,
};

/// Drives `arrivals` through the batcher and server on the server's clock.
/// Single-threaded: while a batch is being served, due requests wait in
/// the schedule, and that wait is part of their latency.
pub fn drive(
    server: &mut BatchServer,
    batcher: &mut MicroBatcher,
    arrivals: &[Arrival],
    mode: DriveMode,
    tr: &mut Tracer,
) -> Vec<Served> {
    let clock = server.clock().clone();
    let t0 = clock.now_us();
    let mut sent_us: Vec<u64> = vec![0; arrivals.len()];
    let mut by_id = std::collections::HashMap::new();
    let mut out = Vec::with_capacity(arrivals.len());
    let mut next = 0usize;
    loop {
        let now = clock.now_us();
        let open = mode.stop_after_us.is_none_or(|s| now < t0 + s);
        if open {
            tr.enter("driver.submit", next as u64);
            while next < arrivals.len()
                && t0 + arrivals[next].due_us <= now
                && mode.max_pending.is_none_or(|m| batcher.pending() < m)
            {
                let a = &arrivals[next];
                let id = batcher.submit(a.request.clone(), t0 + a.due_us);
                by_id.insert(id, next);
                sent_us[next] = now;
                next += 1;
            }
            tr.exit();
        }
        let exhausted = next >= arrivals.len() || !open;
        if batcher.ready(now) || (exhausted && batcher.pending() > 0) {
            if !batcher.ready(now) {
                // Stream over: let the last window's deadline pass.
                let deadline = batcher.next_deadline_us().expect("pending > 0");
                tr.span("driver.wait", 0, || wait_until(&clock, deadline));
            }
            let start = clock.now_us();
            // FIFO batches: the batch starts at the first unanswered request.
            let first = out.len() as u64;
            let done: Vec<Completed> = tr.span("serve.flush", first, || batcher.flush(server));
            for c in done {
                let i = by_id.remove(&c.id).expect("completion for a sent request");
                out.push(Served {
                    due_us: t0 + arrivals[i].due_us,
                    sent_us: sent_us[i],
                    flush_start_us: start,
                    done_us: c.completed_us,
                    request: arrivals[i].request.clone(),
                    response: c.response,
                });
            }
            continue;
        }
        if exhausted {
            break;
        }
        let mut wake = t0 + arrivals[next].due_us;
        if let Some(d) = batcher.next_deadline_us() {
            wake = wake.min(d);
        }
        tr.span("driver.wait", 0, || wait_until(&clock, wake));
    }
    out
}

/// The serving stack plus a private copy of its index for output checks.
pub struct Stack {
    pub data: NodeDataset,
    pub server: BatchServer,
    pub index: IvfIndex,
    pub artifact: Artifact,
}

fn artifact_config() -> TrainConfig {
    TrainConfig {
        epochs: 1,
        minibatch: Some(MinibatchConfig {
            batch_nodes: 1024,
            fanout: Some(3),
        }),
        ..TrainConfig::default()
    }
}

pub fn build_stack(seed: u64, tr: &mut Tracer) -> Result<Stack, String> {
    let (name, scale) = DATA;
    let s = spec(name).map_err(|e| e.to_string())?;
    let data = tr.span("datasets.generate", 0, || {
        NodeDataset::generate(&s, scale, seed)
    });
    let config = artifact_config();
    let res = GraceModel::grace()
        .pretrain(
            &data.graph,
            &data.features,
            &config,
            &mut SeedRng::new(seed),
        )
        .map_err(|e| format!("artifact training: {e}"))?;
    let artifact = Artifact {
        meta: ArtifactMeta {
            model: "grace".into(),
            dataset: name.into(),
            scale,
            seed,
        },
        config,
        encoder: res.encoder.ok_or("GRACE exports its encoder")?,
        embeddings: res.embeddings,
    };
    assemble(data, artifact, Clock::wall())
}

/// Store, inductive engine and IVF index over a trained artifact.
fn assemble(data: NodeDataset, artifact: Artifact, clock: Clock) -> Result<Stack, String> {
    let server = BatchServer::from_artifact(&artifact, data.graph.clone(), data.features.clone())
        .map_err(|e| e.to_string())?
        .with_clock(clock);
    let config = IvfConfig {
        seed: artifact.meta.seed,
        ..IvfConfig::for_rows(server.store().len())
    };
    let mut index = IvfIndex::build(server.store(), config).map_err(|e| e.to_string())?;
    index.pack(server.store()).map_err(|e| e.to_string())?;
    let server = server
        .with_index(index.clone())
        .map_err(|e| e.to_string())?;
    Ok(Stack {
        data,
        server,
        index,
        artifact,
    })
}

/// Checks every answer of a window against a direct index search, counts
/// failures, and returns the number of degraded answers.
pub fn check_answers(stack: &Stack, served: &[Served], r: &mut Report) -> u64 {
    let store = stack.server.store();
    let mut degraded = 0;
    let mut mismatches = 0usize;
    for s in served {
        r.attempted += 1;
        let (node, inductive) = match s.request {
            Request::TopK { node, .. } => (node, false),
            Request::TopKInductive { node, .. } => (node, true),
            _ => unreachable!("the workload sends top-k requests only"),
        };
        match &s.response {
            Response::Hits { hits, degraded: d } => {
                degraded += u64::from(*d);
                // Stored top-k must equal a direct search of the stored
                // row; so must an inductive answer for a training-graph
                // node, whose ego forward reproduces that row bitwise.
                let expect = store
                    .embedding(node)
                    .and_then(|q| stack.index.search(store, q, K));
                let same = expect.as_ref().is_ok_and(|e| {
                    e.len() == hits.len()
                        && e.iter()
                            .zip(hits)
                            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
                });
                if !same {
                    mismatches += 1;
                    if mismatches <= 3 {
                        r.errors.push(format!(
                            "{} answer for node {node} differs from IvfIndex::search",
                            if inductive { "inductive" } else { "stored" }
                        ));
                    }
                }
            }
            Response::Rejected(_) | Response::Failed { .. } => r.failed += 1,
            other => r.errors.push(format!("unexpected response {other:?}")),
        }
    }
    if mismatches > 3 {
        r.errors.push(format!(
            "{mismatches} answers differ from IvfIndex::search in total"
        ));
    }
    degraded
}

fn latencies(served: &[Served]) -> Vec<f64> {
    served
        .iter()
        .map(|s| s.done_us.saturating_sub(s.due_us) as f64)
        .collect()
}

/// Runs a warm-up prefix and then `count` requests at `rate`; returns
/// both parts.
fn window(
    stack: &mut Stack,
    batcher: &mut MicroBatcher,
    traffic: &mut Traffic,
    rate: f64,
    count: usize,
    tr: &mut Tracer,
) -> (Vec<Served>, Vec<Served>) {
    let arrivals = traffic.window(rate, WARMUP_REQUESTS + count);
    let mut served = drive(&mut stack.server, batcher, &arrivals, OPEN_LOOP, tr);
    // Batches are FIFO and answered in order, so the first completions are
    // the warm-up prefix.
    let measured = served.split_off(WARMUP_REQUESTS);
    (served, measured)
}

/// The untraced run: end-to-end metrics and output checks.
pub fn run(seed: u64, seconds: u64, r: &mut Report) {
    let mut off = Tracer::new(false);
    let (mut stack, setup_times) = match repeated_setup(|| build_stack(seed, &mut off)) {
        Ok(out) => out,
        Err(e) => {
            r.errors.push(e);
            return;
        }
    };
    r.put("setup_s", median(&setup_times), setup_times.len());
    r.note(format!(
        "store: {} rows x {}; ivf nlist {} nprobe {}",
        stack.server.store().len(),
        stack.server.store().dim(),
        stack.index.nlist(),
        stack.index.nprobe()
    ));
    let mut batcher = MicroBatcher::new(scheduler());
    let mut traffic = Traffic::new(seed, stack.server.store().len());
    let mut degraded = 0;
    for (label, rate, share) in [
        ("low", RATE_LOW, SHARE_LOW),
        ("high", RATE_HIGH, SHARE_HIGH),
    ] {
        let count = requests(rate, share, seconds);
        let (warm, measured) = window(
            &mut stack,
            &mut batcher,
            &mut traffic,
            rate,
            count,
            &mut off,
        );
        degraded += check_answers(&stack, &warm, r) + check_answers(&stack, &measured, r);
        let lat = latencies(&measured);
        let per = |p: f64| -> Vec<f64> {
            lat.chunks_exact(SUBWINDOW)
                .map(|c| percentile(c, p))
                .collect()
        };
        let (p50s, p99s) = (per(50.0), per(99.0));
        r.note(format!("rate {label}: p99 per sub-window {p99s:?} us"));
        let (p50, p99) = (median(&p50s), median(&p99s));
        if label == "low" {
            r.put("op_ms", p50 / 1e3, lat.len());
            r.put("lat_p99_us.low", p99, lat.len());
        } else {
            r.put("lat_p50_us.high", p50, lat.len());
            r.put("lat_p99_us.high", p99, lat.len());
        }
        let late: Vec<f64> = measured
            .iter()
            .map(|s| s.sent_us.saturating_sub(s.due_us) as f64)
            .collect();
        r.note(format!(
            "rate {label} {rate} req/s: {} requests, driver late p99 {} us",
            lat.len(),
            percentile(&late, 99.0)
        ));
    }

    // Saturation: offered far above capacity; requests wait in the
    // driver until the batcher has room, so every flush is a full batch.
    let saturation_us = SATURATION_WARMUP_US + (SHARE_SATURATION * seconds as f64 * 1e6) as u64;
    let arrivals = traffic.window(RATE_OVER, (RATE_OVER * saturation_us as f64 / 1e6) as usize);
    let t0 = stack.server.clock().now_us();
    let mode = DriveMode {
        max_pending: Some(scheduler().max_batch),
        stop_after_us: Some(saturation_us),
    };
    let served = drive(&mut stack.server, &mut batcher, &arrivals, mode, &mut off);
    degraded += check_answers(&stack, &served, r);
    let bins = ((saturation_us - SATURATION_WARMUP_US) / QPS_BIN_US).max(1);
    let mut per_bin = vec![0usize; bins as usize];
    for s in served.iter().filter(|s| s.response.is_ok()) {
        let since = s.done_us.saturating_sub(t0 + SATURATION_WARMUP_US);
        if s.done_us > t0 + SATURATION_WARMUP_US && since / QPS_BIN_US < bins {
            per_bin[(since / QPS_BIN_US) as usize] += 1;
        }
    }
    let qps: Vec<f64> = per_bin
        .iter()
        .map(|&c| c as f64 / (QPS_BIN_US as f64 / 1e6))
        .collect();
    r.put("peak_qps", median(&qps), per_bin.iter().sum());
    r.note(format!(
        "degraded answers (counted as answered): {degraded}"
    ));
    r.note(format!(
        "op_ms is the median over sub-windows of the p50 request latency at {RATE_LOW} req/s"
    ));
    r.note(format!(
        "quality_pct is IVF recall@{K} against exact top-k over {RECALL_QUERIES} queries"
    ));

    let mut rng = SeedRng::new(seed ^ 4);
    let queries: Vec<usize> = (0..RECALL_QUERIES)
        .map(|_| rng.below(stack.server.store().len()))
        .collect();
    match stack
        .index
        .measure_recall(stack.server.store(), &queries, K)
    {
        Ok(recall) => r.put("quality_pct", 100.0 * recall, queries.len()),
        Err(e) => r.errors.push(format!("measure_recall: {e}")),
    }
    if let Some(mb) = peak_rss_mb() {
        r.put("peak_rss_mb", mb, 1);
    }
}

fn median_us(mut f: impl FnMut(usize) -> f64, items: &[usize]) -> f64 {
    let xs: Vec<f64> = items.iter().map(|&v| f(v)).collect();
    median(&xs)
}

fn time_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

/// The traced run: per-layer metrics.
pub fn run_traced(seed: u64, seconds: u64, r: &mut Report) {
    let mut tr = Tracer::new(true);
    let mut stack = match build_stack(seed, &mut tr) {
        Ok(s) => s,
        Err(e) => {
            r.errors.push(e);
            return;
        }
    };
    r.put("datasets.gen_s", tr.total("datasets.generate", 0), 1);
    let mut batcher = MicroBatcher::new(scheduler());

    // An untraced warm-up window, then the measured load traced.
    tr.set_enabled(false);
    let mut traffic = Traffic::new(seed, stack.server.store().len());
    let (warm, _) = window(
        &mut stack,
        &mut batcher,
        &mut traffic,
        RATE_HIGH,
        0,
        &mut tr,
    );
    check_answers(&stack, &warm, r);
    tr.set_enabled(true);
    let stats_before = batcher.stats();
    let arrivals = traffic.window(RATE_HIGH, requests(RATE_HIGH, SHARE_HIGH, seconds));
    let mark = tr.mark();
    let allocs = alloc_stats::matrix_allocs();
    let t = Instant::now();
    let traced = drive(
        &mut stack.server,
        &mut batcher,
        &arrivals,
        OPEN_LOOP,
        &mut tr,
    );
    let wall = t.elapsed().as_secs_f64();
    let allocs = alloc_stats::matrix_allocs() - allocs;
    check_answers(&stack, &traced, r);
    r.put(
        "linalg.matrix_allocs_per_op",
        allocs as f64 / traced.len() as f64,
        traced.len(),
    );
    // The driver's own spans (submit, wait) belong to no layer.
    let by_crate = tr.self_by_crate(mark..tr.mark(), &[]);
    for k in by_crate.keys().filter(|k| **k != "driver") {
        if !LAYERS.contains(k) {
            r.errors.push(format!("span crate {k} has no share metric"));
        }
    }
    for layer in LAYERS {
        let secs = by_crate.get(layer).copied().unwrap_or(0.0);
        r.put(share_metric(layer), 100.0 * secs / wall, 1);
    }
    r.put(
        "trace.overhead_pct",
        tr.overhead_pct(mark, wall),
        tr.spans().len() - mark,
    );
    let covered: f64 = tr.spans()[mark..]
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.secs())
        .sum();
    r.put("trace.coverage", covered / wall, 1);
    let queue: Vec<f64> = traced
        .iter()
        .map(|s| s.flush_start_us.saturating_sub(s.due_us) as f64)
        .collect();
    r.put(
        "serve.queue_wait_us.p99",
        percentile(&queue, 99.0),
        queue.len(),
    );
    let flushes: Vec<f64> = tr
        .durations("serve.flush", mark)
        .iter()
        .map(|s| s * 1e6)
        .collect();
    r.put("serve.flush_us.p50", median(&flushes), flushes.len());
    let stats = batcher.stats();
    r.put(
        "serve.batch_mean",
        (stats.flushed - stats_before.flushed) as f64
            / (stats.batches - stats_before.batches) as f64,
        (stats.batches - stats_before.batches) as usize,
    );
    let late: Vec<f64> = traced
        .iter()
        .map(|s| s.sent_us.saturating_sub(s.due_us) as f64)
        .collect();
    r.put("driver.late_us.p99", percentile(&late, 99.0), late.len());
    let engine = stack
        .server
        .inductive()
        .expect("artifact servers are inductive");
    let (hits, misses) = engine.cache_stats();
    r.put(
        "serve.lru_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    let samples: usize = stack
        .server
        .latency_report()
        .iter()
        .map(|(_, s)| s.count)
        .sum();
    r.put("serve.hist_samples", samples as f64, 1);

    // Component replay on nodes drawn like the traffic's.
    let n = stack.server.store().len();
    let mut rng = SeedRng::new(seed ^ 7);
    let nodes: Vec<usize> = (0..300).map(|_| rng.below(n)).collect();
    let store = stack.server.store();
    let index = &stack.index;
    let probe = median_us(
        |v| {
            let q = store.embedding(v).expect("node in range");
            time_us(|| {
                std::hint::black_box(index.probe_lists(q));
            })
        },
        &nodes,
    );
    let search = median_us(
        |v| {
            let q = store.embedding(v).expect("node in range");
            time_us(|| {
                std::hint::black_box(index.search(store, q, K).expect("search"));
            })
        },
        &nodes,
    );
    r.put("serve.ivf_probe_us", probe, nodes.len());
    r.put("serve.rerank_us", search - probe, nodes.len());
    let hops = stack.artifact.encoder.receptive_hops();
    let g = &stack.data.graph;
    r.put(
        "linalg.spmm_gflops",
        spmm_gflops(&norm::normalized_adjacency(g), &stack.data.features),
        7,
    );
    r.put(
        "graph.ego_us",
        median_us(
            |v| {
                time_us(|| {
                    std::hint::black_box(GraphView::ego(g, v, hops));
                })
            },
            &nodes,
        ),
        nodes.len(),
    );
    match InductiveEngine::with_cache_capacity(
        stack.artifact.encoder.clone(),
        g.clone(),
        stack.data.features.clone(),
        0,
    ) {
        Ok(cold) => {
            let fwd: Vec<f64> = nodes
                .iter()
                .map(|&v| {
                    time_us(|| {
                        std::hint::black_box(cold.embed_node(v).expect("embed"));
                    })
                })
                .collect();
            r.put("nn.frozen_fwd_us", median(&fwd), fwd.len());
            r.note(format!(
                "cold embed_node us: p50 {:.0} p90 {:.0} p99 {:.0} max {:.0}",
                percentile(&fwd, 50.0),
                percentile(&fwd, 90.0),
                percentile(&fwd, 99.0),
                percentile(&fwd, 100.0)
            ));
        }
        Err(e) => r.errors.push(format!("cold inductive engine: {e}")),
    }
    let inductive: Vec<usize> = (0..300).map(|_| traffic.inductive_node()).collect();
    let inductive_us: Vec<f64> = inductive
        .iter()
        .map(|&v| {
            tr.span("serve.inductive", v as u64, || {
                time_us(|| {
                    let e = engine.embed_node(v).expect("embed");
                    std::hint::black_box(index.search(store, &e, K).expect("search"));
                })
            })
        })
        .collect();
    // The mean, not the median: the tail of misses is what moves p99.
    r.put(
        "serve.inductive_us",
        inductive_us.iter().sum::<f64>() / inductive_us.len() as f64,
        inductive_us.len(),
    );
    let out = std::path::Path::new(".bench_out").join(format!("trace-{SERVE_MIXED}-{seed}.jsonl"));
    if let Err(e) = tr.write_jsonl(&out) {
        r.errors.push(format!("writing {}: {e}", out.display()));
    }
    r.note(format!(
        "trace: {} spans written to {}",
        tr.spans().len(),
        out.display()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl::graph::norm;
    use e2gcl::nn::{FrozenEncoder, GcnEncoder};

    /// A small serving stack on a virtual clock, over an untrained encoder
    /// (its embeddings are still the full-graph forward the ego path must
    /// reproduce).
    fn tiny_stack() -> Stack {
        let data = NodeDataset::generate(&spec("cora-sim").expect("registered"), 0.1, 3);
        let enc = GcnEncoder::new(&[data.feature_dim(), 16, 8], &mut SeedRng::new(1));
        let embeddings = enc.embed(&norm::normalized_adjacency(&data.graph), &data.features);
        let artifact = Artifact {
            meta: ArtifactMeta {
                model: "gcn".into(),
                dataset: "cora-sim".into(),
                scale: 0.1,
                seed: 3,
            },
            config: TrainConfig::default(),
            encoder: FrozenEncoder::Gcn(enc),
            embeddings,
        };
        assemble(data, artifact, Clock::virtual_at(0)).expect("tiny stack")
    }

    fn replay() -> (Vec<String>, Report) {
        let mut stack = tiny_stack();
        let mut batcher = MicroBatcher::new(scheduler());
        let mut traffic = Traffic::new(11, stack.server.store().len());
        let mut tr = Tracer::new(true);
        let arrivals = traffic.window(RATE_HIGH, 2_400);
        let served = drive(
            &mut stack.server,
            &mut batcher,
            &arrivals,
            OPEN_LOOP,
            &mut tr,
        );
        assert_eq!(served.len(), arrivals.len());
        for s in &served {
            assert_eq!(s.sent_us, s.due_us, "the driver fell behind its schedule");
            assert!(s.flush_start_us >= s.due_us && s.done_us >= s.flush_start_us);
        }
        let mut r = Report::default();
        check_answers(&stack, &served, &mut r);
        let records = served.iter().map(|s| format!("{s:?}")).collect();
        (records, r)
    }

    #[test]
    fn driver_replays_bit_identically_on_virtual_clock() {
        let (a, ra) = replay();
        let (b, _) = replay();
        assert_eq!(a, b);
        assert!(ra.errors.is_empty(), "{:?}", ra.errors);
        assert_eq!((ra.attempted, ra.failed), (2_400, 0));
    }

    #[test]
    fn misses_are_a_fixed_share_of_traffic() {
        let mut traffic = Traffic::new(5, 1_000);
        let arrivals = traffic.window(RATE_LOW, INDUCTIVE_EVERY * COLD_EVERY * 50);
        let mut seen = std::collections::HashSet::new();
        let mut first_time = 0;
        for a in &arrivals {
            if let Request::TopKInductive { node, .. } = a.request {
                first_time += usize::from(seen.insert(node));
            }
        }
        // 50 cold nodes, each new, plus each hot node's first request.
        assert!((50..=50 + HOT_NODES).contains(&first_time), "{first_time}");
        assert!(arrivals.windows(2).all(|w| w[0].due_us <= w[1].due_us));
    }

    #[test]
    fn window_sizes_follow_seconds() {
        assert_eq!(
            requests(RATE_LOW, SHARE_LOW, 16) % (2 * SUBWINDOW),
            SUBWINDOW
        );
        assert!(requests(RATE_LOW, SHARE_LOW, 1) >= 3 * SUBWINDOW);
        assert!((SHARE_LOW + SHARE_HIGH + SHARE_SATURATION - 1.0).abs() < 1e-9);
    }
}
