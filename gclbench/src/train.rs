//! The two training workloads: `train-e2gcl` and `train-grace-minibatch`.
//!
//! The untraced run times whole `ContrastiveModel::pretrain` calls. The
//! traced run replays the same model's steady-state epoch through the
//! public functions of each crate, with a span around every call, on the
//! workload's own inputs.

use crate::metrics::{
    median, peak_rss_mb, repeated_setup, share_metric, Report, LAYERS, TRAIN_E2GCL, TRAIN_GRACE,
};
use crate::trace::Tracer;
use e2gcl::datasets::{spec, NodeDataset};
use e2gcl::graph::{norm, NeighborSampler, SparseMatrix};
use e2gcl::linalg::{alloc_stats, Matrix, SeedRng};
use e2gcl::models::e2gcl_model::{E2gclConfig, E2gclModel, SelectorKind};
use e2gcl::models::grace::{GraceConfig, GraceModel};
use e2gcl::nn::loss::{self, InfoNceScratch};
use e2gcl::nn::{Adam, GcnEncoder, GcnWorkspace, Mlp, MlpWorkspace, Optimizer};
use e2gcl::selector::greedy::GreedySelector;
use e2gcl::selector::{assign_weights, NodeSelector};
use e2gcl::views::{uniform, ViewGenerator};
use e2gcl::{ContrastiveModel, MinibatchConfig, TrainConfig};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Timed `pretrain` calls per run, after the discarded warm-up. Past
/// `MIN_REPS`, a call is only started if one more of the last call's
/// length still fits in `--seconds`.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 15;

/// `train-e2gcl`: the paper-default run on the Table V quick tier of
/// `products-sim` (7.5k nodes).
const E2GCL_DATA: (&str, f64) = ("products-sim", 0.15);
const E2GCL_EPOCHS: usize = 20;
/// `train-grace-minibatch`: the smallest `BENCH_scale.json` 1M-tier case,
/// a 10k-node slice of `products-sim-1m`.
const GRACE_DATA: (&str, f64) = ("products-sim-1m", 0.01);
const GRACE_EPOCHS: usize = 1;
const GRACE_BATCH_NODES: usize = 2048;
const GRACE_FANOUT: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    E2gcl,
    GraceMinibatch,
}

impl Kind {
    fn workload(self) -> &'static str {
        match self {
            Kind::E2gcl => TRAIN_E2GCL,
            Kind::GraceMinibatch => TRAIN_GRACE,
        }
    }

    fn data(self) -> (&'static str, f64) {
        match self {
            Kind::E2gcl => E2GCL_DATA,
            Kind::GraceMinibatch => GRACE_DATA,
        }
    }

    fn config(self) -> TrainConfig {
        match self {
            Kind::E2gcl => TrainConfig {
                epochs: E2GCL_EPOCHS,
                ..TrainConfig::default()
            },
            Kind::GraceMinibatch => TrainConfig {
                epochs: GRACE_EPOCHS,
                minibatch: Some(MinibatchConfig {
                    batch_nodes: GRACE_BATCH_NODES,
                    fanout: Some(GRACE_FANOUT),
                }),
                ..TrainConfig::default()
            },
        }
    }

    fn model(self) -> Box<dyn ContrastiveModel> {
        match self {
            Kind::E2gcl => Box::new(E2gclModel::default()),
            Kind::GraceMinibatch => Box::new(GraceModel::grace()),
        }
    }
}

pub fn generate(kind: Kind, seed: u64) -> NodeDataset {
    let (name, scale) = kind.data();
    let s = spec(name).expect("benchmark datasets are registered");
    NodeDataset::generate(&s, scale, seed)
}

fn budget(n: usize) -> usize {
    let ratio = E2gclConfig::default().node_ratio;
    ((n as f64) * ratio).round().max(1.0) as usize
}

/// The untraced run: end-to-end metrics and output checks.
pub fn run(kind: Kind, seed: u64, seconds: u64, r: &mut Report) {
    let (data, times) = match repeated_setup(|| Ok(generate(kind, seed))) {
        Ok(out) => out,
        Err(e) => {
            r.errors.push(e);
            return;
        }
    };
    r.put("setup_s", median(&times), times.len());
    r.note(format!(
        "dataset: {} nodes, {} edges, {} features",
        data.num_nodes(),
        data.graph.num_edges(),
        data.feature_dim()
    ));
    let (g, x) = (&data.graph, &data.features);
    let cfg = kind.config();
    let model = kind.model();
    let mut times = Vec::new();
    let mut losses: Vec<u32> = Vec::new();
    let mut last = None;
    let budget_s = Duration::from_secs(seconds);
    let mut timed = Duration::ZERO;
    let mut last_dt = Duration::ZERO;
    // Call 0 is the warm-up; its time is discarded.
    for call in 0..=MAX_REPS {
        if call > MIN_REPS && timed + last_dt > budget_s {
            break;
        }
        r.attempted += 1;
        let t = Instant::now();
        let out = model.pretrain(g, x, &cfg, &mut SeedRng::new(seed));
        let dt = t.elapsed();
        last_dt = dt;
        match out {
            Ok(res) => match res.loss_curve.last() {
                Some(&l) if l.is_finite() => {
                    losses.push(l.to_bits());
                    if call > 0 {
                        times.push(dt.as_secs_f64());
                        timed += dt;
                    }
                    last = Some(res);
                }
                other => {
                    r.failed += 1;
                    r.errors
                        .push(format!("pretrain {call}: final loss {other:?}"));
                }
            },
            Err(e) => {
                r.failed += 1;
                r.errors.push(format!("pretrain {call}: {e}"));
            }
        }
    }
    let Some(res) = last else {
        r.errors.push("no pretrain call succeeded".into());
        return;
    };
    if !times.is_empty() {
        r.put("op_ms", 1e3 * median(&times), times.len());
    }
    r.note(format!(
        "op_ms is the median pretrain call; seconds after the warm-up: {times:.3?}"
    ));
    r.check(losses.iter().all(|&b| b == losses[0]), || {
        format!("final loss differs across repetitions: {losses:?}")
    });
    let final_loss = f32::from_bits(losses[0]);
    r.put("final_loss", f64::from(final_loss), losses.len());
    let acc = e2gcl::eval::node_classification_accuracy(
        &res.embeddings,
        &data.labels,
        data.num_classes,
        seed,
    );
    r.put("quality_pct", 100.0 * f64::from(acc), 1);
    r.note("quality_pct is the linear-probe accuracy on the embeddings".into());
    if kind == Kind::E2gcl {
        // The selection `pretrain` used: its first draw is the
        // "selector" fork of the run's master RNG.
        let sel =
            E2gclModel::default().select_nodes(g, x, &mut SeedRng::new(seed).fork("selector"));
        let check = sel.validate(g.num_nodes(), budget(g.num_nodes()));
        r.check(check.is_ok(), || format!("Selection::validate: {check:?}"));
        r.note(format!(
            "selection: {} of {} nodes; pretrain selection time {:.3} s",
            sel.nodes.len(),
            g.num_nodes(),
            res.selection_time.as_secs_f64()
        ));
    }
    if let Some(mb) = peak_rss_mb() {
        r.put("peak_rss_mb", mb, 1);
    }
}

/// What the linalg probes and counters need from one replayed epoch.
struct EpochProbe {
    /// A view adjacency and the features it multiplies, for SpMM GFLOP/s.
    adj: SparseMatrix,
    feats: Matrix,
    /// Σ n_b² over InfoNCE batches (0 for the margin loss).
    infonce_n2: f64,
    view_nodes: usize,
}

/// The traced run: per-layer metrics.
pub fn run_traced(kind: Kind, seed: u64, r: &mut Report) {
    let mut tr = Tracer::new(true);
    let data = tr.span("datasets.generate", 0, || generate(kind, seed));
    r.put("datasets.gen_s", tr.total("datasets.generate", 0), 1);
    let (g, x) = (&data.graph, &data.features);
    let cfg = kind.config();
    let model = kind.model();

    // Untraced reference: a warm-up call, then the measured call.
    let mut reference = None;
    for _ in 0..2 {
        r.attempted += 1;
        let allocs = alloc_stats::matrix_allocs();
        let t = Instant::now();
        match model.pretrain(g, x, &cfg, &mut SeedRng::new(seed)) {
            Ok(res) => {
                let wall = t.elapsed().as_secs_f64();
                let allocs = alloc_stats::matrix_allocs() - allocs;
                reference = Some((wall, res.selection_time.as_secs_f64(), allocs));
            }
            Err(e) => {
                r.failed += 1;
                r.errors.push(format!("reference pretrain: {e}"));
            }
        }
    }
    let Some((wall, sel_s, allocs)) = reference else {
        return;
    };
    let epochs = cfg.epochs as f64;
    r.put("linalg.matrix_allocs_per_op", allocs as f64, 1);
    let untraced_epoch_s = (wall - sel_s) / epochs;
    r.note(format!(
        "reference pretrain: {wall:.3} s, selection {sel_s:.3} s, {allocs} matrix allocations"
    ));

    let mut rng = SeedRng::new(seed ^ 0x7ace);
    let (oneoff_s, probe, epochs_traced, overhead_pct) = match kind {
        Kind::E2gcl => replay_e2gcl(&data, &cfg, &mut tr, &mut rng, r),
        Kind::GraceMinibatch => replay_grace(&data, &cfg, &mut tr, &mut rng, r),
    };
    let epoch_idx = epochs_traced.traced.start;
    let epoch_s = tr.spans()[epoch_idx].secs();
    r.put("e2gcl.self_s", tr.self_secs(epoch_idx), 1);
    put_shares(&tr, &epochs_traced, epochs, r);
    for (metric, span) in [
        ("graph.norm_s", "graph.norm"),
        ("nn.gcn_fwd_s", "nn.gcn_fwd"),
        ("nn.gcn_bwd_s", "nn.gcn_bwd"),
        ("nn.optim_s", "nn.optim"),
    ] {
        r.put(metric, tr.total(span, epoch_idx), 1);
    }
    r.put(
        "trace.coverage",
        (epoch_s + oneoff_s / epochs) / untraced_epoch_s,
        1,
    );
    r.put("trace.overhead_pct", overhead_pct, 1);
    r.put(
        "linalg.spmm_gflops",
        spmm_gflops(&probe.adj, &probe.feats),
        7,
    );
    if kind == Kind::GraceMinibatch {
        r.put("graph.view_nodes", probe.view_nodes as f64, 1);
        let d = GraceConfig::default().proj_dim as f64;
        // Forward: z1·z2ᵀ (2n²d) plus two half-computed syrks (n²d each);
        // backward: four n×n by n×d GEMMs (8n²d).
        r.put(
            "linalg.infonce_flops_per_epoch",
            12.0 * probe.infonce_n2 * d,
            1,
        );
        r.put(
            "linalg.matmul_transpose_gflops",
            matmul_transpose_gflops(GRACE_BATCH_NODES, GraceConfig::default().proj_dim),
            7,
        );
    }
    let out =
        std::path::Path::new(".bench_out").join(format!("trace-{}-{seed}.jsonl", kind.workload()));
    if let Err(e) = tr.write_jsonl(&out) {
        r.errors.push(format!("writing {}: {e}", out.display()));
    }
    r.note(format!(
        "trace: {} spans written to {}; untraced epoch {untraced_epoch_s:.4} s, replayed epoch {epoch_s:.4} s",
        tr.spans().len(),
        out.display()
    ));
}

/// Span ranges of the two replayed epochs.
struct Epochs {
    warm: Range<usize>,
    /// Starts with the traced epoch's own span.
    traced: Range<usize>,
}

/// Replays two epochs: the first warms up, the second is the traced
/// steady-state epoch. Returns its probe, the span ranges of both and the
/// tracer's overhead on the traced one in percent.
fn two_epochs(
    tr: &mut Tracer,
    mut epoch: impl FnMut(&mut Tracer) -> EpochProbe,
) -> (EpochProbe, Epochs, f64) {
    let start = tr.mark();
    epoch(tr);
    let mark = tr.mark();
    let probe = epoch(tr);
    let epochs = Epochs {
        warm: start..mark,
        traced: mark..tr.mark(),
    };
    assert_eq!(tr.spans()[mark].name, "e2gcl.epoch", "traced epoch span");
    let overhead = tr.overhead_pct(mark, tr.spans()[mark].secs());
    (probe, epochs, overhead)
}

/// `<crate>.share_pct` of one whole `pretrain` call, rebuilt from the
/// replay: every one-off span once (the dataset, which is set-up, and the
/// stand-alone `assign_weights` re-run left out) plus `epochs` times the
/// traced epoch.
fn put_shares(tr: &Tracer, e: &Epochs, epochs: f64, r: &mut Report) {
    let skip = ["datasets.generate", "selector.assign_weights"];
    let all = tr.self_by_crate(0..tr.mark(), &skip);
    let warm = tr.self_by_crate(e.warm.clone(), &skip);
    let epoch = tr.self_by_crate(e.traced.clone(), &skip);
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let per_call = |k: &str| get(&all, k) - get(&warm, k) + (epochs - 1.0) * get(&epoch, k);
    let total: f64 = all.keys().map(|k| per_call(k)).sum();
    for k in all.keys().filter(|k| !LAYERS.contains(k)) {
        r.errors.push(format!("span crate {k} has no share metric"));
    }
    for layer in LAYERS {
        r.put(share_metric(layer), 100.0 * per_call(layer) / total, 1);
    }
}

/// E²GCL's batched full-graph epoch (the default `GlobalBatched` view mode
/// with the Eq. (5) margin loss), mirroring the model's own step.
fn replay_e2gcl(
    data: &NodeDataset,
    cfg: &TrainConfig,
    tr: &mut Tracer,
    rng: &mut SeedRng,
    r: &mut Report,
) -> (f64, EpochProbe, Epochs, f64) {
    let (g, x) = (&data.graph, &data.features);
    let conf = E2gclConfig::default();
    let n = g.num_nodes();
    let greedy = match &conf.selector {
        SelectorKind::Greedy(c) => GreedySelector::new(c.clone()),
        _ => unreachable!("the paper default selects with Alg. 2"),
    };
    let mark = tr.mark();
    let sel = tr.span("selector.select", 0, || {
        greedy.select(g, x, budget(n), &mut rng.fork("selector"))
    });
    r.put("selector.select_s", tr.total("selector.select", mark), 1);
    let check = sel.validate(n, budget(n));
    r.check(check.is_ok(), || {
        format!("Selection::validate (replay): {check:?}")
    });
    // Alg. 2 line 10 on its own, over the same raw aggregates.
    let repr = norm::raw_aggregate(g, x, greedy.config.layers);
    tr.span("selector.assign_weights", 0, || {
        assign_weights(&repr, &sel.nodes)
    });
    drop(repr);
    r.put(
        "selector.assign_weights_s",
        tr.total("selector.assign_weights", mark),
        1,
    );
    r.put("selector.cross_bytes", (n * sel.nodes.len() * 4) as f64, 1);

    let oneoff = tr.mark();
    let mut view = conf.view.clone();
    view.edge_aware = true;
    view.feature_aware = true;
    let generator = tr.span("views.generator_new", 0, || {
        ViewGenerator::new(g, x, view, &mut rng.fork("views"))
    });
    let mut enc = tr.span("nn.init", 0, || {
        GcnEncoder::new(&cfg.encoder_dims(x.cols()), &mut rng.fork("init"))
    });
    let adj_orig = tr.span("graph.norm_orig", 0, || norm::normalized_adjacency(g));
    let mut opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
    let mut train_rng = rng.fork("train");
    let gen_new_s = tr.total("views.generator_new", oneoff);

    let (probe, epochs, overhead) = two_epochs(tr, |tr| {
        tr.enter("e2gcl.epoch", 0);
        let (g1, x1) = tr.span("views.sample_global_view", 0, || {
            generator.sample_global_view(conf.tau_hat, conf.eta_hat, &mut train_rng)
        });
        let (g2, x2) = tr.span("views.sample_global_view", 0, || {
            generator.sample_global_view(conf.tau_tilde, conf.eta_tilde, &mut train_rng)
        });
        let a1 = tr.span("graph.norm", 0, || norm::normalized_adjacency(&g1));
        let a2 = tr.span("graph.norm", 0, || norm::normalized_adjacency(&g2));
        let (h1, c1) = tr.span("nn.gcn_fwd", 0, || enc.forward(&a1, &x1));
        let (h2, c2) = tr.span("nn.gcn_fwd", 0, || enc.forward(&a2, &x2));
        let mut d_h1 = Matrix::zeros(h1.rows(), h1.cols());
        let mut d_h2 = Matrix::zeros(h2.rows(), h2.cols());
        let anchors = &sel.nodes;
        let num_batches = anchors.len().div_ceil(cfg.batch_size).max(1);
        let bsz = cfg.batch_size.min(anchors.len());
        for _ in 0..num_batches {
            let batch: Vec<usize> = (0..bsz)
                .map(|_| anchors[train_rng.weighted_index(&sel.weights)])
                .collect();
            let hb1 = h1.select_rows(&batch);
            let hb2 = h2.select_rows(&batch);
            let negatives: Vec<Vec<usize>> = (0..bsz)
                .map(|i| {
                    (0..conf.negatives)
                        .map(|_| {
                            let u = train_rng.below(bsz - 1);
                            u + usize::from(u >= i)
                        })
                        .collect()
                })
                .collect();
            let (d_hat, d_rest) = tr.span("nn.margin_loss", 0, || {
                let (u1, n1) = loss::normalize_rows(&hb1);
                let (u2, n2) = loss::normalize_rows(&hb2);
                let out = loss::margin_contrastive(&u1, &u2, &u2, &negatives, conf.margin);
                let mut du2 = out.d_tilde;
                du2.add_assign(&out.d_neg);
                (
                    loss::normalize_backward(&u1, &n1, &out.d_hat),
                    loss::normalize_backward(&u2, &n2, &du2),
                )
            });
            let inv = 1.0 / num_batches as f32;
            for (i, &v) in batch.iter().enumerate() {
                for (dst, &src) in d_h1.row_mut(v).iter_mut().zip(d_hat.row(i)) {
                    *dst += src * inv;
                }
                for (dst, &src) in d_h2.row_mut(v).iter_mut().zip(d_rest.row(i)) {
                    *dst += src * inv;
                }
            }
        }
        let grads = tr.span("nn.gcn_bwd", 0, || {
            let mut acc = None;
            GcnEncoder::accumulate(&mut acc, enc.backward(&a1, &c1, &d_h1), 1.0);
            GcnEncoder::accumulate(&mut acc, enc.backward(&a2, &c2, &d_h2), 1.0);
            acc.unwrap_or_default()
        });
        tr.span("nn.optim", 0, || opt.step(enc.params_mut(), &grads));
        tr.exit();
        EpochProbe {
            adj: a1,
            feats: x1,
            infonce_n2: 0.0,
            view_nodes: n,
        }
    });
    let epoch_idx = epochs.traced.start;
    let view_gen_s =
        gen_new_s / cfg.epochs as f64 + tr.total("views.sample_global_view", epoch_idx);
    r.put("views.view_gen_s", view_gen_s, 1);
    r.put("nn.margin_loss_s", tr.total("nn.margin_loss", epoch_idx), 1);
    r.absent(
        "nn.infonce_s",
        "train-e2gcl trains with the Eq. (5) margin loss",
    );
    let embed_mark = tr.mark();
    tr.span("nn.embed", 0, || enc.embed(&adj_orig, x));
    let oneoff_s = tr.total("views.generator_new", oneoff)
        + tr.total("nn.init", oneoff)
        + tr.total("graph.norm_orig", oneoff)
        + tr.total("nn.embed", embed_mark);
    (oneoff_s, probe, epochs, overhead)
}

/// GRACE's mini-batch epoch with the full InfoNCE loss, mirroring the
/// model's own step: sample → augment → normalise → GCN → head → InfoNCE
/// → backward, one optimiser step per epoch.
fn replay_grace(
    data: &NodeDataset,
    cfg: &TrainConfig,
    tr: &mut Tracer,
    rng: &mut SeedRng,
    r: &mut Report,
) -> (f64, EpochProbe, Epochs, f64) {
    let (g, x) = (&data.graph, &data.features);
    let conf = GraceConfig::default();
    let n = g.num_nodes();
    let oneoff = tr.mark();
    let adj_orig = tr.span("graph.norm_orig", 0, || norm::normalized_adjacency(g));
    let (mut enc, mut head) = tr.span("nn.init", 0, || {
        let enc = GcnEncoder::new(&cfg.encoder_dims(x.cols()), &mut rng.fork("init"));
        let head = Mlp::new(
            cfg.embed_dim,
            conf.proj_dim,
            conf.proj_dim,
            &mut rng.fork("head"),
        );
        (enc, head)
    });
    let mut opt = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
    let mut train_rng = rng.fork("train");
    let hops = cfg.encoder_dims(x.cols()).len() - 1;
    let sampler = NeighborSampler::new(hops, Some(GRACE_FANOUT));
    let (mut ws1, mut ws2) = (GcnWorkspace::new(), GcnWorkspace::new());
    let (mut hw1, mut hw2) = (MlpWorkspace::new(), MlpWorkspace::new());
    let mut nce = InfoNceScratch::default();
    let (mut hb1, mut hb2) = (Matrix::default(), Matrix::default());
    let (mut d_h1, mut d_h2) = (Matrix::default(), Matrix::default());

    let (probe, epochs, overhead) = two_epochs(tr, |tr| {
        tr.enter("e2gcl.epoch", 0);
        let mut order: Vec<usize> = (0..n).collect();
        train_rng.shuffle(&mut order);
        let batches: Vec<&[usize]> = order.chunks(GRACE_BATCH_NODES).collect();
        let num_batches = batches.len() as f32;
        let mut acc: Option<Vec<Matrix>> = None;
        let mut probe = None;
        let mut infonce_n2 = 0.0;
        let mut view_nodes = 0;
        for (b, seeds) in batches.iter().enumerate() {
            if seeds.len() < 2 {
                continue;
            }
            let req = b as u64;
            let (view, xv) = tr.span("graph.sample", req, || {
                let view = sampler.sample(g, seeds, &mut train_rng);
                let xv = view.features(x);
                (view, xv)
            });
            view_nodes += view.len();
            let (g1, x1, g2, x2) = tr.span("views.augment", req, || {
                let g1 = uniform::drop_edges_uniform(&view.graph, conf.drop_edge.0, &mut train_rng);
                let x1 = uniform::mask_feature_dims(&xv, conf.mask_feat.0, &mut train_rng);
                let g2 = uniform::drop_edges_uniform(&view.graph, conf.drop_edge.1, &mut train_rng);
                let x2 = uniform::mask_feature_dims(&xv, conf.mask_feat.1, &mut train_rng);
                (g1, x1, g2, x2)
            });
            let a1 = tr.span("graph.norm", req, || norm::normalized_adjacency(&g1));
            let a2 = tr.span("graph.norm", req, || norm::normalized_adjacency(&g2));
            tr.span("nn.gcn_fwd", req, || {
                enc.forward_with(&a1, &x1, &mut ws1);
                enc.forward_with(&a2, &x2, &mut ws2);
            });
            let locals: Vec<usize> = seeds
                .iter()
                .map(|&v| view.local(v).expect("seed is in its sampled view"))
                .collect();
            ws1.output().select_rows_into(&locals, &mut hb1);
            ws2.output().select_rows_into(&locals, &mut hb2);
            tr.span("nn.head", req, || {
                head.forward_with(&hb1, &mut hw1);
                head.forward_with(&hb2, &mut hw2);
            });
            tr.span("nn.infonce", req, || {
                loss::info_nce_with(hw1.output(), hw2.output(), conf.tau, &mut nce)
            });
            infonce_n2 += (locals.len() * locals.len()) as f64;
            tr.span("nn.head", req, || {
                head.backward_with(&hb1, nce.d_z1(), &mut hw1);
                head.backward_with(&hb2, nce.d_z2(), &mut hw2);
            });
            d_h1.reset_zeroed(view.len(), cfg.embed_dim);
            d_h2.reset_zeroed(view.len(), cfg.embed_dim);
            for (i, &l) in locals.iter().enumerate() {
                d_h1.set_row(l, hw1.d_input().row(i));
                d_h2.set_row(l, hw2.d_input().row(i));
            }
            tr.span("nn.head", req, || {
                head.step(hw1.grads(), cfg.lr / num_batches, 0.0);
                head.step(hw2.grads(), cfg.lr / num_batches, 0.0);
            });
            tr.span("nn.gcn_bwd", req, || {
                enc.backward_with(&a1, &mut ws1, &d_h1);
                enc.backward_with(&a2, &mut ws2, &d_h2);
                GcnEncoder::accumulate(&mut acc, ws1.grads().to_vec(), 1.0 / num_batches);
                GcnEncoder::accumulate(&mut acc, ws2.grads().to_vec(), 1.0 / num_batches);
            });
            if probe.is_none() {
                probe = Some((a1, x1));
            }
        }
        let grads = acc.unwrap_or_default();
        tr.span("nn.optim", 0, || opt.step(enc.params_mut(), &grads));
        tr.exit();
        let (adj, feats) = probe.expect("an epoch has at least one batch");
        EpochProbe {
            adj,
            feats,
            infonce_n2,
            view_nodes,
        }
    });
    let epoch_idx = epochs.traced.start;
    for (metric, span) in [
        ("graph.sample_s", "graph.sample"),
        ("views.augment_s", "views.augment"),
        ("nn.head_s", "nn.head"),
        ("nn.infonce_s", "nn.infonce"),
    ] {
        r.put(metric, tr.total(span, epoch_idx), 1);
    }
    let embed_mark = tr.mark();
    tr.span("nn.embed", 0, || enc.embed(&adj_orig, x));
    let oneoff_s = tr.total("nn.init", oneoff)
        + tr.total("graph.norm_orig", oneoff)
        + tr.total("nn.embed", embed_mark);
    (oneoff_s, probe, epochs, overhead)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut SeedRng) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.normal()).collect())
}

/// Median GFLOP/s of `f` over seven runs doing `flops` each.
fn gflops(flops: f64, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    flops / median(&times) / 1e9
}

/// `z1·z2ᵀ` at the InfoNCE batch shape (n×d by d×n).
fn matmul_transpose_gflops(n: usize, d: usize) -> f64 {
    let mut rng = SeedRng::new(0x6e6d);
    let a = random_matrix(n, d, &mut rng);
    let b = random_matrix(n, d, &mut rng);
    let flops = 2.0 * (n * n * d) as f64;
    gflops(flops, || {
        std::hint::black_box(a.matmul_transpose(&b));
    })
}

/// Sparse adjacency times dense features at a replayed view's shape.
pub fn spmm_gflops(adj: &SparseMatrix, x: &Matrix) -> f64 {
    let flops = 2.0 * (adj.nnz() * x.cols()) as f64;
    gflops(flops, || {
        std::hint::black_box(adj.spmm(x));
    })
}
