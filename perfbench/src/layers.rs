//! The traced run: a per-layer split of the study, timed from the
//! benchmark's own code around calls into each layer's public functions,
//! plus the counters `RoundRecord` already carries.

use crate::study::{self, Kept, Kind, Outcome, Rep, Topology};
use crate::Checks;
use fedca_compress::wire::{self, MessageReader, PayloadView, UpdateMessage};
use fedca_compress::Compression;
use fedca_core::client::{run_client_round, ClientRoundReport, RoundPlan};
use fedca_core::executor::ClientArena;
use fedca_core::metrics::RoundRecord;
use fedca_core::{Trainer, Workload};
use fedca_nn::models::{CnnConfig, WrnConfig};
use fedca_nn::{softmax_cross_entropy_into, Sgd};
use fedca_perfbench::{median, Metric};
use fedca_sim::faults::ClientFaults;
use fedca_tensor::{dataplane, gemm, parallel, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Times `f` until `budget` has passed (at least `min` calls) and returns
/// the median call time in ms.
fn time_calls(min: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < min || t0.elapsed() < budget {
        let t = Instant::now();
        f();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(ms)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A record with every operational field (host timings, residency and
/// transport counters) zeroed: what must match across topologies.
fn canonical(r: &RoundRecord) -> RoundRecord {
    RoundRecord {
        host_ms: 0.0,
        allocs_avoided: 0,
        n_hydrated: 0,
        n_evicted: 0,
        hydrate_host_us: 0.0,
        decode_host_us: 0.0,
        aggregate_host_us: 0.0,
        n_retries: 0,
        n_heartbeat_missed: 0,
        n_quarantined: 0,
        n_reassigned: 0,
        ..r.clone()
    }
}

/// `(m, n, k)` of the largest GEMM (by multiply-adds) in one forward pass
/// at `batch`, in the form the layers call it: a convolution computes
/// `W[out_c, in_c·k²] · col[in_c·k², batch·oh·ow]`, a linear layer
/// `x[batch, in] · Wᵀ[in, out]`. Ties keep the earliest layer.
fn largest_gemm(kind: Kind, batch: usize) -> (usize, usize, usize) {
    let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
    match kind {
        Kind::WrnFedavg => {
            let c = WrnConfig::scaled();
            let mut hw = c.input_hw;
            shapes.push((c.width, batch * hw * hw, c.in_channels * 9));
            let mut in_c = c.width;
            for (g, out_c) in [c.width, 2 * c.width, 4 * c.width].into_iter().enumerate() {
                for b in 0..c.blocks_per_group {
                    let first_in = if b == 0 { in_c } else { out_c };
                    if b == 0 && g > 0 {
                        hw /= 2;
                    }
                    shapes.push((out_c, batch * hw * hw, first_in * 9));
                    shapes.push((out_c, batch * hw * hw, out_c * 9));
                }
                in_c = out_c;
            }
            shapes.push((batch, c.classes, 4 * c.width));
        }
        Kind::CnnFedcaSharded => {
            let c = CnnConfig::scaled();
            let s1 = c.input_hw - 4;
            let s2 = s1 / 2 - 4;
            let flat = 16 * (s2 / 2) * (s2 / 2);
            shapes.push((6, batch * s1 * s1, c.in_channels * 25));
            shapes.push((16, batch * s2 * s2, 6 * 25));
            shapes.push((batch, 120, flat));
            shapes.push((batch, 84, 120));
            shapes.push((batch, c.classes, 84));
        }
        // Mirrors `Workload::tiny_mlp`: 36 → 32 → 4.
        Kind::MlpPopulation => {
            shapes.push((batch, 32, 36));
            shapes.push((batch, 4, 32));
        }
    }
    shapes
        .into_iter()
        .rev()
        .max_by_key(|&(m, n, k)| m * n * k)
        .expect("every model has a GEMM")
}

/// Replays client rounds outside the runner: a factory-built client state
/// and a reused arena, two participations per client (the first is a
/// FedCA anchor). Returns the median ms and the last report.
fn replay_clients(kept: &Kept, o: &Outcome, kind: Kind) -> (f64, ClientRoundReport) {
    let Kept { trainer, workload } = kept;
    let factory = trainer.store().factory();
    let scheme = kind.scheme();
    let opts = scheme.client_options();
    let period = scheme.profile_period();
    let deadline = median(o.records.iter().map(RoundRecord::duration));
    let mut arena = ClientArena::new(workload);
    let mut ms = Vec::new();
    let mut last = None;
    for id in 0..4 {
        let mut state = factory.build(id);
        for round in 0..2 {
            let plan = RoundPlan {
                round: o.records.len() + round,
                start: trainer.clock(),
                deadline,
                planned_iters: o.fl.local_iters,
                is_anchor: period != 0 && state.participations.is_multiple_of(period),
                faults: ClientFaults::none(),
            };
            state.participations += 1;
            let t = Instant::now();
            let report = run_client_round(
                &mut state,
                &mut arena,
                trainer.layout(),
                trainer.global_params(),
                &workload.train,
                workload,
                &o.fl,
                &opts,
                &plan,
            );
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            last = Some(report);
        }
    }
    (median(ms), last.expect("at least one replay"))
}

/// Encodes `update` under `compression` as one message per the client's
/// layout, and walks `wire_update` back into a dense vector. Returns
/// `(encode µs, decode µs, decoded)`.
fn wire_probe(
    trainer: &Trainer,
    compression: Compression,
    report: &ClientRoundReport,
) -> (f64, f64, Vec<f32>) {
    let layout = trainer.layout();
    let update = report.update.as_slice();
    let mut rng = StdRng::seed_from_u64(0);
    let encode_ms = time_calls(20, Duration::from_millis(200), || {
        let msg = UpdateMessage {
            round: 0,
            client: report.client_id as u32,
            layers: (0..layout.num_layers())
                .map(|l| {
                    (
                        l as u32,
                        compression.compress(&update[layout.range(l)], &mut rng),
                    )
                })
                .collect(),
        };
        black_box(wire::encode(&msg));
    });
    let bytes: &[u8] = report
        .wire_update
        .as_ref()
        .expect("an intact upload")
        .as_ref();
    let mut decoded = vec![0.0f32; update.len()];
    let decode_ms = time_calls(20, Duration::from_millis(200), || {
        let mut pos = 0;
        while pos < bytes.len() {
            let mut reader = MessageReader::new(&bytes[pos..]).expect("well-formed upload");
            while let Some(next) = reader.next_layer() {
                let (id, view) = next.expect("well-formed layer");
                view.decode_into(&mut decoded[layout.range(id as usize)]);
            }
            pos += reader.consumed();
        }
        black_box(&decoded);
    });
    (encode_ms * 1e3, decode_ms * 1e3, decoded)
}

/// Forward, backward and step ms per iteration at the workload's batch.
fn nn_probe(workload: &Workload, o: &Outcome) -> (f64, f64, f64) {
    let mut model = (workload.model_factory)();
    let idx: Vec<usize> = (0..o.fl.batch_size).collect();
    let (x, y) = workload.train.batch(&idx);
    let opt = Sgd::new(o.fl.lr, o.fl.weight_decay);
    let mut grad = Tensor::zeros([0]);
    let (mut fwd, mut bwd, mut step) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    for i in 0.. {
        let t = Instant::now();
        let logits = model.forward(black_box(&x));
        let t_fwd = t.elapsed();
        black_box(softmax_cross_entropy_into(&logits, &y, &mut grad));
        model.recycle(logits);
        model.zero_grad();
        let t = Instant::now();
        let gin = model.backward(&grad);
        let t_bwd = t.elapsed();
        model.recycle(gin);
        let t = Instant::now();
        model.step(&opt, None);
        let t_step = t.elapsed();
        // The first iterations fill the model's workspace; skip them.
        if i >= 2 {
            fwd.push(t_fwd.as_secs_f64() * 1e3);
            bwd.push(t_bwd.as_secs_f64() * 1e3);
            step.push(t_step.as_secs_f64() * 1e3);
        }
        if fwd.len() >= 10 && t0.elapsed() > Duration::from_millis(500) {
            break;
        }
    }
    (median(fwd), median(bwd), median(step))
}

/// GFLOP/s and thread count of the largest GEMM shape on the active tier.
fn gemm_probe(kind: Kind, batch: usize) -> (f64, usize, (usize, usize, usize)) {
    let (m, n, k) = largest_gemm(kind, batch);
    let a: Vec<f32> = (0..m * k).map(|i| ((i % 17) as f32 - 8.0) * 0.01).collect();
    let b: Vec<f32> = (0..k * n).map(|i| ((i % 13) as f32 - 6.0) * 0.01).collect();
    let mut c = vec![0.0f32; m * n];
    let ms = time_calls(10, Duration::from_millis(300), || {
        gemm::gemm_acc(false, false, m, n, k, black_box(&a), black_box(&b), &mut c);
    });
    black_box(&c);
    let gflops = 2.0 * (m * n * k) as f64 / (ms * 1e-3) / 1e9;
    (gflops, parallel::matmul_thread_count(m * n * k), (m, n, k))
}

/// Throughput of the fused int8 dequantize-accumulate over the whole
/// model, in GB/s of packed bytes read plus f32 accumulator read and
/// written.
fn axpy_probe(global: &[f32]) -> f64 {
    let mut rng = StdRng::seed_from_u64(0);
    let msg = UpdateMessage {
        round: 0,
        client: 0,
        layers: vec![(0, Compression::Int8.compress(global, &mut rng))],
    };
    let bytes = wire::encode(&msg);
    let mut reader = MessageReader::new(bytes.as_ref()).expect("fresh message");
    let (_, view) = reader
        .next_layer()
        .expect("one layer")
        .expect("fresh layer");
    let PayloadView::Quantized {
        bits,
        num_levels,
        scale,
        packed,
        ..
    } = view
    else {
        unreachable!("int8 compresses to a quantized payload")
    };
    let width = (bits + 1).min(8) as u32;
    let mut y = vec![0.0f32; global.len()];
    // Enough repetitions per timed call to rise well above timer grain.
    let inner = (1 << 20) / global.len().max(1) + 1;
    let ms = time_calls(10, Duration::from_millis(200), || {
        for _ in 0..inner {
            dataplane::axpy_quantized(0.5, scale, num_levels, width, black_box(packed), &mut y);
        }
    });
    black_box(&y);
    let bytes_moved = (packed.len() + 8 * global.len()) as f64 * inner as f64;
    bytes_moved / (ms * 1e-3) / 1e9
}

/// Host seconds of the first `rounds` rounds of the study on `topo`
/// (set-up excluded).
fn slice_s(kind: Kind, seed: u64, topo: Topology, work: &Path, rounds: usize) -> Option<f64> {
    let rep = study::slice(kind, seed, topo, work, rounds);
    rep.outcome.map(|o| o.round_ms.iter().sum::<f64>() / 1e3)
}

/// Prints the traced-run report and returns every per-layer metric.
pub fn traced_report(
    kind: Kind,
    seed: u64,
    reps: &mut [Rep],
    work: &Path,
    checks: &mut Checks,
) -> Vec<Metric> {
    let plan = kind.plan();
    let Some(kept) = reps
        .iter_mut()
        .rev()
        .find_map(|r| r.outcome.as_mut().and_then(|o| o.kept.take()))
    else {
        checks.check(
            "traced_study",
            false,
            "no traced repetition kept its trainer",
        );
        return Vec::new();
    };
    let reps: &[Rep] = reps;
    let untraced_study = median(
        reps.iter()
            .filter(|r| !r.traced)
            .filter_map(|r| r.outcome.as_ref())
            .map(|o| o.study_s),
    );
    let traced: Vec<&Outcome> = reps
        .iter()
        .filter(|r| r.traced)
        .filter_map(|r| r.outcome.as_ref())
        .collect();
    let Some(last) = traced.last() else {
        checks.check("traced_study", false, "no traced repetition completed");
        return Vec::new();
    };

    // Outside timings of the calls into each layer.
    let setups = || traced.iter().flat_map(|o| &o.setups);
    let setup_s = median(setups().map(|s| s.total_s));
    let study_s = median(traced.iter().map(|o| o.study_s));
    let data_ms = median(setups().map(|s| s.data_build_s * 1e3));
    let new_ms = median(setups().map(|s| s.runner_new_s * 1e3));
    let pooled = |f: &dyn Fn(&Outcome) -> Vec<f64>| median(traced.iter().flat_map(|o| f(o)));
    let round_ms = pooled(&|o| o.round_ms.clone());
    let eval_ms = pooled(&|o| o.eval_ms.clone());
    let per_round = |f: fn(&RoundRecord) -> f64| pooled(&|o| o.records.iter().map(f).collect());
    let hydrate_ms = per_round(|r| r.hydrate_host_us / 1e3);
    let decode_ms = per_round(|r| r.decode_host_us / 1e3);
    let aggregate_ms = per_round(|r| r.aggregate_host_us / 1e3);
    let rest_ms = pooled(&|o| {
        o.round_ms
            .iter()
            .zip(&o.records)
            .map(|(ms, r)| ms - (r.hydrate_host_us + r.decode_host_us + r.aggregate_host_us) / 1e3)
            .collect()
    });

    // A checkpoint write: the study's own, else one written now.
    let (ckpt_ms, ckpt_bytes) = if plan.checkpoint_every > 0 {
        (pooled(&|o| o.checkpoint_ms.clone()), last.checkpoint_bytes)
    } else {
        let t = Instant::now();
        let path = kept.trainer.checkpoint().expect("checkpoint write");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let _ = std::fs::remove_dir_all(&last.fl.checkpoint.dir);
        (ms, bytes)
    };

    // Counters from the records (identical across repetitions).
    let recs = &last.records;
    let sum = |f: fn(&RoundRecord) -> f64| recs.iter().map(f).sum::<f64>();
    let selected = sum(|r| r.n_selected as f64);
    let eager = sum(|r| r.eager_events.len() as f64);
    let retransmitted = sum(|r| r.eager_events.iter().filter(|e| e.retransmitted).count() as f64);

    // Replayed layers.
    let (client_ms, report) = replay_clients(&kept, last, kind);
    let (encode_us, decode_us, decoded) = wire_probe(&kept.trainer, last.fl.compression, &report);
    let same_bits = decoded
        .iter()
        .zip(report.update.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    checks.check(
        "wire_decode_matches_update",
        same_bits,
        format!("{} params", decoded.len()),
    );
    let (fwd_ms, bwd_ms, step_ms) = nn_probe(&kept.workload, last);
    let (gflops, gemm_threads, shape) = gemm_probe(kind, last.fl.batch_size);
    let axpy_gbps = axpy_probe(kept.trainer.global_params());

    // Coverage: the named children must account for their parent.
    let setup_cover = median(setups().map(|s| (s.data_build_s + s.runner_new_s) / s.total_s));
    let study_cover = median(traced.iter().map(|o| {
        let ms: f64 = o
            .round_ms
            .iter()
            .chain(&o.eval_ms)
            .chain(&o.checkpoint_ms)
            .sum();
        ms / 1e3 / o.study_s
    }));
    checks.check(
        "setup_children_cover",
        setup_cover >= 0.95,
        format!("{:.2}%", 100.0 * setup_cover),
    );
    checks.check(
        "study_children_cover",
        study_cover >= 0.95,
        format!("{:.2}%", 100.0 * study_cover),
    );

    // Shut the study's trainer (and any shard children) down before the
    // twin studies.
    drop(kept);

    // The topology twin must reproduce the study bit for bit.
    let own = Topology::of(kind);
    let twin = study::run(kind, seed, own.twin(), work, false);
    let (shard_slowdown, twin_ok) = match &twin.outcome {
        Some(t) => {
            let same = t.fingerprint == last.fingerprint
                && t.records
                    .iter()
                    .map(canonical)
                    .eq(last.records.iter().map(canonical));
            let own_study = median(
                reps.iter()
                    .filter_map(|r| r.outcome.as_ref())
                    .map(|o| o.study_s),
            );
            let slowdown = if own.shards > 0 {
                own_study / t.study_s
            } else {
                t.study_s / own_study
            };
            (slowdown, same)
        }
        None => (0.0, false),
    };
    checks.check(
        "topology_twin_bit_identical",
        twin_ok,
        format!(
            "{} shards x {} workers",
            own.twin().shards,
            own.twin().workers
        ),
    );
    let one = Topology {
        shards: 0,
        workers: 1,
    };
    let two = Topology {
        shards: 0,
        workers: 2,
    };
    let worker_scaling = match (
        slice_s(kind, seed, one, work, plan.slice_rounds),
        slice_s(kind, seed, two, work, plan.slice_rounds),
    ) {
        (Some(t1), Some(t2)) => t1 / (2.0 * t2),
        _ => {
            checks.check("worker_scaling_slices", false, "a slice panicked");
            0.0
        }
    };

    let m = Metric::new;
    let metrics = vec![
        m("data.build_ms", data_ms, "ms"),
        m("runner.new_ms", new_ms, "ms"),
        m("runner.round_ms", round_ms, "ms"),
        m("population.hydrate_ms", hydrate_ms, "ms"),
        m("server.decode_ms", decode_ms, "ms"),
        m("server.aggregate_ms", aggregate_ms, "ms"),
        m("runner.round_rest_ms", rest_ms, "ms"),
        m("population.hydrated", sum(|r| r.n_hydrated as f64), "count"),
        m("population.evicted", sum(|r| r.n_evicted as f64), "count"),
        m("population.resident", last.resident as f64, "count"),
        m("client.round_ms", client_ms, "ms"),
        m(
            "client.iters_frac",
            ratio(
                recs.iter().flat_map(|r| &r.iters_done).sum::<usize>() as f64,
                recs.iter().flat_map(|r| &r.iters_planned).sum::<usize>() as f64,
            ),
            "ratio",
        ),
        m("client.eager_layers", ratio(eager, selected), "count"),
        m(
            "client.retransmit_frac",
            ratio(retransmitted, eager),
            "ratio",
        ),
        m(
            "server.aggregated_frac",
            ratio(sum(|r| r.n_aggregated as f64), selected),
            "ratio",
        ),
        m(
            "sim.virtual_round_s",
            last.virtual_s / recs.len() as f64,
            "s",
        ),
        m("nn.forward_ms", fwd_ms, "ms"),
        m("nn.backward_ms", bwd_ms, "ms"),
        m("nn.step_ms", step_ms, "ms"),
        m("tensor.gemm_gflops", gflops, "GFLOP/s"),
        m("tensor.gemm_threads", gemm_threads as f64, "count"),
        m("tensor.axpy_quantized_gbps", axpy_gbps, "GB/s"),
        m("executor.worker_scaling", worker_scaling, "ratio"),
        m("eval.ms", eval_ms, "ms"),
        m("checkpoint.write_ms", ckpt_ms, "ms"),
        m("checkpoint.bytes", ckpt_bytes as f64, "bytes"),
        m("wire.encode_us", encode_us, "us"),
        m("wire.decode_us", decode_us, "us"),
        m(
            "wire.ratio",
            ratio(sum(|r| r.wire_bytes_uploaded), sum(|r| r.wire_bytes_dense)),
            "ratio",
        ),
        m("shard.slowdown", shard_slowdown, "ratio"),
        m("transport.retries", sum(|r| r.n_retries as f64), "count"),
        m(
            "transport.heartbeats_missed",
            sum(|r| r.n_heartbeat_missed as f64),
            "count",
        ),
        m(
            "transport.quarantined",
            sum(|r| r.n_quarantined as f64),
            "count",
        ),
        m("trace.overhead_s", study_s - untraced_study, "s"),
    ];

    // The split as % of its parent (totals per study, medians over the
    // traced repetitions).
    let n_rounds = recs.len() as f64;
    let n_evals = last.eval_ms.len().max(1) as f64;
    let n_ckpts = recs.len().checked_div(plan.checkpoint_every).unwrap_or(0) as f64;
    let pct = |part: f64, whole: f64| 100.0 * ratio(part, whole);
    println!("layer setup_s {:.3} ms", setup_s * 1e3);
    for (name, v) in [("data.build_ms", data_ms), ("runner.new_ms", new_ms)] {
        println!(
            "layer   {name} {v:.3} ms ({:.1}% of setup_s)",
            pct(v, setup_s * 1e3)
        );
    }
    println!("layer study_s {:.3} ms", study_s * 1e3);
    for (name, per, n) in [
        ("runner.round_ms", round_ms, n_rounds),
        ("eval.ms", eval_ms, n_evals),
        ("checkpoint.write_ms", ckpt_ms, n_ckpts),
    ] {
        println!(
            "layer   {name} {per:.3} ms x{n} ({:.1}% of study_s)",
            pct(per * n, study_s * 1e3)
        );
    }
    if n_ckpts == 0.0 {
        println!("layer   (checkpoint.write_ms timed on one write after the study)");
    }
    for (name, v) in [
        ("population.hydrate_ms", hydrate_ms),
        ("server.decode_ms", decode_ms),
        ("server.aggregate_ms", aggregate_ms),
        ("runner.round_rest_ms", rest_ms),
    ] {
        println!(
            "layer     {name} {v:.3} ms ({:.1}% of runner.round_ms)",
            pct(v, round_ms)
        );
    }
    println!(
        "layer client.round_ms {client_ms:.3} ms (replayed; nn per iteration {:.3} ms)",
        fwd_ms + bwd_ms + step_ms
    );
    println!(
        "layer tensor.gemm shape m={} n={} k={}",
        shape.0, shape.1, shape.2
    );
    println!(
        "layer trace.overhead_s {:.6} s (traced {study_s:.6} - untraced {untraced_study:.6})",
        study_s - untraced_study
    );
    for x in &metrics {
        println!("metric {} {:.6} {}", x.name, x.value, x.unit);
    }
    metrics
}
