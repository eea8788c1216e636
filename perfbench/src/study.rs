//! The three workloads and one timed run of a fixed-length study.

use fedca_compress::Compression;
use fedca_core::metrics::RoundRecord;
use fedca_core::workload::Scale;
use fedca_core::{CheckpointConfig, FlConfig, Scheme, Trainer, Workload};
use fedca_perfbench::params_fingerprint;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Compute-bound: scaled WRN, FedAvg, dense uploads, 2 in-process
    /// workers.
    WrnFedavg,
    /// The paper's mechanism plus the coordination machinery: CNN, FedCA,
    /// int8 uploads, 2 shard processes × 1 worker, evaluations and
    /// checkpoints.
    CnnFedcaSharded,
    /// Per-client overhead: tiny MLP over a million lazily hydrated
    /// clients, cohort 128, 2 in-process workers.
    MlpPopulation,
}

/// The fixed shape of one study.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Rounds per study.
    pub rounds: usize,
    /// Local iterations per client round.
    pub local_iters: usize,
    /// Evaluate after every this many rounds (and after the last).
    pub eval_every: usize,
    /// Write a checkpoint after every this many rounds (0: never).
    pub checkpoint_every: usize,
    /// Lowest acceptable final test accuracy.
    pub accuracy_floor: f32,
    /// Rounds of the study the 1- vs 2-worker scaling slice runs.
    pub slice_rounds: usize,
}

/// Where client rounds execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Shard processes (0: in-process).
    pub shards: usize,
    /// Workers per executor (per shard when sharded).
    pub workers: usize,
}

impl Topology {
    /// The workload's own topology.
    pub fn of(kind: Kind) -> Topology {
        match kind {
            Kind::CnnFedcaSharded => Topology {
                shards: 2,
                workers: 1,
            },
            Kind::WrnFedavg | Kind::MlpPopulation => Topology {
                shards: 0,
                workers: 2,
            },
        }
    }

    /// The same worker count on the other side of the process boundary:
    /// its twin must reproduce the study bit for bit.
    pub fn twin(self) -> Topology {
        if self.shards > 0 {
            Topology {
                shards: 0,
                workers: self.shards * self.workers,
            }
        } else {
            Topology {
                shards: self.workers,
                workers: 1,
            }
        }
    }
}

/// Seed of the federation itself: device speeds, the partition draw, client
/// selection and per-client sampling. It is part of each workload's
/// definition, so the work a FedCA study does (early stops, eager sends)
/// does not swing with `--seed`, which draws the synthetic data and the
/// model's initial weights.
const FLEET_SEED: u64 = 1;

const ALL: [Kind; 3] = [Kind::WrnFedavg, Kind::CnnFedcaSharded, Kind::MlpPopulation];

impl Kind {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WrnFedavg => "wrn_fedavg",
            Kind::CnnFedcaSharded => "cnn_fedca_sharded",
            Kind::MlpPopulation => "mlp_population",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Every name, `|`-separated.
    pub fn names() -> String {
        ALL.map(Kind::name).join("|")
    }

    /// The study's fixed shape.
    pub fn plan(self) -> Plan {
        match self {
            Kind::WrnFedavg => Plan {
                rounds: 3,
                local_iters: 10,
                eval_every: 2,
                checkpoint_every: 0,
                // 20 classes: three short rounds lift the WRN only a little
                // above chance, so the floor is chance itself; the loss
                // check in `main` shows it learns.
                accuracy_floor: 0.05,
                slice_rounds: 2,
            },
            Kind::CnnFedcaSharded => Plan {
                rounds: 8,
                local_iters: 40,
                eval_every: 2,
                checkpoint_every: 4,
                accuracy_floor: 0.4,
                slice_rounds: 4,
            },
            Kind::MlpPopulation => Plan {
                rounds: 200,
                local_iters: 6,
                eval_every: 100,
                checkpoint_every: 0,
                accuracy_floor: 0.8,
                slice_rounds: 50,
            },
        }
    }

    /// Clients selected per round.
    pub fn cohort(self) -> usize {
        match self {
            Kind::WrnFedavg | Kind::CnnFedcaSharded => 8,
            Kind::MlpPopulation => 128,
        }
    }

    /// Builds the workload (synthetic data; the partition is drawn by the
    /// trainer).
    pub fn workload(self, seed: u64) -> Workload {
        match self {
            Kind::WrnFedavg => Workload::wrn(Scale::Scaled, seed),
            Kind::CnnFedcaSharded => Workload::cnn(Scale::Scaled, seed),
            Kind::MlpPopulation => Workload::tiny_mlp(seed),
        }
    }

    /// The scheme under study.
    pub fn scheme(self) -> Scheme {
        match self {
            Kind::CnnFedcaSharded => Scheme::fedca_default(),
            Kind::WrnFedavg | Kind::MlpPopulation => Scheme::FedAvg,
        }
    }

    /// The federation config for `workload`, checkpointing into `ckpt_dir`.
    pub fn config(self, workload: &Workload, topo: Topology, ckpt_dir: &Path) -> FlConfig {
        let plan = self.plan();
        let mut fl = FlConfig {
            clients_per_round: self.cohort(),
            local_iters: plan.local_iters,
            lr: workload.lr,
            weight_decay: workload.weight_decay,
            seed: FLEET_SEED,
            checkpoint: CheckpointConfig::to_dir(ckpt_dir.display().to_string()),
            ..FlConfig::scaled()
        };
        match self {
            Kind::WrnFedavg => {}
            Kind::CnnFedcaSharded => fl.compression = Compression::Int8,
            Kind::MlpPopulation => {
                fl.n_clients = 1_000_000;
                fl.batch_size = 8;
                // Residency cap as the population probe sets it: a few
                // cohorts' worth stays hydrated, the rest is evicted.
                fl.population.cache_clients = 4 * fl.clients_per_round;
            }
        }
        fl.shard.n_shards = topo.shards;
        fl
    }
}

/// One timed set-up.
pub struct Setup {
    /// Workload build (synthetic data), seconds.
    pub data_build_s: f64,
    /// `Trainer::new_with_workers` (partition, model, pool or shard spawn
    /// and handshake), seconds.
    pub runner_new_s: f64,
    /// Both, timed as one interval.
    pub total_s: f64,
}

/// What one completed study measured.
pub struct Outcome {
    /// Every set-up of this repetition.
    pub setups: Vec<Setup>,
    /// Rounds, scheduled evaluations and checkpoint writes, seconds.
    pub study_s: f64,
    /// Host time of each `run_round` call, ms.
    pub round_ms: Vec<f64>,
    /// Host time of each `evaluate` call, ms (traced runs only).
    pub eval_ms: Vec<f64>,
    /// Host time of each `checkpoint` call, ms (traced runs only).
    pub checkpoint_ms: Vec<f64>,
    /// Size of the last checkpoint written, bytes.
    pub checkpoint_bytes: u64,
    /// Every round's record.
    pub records: Vec<RoundRecord>,
    /// Global-model test accuracy at study end.
    pub final_accuracy: f32,
    /// Virtual seconds at study end.
    pub virtual_s: f64,
    /// Fingerprint of the final global parameters.
    pub fingerprint: String,
    /// Whether every final global parameter is finite.
    pub params_finite: bool,
    /// Clients resident in the store at study end.
    pub resident: usize,
    /// The config it trained with.
    pub fl: FlConfig,
    /// The trainer and workload after a traced study, for the layer probes.
    pub kept: Option<Kept>,
}

/// What a traced study leaves for the layer probes.
pub struct Kept {
    /// The trainer after its last round.
    pub trainer: Trainer,
    /// The workload it trained.
    pub workload: Workload,
}

/// One repetition: its outcome, or `None` if the study panicked.
pub struct Rep {
    /// Whether the per-call split was timed.
    pub traced: bool,
    /// Client rounds dispatched.
    pub attempted: u64,
    /// Client rounds crashed or rejected (all planned ones if the study
    /// panicked).
    pub failed: u64,
    /// The measurements.
    pub outcome: Option<Outcome>,
}

/// Runs the study once on `topo` and returns its measurements. The
/// trainer is dropped (shard children shut down) unless `traced`.
pub fn run(kind: Kind, seed: u64, topo: Topology, work: &Path, traced: bool) -> Rep {
    let setups = (MIN_SETUPS, SETUP_BUDGET_S);
    run_with(kind, seed, topo, work, traced, kind.plan().rounds, setups)
}

/// The first `rounds` rounds of the study on `topo`, set up once.
pub fn slice(kind: Kind, seed: u64, topo: Topology, work: &Path, rounds: usize) -> Rep {
    run_with(kind, seed, topo, work, false, rounds, (1, 0.0))
}

fn run_with(
    kind: Kind,
    seed: u64,
    topo: Topology,
    work: &Path,
    traced: bool,
    rounds: usize,
    setups: (usize, f64),
) -> Rep {
    let ckpt_dir = work.join(format!("ckpt-{}-{}", kind.name(), topo.shards));
    let result = catch_unwind(AssertUnwindSafe(|| {
        study(kind, seed, topo, &ckpt_dir, traced, rounds, setups)
    }));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    match result {
        Ok(o) => {
            let attempted = o.records.iter().map(|r| r.n_selected as u64).sum();
            let failed = o
                .records
                .iter()
                .map(|r| (r.n_crashed + r.n_rejected) as u64)
                .sum();
            Rep {
                traced,
                attempted,
                failed,
                outcome: Some(o),
            }
        }
        Err(_) => {
            let planned = (rounds * kind.cohort()) as u64;
            Rep {
                traced,
                attempted: planned,
                failed: planned,
                outcome: None,
            }
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Set-ups per repetition: at least `MIN_SETUPS`, then more while their
/// total stays under `SETUP_BUDGET_S`, up to `MAX_SETUPS`. The study runs on
/// the last one, and `setup_s` is the median over all of them.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 20;
const SETUP_BUDGET_S: f64 = 0.2;

fn study(
    kind: Kind,
    seed: u64,
    topo: Topology,
    ckpt_dir: &Path,
    traced: bool,
    rounds: usize,
    (min_setups, setup_budget_s): (usize, f64),
) -> Outcome {
    let plan = kind.plan();
    let mut setups = Vec::with_capacity(min_setups);
    let (workload, fl, mut trainer) = loop {
        let t_setup = Instant::now();
        let workload = kind.workload(seed);
        let data_build_s = t_setup.elapsed().as_secs_f64();
        let fl = kind.config(&workload, topo, ckpt_dir);
        let t_new = Instant::now();
        let trainer =
            Trainer::new_with_workers(fl.clone(), kind.scheme(), workload.clone(), topo.workers);
        let runner_new_s = t_new.elapsed().as_secs_f64();
        setups.push(Setup {
            data_build_s,
            runner_new_s,
            total_s: t_setup.elapsed().as_secs_f64(),
        });
        let spent: f64 = setups.iter().map(|s| s.total_s).sum();
        if setups.len() >= min_setups && (spent >= setup_budget_s || setups.len() >= MAX_SETUPS) {
            break (workload, fl, trainer);
        }
    };
    // Evaluation is scheduled here, outside `run_round`, so it is timed
    // on its own.
    trainer.eval_every = 0;

    let mut round_ms = Vec::with_capacity(rounds);
    let mut eval_ms = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let mut checkpoint_bytes = 0;
    let mut final_accuracy = f32::NAN;
    let t_study = Instant::now();
    for r in 1..=rounds {
        let t = Instant::now();
        trainer.run_round();
        round_ms.push(ms_since(t));
        if r % plan.eval_every == 0 || r == rounds {
            let t = Instant::now();
            final_accuracy = trainer.evaluate();
            if traced {
                eval_ms.push(ms_since(t));
            }
        }
        if plan.checkpoint_every > 0 && r % plan.checkpoint_every == 0 {
            let t = Instant::now();
            let path = trainer.checkpoint().expect("checkpoint write");
            if traced {
                checkpoint_ms.push(ms_since(t));
                checkpoint_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            }
        }
    }
    let study_s = t_study.elapsed().as_secs_f64();
    Outcome {
        setups,
        study_s,
        round_ms,
        eval_ms,
        checkpoint_ms,
        checkpoint_bytes,
        records: trainer.records().to_vec(),
        final_accuracy,
        virtual_s: trainer.clock(),
        fingerprint: params_fingerprint(trainer.global_params()),
        params_finite: trainer.global_params().iter().all(|v| v.is_finite()),
        resident: trainer.store().n_resident(),
        fl,
        kept: traced.then_some(Kept { trainer, workload }),
    }
}
