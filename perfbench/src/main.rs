//! The study benchmark: runs one fixed-length federated study per workload
//! through the public `fedca-core` API and reports end-to-end wall-clock,
//! or (with `--trace 1`) a per-layer split timed from outside the program.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload wrn_fedavg --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Within `--seconds` the study is set up and run repeatedly (at least
//! three times; twice when traced); every time metric is the median over
//! those repetitions. `--seed` draws the synthetic data and the model's
//! initial weights; the federation around them is fixed per workload. Run it
//! from the repository root: scratch files (checkpoints, shard sockets, the
//! fingerprint ledger) go under `.perfbench/` there. The last stdout line
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`;
//! the lines before it print every metric by name with its unit, the host
//! fingerprint, and each correctness check.

mod layers;
mod study;

use fedca_perfbench::{
    cpu_model, median, percentile, tail_percentile, HostFingerprint, Metric, RunResult,
};
use std::path::{Path, PathBuf};
use std::time::Instant;
use study::{Kind, Rep, Topology};

/// Parsed command line.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::from_name(value).ok_or_else(|| bad(&Kind::names()))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Process-lifetime peak resident set size in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn host_fingerprint() -> HostFingerprint {
    HostFingerprint {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        kernel: fedca_tensor::gemm::active_kernel().name().to_string(),
        cpu: cpu_model(&std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default()),
    }
}

/// Collects named pass/fail checks and prints each as it is made.
struct Checks {
    all_ok: bool,
    made: usize,
}

impl Checks {
    fn new() -> Self {
        Checks {
            all_ok: true,
            made: 0,
        }
    }

    fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        self.made += 1;
        self.all_ok &= ok;
        println!("check {name} {} {detail}", if ok { "ok" } else { "FAIL" });
    }
}

/// The fingerprint an earlier run in this checkout recorded under `key`
/// (workload, seed, kernel tier, study plan) in the JSON ledger at `path`,
/// or `None` after recording `fp` there: every run of a workload must end
/// on the same parameters.
fn recorded_fingerprint(path: &Path, key: &str, fp: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut entries = match serde_json::parse(&text) {
        Ok(serde_json::Value::Object(e)) => e,
        _ => Vec::new(),
    };
    if let Some((_, serde_json::Value::String(old))) = entries.iter().find(|(k, _)| k == key) {
        return Some(old.clone());
    }
    entries.push((key.to_string(), serde_json::Value::String(fp.to_string())));
    let text = serde_json::to_string_pretty(&serde_json::Value::Object(entries))
        .expect("ledger serializes");
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    None
}

/// Runs repetitions of the study until `seconds` would be exceeded (at
/// least `min_reps`). In a traced run every other repetition is traced.
/// Also returns the peak RSS (MiB) after the first repetition: the
/// footprint of one study, before allocator reuse across repetitions
/// muddies it.
fn run_reps(args: &Args, work: &Path, min_reps: usize) -> (Vec<Rep>, f64) {
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut first_rss = 0.0;
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        // Only the newest traced repetition keeps its trainer alive.
        if traced {
            for r in reps.iter_mut().filter_map(|r| r.outcome.as_mut()) {
                r.kept = None;
            }
        }
        let rep = study::run(args.kind, args.seed, Topology::of(args.kind), work, traced);
        reps.push(rep);
        if reps.len() == 1 {
            first_rss = peak_rss_mib();
        }
        let per_rep = t0.elapsed().as_secs_f64() / reps.len() as f64;
        if reps.len() >= min_reps && t0.elapsed().as_secs_f64() + per_rep > args.seconds {
            return (reps, first_rss);
        }
    }
}

fn main() {
    // Shard children re-enter this binary: serve the protocol and exit.
    if fedca_core::shard::maybe_run_child() {
        return;
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Kind::names()
            );
            std::process::exit(2);
        }
    };
    // Measure what users get: the host's own thread count and kernel tier.
    for var in ["FEDCA_THREADS", "FEDCA_FORCE_KERNEL"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: ignoring {var}; the benchmark runs on host defaults");
            std::env::remove_var(var);
        }
    }
    let root = PathBuf::from(".perfbench");
    let work = root.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    // Shard sockets live under the temp dir; keep them inside the checkout
    // (a relative path also keeps socket paths short).
    std::env::set_var("TMPDIR", &work);

    let code = run(&args, &root, &work);
    let _ = std::fs::remove_dir_all(&work);
    std::process::exit(code);
}

fn run(args: &Args, root: &Path, work: &Path) -> i32 {
    let host = host_fingerprint();
    let plan = args.kind.plan();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host: {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.render()
    );
    println!("plan {plan:?}");

    let (mut reps, peak_rss) = run_reps(args, work, if args.trace { 2 } else { 3 });
    let mut checks = Checks::new();

    // Failure accounting over every repetition.
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    checks.check(
        "failed_frac_zero",
        failed == 0,
        format!("{failed}/{attempted}"),
    );

    let done: Vec<&study::Outcome> = reps.iter().filter_map(|r| r.outcome.as_ref()).collect();
    if done.len() != reps.len() {
        checks.check("studies_completed", false, "a study panicked");
    }
    if done.is_empty() {
        return finish(args, &checks, attempted, failed, Vec::new());
    }

    // Determinism: every repetition, traced or not, ends on the same
    // parameters, accuracy and virtual clock — and so did every earlier run
    // of this (workload, seed, kernel tier, plan) in this checkout.
    let fp = &done[0].fingerprint;
    let same = done.iter().all(|o| {
        o.fingerprint == *fp
            && o.final_accuracy.to_bits() == done[0].final_accuracy.to_bits()
            && o.virtual_s.to_bits() == done[0].virtual_s.to_bits()
    });
    checks.check(
        "fingerprint_across_reps",
        same,
        format!("{fp} x{}", done.len()),
    );
    let key = format!(
        "{}|{}|{}|{plan:?}",
        args.kind.name(),
        args.seed,
        host.kernel
    );
    match recorded_fingerprint(&root.join("fingerprints.json"), &key, fp) {
        Some(old) => checks.check(
            "fingerprint_across_runs",
            old == *fp,
            format!("recorded {old}"),
        ),
        None => println!("check fingerprint_across_runs recorded {fp}"),
    }
    let acc = done[0].final_accuracy;
    checks.check(
        "final_accuracy_floor",
        acc >= plan.accuracy_floor,
        format!("{acc:.4} >= {}", plan.accuracy_floor),
    );
    checks.check("params_finite", done[0].params_finite, "final global model");
    let loss =
        |r: Option<&fedca_core::metrics::RoundRecord>| r.map_or(f32::NAN, |r| r.mean_train_loss);
    let (first, last) = (loss(done[0].records.first()), loss(done[0].records.last()));
    checks.check(
        "training_loss_fell",
        last < first,
        format!("{first:.4} -> {last:.4}"),
    );

    let untraced: Vec<&study::Outcome> = reps
        .iter()
        .filter(|r| !r.traced)
        .filter_map(|r| r.outcome.as_ref())
        .collect();
    let setup_s = median(untraced.iter().flat_map(|o| &o.setups).map(|s| s.total_s));
    let study_s = median(untraced.iter().map(|o| o.study_s));
    let rounds: Vec<f64> = untraced.iter().flat_map(|o| o.round_ms.clone()).collect();

    // End-to-end metrics: printed on every run, reported in JSON untraced.
    let e2e = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("study_s", study_s, "s"),
        Metric::new(
            "round_ms.p50",
            percentile(&rounds, 50.0).unwrap_or(0.0),
            "ms",
        ),
        Metric::new("peak_rss_mib", peak_rss, "MiB"),
    ];
    for (i, r) in reps.iter().enumerate() {
        if let Some(o) = &r.outcome {
            let setup = median(o.setups.iter().map(|s| s.total_s));
            let traced = if r.traced { " traced" } else { "" };
            println!(
                "rep {i} setup_s {setup:.6} study_s {:.6}{traced}",
                o.study_s
            );
        }
    }
    println!("reps {} ({} untraced)", reps.len(), untraced.len());
    for m in &e2e {
        println!("metric {} {:.6} {}", m.name, m.value, m.unit);
    }
    match tail_percentile(rounds.len()) {
        Some(p) => println!(
            "metric round_ms.tail {:.6} ms (p{p} of n={})",
            percentile(&rounds, p).unwrap_or(0.0),
            rounds.len()
        ),
        None => println!("metric round_ms.tail omitted (n={} rounds)", rounds.len()),
    }
    println!("metric final_accuracy {acc:.6} fraction");
    println!("metric virtual_s {:.6} s", done[0].virtual_s);
    println!("metric failed_frac {failed_frac:.6} fraction");
    let iters: usize = done[0].records.iter().flat_map(|r| &r.iters_done).sum();
    println!("metric client_iters {iters} count");

    if !args.trace {
        return finish(args, &checks, attempted, failed, e2e);
    }
    let per_layer = layers::traced_report(args.kind, args.seed, &mut reps, work, &mut checks);
    finish(args, &checks, attempted, failed, per_layer)
}

fn finish(args: &Args, checks: &Checks, attempted: u64, failed: u64, metrics: Vec<Metric>) -> i32 {
    let result = RunResult {
        correct: checks.all_ok && checks.made > 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    };
    match result.to_json() {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.kind.name());
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "cnn_fedca_sharded",
            "--seed",
            "7",
            "--seconds",
            "30",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.kind, Kind::CnnFedcaSharded);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30.0, true));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "wrn_fedavg", "--trace", "2"],
            &["--workload", "wrn_fedavg", "--seconds", "0"],
            &["--workload", "wrn_fedavg", "--seed"],
            &["--workload", "wrn_fedavg", "--extra", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_names_this_binary_s_workloads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            match doc.get(key) {
                Some(serde_json::Value::Array(items)) => items
                    .iter()
                    .filter_map(|m| match m.get("name") {
                        Some(serde_json::Value::String(s)) => Some(s.clone()),
                        _ => None,
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        assert_eq!(names("workloads").join("|"), Kind::names());
        for name in names("end_to_end").iter().chain(&names("per_layer")) {
            assert!(fedca_perfbench::valid_metric_name(name), "{name}");
        }
    }
}
