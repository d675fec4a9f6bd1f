//! The reproduction's benchmark: one command, three workloads.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_cold --seed 42 --seconds 25 --trace 0
//! ```
//!
//! Every run checks the program's outputs and prints, as its last line,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run also records spans around its calls into each crate, writes them to
//! `.bench_trace/`, and prints the per-layer metrics. Stores live in
//! `.bench_work/`, which is removed when a run starts and ends. See
//! `README.md`.

mod figures;
mod layers;
mod paper;
mod serve;
mod tracer;
mod util;

use serde::Value;

use crate::util::{Metric, Tally};

/// Runs one workload.
type Workload = fn(&Args) -> Outcome;

/// The workloads, with the function that runs each.
const WORKLOADS: [(&str, Workload); 3] = [
    ("paper_cold", paper::cold),
    ("paper_warm", paper::warm),
    ("serve_read", serve::run),
];

/// Every per-layer metric a traced run prints, with its unit. A layer the
/// workload does not exercise reads 0 (see the README's layer map).
const PER_LAYER: &[(&str, &str)] = &[
    ("experiments.figure_s.fig1", "s"),
    ("experiments.figure_s.fig3", "s"),
    ("experiments.figure_s.fig4", "s"),
    ("experiments.figure_s.fig5", "s"),
    ("experiments.figure_s.fetch-policy", "s"),
    ("experiments.figure_s.fetch-policy-hetero", "s"),
    ("experiments.figure_s.seed-variance", "s"),
    ("experiments.figure_s.ablations", "s"),
    ("sweep.run_s", "s"),
    ("sweep.cell_s", "s"),
    ("sweep.pool_idle_s", "s"),
    ("sweep.cache_hits", "count"),
    ("sweep.cache_misses", "count"),
    ("sweep.key_us_per_cell", "us"),
    ("core.build_us_per_cell", "us"),
    ("core.ns_per_inst", "ns"),
    ("core.ns_per_stepped_cycle", "ns"),
    ("core.cycles", "count"),
    ("core.instructions", "count"),
    ("core.busy_cycles_skipped", "count"),
    ("core.skip_windows", "count"),
    ("trace.synth_ns_per_inst", "ns"),
    ("trace.program_ns_per_inst", "ns"),
    ("asm.assemble_us_per_cell", "us"),
    ("mem.ns_per_access", "ns"),
    ("mem.load_misses", "count"),
    ("mem.mshr_full_rejections", "count"),
    ("mem.bus_busy_cycles", "count"),
    ("uarch.ns_per_branch", "ns"),
    ("uarch.mispredictions", "count"),
    ("store.publish_us_per_record", "us"),
    ("store.bytes", "B"),
    ("store.segments", "count"),
    ("store.open_ms", "ms"),
    ("store.get_us", "us"),
    ("store.records_lazy_decoded", "count"),
    ("shard.run_s", "s"),
    ("shard.merge_ms", "ms"),
    ("serve.rtt_ms.cell", "ms"),
    ("serve.rtt_ms.cell_304", "ms"),
    ("serve.rtt_ms.status", "ms"),
    ("serve.rtt_ms.record", "ms"),
    ("serve.rtt_ms.grids", "ms"),
    ("serve.rtt_ms.submit", "ms"),
    ("serve.service_us.cell", "us"),
    ("serve.service_us.cell_304", "us"),
    ("serve.service_us.status", "us"),
    ("serve.service_us.record", "us"),
    ("serve.service_us.grids", "us"),
    ("serve.service_us.submit", "us"),
    ("serve.accept_wait_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.connections", "count"),
    ("model.fig4_loss_l2_32_pct", "%"),
    ("model.fig4_loss_l2_256_pct", "%"),
    ("model.fig4_perceived_l2_256_cycles", "cycles"),
    ("bench.trace_overhead_pct", "%"),
];

/// The command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 42,
            seconds: 10.0,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
            let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => args.workload.clone_from(value),
                "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(args)
    }
}

/// What a workload run produced: its operation accounting and metrics.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

/// Writes a traced run's spans to `.bench_trace/<workload>-seed<n>.jsonl`.
pub fn write_spans(tracer: &tracer::Tracer, args: &Args) {
    let path = std::path::Path::new(".bench_trace")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("warn: cannot write spans to {}: {e}", path.display()),
    }
}

/// The environment knobs that change what the program does; the benchmark
/// runs with each at its default.
const PROGRAM_ENV: [&str; 7] = [
    "DSMT_INSTS",
    "DSMT_SWEEP_CACHE",
    "DSMT_SWEEP_CACHE_MAX_BYTES",
    "DSMT_SWEEP_BATCH",
    "DSMT_STORE_EAGER",
    "DSMT_LOG",
    "DSMT_METRICS",
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let Some(&(_, run)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!("error: --workload must be one of {}", names.join(", "));
        std::process::exit(2);
    };
    for var in PROGRAM_ENV {
        std::env::remove_var(var);
    }
    eprintln!(
        "{} seed {} for {}s, trace {}, {} workers",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::nproc()
    );
    let _ = std::fs::remove_dir_all(util::WORK_DIR);
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(util::WORK_DIR);
    for note in outcome.tally.notes() {
        eprintln!("FAILED: {note}");
    }
    let metrics = if args.trace {
        per_layer(outcome.metrics)
    } else {
        outcome.metrics
    };
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let entry = Value::Object(vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (name, entry)
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.tally.failed == 0)),
        ("attempted".into(), Value::U64(outcome.tally.attempted)),
        ("failed".into(), Value::U64(outcome.tally.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", serde::to_string(&result));
}

/// Orders a traced run's metrics as [`PER_LAYER`] lists them, with 0 for a
/// layer this workload does not exercise.
///
/// # Panics
///
/// On a metric [`PER_LAYER`] does not list, or one with another unit.
fn per_layer(measured: Vec<Metric>) -> Vec<Metric> {
    for (name, _, unit) in &measured {
        let listed = PER_LAYER.iter().find(|(n, _)| n == name);
        assert_eq!(listed.map(|l| l.1), Some(*unit), "per-layer metric {name}");
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
            (name.to_string(), value, unit)
        })
        .collect()
}
