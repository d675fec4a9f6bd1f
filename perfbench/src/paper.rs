//! `paper_cold` and `paper_warm`: regenerating the paper's figures the way
//! `all_experiments` does, into an empty store and from a warm one.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use dsmt_core::SimResults;
use dsmt_experiments::ExperimentParams;
use dsmt_store::{IndexMode, Store};
use dsmt_sweep::{RunRecord, Scenario, CACHE_SCHEMA_VERSION};
use serde::Value;

use crate::figures::{self, Figure, FIGURES};
use crate::layers;
use crate::tracer::Tracer;
use crate::util::{self, fresh_dir, median, secs, work_dir, Metric, Rng, Tally, Timings};
use crate::{Args, Outcome};

/// Set-up repetitions whose median is `setup_s`. The cold set-up takes a
/// fraction of a millisecond, so it is repeated before the first round and
/// again after every untraced round: the median then samples the host's speed over
/// the whole run, as `wall_s` does, not only over its first moments.
const COLD_SETUPS: usize = 101;
const WARM_SETUPS: usize = 3;

/// Blocks of rounds whose medians are the operation times (see
/// [`Timings`]). A cold round takes seconds and a run holds a handful, so
/// each cell's time is its median over every round of the run; a warm
/// round takes a tenth of a second, so a run holds a few dozen per block.
const COLD_BLOCKS: usize = 1;
const WARM_BLOCKS: usize = 8;

/// Records from other grids in the warm cache, published in segments of
/// `FOREIGN_PER_SEGMENT` as `dsmt store synth` does.
pub const FOREIGN_RECORDS: u64 = 50_000;
const FOREIGN_PER_SEGMENT: usize = 4096;

/// Cells per figure re-driven outside the engine.
const SAMPLE_PER_FIGURE: usize = 2;

/// What both paper workloads set up: parameters, every cell, and the
/// seeded sample of cells the checks and the traced run re-drive.
struct Plan {
    params: ExperimentParams,
    cells: Vec<Scenario>,
    sample: Vec<Scenario>,
}

fn plan(seed: u64) -> Plan {
    let params = figures::params(seed);
    let mut rng = Rng::new(seed, 1);
    let mut cells = Vec::new();
    let mut sample = Vec::new();
    for fig in 0..FIGURES.len() {
        let mine: Vec<Scenario> = figures::grids(fig, &params)
            .iter()
            .flat_map(|g| g.cells().into_iter().map(|c| c.scenario))
            .collect();
        for i in rng.sample(mine.len(), SAMPLE_PER_FIGURE) {
            sample.push(mine[i].clone());
        }
        cells.extend(mine);
    }
    Plan {
        params,
        cells,
        sample,
    }
}

/// Points the figure sweeps at `dir`: they build their engines from the
/// environment, as the figure binaries do.
fn use_cache_dir(dir: &Path) {
    std::env::set_var("DSMT_SWEEP_CACHE", dir);
}

/// Every record of a regenerated paper, in figure order.
fn records(figs: &[(Figure, f64)]) -> impl Iterator<Item = &RunRecord> {
    figs.iter().flat_map(|(f, _)| f.report.records.iter())
}

/// The checks every regeneration must pass: all shape checks hold and
/// every record satisfies the accounting identities.
fn check_figures(figs: &[(Figure, f64)], tally: &mut Tally) {
    for (fig, (figure, _)) in figs.iter().enumerate() {
        for (claim, ok) in &figure.checks {
            tally.check(*ok, || {
                format!("{} shape check failed: {claim}", FIGURES[fig])
            });
        }
        for rec in &figure.report.records {
            let held = util::identities_hold(rec);
            tally.check(held.is_ok(), || {
                format!("{} cell {}: {}", FIGURES[fig], rec.key, held.unwrap_err())
            });
        }
    }
}

/// The engine's results for `sample`, looked up by cache key.
fn expected(sample: &[Scenario], figs: &[(Figure, f64)]) -> Vec<(Scenario, SimResults)> {
    sample
        .iter()
        .map(|s| {
            let key = s.cache_key_hex();
            let rec = records(figs)
                .find(|r| r.key == key)
                .expect("every sampled cell belongs to a figure");
            (s.clone(), rec.results.clone())
        })
        .collect()
}

/// The cold set-up, [`COLD_SETUPS`] times: plans every figure and points
/// the sweeps at an empty store (the engine creates it when the first
/// figure opens it).
fn cold_setups(seed: u64, store: &Path, timings: &mut Timings) -> Plan {
    (0..COLD_SETUPS)
        .map(|_| {
            let started = Instant::now();
            let p = plan(seed);
            let _ = std::fs::remove_dir_all(store);
            use_cache_dir(store);
            timings.setup_s.push(secs(started));
            p
        })
        .last()
        .expect("set up at least once")
}

/// The simulated cells of a regeneration: each key's first record. Later
/// records of the same key are cache hits replayed from the store.
fn simulated(figs: &[(Figure, f64)]) -> impl Iterator<Item = &RunRecord> {
    let mut seen = HashSet::new();
    records(figs).filter(move |r| seen.insert(r.key.as_str()))
}

pub fn cold(args: &Args) -> Outcome {
    let store = work_dir("paper_cold");
    let mut timings = Timings::default();
    let plan = cold_setups(args.seed, &store, &mut timings);
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(false);
    let mut first: Option<Vec<(Figure, f64)>> = None;
    let mut traced_rounds = Vec::new();
    util::rounds(args, |traced| {
        tracer.set_enabled(traced);
        fresh_dir(&store);
        let started = Instant::now();
        let figs = figures::regenerate_all(&plan.params, &mut tracer);
        let wall = secs(started);
        check_figures(&figs, &mut tally);
        if let Some(first) = &first {
            let same = records(first).eq(records(&figs));
            tally.check(same, || {
                "a round's records differ from the first round's".into()
            });
        }
        if traced {
            traced_rounds.push((wall, figs));
        } else {
            timings.round_s.push(wall);
            // Per-cell host time of the simulated cells, as the engine
            // measured it.
            let cells = simulated(&figs).map(|r| r.perf.wall_secs * 1e3).collect();
            timings.rounds_ms.push(cells);
            first.get_or_insert(figs);
            cold_setups(args.seed, &store, &mut timings);
        }
    });
    let first = first.expect("at least one untraced round");
    println!(
        "records_digest: {:016x}",
        util::records_digest(records(&first))
    );

    // The seeded sample, re-driven through `Scenario::execute` with no
    // engine, store or batching, must equal the engine's records.
    for (scenario, want) in expected(&plan.sample, &first) {
        let got = scenario.execute();
        tally.check(got == want, || {
            format!(
                "cell {} through Scenario::execute differs from the engine's record in `{}`",
                scenario.cache_key_hex(),
                util::first_difference(&got, &want)
            )
        });
    }

    let metrics = if args.trace {
        let keys: Vec<u64> = records(&first).map(|r| r.scenario.cache_key()).collect();
        let mut metrics = paper_layers(
            &plan,
            &first,
            &traced_rounds,
            &timings.round_s,
            &store,
            &keys,
            &mut tracer,
            &mut tally,
        );
        metrics.extend(fig4_model(&first));
        metrics
    } else {
        timings.end_to_end(COLD_BLOCKS)
    };
    if args.trace {
        crate::write_spans(&tracer, args);
    }
    Outcome { tally, metrics }
}

pub fn warm(args: &Args) -> Outcome {
    let store = work_dir("paper_warm");
    let mut timings = Timings::default();
    let (plan, reference, foreign_publish_s) = (0..WARM_SETUPS)
        .map(|_| {
            let started = Instant::now();
            let p = plan(args.seed);
            fresh_dir(&store);
            let foreign_publish_s = synth_foreign(&store, args.seed);
            use_cache_dir(&store);
            let reference = figures::regenerate_all(&p.params, &mut Tracer::new(false));
            timings.setup_s.push(secs(started));
            (p, reference, foreign_publish_s)
        })
        .last()
        .expect("set up at least once");
    let mut tally = Tally::default();
    check_figures(&reference, &mut tally);

    let mut tracer = Tracer::new(false);
    let mut traced_rounds = Vec::new();
    util::rounds(args, |traced| {
        tracer.set_enabled(traced);
        let started = Instant::now();
        let figs = figures::regenerate_all(&plan.params, &mut tracer);
        let wall = secs(started);
        for (fig, ((figure, _), (want, _))) in figs.iter().zip(&reference).enumerate() {
            let name = FIGURES[fig];
            let misses = figure.report.cache_misses;
            tally.check(misses == 0, || {
                format!("{name}: {misses} cache misses on a warm replay")
            });
            tally.check(figure.report.records == want.report.records, || {
                format!("{name}: warm records differ from the set-up's cold sweep")
            });
            let failed = figure.checks.iter().filter(|(_, ok)| !ok).count();
            tally.check(failed == 0, || {
                format!("{name}: {failed} shape checks failed")
            });
        }
        if traced {
            traced_rounds.push((wall, figs));
        } else {
            timings.round_s.push(wall);
            timings
                .rounds_ms
                .push(figs.iter().map(|(_, s)| s * 1e3).collect());
        }
    });
    println!(
        "records_digest: {:016x}",
        util::records_digest(records(&reference))
    );

    let metrics = if args.trace {
        let keys: Vec<u64> = records(&reference)
            .map(|r| r.scenario.cache_key())
            .collect();
        let mut metrics = paper_layers(
            &plan,
            &reference,
            &traced_rounds,
            &timings.round_s,
            &store,
            &keys,
            &mut tracer,
            &mut tally,
        );
        // The publishes on the warm workload's path are the foreign
        // records its set-up writes.
        for metric in &mut metrics {
            if metric.0 == "store.publish_us_per_record" {
                metric.1 = foreign_publish_s * 1e6 / FOREIGN_RECORDS as f64;
            }
        }
        metrics.extend(fig4_model(&reference));
        metrics
    } else {
        timings.end_to_end(WARM_BLOCKS)
    };
    if args.trace {
        crate::write_spans(&tracer, args);
    }
    Outcome { tally, metrics }
}

/// Publishes [`FOREIGN_RECORDS`] synthetic sweep-cell records under the
/// sweep-cache schema, as `dsmt store synth` does, and returns the seconds
/// the publishes took.
fn synth_foreign(dir: &Path, seed: u64) -> f64 {
    let mut store =
        Store::open_with(dir, CACHE_SCHEMA_VERSION, IndexMode::Indexed).expect("warm store opens");
    let base = dsmt_sweep::splitmix64(seed ^ 0xf0e1_d2c3);
    let mut publish_s = 0.0;
    let mut batch = Vec::with_capacity(FOREIGN_PER_SEGMENT);
    for n in 0..FOREIGN_RECORDS {
        let key = dsmt_sweep::splitmix64(base.wrapping_add(n));
        batch.push((key, foreign_value(n, key)));
        if batch.len() == FOREIGN_PER_SEGMENT || n + 1 == FOREIGN_RECORDS {
            let started = Instant::now();
            store
                .publish(std::mem::take(&mut batch))
                .expect("foreign records publish");
            publish_s += secs(started);
        }
    }
    publish_s
}

/// A record shaped like a cached sweep cell: a handful of numeric stats
/// under shared field names and a small string-coded enum.
fn foreign_value(n: u64, h: u64) -> Value {
    const MIXES: [&str; 4] = ["int", "fp", "mem", "branchy"];
    let u = Value::U64;
    Value::Object(vec![
        ("kind".into(), Value::Str("synth-cell".into())),
        ("mix".into(), Value::Str(MIXES[(n % 4) as usize].into())),
        ("seed".into(), u(n)),
        ("ipc".into(), Value::F64(0.5 + (h % 2048) as f64 / 1024.0)),
        ("cycles".into(), u(h % 100_000_000)),
        ("insts".into(), u(h % 10_000_000)),
        (
            "stats".into(),
            Value::Object(vec![
                ("l1_hits".into(), u(h % 1_000_000)),
                ("l2_hits".into(), u(h % 65_536)),
                ("mshr_stalls".into(), u(h % 4_096)),
                ("bus_busy".into(), Value::F64((h % 97) as f64 / 97.0)),
                ("fetch_mask".into(), u(h & 0xff)),
            ]),
        ),
    ])
}

/// The per-layer metrics both paper workloads report from their traced
/// rounds and layer passes.
#[allow(clippy::too_many_arguments)]
fn paper_layers(
    plan: &Plan,
    figs: &[(Figure, f64)],
    traced_rounds: &[(f64, Vec<(Figure, f64)>)],
    untraced_walls: &[f64],
    store: &Path,
    keys: &[u64],
    t: &mut Tracer,
    tally: &mut Tally,
) -> Vec<Metric> {
    t.set_enabled(true);
    let rounds = traced_rounds.len() as f64;
    let mut m: Vec<Metric> = Vec::new();
    for name in FIGURES {
        let spans: Vec<f64> = t
            .named("experiments.figure")
            .filter(|s| s.label == name)
            .map(crate::tracer::SpanRec::secs)
            .collect();
        m.push((format!("experiments.figure_s.{name}"), median(&spans), "s"));
    }
    let run_s = t.total("sweep.run") / rounds;
    let cell_s: f64 = traced_rounds
        .iter()
        .flat_map(|(_, figs)| records(figs))
        .map(|r| r.perf.wall_secs)
        .sum::<f64>()
        / rounds;
    let (hits, misses) = traced_rounds[0].1.iter().fold((0, 0), |(h, m), (f, _)| {
        (h + f.report.cache_hits, m + f.report.cache_misses)
    });
    m.push(("sweep.run_s".into(), run_s, "s"));
    m.push(("sweep.cell_s".into(), cell_s, "s"));
    m.push((
        "sweep.pool_idle_s".into(),
        plan.params.workers as f64 * run_s - cell_s,
        "s",
    ));
    m.push(("sweep.cache_hits".into(), hits as f64, "count"));
    m.push(("sweep.cache_misses".into(), misses as f64, "count"));
    m.push(layers::key_pass(&plan.cells, t));
    m.extend(layers::core_pass(&expected(&plan.sample, figs), t, tally));
    m.extend(layers::store_pass(
        store,
        &work_dir("scratch"),
        keys,
        t,
        tally,
    ));
    let traced_wall = median(&traced_rounds.iter().map(|(w, _)| *w).collect::<Vec<_>>());
    let untraced_wall = median(untraced_walls);
    m.push((
        "bench.trace_overhead_pct".into(),
        (traced_wall / untraced_wall - 1.0) * 100.0,
        "%",
    ));
    m
}

fn fig4_model(figs: &[(Figure, f64)]) -> Vec<Metric> {
    let model = figs
        .iter()
        .find_map(|(f, _)| f.fig4)
        .expect("figure 4 is regenerated");
    vec![
        (
            "model.fig4_loss_l2_32_pct".into(),
            model.loss_l2_32_pct,
            "%",
        ),
        (
            "model.fig4_loss_l2_256_pct".into(),
            model.loss_l2_256_pct,
            "%",
        ),
        (
            "model.fig4_perceived_l2_256_cycles".into(),
            model.perceived_l2_256_cycles,
            "cycles",
        ),
    ]
}
