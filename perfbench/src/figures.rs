//! The paper's figures as `all_experiments` regenerates them: each figure
//! runs its sweep through `dsmt-experiments` (engine, cache and store
//! underneath), then renders its tables and evaluates its shape checks.

use dsmt_experiments::{
    ablations, fetch_policy, fetch_policy_hetero, fig1, fig3, fig4, fig5, seed_variance,
    ExperimentParams,
};
use dsmt_sweep::{SweepGrid, SweepReport};

use crate::tracer::Tracer;

/// Figure names, in the order `all_experiments` runs them.
pub const FIGURES: [&str; 8] = [
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fetch-policy",
    "fetch-policy-hetero",
    "seed-variance",
    "ablations",
];

/// Instructions per point: the smallest budget at which every figure
/// shape check holds.
pub const INSTRUCTIONS_PER_POINT: u64 = 100_000;

/// The experiment parameters of `all_experiments` at
/// [`INSTRUCTIONS_PER_POINT`], with the workload seed.
pub fn params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        instructions_per_point: INSTRUCTIONS_PER_POINT,
        seed,
        workers: crate::util::nproc(),
        ..ExperimentParams::standard()
    }
}

/// Every grid of figure `fig` (an index into [`FIGURES`]).
pub fn grids(fig: usize, params: &ExperimentParams) -> Vec<SweepGrid> {
    match fig {
        0 => vec![fig1::grid(params)],
        1 => vec![fig3::grid(params)],
        2 => vec![fig4::grid(params)],
        3 => fig5::grids(params),
        4 => vec![fetch_policy::grid(params)],
        5 => vec![fetch_policy_hetero::grid(params)],
        6 => vec![seed_variance::grid(params)],
        _ => ablations::grids(params),
    }
}

/// The simulated accuracy figures Figure 4 is judged by: the largest
/// decoupled IPC loss at L2 = 32 and L2 = 256 (paper: < 4% and < 39%) and
/// the largest decoupled perceived latency at L2 = 256.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Model {
    pub loss_l2_32_pct: f64,
    pub loss_l2_256_pct: f64,
    pub perceived_l2_256_cycles: f64,
}

/// One regenerated figure.
#[derive(Debug)]
pub struct Figure {
    pub report: SweepReport,
    pub checks: Vec<(String, bool)>,
    pub fig4: Option<Fig4Model>,
}

/// Regenerates figure `fig`: its sweep (span `sweep.run`), then its tables
/// as Markdown and its shape checks (span `experiments.render`).
pub fn regenerate(fig: usize, params: &ExperimentParams, t: &mut Tracer) -> Figure {
    fn render(tables: &[dsmt_experiments::Table]) -> usize {
        tables.iter().map(|t| t.to_markdown().len()).sum()
    }
    let mut fig4_model = None;
    let (report, rendered, checks) = match fig {
        0 => {
            let f = t.span("sweep.run", |_| fig1::sweep(params));
            let r = &f.results;
            let (n, c) = t.span("experiments.render", |_| {
                let tables = [
                    r.table_fig1a(),
                    r.table_fig1b(),
                    r.table_fig1c(),
                    r.table_fig1d(),
                ];
                (render(&tables), r.shape_checks())
            });
            (f.report, n, c)
        }
        1 => {
            let f = t.span("sweep.run", |_| fig3::sweep(params));
            let r = &f.results;
            let (n, c) = t.span("experiments.render", |_| {
                (render(&[r.table()]), r.shape_checks())
            });
            (f.report, n, c)
        }
        2 => {
            let f = t.span("sweep.run", |_| fig4::sweep(params));
            let r = &f.results;
            let (n, c) = t.span("experiments.render", |_| {
                let tables = [r.table_fig4a(), r.table_fig4b(), r.table_fig4c()];
                (render(&tables), r.shape_checks())
            });
            let threads = fig4::THREAD_COUNTS;
            let max = |v: &mut dyn Iterator<Item = f64>| v.fold(0.0, f64::max);
            fig4_model = Some(Fig4Model {
                loss_l2_32_pct: max(&mut threads.iter().map(|&n| r.ipc_loss_pct(n, true, 32))),
                loss_l2_256_pct: max(&mut threads.iter().map(|&n| r.ipc_loss_pct(n, true, 256))),
                perceived_l2_256_cycles: max(&mut threads
                    .iter()
                    .filter_map(|&n| r.point(n, true, 256).map(|p| p.perceived))),
            });
            (f.report, n, c)
        }
        3 => {
            let f = t.span("sweep.run", |_| fig5::sweep(params));
            let r = &f.results;
            let (n, c) = t.span("experiments.render", |_| {
                (render(&[r.table(16), r.table(64)]), r.shape_checks())
            });
            (f.report, n, c)
        }
        4 => {
            let f = t.span("sweep.run", |_| fetch_policy::sweep(params));
            let r = &f.results;
            let (n, c) = t.span("experiments.render", |_| {
                (render(&[r.table()]), r.shape_checks())
            });
            (f.report, n, c)
        }
        5 => {
            let f = t.span("sweep.run", |_| fetch_policy_hetero::sweep(params));
            let r = &f.results;
            let (n, c) = t.span("experiments.render", |_| {
                (render(&[r.table()]), r.shape_checks())
            });
            (f.report, n, c)
        }
        6 => {
            let f = t.span("sweep.run", |_| seed_variance::sweep(params));
            let r = &f.results;
            let (n, c) = t.span("experiments.render", |_| {
                (render(&[r.table()]), r.shape_checks())
            });
            (f.report, n, c)
        }
        _ => {
            let f = t.span("sweep.run", |_| ablations::sweep(params));
            let r = &f.results;
            let (n, c) = t.span("experiments.render", |_| {
                (r.to_markdown().len(), r.shape_checks())
            });
            (f.report, n, c)
        }
    };
    std::hint::black_box(rendered);
    Figure {
        report,
        checks,
        fig4: fig4_model,
    }
}

/// Regenerates every figure in order, one operation and one
/// `experiments.figure` span each, and returns the figures with each
/// one's wall time in seconds.
pub fn regenerate_all(params: &ExperimentParams, t: &mut Tracer) -> Vec<(Figure, f64)> {
    (0..FIGURES.len())
        .map(|fig| {
            t.next_op();
            let started = std::time::Instant::now();
            let figure = t.span_labelled("experiments.figure", FIGURES[fig], |t| {
                regenerate(fig, params, t)
            });
            (figure, crate::util::secs(started))
        })
        .collect()
}
