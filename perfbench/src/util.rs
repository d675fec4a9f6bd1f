//! Small helpers shared by the workloads: statistics, the process's peak
//! resident set, seeded choices, output-check accounting and the
//! end-to-end metric set every workload reports.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The percentiles `op_tail_ms` may report, highest first.
const TAIL_PERCENTILES: [f64; 10] = [99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_PERCENTILES`] with at least ten samples
/// beyond it (nearest rank), as `(percentile, value)`. With fewer than
/// forty samples no such percentile is a tail, and the median is returned.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 40 {
        return (50.0, median(values));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    for p in TAIL_PERCENTILES {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n - rank >= 10 {
            return (p, v[rank.max(1) - 1]);
        }
    }
    (50.0, median(values))
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Worker and server threads: what `nproc` reports.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A deterministic stream of choices derived from the workload seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(dsmt_sweep::splitmix64(seed ^ stream.rotate_left(32)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = dsmt_sweep::splitmix64(self.0);
        self.0
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices of `0..n`, in ascending order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut picked: Vec<usize> = (0..n).collect();
        self.shuffle(&mut picked);
        picked.truncate(k.min(n));
        picked.sort_unstable();
        picked
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Output checks and operation accounting for one run. Every timed
/// operation and every check is one attempted operation; a wrong status,
/// a mismatch or a failed check is one failed operation.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// One metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The timings every workload collects in its untraced run.
///
/// An operation's time is the median of its repetitions over a block of
/// consecutive rounds, so one preemption of the benchmark by the host does
/// not make a slow operation. Each workload splits its rounds into a fixed
/// number of blocks, so every run has the same number of operation times
/// and [`tail`] picks the same percentile, however many rounds the run
/// managed: a faster program makes longer blocks, not more samples.
#[derive(Debug, Default)]
pub struct Timings {
    /// Each repetition of the set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Each round of the timed phase, in seconds.
    pub round_s: Vec<f64>,
    /// Each round's operation times in milliseconds; operation `i` of
    /// every round is the same operation.
    pub rounds_ms: Vec<Vec<f64>>,
}

impl Timings {
    /// Operation times: each operation's median over each of `blocks`
    /// blocks of consecutive rounds (fewer if there are fewer rounds),
    /// whose lengths differ by at most one.
    fn op_ms(&self, blocks: usize) -> Vec<f64> {
        let rounds = self.rounds_ms.len();
        let blocks = blocks.clamp(1, rounds);
        let mut samples = Vec::new();
        for b in 0..blocks {
            let block = &self.rounds_ms[b * rounds / blocks..(b + 1) * rounds / blocks];
            for op in 0..block[0].len() {
                let repeats: Vec<f64> = block.iter().map(|round| round[op]).collect();
                samples.push(median(&repeats));
            }
        }
        samples
    }

    /// The six end-to-end metrics, plus a line on stderr naming the tail
    /// percentile and its sample count. Operation times are medians over
    /// `blocks` blocks of rounds.
    pub fn end_to_end(&self, blocks: usize) -> Vec<Metric> {
        let ops = self.op_ms(blocks);
        let per_round = self.rounds_ms[0].len();
        let wall = median(&self.round_s);
        let (p, tail_ms) = tail(&ops);
        eprintln!(
            "{} rounds of {per_round} operations, median round {wall:.6} s; \
             op_tail_ms is p{p} of {} operation times; set-up median of {}",
            self.round_s.len(),
            ops.len(),
            self.setup_s.len(),
        );
        vec![
            ("setup_s".into(), median(&self.setup_s), "s"),
            ("wall_s".into(), wall, "s"),
            ("ops_per_s".into(), per_round as f64 / wall, "1/s"),
            ("op_p50_ms".into(), median(&ops), "ms"),
            ("op_tail_ms".into(), tail_ms, "ms"),
            ("peak_rss_mb".into(), peak_rss_mib(), "MiB"),
        ]
    }
}

/// Calls `round(traced)` until `args.seconds` have passed. An untraced
/// run's rounds are all untraced; a traced run alternates untraced and
/// traced rounds and ends after a traced one, so both halves see the same
/// host conditions.
pub fn rounds(args: &crate::Args, mut round: impl FnMut(bool)) {
    let started = Instant::now();
    for i in 0.. {
        let traced = args.trace && i % 2 == 1;
        round(traced);
        if secs(started) >= args.seconds && traced == args.trace {
            break;
        }
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Where runs keep their stores; removed when a run starts and ends.
pub const WORK_DIR: &str = ".bench_work";

/// The directory `name` under [`WORK_DIR`].
pub fn work_dir(name: &str) -> PathBuf {
    Path::new(WORK_DIR).join(name)
}

/// A fresh, empty directory at `path` (any previous content removed).
pub fn fresh_dir(path: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    path.to_path_buf()
}

/// Sleeps until the store's `segments/` directory was last modified at
/// least `settle` ago. `Store::refresh` rescans until its directory's mtime
/// is two seconds old, so waiting this out puts every later request on the
/// settled (skip-the-rescan) side of that rule.
pub fn wait_until_settled(store_dir: &Path, settle: Duration) {
    let segments = store_dir.join("segments");
    loop {
        let modified = std::fs::metadata(&segments)
            .and_then(|m| m.modified())
            .unwrap_or(SystemTime::UNIX_EPOCH);
        let age = SystemTime::now()
            .duration_since(modified)
            .unwrap_or(Duration::ZERO);
        if age >= settle {
            return;
        }
        std::thread::sleep(settle - age);
    }
}

/// FNV-1a over canonical records: each record's cache key and its
/// simulated results as canonical JSON. Records of equal simulated
/// statistics give equal digests, whatever their host timings.
pub fn records_digest<'a>(records: impl IntoIterator<Item = &'a dsmt_sweep::RunRecord>) -> u64 {
    use serde::Serialize;
    let mut h = dsmt_store::Fnv64::new();
    for rec in records {
        h.update(rec.key.as_bytes());
        h.update(serde::to_string(&rec.results.to_value()).as_bytes());
    }
    h.finish()
}

/// The accounting identities every simulated record must satisfy:
/// address- and execute-processor slot totals equal cycles × units, and
/// per-thread instructions sum to the total.
pub fn identities_hold(rec: &dsmt_sweep::RunRecord) -> Result<(), String> {
    let r = &rec.results;
    let cfg = &rec.scenario.config;
    let ap = r.cycles * cfg.ap_units as u64;
    let ep = r.cycles * cfg.ep_units as u64;
    let threads: u64 = r.per_thread_instructions.iter().sum();
    if r.ap_slots.total() != ap {
        return Err(format!(
            "AP slots {} != cycles x units {ap}",
            r.ap_slots.total()
        ));
    }
    if r.ep_slots.total() != ep {
        return Err(format!(
            "EP slots {} != cycles x units {ep}",
            r.ep_slots.total()
        ));
    }
    if threads != r.instructions {
        return Err(format!(
            "per-thread instructions {threads} != total {}",
            r.instructions
        ));
    }
    Ok(())
}

/// Names the first field in which two results differ, for failure notes.
pub fn first_difference(a: &dsmt_core::SimResults, b: &dsmt_core::SimResults) -> String {
    use serde::{Serialize, Value};
    match (a.to_value(), b.to_value()) {
        (Value::Object(fa), Value::Object(fb)) => fa
            .iter()
            .zip(&fb)
            .find(|(x, y)| x != y)
            .map_or_else(|| "no field differs".to_string(), |(x, _)| x.0.clone()),
        _ => "results are not objects".to_string(),
    }
}
