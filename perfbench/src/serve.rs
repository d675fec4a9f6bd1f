//! `serve_read`: an in-process `dsmt-serve` daemon over a store its
//! set-up fills through the fleet path (`POST /grids`, then the shard
//! executor runs the plans into the same store), driven by one
//! closed-loop client through the shipped `HttpClient`, one connection
//! per request, as `dsmt client` does.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dsmt_core::{FetchPolicy, SimConfig, SimResults};
use dsmt_experiments::L2_LATENCIES;
use dsmt_serve::{
    json_body, HttpClient, Response, ServeSummary, Server, ServerConfig, ShutdownHandle,
    SweepService,
};
use dsmt_shard::{
    merge_from, plan, recover, DsrFile, RecoverOptions, ShardManifest, ShardStrategy, Transport,
};
use dsmt_store::{fnv1a64, Store};
use dsmt_sweep::{Axis, Scenario, SweepEngine, SweepGrid, WorkloadSpec, CACHE_SCHEMA_VERSION};
use serde::{Deserialize, Serialize, Value};

use crate::layers;
use crate::tracer::Tracer;
use crate::util::{self, fresh_dir, median, nproc, secs, work_dir, Metric, Rng, Tally, Timings};
use crate::{Args, Outcome};

/// Set-up repetitions whose median is `setup_s`.
const SETUPS: usize = 3;
/// Shards per submitted plan (strided).
const SHARDS: usize = 2;
/// Instructions per cell of the served grids.
const BUDGET: u64 = 30_000;
/// `Store::refresh` rescans until the segments directory's mtime is 2 s
/// old; set-up waits this long after the last publish, so every timed
/// request takes the settled path.
const SETTLE: Duration = Duration::from_millis(2_100);
/// Cells re-driven through the core by the traced run.
const CORE_SAMPLE: usize = 6;
/// Replays of one round through `SweepService` without a socket.
const SERVICE_REPLAYS: usize = 5;
/// Blocks of rounds whose medians are the request times (see [`Timings`]).
const BLOCKS: usize = 8;

/// Request classes, in the order metrics name them.
const CLASSES: [&str; 6] = ["cell", "cell_304", "status", "record", "grids", "submit"];

/// The make-up of one round: requests per class of [`CLASSES`]. One
/// `cell` request per round carries a stale ETag; one `submit` is a new
/// plan, the others re-submit a served grid. The new plan's manifest is
/// removed once it is written, so every round lists the same grids and its
/// new plan is new again.
const ROUND_MIX: [usize; 6] = [6, 4, 3, 2, 2, 3];

/// The grids set-up serves: a multithreaded SPEC FP95 mix over threads ×
/// decoupling, three single-benchmark runs at two L2 latencies, and a pair
/// of assembled programs under both fetch policies. The seed picks the
/// benchmarks, the programs and every grid's workload seed; the
/// configurations stay fixed, so the simulated processors, and with them
/// the set-up's memory, are the same size whatever the seed.
fn served_grids(seed: u64) -> Vec<SweepGrid> {
    let mut rng = Rng::new(seed, 2);
    let (a, b) = (64, 256);
    let profiles = dsmt_trace::spec_fp95_profiles();
    let benchmarks = rng
        .sample(profiles.len(), 3)
        .into_iter()
        .map(|i| WorkloadSpec::benchmark(profiles[i].name.clone()));
    let corpus = dsmt_asm::corpus::CORPUS;
    let mut programs: Vec<(&str, &str)> = corpus.to_vec();
    rng.shuffle(&mut programs);
    vec![
        multithreaded_grid("serve-mt", a, rng.next_u64() % 1_000_000),
        SweepGrid::new("serve-st", SimConfig::paper_single_thread_4wide())
            .with_workloads(benchmarks)
            .with_axis(Axis::l2_latencies(&[a, b]))
            .with_seed(rng.next_u64() % 1_000_000)
            .with_budget(BUDGET),
        SweepGrid::new("serve-asm", SimConfig::paper_multithreaded(4))
            .with_workload(WorkloadSpec::programs(&programs[..2]))
            .with_axis(Axis::fetch_policies(&[
                FetchPolicy::ICount,
                FetchPolicy::RoundRobin,
            ]))
            .with_seed(rng.next_u64() % 1_000_000)
            .with_budget(BUDGET),
    ]
}

fn multithreaded_grid(name: &str, l2: u64, seed: u64) -> SweepGrid {
    SweepGrid::new(
        name,
        SimConfig::paper_multithreaded(1).with_queue_scaling(true),
    )
    .with_workload(WorkloadSpec::spec_mix(10_000))
    .with_axis(Axis::threads(&[1, 2, 3, 4]))
    .with_axis(Axis::decoupled(&[true, false]))
    .with_axis(Axis::l2_latencies(&[l2]))
    .with_seed(seed)
    .with_budget(BUDGET)
}

fn submit_body(grid: &SweepGrid) -> String {
    serde::to_string(&Value::Object(vec![
        ("grid".into(), grid.to_value()),
        ("shards".into(), Value::U64(SHARDS as u64)),
        ("strategy".into(), Value::Str("strided".into())),
    ]))
}

/// One served cell: its scenario, store key and the ETag the store's
/// header FNV gives it.
struct Cell {
    scenario: Scenario,
    key: String,
    etag: String,
}

/// A running daemon over a filled store.
struct Daemon {
    dir: PathBuf,
    client: HttpClient,
    handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<ServeSummary>>,
    /// Requests this benchmark sent to the daemon.
    sent: u64,
    grids: Vec<(SweepGrid, String)>,
    cells: Vec<Cell>,
    /// Seconds the shard executor took to run every plan.
    shard_s: f64,
}

impl Daemon {
    fn send(&mut self, request: impl FnOnce(&HttpClient) -> Result<Response, String>) -> Response {
        self.sent += 1;
        request(&self.client).unwrap_or_else(|e| panic!("request to the daemon failed: {e}"))
    }

    /// Stops the daemon and checks its shutdown: every request served, no
    /// forced drain, the store's `serve` claim released.
    fn stop(self, tally: &mut Tally) -> ServeSummary {
        self.handle.shutdown();
        let summary = self
            .thread
            .join()
            .expect("daemon thread")
            .expect("daemon runs");
        let sent = self.sent;
        tally.check(summary.requests == sent, || {
            format!(
                "daemon served {} requests, {sent} were sent",
                summary.requests
            )
        });
        tally.check(!summary.forced_abort, || "daemon forced its drain".into());
        let holder = dsmt_store::LockFile::holder(self.dir.join("locks"), "serve");
        tally.check(holder.is_none(), || {
            format!("serve claim still held by {holder:?}")
        });
        summary
    }
}

/// Starts a daemon over an empty store at `dir`, submits `grids` and runs
/// their plans with the shard executor into the same store, then waits
/// for the store to settle.
fn set_up(dir: &Path, grids: &[SweepGrid], tally: &mut Tally) -> Daemon {
    fresh_dir(dir);
    let service = SweepService::open(dir, Box::new(|_| None)).expect("service opens");
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: nproc(),
        ..ServerConfig::default()
    };
    let server = Server::bind(config, service).expect("daemon binds");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let mut daemon = Daemon {
        dir: dir.to_path_buf(),
        client: HttpClient::new(addr).with_timeout(Duration::from_secs(30)),
        handle,
        thread,
        sent: 0,
        grids: Vec::new(),
        cells: Vec::new(),
        shard_s: 0.0,
    };
    for grid in grids {
        let body = submit_body(grid);
        let resp = daemon.send(|c| c.post_json("/grids", body));
        let hash = json_body(&resp)
            .ok()
            .and_then(|v| {
                v.field("grid_hash")
                    .ok()
                    .and_then(|h| h.as_str().ok().map(str::to_string))
            })
            .unwrap_or_default();
        tally.check(resp.status == 201 && !hash.is_empty(), || {
            format!("POST /grids for {} answered {}", grid.name, resp.status)
        });
        daemon.grids.push((grid.clone(), hash));
    }
    // The fleet: `dsmt shard run <plan> --missing --store <dir>`.
    let started = Instant::now();
    let engine = SweepEngine::new(nproc()).with_cache_dir(dir);
    for (grid, hash) in &daemon.grids {
        let manifest = ShardManifest::load(dir.join("plans").join(format!("{hash}.plan.json")))
            .expect("submitted plan is on disk");
        let mut transport = Transport::store(dir).expect("store transport");
        let run = recover(
            &manifest,
            &mut transport,
            &engine,
            &RecoverOptions::default(),
        )
        .expect("plan runs");
        tally.check(run.executed().len() == SHARDS, || {
            format!("shard executor ran {:?} of {}", run.executed(), grid.name)
        });
    }
    daemon.shard_s = secs(started);
    util::wait_until_settled(dir, SETTLE);
    let store = Store::open(dir, CACHE_SCHEMA_VERSION).expect("store opens");
    for (grid, _) in &daemon.grids {
        for cell in grid.cells() {
            let key = cell.scenario.cache_key();
            let fnv = store
                .record_fnv(key)
                .expect("every served cell is in the store");
            daemon.cells.push(Cell {
                scenario: cell.scenario,
                key: format!("{key:016x}"),
                etag: format!("\"{fnv:016x}\""),
            });
        }
    }
    // The first status read rescans the store the executor wrote; later
    // reads find the directory unchanged and settled.
    for i in 0..daemon.grids.len() {
        let path = format!("/grids/{}/status", daemon.grids[i].1);
        let resp = daemon.send(|c| c.get(&path));
        tally.check(complete(&resp), || {
            format!("{path} is not complete after set-up")
        });
    }
    daemon
}

fn complete(resp: &Response) -> bool {
    resp.status == 200
        && json_body(resp).is_ok_and(|v| v.field("complete").is_ok_and(|c| *c == Value::Bool(true)))
}

/// One request of a round.
#[derive(Debug, Clone)]
enum Req {
    /// `GET /cells/{key}`, optionally with a stale `If-None-Match`.
    Cell {
        cell: usize,
        stale: bool,
    },
    /// `GET /cells/{key}` revalidating the current ETag.
    Cell304 {
        cell: usize,
    },
    Status {
        grid: usize,
    },
    Record {
        grid: usize,
    },
    Grids,
    /// `POST /grids` of a served grid (deduplicates).
    Resubmit {
        grid: usize,
    },
    /// `POST /grids` of a grid not on disk; its manifest is removed
    /// again after the request.
    NewPlan {
        grid: Box<SweepGrid>,
    },
}

impl Req {
    fn class(&self) -> &'static str {
        match self {
            Req::Cell { .. } => "cell",
            Req::Cell304 { .. } => "cell_304",
            Req::Status { .. } => "status",
            Req::Record { .. } => "record",
            Req::Grids => "grids",
            Req::Resubmit { .. } | Req::NewPlan { .. } => "submit",
        }
    }
}

/// The requests of a round: every round sends the same seeded sequence.
fn round_requests(seed: u64, cells: usize, grids: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed, 100);
    let mut reqs = Vec::new();
    for i in 0..ROUND_MIX[0] {
        reqs.push(Req::Cell {
            cell: rng.below(cells),
            stale: i == 0,
        });
    }
    for _ in 0..ROUND_MIX[1] {
        reqs.push(Req::Cell304 {
            cell: rng.below(cells),
        });
    }
    for _ in 0..ROUND_MIX[2] {
        reqs.push(Req::Status {
            grid: rng.below(grids),
        });
    }
    for _ in 0..ROUND_MIX[3] {
        reqs.push(Req::Record {
            grid: rng.below(grids),
        });
    }
    for _ in 0..ROUND_MIX[4] {
        reqs.push(Req::Grids);
    }
    for _ in 1..ROUND_MIX[5] {
        reqs.push(Req::Resubmit {
            grid: rng.below(grids),
        });
    }
    let l2 = L2_LATENCIES[rng.below(L2_LATENCIES.len())];
    let grid = multithreaded_grid("serve-new", l2, rng.next_u64() % 1_000_000);
    reqs.push(Req::NewPlan {
        grid: Box::new(grid),
    });
    rng.shuffle(&mut reqs);
    reqs
}

/// Bodies the timed phase received, checked against independent
/// computations once it ends.
#[derive(Default)]
struct Received {
    /// Cell index → FNVs of every body served for it.
    cells: BTreeMap<usize, Vec<u64>>,
    /// First body served per cell.
    first_cell_body: BTreeMap<usize, Vec<u8>>,
    /// Grid index → FNVs of every record served for it.
    records: BTreeMap<usize, Vec<u64>>,
}

/// Sends one request and checks what can be checked at once.
fn execute(d: &mut Daemon, req: &Req, got: &mut Received, tally: &mut Tally) {
    match req {
        Req::Cell { cell, stale } => {
            let path = format!("/cells/{}", d.cells[*cell].key);
            let resp = if *stale {
                // Another cell's ETag: stale for this one.
                let other = d.cells[(*cell + 1) % d.cells.len()].etag.clone();
                d.send(|c| c.get_with(&path, &[("If-None-Match", &other)]))
            } else {
                d.send(|c| c.get(&path))
            };
            let etag = resp.header("etag").map(str::to_string);
            let ok = resp.status == 200 && !resp.body.is_empty();
            let want = &d.cells[*cell].etag;
            tally.check(ok && etag.as_ref() == Some(want), || {
                format!(
                    "{path}: status {} etag {etag:?}, want 200 and {want}",
                    resp.status
                )
            });
            got.cells
                .entry(*cell)
                .or_default()
                .push(fnv1a64(&resp.body));
            got.first_cell_body.entry(*cell).or_insert(resp.body);
        }
        Req::Cell304 { cell } => {
            let path = format!("/cells/{}", d.cells[*cell].key);
            let etag = d.cells[*cell].etag.clone();
            let resp = d.send(|c| c.get_with(&path, &[("If-None-Match", &etag)]));
            tally.check(resp.status == 304 && resp.body.is_empty(), || {
                format!(
                    "{path} revalidation: status {}, {} body bytes",
                    resp.status,
                    resp.body.len()
                )
            });
        }
        Req::Status { grid } => {
            let path = format!("/grids/{}/status", d.grids[*grid].1);
            let resp = d.send(|c| c.get(&path));
            tally.check(complete(&resp), || {
                format!("{path}: status {}", resp.status)
            });
        }
        Req::Record { grid } => {
            let path = format!("/grids/{}/record", d.grids[*grid].1);
            let resp = d.send(|c| c.get(&path));
            let fnv = fnv1a64(&resp.body);
            let etag_ok = resp.header("etag") == Some(format!("\"{fnv:016x}\"").as_str());
            tally.check(resp.status == 200 && etag_ok, || {
                format!(
                    "{path}: status {}, etag matches body: {etag_ok}",
                    resp.status
                )
            });
            got.records.entry(*grid).or_default().push(fnv);
        }
        Req::Grids => {
            let resp = d.send(|c| c.get("/grids"));
            let listed = match json_body(&resp).as_ref().map(|v| v.field("grids")) {
                Ok(Ok(Value::Array(grids))) => grids.len(),
                _ => 0,
            };
            tally.check(resp.status == 200 && listed == d.grids.len(), || {
                format!("GET /grids: status {}, {listed} grids listed", resp.status)
            });
        }
        Req::Resubmit { grid } => {
            let body = submit_body(&d.grids[*grid].0);
            let resp = d.send(|c| c.post_json("/grids", body));
            let want = d.grids[*grid].1.clone();
            tally.check(submitted(&resp) == Some((want.clone(), false)), || {
                format!("re-submission of {want}: status {}", resp.status)
            });
        }
        Req::NewPlan { grid } => {
            let body = submit_body(grid);
            let resp = d.send(|c| c.post_json("/grids", body));
            let want = plan(grid, SHARDS, ShardStrategy::Strided)
                .expect("new grid plans")
                .grid_hash;
            tally.check(submitted(&resp) == Some((want.clone(), true)), || {
                format!("new plan {want}: status {}", resp.status)
            });
            withdraw_plan(&d.dir, &want);
        }
    }
}

/// Removes the manifest a new plan wrote, so the plan set stays the
/// served grids'. A manifest that is not there fails the next round's
/// `created` check.
fn withdraw_plan(dir: &Path, hash: &str) {
    let _ = std::fs::remove_file(dir.join("plans").join(format!("{hash}.plan.json")));
}

/// `(grid_hash, created)` of a submission response.
fn submitted(resp: &Response) -> Option<(String, bool)> {
    if resp.status != 201 {
        return None;
    }
    let v = json_body(resp).ok()?;
    let hash = v.field("grid_hash").ok()?.as_str().ok()?.to_string();
    let created = *v.field("created").ok()? == Value::Bool(true);
    Some((hash, created))
}

/// Checks the bodies the timed phase received: every `/cells` body equals
/// `Scenario::execute` for that cell, and every record equals the `.dsr`
/// encoding of a monolithic `SweepEngine::run` of the grid with no cache.
/// Returns the re-executed results by cell.
fn check_bodies(d: &Daemon, got: &Received, tally: &mut Tally) -> BTreeMap<usize, SimResults> {
    let mut executed = BTreeMap::new();
    for (&cell, fnvs) in &got.cells {
        let want = d.cells[cell].scenario.execute();
        let body = &got.first_cell_body[&cell];
        let served = std::str::from_utf8(body)
            .ok()
            .and_then(|text| serde::from_str::<Value>(text).ok())
            .and_then(|v| {
                v.field("results")
                    .ok()
                    .and_then(|r| SimResults::from_value(r).ok())
            });
        let key = &d.cells[cell].key;
        let first = fnv1a64(body);
        for &fnv in fnvs {
            let same = served.as_ref() == Some(&want) && fnv == first;
            tally.check(same, || {
                format!("/cells/{key} body differs from Scenario::execute")
            });
        }
        executed.insert(cell, want);
    }
    for (&grid, fnvs) in &got.records {
        let g = &d.grids[grid].0;
        let report = SweepEngine::new(nproc()).without_cache().run(g);
        let want = fnv1a64(&DsrFile::from_report(g, &report, 0, 1).encode());
        for &fnv in fnvs {
            tally.check(fnv == want, || {
                format!("record of {} differs from a monolithic run's .dsr", g.name)
            });
        }
    }
    executed
}

pub fn run(args: &Args) -> Outcome {
    let grids = served_grids(args.seed);
    let mut tally = Tally::default();
    let mut timings = Timings::default();
    let mut daemon: Option<Daemon> = None;
    for i in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            previous.stop(&mut tally);
        }
        let started = Instant::now();
        daemon = Some(set_up(
            &work_dir(&format!("serve_read-{i}")),
            &grids,
            &mut tally,
        ));
        timings.setup_s.push(secs(started));
    }
    let mut d = daemon.expect("set up at least once");

    let mut tracer = Tracer::new(false);
    let mut got = Received::default();
    let mut traced_walls = Vec::new();
    let reqs = round_requests(args.seed, d.cells.len(), d.grids.len());
    util::rounds(args, |traced| {
        tracer.set_enabled(traced);
        let started = Instant::now();
        let mut rtt_ms = Vec::with_capacity(reqs.len());
        for req in &reqs {
            tracer.next_op();
            let sent = Instant::now();
            tracer.span_labelled("serve.request", req.class(), |_| {
                execute(&mut d, req, &mut got, &mut tally);
            });
            rtt_ms.push(secs(sent) * 1e3);
        }
        let wall = secs(started);
        if traced {
            traced_walls.push(wall);
        } else {
            timings.round_s.push(wall);
            timings.rounds_ms.push(rtt_ms);
        }
    });
    let executed = check_bodies(&d, &got, &mut tally);

    let metrics = if args.trace {
        let mut m = serve_layers(&d, &reqs, &tracer, &mut tally);
        let mut t = tracer;
        t.set_enabled(true);
        let scenarios: Vec<Scenario> = d.cells.iter().map(|c| c.scenario.clone()).collect();
        m.push(layers::key_pass(&scenarios, &mut t));
        let sample: Vec<(Scenario, SimResults)> = executed
            .iter()
            .take(CORE_SAMPLE)
            .map(|(&cell, r)| (d.cells[cell].scenario.clone(), r.clone()))
            .collect();
        m.extend(layers::core_pass(&sample, &mut t, &mut tally));
        let keys: Vec<u64> = scenarios.iter().map(Scenario::cache_key).collect();
        m.extend(layers::store_pass(
            &d.dir,
            &work_dir("scratch"),
            &keys,
            &mut t,
            &mut tally,
        ));
        m.push(("shard.run_s".into(), d.shard_s, "s"));
        m.push((
            "bench.trace_overhead_pct".into(),
            (median(&traced_walls) / median(&timings.round_s) - 1.0) * 100.0,
            "%",
        ));
        let summary = d.stop(&mut tally);
        m.push(("serve.requests".into(), summary.requests as f64, "count"));
        m.push((
            "serve.connections".into(),
            summary.connections as f64,
            "count",
        ));
        crate::write_spans(&t, args);
        m
    } else {
        d.stop(&mut tally);
        timings.end_to_end(BLOCKS)
    };
    Outcome { tally, metrics }
}

/// The serve and shard metrics of a traced run: round trips per class from
/// the traced rounds, the same requests replayed on a `SweepService`
/// without a socket, and shard merges.
fn serve_layers(d: &Daemon, round: &[Req], t: &Tracer, tally: &mut Tally) -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();
    let rtts: Vec<f64> = t
        .durations("serve.request")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    for class in CLASSES {
        let spans: Vec<f64> = t
            .named("serve.request")
            .filter(|s| s.label == class)
            .map(|s| s.secs() * 1e3)
            .collect();
        m.push((format!("serve.rtt_ms.{class}"), median(&spans), "ms"));
    }
    let service = SweepService::open(&d.dir, Box::new(|_| None)).expect("second service opens");
    let mut by_class: HashMap<&str, Vec<f64>> = HashMap::new();
    for _ in 0..SERVICE_REPLAYS {
        for req in round {
            let mut written = None;
            let started = Instant::now();
            let ok = match req {
                Req::Cell { cell, stale } => {
                    let other = &d.cells[(*cell + 1) % d.cells.len()].etag;
                    let inm = stale.then_some(other.as_str());
                    service
                        .cell(&d.cells[*cell].key, inm)
                        .is_ok_and(|f| f.json.is_some())
                }
                Req::Cell304 { cell } => service
                    .cell(&d.cells[*cell].key, Some(&d.cells[*cell].etag))
                    .is_ok_and(|f| f.json.is_none()),
                Req::Status { grid } => service.status(&d.grids[*grid].1).is_ok(),
                Req::Record { grid } => service.record(&d.grids[*grid].1).is_ok(),
                Req::Grids => service.list_grids().is_ok(),
                Req::Resubmit { grid } => service
                    .submit(submit_body(&d.grids[*grid].0).as_bytes())
                    .is_ok(),
                Req::NewPlan { grid } => {
                    let out = service.submit(submit_body(grid).as_bytes());
                    let field = |name| out.as_ref().ok().and_then(|v| v.field(name).ok());
                    written = field("grid_hash").and_then(|h| h.as_str().ok().map(str::to_string));
                    field("created") == Some(&Value::Bool(true))
                }
            };
            by_class
                .entry(req.class())
                .or_default()
                .push(secs(started) * 1e6);
            if let Some(hash) = written {
                withdraw_plan(&d.dir, &hash);
            }
            tally.check(ok, || format!("SweepService {} call failed", req.class()));
        }
    }
    let mut all_service_us = Vec::new();
    for class in CLASSES {
        let us = by_class.remove(class).unwrap_or_default();
        m.push((format!("serve.service_us.{class}"), median(&us), "us"));
        all_service_us.extend(us);
    }
    m.push((
        "serve.accept_wait_ms".into(),
        median(&rtts) - median(&all_service_us) / 1e3,
        "ms",
    ));
    let mut merge_ms = Vec::new();
    for (grid, hash) in &d.grids {
        let manifest = ShardManifest::load(d.dir.join("plans").join(format!("{hash}.plan.json")))
            .expect("plan on disk");
        let mut transport = Transport::store(&d.dir).expect("store transport");
        let started = Instant::now();
        let merged = merge_from(&manifest, &mut transport);
        merge_ms.push(secs(started) * 1e3);
        tally.check(merged.is_ok_and(|r| r.records.len() == grid.len()), || {
            format!("merge of {} failed", grid.name)
        });
    }
    m.push(("shard.merge_ms".into(), median(&merge_ms), "ms"));
    m
}
