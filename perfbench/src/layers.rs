//! Per-layer passes of the traced run: each drives one crate directly on
//! the workload's own cells or store and reports that layer's metrics.
//!
//! * [`core_pass`] re-drives a sample of cells through
//!   `Scenario::processor` and `Processor::run` (`core`), drains the same
//!   cells' trace sources outside the core (`trace`, `asm`), and replays
//!   their address and branch streams through `MemorySystem::try_access`
//!   (`mem`) and `BranchPredictor::predict_and_train` (`uarch`).
//! * [`store_pass`] opens the workload's store, reads records through a
//!   fresh handle and republishes them into a scratch store (`store`).
//! * [`key_pass`] hashes every cell's cache key (`sweep`).

use std::path::Path;
use std::time::Instant;

use dsmt_isa::Instruction;
use dsmt_mem::{AccessKind, AccessResponse, MemorySystem};
use dsmt_sweep::{Scenario, WorkloadSpec, CACHE_SCHEMA_VERSION};
use dsmt_trace::{spec_fp95_profile, ProgramWorkload, SyntheticTrace, ThreadWorkload, TraceSource};
use dsmt_uarch::BranchPredictor;

use crate::tracer::Tracer;
use crate::util::{first_difference, secs, Metric, Tally};

/// Re-drives `cells` (each with the results the engine recorded for it)
/// and returns the `core`, `trace`, `asm`, `mem` and `uarch` metrics. A
/// re-driven cell whose results differ from the engine's is a failed
/// check.
pub fn core_pass(
    cells: &[(Scenario, dsmt_core::SimResults)],
    t: &mut Tracer,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut build_s = 0.0;
    let mut run_s = 0.0;
    let (mut cycles, mut insts, mut skipped, mut windows) = (0u64, 0u64, 0u64, 0u64);
    let (mut synth_s, mut synth_n, mut prog_s, mut prog_n) = (0.0, 0u64, 0.0, 0u64);
    let (mut asm_s, mut asm_cells) = (0.0, 0u64);
    let (mut mem_s, mut mem_calls) = (0.0, 0u64);
    let (mut br_s, mut br_n) = (0.0, 0u64);
    let (mut load_misses, mut mshr_full, mut bus_busy, mut mispredictions) = (0u64, 0, 0, 0);
    for (scenario, expected) in cells {
        t.next_op();
        let label = scenario.cache_key_hex();
        let started = Instant::now();
        let mut cpu = t.span_labelled("core.build", label.clone(), |_| scenario.processor());
        build_s += secs(started);
        let started = Instant::now();
        let results = t.span_labelled("core.run", label.clone(), |_| cpu.run(scenario.budget));
        run_s += secs(started);
        tally.check(&results == expected, || {
            format!(
                "cell {label} re-driven through the core differs from the engine's record in `{}`",
                first_difference(&results, expected)
            )
        });
        cycles += results.cycles;
        insts += results.instructions;
        skipped += cpu.perf().busy_cycles_skipped;
        windows += cpu.perf().skip_windows;
        load_misses += results.mem.load_misses;
        mshr_full += results.mem.mshr_full_rejections;
        bus_busy += results.mem.bus_busy_cycles;
        mispredictions += results.mispredictions;

        let programs = matches!(scenario.workload, WorkloadSpec::Programs { .. });
        let (mut sources, assemble_s) =
            t.span_labelled("trace.build", label.clone(), |t| sources(scenario, t));
        if programs {
            asm_s += assemble_s;
            asm_cells += 1;
        }
        let started = Instant::now();
        let per_thread = scenario.budget / sources.len().max(1) as u64;
        let stream = t.span_labelled("trace.drain", label.clone(), |_| {
            drain(&mut sources, per_thread)
        });
        let drained = secs(started);
        if programs {
            prog_s += drained;
            prog_n += stream.instructions;
        } else {
            synth_s += drained;
            synth_n += stream.instructions;
        }

        let started = Instant::now();
        mem_calls += t.span_labelled("mem.replay", label.clone(), |_| {
            replay_memory(scenario, &stream.accesses)
        });
        mem_s += secs(started);
        let started = Instant::now();
        t.span_labelled("uarch.replay", label, |_| {
            let mut bp = BranchPredictor::new(scenario.config.bht_entries);
            for &(pc, taken) in &stream.branches {
                std::hint::black_box(bp.predict_and_train(pc, taken));
            }
        });
        br_s += secs(started);
        br_n += stream.branches.len() as u64;
    }
    let n = cells.len().max(1) as f64;
    let per = |s: f64, count: u64, scale: f64| {
        if count == 0 {
            0.0
        } else {
            s * scale / count as f64
        }
    };
    vec![
        ("core.build_us_per_cell".into(), build_s * 1e6 / n, "us"),
        ("core.ns_per_inst".into(), per(run_s, insts, 1e9), "ns"),
        (
            "core.ns_per_stepped_cycle".into(),
            per(run_s, cycles - skipped, 1e9),
            "ns",
        ),
        ("core.cycles".into(), cycles as f64, "count"),
        ("core.instructions".into(), insts as f64, "count"),
        ("core.busy_cycles_skipped".into(), skipped as f64, "count"),
        ("core.skip_windows".into(), windows as f64, "count"),
        (
            "trace.synth_ns_per_inst".into(),
            per(synth_s, synth_n, 1e9),
            "ns",
        ),
        (
            "trace.program_ns_per_inst".into(),
            per(prog_s, prog_n, 1e9),
            "ns",
        ),
        (
            "asm.assemble_us_per_cell".into(),
            per(asm_s, asm_cells, 1e6),
            "us",
        ),
        ("mem.ns_per_access".into(), per(mem_s, mem_calls, 1e9), "ns"),
        ("mem.load_misses".into(), load_misses as f64, "count"),
        ("mem.mshr_full_rejections".into(), mshr_full as f64, "count"),
        ("mem.bus_busy_cycles".into(), bus_busy as f64, "count"),
        ("uarch.ns_per_branch".into(), per(br_s, br_n, 1e9), "ns"),
        (
            "uarch.mispredictions".into(),
            mispredictions as f64,
            "count",
        ),
    ]
}

/// The per-thread trace sources `Scenario::processor` builds for this
/// cell, built here without the core, with the seconds spent assembling
/// a program workload (span `asm.assemble`).
fn sources(scenario: &Scenario, t: &mut Tracer) -> (Vec<Box<dyn TraceSource>>, f64) {
    let threads = scenario.config.num_threads;
    let seed = scenario.seed;
    let synthetic = |profile: &dsmt_trace::BenchmarkProfile| -> Vec<Box<dyn TraceSource>> {
        (0..threads)
            .map(|t| {
                Box::new(SyntheticTrace::with_offset(
                    profile,
                    seed,
                    t as u64 * 0x0400_2000,
                )) as Box<dyn TraceSource>
            })
            .collect()
    };
    let built = match &scenario.workload {
        WorkloadSpec::SpecMix { insts_per_program } => boxed(
            ThreadWorkload::spec_fp95(seed)
                .with_insts_per_program(*insts_per_program)
                .build(threads),
        ),
        WorkloadSpec::Mix {
            benchmarks,
            insts_per_program,
        } => {
            let profiles = benchmarks
                .iter()
                .map(|n| spec_fp95_profile(n).expect("grid names a known benchmark"))
                .collect();
            boxed(ThreadWorkload::new(profiles, *insts_per_program, seed).build(threads))
        }
        WorkloadSpec::Benchmark { name } => {
            synthetic(&spec_fp95_profile(name).expect("grid names a known benchmark"))
        }
        WorkloadSpec::Profile { profile } => synthetic(profile),
        WorkloadSpec::Programs { programs } => {
            let started = Instant::now();
            let assembled = t.span("asm.assemble", |_| {
                programs
                    .iter()
                    .map(|p| dsmt_asm::assemble(&p.name, &p.source).expect("corpus assembles"))
                    .collect()
            });
            let assemble_s = secs(started);
            return (
                boxed(ProgramWorkload::new(assembled, seed).build(threads)),
                assemble_s,
            );
        }
    };
    (built, 0.0)
}

fn boxed<S: TraceSource + 'static>(sources: Vec<S>) -> Vec<Box<dyn TraceSource>> {
    sources
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn TraceSource>)
        .collect()
}

/// A cell's instruction stream as the layers below the core see it.
struct Stream {
    instructions: u64,
    /// `(address, is_store)` in program order, threads interleaved.
    accesses: Vec<(u64, bool)>,
    /// `(pc, taken)` of every control transfer.
    branches: Vec<(u64, bool)>,
}

/// Drains up to `per_thread` instructions from each source, round-robin.
fn drain(sources: &mut [Box<dyn TraceSource>], per_thread: u64) -> Stream {
    let mut stream = Stream {
        instructions: 0,
        accesses: Vec::new(),
        branches: Vec::new(),
    };
    let mut live = vec![true; sources.len()];
    for _ in 0..per_thread {
        for (src, alive) in sources.iter_mut().zip(live.iter_mut()) {
            if !*alive {
                continue;
            }
            let Some(inst) = src.next_instruction() else {
                *alive = false;
                continue;
            };
            stream.instructions += 1;
            record(&inst, &mut stream);
        }
    }
    stream
}

fn record(inst: &Instruction, stream: &mut Stream) {
    if let Some(m) = inst.mem {
        stream.accesses.push((m.addr, inst.op.is_store()));
    }
    if let Some(b) = inst.branch {
        stream.branches.push((inst.pc, b.taken));
    }
}

/// Replays an address stream through the cell's memory system, one
/// access per port and cycle, retrying a rejected access next cycle.
/// Returns the number of `try_access` calls made.
fn replay_memory(scenario: &Scenario, accesses: &[(u64, bool)]) -> u64 {
    let mut mem = MemorySystem::new(scenario.config.mem);
    let mut cycle = 0u64;
    let mut calls = 0u64;
    mem.begin_cycle(cycle);
    for &(addr, store) in accesses {
        let kind = if store {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        loop {
            calls += 1;
            match mem.try_access(cycle, addr, kind) {
                AccessResponse::Done { .. } => break,
                AccessResponse::NoPort | AccessResponse::NoMshr => {
                    cycle += 1;
                    mem.begin_cycle(cycle);
                }
            }
        }
    }
    std::hint::black_box(mem.stats());
    calls
}

/// Opens the store at `dir` (span `store.open`), reads `keys` through that
/// fresh handle (spans `store.get`, lazily decoding each record) and
/// republishes what it read as one segment into a scratch store (span
/// `store.publish`). Returns the `store` metrics; a key that does not read
/// back is a failed check.
pub fn store_pass(
    dir: &Path,
    scratch: &Path,
    keys: &[u64],
    t: &mut Tracer,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut keys = keys.to_vec();
    keys.sort_unstable();
    keys.dedup();
    t.next_op();
    let decoded = dsmt_obs::registry().counter("store.records_lazy_decoded");
    let decoded_before = decoded.get();
    let started = Instant::now();
    let store = t.span("store.open", |_| {
        dsmt_store::Store::open(dir, CACHE_SCHEMA_VERSION)
    });
    let open_s = secs(started);
    let store = store.unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut values = Vec::with_capacity(keys.len());
    let mut get_us = Vec::with_capacity(keys.len());
    for &key in &keys {
        let started = Instant::now();
        let value = t.span_labelled("store.get", format!("{key:016x}"), |_| {
            store.get(key).cloned()
        });
        get_us.push(secs(started) * 1e6);
        tally.check(value.is_some(), || {
            format!("store record {key:016x} does not read back")
        });
        values.extend(value.map(|v| (key, v)));
    }
    let decoded = decoded.get() - decoded_before;
    let published = values.len().max(1) as f64;
    let mut fresh = dsmt_store::Store::open(crate::util::fresh_dir(scratch), CACHE_SCHEMA_VERSION)
        .expect("scratch store opens");
    let started = Instant::now();
    t.span("store.publish", |_| fresh.publish(values))
        .expect("scratch publish");
    let publish_s = secs(started);
    vec![
        ("store.open_ms".into(), open_s * 1e3, "ms"),
        ("store.get_us".into(), crate::util::median(&get_us), "us"),
        ("store.records_lazy_decoded".into(), decoded as f64, "count"),
        (
            "store.publish_us_per_record".into(),
            publish_s * 1e6 / published,
            "us",
        ),
        ("store.bytes".into(), store.total_bytes() as f64, "B"),
        (
            "store.segments".into(),
            store.segment_count() as f64,
            "count",
        ),
    ]
}

/// Hashes every cell's cache key (span `sweep.key`) and returns
/// `sweep.key_us_per_cell`.
pub fn key_pass(scenarios: &[Scenario], t: &mut Tracer) -> Metric {
    t.next_op();
    let started = Instant::now();
    t.span("sweep.key", |_| {
        for s in scenarios {
            std::hint::black_box(s.cache_key());
        }
    });
    let us = secs(started) * 1e6 / scenarios.len().max(1) as f64;
    ("sweep.key_us_per_cell".into(), us, "us")
}
