//! The PACO serving benchmark.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload through the public front doors
//! (`Session::run`, or `Client::submit` → `Ticket::wait` on an `Engine`),
//! checks every output against a reference computed before set-up, and
//! prints as its last stdout line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  `--trace 0` prints the end-to-end
//! metrics; `--trace 1` prints the per-layer metrics and writes a span file.
//! See README.md for what each workload and metric is for.

mod stats;
mod trace;
mod workload;

use stats::{median, median_f64, percentile, ratio, result_line, END_TO_END, PER_LAYER};
use std::time::Instant;
use trace::{Replay, Replayer, Tracer};
use workload::{run_callers, Cursor, Front, Inputs, Kind, Log, Spec, System};

/// Segments of an untraced run's measured window, each on a fresh system.
const SEGMENTS: usize = 24;
/// Set-ups per system; `setup_s` is their median over the kept segments.
const SETUPS_PER_SYSTEM: usize = 2;
/// Untimed closed-loop traffic between set-up and measurement, in seconds.
const WARM_S: f64 = 0.05;
/// Untraced/traced slice pairs of a traced run's closed-loop window.
const TRACE_SLICES: usize = 10;
/// Replays per request kind in a traced run (fewer if time runs out).
const REPLAYS_PER_KIND: usize = 24;

/// Command-line arguments.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Whether `main` pinned malloc to one arena (recorded, not parsed).
    one_arena: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut it = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        one_arena: false,
    })
}

fn main() {
    let one_arena = pin_malloc_to_one_arena();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => Args { one_arena, ..args },
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}

/// Pin glibc's malloc to a single arena.  With its default of one arena per
/// thread (up to 8 per core), the threads `paco_dist` spawns per request
/// each grow their own heap, and the process's peak resident set varied
/// 19-35 MiB from run to run on `dist-ranks2`; with one arena it repeats
/// within a few percent.  The price: arena overhead no longer shows in
/// `peak_rss_mib`.  Returns whether the setting took.
fn pin_malloc_to_one_arena() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` is glibc's documented tuning entry point; it
        // takes two plain ints, and it runs here before the program has
        // started any other thread or allocated through another arena.
        unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Failure tally over every request a run issued, warm-up included.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, log: &Log) {
        self.attempted += log.attempted;
        self.failed += log.failed;
    }

    fn add_one(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Run one workload; returns the stdout lines, the result line last.
fn run(args: &Args) -> Result<Vec<String>, String> {
    let spec = Spec::named(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {}",
            args.workload,
            workload::NAMES.join(", ")
        )
    })?;
    let mut lines = vec![config_line(&spec, args)];
    let inputs = Inputs::generate(&spec, args.seed);
    let mut tally = Tally::default();
    let mut setups = Vec::new();

    if args.trace {
        let (sys, mut cursors) = set_up(&spec, &inputs, &mut tally, &mut setups);
        let result = traced(
            &spec,
            args,
            &sys,
            &inputs,
            &mut cursors,
            &mut tally,
            &mut lines,
        )?;
        lines.push(result);
        return Ok(lines);
    }

    // The measured window is split into segments, each on a freshly built
    // system after its own set-ups.  On a shared virtual machine the
    // hypervisor takes the CPU away for whole phases ("steal"), which slows
    // everything by up to 2-3x for minutes; so every figure is the median
    // over the half of the segments that lost the least CPU time to steal.
    let mut segments = Vec::with_capacity(SEGMENTS);
    for _ in 0..SEGMENTS {
        let cpu0 = cpu_times();
        let mut seg_setups = Vec::new();
        let (sys, mut cursors) = set_up(&spec, &inputs, &mut tally, &mut seg_setups);
        let log = run_callers(
            &sys,
            &spec,
            &inputs,
            &mut cursors,
            args.seconds / SEGMENTS as f64,
            None,
        );
        drop(sys);
        tally.add(&log);
        let lat = log.sorted(None);
        let ms = |q| percentile(&lat, q).unwrap_or(0) as f64 / 1e6;
        segments.push(Segment {
            steal: steal_share(cpu0, cpu_times()),
            setups: seg_setups,
            rps: lat.len() as f64 / log.wall_s,
            p50_ms: ms(0.5),
            p90_ms: ms(0.9),
            samples: lat.len(),
        });
    }
    let steal_all: Vec<f64> = segments.iter().map(|s| s.steal).collect();
    segments.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let kept = &segments[..SEGMENTS / 2];
    let samples: usize = kept.iter().map(|s| s.samples).sum();
    let beyond: usize = kept.iter().map(|s| stats::beyond(s.samples, 0.9)).sum();
    let least_beyond = kept.iter().map(|s| stats::beyond(s.samples, 0.9)).min();
    if beyond < stats::MIN_TAIL {
        return Err(format!(
            "only {samples} requests completed; p90 needs {} beyond it",
            stats::MIN_TAIL
        ));
    }
    let kept_median = |f: fn(&Segment) -> f64| median_f64(&kept.iter().map(f).collect::<Vec<_>>());
    lines.push(format!(
        "{{\"segments\": {SEGMENTS}, \"kept\": {}, \"samples\": {samples}, \
         \"beyond_p90\": {beyond}, \"least_beyond_p90_in_a_segment\": {}, \
         \"steal_share_kept\": {}, \"steal_share_all\": {}}}",
        kept.len(),
        least_beyond.unwrap_or(0),
        stats::json_number(kept_median(|s| s.steal)),
        stats::json_number(median_f64(&steal_all)),
    ));
    let setups: Vec<f64> = kept.iter().flat_map(|s| s.setups.iter().copied()).collect();
    let values = [
        ("throughput_rps", kept_median(|s| s.rps)),
        ("latency_p50_ms", kept_median(|s| s.p50_ms)),
        ("latency_p90_ms", kept_median(|s| s.p90_ms)),
        ("setup_s", median_f64(&setups)),
        ("peak_rss_mib", peak_rss_mib()),
    ];
    lines.push(result_line(
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        END_TO_END,
        &values,
    ));
    Ok(lines)
}

/// One measured segment of an untraced run.
struct Segment {
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    steal: f64,
    setups: Vec<f64>,
    rps: f64,
    p50_ms: f64,
    p90_ms: f64,
    samples: usize,
}

/// `(steal, total)` CPU time of the whole machine so far, in clock ticks,
/// from the first line of `/proc/stat` (user … steal).
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// Share of CPU time stolen between two [`cpu_times`] readings (0 when
/// `/proc/stat` is unreadable).
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Set-up: build the front door and warm it (one cold compile per shape,
/// plus `IncClose`), [`SETUPS_PER_SYSTEM`] times, recording each time in
/// `setups`; the last system serves, after [`WARM_S`] of untimed traffic.
fn set_up(
    spec: &Spec,
    inputs: &Inputs,
    tally: &mut Tally,
    setups: &mut Vec<f64>,
) -> (System, Vec<Cursor>) {
    let mut served = None;
    for _ in 0..SETUPS_PER_SYSTEM {
        drop(served.take());
        let t0 = Instant::now();
        let mut sys = System::build(spec);
        let mut cursors = vec![Cursor::default(); spec.mixes.len()];
        let warm = sys.warm_up(spec, inputs, &mut cursors[0]);
        setups.push(t0.elapsed().as_secs_f64());
        warm.iter().for_each(|o| tally.add_one(o.ok));
        served = Some((sys, cursors));
    }
    let (sys, mut cursors) = served.expect("at least one set-up");
    tally.add(&run_callers(&sys, spec, inputs, &mut cursors, WARM_S, None));
    (sys, cursors)
}

/// The traced run: alternating untraced and traced slices of closed-loop
/// traffic (their p50 ratio is the tracing overhead), then replays of
/// sampled requests through the layers' public pieces.
fn traced(
    spec: &Spec,
    args: &Args,
    sys: &System,
    inputs: &Inputs,
    cursors: &mut [Cursor],
    tally: &mut Tally,
    lines: &mut Vec<String>,
) -> Result<String, String> {
    use paco_core::metrics::sched::kernel;
    use paco_core::metrics::{comm, sched};
    let tracer = Tracer::new();
    let engine_before = sys.engine.as_ref().map(|e| e.stats());
    let (kernel0, comm0, ranks0, sched0) = (
        kernel::snapshot(),
        comm::snapshot(),
        comm::rank_words(),
        sched::snapshot(),
    );
    // Untraced and traced slices alternate, so both see the same machine
    // state and their p50 ratio is the tracing overhead, not drift.
    let (mut plain, mut traced) = (Log::default(), Log::default());
    let slice = args.seconds * 0.7 / (2 * TRACE_SLICES) as f64;
    for _ in 0..TRACE_SLICES {
        plain.merge(run_callers(sys, spec, inputs, cursors, slice, None));
        traced.merge(run_callers(
            sys,
            spec,
            inputs,
            cursors,
            slice,
            Some(&tracer),
        ));
    }
    tally.add(&plain);
    tally.add(&traced);
    let sched_d = sched::snapshot().since(&sched0);
    let kernel_d = kernel::snapshot().since(&kernel0);
    let comm_d = comm::snapshot().since(&comm0);
    let rank_words: u64 = comm::rank_words()
        .iter()
        .enumerate()
        .map(|(r, w)| w - ranks0.get(r).copied().unwrap_or(0))
        .sum();
    let engine_after = sys.engine.as_ref().map(|e| e.stats());

    // Replays: each pairs one front-door request with the replay of the
    // same input, from caller 0, with no other traffic.
    let mut replayer = Replayer::new(spec);
    let mut replays: Vec<Replay> = Vec::new();
    let door = sys.door();
    let kinds = spec.kinds();
    let budget = Instant::now() + std::time::Duration::from_secs_f64(args.seconds * 0.3);
    'outer: for round in 0..REPLAYS_PER_KIND {
        for &kind in &kinds {
            if round >= 3 && Instant::now() > budget {
                break 'outer;
            }
            let o = workload::issue(sys, &door, inputs, kind, &mut cursors[0], Some(&tracer));
            tally.add_one(o.ok);
            let mut r = replayer.replay(&tracer, inputs, sys, kind, o.idx);
            r.front_ns = o.ns;
            tally.add_one(r.ok);
            replays.push(r);
        }
    }
    drop(door);

    let p50_ms = |log: &Log, kind: Option<Kind>| {
        percentile(&log.sorted(kind), 0.5).unwrap_or(0) as f64 / 1e6
    };
    let of = |kind: Kind| replays.iter().filter(move |r| r.kind == kind);
    let med = |it: &mut dyn Iterator<Item = u64>| median(&it.collect::<Vec<_>>()) as f64;
    let bare = |kind: Kind| {
        let ns = med(&mut of(kind).filter_map(|r| r.bare.map(|b| b.0)));
        let work = of(kind).find_map(|r| r.bare.map(|b| b.1)).unwrap_or(0.0);
        (ns, work)
    };
    let tax = |kind: Kind| ratio(p50_ms(&plain, Some(kind)) * 1e6, bare(kind).0);
    let compile = |ks: &[Kind]| {
        med(&mut replays
            .iter()
            .filter(|r| ks.contains(&r.kind))
            .map(|r| r.skeleton_ns))
    };
    let bind = |kind: Kind| med(&mut of(kind).map(|r| r.bind_ns));
    let residual = {
        let v: Vec<f64> = replays
            .iter()
            .map(|r| r.front_ns as f64 - (r.bind_ns + r.exec_ns) as f64)
            .collect();
        median_f64(&v)
    };
    let execs: Vec<trace::Exec> = replays.iter().filter_map(|r| r.exec).collect();
    let mean = |f: &dyn Fn(&trace::Exec) -> u64| {
        ratio(execs.iter().map(f).sum::<u64>() as f64, execs.len() as f64)
    };
    let p = spec.plan_p() as f64;

    // Request counts the scheduling counters are averaged over: a session
    // runs each request's plan on the calling thread, so the thread-local
    // `sched` deltas sum `Session::last_stats` over the closed-loop phase; an
    // engine runs them on its executor, so its figures come from replays.
    let (waves, steps, barriers) = match spec.front {
        Front::Session { .. } => {
            let n = (plain.attempted + traced.attempted) as f64;
            (
                ratio(sched_d.plan_waves as f64, n),
                ratio(sched_d.plan_steps as f64, n),
                ratio(sched_d.pool_barriers as f64, n),
            )
        }
        Front::Engine { .. } => (
            mean(&|e| e.waves),
            mean(&|e| e.steps),
            mean(&|e| e.barriers),
        ),
    };
    let (hit_ratio, misses, arena_reuse) = match (&sys.session, &engine_after) {
        (Some(s), _) => {
            let c = s.cache_stats();
            (c.hit_ratio(), c.misses, s.arena_stats().reuse_ratio())
        }
        (None, Some(e)) => {
            let c = e.plan_cache();
            (c.hit_ratio(), c.misses, e.arena().reuse_ratio())
        }
        (None, None) => unreachable!("a system has a front door"),
    };
    let (coalesce, passes, depth, errors) = match (&engine_before, &engine_after) {
        (Some(b), Some(a)) => {
            let passes = (a.passes() - b.passes()) as f64;
            (
                ratio((a.executed() - b.executed()) as f64, passes),
                passes,
                a.max_queue_depth() as f64,
                (a.rejected + a.overloaded + a.expired + a.poisoned) as f64,
            )
        }
        _ => (0.0, 0.0, 0.0, 0.0),
    };
    let upd = plain.updates.plus(traced.updates);
    let ranks = match spec.front {
        Front::Session { ranks: Some(r), .. } => r as f64,
        _ => 0.0,
    };
    let runs = comm_d.runs as f64;
    let lower = sys.session.as_ref().map(|s| s.lower_stats());
    let lcs_n = if kinds.contains(&Kind::Lcs) {
        spec.lcs_n as f64
    } else {
        0.0
    };
    let (fw_ns, fw_work) = bare(Kind::Apsp);
    let (lcs_ns, lcs_work) = bare(Kind::Lcs);
    let (mm_ns, mm_work) = bare(Kind::Mm);
    let kind_p50 = |k: Kind| p50_ms(&plain, Some(k));

    let spans_path = std::path::PathBuf::from(format!(
        ".bench_out/spans-{}-seed{}.jsonl",
        spec.name, args.seed
    ));
    let span_count = tracer.len() as f64;
    let values = [
        (
            "failed_ratio",
            ratio(tally.failed as f64, tally.attempted as f64),
        ),
        (
            "trace.overhead_ratio",
            ratio(p50_ms(&traced, None), p50_ms(&plain, None)),
        ),
        ("trace.spans", span_count),
        ("service.residual_ns", residual),
        ("service.tax_ratio.fw", tax(Kind::Apsp)),
        ("service.tax_ratio.lcs", tax(Kind::Lcs)),
        ("service.tax_ratio.mm", tax(Kind::Mm)),
        ("kind.p50_ms.apsp", kind_p50(Kind::Apsp)),
        ("kind.p50_ms.lcs", kind_p50(Kind::Lcs)),
        ("kind.p50_ms.mm", kind_p50(Kind::Mm)),
        ("kind.p50_ms.sort", kind_p50(Kind::Sort)),
        ("kind.p50_ms.inc_update", kind_p50(Kind::IncUpdate)),
        ("kind.p50_ms.inc_snapshot", kind_p50(Kind::IncSnapshot)),
        ("cache.hit_ratio", hit_ratio),
        ("cache.misses", misses as f64),
        ("compile.cold_ns.apsp", compile(&[Kind::Apsp])),
        ("compile.cold_ns.lcs", compile(&[Kind::Lcs])),
        ("compile.cold_ns.mm", compile(&[Kind::Mm])),
        ("compile.cold_ns.sort", compile(&[Kind::Sort])),
        (
            "compile.cold_ns.incr",
            compile(&[Kind::IncUpdate, Kind::IncSnapshot]),
        ),
        ("bind.ns.apsp", bind(Kind::Apsp)),
        ("bind.ns.lcs", bind(Kind::Lcs)),
        ("bind.ns.mm", bind(Kind::Mm)),
        ("bind.ns.sort", bind(Kind::Sort)),
        ("bind.ns.inc_update", bind(Kind::IncUpdate)),
        ("bind.ns.inc_snapshot", bind(Kind::IncSnapshot)),
        ("arena.reuse_ratio", arena_reuse),
        ("engine.coalesce_ratio", coalesce),
        ("engine.passes", passes),
        ("engine.max_queue_depth", depth),
        ("engine.errors", errors),
        ("plan.waves", waves),
        ("plan.steps", steps),
        ("pool.barriers", barriers),
        ("exec.wall_ns", mean(&|e| e.wall_ns)),
        ("exec.compute_ns", mean(&|e| e.compute_ns)),
        ("exec.tmax_ns", mean(&|e| e.tmax_ns)),
        (
            "exec.barrier_idle_ns",
            mean(&|e| e.wall_ns.saturating_sub(e.tmax_ns)),
        ),
        (
            "exec.balance",
            ratio(mean(&|e| e.compute_ns) / p, mean(&|e| e.tmax_ns)),
        ),
        ("runtime.empty_wave_ns", trace::empty_wave_ns(2, 400, 5)),
        ("leaf.fw_ns_per_relax", ratio(fw_ns, fw_work)),
        ("leaf.lcs_ns_per_cell", ratio(lcs_ns, lcs_work)),
        ("leaf.mm_gflops", ratio(mm_work, mm_ns)),
        (
            "kernel.generic_leaves",
            (kernel_d.mm_leaf_generic + kernel_d.fw_leaf_generic + kernel_d.lcs_leaf_generic)
                as f64,
        ),
        (
            "lcs.table_bytes",
            if lcs_n > 0.0 {
                (lcs_n + 1.0) * (lcs_n + 1.0) * 4.0
            } else {
                0.0
            },
        ),
        (
            "incr.update_ns",
            med(&mut of(Kind::IncUpdate).map(|r| r.exec_ns)),
        ),
        (
            "incr.snapshot_ns",
            med(&mut of(Kind::IncSnapshot).map(|r| r.exec_ns)),
        ),
        (
            "incr.incremental_share",
            ratio(upd.incremental as f64, upd.updates as f64),
        ),
        (
            "incr.blocks_repropagated",
            ratio(upd.blocks_repropagated as f64, upd.batches as f64),
        ),
        (
            "dist.words_per_rank",
            ratio(ratio(rank_words as f64, ranks), runs),
        ),
        ("dist.messages", ratio(comm_d.data_messages as f64, runs)),
        ("dist.supersteps", ratio(comm_d.supersteps as f64, runs)),
        (
            "dist.lower_hit_ratio",
            lower.map_or(0.0, |l| ratio(l.hits as f64, (l.hits + l.misses) as f64)),
        ),
    ];
    tracer
        .write(&spans_path, &lines[0])
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    eprintln!(
        "servebench: {} spans written to {}",
        span_count,
        spans_path.display()
    );
    lines.push(format!(
        "{{\"spans\": {}}}",
        stats::json_str(&spans_path.display().to_string())
    ));
    Ok(result_line(
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        PER_LAYER,
        &values,
    ))
}

/// The pinned configuration, recorded with every result.
fn config_line(spec: &Spec, args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let front = match spec.front {
        Front::Session { ranks: None, .. } => "session",
        Front::Session { ranks: Some(_), .. } => "session-distributed",
        Front::Engine { .. } => "engine",
    };
    format!(
        "{{\"config\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"front\": \"{front}\", \"p\": {}, \"callers\": {}, \"nproc\": {nproc}, \
         \"simd\": \"{}\", \"PACO_SIMD\": {}, \"tuning\": \"Tuning::default()\", \
         \"malloc_arenas\": \"{}\", \"commit\": {}}}}}",
        stats::json_str(spec.name),
        args.seed,
        stats::json_number(args.seconds),
        u8::from(args.trace),
        spec.plan_p(),
        spec.mixes.len(),
        paco_core::simd::simd_mode(),
        stats::json_str(&std::env::var("PACO_SIMD").unwrap_or_default()),
        if args.one_arena { "1" } else { "default" },
        stats::json_str(&commit()),
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{name}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = args(&[
            "--workload",
            "x",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("x", 7, 2.5, true)
        );
        assert!(args(&["--workload", "x", "--seed", "7"]).is_err());
        assert!(args(&["--workload", "x", "--seed", "-1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "x", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--bogus", "1"]).is_err());
        assert!(
            run(&args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).unwrap()).is_err()
        );
    }

    /// Every workload, untraced and traced, for a short run: every output
    /// correct, and the result line carries exactly the catalogue.  Debug
    /// builds are too slow to reach the p90 sample floor.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "run with cargo test --release")]
    fn smoke_every_workload() {
        for name in workload::NAMES {
            for trace in ["0", "1"] {
                let a = args(&[
                    "--workload",
                    name,
                    "--seed",
                    "3",
                    "--seconds",
                    "4",
                    "--trace",
                    trace,
                ]);
                let lines = run(&a.unwrap()).unwrap_or_else(|e| panic!("{name}: {e}"));
                let last = lines.last().expect("a result line");
                assert!(last.starts_with("{\"correct\": true,"), "{name}: {last}");
                assert!(last.contains("\"failed\": 0,"), "{name}: {last}");
                let catalogue = if trace == "1" { PER_LAYER } else { END_TO_END };
                for m in catalogue {
                    assert!(last.contains(&format!("\"{}\": {{\"value\": ", m.name)));
                }
                if trace == "1" {
                    assert!(
                        last.contains("\"failed_ratio\": {\"value\": 0.0,"),
                        "{name}: {last}"
                    );
                }
            }
        }
    }
}
