//! The four closed-loop workloads: their front doors, inputs, references,
//! and the caller loop that issues requests and checks every output.

use crate::trace::Tracer;
use paco_core::matrix::Matrix;
use paco_core::semiring::MinPlus;
use paco_core::tuning::Tuning;
use paco_core::workload::{random_digraph, random_keys, random_matrix_f64, related_sequences};
use paco_graph::fw_reference;
use paco_service::{
    Apsp, Backend, ClosedGraph, EdgeUpdate, Engine, HandleRegistry, IncClose, IncSnapshot,
    IncUpdate, Lcs, MatMul, Session, Solve, Sort, UpdateStats,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 2] = ["engine-mixed", "dist-ranks2"];

/// Largest element-wise difference a `f64` product may show against the
/// naive reference (operands are uniform in [-1, 1), inner dimension ≤ 128).
pub const MM_TOLERANCE: f64 = 1e-9;

/// One request kind; every kind draws its inputs from a fixed pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Apsp,
    Lcs,
    Mm,
    Sort,
    IncUpdate,
    IncSnapshot,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Apsp,
        Kind::Lcs,
        Kind::Mm,
        Kind::Sort,
        Kind::IncUpdate,
        Kind::IncSnapshot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Apsp => "apsp",
            Kind::Lcs => "lcs",
            Kind::Mm => "mm",
            Kind::Sort => "sort",
            Kind::IncUpdate => "inc_update",
            Kind::IncSnapshot => "inc_snapshot",
        }
    }
}

/// Which public front door a workload drives.
#[derive(Debug, Clone, Copy)]
pub enum Front {
    /// `Session::run` from one caller on `p` processors; with `ranks`, on
    /// `Backend::Distributed { ranks }`.
    Session { p: usize, ranks: Option<usize> },
    /// `Client::submit` → `Ticket::wait` on a one-shard engine of `procs`
    /// processors, one producer thread per mix.
    Engine { procs: usize },
}

/// A workload: front door, input sizes, and one request mix per caller.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub front: Front,
    pub apsp_n: usize,
    pub lcs_n: usize,
    pub mm_n: usize,
    pub sort_n: usize,
    pub incr_n: usize,
    /// Distinct inputs per stateless kind, cycled through round-robin.
    pub pool: usize,
    /// One cyclic request sequence per caller thread.  Only caller 0 may
    /// carry incremental kinds: it alone writes the closed graph, so the
    /// state every snapshot must show is known.
    pub mixes: Vec<Vec<Kind>>,
}

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        use Kind::*;
        let base = Spec {
            name: "",
            front: Front::Session { p: 1, ranks: None },
            apsp_n: 0,
            lcs_n: 0,
            mm_n: 0,
            sort_n: 0,
            incr_n: 0,
            pool: 4,
            mixes: Vec::new(),
        };
        Some(match name {
            "engine-mixed" => Spec {
                name: NAMES[0],
                front: Front::Engine { procs: 1 },
                apsp_n: 64,
                lcs_n: 512,
                mm_n: 128,
                sort_n: 4096,
                incr_n: 128,
                mixes: vec![
                    vec![IncUpdate, Sort, IncSnapshot, Lcs, Apsp, Sort, Mm, Sort],
                    vec![Sort, Lcs, Sort, Apsp, Sort, Mm],
                ],
                ..base
            },
            "dist-ranks2" => Spec {
                name: NAMES[1],
                front: Front::Session {
                    p: 1,
                    ranks: Some(2),
                },
                apsp_n: 96,
                lcs_n: 1024,
                mm_n: 128,
                mixes: vec![vec![Apsp, Apsp, Lcs, Apsp, Apsp, Mm]],
                ..base
            },
            _ => return None,
        })
    }

    /// Every kind any caller issues, in [`Kind::ALL`] order.
    pub fn kinds(&self) -> Vec<Kind> {
        Kind::ALL
            .into_iter()
            .filter(|k| self.mixes.iter().any(|m| m.contains(k)))
            .collect()
    }

    /// Processor count of the plans this workload's requests compile to.
    pub fn plan_p(&self) -> usize {
        match self.front {
            Front::Session { p, ranks } => ranks.unwrap_or(p),
            Front::Engine { procs } => procs,
        }
    }
}

/// The incremental-closure inputs: a base graph, a cycle of edge-update
/// batches that returns the adjacency to the base, and the adjacency and
/// closure after each batch (`adj[j]`/`closed[j]` hold after `j` batches).
pub struct IncrInputs {
    pub batches: Vec<Vec<EdgeUpdate<MinPlus>>>,
    pub adj: Vec<Matrix<MinPlus>>,
    pub closed: Vec<Matrix<MinPlus>>,
}

/// Every input a workload sends, paired with its reference output.  All of
/// it is generated from the seed before set-up starts.
pub struct Inputs {
    pub apsp: Vec<(Matrix<MinPlus>, Matrix<MinPlus>)>,
    pub lcs: Vec<(Vec<u32>, Vec<u32>, u32)>,
    pub mm: Vec<(Matrix<f64>, Matrix<f64>, Matrix<f64>)>,
    pub sort: Vec<(Vec<f64>, Vec<f64>)>,
    pub incr: Option<IncrInputs>,
}

/// A per-item generator seed: the run seed mixed with a kind tag and index
/// (splitmix64 finaliser), so pools of different kinds never share streams.
fn sub_seed(seed: u64, tag: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag << 32)
        .wrapping_add(i as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let kinds = spec.kinds();
        let has = |k| kinds.contains(&k);
        let pool = |tag: u64, on: bool| (0..if on { spec.pool } else { 0 }).map(move |i| (tag, i));
        let apsp = pool(1, has(Kind::Apsp))
            .map(|(t, i)| {
                let g = random_digraph(spec.apsp_n, 0.15, 100, sub_seed(seed, t, i));
                let closed = fw_reference(&g);
                (g, closed)
            })
            .collect();
        let lcs = pool(2, has(Kind::Lcs))
            .map(|(t, i)| {
                let (a, b) = related_sequences(spec.lcs_n, 4, 0.3, sub_seed(seed, t, i));
                let len = lcs_reference(&a, &b);
                (a, b, len)
            })
            .collect();
        let mm = pool(3, has(Kind::Mm))
            .map(|(t, i)| {
                let a = random_matrix_f64(spec.mm_n, spec.mm_n, sub_seed(seed, t, 2 * i));
                let b = random_matrix_f64(spec.mm_n, spec.mm_n, sub_seed(seed, t, 2 * i + 1));
                let c = mm_reference(&a, &b);
                (a, b, c)
            })
            .collect();
        let sort = pool(4, has(Kind::Sort))
            .map(|(t, i)| {
                let keys = random_keys(spec.sort_n, sub_seed(seed, t, i));
                let mut sorted = keys.clone();
                sorted.sort_by(f64::total_cmp);
                (keys, sorted)
            })
            .collect();
        let incr = has(Kind::IncUpdate).then(|| incr_inputs(spec.incr_n, sub_seed(seed, 5, 0)));
        Inputs {
            apsp,
            lcs,
            mm,
            sort,
            incr,
        }
    }
}

/// Seven single-edge *improving* updates (each halves the current shortest
/// distance of a random reachable pair, so the incremental path serves
/// them), then one batch restoring every touched edge to its base weight (a
/// non-improving write, so it takes the full re-closure fallback).
fn incr_inputs(n: usize, seed: u64) -> IncrInputs {
    let base = random_digraph(n, 0.05, 100, seed);
    let mut draws = 0;
    let mut pick = || {
        draws += 1;
        (sub_seed(seed, 6, draws) % n as u64) as usize
    };
    let mut adj = vec![base.clone()];
    let mut closed = vec![fw_reference(&base)];
    let mut batches = Vec::new();
    let mut touched = Vec::new();
    while batches.len() < 7 {
        let (u, v) = (pick(), pick());
        let d = closed.last().expect("non-empty").get(u, v).0;
        if u == v || !d.is_finite() || d < 4.0 {
            continue;
        }
        let up = EdgeUpdate::new(u, v, MinPlus((d / 2.0).floor()));
        let mut next = adj.last().expect("non-empty").clone();
        next.set(u, v, up.weight);
        closed.push(fw_reference(&next));
        adj.push(next);
        batches.push(vec![up]);
        touched.push((u, v));
    }
    batches.push(
        touched
            .iter()
            .map(|&(u, v)| EdgeUpdate::new(u, v, base.get(u, v)))
            .collect(),
    );
    IncrInputs {
        batches,
        adj,
        closed,
    }
}

/// LCS length by the textbook two-row dynamic program: independent of every
/// kernel the service runs.
pub fn lcs_reference(a: &[u32], b: &[u32]) -> u32 {
    let mut prev = vec![0u32; b.len() + 1];
    let mut cur = vec![0u32; b.len() + 1];
    for &x in a {
        for (j, &y) in b.iter().enumerate() {
            cur[j + 1] = if x == y {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// `A · B` by the naive triple loop with a fused multiply-add per term.
pub fn mm_reference(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let mut c = vec![0.0f64; n * m];
    for i in 0..n {
        for l in 0..k {
            let x = a.get(i, l);
            for j in 0..m {
                c[i * m + j] = x.mul_add(b.get(l, j), c[i * m + j]);
            }
        }
    }
    Matrix::from_vec(n, m, c)
}

/// The running service: the front door plus the closed graph the
/// incremental requests address.
pub struct System {
    pub session: Option<Session>,
    pub engine: Option<Engine>,
    pub incr: Option<(ClosedGraph<MinPlus>, Arc<HandleRegistry>)>,
}

/// Where a caller sends its requests.
pub enum Door<'a> {
    Session(&'a Session),
    Client(paco_service::Client),
}

impl Door<'_> {
    /// Send one request and wait for its output.  A panic or a ticket error
    /// is a failed request.
    pub fn serve<R: Solve + Send + 'static>(&self, req: R) -> Result<R::Output, String> {
        match self {
            Door::Session(s) => {
                catch_unwind(AssertUnwindSafe(|| s.run(req))).map_err(|_| "panic".to_string())
            }
            Door::Client(c) => catch_unwind(AssertUnwindSafe(|| c.submit(req).wait()))
                .map_err(|_| "panic".to_string())?
                .map_err(|e| e.to_string()),
        }
    }
}

impl System {
    /// Build the front door with an explicit `Tuning::default()` (so
    /// `PACO_BASE` in the environment cannot change what is measured).
    pub fn build(spec: &Spec) -> System {
        let tuning = Tuning::default();
        match spec.front {
            Front::Session { p, ranks } => {
                let backend = ranks.map_or(Backend::Local, |ranks| Backend::Distributed { ranks });
                let session = Session::builder()
                    .procs(p)
                    .tuning(tuning)
                    .backend(backend)
                    .build();
                System {
                    session: Some(session),
                    engine: None,
                    incr: None,
                }
            }
            Front::Engine { procs } => System {
                session: None,
                engine: Some(
                    Engine::builder()
                        .procs(procs)
                        .shards(1)
                        .tuning(tuning)
                        .build(),
                ),
                incr: None,
            },
        }
    }

    /// The door caller threads use.
    pub fn door(&self) -> Door<'_> {
        match (&self.session, &self.engine) {
            (Some(s), _) => Door::Session(s),
            (None, Some(e)) => Door::Client(e.client()),
            (None, None) => unreachable!("a system has a front door"),
        }
    }

    /// Warm-up: close the incremental graph (if any), then one request of
    /// every kind, so each shape compiles once.  Returns the outcomes, which
    /// are checked like any other.
    pub fn warm_up(&mut self, spec: &Spec, inputs: &Inputs, cursor: &mut Cursor) -> Vec<Outcome> {
        if let Some(incr) = &inputs.incr {
            let registry = match (&self.session, &self.engine) {
                (Some(s), _) => s.registry(),
                (None, Some(e)) => e.registry(),
                (None, None) => unreachable!("a system has a front door"),
            };
            let req = IncClose {
                adj: incr.adj[0].clone(),
                registry: Arc::clone(&registry),
            };
            let handle = self.door().serve(req).expect("IncClose of the base graph");
            self.incr = Some((handle, registry));
        }
        let door = self.door();
        spec.kinds()
            .into_iter()
            .filter(|k| *k != Kind::IncUpdate)
            .map(|k| issue(self, &door, inputs, k, cursor, None))
            .collect()
    }
}

/// A caller's position: the next pool index per kind, its place in its mix,
/// and how many update batches the closed graph has absorbed (mod cycle).
#[derive(Debug, Default, Clone)]
pub struct Cursor {
    next: [usize; 6],
    pub mix_pos: usize,
    pub incr_state: usize,
}

impl Cursor {
    /// The pool index the next request of `kind` uses; advances it.
    pub fn take(&mut self, kind: Kind, len: usize) -> usize {
        let slot = &mut self.next[kind as usize];
        let i = *slot % len.max(1);
        *slot += 1;
        i
    }
}

/// One request's result: latency, correctness, and what an update did.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub kind: Kind,
    /// The pool index the request used; for the incremental kinds, the
    /// graph state (batches absorbed, mod cycle) it addressed.
    pub idx: usize,
    pub ns: u64,
    pub ok: bool,
    pub update: Option<UpdateStats>,
}

/// Issue one request of `kind` through `door`, time it from call to
/// output, and check the output against its reference.  With a tracer, the
/// request gets a root span.
pub fn issue(
    sys: &System,
    door: &Door<'_>,
    inputs: &Inputs,
    kind: Kind,
    cursor: &mut Cursor,
    tracer: Option<&Tracer>,
) -> Outcome {
    fn timed<O>(tracer: Option<&Tracer>, kind: Kind, f: impl FnOnce() -> O) -> (O, u64) {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(tr) = tracer {
            tr.root(kind.name(), t0, ns);
        }
        (out, ns)
    }
    let mut update = None;
    let idx = match kind {
        Kind::Apsp => cursor.take(kind, inputs.apsp.len()),
        Kind::Lcs => cursor.take(kind, inputs.lcs.len()),
        Kind::Mm => cursor.take(kind, inputs.mm.len()),
        Kind::Sort => cursor.take(kind, inputs.sort.len()),
        Kind::IncUpdate | Kind::IncSnapshot => cursor.incr_state,
    };
    let (ok, ns) = match kind {
        Kind::Apsp => {
            let (adj, want) = &inputs.apsp[idx];
            let req = Apsp { adj: adj.clone() };
            let (out, ns) = timed(tracer, kind, || door.serve(req));
            (out.is_ok_and(|m| m == *want), ns)
        }
        Kind::Lcs => {
            let (a, b, want) = &inputs.lcs[idx];
            let req = Lcs {
                a: a.clone(),
                b: b.clone(),
            };
            let (out, ns) = timed(tracer, kind, || door.serve(req));
            (out == Ok(*want), ns)
        }
        Kind::Mm => {
            let (a, b, want) = &inputs.mm[idx];
            let req = MatMul {
                a: a.clone(),
                b: b.clone(),
            };
            let (out, ns) = timed(tracer, kind, || door.serve(req));
            (mm_matches(out.ok().as_ref(), want), ns)
        }
        Kind::Sort => {
            let (keys, want) = &inputs.sort[idx];
            let req = Sort { keys: keys.clone() };
            let (out, ns) = timed(tracer, kind, || door.serve(req));
            (out.is_ok_and(|v| v == *want), ns)
        }
        Kind::IncUpdate => {
            let (incr, (handle, registry)) = incr_of(sys, inputs);
            let batch = &incr.batches[idx];
            let req = IncUpdate {
                handle: *handle,
                updates: batch.clone(),
                registry: Arc::clone(registry),
            };
            let (out, ns) = timed(tracer, kind, || door.serve(req));
            cursor.incr_state = (idx + 1) % incr.batches.len();
            update = out.as_ref().ok().copied();
            (out.is_ok_and(|s| s.updates == batch.len() as u64), ns)
        }
        Kind::IncSnapshot => {
            let (incr, (handle, registry)) = incr_of(sys, inputs);
            let req = IncSnapshot {
                handle: *handle,
                registry: Arc::clone(registry),
            };
            let (out, ns) = timed(tracer, kind, || door.serve(req));
            (out.is_ok_and(|m| m == incr.closed[idx]), ns)
        }
    };
    Outcome {
        kind,
        idx,
        ns,
        ok,
        update,
    }
}

fn incr_of<'a>(
    sys: &'a System,
    inputs: &'a Inputs,
) -> (
    &'a IncrInputs,
    &'a (ClosedGraph<MinPlus>, Arc<HandleRegistry>),
) {
    (
        inputs
            .incr
            .as_ref()
            .expect("workload has incremental inputs"),
        sys.incr.as_ref().expect("warm-up closed the graph"),
    )
}

/// Whether a product matches its reference within [`MM_TOLERANCE`].
pub fn mm_matches(got: Option<&Matrix<f64>>, want: &Matrix<f64>) -> bool {
    got.is_some_and(|g| {
        g.rows() == want.rows()
            && g.cols() == want.cols()
            && g.data()
                .iter()
                .zip(want.data())
                .all(|(x, y)| (x - y).abs() <= MM_TOLERANCE)
    })
}

/// Sums of the `UpdateStats` the `IncUpdate` requests of a window returned.
#[derive(Debug, Default, Clone, Copy)]
pub struct UpdateSum {
    pub batches: u64,
    pub updates: u64,
    pub incremental: u64,
    pub blocks_repropagated: u64,
}

impl UpdateSum {
    pub fn plus(self, o: UpdateSum) -> UpdateSum {
        UpdateSum {
            batches: self.batches + o.batches,
            updates: self.updates + o.updates,
            incremental: self.incremental + o.incremental,
            blocks_repropagated: self.blocks_repropagated + o.blocks_repropagated,
        }
    }
}

/// What a window of closed-loop traffic produced.  Latencies are kept as
/// 4-byte ns per request, so the log barely moves the process's peak
/// memory however fast the system serves.
#[derive(Debug, Default)]
pub struct Log {
    /// Latency (ns) of every request, by kind (`Kind as usize`).
    lat: [Vec<u32>; 6],
    pub attempted: u64,
    pub failed: u64,
    pub updates: UpdateSum,
    /// Seconds from the window's start to its last completion.
    pub wall_s: f64,
}

impl Log {
    pub fn record(&mut self, o: &Outcome) {
        self.attempted += 1;
        self.failed += u64::from(!o.ok);
        self.lat[o.kind as usize].push(u32::try_from(o.ns).unwrap_or(u32::MAX));
        if let Some(u) = o.update {
            self.updates.batches += 1;
            self.updates.updates += u.updates;
            self.updates.incremental += u.incremental;
            self.updates.blocks_repropagated += u.blocks_repropagated;
        }
    }

    pub fn merge(&mut self, other: Log) {
        for (mine, theirs) in self.lat.iter_mut().zip(other.lat) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.updates = self.updates.plus(other.updates);
        self.wall_s = self.wall_s.max(other.wall_s);
    }

    /// Sorted latencies (ns) of the requests of `kind`, or of all requests.
    pub fn sorted(&self, kind: Option<Kind>) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .lat
            .iter()
            .enumerate()
            .filter(|(i, _)| kind.is_none_or(|k| k as usize == *i))
            .flat_map(|(_, l)| l.iter().map(|&ns| u64::from(ns)))
            .collect();
        v.sort_unstable();
        v
    }
}

/// Run every caller's closed loop for `seconds`; one thread per mix
/// (caller 0 on the current thread when there is only one).
pub fn run_callers(
    sys: &System,
    spec: &Spec,
    inputs: &Inputs,
    cursors: &mut [Cursor],
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Log {
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let caller = |mix: &[Kind], cursor: &mut Cursor| {
        let door = sys.door();
        let mut log = Log::default();
        while Instant::now() < deadline {
            let kind = mix[cursor.mix_pos % mix.len()];
            cursor.mix_pos += 1;
            log.record(&issue(sys, &door, inputs, kind, cursor, tracer));
        }
        log.wall_s = start.elapsed().as_secs_f64();
        log
    };
    if spec.mixes.len() == 1 {
        return caller(&spec.mixes[0], &mut cursors[0]);
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = spec
            .mixes
            .iter()
            .zip(cursors.iter_mut())
            .map(|(mix, cursor)| s.spawn(|| caller(mix, cursor)))
            .collect();
        let mut log = Log::default();
        for h in handles {
            log.merge(h.join().expect("caller thread panicked"));
        }
        log
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_agree_with_the_library() {
        let (a, b) = related_sequences(300, 4, 0.3, 3);
        assert_eq!(lcs_reference(&a, &b), paco_dp::lcs::lcs_reference(&a, &b));
        let x = random_matrix_f64(33, 33, 1);
        let y = random_matrix_f64(33, 33, 2);
        let mut c = Matrix::zeros(33, 33);
        paco_matmul::co_mm(c.as_mut(), x.as_ref(), y.as_ref());
        assert!(mm_matches(Some(&c), &mm_reference(&x, &y)));
    }

    #[test]
    fn incremental_cycle_returns_to_the_base_graph() {
        let incr = incr_inputs(48, 9);
        assert_eq!(incr.batches.len(), 8);
        assert_eq!(incr.closed.len(), 8);
        let mut adj = incr.adj[0].clone();
        for batch in &incr.batches {
            for up in batch {
                adj.set(up.from, up.to, up.weight);
            }
        }
        assert!(adj == incr.adj[0]);
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let spec = Spec::named("dist-ranks2").expect("known workload");
        let small = Spec {
            apsp_n: 16,
            lcs_n: 40,
            mm_n: 8,
            ..spec
        };
        let (x, y) = (Inputs::generate(&small, 5), Inputs::generate(&small, 5));
        assert!(x.apsp[1].0 == y.apsp[1].0 && x.lcs[1].0 == y.lcs[1].0 && x.mm[1].0 == y.mm[1].0);
        assert!(x.apsp[0].0 != x.apsp[1].0);
        assert!(Inputs::generate(&small, 6).apsp[0].0 != x.apsp[0].0);
    }

    #[test]
    fn every_workload_is_defined_and_caller_0_owns_the_graph() {
        for name in NAMES {
            let spec = Spec::named(name).expect("known workload");
            assert_eq!(spec.name, name);
            for mix in &spec.mixes[1..] {
                assert!(!mix.contains(&Kind::IncUpdate) && !mix.contains(&Kind::IncSnapshot));
            }
        }
        assert!(Spec::named("nope").is_none());
    }
}
