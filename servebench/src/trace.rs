//! Spans recorded by the benchmark's own code, and the replay of sampled
//! requests through the layers' public pieces.
//!
//! Nothing here reaches inside a crate: each layer is timed from outside,
//! around calls to its public functions.  A replay runs one request's input
//! through `Solve::skeleton` → `Solve::bind` → the workload's
//! `*Run::from_plan` (or `paco_dist`'s lowering, or a `paco_incr` state) →
//! `Plan::execute` with every step in its own span → `finish`, plus the bare
//! sequential algorithm on the same input.

use crate::workload::{mm_matches, Inputs, Kind, Spec};
use paco_core::machine::Placement;
use paco_core::matrix::Matrix;
use paco_core::metrics::sched;
use paco_core::proc_list::ProcId;
use paco_core::tuning::Tuning;
use paco_core::ScratchArena;
use paco_dist::{run_lowered, DistWorkload, FwDist, LcsDist, LowerCache, MmDist};
use paco_dp::lcs::{lcs_sequential_co, LcsRun};
use paco_graph::{fw_seq, FwRun};
use paco_incr::ClosedState;
use paco_matmul::{co_mm, MmConfig, MmRun};
use paco_runtime::schedule::{Plan, Step};
use paco_runtime::WorkerPool;
use paco_service::{Apsp, Lcs, MatMul, Skeleton, Solve, Sort};
use paco_sort::SortRun;
use std::any::Any;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.  `parent` is 0 for a root; `req` is the root's
/// id, shared by every span of one request; steps carry `proc` and `wave`.
struct Span {
    name: &'static str,
    kind: &'static str,
    id: u64,
    parent: u64,
    req: u64,
    start_ns: u64,
    end_ns: u64,
    step: Option<(ProcId, usize)>,
}

/// An in-memory span log, written out once when the run ends.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn id(&self) -> u64 {
        // Relaxed: ids only need to be unique.
        self.next.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// A root span for one front-door request that started at `t0` and
    /// took `ns`.
    pub fn root(&self, kind: &'static str, t0: Instant, ns: u64) {
        let id = self.id();
        let start_ns = self.at(t0);
        self.push(Span {
            name: "request",
            kind,
            id,
            parent: 0,
            req: id,
            start_ns,
            end_ns: start_ns + ns,
            step: None,
        });
    }

    /// Run `f` inside a span named `name` under `parent` of request `req`;
    /// `f` gets the new span's id.  Returns `f`'s value and the span's
    /// duration in ns.
    fn span<T>(
        &self,
        name: &'static str,
        kind: Kind,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, u64) {
        let id = self.id();
        let t0 = Instant::now();
        let out = f(id);
        let t1 = Instant::now();
        self.push(Span {
            name,
            kind: kind.name(),
            id,
            parent,
            req,
            start_ns: self.at(t0),
            end_ns: self.at(t1),
            step: None,
        });
        (out, (t1 - t0).as_nanos() as u64)
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Write `header` and then one JSON object per span to `path`.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in self.spans.lock().expect("span log poisoned").iter() {
            let step = s.step.map_or(String::new(), |(p, w)| {
                format!(", \"proc\": {p}, \"wave\": {w}")
            });
            writeln!(
                out,
                "{{\"name\": \"{}\", \"kind\": \"{}\", \"id\": {}, \"parent\": {}, \"req\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}{step}}}",
                s.name, s.kind, s.id, s.parent, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What one `Plan::execute` of a replay cost, from its step spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Exec {
    pub wall_ns: u64,
    /// Sum of every step's time (`T^Σ_p`).
    pub compute_ns: u64,
    /// Sum over waves of the busiest processor's step time (`T^max_p`).
    pub tmax_ns: u64,
    pub waves: u64,
    pub steps: u64,
    pub barriers: u64,
}

/// One replayed request: the front-door latency of the same input just
/// before, and the time of each public piece.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    pub kind: Kind,
    pub front_ns: u64,
    pub skeleton_ns: u64,
    pub bind_ns: u64,
    /// The execute piece: `Plan::execute`, `run_lowered`, or the
    /// `paco_incr` call.
    pub exec_ns: u64,
    /// Step-level breakdown, when the replay went through `Plan::execute`.
    pub exec: Option<Exec>,
    /// The bare sequential algorithm on the same input, and the work it did
    /// (relaxations, cells or flops).
    pub bare: Option<(u64, f64)>,
    pub ok: bool,
}

/// The replay's own pool, arena, lowering cache and skeleton cache, so
/// binds after the first see a cached skeleton as the service's do.
pub struct Replayer {
    tuning: Tuning,
    pool: WorkerPool,
    ranks: Option<usize>,
    arena: Arc<ScratchArena>,
    lower: LowerCache,
    skeletons: HashMap<&'static str, Skeleton>,
}

impl Replayer {
    pub fn new(spec: &Spec) -> Replayer {
        let ranks = match spec.front {
            crate::workload::Front::Session { ranks, .. } => ranks,
            crate::workload::Front::Engine { .. } => None,
        };
        Replayer {
            tuning: Tuning::default(),
            pool: WorkerPool::new(spec.plan_p()),
            ranks,
            arena: Arc::new(ScratchArena::new()),
            lower: LowerCache::new(),
            skeletons: HashMap::new(),
        }
    }

    fn p(&self) -> usize {
        self.pool.p()
    }

    /// Compile a cold skeleton (timed), then bind a clone of `req` to the
    /// cached skeleton for its kind (timed; the bound request is dropped).
    /// Returns the cached skeleton and both times.
    fn compile_and_bind<R: Solve + Clone>(
        &mut self,
        tr: &Tracer,
        kind: Kind,
        root: u64,
        req: &R,
    ) -> (Skeleton, u64, u64) {
        let p = self.p();
        let (cold, skeleton_ns) = tr.span("skeleton", kind, root, root, |_| {
            req.skeleton(&self.tuning, p)
        });
        let sk = self.skeletons.entry(kind.name()).or_insert(cold).clone();
        let bind_req = req.clone();
        let (bound, bind_ns) = tr.span("bind", kind, root, root, |_| match self.ranks {
            None => Some(bind_req.bind(&sk, &self.tuning, p, &self.arena)),
            Some(ranks) => bind_req
                .bind_dist(&sk, &self.tuning, ranks, &self.arena, &self.lower)
                .ok(),
        });
        drop(bound);
        (sk, skeleton_ns, bind_ns)
    }

    /// Replay a stateless request on the local pool: `make` is the
    /// workload's `*Run::from_plan` on the skeleton's payload.
    #[allow(clippy::too_many_arguments)]
    fn local<R, Run, J, O>(
        &mut self,
        tr: &Tracer,
        kind: Kind,
        root: u64,
        req: &R,
        make: impl FnOnce(&Skeleton, &Tuning, &Arc<ScratchArena>) -> Run,
        plan_of: impl Fn(&Run) -> &Plan<J>,
        step: impl Fn(&Run, ProcId, &J) + Sync,
        finish: impl FnOnce(Run) -> O,
    ) -> (O, Replay)
    where
        R: Solve + Clone,
        Run: Sync,
        J: Sync,
    {
        let (sk, skeleton_ns, bind_ns) = self.compile_and_bind(tr, kind, root, req);
        let (run, _) = tr.span("from_plan", kind, root, root, |_| {
            make(&sk, &self.tuning, &self.arena)
        });
        let (exec, exec_ns) = tr.span("execute", kind, root, root, |id| {
            execute_traced(tr, kind, root, id, plan_of(&run), &self.pool, |p, j| {
                step(&run, p, j)
            })
        });
        let (out, _) = tr.span("finish", kind, root, root, |_| finish(run));
        let replay = Replay {
            kind,
            front_ns: 0,
            skeleton_ns,
            bind_ns,
            exec_ns,
            exec: Some(exec),
            bare: None,
            ok: true,
        };
        (out, replay)
    }

    /// Replay a request on `paco_dist`: lower the cached skeleton's plan
    /// (a lowering-cache hit after the first) and run its supersteps.
    fn dist<R, W, P>(
        &mut self,
        tr: &Tracer,
        kind: Kind,
        root: u64,
        req: &R,
        make: impl FnOnce(Arc<P>, &Tuning) -> W,
        plan_of: fn(&P) -> &Plan<W::Job>,
    ) -> (W::Output, Replay)
    where
        R: Solve + Clone,
        W: DistWorkload,
        P: Send + Sync + 'static,
    {
        let ranks = self.ranks.expect("a distributed replay has ranks");
        let (sk, skeleton_ns, bind_ns) = self.compile_and_bind(tr, kind, root, req);
        let placement = Placement::new(ranks, Placement::DEFAULT_BLOCK);
        let payload: Arc<P> = sk.payload().expect("skeleton of this kind");
        let ((w, lowered), _) = tr.span("from_plan", kind, root, root, |_| {
            let w = make(Arc::clone(&payload), &self.tuning);
            let erased = Arc::clone(&payload) as Arc<dyn Any + Send + Sync>;
            let lowered = self
                .lower
                .get_or_lower(erased, &w, plan_of(&payload), &placement);
            (w, lowered)
        });
        let ((out, _stats), exec_ns) = tr.span("execute", kind, root, root, |_| {
            run_lowered(&w, plan_of(&payload), &placement, &lowered)
        });
        let replay = Replay {
            kind,
            front_ns: 0,
            skeleton_ns,
            bind_ns,
            exec_ns,
            exec: None,
            bare: None,
            ok: true,
        };
        (out, replay)
    }

    /// Replay the request of `kind` that used pool index (or, for the
    /// incremental kinds, graph state) `idx`, under a new root span.
    pub fn replay(
        &mut self,
        tr: &Tracer,
        inputs: &Inputs,
        sys: &crate::workload::System,
        kind: Kind,
        idx: usize,
    ) -> Replay {
        let root = tr.id();
        let t0 = Instant::now();
        let r = self.replay_inner(tr, inputs, sys, kind, idx, root);
        tr.push(Span {
            name: "replay",
            kind: kind.name(),
            id: root,
            parent: 0,
            req: root,
            start_ns: tr.at(t0),
            end_ns: tr.at(Instant::now()),
            step: None,
        });
        r
    }

    fn replay_inner(
        &mut self,
        tr: &Tracer,
        inputs: &Inputs,
        sys: &crate::workload::System,
        kind: Kind,
        idx: usize,
        root: u64,
    ) -> Replay {
        let dist = self.ranks.is_some();
        match kind {
            Kind::Apsp => {
                let (adj, want) = &inputs.apsp[idx];
                let req = Apsp { adj: adj.clone() };
                let (out, mut r) = if dist {
                    self.dist(
                        tr,
                        kind,
                        root,
                        &req,
                        |c, t| FwDist::new(adj.clone(), c, t.fw_base),
                        |c: &paco_graph::FwPlan| &c.plan,
                    )
                } else {
                    self.local(
                        tr,
                        kind,
                        root,
                        &req,
                        |sk, t, _| FwRun::from_plan(adj, sk.payload().expect("FW plan"), t.fw_base),
                        FwRun::plan,
                        FwRun::step,
                        FwRun::finish,
                    )
                };
                let base = self.tuning.fw_base;
                let (bare, ns) = tr.span("bare", kind, root, root, |_| fw_seq(adj, base));
                let n = adj.rows() as f64;
                r.bare = Some((ns, n * n * n));
                r.ok = out == *want && bare == *want;
                r
            }
            Kind::Lcs => {
                let (a, b, want) = &inputs.lcs[idx];
                let req = Lcs {
                    a: a.clone(),
                    b: b.clone(),
                };
                let (out, mut r) = if dist {
                    self.dist(
                        tr,
                        kind,
                        root,
                        &req,
                        |c, t| LcsDist::new(a.clone(), b.clone(), c, t.lcs_base),
                        |c: &paco_dp::lcs::PacoLcsPlan| &c.plan,
                    )
                } else {
                    let (a2, b2) = (a.clone(), b.clone());
                    self.local(
                        tr,
                        kind,
                        root,
                        &req,
                        move |sk, t, arena| {
                            let plan = sk.payload().expect("LCS plan");
                            LcsRun::from_plan_in(a2, b2, plan, t.lcs_base, Arc::clone(arena))
                        },
                        LcsRun::plan,
                        LcsRun::step,
                        LcsRun::finish,
                    )
                };
                let base = self.tuning.lcs_base;
                let (bare, ns) =
                    tr.span("bare", kind, root, root, |_| lcs_sequential_co(a, b, base));
                r.bare = Some((ns, a.len() as f64 * b.len() as f64));
                r.ok = out == *want && bare == *want;
                r
            }
            Kind::Mm => {
                let (a, b, want) = &inputs.mm[idx];
                let req = MatMul {
                    a: a.clone(),
                    b: b.clone(),
                };
                let cfg = |t: &Tuning| MmConfig {
                    cutoff: t.mm_cutoff,
                    ..MmConfig::default()
                };
                let (out, mut r) = if dist {
                    self.dist(
                        tr,
                        kind,
                        root,
                        &req,
                        |c, t| MmDist::new(a.clone(), b.clone(), c, cfg(t)),
                        |c: &paco_matmul::MmPlan| &c.plan,
                    )
                } else {
                    let (a2, b2) = (a.clone(), b.clone());
                    self.local(
                        tr,
                        kind,
                        root,
                        &req,
                        move |sk, t, _| {
                            MmRun::from_plan(a2, b2, sk.payload().expect("MM plan"), cfg(t))
                        },
                        MmRun::plan,
                        MmRun::step,
                        MmRun::finish,
                    )
                };
                let mut c = Matrix::zeros(a.rows(), b.cols());
                let (_, ns) = tr.span("bare", kind, root, root, |_| {
                    co_mm(c.as_mut(), a.as_ref(), b.as_ref())
                });
                let (n, k, m) = (a.rows() as f64, a.cols() as f64, b.cols() as f64);
                r.bare = Some((ns, 2.0 * n * k * m));
                r.ok = mm_matches(Some(&out), want) && mm_matches(Some(&c), want);
                r
            }
            Kind::Sort => {
                let (keys, want) = &inputs.sort[idx];
                let req = Sort { keys: keys.clone() };
                let keys2 = keys.clone();
                let p = self.p();
                let (out, mut r) = self.local(
                    tr,
                    kind,
                    root,
                    &req,
                    move |sk, t, arena| {
                        let k = t.sort_k(keys2.len());
                        let plan = sk.payload().expect("sort plan");
                        SortRun::from_plan_in(keys2, plan, p, k, Arc::clone(arena))
                    },
                    SortRun::plan,
                    SortRun::step,
                    SortRun::finish,
                );
                r.ok = out == *want;
                r
            }
            Kind::IncUpdate | Kind::IncSnapshot => self.incr(tr, inputs, sys, kind, idx, root),
        }
    }

    /// Replay an incremental request: skeleton and bind through the
    /// request type, then the `paco_incr` call itself on a private copy of
    /// the graph state the front door saw.
    fn incr(
        &mut self,
        tr: &Tracer,
        inputs: &Inputs,
        sys: &crate::workload::System,
        kind: Kind,
        state: usize,
        root: u64,
    ) -> Replay {
        let incr = inputs.incr.as_ref().expect("incremental inputs");
        let (handle, registry) = sys.incr.as_ref().expect("closed graph");
        let batch = &incr.batches[state];
        let (skeleton_ns, bind_ns) = if kind == Kind::IncUpdate {
            let req = paco_service::IncUpdate {
                handle: *handle,
                updates: batch.clone(),
                registry: Arc::clone(registry),
            };
            let (_, s, b) = self.compile_and_bind(tr, kind, root, &req);
            (s, b)
        } else {
            let req = paco_service::IncSnapshot {
                handle: *handle,
                registry: Arc::clone(registry),
            };
            let (_, s, b) = self.compile_and_bind(tr, kind, root, &req);
            (s, b)
        };
        let (mut closed, _) = tr.span("from_plan", kind, root, root, |_| {
            ClosedState::from_parts(incr.adj[state].clone(), incr.closed[state].clone())
        });
        let t = &self.tuning;
        let (ok, exec_ns) = tr.span("execute", kind, root, root, |_| {
            if kind == Kind::IncUpdate {
                closed.apply_batch(batch, t.incr_block, t.incr_fallback_percent, t.fw_base);
                *closed.closed() == incr.closed[(state + 1) % incr.batches.len()]
            } else {
                *closed.closed() == incr.closed[state]
            }
        });
        Replay {
            kind,
            front_ns: 0,
            skeleton_ns,
            bind_ns,
            exec_ns,
            exec: None,
            bare: None,
            ok,
        }
    }
}

/// `Plan::execute` of `plan` on `pool`, through a plan of `(wave, index)`
/// jobs so each step's span knows its wave; every step gets a span under
/// `parent`.
fn execute_traced<J: Sync>(
    tr: &Tracer,
    kind: Kind,
    req: u64,
    parent: u64,
    plan: &Plan<J>,
    pool: &WorkerPool,
    step: impl Fn(ProcId, &J) + Sync,
) -> Exec {
    let index = Plan::from_waves(
        plan.p(),
        plan.waves()
            .iter()
            .enumerate()
            .map(|(w, wave)| {
                wave.iter()
                    .enumerate()
                    .map(|(i, s)| Step {
                        proc: s.proc,
                        job: (w, i),
                    })
                    .collect()
            })
            .collect(),
    );
    let times = Mutex::new(Vec::with_capacity(plan.steps()));
    let before = sched::snapshot();
    let t0 = Instant::now();
    index.execute(pool, |proc, &(w, i)| {
        let a = Instant::now();
        step(proc, &plan.waves()[w][i].job);
        let b = Instant::now();
        times
            .lock()
            .expect("step log poisoned")
            .push((w, proc, a, b));
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let counted = sched::snapshot().since(&before);
    let times = times.into_inner().expect("step log poisoned");
    let mut per = vec![vec![0u64; plan.p().max(1)]; plan.waves().len()];
    for &(w, proc, a, b) in &times {
        per[w][proc] += (b - a).as_nanos() as u64;
        tr.push(Span {
            name: "step",
            kind: kind.name(),
            id: tr.id(),
            parent,
            req,
            start_ns: tr.at(a),
            end_ns: tr.at(b),
            step: Some((proc, w)),
        });
    }
    Exec {
        wall_ns,
        compute_ns: per.iter().flatten().sum(),
        tmax_ns: per
            .iter()
            .map(|w| w.iter().copied().max().unwrap_or(0))
            .sum(),
        waves: plan.waves().len() as u64,
        steps: plan.steps() as u64,
        barriers: counted.pool_barriers,
    }
}

/// `Plan::execute` of an empty-step plan of `waves` waves with one step per
/// processor on a `p`-worker pool: the runtime's per-wave cost in ns
/// (median of `reps`).
pub fn empty_wave_ns(p: usize, waves: usize, reps: usize) -> f64 {
    let pool = WorkerPool::new(p);
    let plan = Plan::from_waves(
        p,
        (0..waves)
            .map(|_| (0..p).map(|proc| Step { proc, job: () }).collect())
            .collect(),
    );
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            plan.execute(&pool, |_, _| {});
            t0.elapsed().as_nanos() as f64 / waves as f64
        })
        .collect();
    crate::stats::median_f64(&samples)
}
