//! The three workloads: their inputs, one measured iteration each, and
//! the reference digests their reports are checked against.
//!
//! * `anchor` — one run from config to report at the paper anchor
//!   (600 repositories on 4,200 nodes, 100 items, 10k ticks). The drain
//!   does most of the work, so drain, queue and kernel changes show here.
//! * `fig3_sweep` — the paper's Fig. 3 grid (7 T values × 11 degrees of
//!   cooperation) at 100 repositories / 100 items / 2,500 ticks, each cell
//!   a `Prepared::build` and a drive to the end, fanned out through
//!   `sweep::par_map`. Many short runs, set-up in every cell, and shapes
//!   from a degree-1 chain to a flat tree with a deep source backlog.
//! * `whatif_faults` — one fault-free prefix to half the horizon, one
//!   `Session::snapshot`, then seeded fault and dynamics branches resumed
//!   from it. The only workload that runs `sim`'s fault, repair,
//!   snapshot and restore code.

use std::panic::{catch_unwind, AssertUnwindSafe};

use d3t_experiments::{sweep, Scale};
use d3t_sim::{Metrics, NoopObserver, Prepared, RunReport, SimConfig};

use crate::clock::Clock;
use crate::drive::{self, Layers, Probe, Watch};
use crate::scenarios::{self, Scenario};
use crate::spans::Spans;
use crate::stages;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Anchor,
    Fig3Sweep,
    WhatifFaults,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Anchor, Kind::Fig3Sweep, Kind::WhatifFaults];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Anchor => "anchor",
            Kind::Fig3Sweep => "fig3_sweep",
            Kind::WhatifFaults => "whatif_faults",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The paper anchor: 600 repositories on 4,200 nodes, 100 items, 10k ticks.
pub fn anchor_scale(seed: u64) -> Scale {
    Scale { n_repos: 600, n_network_nodes: 4_200, seed, ..Scale::paper() }
}

/// Every input a workload runs, generated once from the seed.
pub struct Inputs {
    pub kind: Kind,
    /// One config per run (anchor), cell (fig3_sweep) or the base run
    /// (whatif_faults).
    pub cells: Vec<SimConfig>,
    /// The whatif branches (empty for the other workloads).
    pub scenarios: Vec<Scenario>,
    pub fork_us: u64,
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let scale = match kind {
            Kind::Anchor => anchor_scale(seed),
            Kind::Fig3Sweep | Kind::WhatifFaults => Scale { seed, ..Scale::quick() },
        };
        Inputs::at(kind, &scale)
    }

    /// The workload's inputs at `scale` (the tests use a tiny one).
    fn at(kind: Kind, scale: &Scale) -> Inputs {
        let none = |cells| Inputs { kind, cells, scenarios: Vec::new(), fork_us: 0 };
        match kind {
            Kind::Anchor => none(vec![scale.base_config()]),
            Kind::Fig3Sweep => {
                let mut cells = Vec::new();
                for t in scale.t_grid() {
                    for d in scale.degree_grid() {
                        let mut cfg = scale.base_config();
                        cfg.t_stringent_pct = t;
                        cfg.coop_res = d;
                        cells.push(cfg);
                    }
                }
                none(cells)
            }
            Kind::WhatifFaults => {
                let cfg = scale.base_config();
                let p = Prepared::build(&cfg);
                let fork_us = p.end_us / 2;
                let scenarios = scenarios::generate(&p, fork_us, scale.seed);
                Inputs { kind, cells: vec![cfg], scenarios, fork_us }
            }
        }
    }

    /// Correctness-checked operations per iteration: runs, cells or
    /// branches.
    pub fn n_ops(&self) -> usize {
        match self.kind {
            Kind::WhatifFaults => self.scenarios.len(),
            _ => self.cells.len(),
        }
    }
}

/// The outcome of one checked operation: the report digest and its loss
/// of fidelity, or why it failed.
pub type Op = Result<(u64, f64), String>;

/// One measured iteration.
pub struct Iteration {
    pub setup_s: f64,
    pub drive_s: f64,
    pub layers: Layers,
    /// Every report the iteration produced, one per operation.
    pub reports: Vec<Result<RunReport, String>>,
    pub spans: Spans,
}

impl Iteration {
    /// Digests the reports into checkable operations — done after the
    /// iteration's clock stops, so hashing is never timed.
    pub fn take_ops(&mut self) -> Vec<Op> {
        std::mem::take(&mut self.reports)
            .into_iter()
            .map(|r| r.map(|r| (drive::digest(&r), r.fidelity.loss_pct)))
            .collect()
    }
}

/// Runs one iteration; `traced` turns on spans and the observer probe.
pub fn iterate(inp: &Inputs, clock: Clock, traced: bool) -> Iteration {
    let sp = Spans::new(clock, traced);
    match (inp.kind, traced) {
        (Kind::WhatifFaults, false) => whatif::<NoopObserver>(inp, sp, clock),
        (Kind::WhatifFaults, true) => whatif::<Probe>(inp, sp, clock),
        (_, false) => cells::<NoopObserver>(inp, sp, clock),
        (_, true) => cells::<Probe>(inp, sp, clock),
    }
}

/// The traced run's set-up breakdown, taken outside the timed
/// iterations: every distinct config's `Prepared::build` replayed stage
/// by stage ([`stages::replay`]) and checked against a real
/// `Prepared::build`, under the same threading as the iteration (the
/// fig3 cells through `sweep::par_map`).
pub struct Setup {
    pub spans: Spans,
    pub overlay_nodes: u64,
    pub d3g_nodes: u64,
    /// One check per replayed config.
    pub checks: Vec<Result<(), String>>,
}

pub fn replay_setup(inp: &Inputs, clock: Clock) -> Setup {
    let one = |cfg: &SimConfig, sp: &mut Spans| {
        catch_unwind(AssertUnwindSafe(|| {
            let r = stages::replay(cfg, sp);
            let p = Prepared::build(cfg);
            let ok = r.matches(&p);
            (r.overlay_nodes as u64, r.d3g_nodes as u64, ok)
        }))
        .map_err(|e| format!("panic in set-up replay: {}", panic_message(&*e)))
        .and_then(|(overlay, d3g, ok)| {
            if ok {
                Ok((overlay, d3g))
            } else {
                Err("staged build replay diverged from Prepared::build".into())
            }
        })
    };
    let mut sp = Spans::new(clock, true);
    let done: Vec<Result<(u64, u64), String>> = if inp.kind == Kind::Fig3Sweep {
        fan_out(&mut sp, &inp.cells, one)
    } else {
        inp.cells.iter().map(|cfg| one(cfg, &mut sp)).collect()
    };
    let mut setup = Setup { spans: sp, overlay_nodes: 0, d3g_nodes: 0, checks: Vec::new() };
    for r in done {
        if let Ok((overlay, d3g)) = r {
            setup.overlay_nodes = setup.overlay_nodes.max(overlay);
            setup.d3g_nodes = setup.d3g_nodes.max(d3g);
        }
        setup.checks.push(r.map(|_| ()));
    }
    setup
}

/// What one run from config to report hands back.
struct Cell {
    setup_ns: u64,
    drive_ns: u64,
    layers: Layers,
    report: Result<RunReport, String>,
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// `Prepared::build`, a session, a drive to the end and the report.
fn run_cell<W: Watch>(cfg: &SimConfig, sp: &mut Spans, clock: Clock) -> Cell {
    let t0 = clock.now_ns();
    let p = sp.time("sim.build", |_| Prepared::build(cfg));
    let mut s = sp.time("sim.session_setup", |_| p.session_observing(W::default()));
    let t1 = clock.now_ns();
    sp.time("sim.drain", |_| s.drain_to_end());
    let phases = *s.phase_stats();
    let (report, watch) = sp.time("sim.report", |_| {
        let (fidelity, metrics, watch) = s.finish();
        (p.report(fidelity, metrics), watch)
    });
    let t2 = clock.now_ns();
    let mut layers = Layers { changes: p.changes.len() as u64, ..Layers::default() };
    layers.add_drive(&phases, &Metrics::default(), &report.metrics, watch.probe());
    sp.time("sim.teardown", |_| drop(p));
    Cell { setup_ns: t1 - t0, drive_ns: t2 - t1, layers, report: Ok(report) }
}

/// Runs `f`, turning a panic into a failed cell.
fn guarded(f: impl FnOnce() -> Cell) -> Cell {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|e| Cell {
        setup_ns: 0,
        drive_ns: 0,
        layers: Layers::default(),
        report: Err(format!("panic: {}", panic_message(&*e))),
    })
}

fn guarded_cell<W: Watch>(cfg: &SimConfig, sp: &mut Spans, clock: Clock) -> Cell {
    guarded(|| run_cell::<W>(cfg, sp, clock))
}

/// Maps `f` over `items` through `sweep::par_map`, each call recording
/// into its own span recorder, adopted back under the span open in `sp`.
fn fan_out<T: Sync, R: Send>(
    sp: &mut Spans,
    items: &[T],
    f: impl Fn(&T, &mut Spans) -> R + Sync,
) -> Vec<R> {
    let proto = sp.fork();
    let done = sweep::par_map(items.iter().collect(), |item| {
        let mut worker = proto.fork();
        (f(item, &mut worker), worker)
    });
    done.into_iter()
        .map(|(r, worker)| {
            sp.adopt(worker);
            r
        })
        .collect()
}

/// `anchor` (one cell, on this thread) and `fig3_sweep` (every cell
/// through `sweep::par_map`).
fn cells<W: Watch>(inp: &Inputs, mut sp: Spans, clock: Clock) -> Iteration {
    let outs: Vec<Cell> = if inp.kind == Kind::Anchor {
        inp.cells.iter().map(|cfg| guarded_cell::<W>(cfg, &mut sp, clock)).collect()
    } else {
        sp.time("experiments.sweep", |sp| {
            fan_out(sp, &inp.cells, |cfg, w| {
                w.time("experiments.cell", |w| guarded_cell::<W>(cfg, w, clock))
            })
        })
    };
    let mut it = Iteration {
        setup_s: 0.0,
        drive_s: 0.0,
        layers: Layers::default(),
        reports: Vec::with_capacity(outs.len()),
        spans: sp,
    };
    for c in outs {
        it.setup_s += c.setup_ns as f64 * 1e-9;
        it.drive_s += c.drive_ns as f64 * 1e-9;
        it.layers.merge(&c.layers);
        it.reports.push(c.report);
    }
    it
}

/// One warm branch: resume from the fork snapshot, apply the scenario,
/// drive to the end.
fn branch<W: Watch>(
    p: &Prepared,
    snap: &d3t_sim::Snapshot,
    at_fork: &Metrics,
    sc: &Scenario,
    sp: &mut Spans,
    clock: Clock,
) -> Cell {
    let t0 = clock.now_ns();
    let mut s = sp.time("sim.restore", |_| {
        drive::resume_on_default(p, snap, W::default(), Prepared::session)
    });
    let t1 = clock.now_ns();
    let applied = sp.time("sim.drain", |_| {
        let applied = sc.apply(&mut s);
        s.drain_to_end();
        applied
    });
    let phases = *s.phase_stats();
    let (report, watch) = sp.time("sim.report", |_| {
        let (fidelity, metrics, watch) = s.finish();
        (p.report(fidelity, metrics), watch)
    });
    let t2 = clock.now_ns();
    let mut layers = Layers::default();
    layers.add_drive(&phases, at_fork, &report.metrics, watch.probe());
    Cell { setup_ns: t1 - t0, drive_ns: t2 - t1, layers, report: applied.map(|()| report) }
}

/// `whatif_faults`: build, fault-free prefix to the fork, one snapshot,
/// then every branch resumed from it through `sweep::par_map`.
fn whatif<W: Watch>(inp: &Inputs, mut sp: Spans, clock: Clock) -> Iteration {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let cfg = &inp.cells[0];
        let t0 = clock.now_ns();
        let p = sp.time("sim.build", |_| Prepared::build(cfg));
        let mut prefix = sp.time("sim.session_setup", |_| p.session_observing(W::default()));
        let t1 = clock.now_ns();
        sp.time("sim.drain", |_| prefix.run_until(inp.fork_us));
        let t2 = clock.now_ns();
        let snap = sp.time("sim.snapshot_capture", |_| prefix.snapshot());
        let at_fork = *prefix.metrics();
        let mut layers = Layers {
            changes: p.changes.len() as u64,
            snapshot_bytes: prefix.phase_stats().snapshot.bytes,
            ..Layers::default()
        };
        layers.add_drive(
            prefix.phase_stats(),
            &Metrics::default(),
            &at_fork,
            prefix.observer().probe(),
        );
        sp.time("sim.teardown", |_| drop(prefix));
        let branches: Vec<Cell> = sp.time("experiments.sweep", |sp| {
            fan_out(sp, &inp.scenarios, |sc, w| {
                w.time("experiments.cell", |w| {
                    guarded(|| branch::<W>(&p, &snap, &at_fork, sc, w, clock))
                })
            })
        });
        let mut setup_ns = t1 - t0;
        let mut drive_ns = t2 - t1;
        let mut reports = Vec::with_capacity(branches.len());
        for b in branches {
            setup_ns += b.setup_ns;
            drive_ns += b.drive_ns;
            layers.merge(&b.layers);
            reports.push(b.report);
        }
        sp.time("sim.teardown", |_| drop((snap, p)));
        (setup_ns, drive_ns, layers, reports)
    }));
    let (setup_ns, drive_ns, layers, reports) = run.unwrap_or_else(|e| {
        let why = format!("panic: {}", panic_message(&*e));
        (0, 0, Layers::default(), vec![Err(why); inp.n_ops()])
    });
    Iteration {
        setup_s: setup_ns as f64 * 1e-9,
        drive_s: drive_ns as f64 * 1e-9,
        layers,
        reports,
        spans: sp,
    }
}

/// The digest each operation's report must have, computed outside the
/// timed loop: the sealed oracle on the same prepared input for
/// `anchor` and `fig3_sweep` cells, the cold twin (a full drive
/// carrying the same plan or dynamics from t = 0) for whatif branches.
pub fn references(inp: &Inputs) -> Vec<Result<u64, String>> {
    let guarded = |f: &dyn Fn() -> Result<u64, String>| {
        catch_unwind(AssertUnwindSafe(f))
            .unwrap_or_else(|e| Err(format!("panic: {}", panic_message(&*e))))
    };
    match inp.kind {
        Kind::WhatifFaults => {
            let p = Prepared::build(&inp.cells[0]);
            sweep::par_map(inp.scenarios.iter().collect(), |sc| {
                guarded(&|| {
                    let mut s = p.session();
                    sc.apply(&mut s)?;
                    let (fidelity, metrics) = s.run_to_end();
                    Ok(drive::digest(&p.report(fidelity, metrics)))
                })
            })
        }
        _ => sweep::par_map(inp.cells.iter().collect(), |cfg| {
            guarded(&|| {
                let p = Prepared::build(cfg);
                let (fidelity, metrics) = drive::oracle(&p, Prepared::session);
                Ok(drive::digest(&p.report(fidelity, metrics)))
            })
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: Kind, seed: u64) -> Inputs {
        Inputs::at(kind, &Scale { seed, ..Scale::tiny() })
    }

    /// The per-layer counts the determinism self-test compares, plus every
    /// report digest.
    fn counts(inp: &Inputs) -> ([u64; 9], Vec<Op>) {
        let mut it = iterate(inp, Clock::start(), true);
        let l = it.layers;
        let counts = [
            l.events,
            l.messages,
            l.checks,
            l.queue_ops,
            l.changes,
            l.snapshot_bytes,
            l.lost,
            l.retransmits,
            l.reparented,
        ];
        (counts, it.take_ops())
    }

    #[test]
    fn one_seed_repeats_exactly_and_another_seed_differs() {
        for kind in Kind::ALL {
            let a = counts(&tiny(kind, 1));
            let b = counts(&tiny(kind, 1));
            let c = counts(&tiny(kind, 2));
            assert_eq!(a, b, "{}: same seed, different counts or digests", kind.name());
            assert_ne!(a.0, c.0, "{}: the seed does not reach the counts", kind.name());
            let digests =
                |ops: &[Op]| ops.iter().map(|op| op.clone().map(|d| d.0)).collect::<Vec<_>>();
            assert_ne!(
                digests(&a.1),
                digests(&c.1),
                "{}: the seed does not reach the reports",
                kind.name()
            );
        }
    }

    #[test]
    fn tiny_reports_match_their_oracle_or_cold_twin() {
        for kind in Kind::ALL {
            let inp = tiny(kind, 7);
            let refs = references(&inp);
            let ops = iterate(&inp, Clock::start(), false).take_ops();
            assert_eq!(ops.len(), inp.n_ops());
            for (k, (op, want)) in ops.iter().zip(&refs).enumerate() {
                let (digest, loss) =
                    op.clone().unwrap_or_else(|e| panic!("{} op {k}: {e}", kind.name()));
                assert_eq!(Ok(digest), *want, "{} op {k}", kind.name());
                assert!((0.0..=100.0).contains(&loss));
            }
        }
    }

    #[test]
    fn whatif_branches_exercise_faults_and_snapshots() {
        let inp = tiny(Kind::WhatifFaults, 3);
        let l = iterate(&inp, Clock::start(), true).layers;
        assert!(l.snapshot_bytes > 0);
        assert!(l.lost > 0 && l.retransmits > 0, "loss windows lost nothing: {l:?}");
        assert!(l.reparented > 0, "no dependent was re-parented: {l:?}");
    }

    #[test]
    fn the_set_up_replay_matches_prepared_build() {
        for kind in Kind::ALL {
            let setup = replay_setup(&tiny(kind, 5), Clock::start());
            assert!(setup.checks.iter().all(Result::is_ok), "{}", kind.name());
            let stages = setup.spans.self_ms_by_name();
            for stage in ["net.topology", "net.apsp", "traces.generate", "core.lela"] {
                assert!(stages.contains_key(stage), "{}: no {stage} span", kind.name());
            }
        }
    }
}
