//! One drive of a prepared run through the public `Prepared` / `Session`
//! entry points, and the per-layer counters read off what it returns.
//!
//! Sessions are built with `Prepared::session_observing` and resumed on
//! the queue backend `Prepared::session` uses, so the benchmark names no
//! backend, batch cap or shard count: every setting the workloads do not
//! name keeps its `SimConfig` default.

use d3t_core::digest::debug_hash;
use d3t_core::dissemination::Update;
use d3t_core::fidelity::FidelityReport;
use d3t_core::overlay::NodeIdx;
use d3t_sim::{
    EventKind, EventQueue, Metrics, NoopObserver, Observer, PhaseStats, Prepared, RunReport,
    Session, Snapshot,
};

/// Counts the traced run reads from an observer: the deepest pending
/// queue, and messages sent and delivered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub max_pending: usize,
    pub sends: u64,
    pub deliveries: u64,
}

impl Observer for Probe {
    fn on_send(&mut self, _at: u64, _from: NodeIdx, _to: NodeIdx, _u: &Update, _arrival: u64) {
        self.sends += 1;
    }

    fn on_delivery(&mut self, _at: u64, _node: NodeIdx, _u: &Update) {
        self.deliveries += 1;
    }

    fn on_event(&mut self, _at: u64, pending: usize) {
        self.max_pending = self.max_pending.max(pending);
    }
}

/// The observer a drive carries: none when untraced, a [`Probe`] when
/// traced.
pub trait Watch: Observer + Default {
    fn probe(&self) -> Option<Probe>;
}

impl Watch for NoopObserver {
    fn probe(&self) -> Option<Probe> {
        None
    }
}

impl Watch for Probe {
    fn probe(&self) -> Option<Probe> {
        Some(*self)
    }
}

/// Resumes `snap` with observer `w` on the queue backend of
/// `Prepared::session`, which `default` must be: passing the function
/// lets the compiler infer the backend, so the benchmark never names one.
pub fn resume_on_default<Q: EventQueue<EventKind>, W: Observer>(
    p: &Prepared,
    snap: &Snapshot,
    w: W,
    _default: fn(&Prepared) -> Session<Q>,
) -> Session<Q, W> {
    p.resume_with(snap, w)
}

/// The sealed reference engine (`Prepared::engine` → `Engine::run`) on
/// the backend of `Prepared::session` (see [`resume_on_default`]).
pub fn oracle<Q: EventQueue<EventKind>>(
    p: &Prepared,
    _default: fn(&Prepared) -> Session<Q>,
) -> (FidelityReport, Metrics) {
    p.engine::<Q>().run()
}

/// The digest every correctness check compares: FNV-1a over the
/// `Debug` rendering of `(fidelity, metrics)`, the pair `Engine::run`
/// returns.
pub fn digest(r: &RunReport) -> u64 {
    debug_hash(&(&r.fidelity, &r.metrics))
}

/// Per-layer counters summed over the drives of one iteration;
/// `snapshot_bytes` and `max_pending` keep the largest value seen instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layers {
    pub events: u64,
    pub queue_ops: u64,
    pub queue_cycles: u64,
    pub process_cycles: u64,
    pub fidelity_cycles: u64,
    pub transmit_cycles: u64,
    pub batch_runs: u64,
    pub checks: u64,
    pub messages: u64,
    pub lost: u64,
    pub retransmits: u64,
    pub reparented: u64,
    pub sends: u64,
    pub deliveries: u64,
    pub max_pending: u64,
    pub changes: u64,
    pub snapshot_bytes: u64,
}

impl Layers {
    /// Adds one session's drive: its phase counters, the metrics it
    /// advanced from `start` to `end`, and its probe if traced.
    pub fn add_drive(
        &mut self,
        ph: &PhaseStats,
        start: &Metrics,
        end: &Metrics,
        probe: Option<Probe>,
    ) {
        self.events += end.events - start.events;
        self.checks += end.total_checks() - start.total_checks();
        self.messages += end.messages - start.messages;
        self.lost += end.lost - start.lost;
        self.retransmits += end.retransmits - start.retransmits;
        self.reparented += end.reparented - start.reparented;
        self.queue_ops += ph.queue.ops;
        self.queue_cycles += ph.queue.cycles;
        self.process_cycles += ph.process.cycles;
        self.fidelity_cycles += ph.fidelity.cycles;
        self.transmit_cycles += ph.transmit.cycles;
        self.batch_runs += ph.runs;
        if let Some(probe) = probe {
            self.sends += probe.sends;
            self.deliveries += probe.deliveries;
            self.max_pending = self.max_pending.max(probe.max_pending as u64);
        }
    }

    pub fn merge(&mut self, o: &Layers) {
        self.events += o.events;
        self.queue_ops += o.queue_ops;
        self.queue_cycles += o.queue_cycles;
        self.process_cycles += o.process_cycles;
        self.fidelity_cycles += o.fidelity_cycles;
        self.transmit_cycles += o.transmit_cycles;
        self.batch_runs += o.batch_runs;
        self.checks += o.checks;
        self.messages += o.messages;
        self.lost += o.lost;
        self.retransmits += o.retransmits;
        self.reparented += o.reparented;
        self.sends += o.sends;
        self.deliveries += o.deliveries;
        self.changes += o.changes;
        self.max_pending = self.max_pending.max(o.max_pending);
        self.snapshot_bytes = self.snapshot_bytes.max(o.snapshot_bytes);
    }
}
