//! The `whatif_faults` branches, generated from the benchmark seed.
//!
//! Every scenario acts strictly after the fork instant, either through
//! a `FaultPlan` (adopted by the warm branch at the fork, installed at
//! t = 0 by its cold twin) or through time-stamped `Dynamic`s (injected
//! by both at the same instants). Either way a warm branch and its cold
//! twin must end in bit-identical reports.

use d3t_core::coherency::Coherency;
use d3t_core::item::ItemId;
use d3t_core::overlay::NodeIdx;
use d3t_sim::{
    CrashSpec, DegradeWindow, Dynamic, EventKind, EventQueue, FaultPlan, LossWindow, Observer,
    Prepared, RepairPolicy, RepairSpec, RetransmitSpec, Session,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Branches per kind; with six kinds, 24 branches per iteration.
pub const PER_KIND: usize = 4;

/// What a branch does to its session after the fork.
#[derive(Debug, Clone)]
pub enum Action {
    /// The control branch: changes nothing.
    Control,
    /// A fault plan whose every event lies after the fork.
    Plan(FaultPlan),
    /// Dynamics, each injected at its (post-fork) instant, in order.
    Inject(Vec<(u64, Dynamic)>),
}

#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: String,
    pub action: Action,
}

impl Scenario {
    /// Applies the scenario to a session standing at the fork (warm) or
    /// at t = 0 (cold). Plans are adopted, which at t = 0 is a plain
    /// install; dynamics run the session up to each instant first.
    pub fn apply<Q: EventQueue<EventKind>, O: Observer>(
        &self,
        s: &mut Session<Q, O>,
    ) -> Result<(), String> {
        match &self.action {
            Action::Control => Ok(()),
            Action::Plan(plan) => {
                s.adopt_fault_plan(plan);
                Ok(())
            }
            Action::Inject(list) => {
                for &(at_us, d) in list {
                    s.run_until(at_us);
                    s.inject(d).map_err(|e| format!("{}: inject {d:?}: {e}", self.name))?;
                }
                Ok(())
            }
        }
    }
}

/// Generates `PER_KIND` branches of each kind for `p` forked at `fork_us`.
pub fn generate(p: &Prepared, fork_us: u64, seed: u64) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(seed);
    let end_us = p.end_us;
    let rest = (end_us - fork_us) as f64;
    let n_repos = p.config().n_repos;
    // An instant a fraction `lo..hi` of the remaining horizon past the fork.
    let at =
        |rng: &mut StdRng, lo: f64, hi: f64| fork_us + 1 + (rest * rng.gen_range(lo..hi)) as u64;

    // Relays (repositories serving dependents), busiest first. The three
    // busiest sit next to the source; losing one turns a branch into a
    // whole-overlay repair storm, so victims come from the rest.
    let session = p.session();
    let d = session.disseminator();
    let mut relays: Vec<(usize, usize)> = (0..n_repos)
        .map(|r| (d.dependents_of(NodeIdx::repo(r)).len(), r))
        .filter(|&(deps, _)| deps > 0)
        .collect();
    relays.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut victims: Vec<usize> = relays.iter().skip(3).map(|&(_, r)| r).collect();
    if victims.is_empty() {
        // An overlay too small to spare its busiest relays.
        victims = (0..n_repos).collect();
    }
    drop(session);
    let pick = |rng: &mut StdRng| victims[rng.gen_range(0..victims.len())];

    // Backoff saturates at 20 s, so a relay that stays down does not turn
    // its branch into a re-parenting retry storm.
    let repair = RepairSpec {
        policy: RepairPolicy::Reparent,
        detect_timeout_us: 150_000,
        base_backoff_us: 100_000,
        max_backoff_us: 20_000_000,
    };
    let mut out = Vec::new();
    for k in 0..PER_KIND {
        // A correlated subtree burst that later recovers, plus two single
        // relays that stay down, their dependents re-parented.
        let burst_at = at(&mut rng, 0.05, 0.15);
        let mut crashes = vec![CrashSpec {
            repo: pick(&mut rng),
            at_us: burst_at,
            recover_at_us: Some(burst_at + (rest * rng.gen_range(0.2..0.4)) as u64),
            subtree: true,
        }];
        for _ in 0..2 {
            crashes.push(CrashSpec {
                repo: pick(&mut rng),
                at_us: at(&mut rng, 0.05, 0.2),
                recover_at_us: None,
                subtree: false,
            });
        }
        out.push(Scenario {
            name: format!("crash-burst-{k}"),
            action: Action::Plan(FaultPlan {
                crashes,
                repair,
                seed: rng.gen::<u64>(),
                ..FaultPlan::default()
            }),
        });

        let from_us = at(&mut rng, 0.05, 0.2);
        let to_us = from_us + (rest * rng.gen_range(0.15..0.3)) as u64;
        out.push(Scenario {
            name: format!("loss-retransmit-{k}"),
            action: Action::Plan(FaultPlan {
                loss: vec![LossWindow { prob: rng.gen_range(0.1..0.3), from_us, to_us }],
                retransmit: RetransmitSpec::default(),
                seed: rng.gen::<u64>(),
                ..FaultPlan::default()
            }),
        });

        let from_us = at(&mut rng, 0.05, 0.2);
        let to_us = from_us + (rest * rng.gen_range(0.15..0.3)) as u64;
        let min_extra_ms = rng.gen_range(1.0..3.0);
        out.push(Scenario {
            name: format!("pareto-degrade-{k}"),
            action: Action::Plan(FaultPlan {
                degrade: vec![DegradeWindow {
                    from_us,
                    to_us,
                    min_extra_ms,
                    mean_extra_ms: min_extra_ms + rng.gen_range(4.0..10.0),
                }],
                seed: rng.gen::<u64>(),
                ..FaultPlan::default()
            }),
        });

        let mut dynamics = Vec::new();
        for _ in 0..3 {
            let repo = pick(&mut rng);
            let fail_us = at(&mut rng, 0.05, 0.2);
            let recover_us = fail_us + (rest * rng.gen_range(0.1..0.3)) as u64;
            dynamics.push((fail_us, Dynamic::FailRepo { repo }));
            dynamics.push((recover_us, Dynamic::RecoverRepo { repo }));
        }
        dynamics.sort_by_key(|&(t, _)| t);
        out.push(Scenario { name: format!("fail-recover-{k}"), action: Action::Inject(dynamics) });

        let reneg_us = at(&mut rng, 0.05, 0.3);
        let mut dynamics = Vec::new();
        while dynamics.len() < 20 {
            let repo = rng.gen_range(0..n_repos);
            let item = ItemId(rng.gen_range(0..p.config().n_items) as u32);
            if let Some(c) = p.workload.need(repo, item) {
                let c = Coherency::new(c.value() * rng.gen_range(0.3..0.7));
                dynamics.push((reneg_us, Dynamic::SetTolerance { repo, item, c }));
            }
        }
        out.push(Scenario { name: format!("renegotiate-{k}"), action: Action::Inject(dynamics) });

        out.push(Scenario { name: format!("control-{k}"), action: Action::Control });
    }
    out
}
