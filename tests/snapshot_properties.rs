//! Cross-cutting properties of the snapshot/branch/replay subsystem.
//!
//! The contracts, in increasing order of adversity:
//!
//! 1. **Capture is invisible.** Taking a [`Snapshot`] mid-run changes
//!    nothing: the captured session's own run-to-end stays bit-identical
//!    to the uninterrupted reference run.
//!
//! 2. **Resume is bit-identical.** `Prepared::resume` reconstructs a
//!    session whose run-to-end equals the uninterrupted run bit for bit
//!    — across all four protocols × seeds × both queue backends × batch
//!    caps {1, 16} × an active fault plan — and the restore is
//!    backend-neutral: a calendar-queue capture resumes onto the heap
//!    backend (and vice versa) with the same result.
//!
//! 3. **Mid-fault-window snapshots restore exactly.** A snapshot taken
//!    while repositories are crashed, CSR edges are adopted away, a
//!    loss window is consuming the plan RNG and degraded in-flight
//!    arrivals are pending still restores to a bit-identical run — the
//!    fault runtime (timeline cursor, repair heap, live windows, RNG)
//!    round-trips whole.
//!
//! 4. **The digest is a state oracle.** `state_digest` is equal between
//!    a session and its restored copy, stable across queue backends at
//!    the same instant, and splits runs that differ (different seed /
//!    different fork scenario) — digest equality iff state equality,
//!    with representation (stamp counters, tag-table ids) excluded.

use d3t::core::dissemination::Protocol;
use d3t::sim::{
    CalendarQueue, CrashSpec, DegradeWindow, EventKind, EventQueue, FaultPlan, HeapQueue,
    LossWindow, NoopObserver, Prepared, RepairPolicy, RepairSpec, SimConfig, Snapshot,
};

const PROTOCOLS: [Protocol; 4] =
    [Protocol::Distributed, Protocol::Centralized, Protocol::Naive, Protocol::FloodAll];
const SEEDS: [u64; 3] = [0x5EED, 4242, 9];
const CAPS: [usize; 2] = [1, 16];

fn small(protocol: Protocol, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::small_for_tests(14, 6, 400, 50.0);
    cfg.protocol = protocol;
    cfg.seed = seed;
    cfg.coop_res = 3;
    cfg
}

/// An active plan exercising every fault dimension: a permanent crash
/// under the re-parenting repair policy (adopted CSR edges at fork
/// time), a recovering correlated burst, a loss window with
/// retransmission, and a degradation window — all straddling the
/// half-run fork instant the tests snapshot at.
fn active_plan(cfg: &SimConfig, end_us: u64) -> FaultPlan {
    FaultPlan {
        crashes: vec![
            CrashSpec { repo: 0, at_us: end_us / 4, recover_at_us: None, subtree: false },
            CrashSpec {
                repo: 1 % cfg.n_repos,
                at_us: end_us / 3,
                recover_at_us: Some(end_us * 2 / 3),
                subtree: true,
            },
        ],
        loss: vec![LossWindow { prob: 0.25, from_us: end_us / 8, to_us: end_us * 3 / 4 }],
        degrade: vec![DegradeWindow {
            from_us: end_us / 3,
            to_us: end_us * 3 / 4,
            min_extra_ms: 5.0,
            mean_extra_ms: 25.0,
        }],
        repair: RepairSpec {
            policy: RepairPolicy::Reparent,
            detect_timeout_us: 150_000,
            base_backoff_us: 20_000,
            max_backoff_us: 300_000,
        },
        seed: cfg.seed ^ 0xF00D,
        ..Default::default()
    }
}

/// Drives a fresh session to `fork_us`, captures, then finishes it —
/// returning the snapshot plus the (must-stay-reference) full-run
/// outcome of the session that was snapshotted.
fn capture_and_finish<Q: EventQueue<EventKind>>(
    p: &Prepared,
    plan: &FaultPlan,
    cap: usize,
    fork_us: u64,
) -> (Snapshot, String) {
    let mut s = p.session_with::<Q, _>(NoopObserver);
    s.set_batch_events(cap);
    s.install_fault_plan(plan);
    s.run_until(fork_us);
    let snap = s.snapshot();
    (snap, format!("{:?}", s.run_to_end()))
}

fn resume_and_finish<Q: EventQueue<EventKind>>(
    p: &Prepared,
    snap: &Snapshot,
    cap: usize,
) -> String {
    let mut s = p.resume_with::<Q, _>(snap, NoopObserver);
    s.set_batch_events(cap);
    format!("{:?}", s.run_to_end())
}

#[test]
fn resume_is_bit_identical_across_protocols_seeds_backends_caps() {
    for protocol in PROTOCOLS {
        for seed in SEEDS {
            let cfg = small(protocol, seed);
            let p = Prepared::build(&cfg);
            let plan = active_plan(&cfg, p.end_us);
            let fork_us = p.end_us / 2;
            // Uninterrupted reference at cap 1 on the calendar queue.
            let reference = {
                let mut s = p.session_with::<CalendarQueue<EventKind>, _>(NoopObserver);
                s.set_batch_events(1);
                s.install_fault_plan(&plan);
                format!("{:?}", s.run_to_end())
            };
            for cap in CAPS {
                let (cal_snap, cal_full) =
                    capture_and_finish::<CalendarQueue<EventKind>>(&p, &plan, cap, fork_us);
                let (heap_snap, heap_full) =
                    capture_and_finish::<HeapQueue<EventKind>>(&p, &plan, cap, fork_us);
                // Contract 1: capture is invisible.
                assert_eq!(cal_full, reference, "{protocol:?}/{seed}/{cap}: capture disturbed run");
                assert_eq!(heap_full, reference, "{protocol:?}/{seed}/{cap}: capture disturbed");
                // Contract 2: resume is bit-identical, same and crossed
                // backends, at every cap.
                for resume_cap in CAPS {
                    for (label, snap) in [("cal", &cal_snap), ("heap", &heap_snap)] {
                        let cal =
                            resume_and_finish::<CalendarQueue<EventKind>>(&p, snap, resume_cap);
                        let heap = resume_and_finish::<HeapQueue<EventKind>>(&p, snap, resume_cap);
                        assert_eq!(
                            cal, reference,
                            "{protocol:?}/{seed}: {label}-capture → calendar resume diverged"
                        );
                        assert_eq!(
                            heap, reference,
                            "{protocol:?}/{seed}: {label}-capture → heap resume diverged"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn mid_fault_window_snapshot_restores_bit_identically() {
    // Fork at 40% of the run: repo 0 is crashed (and, under Reparent,
    // its dependents adopted away), the loss window is live (the plan
    // RNG has been drawn), the degradation window is live (degraded
    // arrivals and retransmission backoffs are pending in the queue).
    let cfg = small(Protocol::Distributed, 0x5EED);
    let p = Prepared::build(&cfg);
    let plan = active_plan(&cfg, p.end_us);
    let fork_us = p.end_us * 2 / 5;
    let reference = {
        let mut s = p.session();
        s.install_fault_plan(&plan);
        format!("{:?}", s.run_to_end())
    };
    let (snap, full) = capture_and_finish::<CalendarQueue<EventKind>>(&p, &plan, 16, fork_us);
    assert_eq!(full, reference);
    // The captured session was mid-window in every dimension.
    assert!(snap.pending_events() > 0, "fork instant has nothing in flight");
    for cap in CAPS {
        assert_eq!(resume_and_finish::<CalendarQueue<EventKind>>(&p, &snap, cap), reference);
        assert_eq!(resume_and_finish::<HeapQueue<EventKind>>(&p, &snap, cap), reference);
    }
}

#[test]
fn state_digest_is_representation_free_and_splits_divergent_states() {
    let cfg = small(Protocol::Centralized, 0x5EED);
    let p = Prepared::build(&cfg);
    let plan = active_plan(&cfg, p.end_us);
    let fork_us = p.end_us / 2;

    // Same instant, both backends, original vs resumed: one digest.
    let (digest_cal, snap) = {
        let mut s = p.session_with::<CalendarQueue<EventKind>, _>(NoopObserver);
        s.install_fault_plan(&plan);
        s.run_until(fork_us);
        (s.state_digest(), s.snapshot())
    };
    let digest_heap = {
        let mut s = p.session_with::<HeapQueue<EventKind>, _>(NoopObserver);
        s.set_batch_events(1);
        s.install_fault_plan(&plan);
        s.run_until(fork_us);
        s.state_digest()
    };
    assert_eq!(digest_cal, digest_heap, "backends diverged at the fork instant");
    let resumed_cal = p.resume(&snap).state_digest();
    let resumed_heap = p.resume_with::<HeapQueue<EventKind>, _>(&snap, NoopObserver).state_digest();
    assert_eq!(resumed_cal, digest_cal, "restore is not digest-transparent (calendar)");
    assert_eq!(resumed_heap, digest_cal, "restore is not digest-transparent (heap)");

    // Different state ⇒ different digest: a later instant, a different
    // seed, and a forked branch that adopted a new fault plan.
    let digest_later = {
        let mut s = p.resume(&snap);
        s.run_until(fork_us + p.end_us / 10);
        s.state_digest()
    };
    assert_ne!(digest_cal, digest_later, "digest blind to simulated progress");
    let digest_other_seed = {
        let cfg2 = small(Protocol::Centralized, 4242);
        let p2 = Prepared::build(&cfg2);
        let mut s = p2.session();
        s.install_fault_plan(&active_plan(&cfg2, p2.end_us));
        s.run_until(p2.end_us / 2);
        s.state_digest()
    };
    assert_ne!(digest_cal, digest_other_seed, "digest blind to the seed");
    let digest_branched = {
        let mut s = p.resume(&snap);
        s.adopt_fault_plan(&FaultPlan {
            crashes: vec![CrashSpec {
                repo: 2,
                at_us: fork_us + 1,
                recover_at_us: None,
                subtree: true,
            }],
            seed: 7,
            ..Default::default()
        });
        s.run_until(fork_us + p.end_us / 10);
        s.state_digest()
    };
    assert_ne!(digest_later, digest_branched, "digest blind to a branched scenario");
}

#[test]
fn branch_from_fault_free_prefix_equals_cold_run_with_the_plan() {
    // The what-if shape: a fault-free shared prefix, then N divergent
    // futures. A branch that adopts a plan whose controls all fire
    // strictly after the fork instant must be bit-identical to a cold
    // run that carried the same plan from t = 0.
    for protocol in [Protocol::Distributed, Protocol::Centralized] {
        let cfg = small(protocol, 0x5EED);
        let p = Prepared::build(&cfg);
        let fork_us = p.end_us / 2;
        let snap = {
            let mut s = p.session();
            s.run_until(fork_us);
            s.snapshot()
        };
        let scenario = FaultPlan {
            crashes: vec![CrashSpec {
                repo: 0,
                at_us: fork_us + 50_000,
                recover_at_us: Some(fork_us + 500_000),
                subtree: true,
            }],
            loss: vec![LossWindow {
                prob: 0.2,
                from_us: fork_us + 100_000,
                to_us: p.end_us * 9 / 10,
            }],
            repair: RepairSpec { policy: RepairPolicy::Reparent, ..Default::default() },
            seed: 0xBEEF,
            ..Default::default()
        };
        let cold = {
            let mut s = p.session();
            s.install_fault_plan(&scenario);
            format!("{:?}", s.run_to_end())
        };
        let warm = {
            let mut s = p.resume(&snap);
            s.adopt_fault_plan(&scenario);
            format!("{:?}", s.run_to_end())
        };
        assert_eq!(warm, cold, "{protocol:?}: warm branch diverged from cold run");
    }
}
