//! Adversarial oracle properties of the slim-slot calendar queue.
//!
//! The calendar tier dropped its 8-byte `seq` tie-breaker: FIFO bucket
//! insertion now *is* the tie-breaker, valid because the [`EventQueue`]
//! push contract requires strictly increasing creation stamps. These
//! tests attack exactly the paths where that implicit ordering could
//! break — dense equal-timestamp storms, year-advance migrations through
//! the overflow tier (which still stores `seq`), boundary-snap ties split
//! across the tiers, rebuild demotions with their synthesized negative
//! stamps, and the bulk `push_batch` / `pop_run` operations interleaved
//! with scalar pushes and pops — always against two references at once:
//! the [`HeapQueue`] oracle (explicit `(at_us, seq)` slots) and a sorted
//! stable model.
//!
//! The in-crate tests (`d3t_sim::queue`) cover the basic distributions;
//! this file is the adversarial extension the seq-drop demanded.

use d3t::sim::{CalendarQueue, EventQueue, HeapQueue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded uniform draw in `[0, n)` — the suite-wide deterministic RNG
/// idiom (`StdRng::seed_from_u64`), as in the sibling property tests.
fn below(rng: &mut StdRng, n: u64) -> u64 {
    rng.gen_range(0..n)
}

/// Drains a queue to a vector via scalar pops.
fn drain<Q: EventQueue<u64>>(q: &mut Q) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(q.len());
    while let Some(e) = q.pop() {
        out.push(e);
    }
    out
}

/// Pushes `keys` with payload = creation index into both backends and a
/// sorted stable model, then checks all three agree on the drain order.
fn assert_three_way_agreement(keys: &[u64]) {
    let mut cal = CalendarQueue::with_capacity(keys.len());
    let mut heap = HeapQueue::with_capacity(keys.len());
    let mut model: Vec<(u64, u64)> =
        keys.iter().enumerate().map(|(i, &at)| (at, i as u64)).collect();
    for (i, &at) in keys.iter().enumerate() {
        cal.push(at, i as u64, i as u64);
        heap.push(at, i as u64, i as u64);
    }
    model.sort(); // payload = creation index, so plain sort is the stable order
    assert_eq!(drain(&mut cal), model, "calendar vs model");
    assert_eq!(drain(&mut heap), model, "heap vs model");
}

#[test]
fn equal_timestamp_storms_drain_in_creation_order() {
    // Whole-queue ties at a handful of timestamps, interleaved so every
    // bucket sees repeated FIFO appends between pops, across sizes that
    // straddle the overload threshold (64) and the migration cap.
    for &n in &[10usize, 64, 65, 500, 5_000] {
        let mut rng = StdRng::seed_from_u64(n as u64 | 1);
        let keys: Vec<u64> = (0..n).map(|_| below(&mut rng, 4) * 1_000_003).collect();
        assert_three_way_agreement(&keys);
    }
    // Every key identical: one bucket, pure FIFO.
    assert_three_way_agreement(&vec![123_456_789u64; 1_000]);
}

#[test]
fn year_advance_migrations_preserve_ties() {
    // Tie groups spread across far-apart years: every group transits the
    // overflow tier (explicit seq) and migrates into FIFO buckets at its
    // year advance; the handoff must preserve creation order.
    let mut keys = Vec::new();
    for year in 0..20u64 {
        let base = year * 1_000_000_000_000;
        for i in 0..40u64 {
            keys.push(base + (i % 5) * 7); // 8-deep tie groups per year
        }
    }
    assert_three_way_agreement(&keys);
}

#[test]
fn boundary_snap_ties_split_across_tiers_stay_ordered() {
    // A huge burst of identical keys far in the future forces the
    // migration cap (4× bucket count) to cut a year mid-tie-group: the
    // admitted twins sit in the calendar at `at == boundary` while the
    // rest stay in overflow. Pop order must still be creation order.
    let mut keys = vec![0u64]; // anchors the first year near zero
    keys.extend(std::iter::repeat_n(5_000_000_000u64, 3_000));
    // A second distinct tie group right behind the first.
    keys.extend(std::iter::repeat_n(5_000_000_001u64, 3_000));
    assert_three_way_agreement(&keys);
}

#[test]
fn overload_rebuild_demotions_keep_negative_stamp_order() {
    // Dense distinct timestamps overload one startup-width day (forcing
    // width-shrink rebuilds whose demotions synthesize tie-breakers),
    // with tie echoes pushed both before and after the rebuilds.
    let mut keys = Vec::new();
    for round in 0..3u64 {
        for i in 0..300u64 {
            keys.push(i * 3 + round); // dense spread inside ~1 ms
        }
        for i in (0..300u64).rev() {
            keys.push(i * 3); // equal-key echoes, reverse order
        }
    }
    assert_three_way_agreement(&keys);
}

/// Several event sources, each emitting in its own deterministic
/// creation order, are concatenated, merged on a `(at_ev, phase, sec,
/// k)` creation key, re-stamped from one run-wide counter, and delivered
/// to owner + mirror queues — so every queue receives an ascending-stamp
/// *subsequence* of the merge, with gaps between consecutive stamps. The
/// arrival times are drawn from three instants, so nearly everything
/// ties: the drain out of both backends must equal the stable model
/// order, meaning the merge key alone — never insertion history or
/// backend internals — decides every tie. The non-mutating
/// `snapshot_events` probe must report that same order before the drain.
#[test]
fn epoch_merge_restamping_survives_tie_storms() {
    const QUEUES: usize = 4;
    for round in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0xE90C ^ (round + 1));
        // Source entries: at_ev strides keep keys disjoint across
        // sources (stamps are globally unique), and (phase, sec, k)
        // orders the sends of one generating event.
        let mut merged: Vec<((u64, u8, u64, u32), u64)> = Vec::new();
        for source in 0..QUEUES as u64 {
            let mut at_ev = source;
            for _ in 0..40 + below(&mut rng, 80) {
                at_ev += QUEUES as u64 * (1 + below(&mut rng, 3));
                let phase = below(&mut rng, 2) as u8;
                let sec = below(&mut rng, 4);
                for k in 0..1 + below(&mut rng, 6) as u32 {
                    let arrival = below(&mut rng, 3) * 1_000_003;
                    merged.push(((at_ev, phase, sec, k), arrival));
                }
            }
        }
        merged.sort_unstable_by_key(|&(key, _)| key);
        let mut cals: Vec<CalendarQueue<u64>> =
            (0..QUEUES).map(|_| CalendarQueue::with_capacity(0)).collect();
        let mut heaps: Vec<HeapQueue<u64>> =
            (0..QUEUES).map(|_| HeapQueue::with_capacity(0)).collect();
        let mut models: Vec<Vec<(u64, u64)>> = vec![Vec::new(); QUEUES];
        for (g, &(_, arrival)) in merged.iter().enumerate() {
            let g = g as u64;
            let owner = below(&mut rng, QUEUES as u64) as usize;
            let mirror = below(&mut rng, QUEUES as u64) as usize;
            cals[owner].push(arrival, g, g);
            heaps[owner].push(arrival, g, g);
            models[owner].push((arrival, g));
            if mirror != owner {
                cals[mirror].push(arrival, g, g);
                heaps[mirror].push(arrival, g, g);
                models[mirror].push((arrival, g));
            }
        }
        for q in 0..QUEUES {
            models[q].sort(); // payload = stamp, so plain sort is the stable order
            let (mut cal_snap, mut heap_snap) = (Vec::new(), Vec::new());
            cals[q].snapshot_events(&mut cal_snap);
            heaps[q].snapshot_events(&mut heap_snap);
            assert_eq!(cal_snap, heap_snap, "snapshot diverged on queue {q} round {round}");
            assert_eq!(cal_snap, models[q], "calendar snapshot queue {q} round {round}");
            assert_eq!(drain(&mut cals[q]), models[q], "calendar queue {q} round {round}");
            assert_eq!(drain(&mut heaps[q]), models[q], "heap queue {q} round {round}");
        }
    }
}

/// The bulk operations interleaved with scalar ones must be
/// observationally identical to the heap oracle driven scalar-only:
/// `push_batch` groups vs loose pushes, `pop_run` runs vs single pops,
/// with random windows, caps, and run lengths.
#[test]
fn bulk_and_scalar_ops_interleave_identically() {
    for round in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED_CAFE ^ (round + 1));
        run_interleaved_round(&mut rng);
    }
}

fn run_interleaved_round(rng: &mut StdRng) {
    let mut cal: CalendarQueue<u64> = CalendarQueue::with_capacity(0);
    let mut heap: HeapQueue<u64> = HeapQueue::with_capacity(0);
    let mut seq = 0u64;
    let mut run: Vec<(u64, u64)> = Vec::new();
    let ops = 600 + below(rng, 1200);
    for _ in 0..ops {
        match below(rng, 10) {
            // Scalar push: uniform, bursty-tie, or far-future key.
            0..=3 => {
                let at = gen_key(rng);
                cal.push(at, seq, seq);
                heap.push(at, seq, seq);
                seq += 1;
            }
            // push_batch of a send group (jittered near-monotone times,
            // occasional boundary-crossing outlier, frequent ties).
            4..=5 => {
                let base = gen_key(rng);
                let group: Vec<(u64, u64)> = (0..1 + below(rng, 12))
                    .map(|i| {
                        let jitter = below(rng, 3);
                        let outlier = below(rng, 5) * 1_000_000_000;
                        let at = base.saturating_add(i * jitter).saturating_add(outlier);
                        let payload = seq + i;
                        (at, payload)
                    })
                    .collect();
                cal.push_batch(seq, &group);
                for (k, &(at, payload)) in group.iter().enumerate() {
                    heap.push(at, seq + k as u64, payload);
                }
                seq += group.len() as u64;
            }
            // Scalar pop and strictly-capped probe.
            6..=7 => {
                assert_eq!(cal.pop(), heap.pop());
            }
            8 => {
                let cap = gen_key(rng);
                assert_eq!(cal.pop_lt(cap), heap.pop_lt(cap), "cap {cap}");
                assert_eq!(cal.len(), heap.len());
            }
            // pop_run with random window/cap/max on both backends.
            _ => {
                let window = [0u64, 1, 500, 50_000, u64::MAX][below(rng, 5) as usize];
                let cap = if below(rng, 3) == 0 { gen_key(rng) } else { u64::MAX };
                let max = below(rng, 20) as usize;
                run.clear();
                let n_cal = cal.pop_run(window, cap, max, &mut run);
                let n_heap = heap.pop_run(window, cap, max, &mut run);
                assert_eq!(n_cal, n_heap, "run lengths diverged");
                assert_eq!(run[..n_cal], run[n_cal..], "run contents diverged");
            }
        }
        assert_eq!(cal.len(), heap.len());
    }
    assert_eq!(drain(&mut cal), drain(&mut heap), "final drain");
}

fn gen_key(rng: &mut StdRng) -> u64 {
    match below(rng, 4) {
        0 => below(rng, 100_000),                       // dense front
        1 => below(rng, 8) * 250_000,                   // tie clusters
        2 => 1_000_000_000 + below(rng, 1_000_000_000), // next years
        _ => below(rng, 20) * 800_000_000_000,          // far future / tie storms
    }
}
