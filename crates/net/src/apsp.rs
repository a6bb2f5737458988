//! Shortest paths: the overlay-targeted engine and its Floyd–Warshall
//! oracle.
//!
//! The paper: "The routing tables of all the nodes are generated using an
//! all-pairs shortest path algorithm (by Floyd and Warshall)". The overlay
//! layer, however, only ever queries delays among the *overlay* nodes —
//! the source plus the repositories, ~100 of the 700–2100 physical nodes —
//! so materializing the full `V × V` matrix in `O(V³)` is wasted work.
//!
//! [`OverlayApsp`] computes exactly the `m × m` sub-matrix the overlay
//! needs with one label-setting search per overlay node over a CSR view
//! of the graph, fanning the sources out over a rayon-style thread pool.
//! Results are bit-identical regardless of thread count: each source's
//! single-source problem is solved independently and written to its own
//! row.
//!
//! # The bucket kernel
//!
//! Every search orders its frontier with Dial's cyclic bucket queue
//! (Dial, CACM 1969) instead of a binary heap. A label with delay `d`
//! goes to bucket `⌊d / width⌋`, and the width is **half** the smallest
//! link delay of the graph (1 ms for the paper's 2 ms Pareto minimum).
//! Every relaxation therefore moves at least two widths forward and can
//! never land in the bucket being drained, even after floating-point
//! rounding; at a width equal to the minimum it can, and the result then
//! drifts from the heap's on graphs with many equal-delay paths. So when
//! a bucket is reached, every label in it is final: the bucket drains in
//! any order with a settled flag to skip superseded entries, and a
//! source's search stops at the first bucket boundary where every
//! overlay target is settled. The ring holds `⌈max / width⌉ + 2`
//! buckets, rounded up to a power of two (64 for 2–60 ms links), so one
//! lap covers every pending label; a search costs `O(E + V + D / width)`
//! for largest overlay delay `D`, against the heap's `O(E log V)`.
//!
//! The kernel is exact for any positive, finite delays, and memory stays
//! bounded: the ring is capped at `MAX_RING` slots, and a slot shared by
//! several laps keeps the entries of later laps until their turn. Past
//! `d / width ≥ 2⁴⁸`, where `⌊d / width⌋` is no longer safe from
//! rounding, the bucket key becomes the bit pattern of `d` itself, so a
//! bucket holds one delay value and drains by hop improvements (see
//! `BucketKey`). Neither case occurs on the paper's networks.
//!
//! Both the heap and the bucket kernel compute the unique fixed point of
//! `L(v) = min_u (L(u).delay + w(u, v), L(u).hops + 1)` under the
//! lexicographic `(delay, hops)` order, so the matrices match the heap
//! Dijkstra bit for bit; the unit tests keep that heap Dijkstra as the
//! oracle. On the 4,200-node / 601-source anchor graph, single-threaded
//! on a 2-vCPU Xeon VM, the buckets run 2.2–2.7× faster than that heap.
//! Two other frontiers were measured there and lost: a `BinaryHeap` with
//! packed `u64` keys plus the same early exit (1.3–1.6×), and a radix
//! heap keyed on the `f64` bits (1.0–1.4×).
//!
//! [`Apsp::floyd_warshall`] is kept as the independent oracle the property
//! tests compare against (and it remains the reference implementation of
//! the paper's routing construction).
//!
//! Tie-breaking: among equal-delay paths, [`OverlayApsp`] prefers fewer
//! hops. Floyd–Warshall keeps the first strictly-shorter path it
//! encounters, so on graphs with exact equal-delay alternatives its hop
//! counts can exceed the overlay engine's; with continuously distributed
//! link delays the two agree.

use rayon::prelude::*;

use crate::topology::{Csr, NodeId, Topology};

/// Dense all-pairs shortest-path matrices (delay in ms and hop counts).
#[derive(Debug, Clone)]
pub struct Apsp {
    n: usize,
    /// Row-major `n × n` delay matrix; `f64::INFINITY` when unreachable.
    delay: Vec<f64>,
    /// Row-major `n × n` hop matrix; `u32::MAX` when unreachable.
    hops: Vec<u32>,
}

impl Apsp {
    /// Runs Floyd–Warshall on `topo` (O(n³); fine for the paper's 700–2100
    /// node networks, and computed once per experiment).
    pub fn floyd_warshall(topo: &Topology) -> Self {
        let n = topo.n_nodes();
        let mut delay = vec![f64::INFINITY; n * n];
        let mut hops = vec![u32::MAX; n * n];
        for i in 0..n {
            delay[i * n + i] = 0.0;
            hops[i * n + i] = 0;
        }
        for l in topo.links() {
            let (a, b) = (l.a, l.b);
            if l.delay_ms < delay[a * n + b] {
                delay[a * n + b] = l.delay_ms;
                delay[b * n + a] = l.delay_ms;
                hops[a * n + b] = 1;
                hops[b * n + a] = 1;
            }
        }
        for k in 0..n {
            for i in 0..n {
                let dik = delay[i * n + k];
                if dik.is_infinite() {
                    continue;
                }
                let hik = hops[i * n + k];
                // Manual row slices help the optimizer elide bounds checks.
                let (row_k_start, row_i_start) = (k * n, i * n);
                for j in 0..n {
                    let alt = dik + delay[row_k_start + j];
                    if alt < delay[row_i_start + j] {
                        delay[row_i_start + j] = alt;
                        hops[row_i_start + j] = hik + hops[row_k_start + j];
                    }
                }
            }
        }
        Self { n, delay, hops }
    }

    /// Number of nodes covered.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Shortest-path delay between `a` and `b` in milliseconds
    /// (`f64::INFINITY` when disconnected).
    pub fn delay_ms(&self, a: NodeId, b: NodeId) -> f64 {
        self.delay[a * self.n + b]
    }

    /// Hop count along the shortest-delay path (`u32::MAX` when
    /// disconnected).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        self.hops[a * self.n + b]
    }

    /// Mean shortest-path delay over the given node pairs (each unordered
    /// pair counted once), used to report the network's "average node-node
    /// delay" and to normalize delay sweeps.
    pub fn mean_delay_among(&self, nodes: &[NodeId]) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                let d = self.delay_ms(a, b);
                if d.is_finite() {
                    sum += d;
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Mean hop count over the given node pairs.
    pub fn mean_hops_among(&self, nodes: &[NodeId]) -> f64 {
        let mut sum = 0u64;
        let mut count = 0usize;
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                let h = self.hops(a, b);
                if h != u32::MAX {
                    sum += h as u64;
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }
}

/// Shortest paths *among a set of overlay nodes*: the `m × m` delay and
/// hop matrices the dissemination layer actually queries, computed without
/// touching the other `V − m` rows of the full APSP problem.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayApsp {
    /// The overlay nodes, in the order rows/columns are indexed.
    nodes: Vec<NodeId>,
    /// Row-major `m × m` delay matrix (ms); `f64::INFINITY` if unreachable.
    delay: Vec<f64>,
    /// Row-major `m × m` hop matrix; `u32::MAX` if unreachable.
    hops: Vec<u32>,
}

impl OverlayApsp {
    /// Runs one `(delay, hops)`-lexicographic bucket-queue search per
    /// overlay node over a CSR view of `topo`, in parallel, and gathers
    /// the overlay columns of each row.
    ///
    /// # Panics
    /// Panics if `overlay` contains an out-of-range node id.
    pub fn compute(topo: &Topology, overlay: &[NodeId]) -> Self {
        Self::compute_csr(&topo.csr(), overlay)
    }

    /// As [`Self::compute`], over a prebuilt CSR (callers that already
    /// hold one avoid rebuilding it per overlay set).
    pub fn compute_csr(csr: &Csr, overlay: &[NodeId]) -> Self {
        let n = csr.n_nodes();
        let mut is_target = vec![false; n];
        for &node in overlay {
            assert!(node < n, "overlay node {node} out of range");
            is_target[node] = true;
        }
        let (key, ring_len) = BucketKey::for_graph(csr);
        // Sources go out in small chunks so each task reuses one search's
        // scratch; the parallel map keeps chunk order, and each row depends
        // on its source alone, so the result equals the serial loop.
        let chunks: Vec<&[NodeId]> = overlay.chunks(SOURCES_PER_TASK).collect();
        let rows: Vec<(Vec<f64>, Vec<u32>)> = chunks
            .par_iter()
            .map(|sources| {
                let mut search = BucketSearch::new(csr, key, ring_len, &is_target);
                let mut delay = Vec::with_capacity(sources.len() * overlay.len());
                let mut hops = Vec::with_capacity(sources.len() * overlay.len());
                for &src in sources.iter() {
                    search.run(src);
                    delay.extend(overlay.iter().map(|&dst| search.dist[dst]));
                    hops.extend(overlay.iter().map(|&dst| search.hops[dst]));
                }
                (delay, hops)
            })
            .collect();
        let delay = rows.iter().flat_map(|(delay, _)| delay.iter().copied()).collect();
        let hops = rows.iter().flat_map(|(_, hops)| hops.iter().copied()).collect();
        Self { nodes: overlay.to_vec(), delay, hops }
    }

    /// Number of overlay nodes covered.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the overlay set is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The overlay nodes, in row/column order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Delay between the `i`-th and `j`-th overlay nodes, ms.
    pub fn delay_ms_at(&self, i: usize, j: usize) -> f64 {
        self.delay[i * self.nodes.len() + j]
    }

    /// Hop count between the `i`-th and `j`-th overlay nodes.
    pub fn hops_at(&self, i: usize, j: usize) -> u32 {
        self.hops[i * self.nodes.len() + j]
    }

    /// Consumes the result into `(nodes, delay, hops)` flat matrices.
    pub fn into_parts(self) -> (Vec<NodeId>, Vec<f64>, Vec<u32>) {
        (self.nodes, self.delay, self.hops)
    }
}

/// Sources per parallel task: each task reuses one [`BucketSearch`]'s
/// scratch across its sources while leaving enough tasks (76 for the
/// anchor's 601 sources) to balance the pool.
const SOURCES_PER_TASK: usize = 8;

/// Cap on the bucket ring's length. Graphs whose largest link delay
/// exceeds `MAX_RING / 2` minimum delays share slots between laps instead
/// of growing the ring.
const MAX_RING: usize = 1 << 12;

/// Quotient `d / width` from which [`BucketKey`] switches to bit-pattern
/// keys: below it, a relaxation always raises `⌊d / width⌋` despite
/// rounding (the margin is ~2⁵⁰).
const KEY_SPLIT: f64 = (1u64 << 48) as f64;

/// Maps a path delay to its bucket number, monotone in the delay.
#[derive(Debug, Clone, Copy)]
struct BucketKey {
    /// `1 / width`, with width half the graph's smallest link delay.
    inv_width: f64,
}

impl BucketKey {
    /// The key for `csr`'s delays and the ring length that holds one lap
    /// of pending keys (`⌈max / width⌉ + 2`, rounded up to a power of two
    /// and capped at [`MAX_RING`]).
    fn for_graph(csr: &Csr) -> (Self, usize) {
        let Some((min, max)) = csr.delay_range_ms() else {
            // No links: the source is the only label, in bucket 0.
            return (Self { inv_width: 0.0 }, 1);
        };
        // Infinite for subnormal minima; every key then takes the
        // bit-pattern branch, which stays exact.
        let inv_width = 2.0 / min;
        let span = max * inv_width;
        let ring_len = if span < MAX_RING as f64 {
            (span as usize + 3).next_power_of_two().min(MAX_RING)
        } else {
            MAX_RING
        };
        (Self { inv_width }, ring_len)
    }

    /// `⌊d / width⌋`, or `2⁴⁸ + d.to_bits()` once that quotient reaches
    /// [`KEY_SPLIT`]. Both branches are monotone and meet in order; in
    /// the second, one key is one delay value, so a relaxation either
    /// raises the key or keeps the delay and adds a hop.
    #[inline]
    fn of(self, d: f64) -> u64 {
        let q = d * self.inv_width;
        if q < KEY_SPLIT {
            q as u64
        } else {
            KEY_SPLIT as u64 + d.to_bits()
        }
    }
}

/// One worker's single-source search state, reused across its sources.
struct BucketSearch<'a> {
    csr: &'a Csr,
    key: BucketKey,
    /// Marks the overlay nodes; a search ends once all are settled.
    is_target: &'a [bool],
    n_targets: usize,
    /// Delay from the current source, ms (`f64::INFINITY` if unreached).
    dist: Vec<f64>,
    /// Hops along that path (`u32::MAX` if unreached).
    hops: Vec<u32>,
    settled: Vec<bool>,
    /// Cyclic bucket queue: slot `key & (len - 1)` holds node ids.
    ring: Vec<Vec<u32>>,
}

impl<'a> BucketSearch<'a> {
    fn new(csr: &'a Csr, key: BucketKey, ring_len: usize, is_target: &'a [bool]) -> Self {
        let n = csr.n_nodes();
        Self {
            csr,
            key,
            is_target,
            n_targets: is_target.iter().filter(|&&t| t).count(),
            dist: vec![f64::INFINITY; n],
            hops: vec![u32::MAX; n],
            settled: vec![false; n],
            ring: vec![Vec::new(); ring_len],
        }
    }

    /// Fills `dist` and `hops` from `src`, exactly for every overlay
    /// target (other nodes may be left unsettled by the early exit).
    fn run(&mut self, src: NodeId) {
        let Self { csr, key, is_target, n_targets, dist, hops, settled, ring } = self;
        let (csr, key, is_target) = (*csr, *key, *is_target);
        dist.fill(f64::INFINITY);
        hops.fill(u32::MAX);
        settled.fill(false);
        ring.iter_mut().for_each(Vec::clear);
        let mask = ring.len() as u64 - 1;
        dist[src] = 0.0;
        hops[src] = 0;
        ring[0].push(src as u32);
        let mut pending = 1usize;
        let mut unsettled = *n_targets;
        let mut cur = 0u64;
        let mut idle = 0usize;
        loop {
            let slot = (cur & mask) as usize;
            let mut drained = false;
            let mut i = 0;
            while i < ring[slot].len() {
                let u = ring[slot][i] as usize;
                if !settled[u] && key.of(dist[u]) != cur {
                    i += 1; // a later lap sharing this slot
                    continue;
                }
                ring[slot].swap_remove(i);
                pending -= 1;
                if settled[u] {
                    continue; // superseded duplicate
                }
                settled[u] = true;
                unsettled -= is_target[u] as usize;
                drained = true;
                let (d, h) = (dist[u], hops[u] + 1);
                let (targets, weights) = csr.neighbors(u);
                for (&v, &w) in targets.iter().zip(weights) {
                    let v = v as usize;
                    let alt = d + w;
                    if alt < dist[v] || (alt == dist[v] && h < hops[v]) {
                        if settled[v] {
                            // Below the key split the half-minimum width
                            // makes every settled label final. Under
                            // bit-pattern keys `d + w` can round to `d`,
                            // and a same-delay, fewer-hop label reopens
                            // `v` inside the current bucket.
                            if cur < KEY_SPLIT as u64 {
                                continue;
                            }
                            settled[v] = false;
                            unsettled += is_target[v] as usize;
                        }
                        dist[v] = alt;
                        hops[v] = h;
                        ring[(key.of(alt) & mask) as usize].push(v as u32);
                        pending += 1;
                    }
                }
            }
            if unsettled == 0 || pending == 0 {
                break;
            }
            idle = if drained { 0 } else { idle + 1 };
            if idle < ring.len() {
                cur += 1;
                continue;
            }
            // A whole lap with no label due: jump to the smallest pending
            // key (only reachable on a capped ring).
            let mut next = u64::MAX;
            for slot in ring.iter_mut() {
                slot.retain(|&v| !settled[v as usize]);
                for &v in slot.iter() {
                    next = next.min(key.of(dist[v as usize]));
                }
            }
            pending = ring.iter().map(Vec::len).sum();
            if pending == 0 {
                break;
            }
            cur = next;
            idle = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::Pareto;
    use crate::topology::Link;
    use rand::Rng;

    /// The oracle the bucket kernel replaced: single-source binary-heap
    /// Dijkstra over a CSR graph, minimizing `(delay, hops)`
    /// lexicographically; ties beyond that break toward lower node ids.
    fn dijkstra_with_hops_csr(csr: &Csr, src: NodeId) -> (Vec<f64>, Vec<u32>) {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        #[derive(PartialEq)]
        struct Entry {
            dist: f64,
            hops: u32,
            node: u32,
        }
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                // Min-heap: reversed comparisons.
                other
                    .dist
                    .total_cmp(&self.dist)
                    .then_with(|| other.hops.cmp(&self.hops))
                    .then_with(|| other.node.cmp(&self.node))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = csr.n_nodes();
        let mut dist = vec![f64::INFINITY; n];
        let mut hops = vec![u32::MAX; n];
        dist[src] = 0.0;
        hops[src] = 0;
        let mut heap = BinaryHeap::with_capacity(n / 4);
        heap.push(Entry { dist: 0.0, hops: 0, node: src as u32 });
        while let Some(Entry { dist: d, hops: h, node: u }) = heap.pop() {
            let u = u as usize;
            if d > dist[u] || (d == dist[u] && h > hops[u]) {
                continue;
            }
            let (targets, weights) = csr.neighbors(u);
            for (&v, &w) in targets.iter().zip(weights) {
                let vu = v as usize;
                let alt = d + w;
                let alt_h = h + 1;
                if alt < dist[vu] || (alt == dist[vu] && alt_h < hops[vu]) {
                    dist[vu] = alt;
                    hops[vu] = alt_h;
                    heap.push(Entry { dist: alt, hops: alt_h, node: v });
                }
            }
        }
        (dist, hops)
    }

    /// Asserts that the bucket kernel reproduces the heap oracle's delay
    /// bits and hop counts for every overlay pair of `topo`.
    fn assert_matches_heap_oracle(topo: &Topology, overlay: &[NodeId], what: &str) {
        let csr = topo.csr();
        let ov = OverlayApsp::compute_csr(&csr, overlay);
        for (i, &a) in overlay.iter().enumerate() {
            let (dist, hops) = dijkstra_with_hops_csr(&csr, a);
            for (j, &b) in overlay.iter().enumerate() {
                assert_eq!(
                    ov.delay_ms_at(i, j).to_bits(),
                    dist[b].to_bits(),
                    "{what}: delay {a}->{b}: bucket {} heap {}",
                    ov.delay_ms_at(i, j),
                    dist[b],
                );
                assert_eq!(ov.hops_at(i, j), hops[b], "{what}: hops {a}->{b}");
            }
        }
    }

    /// An overlay of `m` nodes spread over `0..n`, node 0 first.
    fn spread_overlay(n: usize, m: usize) -> Vec<NodeId> {
        (0..m).map(|i| i * n / m).collect()
    }

    fn line_graph(n: usize) -> Topology {
        let links = (0..n - 1).map(|i| Link { a: i, b: i + 1, delay_ms: (i + 1) as f64 }).collect();
        Topology::new(n, links)
    }

    #[test]
    fn line_graph_distances() {
        let topo = line_graph(5);
        let apsp = Apsp::floyd_warshall(&topo);
        // delay(0,4) = 1 + 2 + 3 + 4 = 10, hops = 4
        assert_eq!(apsp.delay_ms(0, 4), 10.0);
        assert_eq!(apsp.hops(0, 4), 4);
        assert_eq!(apsp.delay_ms(2, 2), 0.0);
        assert_eq!(apsp.hops(2, 2), 0);
    }

    #[test]
    fn shortcut_beats_long_path() {
        let topo = Topology::new(
            4,
            vec![
                Link { a: 0, b: 1, delay_ms: 1.0 },
                Link { a: 1, b: 2, delay_ms: 1.0 },
                Link { a: 2, b: 3, delay_ms: 1.0 },
                Link { a: 0, b: 3, delay_ms: 2.5 },
            ],
        );
        let apsp = Apsp::floyd_warshall(&topo);
        assert_eq!(apsp.delay_ms(0, 3), 2.5);
        assert_eq!(apsp.hops(0, 3), 1);
    }

    #[test]
    fn matches_dijkstra_on_random_graph() {
        let topo = Topology::random(80, 3.5, 5, |rng| rng.gen_range(1.0..20.0));
        let apsp = Apsp::floyd_warshall(&topo);
        let csr = topo.csr();
        for src in [0usize, 17, 42] {
            let (d, _) = dijkstra_with_hops_csr(&csr, src);
            for (v, &dv) in d.iter().enumerate() {
                assert!(
                    (apsp.delay_ms(src, v) - dv).abs() < 1e-9,
                    "mismatch {src}->{v}: fw={} dij={dv}",
                    apsp.delay_ms(src, v),
                );
            }
        }
    }

    /// Property: the bucket kernel is bit-identical to the heap Dijkstra
    /// on the paper's Pareto-delay networks, at the base (700 nodes / 101
    /// overlay nodes) and anchor (4,200 / 601) sizes.
    #[test]
    fn bucket_kernel_matches_heap_oracle_on_paper_graphs() {
        let pareto = Pareto::with_mean(2.0, 4.0);
        for (n, m, seed) in [(700, 101, 1u64), (700, 101, 2), (4200, 601, 3)] {
            let topo = Topology::random(n, 3.0, seed, |rng| pareto.sample_capped(rng, 60.0));
            assert_matches_heap_oracle(&topo, &spread_overlay(n, m), &format!("pareto {n}/{seed}"));
        }
    }

    /// Property: bit-identity on tie-heavy graphs, whose delays are a few
    /// multiples of the minimum, so equal-delay paths with different hop
    /// counts and sums that round onto bucket edges abound. A bucket width
    /// equal to the minimum delay (instead of half) fails here.
    #[test]
    fn bucket_kernel_matches_heap_oracle_on_tied_delays() {
        for seed in 0..40u64 {
            let n = 60 + (seed as usize * 13) % 90;
            let topo = Topology::random(n, 3.0 + (seed % 3) as f64 * 0.5, seed, |rng| {
                [0.1, 0.2, 0.3][rng.gen_range(0..3usize)]
            });
            assert_matches_heap_oracle(&topo, &spread_overlay(n, n / 3), &format!("ties {seed}"));
        }
    }

    /// Property: bit-identity when link delays span five orders of
    /// magnitude (1 µs to 60 ms), which overflows the ring cap and shares
    /// slots between laps.
    #[test]
    fn bucket_kernel_matches_heap_oracle_on_wide_delay_ratio() {
        for seed in 0..4u64 {
            let topo = Topology::random(300, 3.0, seed, |rng| {
                10f64.powf(rng.gen_range(-3.0..60f64.log10()))
            });
            assert_matches_heap_oracle(&topo, &spread_overlay(300, 40), &format!("wide {seed}"));
        }
    }

    /// Property: bit-identity at delay ratios where `d + w` rounds to `d`
    /// and the minimum is subnormal, the range handled by bit-pattern
    /// bucket keys.
    #[test]
    fn bucket_kernel_matches_heap_oracle_on_extreme_delay_ratio() {
        for seed in 0..6u64 {
            let topo = Topology::random(50, 3.5, seed, |rng| {
                [5e-324, 1e-300, 1e-3, 1.0, 1e300][rng.gen_range(0..5usize)]
            });
            assert_matches_heap_oracle(&topo, &spread_overlay(50, 12), &format!("extreme {seed}"));
        }
    }

    #[test]
    fn symmetry_and_triangle_inequality() {
        let topo = Topology::random(60, 3.0, 11, |_| 2.0);
        let apsp = Apsp::floyd_warshall(&topo);
        for a in 0..60 {
            for b in 0..60 {
                assert!((apsp.delay_ms(a, b) - apsp.delay_ms(b, a)).abs() < 1e-9);
                for c in 0..60 {
                    assert!(
                        apsp.delay_ms(a, b) <= apsp.delay_ms(a, c) + apsp.delay_ms(c, b) + 1e-9
                    );
                }
            }
        }
    }

    /// Property: on random topologies with continuously distributed link
    /// delays, the overlay-targeted engine reproduces the Floyd–Warshall
    /// oracle's delays *and* hop counts for every overlay pair.
    #[test]
    fn overlay_apsp_matches_floyd_warshall_oracle() {
        for seed in 0..8u64 {
            let n = 40 + (seed as usize * 17) % 80;
            let topo = Topology::random(n, 3.0 + (seed % 3) as f64 * 0.5, seed, |rng| {
                rng.gen_range(1.0..30.0)
            });
            // An arbitrary overlay subset, including node 0 as the "source".
            let overlay: Vec<NodeId> = (0..n).filter(|&v| v == 0 || v % 3 == 1).collect();
            let fw = Apsp::floyd_warshall(&topo);
            let ov = OverlayApsp::compute(&topo, &overlay);
            assert_eq!(ov.len(), overlay.len());
            for (i, &a) in overlay.iter().enumerate() {
                for (j, &b) in overlay.iter().enumerate() {
                    assert!(
                        (ov.delay_ms_at(i, j) - fw.delay_ms(a, b)).abs() < 1e-9,
                        "seed {seed}: delay mismatch {a}->{b}: overlay {} fw {}",
                        ov.delay_ms_at(i, j),
                        fw.delay_ms(a, b),
                    );
                    assert_eq!(
                        ov.hops_at(i, j),
                        fw.hops(a, b),
                        "seed {seed}: hop mismatch {a}->{b}",
                    );
                }
            }
        }
    }

    /// With quantized delays, equal-delay alternatives exist; the overlay
    /// engine must still agree on delay and never take *more* hops than
    /// the oracle (it minimizes hops among shortest paths; FW is
    /// arbitrary).
    #[test]
    fn overlay_apsp_on_tied_paths_takes_minimal_hops() {
        for seed in 0..4u64 {
            let topo = Topology::random(70, 4.0, seed, |_| 5.0);
            let overlay: Vec<NodeId> = (0..70).step_by(5).collect();
            let fw = Apsp::floyd_warshall(&topo);
            let ov = OverlayApsp::compute(&topo, &overlay);
            for (i, &a) in overlay.iter().enumerate() {
                for (j, &b) in overlay.iter().enumerate() {
                    assert!((ov.delay_ms_at(i, j) - fw.delay_ms(a, b)).abs() < 1e-9);
                    assert!(
                        ov.hops_at(i, j) <= fw.hops(a, b),
                        "seed {seed}: overlay took {} hops, oracle {}",
                        ov.hops_at(i, j),
                        fw.hops(a, b),
                    );
                }
            }
        }
    }

    /// The parallel fan-out must be invisible: any forced pool width
    /// produces the same matrices as the default pool. (Each source's row
    /// is computed independently, so this holds by construction; the test
    /// pins it.)
    #[test]
    fn overlay_apsp_is_thread_count_invariant() {
        let topo = Topology::random(90, 3.5, 13, |rng| rng.gen_range(2.0..40.0));
        let overlay: Vec<NodeId> = (0..90).step_by(4).collect();
        let baseline = OverlayApsp::compute(&topo, &overlay);
        for width in [1usize, 2, 7] {
            let pinned = rayon::with_num_threads(width, || OverlayApsp::compute(&topo, &overlay));
            assert_eq!(baseline, pinned, "width {width} diverged");
        }
    }

    #[test]
    fn mean_delay_and_hops() {
        let topo = line_graph(4); // delays 1,2,3
        let apsp = Apsp::floyd_warshall(&topo);
        let nodes = [0, 1, 2, 3];
        // pairs: (0,1)=1 (0,2)=3 (0,3)=6 (1,2)=2 (1,3)=5 (2,3)=3 → mean 20/6
        assert!((apsp.mean_delay_among(&nodes) - 20.0 / 6.0).abs() < 1e-9);
        // hops: 1,2,3,1,2,1 → mean 10/6
        assert!((apsp.mean_hops_among(&nodes) - 10.0 / 6.0).abs() < 1e-9);
    }
}
