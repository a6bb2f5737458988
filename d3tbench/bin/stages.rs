//! The traced set-up: `Prepared::build`'s stages called one by one
//! through each layer's public stage function, in the order
//! `Prepared::build` calls them, each inside its own span.
//!
//! The replay exists only to split set-up time by layer from outside the
//! program. Its d3g and overlay delay matrix are digested and compared
//! with those of the `Prepared::build` the same traced iteration runs
//! ([`Replay::matches`]), so a replay that drifted from the program
//! fails the run instead of timing something else.

use std::hint::black_box;

use d3t_core::coop::{controlled_degree, CoopParams};
use d3t_core::digest::debug_hash;
use d3t_core::dissemination::Disseminator;
use d3t_core::graph::D3g;
use d3t_core::lela::{build_d3g, DelayMatrix, DelayMicros, LelaConfig};
use d3t_core::workload::{Workload, WorkloadConfig};
use d3t_net::placement::Placement;
use d3t_net::{NetworkConfig, Pareto, PhysicalNetwork, Topology};
use d3t_sim::{Prepared, SimConfig, TreeStrategy};
use d3t_traces::{generate_ensemble, EnsembleConfig, Trace};
use rand::rngs::StdRng;

use crate::spans::Spans;

/// What the replay built that the run checks and reports.
pub struct Replay {
    pub d3g: D3g,
    pub delays: DelayMatrix,
    /// Overlay nodes: the source plus every repository.
    pub overlay_nodes: usize,
    /// Nodes of the d3g, the side of the `DelayMicros` matrix.
    pub d3g_nodes: usize,
}

/// Replays `Prepared::build(cfg)` stage by stage under span `build.replay`.
pub fn replay(cfg: &SimConfig, sp: &mut Spans) -> Replay {
    sp.time("build.replay", |sp| {
        let traces = sp.time("traces.generate", |_| {
            let ensemble = EnsembleConfig {
                n_items: cfg.n_items,
                n_ticks: cfg.n_ticks,
                ..cfg.ensemble.clone()
            };
            generate_ensemble(&ensemble, cfg.sub_seed("traces"))
        });

        let net_cfg = NetworkConfig { n_repositories: cfg.n_repos, ..cfg.network.clone() };
        let seed = cfg.sub_seed("topology");
        let (topo, placement) = sp.time("net.topology", |_| {
            let pareto = Pareto::with_mean(net_cfg.link_delay_min_ms, net_cfg.link_delay_mean_ms);
            let cap = net_cfg.link_delay_cap_ms;
            let topo =
                Topology::random(net_cfg.n_nodes, net_cfg.avg_degree, seed, |rng: &mut StdRng| {
                    pareto.sample_capped(rng, cap)
                });
            let placement =
                Placement::random(net_cfg.n_nodes, net_cfg.n_repositories, seed.wrapping_add(1));
            (topo, placement)
        });
        let (net, mean_comm_ms) = sp.time("net.apsp", |_| {
            let mut net = PhysicalNetwork::from_parts(&topo, placement);
            if let Some(target) = cfg.target_mean_comm_delay_ms {
                net.scale_to_mean_delay(target);
            }
            let mean = net.mean_overlay_delay_ms();
            (net, mean)
        });
        let delays = sp.time("core.delay_matrix", |_| {
            let mut physical = Vec::with_capacity(cfg.n_repos + 1);
            physical.push(net.source());
            physical.extend_from_slice(net.repositories());
            let n = physical.len();
            let mut m = vec![0.0; n * n];
            for (i, &a) in physical.iter().enumerate() {
                for (j, &b) in physical.iter().enumerate() {
                    m[i * n + j] = if i == j { 0.0 } else { net.delay_ms(a, b) };
                }
            }
            DelayMatrix::new(n, m)
        });
        let overlay_nodes = cfg.n_repos + 1;
        drop(black_box(net));

        let workload = sp.time("core.workload", |_| {
            Workload::generate(
                &WorkloadConfig::paper(cfg.n_repos, cfg.n_items, cfg.t_stringent_pct),
                cfg.sub_seed("workload"),
            )
        });
        let coop_degree = if cfg.controlled {
            controlled_degree(CoopParams {
                avg_comm_delay_ms: mean_comm_ms.max(f64::MIN_POSITIVE),
                avg_comp_delay_ms: cfg.comp_delay_ms.max(f64::MIN_POSITIVE),
                coop_res: cfg.coop_res,
                f: cfg.coop_f,
            })
        } else {
            cfg.coop_res
        };
        let d3g = sp.time("core.lela", |_| match cfg.tree {
            TreeStrategy::Flat => D3g::flat(&workload),
            TreeStrategy::Lela => {
                let lela = LelaConfig {
                    coop_degree,
                    pref_band_pct: cfg.pref_band_pct,
                    pref_fn: cfg.pref_fn,
                    join_order: cfg.join_order,
                    seed: cfg.sub_seed("lela"),
                };
                build_d3g(&workload, &delays, &lela)
            }
        });
        let initial_values: Vec<f64> =
            traces.iter().map(|t| t.first().map_or(f64::NAN, |tick| tick.value)).collect();
        drop(black_box::<Vec<Trace>>(traces));
        let d3g_nodes = d3g.n_nodes();
        let micros = sp.time("core.delay_micros", |_| DelayMicros::from_delays(&delays, d3g_nodes));
        drop(black_box(micros));
        let disseminator = sp
            .time("core.disseminator", |_| Disseminator::new(cfg.protocol, &d3g, &initial_values));
        drop(black_box(disseminator));

        Replay { d3g, delays, overlay_nodes, d3g_nodes }
    })
}

impl Replay {
    /// Whether the replay built the same d3g and delay matrix as `p`,
    /// compared by report digest.
    pub fn matches(&self, p: &Prepared) -> bool {
        debug_hash(&self.d3g) == debug_hash(&p.d3g)
            && debug_hash(&self.delays) == debug_hash(&p.delays)
    }
}
