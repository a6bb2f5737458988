//! `d3tbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! d3tbench --workload <anchor|fig3_sweep|whatif_faults> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, repeats whole
//! iterations for `--seconds`, checks every report against its
//! reference digest outside the timed loop, and prints one
//! `# metric …` line per metric followed by a final JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` iterations
//! alternate untraced and traced, and the metrics are the per-layer
//! ones read from the traced iterations' spans and counters. Exits 1
//! when any operation fails its check, 2 on bad arguments.

mod clock;
mod drive;
mod scenarios;
mod spans;
mod stages;
mod stats;
mod workloads;

use std::collections::BTreeMap;

use clock::Clock;
use workloads::{Inputs, Iteration, Kind, Op, Setup};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Fewest iterations of each kind a run makes, however short `--seconds`.
const MIN_ITERATIONS: usize = 3;

/// One iteration plus the host measurements taken around it.
struct Sample {
    traced: bool,
    wall_s: f64,
    cpu_s: f64,
    /// Peak resident set during the iteration.
    peak_rss_mb: f64,
    it: Iteration,
    /// The set-up replay made after a traced iteration.
    setup: Option<Setup>,
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("d3tbench: {e}");
            eprintln!(
                "usage: d3tbench --workload <anchor|fig3_sweep|whatif_faults> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("d3tbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the benchmark; `Ok(false)` when an operation failed its check.
fn run(args: &Args) -> Result<bool, String> {
    let clock = Clock::start();
    let inputs = Inputs::generate(args.kind, args.seed);
    let pool_threads = rayon::current_num_threads();
    println!(
        "# d3tbench workload={} seed={} seconds={} trace={} nproc={} pool_threads={} \
         commit={} profile={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        clock::nproc(),
        pool_threads,
        clock::git_commit(),
        clock::build_profile(),
    );

    // One untimed iteration first, so page faults, allocator growth and
    // lazy set-up land outside the samples; its reports are still checked.
    let mut checked: Vec<Vec<Op>> = vec![workloads::iterate(&inputs, clock, false).take_ops()];
    let mut samples: Vec<Sample> = Vec::new();
    let start = clock.now_s();
    loop {
        let traced = args.trace && samples.len() % 2 == 1;
        clock::reset_peak_rss()?;
        let cpu0 = clock::process_cpu_s()?;
        let t0 = clock.now_s();
        let mut it = workloads::iterate(&inputs, clock, traced);
        let wall_s = clock.now_s() - t0;
        let cpu_s = clock::process_cpu_s()? - cpu0;
        let peak_rss_mb = clock::peak_rss_mb()?;
        checked.push(it.take_ops());
        let setup = traced.then(|| workloads::replay_setup(&inputs, clock));
        samples.push(Sample { traced, wall_s, cpu_s, peak_rss_mb, it, setup });
        let done = |traced: bool| samples.iter().filter(|s| s.traced == traced).count();
        let enough = done(false) >= MIN_ITERATIONS && (!args.trace || done(true) >= MIN_ITERATIONS);
        if enough && clock.now_s() - start >= args.seconds {
            break;
        }
    }
    let refs = workloads::references(&inputs);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut fail = |what: String| {
        failed += 1;
        eprintln!("d3tbench: {what}");
    };
    for (i, ops) in checked.iter().enumerate() {
        for (k, (op, reference)) in ops.iter().zip(&refs).enumerate() {
            attempted += 1;
            let why = match (op, reference) {
                (Err(e), _) => Some(e.clone()),
                (_, Err(e)) => Some(format!("reference failed: {e}")),
                (Ok((_, loss)), _) if !(0.0..=100.0).contains(loss) => {
                    Some(format!("loss_pct {loss} outside [0, 100]"))
                }
                (Ok((digest, _)), Ok(want)) if digest != want => {
                    Some(format!("digest {digest:#018x} != reference {want:#018x}"))
                }
                _ => None,
            };
            if let Some(why) = why {
                fail(format!("iteration {i} (0 = warm-up) op {k} failed: {why}"));
            }
        }
    }
    for setup in samples.iter().filter_map(|s| s.setup.as_ref()) {
        for check in &setup.checks {
            attempted += 1;
            if let Err(why) = check {
                fail(format!("set-up replay failed: {why}"));
            }
        }
    }

    let untraced: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
    let end_to_end = end_to_end_metrics(&untraced);
    // Zero on every correct run, so it carries no relative bound; the
    // JSON line reports it as `failed` / `attempted`.
    let error_rate = failed as f64 / attempted.max(1) as f64;
    print_metric(args.kind, &Metric::median("error_rate", "fraction", vec![error_rate]));
    let metrics = if args.trace {
        for m in &end_to_end {
            print_metric(args.kind, m);
        }
        write_spans(args, &traced)?;
        per_layer_metrics(&traced, &untraced, pool_threads)
    } else {
        end_to_end
    };
    for m in &metrics {
        print_metric(args.kind, m);
    }

    let correct = failed == 0;
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            // A failed run can leave a 0/0; JSON has no NaN.
            let value = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(correct)
}

/// One named metric: its value (the median of its samples, except
/// `cpu_s`, a mean), and the samples it came from.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

impl Metric {
    fn median(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric { name, unit, value: stats::median(&samples), samples }
    }
}

fn print_metric(kind: Kind, m: &Metric) {
    let tail = match stats::tail(&m.samples) {
        Some((q, v)) => format!("p{q}={v}"),
        None => "p=none".into(),
    };
    println!(
        "# metric workload={} name={} unit={} value={} median={} {tail} n={}",
        kind.name(),
        m.name,
        m.unit,
        m.value,
        stats::median(&m.samples),
        m.samples.len()
    );
}

fn end_to_end_metrics(untraced: &[&Sample]) -> Vec<Metric> {
    let col = |f: &dyn Fn(&Sample) -> f64| untraced.iter().map(|s| f(s)).collect::<Vec<f64>>();
    vec![
        Metric::median("wall_s", "s", col(&|s| s.wall_s)),
        Metric::median("setup_s", "s", col(&|s| s.it.setup_s)),
        Metric::median(
            "drain_events_per_s",
            "events/s",
            col(&|s| s.it.layers.events as f64 / s.it.drive_s),
        ),
        // `/proc` CPU time ticks at 10 ms, too coarse for a median of
        // per-iteration readings; the mean over the run keeps every tick.
        Metric {
            value: col(&|s| s.cpu_s).iter().sum::<f64>() / untraced.len() as f64,
            ..Metric::median("cpu_s", "s", col(&|s| s.cpu_s))
        },
        Metric::median("peak_rss_mb", "MB", col(&|s| s.peak_rss_mb)),
    ]
}

/// Names of the per-layer metrics, their units, and how each is read
/// from one traced iteration.
fn per_layer_metrics(traced: &[&Sample], untraced: &[&Sample], pool_threads: usize) -> Vec<Metric> {
    let rows: Vec<BTreeMap<&'static str, (&'static str, f64)>> =
        traced.iter().map(|s| layer_row(s, pool_threads)).collect();
    let mut out = Vec::new();
    if let Some(first) = rows.first() {
        for (&name, &(unit, _)) in first {
            let samples = rows.iter().map(|r| r[name].1).collect();
            out.push(Metric::median(name, unit, samples));
        }
    }
    // Traced against untraced wall, both from this process.
    let traced_wall = stats::median(&traced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let untraced_wall = stats::median(&untraced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let overhead = 100.0 * (traced_wall - untraced_wall) / untraced_wall;
    out.push(Metric::median("trace_overhead_pct", "%", vec![overhead]));
    out
}

/// One traced iteration's per-layer values. Set-up stages (`net`,
/// `traces`, `core` build) come from the replay made after the
/// iteration; everything else from the iteration's own spans and
/// counters. Times are self times summed over the iteration, across
/// threads where a sweep runs cells in parallel.
fn layer_row(s: &Sample, pool_threads: usize) -> BTreeMap<&'static str, (&'static str, f64)> {
    let sp = &s.it.spans;
    let own = sp.self_ms_by_name();
    let ms = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let (stage, overlay_nodes, d3g_nodes) = match &s.setup {
        Some(setup) => (setup.spans.self_ms_by_name(), setup.overlay_nodes, setup.d3g_nodes),
        None => (BTreeMap::new(), 0, 0),
    };
    let stage_ms = |name: &str| stage.get(name).copied().unwrap_or(0.0);
    let l = &s.it.layers;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let cells = sp.durations_ms("experiments.cell");
    let sweep_ms = sp.total_ms("experiments.sweep");
    let threads = if cells.is_empty() { 0 } else { pool_threads.min(cells.len()) };
    let fanout = if sweep_ms > 0.0 && threads > 0 {
        cells.iter().sum::<f64>() / (threads as f64 * sweep_ms)
    } else {
        0.0
    };
    let max = cells.iter().copied().fold(0.0, f64::max);
    let p50 = if cells.is_empty() { 0.0 } else { stats::median(&cells) };
    let count = |v: u64| ("count", v as f64);
    BTreeMap::from([
        ("net.topology_ms", ("ms", stage_ms("net.topology"))),
        ("net.apsp_ms", ("ms", stage_ms("net.apsp"))),
        ("net.overlay_nodes", count(overlay_nodes)),
        ("net.apsp_bytes", ("bytes", (overlay_nodes * overlay_nodes * 12) as f64)),
        ("traces.generate_ms", ("ms", stage_ms("traces.generate"))),
        ("traces.changes", count(l.changes)),
        ("core.workload_ms", ("ms", stage_ms("core.workload"))),
        ("core.lela_ms", ("ms", stage_ms("core.lela"))),
        ("core.delay_matrix_ms", ("ms", stage_ms("core.delay_matrix"))),
        ("core.delay_micros_ms", ("ms", stage_ms("core.delay_micros"))),
        ("core.delay_micros_bytes", ("bytes", (d3g_nodes * d3g_nodes * 4) as f64)),
        ("core.disseminator_ms", ("ms", stage_ms("core.disseminator"))),
        ("core.checks", count(l.checks)),
        ("core.messages", count(l.messages)),
        ("core.send_ratio", ("ratio", ratio(l.messages, l.checks))),
        ("core.process_cycles_per_event", ("cycles/event", ratio(l.process_cycles, l.events))),
        ("core.fidelity_cycles_per_event", ("cycles/event", ratio(l.fidelity_cycles, l.events))),
        ("sim.build_ms", ("ms", ms("sim.build"))),
        ("sim.session_setup_ms", ("ms", ms("sim.session_setup"))),
        ("sim.drain_ms", ("ms", ms("sim.drain"))),
        ("sim.events", count(l.events)),
        ("sim.queue_ops", count(l.queue_ops)),
        ("sim.queue_cycles_per_event", ("cycles/event", ratio(l.queue_cycles, l.events))),
        ("sim.transmit_cycles_per_event", ("cycles/event", ratio(l.transmit_cycles, l.events))),
        ("sim.batch_runs", count(l.batch_runs)),
        ("sim.max_pending", count(l.max_pending)),
        ("sim.report_ms", ("ms", ms("sim.report"))),
        ("sim.teardown_ms", ("ms", ms("sim.teardown"))),
        ("sim.snapshot_capture_ms", ("ms", ms("sim.snapshot_capture"))),
        ("sim.snapshot_bytes", ("bytes", l.snapshot_bytes as f64)),
        ("sim.restore_ms", ("ms", ms("sim.restore"))),
        ("sim.lost", count(l.lost)),
        ("sim.retransmits", count(l.retransmits)),
        ("sim.reparented", count(l.reparented)),
        ("sim.delivered_ratio", ("ratio", ratio(l.deliveries, l.sends))),
        ("experiments.cells", count(cells.len() as u64)),
        ("experiments.threads", count(threads as u64)),
        ("experiments.fanout_efficiency", ("ratio", fanout)),
        ("experiments.cell_ms_p50", ("ms", p50)),
        ("experiments.cell_ms_max", ("ms", max)),
        ("unattributed_ms", ("ms", s.wall_s * 1e3 - sp.top_level_ms())),
    ])
}

/// Writes every traced iteration's spans and those of the set-up replay
/// made after it, one JSON object per line, under `d3tbench/out/`,
/// headed by the run's metadata.
fn write_spans(args: &Args, traced: &[&Sample]) -> Result<(), String> {
    let dir = std::path::Path::new("d3tbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.kind.name(), args.seed));
    let mut out = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"pool_threads\":{},\"commit\":\"{}\",\
         \"profile\":\"{}\"}}\n",
        args.kind.name(),
        args.seed,
        clock::nproc(),
        rayon::current_num_threads(),
        clock::git_commit(),
        clock::build_profile(),
    );
    for (i, s) in traced.iter().enumerate() {
        s.it.spans.write_jsonl(i, "iteration", &mut out);
        if let Some(setup) = &s.setup {
            setup.spans.write_jsonl(i, "setup_replay", &mut out);
        }
    }
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(())
}
