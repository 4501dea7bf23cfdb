//! End-to-end benchmark of the trace-modulation workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <paper_bulk|paper_interactive|fleet_porter_10k> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a batch of simulated closed-loop clients run on
//! `Exec::with_workers(2)`; see `expected.json` for why each was chosen.
//!
//! * `--trace 0` runs whole passes until `--seconds` have gone by, each
//!   on a freshly set-up workload, and reports the median pass; the
//!   set-ups before each pass are timed and `setup_s` is their median.
//! * `--trace 1` runs untraced and traced passes in turn (the traced
//!   ones record a span around every layer call, written to
//!   `e2ebench/out/`), then one pass on a single worker, and reports
//!   the last traced pass's per-layer metrics, how its busy time splits
//!   into layer self times, and the tracing overhead.
//!
//! Both modes hash the simulated outputs of every pass into a digest:
//! passes of one run must agree, the single-worker pass must agree with
//! the two-worker ones, and at the default seed the digest must equal
//! the one recorded in `expected.json`. The last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; the lines before it print every metric by name and unit.

mod fleet;
mod paper;
mod sys;
mod trace;

use emu::{Benchmark, Exec};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Worker threads every pass runs on (the machine's core count).
const WORKERS: usize = 2;
/// Set-ups timed before each timed pass; `setup_s` is the median over
/// the run, so it samples the whole run rather than its first moments.
const SETUP_REPS: usize = 5;
/// The timed phase runs at least this many passes.
const MIN_PASSES: usize = 2;
/// Untraced/traced pass pairs in a traced run.
const TRACE_PAIRS: usize = 2;

const WORKLOADS: [&str; 3] = ["paper_bulk", "paper_interactive", "fleet_porter_10k"];

/// Gated end-to-end metrics (name, unit), in output order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (name, unit) of the traced run, in output order.
const PER_LAYER: [(&str, &str); 47] = [
    ("netstack.frames", "count"),
    ("netstack.bytes", "B"),
    ("netstack.ns_per_frame", "ns"),
    ("netstack.retx_bytes", "B"),
    ("netstack.rto_timeouts", "count"),
    ("netstack.parse_errors", "count"),
    ("netsim.events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.peak_queue", "count"),
    ("netsim.wheel_overflow", "count"),
    ("netsim.peak_packets_live", "count"),
    ("emu.run_s", "s"),
    ("emu.build_s", "s"),
    ("emu.collect_s", "s"),
    ("wavelan.channel_s", "s"),
    ("tracekit.records", "count"),
    ("tracekit.bytes", "B"),
    ("tracekit.encode_s", "s"),
    ("tracekit.decode_s", "s"),
    ("tracekit.overruns", "count"),
    ("distill.s", "s"),
    ("distill.tuples", "count"),
    ("modulate.setup_s", "s"),
    ("modulate.offered", "count"),
    ("modulate.held", "count"),
    ("modulate.dropped", "count"),
    ("modulate.deadline_misses", "count"),
    ("modulate.wheel_overflow", "count"),
    ("modulate.delay_err_p95_ms", "ms"),
    ("emu.fleet_shard_s", "s"),
    ("emu.fleet_mod_wake_share", "ratio"),
    ("emu.fleet_probe_share", "ratio"),
    ("emu.fleet_finalize_share", "ratio"),
    ("emu.fleet_merge_s", "s"),
    ("emu.live_s", "s"),
    ("emu.modulated_s", "s"),
    ("emu.ethernet_s", "s"),
    ("emu.cell_busy_s", "s"),
    ("emu.worker_util", "ratio"),
    ("emu.unattributed_s", "s"),
    ("obs.report_s", "s"),
    ("obs.manifest_bytes", "B"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("cell_p50_ms", "ms"),
    ("cell_p85_ms", "ms"),
    ("fail_rate", "ratio"),
];

/// Simulated-fidelity summary of one pass (deterministic per seed).
pub struct Fidelity {
    /// Mean |Δmean| / (σ_real + σ_mod) over the comparisons.
    pub divergence_sigma: Option<f64>,
    /// Share of comparisons within σ_real + σ_mod.
    pub within_sigma_frac: Option<f64>,
    /// Released-weighted mean of per-modulator |delay error| p95.
    pub delay_err_p95_ms: f64,
}

/// Everything one pass over a workload produced.
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Per-cell wall times (paper workloads only).
    pub cell_ms: Vec<f64>,
    pub digest: String,
    pub attempted: u64,
    pub failed: u64,
    /// The pass's own output checks held.
    pub correct: bool,
    pub fidelity: Fidelity,
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Vec<Vec<trace::Span>>,
    /// Busy time of the traced pass: cell time, plus main-thread work
    /// outside the plan where a workload has any.
    pub busy_s: f64,
    /// Self time per layer call; `busy_s` minus their sum is
    /// `emu.unattributed_s`.
    pub account: Vec<(String, f64)>,
}

enum Workload {
    Paper(paper::Matrix),
    Fleet(Box<fleet::Fleet>),
}

impl Workload {
    fn setup(name: &str, seed: u64) -> Workload {
        match name {
            "paper_bulk" => Workload::Paper(paper::Matrix::new(
                [Benchmark::FtpSend, Benchmark::FtpRecv],
                seed,
            )),
            "paper_interactive" => Workload::Paper(paper::Matrix::new(
                [Benchmark::Web, Benchmark::Andrew],
                seed,
            )),
            "fleet_porter_10k" => Workload::Fleet(Box::new(fleet::Fleet::new(seed))),
            other => unreachable!("workload {other} was validated"),
        }
    }

    fn pass(&self, workers: usize) -> Pass {
        let exec = Exec::with_workers(workers);
        match self {
            Workload::Paper(m) => m.pass(&exec),
            Workload::Fleet(f) => f.pass(&exec),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload '{value}' (one of {WORKLOADS:?})"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| bad("a whole number ≥ 1"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The output digest recorded in `expected.json` for (seed, workload),
/// if that seed has one.
fn recorded_digest(seed: u64, workload: &str) -> Option<String> {
    let v: serde::Value = serde_json::from_str(include_str!("../expected.json"))
        .expect("expected.json is valid JSON");
    let get = |v: &serde::Value, k: &str| -> Option<serde::Value> {
        v.as_object()?
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| v.clone())
    };
    let digests = get(&v, "digests").expect("expected.json records digests");
    match get(&get(&digests, &seed.to_string())?, workload)? {
        serde::Value::Str(s) => Some(s),
        other => panic!("digest of {workload} at seed {seed} is a string, got {other:?}"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} workers {WORKERS} (available parallelism {})",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut checks = Checks::default();
    let (passes, metrics) = if args.trace {
        traced(
            &Workload::setup(&args.workload, args.seed),
            &args,
            &mut checks,
        )
    } else {
        timed(&args)
    };
    let first = &passes[0];
    for p in &passes {
        checks.require(p.correct, "a pass's own output checks");
        checks.require(p.digest == first.digest, "digest equal across passes");
    }
    if let Some(want) = recorded_digest(args.seed, &args.workload) {
        checks.require(
            want == first.digest,
            "digest equal to the one recorded for this seed",
        );
    }
    println!("digest {} over {} passes", first.digest, passes.len());
    for failure in &checks.failed {
        println!("CHECK FAILED: {failure}");
    }

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        checks.failed.is_empty(),
        metrics_json.join(", ")
    );
}

#[derive(Default)]
struct Checks {
    failed: Vec<&'static str>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: &'static str) {
        if !ok && !self.failed.contains(&what) {
            self.failed.push(what);
        }
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

/// Untraced timed phase: passes until `--seconds` have gone by.
fn timed(args: &Args) -> (Vec<Pass>, Metrics) {
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed() < budget {
        let mut work = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            work = Some(Workload::setup(&args.workload, args.seed));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        passes.push(work.expect("at least one set-up").pass(WORKERS));
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let p = &passes[0];
    let values = [
        sys::median(&setup_s),
        sys::median(&walls),
        sys::median(&cpus),
        sys::peak_rss_mb(),
    ];
    let metrics: Metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    for (name, unit, v) in &metrics {
        println!("{name:<18} {v:>14.6} {unit}");
    }
    let cells: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_ms.iter().copied())
        .collect();
    if cells.is_empty() {
        println!("cell_p50_ms        n/a (the fleet's shards are not exposed as cells)");
        println!("cell_p85_ms        n/a");
    } else {
        println!(
            "cell_p50_ms        {:>14.6} ms (n = {})",
            sys::median(&cells),
            cells.len()
        );
        println!(
            "cell_p85_ms        {:>14.6} ms (n = {})",
            sys::percentile(&cells, 85.0),
            cells.len()
        );
    }
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    println!(
        "fail_rate          {:>14.6} ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    println!(
        "delay_err_p95_ms   {:>14.6} ms",
        p.fidelity.delay_err_p95_ms
    );
    print_opt("divergence_sigma", p.fidelity.divergence_sigma, "σ");
    print_opt("within_sigma_frac", p.fidelity.within_sigma_frac, "ratio");
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "passes             {:>14} over {:.3} s: wall [{}] s, cpu [{}] s",
        passes.len(),
        started.elapsed().as_secs_f64(),
        list(&walls),
        list(&cpus)
    );
    (passes, metrics)
}

fn print_opt(name: &str, v: Option<f64>, unit: &str) {
    match v {
        Some(v) => println!("{name:<18} {v:>14.6} {unit}"),
        None => println!("{name:<18} n/a (no live-vs-modulated comparisons)"),
    }
}

/// Traced run: untraced and traced passes in turn, then one pass on a
/// single worker whose digest must match.
fn traced(work: &Workload, args: &Args, checks: &mut Checks) -> (Vec<Pass>, Metrics) {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..TRACE_PAIRS {
        untraced.push(work.pass(WORKERS));
        trace::set_enabled(true);
        traced.push(work.pass(WORKERS));
        trace::set_enabled(false);
    }
    let serial = work.pass(1);
    checks.require(
        serial.digest == untraced[0].digest,
        "digest equal at 1 and 2 workers",
    );
    let median_wall = |ps: &[Pass]| sys::median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let (untraced_wall, traced_wall) = (median_wall(&untraced), median_wall(&traced));
    let mut tr = traced.pop().expect("at least one traced pass");
    let untraced_last = untraced.last().expect("at least one untraced pass");

    let spans = std::mem::take(&mut tr.spans);
    let n_spans: usize = spans.iter().map(Vec::len).sum();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-{}.jsonl", args.workload, args.seed);
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, trace::to_jsonl(&spans)))
    {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => println!("spans not written to {path}: {e}"),
    }

    let mut layers = std::mem::take(&mut tr.layers);
    let unattributed = tr.busy_s - tr.account.iter().map(|(_, v)| v).sum::<f64>();
    layers.insert("emu.unattributed_s", unattributed);
    layers.insert("trace.overhead", traced_wall / untraced_wall);
    layers.insert("trace.spans", n_spans as f64);
    layers.insert("modulate.delay_err_p95_ms", tr.fidelity.delay_err_p95_ms);
    let cells = &untraced_last.cell_ms;
    let (p50, p85) = if cells.is_empty() {
        (0.0, 0.0)
    } else {
        (sys::median(cells), sys::percentile(cells, 85.0))
    };
    layers.insert("cell_p50_ms", p50);
    layers.insert("cell_p85_ms", p85);
    layers.insert(
        "fail_rate",
        untraced_last.failed as f64 / untraced_last.attempted as f64,
    );

    println!(
        "busy time {:.6} s in the traced pass, by self time:",
        tr.busy_s
    );
    for (name, v) in tr
        .account
        .iter()
        .chain([&("unattributed".to_string(), unattributed)])
    {
        println!("  {name:<34} {v:>12.6} s {:>6.2}%", 100.0 * v / tr.busy_s);
    }
    // A layer the workload never calls reports 0.
    let metrics: Metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
        .collect();
    for (name, unit, v) in &metrics {
        println!("{name:<26} {v:>16.6} {unit}");
    }
    println!(
        "median wall: untraced {:.6} s, traced {:.6} s; single-worker pass {:.6} s",
        untraced_wall, traced_wall, serial.wall_s
    );
    untraced.extend(traced);
    untraced.push(tr);
    untraced.push(serial);
    (untraced, metrics)
}
