//! The paper-figure workloads: the Fig 7 (FTP) and Fig 6 + Fig 8 (Web,
//! Andrew) validation matrices.
//!
//! Each matrix is the shape the figure binaries run — every scenario ×
//! benchmark × trial as a live cell and a collect → encode → decode →
//! distill → modulate cell, plus the Ethernet rows — but every cell is
//! composed here from emu's public calls, so each call gets its own
//! span and every layer's counters can be read off the kept testbed.
//! All cell seeds derive from the workload seed.

use crate::sys::{derive, Digest};
use crate::trace::{self, span, Span};
use crate::{Fidelity, Pass};
use distill::{distill_with_report, DistillConfig};
use emu::{
    build_ethernet, build_wireless, collect_trace, install, measure_compensation,
    run_to_completion, Benchmark, CellKind, Comparison, Exec, PlanMetrics, RunConfig, RunResult,
    Testbed, TrialCell, TrialPlan,
};
use modulate::Modulator;
use netsim::stats::Summary;
use netsim::SimRng;
use netstack::TcpHandle;
use obs::RunManifest;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tracekit::format::{decode_trace, encode_trace};
use wavelan::Scenario;

/// Trials per (scenario, benchmark) side, as in the paper.
const TRIALS: u32 = 4;
/// TCP connection slots probed for retransmit counters per host. The
/// benchmarks keep at most a handful of connections open at once.
const TCP_SLOTS: u32 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Live,
    Modulated,
    Ethernet,
}

impl Kind {
    /// Root span name of a cell of this kind.
    fn span(self) -> &'static str {
        match self {
            Kind::Live => "cell.live",
            Kind::Modulated => "cell.modulated",
            Kind::Ethernet => "cell.ethernet",
        }
    }
}

struct CellSpec {
    label: String,
    kind: Kind,
    /// `None` for the Ethernet rows.
    scenario: Option<Scenario>,
    bench: Benchmark,
    trial: u32,
    seed: u64,
}

/// Deterministic per-cell counts read from the layers.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    events: u64,
    peak_queue: u64,
    wheel_overflow: u64,
    frames: u64,
    bytes: u64,
    retx_bytes: u64,
    rto_timeouts: u64,
    parse_errors: u64,
    mod_offered: u64,
    mod_held: u64,
    mod_dropped: u64,
    mod_deadline_misses: u64,
    mod_wheel_overflow: u64,
    mod_released: u64,
    /// |delay error| p95 (ms) of this cell's modulator.
    delay_err_p95_ms: f64,
    trace_records: u64,
    trace_bytes: u64,
    overruns: u64,
    distill_tuples: u64,
    manifest_bytes: u64,
    manifest_hash: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.peak_queue = self.peak_queue.max(o.peak_queue);
        self.wheel_overflow += o.wheel_overflow;
        self.frames += o.frames;
        self.bytes += o.bytes;
        self.retx_bytes += o.retx_bytes;
        self.rto_timeouts += o.rto_timeouts;
        self.parse_errors += o.parse_errors;
        self.mod_offered += o.mod_offered;
        self.mod_held += o.mod_held;
        self.mod_dropped += o.mod_dropped;
        self.mod_deadline_misses += o.mod_deadline_misses;
        self.mod_wheel_overflow += o.mod_wheel_overflow;
        self.mod_released += o.mod_released;
        self.trace_records += o.trace_records;
        self.trace_bytes += o.trace_bytes;
        self.overruns += o.overruns;
        self.distill_tuples += o.distill_tuples;
        self.manifest_bytes += o.manifest_bytes;
    }

    fn hash_into(&self, d: &mut Digest) {
        for v in [
            self.events,
            self.peak_queue,
            self.wheel_overflow,
            self.frames,
            self.bytes,
            self.retx_bytes,
            self.rto_timeouts,
            self.parse_errors,
            self.mod_offered,
            self.mod_held,
            self.mod_dropped,
            self.mod_deadline_misses,
            self.mod_wheel_overflow,
            self.mod_released,
            self.delay_err_p95_ms.to_bits(),
            self.trace_records,
            self.trace_bytes,
            self.overruns,
            self.distill_tuples,
            self.manifest_bytes,
            self.manifest_hash,
        ] {
            d.u64(v);
        }
    }
}

struct CellOut {
    result: RunResult,
    counts: Counts,
    /// The encoded trace decoded back to the collected one.
    roundtrip_ok: bool,
    spans: Vec<Span>,
}

/// A validation matrix, set up and ready to run passes over.
pub struct Matrix {
    cells: Arc<Vec<CellSpec>>,
    pairs: Vec<(String, Benchmark)>,
    cfg: RunConfig,
}

impl Matrix {
    /// Set-up: the paper's compensation measurement, the Web reference
    /// trace when the matrix runs Web, and the cell list with seeds.
    pub fn new(benches: [Benchmark; 2], seed: u64) -> Matrix {
        let cfg = RunConfig::default();
        // Measured, not applied, exactly as the figure binaries do.
        let comp = measure_compensation(&cfg);
        assert!(comp.is_finite(), "compensation measurement");
        if benches.contains(&Benchmark::Web) {
            let trace = workloads::search_task_trace(5, 48, emu::workload::WEB_TRACE_SEED);
            assert!(!trace.is_empty(), "Web reference trace");
        }
        let mut cells = Vec::new();
        let mut pairs = Vec::new();
        for (si, sc) in Scenario::all().into_iter().enumerate() {
            for (bi, &bench) in benches.iter().enumerate() {
                pairs.push((sc.name.to_string(), bench));
                for trial in 1..=TRIALS {
                    for (ki, kind) in [Kind::Live, Kind::Modulated].into_iter().enumerate() {
                        let tag = if kind == Kind::Live { "live" } else { "mod" };
                        cells.push(CellSpec {
                            label: format!("{}/{}/{tag}#{trial}", sc.name, bench.name()),
                            kind,
                            scenario: Some(sc.clone()),
                            bench,
                            trial,
                            seed: derive(seed, &[ki as u64, si as u64, bi as u64, trial.into()]),
                        });
                    }
                }
            }
        }
        for (bi, &bench) in benches.iter().enumerate() {
            for trial in 1..=TRIALS {
                cells.push(CellSpec {
                    label: format!("ethernet/{}#{trial}", bench.name()),
                    kind: Kind::Ethernet,
                    scenario: None,
                    bench,
                    trial,
                    seed: derive(seed, &[2, 0, bi as u64, trial.into()]),
                });
            }
        }
        Matrix {
            cells: Arc::new(cells),
            pairs,
            cfg,
        }
    }

    /// Run every cell once on `exec` and check and summarise the outputs.
    pub fn pass(&self, exec: &Exec) -> Pass {
        let n = self.cells.len();
        let slots: Arc<Vec<Mutex<Option<CellOut>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let started = Instant::now();
        let cpu0 = crate::sys::process_cpu();
        let mut plan = TrialPlan::new();
        for (i, spec) in self.cells.iter().enumerate() {
            let cells = Arc::clone(&self.cells);
            let slots = Arc::clone(&slots);
            plan.push(TrialCell {
                label: spec.label.clone(),
                trial: spec.trial,
                cfg: self.cfg,
                kind: CellKind::Custom(Box::new(move |_trial, cfg| {
                    let out = run_cell(&cells[i], i as u32, cfg);
                    let result = out.result.clone();
                    *slots[i].lock().expect("no cell panicked holding its slot") = Some(out);
                    vec![result]
                })),
            });
        }
        let results = plan.run(exec);
        let outs: Vec<CellOut> = slots
            .iter()
            .map(|s| {
                s.lock()
                    .expect("no cell panicked holding its slot")
                    .take()
                    .expect("every cell ran")
            })
            .collect();

        let mut digest = Digest::default();
        let mut total = Counts::default();
        let mut correct = true;
        let mut failed = 0;
        for (spec, out) in self.cells.iter().zip(&outs) {
            digest.bytes(spec.label.as_bytes());
            digest.secs(out.result.elapsed);
            for &(phase, secs) in &out.result.phases {
                digest.bytes(phase.name().as_bytes());
                digest.secs(Some(secs));
            }
            out.counts.hash_into(&mut digest);
            total.add(&out.counts);
            correct &= out.roundtrip_ok;
            failed += u64::from(out.result.elapsed.is_none());
        }
        let comparisons: Vec<Comparison> = self
            .pairs
            .iter()
            .map(|(sc, bench)| self.comparison(&outs, sc, *bench))
            .collect();
        let fidelity = Fidelity {
            divergence_sigma: Some(
                comparisons.iter().map(Comparison::sigma_ratio).sum::<f64>()
                    / comparisons.len() as f64,
            ),
            within_sigma_frac: Some(
                comparisons.iter().filter(|c| c.within_one_sigma()).count() as f64
                    / comparisons.len() as f64,
            ),
            delay_err_p95_ms: released_weighted_p95(&outs),
        };
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = (crate::sys::process_cpu() - cpu0).as_secs_f64();

        let (layers, account) = self.layers(&outs, &total, &results.metrics);
        Pass {
            wall_s,
            cpu_s,
            cell_ms: results
                .metrics
                .per_cell
                .iter()
                .map(|c| c.wall_secs * 1e3)
                .collect(),
            digest: digest.hex(),
            attempted: n as u64,
            failed,
            correct,
            fidelity,
            layers,
            spans: outs.into_iter().map(|o| o.spans).collect(),
            busy_s: results.metrics.cell_wall_secs,
            account,
        }
    }

    /// The paper's real-vs-modulated comparison for one row, through
    /// `emu::Comparison`. Deadline hits are counted, not summarised.
    fn comparison(&self, outs: &[CellOut], scenario: &str, bench: Benchmark) -> Comparison {
        let mut real = Summary::new();
        let mut modulated = Summary::new();
        let mut real_runs = Vec::new();
        let mut modulated_runs = Vec::new();
        let mut failed_runs = 0;
        for (spec, out) in self.cells.iter().zip(outs) {
            let row =
                spec.bench == bench && spec.scenario.as_ref().is_some_and(|s| s.name == scenario);
            if !row {
                continue;
            }
            let (summary, runs) = match spec.kind {
                Kind::Live => (&mut real, &mut real_runs),
                Kind::Modulated => (&mut modulated, &mut modulated_runs),
                Kind::Ethernet => continue,
            };
            match out.result.elapsed {
                Some(secs) => summary.add(secs),
                None => failed_runs += 1,
            }
            runs.push(out.result.clone());
        }
        Comparison {
            scenario: scenario.to_string(),
            benchmark: bench,
            real,
            modulated,
            phases: Vec::new(),
            real_runs,
            modulated_runs,
            failed_runs,
        }
    }

    /// Per-layer metrics of one pass and the self-time account of its
    /// busy time. Times come from the spans and are zero in an untraced
    /// pass; counts are always filled.
    fn layers(
        &self,
        outs: &[CellOut],
        c: &Counts,
        metrics: &PlanMetrics,
    ) -> (BTreeMap<&'static str, f64>, Vec<(String, f64)>) {
        let mut selfs: BTreeMap<&'static str, f64> = BTreeMap::new();
        for out in outs {
            trace::self_secs(&out.spans, &mut selfs);
        }
        let get = |k: &str| selfs.get(k).copied().unwrap_or(0.0);
        let mut kind_s = BTreeMap::new();
        for (spec, cell) in self.cells.iter().zip(&metrics.per_cell) {
            *kind_s.entry(spec.kind.span()).or_insert(0.0) += cell.wall_secs;
        }
        let kind = |k: Kind| kind_s.get(k.span()).copied().unwrap_or(0.0);
        let run_s = get("emu.run_to_completion");
        let per = |secs: f64, n: u64| if n > 0 { secs * 1e9 / n as f64 } else { 0.0 };
        let mut m = BTreeMap::new();
        m.insert("netstack.frames", c.frames as f64);
        m.insert("netstack.bytes", c.bytes as f64);
        m.insert("netstack.ns_per_frame", per(run_s, c.frames));
        m.insert("netstack.retx_bytes", c.retx_bytes as f64);
        m.insert("netstack.rto_timeouts", c.rto_timeouts as f64);
        m.insert("netstack.parse_errors", c.parse_errors as f64);
        m.insert("netsim.events", c.events as f64);
        m.insert("netsim.ns_per_event", per(run_s, c.events));
        m.insert("netsim.peak_queue", c.peak_queue as f64);
        m.insert("netsim.wheel_overflow", c.wheel_overflow as f64);
        m.insert("emu.collect_s", get("emu.collect_trace"));
        m.insert("emu.run_s", run_s);
        m.insert(
            "emu.build_s",
            get("emu.build_wireless") + get("emu.build_ethernet") + get("emu.install"),
        );
        m.insert("wavelan.channel_s", get("wavelan.channel"));
        m.insert("tracekit.records", c.trace_records as f64);
        m.insert("tracekit.bytes", c.trace_bytes as f64);
        m.insert("tracekit.encode_s", get("tracekit.encode"));
        m.insert("tracekit.decode_s", get("tracekit.decode"));
        m.insert("tracekit.overruns", c.overruns as f64);
        m.insert("distill.s", get("distill"));
        m.insert("distill.tuples", c.distill_tuples as f64);
        m.insert("modulate.setup_s", get("modulate.from_replay"));
        m.insert("modulate.offered", c.mod_offered as f64);
        m.insert("modulate.held", c.mod_held as f64);
        m.insert("modulate.dropped", c.mod_dropped as f64);
        m.insert("modulate.deadline_misses", c.mod_deadline_misses as f64);
        m.insert("modulate.wheel_overflow", c.mod_wheel_overflow as f64);
        m.insert("emu.live_s", kind(Kind::Live));
        m.insert("emu.modulated_s", kind(Kind::Modulated));
        m.insert("emu.ethernet_s", kind(Kind::Ethernet));
        m.insert("emu.cell_busy_s", metrics.cell_wall_secs);
        m.insert("emu.worker_util", metrics.worker_utilization());
        m.insert("obs.report_s", get("obs.manifest"));
        m.insert("obs.manifest_bytes", c.manifest_bytes as f64);
        let account = [
            "emu.run_s",
            "emu.build_s",
            "emu.collect_s",
            "wavelan.channel_s",
            "tracekit.encode_s",
            "tracekit.decode_s",
            "distill.s",
            "modulate.setup_s",
            "obs.report_s",
        ]
        .iter()
        .map(|&k| (k.to_string(), m[k]))
        .collect();
        (m, account)
    }
}

/// Released-weighted mean of the modulated cells' |delay error| p95 —
/// the statistic the fleet report computes over clients.
fn released_weighted_p95(outs: &[CellOut]) -> f64 {
    let (w, sum) = outs.iter().fold((0u64, 0.0), |(w, s), o| {
        let r = o.counts.mod_released;
        (w + r, s + o.counts.delay_err_p95_ms * r as f64)
    });
    if w > 0 {
        sum / w as f64
    } else {
        0.0
    }
}

fn run_cell(spec: &CellSpec, index: u32, cfg: &RunConfig) -> CellOut {
    trace::set_cell(index);
    let (result, counts, roundtrip_ok) = span(spec.kind.span(), || match spec.kind {
        Kind::Live => live(spec, cfg),
        Kind::Modulated => modulated(spec, cfg),
        Kind::Ethernet => ethernet(spec, cfg),
    });
    CellOut {
        result,
        counts,
        roundtrip_ok,
        spans: trace::take(),
    }
}

fn scenario(spec: &CellSpec) -> &Scenario {
    spec.scenario
        .as_ref()
        .expect("live and modulated cells carry a scenario")
}

fn live(spec: &CellSpec, cfg: &RunConfig) -> (RunResult, Counts, bool) {
    let mut rng = SimRng::seed_from_u64(derive(spec.seed, &[1]));
    let channel = span("wavelan.channel", || scenario(spec).channel(&mut rng));
    let (mut tb, inst) = span("emu.build_wireless", || {
        build_wireless(
            derive(spec.seed, &[2]),
            cfg.hw,
            channel,
            |laptop, server| span("emu.install", || install(spec.bench, laptop, server)),
        )
    });
    let result = span("emu.run_to_completion", || {
        run_to_completion(&mut tb, &inst)
    });
    let mut counts = Counts::default();
    testbed_counts(&tb, &mut counts);
    (result, counts, true)
}

fn modulated(spec: &CellSpec, cfg: &RunConfig) -> (RunResult, Counts, bool) {
    let sc = scenario(spec);
    let mut counts = Counts::default();
    // collect_trace derives its seeds from the trial number, so the
    // cell seed reaches it through a derived trial.
    let collect_trial = derive(spec.seed, &[3]) as u32;
    let collected = span("emu.collect_trace", || {
        collect_trace(sc, collect_trial, cfg)
    });
    counts.trace_records = collected.records.len() as u64;
    counts.overruns = collected.lost_records();
    let bytes = span("tracekit.encode", || encode_trace(&collected));
    counts.trace_bytes = bytes.len() as u64;
    let decoded = span("tracekit.decode", || decode_trace(&bytes));
    let roundtrip_ok = decoded.as_ref().is_ok_and(|t| *t == collected);
    let trace = decoded.unwrap_or(collected);
    let report = span("distill", || {
        distill_with_report(&trace, &DistillConfig::default())
    });
    counts.distill_tuples = report.replay.tuples.len() as u64;
    let modulator = span("modulate.from_replay", || {
        Modulator::from_replay(report.replay).with_clock(cfg.clock)
    });
    let (mut tb, inst) = span("emu.build_ethernet", || {
        build_ethernet(derive(spec.seed, &[2]), cfg.hw, |laptop, server| {
            laptop.set_shim(Box::new(modulator));
            span("emu.install", || install(spec.bench, laptop, server))
        })
    });
    let result = span("emu.run_to_completion", || {
        run_to_completion(&mut tb, &inst)
    });
    testbed_counts(&tb, &mut counts);

    let m = tb.laptop_host().shim::<Modulator>();
    let stats = m.stats();
    let fidelity = m.fidelity();
    counts.mod_offered = stats.offered;
    counts.mod_held = stats.held;
    counts.mod_dropped = stats.dropped;
    counts.mod_deadline_misses = fidelity.deadline_misses;
    counts.mod_released = fidelity.released_packets;
    counts.delay_err_p95_ms = fidelity.abs_delay_error_p95_ms;
    counts.mod_wheel_overflow = m.sched_stats().overflow_pushes;
    let json = span("obs.manifest", || {
        let mut man = RunManifest::new(sc.name, spec.bench.name(), spec.trial);
        man.fidelity = fidelity;
        let mm = &mut man.metrics;
        mm.set_counter("modulate.offered", stats.offered);
        mm.set_counter("modulate.immediate", stats.immediate);
        mm.set_counter("modulate.held", stats.held);
        mm.set_counter("modulate.dropped", stats.dropped);
        mm.set_counter("modulate.unmodulated", stats.unmodulated);
        man.deterministic_json()
    });
    counts.manifest_bytes = json.len() as u64;
    let mut d = Digest::default();
    d.bytes(json.as_bytes());
    counts.manifest_hash = d.value();
    (result, counts, roundtrip_ok)
}

fn ethernet(spec: &CellSpec, cfg: &RunConfig) -> (RunResult, Counts, bool) {
    let (mut tb, inst) = span("emu.build_ethernet", || {
        build_ethernet(derive(spec.seed, &[2]), cfg.hw, |laptop, server| {
            span("emu.install", || install(spec.bench, laptop, server))
        })
    });
    let result = span("emu.run_to_completion", || {
        run_to_completion(&mut tb, &inst)
    });
    let mut counts = Counts::default();
    testbed_counts(&tb, &mut counts);
    (result, counts, true)
}

/// Engine and host-stack counters of a finished testbed.
fn testbed_counts(tb: &Testbed, c: &mut Counts) {
    c.events += tb.sim.events_processed();
    c.peak_queue = c.peak_queue.max(tb.sim.peak_queue_depth() as u64);
    c.wheel_overflow += tb.sim.queue_stats().overflow_pushes;
    for host in [tb.laptop_host(), tb.server_host()] {
        let s = host.core().stats();
        c.frames += s.frames_in + s.frames_out;
        c.bytes += s.bytes_in + s.bytes_out;
        c.parse_errors += s.parse_errors;
        // Connections still open when the run ends; fully closed ones
        // are reaped by the engine and take their counters with them.
        for slot in 0..TCP_SLOTS {
            if let Some(conn) = host.core().tcp().conn(TcpHandle(slot)) {
                c.retx_bytes += conn.retransmitted_bytes;
                c.rto_timeouts += conn.timeouts;
            }
        }
    }
}
