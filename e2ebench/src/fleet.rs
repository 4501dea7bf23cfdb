//! The fleet workload: 10 000 clients over the full Porter walk, eight
//! shards on two workers, through `emu::fleet_run`.
//!
//! The shards are opaque from outside, so the traced pass turns on the
//! fleet's own self-profiler (`FleetPlan::with_profile`) and attributes
//! shard time from its spans.

use crate::sys::{derive, Digest};
use crate::trace::{self, span};
use crate::{Fidelity, Pass};
use emu::{fleet_run, measure_compensation, Exec, FleetPlan, RunConfig};
use std::collections::BTreeMap;
use std::time::Instant;
use wavelan::Scenario;

const CLIENTS: u32 = 10_000;
/// Four shards per worker, so the pool balances load when one core is
/// slowed; with one shard per worker a stalled core stalls its whole
/// half of the fleet. Outputs are identical at any shard count.
const SHARDS: usize = 8;

pub struct Fleet {
    plan: FleetPlan,
}

impl Fleet {
    /// Set-up: the compensation measurement every modulation workload
    /// starts from, and the plan.
    pub fn new(seed: u64) -> Fleet {
        let comp = measure_compensation(&RunConfig::default());
        assert!(comp.is_finite(), "compensation measurement");
        let plan = FleetPlan::new(Scenario::porter(), CLIENTS)
            .with_seed(derive(seed, &[0xF1EE7]))
            .with_shards(SHARDS);
        Fleet { plan }
    }

    pub fn pass(&self, exec: &Exec) -> Pass {
        let plan = self.plan.clone().with_profile(trace::enabled());
        let started = Instant::now();
        let cpu0 = crate::sys::process_cpu();
        let out = span("emu.fleet_run", || fleet_run(&plan, exec));
        let (digest, manifest_bytes) = span("obs.report", || {
            let mut d = Digest::default();
            d.bytes(out.report.deterministic_json().as_bytes());
            let mut bytes = 0;
            for m in &out.manifests {
                let json = m.deterministic_json();
                bytes += json.len() as u64;
                d.bytes(json.as_bytes());
            }
            (d, bytes)
        });
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = (crate::sys::process_cpu() - cpu0).as_secs_f64();
        let spans = trace::take();

        let r = &out.report;
        let correct = out.manifests.len() == CLIENTS as usize
            && r.clients == CLIENTS
            && r.released_packets > 0;
        let runner = r
            .runner
            .as_ref()
            .expect("fleet_run fills the runner section");
        let cell_busy_s = runner.worker_utilization * runner.workers as f64 * runner.wall_secs;

        let counter = |name: &str| -> f64 {
            out.manifests
                .iter()
                .map(|m| m.metrics.counter(name).unwrap_or(0))
                .sum::<u64>() as f64
        };
        let mut prof: BTreeMap<&str, f64> = BTreeMap::new();
        let mut account = Vec::new();
        if let Some(p) = &out.profile {
            for (stack, e) in p.entries() {
                let leaf = stack.rsplit(';').next().unwrap_or(stack);
                *prof.entry(leaf).or_default() += e.wall_ns as f64 / 1e9;
                account.push((format!("fleet profile {stack}"), e.wall_ns as f64 / 1e9));
            }
        }
        let prof_total: f64 = prof.values().sum();
        let pget = |k: &str| prof.get(k).copied().unwrap_or(0.0);
        let share = |k: &str| {
            if prof_total > 0.0 {
                pget(k) / prof_total
            } else {
                0.0
            }
        };
        let mut selfs = BTreeMap::new();
        trace::self_secs(&spans, &mut selfs);
        let sget = |k: &str| selfs.get(k).copied().unwrap_or(0.0);
        let events = r.metrics.counter("fleet.engine_events").unwrap_or(0);
        let engine_s = pget("run") + pget("probe") + pget("mod_wake") + pget("return");

        let merge_s = sget("emu.fleet_run") - runner.wall_secs;
        let report_s = sget("obs.report");
        account.push(("emu.fleet_merge_s".to_string(), merge_s));
        account.push(("obs.report_s".to_string(), report_s));

        let mut m = BTreeMap::new();
        m.insert("netsim.events", events as f64);
        m.insert(
            "netsim.ns_per_event",
            if events > 0 {
                engine_s * 1e9 / events as f64
            } else {
                0.0
            },
        );
        m.insert("netsim.peak_queue", out.peak_queue_depth as f64);
        m.insert("netsim.peak_packets_live", out.peak_packets_live as f64);
        // Shard set-up is per-client channel synthesis plus modulator
        // construction; the channel models dominate it.
        m.insert("wavelan.channel_s", pget("setup"));
        m.insert("modulate.offered", counter("modulate.offered"));
        m.insert("modulate.held", counter("modulate.held"));
        m.insert("modulate.dropped", r.dropped_packets as f64);
        m.insert("modulate.deadline_misses", r.deadline_misses as f64);
        m.insert(
            "modulate.wheel_overflow",
            counter("modulate.sched.overflow_pushes"),
        );
        m.insert("emu.fleet_mod_wake_share", share("mod_wake"));
        m.insert("emu.fleet_probe_share", share("probe"));
        m.insert("emu.fleet_finalize_share", share("finalize"));
        m.insert("emu.fleet_shard_s", prof_total);
        m.insert("emu.fleet_merge_s", merge_s);
        m.insert("emu.cell_busy_s", cell_busy_s);
        m.insert("emu.worker_util", runner.worker_utilization);
        m.insert("obs.report_s", report_s);
        m.insert("obs.manifest_bytes", manifest_bytes as f64);

        Pass {
            wall_s,
            cpu_s,
            cell_ms: Vec::new(),
            digest: digest.hex(),
            attempted: u64::from(r.clients),
            failed: u64::from(r.failed_clients + r.degraded_clients),
            correct,
            fidelity: Fidelity {
                divergence_sigma: None,
                within_sigma_frac: None,
                delay_err_p95_ms: r.mean_abs_delay_error_p95_ms,
            },
            layers: m,
            spans: vec![spans],
            busy_s: cell_busy_s + merge_s + report_s,
            account,
        }
    }
}
