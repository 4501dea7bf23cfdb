//! Golden files for the JSON wire format of fleet artifacts.
//!
//! The files were generated before JSON output became streaming, and
//! the serializer must keep reproducing them byte for byte: field
//! order, `"runner":null`, empty `[]` and `{}`, integer and float text,
//! and the pretty layout. A mismatch means the on-disk format changed;
//! regenerate the files only for an intended format change, and say so
//! in the change log.

use emu::{fleet_run, Exec, FleetOutcome, FleetPlan};
use netsim::SimDuration;
use obs::TelemetryConfig;
use wavelan::Scenario;

fn golden_fleet() -> FleetOutcome {
    let plan = FleetPlan::new(Scenario::porter(), 3)
        .with_seed(7)
        .with_duration(SimDuration::from_secs(4))
        .with_probe_interval(SimDuration::from_millis(500))
        .with_telemetry(TelemetryConfig::default());
    fleet_run(&plan, &Exec::serial())
}

fn assert_golden(name: &str, got: &str, want: &str) {
    assert!(
        got == want,
        "{name} differs from its golden file:\n--- got ---\n{got}\n--- want ---\n{want}"
    );
}

#[test]
fn fleet_artifacts_match_golden_bytes() {
    let out = golden_fleet();
    let client = &out.manifests[1];
    assert_golden(
        "client manifest (deterministic)",
        &client.deterministic_json(),
        include_str!("golden/client_manifest.json"),
    );
    assert_golden(
        "client manifest (pretty)",
        &client.to_json_pretty(),
        include_str!("golden/client_manifest_pretty.json"),
    );
    assert!(
        out.report.telemetry.is_some(),
        "golden report carries telemetry"
    );
    assert_golden(
        "fleet report (deterministic)",
        &out.report.deterministic_json(),
        include_str!("golden/fleet_report.json"),
    );
    let mut report = out.report.clone();
    report.runner = None;
    assert_golden(
        "fleet report (pretty)",
        &report.to_json_pretty(),
        include_str!("golden/fleet_report_pretty.json"),
    );
}

#[test]
fn empty_fleet_report_matches_golden_bytes() {
    // Empty `[]` and `{}` at depth, and `null` for absent options.
    let r = obs::FleetReport::from_manifests("porter", &[], &obs::FidelityThresholds::default());
    assert_golden(
        "empty fleet report (pretty)",
        &r.to_json_pretty(),
        include_str!("golden/empty_fleet_report_pretty.json"),
    );
}
