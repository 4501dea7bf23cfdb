//! Percentiles read from one sort equal the per-call reference.
//!
//! `Hist::snapshot` and `FidelityCollector::report` sort their samples
//! once and read every percentile from that order; the |delay error|
//! percentiles are derived from the signed samples rather than from a
//! second retained vector. Both must stay bit-identical to computing
//! each percentile with `Summary::percentile` on its own copy of the
//! samples — the definition the run manifests were recorded under.

use netsim::stats::{percentile_of_sorted, Summary};
use obs::{FidelityCollector, Hist};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Samples with duplicates, negatives and both signed zeros: a palette
/// index picks a fixed value, or the drawn float for the last arm.
fn samples() -> impl Strategy<Value = Vec<f64>> {
    pvec((0u8..7, -30.0f64..30.0), 0..160).prop_map(|draws| {
        draws
            .into_iter()
            .map(|(arm, x)| match arm {
                0 => 0.0,
                1 => -0.0,
                2 => 2.5,
                3 => -2.5,
                4 => x.round(),
                _ => x,
            })
            .collect()
    })
}

const PS: [f64; 7] = [0.0, 1.0, 50.0, 85.0, 95.0, 99.0, 100.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_sort_matches_per_call_percentile(xs in samples()) {
        let reference = Summary::of(&xs);
        let sorted = reference.sorted_samples().expect("samples retained");
        for p in PS {
            prop_assert_eq!(
                percentile_of_sorted(&sorted, p).map(f64::to_bits),
                reference.percentile(p).map(f64::to_bits)
            );
        }
        let mut h = Hist::new(-25.0, 25.0, 50);
        for &x in &xs {
            h.observe(x);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.p50.to_bits(), reference.p50().to_bits());
        prop_assert_eq!(snap.p95.to_bits(), reference.p95().to_bits());
        prop_assert_eq!(snap.p99.to_bits(), reference.p99().to_bits());
    }

    #[test]
    fn fidelity_abs_percentiles_match_a_retained_abs_summary(xs in samples()) {
        let mut c = FidelityCollector::new();
        for &x in &xs {
            c.on_modulated(0.0);
            c.on_release(x, false);
        }
        let r = c.report();
        let abs: Vec<f64> = xs.iter().map(|x| x.abs()).collect();
        let abs_ref = Summary::of(&abs);
        prop_assert_eq!(r.abs_delay_error_p50_ms.to_bits(), abs_ref.p50().to_bits());
        prop_assert_eq!(r.abs_delay_error_p95_ms.to_bits(), abs_ref.p95().to_bits());
        prop_assert_eq!(r.abs_delay_error_p99_ms.to_bits(), abs_ref.p99().to_bits());
        let signed_ref = Summary::of(&xs);
        prop_assert_eq!(r.delay_error_ms.p50.to_bits(), signed_ref.p50().to_bits());
        prop_assert_eq!(r.delay_error_ms.p95.to_bits(), signed_ref.p95().to_bits());
        prop_assert_eq!(r.delay_error_ms.p99.to_bits(), signed_ref.p99().to_bits());
    }
}
