//! Random `Value` trees survive the text form: writing one and parsing
//! it back yields the same tree, in compact and pretty layout alike.

use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;
use serde::{Num, Value};

/// Characters that exercise every escaping path: quotes, backslashes,
/// named and `\u` control escapes, DEL, and multi-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
    '\u{7f}', 'é', 'ß', '漢', '😀',
];

fn arb_string(rng: &mut TestRng) -> String {
    let len = rng.gen_range(0..8u64);
    (0..len)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len() as u64) as usize])
        .collect()
}

fn arb_float(rng: &mut TestRng) -> f64 {
    match rng.gen_range(0..6u32) {
        0 => rng.gen_range(-1_000_000i64..1_000_000) as f64,
        1 => -0.0,
        2 => f64::from_bits(rng.gen_range(1..1u64 << 52)), // subnormal
        3 => f64::MAX * rng.gen::<f64>(),
        4 => rng.gen::<f64>() * 1e-300,
        _ => {
            let x = f64::from_bits(rng.gen::<u64>());
            if x.is_finite() {
                x
            } else {
                0.5
            }
        }
    }
}

fn arb_number(rng: &mut TestRng) -> Num {
    match rng.gen_range(0..6u32) {
        0 => Num::U(u64::MAX),
        1 => Num::U(rng.gen::<u64>() >> rng.gen_range(0..64u32)),
        // Negative integers only: a non-negative `I` reads back as `U`.
        2 => Num::I(i64::MIN),
        3 => Num::I(-1 - (rng.gen::<u64>() >> rng.gen_range(1..64u32)) as i64),
        _ => Num::F(arb_float(rng)),
    }
}

fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.gen_range(0..kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 | 3 => Value::Num(arb_number(rng)),
        4 => Value::Str(arb_string(rng)),
        5 => {
            let len = rng.gen_range(0..5u64);
            Value::Seq((0..len).map(|_| arb_value(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.gen_range(0..5u64);
            Value::Object(
                (0..len)
                    .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Trees up to four containers deep.
struct ArbValue;

impl Strategy for ArbValue {
    type Value = Value;
    fn generate(&self, rng: &mut TestRng) -> Value {
        arb_value(rng, 4)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn text_round_trip_preserves_the_tree(v in ArbValue) {
        let compact = serde_json::to_string(&v).unwrap();
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        let from_compact: Value = serde_json::from_str(&compact).unwrap();
        let from_pretty: Value = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(&from_compact, &v, "through {}", compact);
        prop_assert_eq!(&from_pretty, &from_compact);
        prop_assert_eq!(serde_json::to_vec(&v).unwrap(), compact.into_bytes());
    }
}
