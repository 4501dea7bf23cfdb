//! Every `Serialize` impl must write what the matching `Deserialize`
//! impl reads back: each value goes out as JSON text and returns
//! through the `Value` parse tree.

use serde::{Deserialize, Serialize, Value};

fn tree<T: Serialize + ?Sized>(v: &T) -> Value {
    serde_json::from_str(&serde_json::to_string(v).unwrap()).unwrap()
}

#[test]
fn primitives_round_trip() {
    assert_eq!(u64::deserialize(&tree(&42u64)).unwrap(), 42);
    assert_eq!(i64::deserialize(&tree(&-7i64)).unwrap(), -7);
    assert_eq!(f64::deserialize(&tree(&1.5f64)).unwrap(), 1.5);
    assert!(bool::deserialize(&tree(&true)).unwrap());
    let s = String::from("hi");
    assert_eq!(String::deserialize(&tree(&s)).unwrap(), "hi");
}

#[test]
fn containers_round_trip() {
    let v = vec![1u32, 2, 3];
    assert_eq!(Vec::<u32>::deserialize(&tree(&v)).unwrap(), v);
    let o: Option<u32> = None;
    assert_eq!(Option::<u32>::deserialize(&tree(&o)).unwrap(), None);
    let t = (1.25f64, 8u64);
    assert_eq!(<(f64, u64)>::deserialize(&tree(&t)).unwrap(), t);
}

#[test]
fn narrowing_is_checked() {
    assert!(u8::deserialize(&tree(&300u64)).is_err());
    assert!(u64::deserialize(&tree(&-1i64)).is_err());
}
