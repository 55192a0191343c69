//! Helpers shared by the conformance integration tests.
//!
//! Each test binary compiles its own copy via `mod common;`, so a
//! helper unused by one binary is expected — hence the allow.
#![allow(dead_code)]

use simt_ir::Value;

/// The first cell where two memory images differ by bits — type and
/// payload, so `-0.0` differs from `0.0` and a NaN matches itself, which
/// `Value`'s `==` gets wrong both ways — or `None` when they agree,
/// length included.
pub fn mem_diff(a: &[Value], b: &[Value]) -> Option<usize> {
    let bits = |v: &Value| match *v {
        Value::I64(x) => (false, x as u64),
        Value::F64(x) => (true, x.to_bits()),
    };
    let cell = a.iter().zip(b).position(|(x, y)| bits(x) != bits(y));
    cell.or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))
}
