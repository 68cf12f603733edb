//! Canonical JSON normalization and content hashing — the cache-key layer of
//! the [`crate::CampaignService`].
//!
//! A content-addressed result cache is only correct if every encoding of the
//! same configuration maps to the same key. JSON gives encoders three degrees
//! of freedom that must not leak into the key:
//!
//! * **key order** — objects are unordered; canonical form sorts keys,
//! * **whitespace / number spelling** — canonical form re-renders from the
//!   parsed value tree (so `1e-2` and `0.01` agree),
//! * **omitted vs explicit-null optionals** — canonical form drops
//!   null-valued object entries, and entries whose value canonicalizes to an
//!   *empty object* (a knob group with every knob omitted is the same
//!   configuration as no knob group at all — e.g. a `WorkloadSpec` with both
//!   overrides unset).
//!
//! The key itself is the dependency-free 64-bit FNV-1a hash of the canonical
//! text. The service stores results under the canonical *text* and uses the
//! hash only as the compact content address it reports, so a hash collision
//! can never alias two different specs onto one cache entry.

use serde::{write_json_string, Value};

/// The 64-bit FNV-1a hash of `bytes` (offset basis `0xcbf29ce484222325`,
/// prime `0x100000001b3`) — small, dependency-free, and stable across
/// platforms and processes, which is all a content address needs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Renders `value` in canonical form: object keys sorted, null and
/// empty-object entries dropped, numbers re-rendered from their parsed
/// values, no whitespace. Two JSON texts that parse to semantically equal
/// documents canonicalize to the same string.
pub fn canonical_json(value: &Value) -> String {
    let mut out = String::new();
    write_canonical(value, &mut out);
    out
}

/// Whether a value vanishes when it appears as an object entry: `null`, or
/// an object whose every entry vanishes (an all-defaults knob group).
fn vanishes(value: &Value) -> bool {
    match value {
        Value::Null => true,
        Value::Object(pairs) => pairs.iter().all(|(_, v)| vanishes(v)),
        _ => false,
    }
}

fn write_canonical(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&canonical_number(n.as_literal())),
        Value::String(s) => write_json_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            let mut kept: Vec<&(String, Value)> =
                pairs.iter().filter(|(_, v)| !vanishes(v)).collect();
            kept.sort_by(|a, b| a.0.cmp(&b.0));
            out.push('{');
            for (i, (key, value)) in kept.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(key, out);
                out.push(':');
                write_canonical(value, out);
            }
            out.push('}');
        }
    }
}

/// Appends the canonical spelling of a finite `x`: the text
/// [`canonical_json`] renders for the number `x` serializes to, formatted
/// once instead of serialized and re-rendered. (A non-finite `f64`
/// serializes to `null`, so it has no number spelling; a canonical object
/// drops such an entry.)
pub fn push_canonical_f64(out: &mut String, x: f64) {
    debug_assert!(x.is_finite(), "{x} serializes to null, not a number");
    // `Display` spells a finite f64 as its shortest round-trip decimal,
    // without an exponent or a trailing `.0`, which `canonical_number` keeps
    // as it is — except `-0`, which it spells as the integer 0.
    if x == 0.0 {
        out.push('0');
    } else {
        use std::fmt::Write as _;
        write!(out, "{x}").expect("writing to a String cannot fail");
    }
}

/// One canonical spelling per numeric value: integers in range render through
/// `u64`/`i64` (so `1`, `1.0` and `1e0` agree and large seeds stay exact),
/// everything else through `f64`'s shortest round-trip form.
fn canonical_number(literal: &str) -> String {
    if let Ok(n) = literal.parse::<u64>() {
        return n.to_string();
    }
    if let Ok(n) = literal.parse::<i64>() {
        return n.to_string();
    }
    let n: f64 = literal.parse().unwrap_or(f64::NAN);
    if n.is_finite() && n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        // Exact-integer floats (`1.0`, `1e2`) spell like integers.
        return format!("{}", n as i64);
    }
    n.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(text: &str) -> String {
        canonical_json(&serde_json::parse(text).expect("test JSON parses"))
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn key_order_whitespace_and_nulls_do_not_matter() {
        let a = canon(r#"{"b": 1, "a": {"x": null, "y": 2}}"#);
        let b = canon("{\"a\":{\"y\":2},\n  \"b\":1.0}");
        assert_eq!(a, b);
        assert_eq!(a, r#"{"a":{"y":2},"b":1}"#);
    }

    #[test]
    fn all_null_knob_groups_vanish_like_omitted_ones() {
        let explicit = canon(r#"{"w": {"batch": null, "seq": null}, "d": 3}"#);
        let omitted = canon(r#"{"d": 3}"#);
        assert_eq!(explicit, omitted);
        // ... but an object with any real entry survives.
        assert_ne!(canon(r#"{"w": {"batch": 4}, "d": 3}"#), omitted);
    }

    #[test]
    fn number_spellings_agree() {
        assert_eq!(canon("[1, 1.0, 1e0, 100, 1e2]"), "[1,1,1,100,100]");
        assert_eq!(canon("[0.01, 1e-2]"), "[0.01,0.01]");
        assert_eq!(canon("[-3, -3.0]"), "[-3,-3]");
        // u64 seeds outside the exact-f64 range stay exact.
        assert_eq!(canon("[18446744073709551615]"), "[18446744073709551615]");
    }

    #[test]
    fn f64_spellings_match_the_rendered_serialization() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -3.0,
            0.1 + 0.2,
            1.5e-7,
            5e-324,
            f64::MIN_POSITIVE,
            9_007_199_254_740_992.0,
            -9_007_199_254_740_993.0,
            1e17,
            1e21,
            -1e300,
            f64::MAX,
            f64::MIN,
        ];
        for x in values {
            let mut spelled = String::new();
            push_canonical_f64(&mut spelled, x);
            assert_eq!(spelled, canonical_number(&x.to_string()), "{x:e}");
        }
    }

    #[test]
    fn arrays_preserve_order_and_strings_escape() {
        assert_ne!(canon("[1,2]"), canon("[2,1]"));
        assert_eq!(canon(r#"{"s": "a\nb"}"#), "{\"s\":\"a\\nb\"}");
    }
}
