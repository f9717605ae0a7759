//! Public fingerprint canonicalization over run manifests.
//!
//! [`RunManifest::fingerprint`](atlarge_telemetry::RunManifest::fingerprint)
//! hashes a canonical rendering of a run's identity; until now both the
//! rendering and its uses were internal to regression diffing. A result
//! cache needs the *string itself* as a key — collision-free where the
//! 64-bit hash is merely collision-resistant, and printable for logs
//! and HTTP headers — so this module makes the canonical form public
//! with a documented contract:
//!
//! - [`canonical_key`] covers exactly the fields
//!   [`same_run_as`](atlarge_telemetry::RunManifest::same_run_as)
//!   compares: schema, model, seed, config digest, event counts,
//!   simulated horizon, and trace extent. **Wall-clock time is
//!   excluded**, so two executions of the same logical run — serial or
//!   parallel, today or tomorrow — produce the same key.
//! - The mapping is injective on those fields: every field lands in a
//!   fixed position with an unambiguous encoding (the free-form model
//!   string is length-prefixed so embedded separators cannot alias two
//!   manifests onto one key; floats are encoded by bit pattern, not by
//!   display rounding).
//!
//! Equal keys ⇔ `same_run_as` — the cache-key contract an exploration
//! service relies on when it serves a cached body for a repeated query.

use atlarge_telemetry::RunManifest;

/// Version tag of the canonical encoding. Bump when the format changes
/// so persisted keys from older encodings can never alias new ones.
pub(crate) const KEY_SCHEMA: &str = "ak1";

/// Longest rendering of every key field but the model: the schema (a
/// u32, 10 digits), seven u64s and the model's length (at most 20
/// digits each), and ten separators.
const KEY_FIXED_MAX: usize = KEY_SCHEMA.len() + 10 + 8 * 20 + 10;

/// The canonical cache key of a manifest.
///
/// Deterministic, printable (no whitespace or control characters for
/// any model string the workspace produces), and equal for two
/// manifests iff
/// [`same_run_as`](atlarge_telemetry::RunManifest::same_run_as) holds
/// between them — in particular, manifests differing only in wall-clock
/// metadata share a key.
///
/// # Examples
///
/// ```
/// use atlarge_obsv::fingerprint::canonical_key;
/// use atlarge_telemetry::manifest::{RunManifest, MANIFEST_SCHEMA};
///
/// let run = RunManifest {
///     schema: MANIFEST_SCHEMA,
///     model: "serve.autoscaling".into(),
///     seed: 2026,
///     config_digest: 0xABCD,
///     events_scheduled: 5,
///     events_dispatched: 5,
///     sim_time: 4000.0,
///     trace_records: 0,
///     trace_dropped: 0,
///     wall_ms: 17.3,
/// };
/// let mut rerun = run.clone();
/// rerun.wall_ms = 9000.0; // slower machine, same run
/// assert_eq!(canonical_key(&run), canonical_key(&rerun));
/// ```
pub fn canonical_key(manifest: &RunManifest) -> String {
    // Rendered field by field, in the order and encoding of
    // `ak1|<schema>|<model len>:<model>|<seed>|<config digest, 16 hex>|
    // <events scheduled>|<events dispatched>|<sim time bits, 16 hex>|
    // <trace records>|<trace dropped>`. The model string is the only
    // free-form field; prefixing its byte length keeps the encoding
    // injective even if a model name were to contain the separator.
    let mut key = String::with_capacity(KEY_FIXED_MAX + manifest.model.len());
    key.push_str(KEY_SCHEMA);
    key.push('|');
    push_decimal(&mut key, u64::from(manifest.schema));
    key.push('|');
    push_decimal(&mut key, manifest.model.len() as u64);
    key.push(':');
    key.push_str(&manifest.model);
    for (field, hex) in [
        (manifest.seed, false),
        (manifest.config_digest, true),
        (manifest.events_scheduled, false),
        (manifest.events_dispatched, false),
        (manifest.sim_time.to_bits(), true),
        (manifest.trace_records, false),
        (manifest.trace_dropped, false),
    ] {
        key.push('|');
        if hex {
            push_hex16(&mut key, field);
        } else {
            push_decimal(&mut key, field);
        }
    }
    key
}

/// Appends `n` in decimal, as `{}` renders it.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Appends `n` as 16 lowercase hex digits, as `{:016x}` renders it.
fn push_hex16(out: &mut String, n: u64) {
    out.extend(
        (0..16)
            .rev()
            .map(|nibble| char::from(b"0123456789abcdef"[(n >> (4 * nibble)) as usize & 0xf])),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_telemetry::manifest::MANIFEST_SCHEMA;

    fn base() -> RunManifest {
        RunManifest {
            schema: MANIFEST_SCHEMA,
            model: "obsv.fixture".into(),
            seed: 42,
            config_digest: 0xDEAD_BEEF,
            events_scheduled: 100,
            events_dispatched: 99,
            sim_time: 250.5,
            trace_records: 10,
            trace_dropped: 1,
            wall_ms: 12.0,
        }
    }

    #[test]
    fn wall_clock_only_differences_share_a_key() {
        let a = base();
        let mut b = base();
        b.wall_ms = 99_999.0;
        assert!(a.same_run_as(&b));
        assert_eq!(canonical_key(&a), canonical_key(&b));
    }

    #[test]
    fn every_identity_field_changes_the_key() {
        let reference = canonical_key(&base());
        let variants: Vec<RunManifest> = vec![
            {
                let mut m = base();
                m.schema += 1;
                m
            },
            {
                let mut m = base();
                m.model = "obsv.other".into();
                m
            },
            {
                let mut m = base();
                m.seed += 1;
                m
            },
            {
                let mut m = base();
                m.config_digest ^= 1;
                m
            },
            {
                let mut m = base();
                m.events_scheduled += 1;
                m
            },
            {
                let mut m = base();
                m.events_dispatched += 1;
                m
            },
            {
                let mut m = base();
                m.sim_time += 0.5;
                m
            },
            {
                let mut m = base();
                m.trace_records += 1;
                m
            },
            {
                let mut m = base();
                m.trace_dropped += 1;
                m
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert!(!v.same_run_as(&base()), "variant {i} should differ");
            assert_ne!(canonical_key(v), reference, "variant {i} aliased");
        }
    }

    #[test]
    fn model_length_prefix_blocks_separator_aliasing() {
        // Adversarial pair: model strings that would collide if the
        // encoding simply joined fields with '|'.
        let mut a = base();
        a.model = "m|1".into();
        a.seed = 2;
        let mut b = base();
        b.model = "m".into();
        // Without the length prefix "m|1|2|…" could also parse as
        // model="m", seed=1 followed by 2. Keys must differ.
        b.seed = 1;
        assert_ne!(canonical_key(&a), canonical_key(&b));
    }

    #[test]
    fn key_renders_the_documented_format() {
        let mut m = base();
        assert_eq!(
            canonical_key(&m),
            "ak1|1|12:obsv.fixture|42|00000000deadbeef|100|99|406f500000000000|10|1"
        );
        m.events_scheduled = 0;
        m.sim_time = 0.0;
        m.trace_dropped = 0;
        assert_eq!(
            canonical_key(&m),
            "ak1|1|12:obsv.fixture|42|00000000deadbeef|0|99|0000000000000000|10|0"
        );
        let m = base();
        for (model, seed, digest, expected) in [
            (
                "",
                0,
                0x0,
                "ak1|1|0:|0|0000000000000000|100|99|406f500000000000|10|1",
            ),
            (
                "m",
                9,
                0x1,
                "ak1|1|1:m|9|0000000000000001|100|99|406f500000000000|10|1",
            ),
            (
                "serve.datacenter",
                10,
                0xf,
                "ak1|1|16:serve.datacenter|10|000000000000000f|100|99|406f500000000000|10|1",
            ),
            (
                "m|1",
                u64::MAX,
                u64::MAX,
                "ak1|1|3:m|1|18446744073709551615|ffffffffffffffff|100|99|406f500000000000|10|1",
            ),
        ] {
            let m = RunManifest {
                model: model.into(),
                seed,
                config_digest: digest,
                ..m.clone()
            };
            assert_eq!(canonical_key(&m), expected);
        }
    }

    #[test]
    fn key_never_outgrows_its_presized_buffer() {
        let mut m = base();
        m.schema = u32::MAX;
        m.seed = u64::MAX;
        m.config_digest = u64::MAX;
        m.events_scheduled = u64::MAX;
        m.events_dispatched = u64::MAX;
        m.sim_time = f64::from_bits(u64::MAX);
        m.trace_records = u64::MAX;
        m.trace_dropped = u64::MAX;
        let key = canonical_key(&m);
        assert!(key.len() <= KEY_FIXED_MAX + m.model.len(), "{key}");
    }

    #[test]
    fn key_is_stable_and_printable() {
        let key = canonical_key(&base());
        assert!(key.starts_with("ak1|"));
        assert_eq!(key, canonical_key(&base()));
        assert!(key.chars().all(|c| !c.is_whitespace() && !c.is_control()));
    }
}
