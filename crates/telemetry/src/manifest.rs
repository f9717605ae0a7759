//! Run manifests: the reproducibility receipt of a simulation run.
//!
//! Challenge **C3** of the paper makes calibration and reproducibility a
//! first-class concern of simulation-based design. A [`RunManifest`] pins
//! down what a run *was* — model, seed, configuration digest, event counts,
//! simulated horizon — so that a rerun can be checked against it
//! mechanically. Wall-clock time is recorded for the record but excluded
//! from reproducibility comparisons.

use crate::export::{json_escape, json_f64};
use std::hash::Hasher;

/// Current manifest schema version, bumped on incompatible field changes.
pub const MANIFEST_SCHEMA: u32 = 1;

/// FNV-1a hash of a byte string; the workspace's standard cheap digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a`] as a running state: digesting a value piece by piece
/// gives the hash of the pieces' concatenation, with no buffer for it.
/// `write!` into it (through [`std::fmt::Write`]) digests a formatted
/// value's text.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Digest of a configuration value through its `Debug` rendering.
///
/// Every config struct in the workspace derives `Debug` with full field
/// coverage, so the rendering is a faithful, deterministic serialization —
/// two configs digest equal iff their fields are equal.
pub fn config_digest<T: std::fmt::Debug>(config: &T) -> u64 {
    fnv1a(format!("{config:?}").as_bytes())
}

/// What a simulation run was: identity, inputs, and extent.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Manifest schema version ([`MANIFEST_SCHEMA`]).
    pub schema: u32,
    /// Model name, e.g. `"serverless.faas"`.
    pub model: String,
    /// The seed the run's RNG was created from.
    pub seed: u64,
    /// [`config_digest`] of the run's configuration.
    pub config_digest: u64,
    /// Events scheduled (including initial events).
    pub events_scheduled: u64,
    /// Events dispatched by the run loop.
    pub events_dispatched: u64,
    /// Simulated time when the run ended.
    pub sim_time: f64,
    /// Trace records retained in the ring buffer.
    pub trace_records: u64,
    /// Trace records dropped once the ring buffer filled.
    pub trace_dropped: u64,
    /// Wall-clock milliseconds between recorder creation and the end of the
    /// run. Excluded from [`RunManifest::same_run_as`].
    pub wall_ms: f64,
}

impl RunManifest {
    /// Whether `other` describes a reproduction of the same run: every
    /// field equal except wall-clock time, which legitimately varies
    /// between executions.
    pub fn same_run_as(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.model == other.model
            && self.seed == other.seed
            && self.config_digest == other.config_digest
            && self.events_scheduled == other.events_scheduled
            && self.events_dispatched == other.events_dispatched
            && self.sim_time == other.sim_time
            && self.trace_records == other.trace_records
            && self.trace_dropped == other.trace_dropped
    }

    /// A digest over the reproducible fields (everything
    /// [`RunManifest::same_run_as`] compares). Equal fingerprints ⇔
    /// same-run manifests, up to hash collisions.
    pub fn fingerprint(&self) -> u64 {
        let canon = format!(
            "{}|{}|{}|{:016x}|{}|{}|{}|{}|{}",
            self.schema,
            self.model,
            self.seed,
            self.config_digest,
            self.events_scheduled,
            self.events_dispatched,
            self.sim_time.to_bits(),
            self.trace_records,
            self.trace_dropped,
        );
        fnv1a(canon.as_bytes())
    }

    /// One-line JSON rendering (the final line of a JSONL trace export).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"manifest\",\"schema\":{},\"model\":\"{}\",\"seed\":\"{}\",\
             \"config_digest\":\"{:016x}\",\"events_scheduled\":{},\
             \"events_dispatched\":{},\"sim_time\":{},\"trace_records\":{},\
             \"trace_dropped\":{},\"fingerprint\":\"{:016x}\",\"wall_ms\":{}}}",
            self.schema,
            json_escape(&self.model),
            self.seed,
            self.config_digest,
            self.events_scheduled,
            self.events_dispatched,
            json_f64(self.sim_time),
            self.trace_records,
            self.trace_dropped,
            self.fingerprint(),
            json_f64(self.wall_ms),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> RunManifest {
        RunManifest {
            schema: MANIFEST_SCHEMA,
            model: "test.model".into(),
            seed: 42,
            config_digest: 0xabcd,
            events_scheduled: 10,
            events_dispatched: 9,
            sim_time: 12.5,
            trace_records: 19,
            trace_dropped: 0,
            wall_ms: 3.25,
        }
    }

    #[test]
    fn same_run_ignores_wall_time() {
        let a = manifest();
        let mut b = manifest();
        b.wall_ms = 99.0;
        assert!(a.same_run_as(&b));
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.seed = 43;
        assert!(!a.same_run_as(&b));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn streamed_digest_equals_one_shot_digest() {
        use std::fmt::Write;
        let mut h = Fnv1a::default();
        h.write(b"replications=");
        write!(h, "{}", 12).expect("digesting cannot fail");
        h.write(b"\x1fn=400");
        assert_eq!(h.finish(), fnv1a(b"replications=12\x1fn=400"));
        assert_eq!(Fnv1a::default().finish(), fnv1a(b""));
    }

    #[test]
    fn config_digest_tracks_fields() {
        #[derive(Debug)]
        #[allow(dead_code)] // fields exist to reach the Debug rendering
        struct Cfg {
            a: f64,
            b: u32,
        }
        let x = Cfg { a: 1.0, b: 2 };
        let y = Cfg { a: 1.0, b: 2 };
        let z = Cfg { a: 1.0, b: 3 };
        assert_eq!(config_digest(&x), config_digest(&y));
        assert_ne!(config_digest(&x), config_digest(&z));
    }

    #[test]
    fn json_line_shape() {
        let j = manifest().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"kind\":\"manifest\""));
        assert!(j.contains("\"seed\":\"42\""));
        assert!(j.contains("\"sim_time\":12.5"));
    }
}
