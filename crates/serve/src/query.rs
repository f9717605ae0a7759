//! What-if query parsing, identity, and rendering.
//!
//! A query arrives as URL pairs (`domain=graph&algorithm=bfs&seed=7`),
//! is canonicalized by the [`Registry`]'s parameter validation
//! (defaults filled, unknown keys refused), and from then on has ONE
//! identity: a [`RunManifest`] built *before* the run — model
//! `serve.<domain>`, the query seed, and a config digest over the
//! canonical parameters — rendered to a cache key by
//! [`atlarge_obsv::fingerprint::canonical_key`]. Two spellings of the
//! same cell (`n=400` explicit vs defaulted, reordered pairs,
//! percent-encoded bytes) collapse to one key; any semantic difference
//! (seed, replications, any parameter) separates keys.
//!
//! Validation borrows: [`validate_query`] returns a [`QueryRef`] whose
//! strings point into the request and into the registry's stored
//! defaults, and the key is digested straight from those pairs. A cache
//! hit is answered from that borrowed form; the owned [`RunQuery`] is
//! built only for a run. [`parse_run_query`] and [`cache_key`] are the
//! same code over owned values.
//!
//! Rendering is deterministic by construction: every map is a
//! `BTreeMap` or an order-stable `Vec`, floats go through the
//! workspace's one float formatter (behind
//! `telemetry::export::ObjectWriter::f64`), and nothing
//! wall-clock-derived enters the body — which is what makes "cache hits
//! are byte-identical to cold runs" a provable property rather than an
//! aspiration.

use atlarge_exp::registry::CellOutput;
use atlarge_exp::Registry;
use atlarge_obsv::fingerprint::canonical_key;
use atlarge_telemetry::export::{json_object, json_str, object_into};
use atlarge_telemetry::manifest::{Fnv1a, RunManifest, MANIFEST_SCHEMA};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::hash::Hasher;

/// Hard ceiling on per-query replications, so one query cannot
/// monopolize a run slot indefinitely.
pub(crate) const MAX_REPLICATIONS: usize = 64;

/// Default seed when a query omits one — fixed, so the cacheable
/// common case ("just show me this cell") is shared across clients.
pub(crate) const DEFAULT_SEED: u64 = 42;

/// A validated, canonical what-if query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunQuery {
    /// Registered domain name.
    pub domain: String,
    /// Root seed of the replication stream.
    pub seed: u64,
    /// Replications to run (`1..=MAX_REPLICATIONS`).
    pub replications: usize,
    /// Canonical cell parameters (validated, defaults filled).
    pub params: BTreeMap<String, String>,
}

/// A validated, canonical what-if query that borrows its strings from
/// the request and from the registry's stored defaults: everything a
/// cache hit needs — the domain and the key — with nothing copied.
/// `QueryRef::to_run_query` builds the owned [`RunQuery`] a run needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRef<'a> {
    /// Registered domain name.
    pub domain: &'a str,
    /// Root seed of the replication stream.
    pub seed: u64,
    /// Replications to run (`1..=MAX_REPLICATIONS`).
    pub replications: usize,
    /// Canonical cell parameters, sorted by name, defaults filled.
    pub params: Vec<(&'a str, &'a str)>,
}

impl QueryRef<'_> {
    /// The cache key; equal to [`cache_key`] of
    /// `QueryRef::to_run_query`.
    pub fn cache_key(&self) -> String {
        canonical_key(&manifest_of(
            self.domain,
            self.seed,
            self.replications,
            self.params.iter().copied(),
        ))
    }

    /// The owned query.
    pub(crate) fn to_run_query(&self) -> RunQuery {
        RunQuery {
            domain: self.domain.to_string(),
            seed: self.seed,
            replications: self.replications,
            params: self
                .params
                .iter()
                .map(|&(key, value)| (key.to_string(), value.to_string()))
                .collect(),
        }
    }
}

/// Validates raw query pairs against `registry`, borrowing the result
/// from `pairs` and from the registry.
///
/// Reserved keys: `domain` (required), `seed`, `replications`. Every
/// other key is a cell parameter checked by the domain's declared
/// [`ParamSpec`](atlarge_exp::ParamSpec)s through
/// [`Registry::check`]. Any key given twice is refused.
pub fn validate_query<'a, K: AsRef<str>, V: AsRef<str>>(
    registry: &'a Registry,
    pairs: &'a [(K, V)],
) -> Result<QueryRef<'a>, String> {
    let domain = pairs
        .iter()
        .find(|(key, _)| key.as_ref() == "domain")
        .map(|(_, value)| value.as_ref());
    let mut check = registry.check(domain.unwrap_or_default());
    let (mut domain_given, mut seed, mut replications) = (false, None, None);
    for (key, value) in pairs {
        let (key, value) = (key.as_ref(), value.as_ref());
        let repeated = match key {
            "domain" => domain_given,
            "seed" => seed.is_some(),
            "replications" => replications.is_some(),
            _ => false,
        };
        if repeated {
            return Err(format!("parameter '{key}' given twice"));
        }
        match key {
            "domain" => domain_given = true,
            "seed" => seed = Some(parse_reserved(key, value)?),
            "replications" => replications = Some(parse_reserved(key, value)?),
            _ => check.push(key, value)?,
        }
    }
    let domain = domain.ok_or("missing required parameter 'domain'")?;
    let replications = replications.unwrap_or(1);
    if !(1..=MAX_REPLICATIONS).contains(&replications) {
        return Err(format!(
            "parameter 'replications': {replications} outside 1..={MAX_REPLICATIONS}"
        ));
    }
    Ok(QueryRef {
        domain,
        seed: seed.unwrap_or(DEFAULT_SEED),
        replications,
        params: check.finish()?,
    })
}

fn parse_reserved<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("parameter '{key}': cannot parse '{value}'"))
}

/// Parses and validates raw query pairs against `registry` into an
/// owned query: [`validate_query`], then `QueryRef::to_run_query`.
pub fn parse_run_query(
    registry: &Registry,
    pairs: &[(String, String)],
) -> Result<RunQuery, String> {
    validate_query(registry, pairs).map(|query| query.to_run_query())
}

/// The query's identity as a run manifest, computed *before* the run.
///
/// Extent fields (events, simulated time, trace counts) are zero: the
/// identity of a cached result is what was asked, not what executing
/// it happened to cost. `wall_ms` is zero and excluded from the key
/// anyway.
pub fn query_manifest(query: &RunQuery) -> RunManifest {
    manifest_of(
        &query.domain,
        query.seed,
        query.replications,
        query.params.iter().map(|(k, v)| (k.as_str(), v.as_str())),
    )
}

/// The one definition of a query's manifest. The config digest is
/// FNV-1a over `replications=<n>`, then `\u{1f}<key>=<value>` per
/// canonical pair (a field separator no declared
/// [`ParamSpec`](atlarge_exp::ParamSpec) name contains), streamed.
fn manifest_of<'p>(
    domain: &str,
    seed: u64,
    replications: usize,
    params: impl Iterator<Item = (&'p str, &'p str)>,
) -> RunManifest {
    let mut digest = Fnv1a::default();
    write!(digest, "replications={replications}").expect("digesting cannot fail");
    for (key, value) in params {
        digest.write(b"\x1f");
        digest.write(key.as_bytes());
        digest.write(b"=");
        digest.write(value.as_bytes());
    }
    RunManifest {
        schema: MANIFEST_SCHEMA,
        model: ["serve.", domain].concat(),
        seed,
        config_digest: digest.finish(),
        events_scheduled: 0,
        events_dispatched: 0,
        sim_time: 0.0,
        trace_records: 0,
        trace_dropped: 0,
        wall_ms: 0.0,
    }
}

/// The cache key of a query: the canonical fingerprint rendering of
/// [`query_manifest`].
pub fn cache_key(query: &RunQuery) -> String {
    canonical_key(&query_manifest(query))
}

/// Renders the response body of a completed query into one buffer
/// sized for it. Deterministic: byte-identical across repeats, threads,
/// and cache hits.
pub fn render_body(query: &RunQuery, key: &str, output: &CellOutput) -> String {
    // Room for the usual body: each string pair with its quotes, colon
    // and comma, and about 128 bytes per metric besides its name.
    let pair = |name: &String, value: &String| name.len() + value.len() + 6;
    let capacity = 160
        + key.len()
        + query.params.iter().map(|(n, v)| pair(n, v)).sum::<usize>()
        + output.notes.iter().map(|(n, v)| pair(n, v)).sum::<usize>()
        + output
            .metrics
            .iter()
            .map(|(name, _)| name.len() + 128)
            .sum::<usize>();
    let mut body = String::with_capacity(capacity);
    object_into(&mut body, |o| {
        o.str("domain", &query.domain)
            .u64("seed", query.seed)
            .u64("replications", query.replications as u64)
            .str("key", key)
            .object("params", |params| {
                for (name, value) in &query.params {
                    params.str(name, value);
                }
            })
            .object("metrics", |metrics| {
                for (name, summary) in &output.metrics {
                    metrics.object(name, |m| {
                        m.f64("mean", summary.mean())
                            .f64("std_dev", summary.std_dev())
                            .f64("min", summary.min())
                            .f64("max", summary.max())
                            .u64("n", summary.len() as u64);
                    });
                }
            })
            .object("notes", |notes| {
                for (name, value) in &output.notes {
                    notes.str(name, value);
                }
            });
    });
    body.push('\n');
    body
}

/// Renders the `/domains` directory: every registered domain with its
/// declared parameters, for clients discovering the query schema.
pub(crate) fn render_domains(registry: &Registry) -> String {
    let domains: Vec<String> = registry
        .domains()
        .iter()
        .map(|name| {
            let scenario = registry.get(name).expect("listed domains resolve");
            let params: Vec<String> = registry
                .specs(name)
                .expect("listed domains resolve")
                .iter()
                .map(|spec| {
                    let choices: Vec<String> = spec.choices.iter().map(|c| json_str(c)).collect();
                    json_object(&[
                        ("name", json_str(&spec.name)),
                        ("help", json_str(&spec.help)),
                        (
                            "default",
                            spec.default
                                .as_deref()
                                .map(json_str)
                                .unwrap_or_else(|| "null".to_string()),
                        ),
                        ("choices", format!("[{}]", choices.join(","))),
                    ])
                })
                .collect();
            format!(
                "{}:{}",
                json_str(name),
                json_object(&[
                    ("description", json_str(scenario.describe())),
                    ("params", format!("[{}]", params.join(","))),
                ])
            )
        })
        .collect();
    format!("{{{}}}\n", domains.join(","))
}

/// The `{"error": ...}` body of a refused request.
pub(crate) fn error_body(message: &str) -> String {
    let mut body = json_object(&[("error", json_str(message))]);
    body.push('\n');
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_exp::registry::{CellScenario, ParamSpec};
    use atlarge_exp::CancelToken;
    use atlarge_stats::descriptive::Summary;
    use atlarge_telemetry::tracer::Tracer;

    struct Echo;

    impl CellScenario for Echo {
        fn domain(&self) -> &str {
            "echo"
        }
        fn describe(&self) -> &str {
            "test fixture"
        }
        fn params(&self) -> Vec<ParamSpec> {
            vec![
                ParamSpec::optional("x", "a knob", "1"),
                ParamSpec::choice("mode", "a mode", &["fast", "slow"]),
            ]
        }
        fn run_cell(
            &self,
            params: &BTreeMap<String, String>,
            seed: u64,
            replications: usize,
            _cancel: &CancelToken,
            _tracer: &dyn Tracer,
        ) -> Result<CellOutput, String> {
            let x: f64 = params["x"].parse().map_err(|_| "bad x".to_string())?;
            Ok(CellOutput {
                metrics: vec![(
                    "x".to_string(),
                    Summary::from_iter((0..replications).map(|_| x + seed as f64)),
                )],
                notes: vec![("mode".to_string(), params["mode"].clone())],
            })
        }
    }

    fn registry() -> Registry {
        let mut reg = Registry::new();
        reg.register(Box::new(Echo));
        reg
    }

    fn pairs(spec: &[(&str, &str)]) -> Vec<(String, String)> {
        spec.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn equivalent_spellings_share_a_cache_key() {
        let reg = registry();
        // Defaults filled vs explicit, and reordered pairs.
        let a = parse_run_query(&reg, &pairs(&[("domain", "echo")])).expect("valid");
        let b = parse_run_query(
            &reg,
            &pairs(&[("mode", "fast"), ("x", "1"), ("domain", "echo")]),
        )
        .expect("valid");
        assert_eq!(cache_key(&a), cache_key(&b));
        assert!(cache_key(&a).starts_with("ak1|"));
    }

    #[test]
    fn every_semantic_difference_changes_the_key() {
        let reg = registry();
        let base = parse_run_query(&reg, &pairs(&[("domain", "echo")])).expect("valid");
        let variants = [
            pairs(&[("domain", "echo"), ("x", "2")]),
            pairs(&[("domain", "echo"), ("mode", "slow")]),
            pairs(&[("domain", "echo"), ("seed", "7")]),
            pairs(&[("domain", "echo"), ("replications", "3")]),
        ];
        for (i, v) in variants.iter().enumerate() {
            let q = parse_run_query(&reg, v).expect("valid");
            assert_ne!(cache_key(&q), cache_key(&base), "variant {i} aliased");
        }
    }

    #[test]
    fn parse_rejects_bad_queries_with_reasons() {
        let reg = registry();
        let missing = parse_run_query(&reg, &pairs(&[("x", "1")])).unwrap_err();
        assert!(missing.contains("domain"), "{missing}");
        let unknown =
            parse_run_query(&reg, &pairs(&[("domain", "echo"), ("bogus", "1")])).unwrap_err();
        assert!(unknown.contains("unknown parameter"), "{unknown}");
        let seed =
            parse_run_query(&reg, &pairs(&[("domain", "echo"), ("seed", "abc")])).unwrap_err();
        assert!(seed.contains("seed"), "{seed}");
        let reps = parse_run_query(
            &reg,
            &pairs(&[("domain", "echo"), ("replications", "100000")]),
        )
        .unwrap_err();
        assert!(reps.contains("replications"), "{reps}");
        let dup = parse_run_query(&reg, &pairs(&[("domain", "echo"), ("x", "1"), ("x", "2")]))
            .unwrap_err();
        assert!(dup.contains("twice"), "{dup}");
        // Reserved keys are refused when repeated, like any other key,
        // rather than the last one winning.
        for (spec, key) in [
            (&[("domain", "echo"), ("domain", "echo")][..], "domain"),
            (&[("domain", "echo"), ("seed", "1"), ("seed", "2")], "seed"),
            (
                &[
                    ("domain", "echo"),
                    ("replications", "1"),
                    ("replications", "2"),
                ],
                "replications",
            ),
        ] {
            let dup = parse_run_query(&reg, &pairs(spec)).unwrap_err();
            assert_eq!(dup, format!("parameter '{key}' given twice"));
        }
    }

    /// A fixture with a required parameter, which no served domain has.
    struct Needy;

    impl CellScenario for Needy {
        fn domain(&self) -> &str {
            "needy"
        }
        fn describe(&self) -> &str {
            "test fixture with a required parameter"
        }
        fn params(&self) -> Vec<ParamSpec> {
            vec![
                ParamSpec::required("k", "a must"),
                ParamSpec::choice("mode", "a mode", &["a", "b"]),
            ]
        }
        fn run_cell(
            &self,
            _params: &BTreeMap<String, String>,
            _seed: u64,
            _replications: usize,
            _cancel: &CancelToken,
            _tracer: &dyn Tracer,
        ) -> Result<CellOutput, String> {
            Err("never run".to_string())
        }
    }

    #[test]
    fn every_rejection_has_its_exact_text() {
        let mut reg = registry();
        reg.register(Box::new(Needy));
        let echo = ("domain", "echo");
        let table: &[(&[(&str, &str)], &str)] = &[
            (&[("x", "1")], "missing required parameter 'domain'"),
            (
                &[("domain", "nope")],
                "unknown domain 'nope' (have: echo, needy)",
            ),
            (&[("domain", "")], "unknown domain '' (have: echo, needy)"),
            (
                &[echo, ("bogus", "1")],
                "unknown parameter 'bogus' for domain 'echo' (have: x, mode)",
            ),
            (
                &[
                    echo,
                    ("zeta", "1"),
                    ("x", "2"),
                    ("beta", "3"),
                    ("alpha", "4"),
                ],
                "unknown parameter 'alpha' for domain 'echo' (have: x, mode)",
            ),
            (
                &[("domain", "needy")],
                "missing required parameter 'k' for domain 'needy'",
            ),
            (
                &[echo, ("mode", "medium")],
                "parameter 'mode': 'medium' is not one of fast|slow",
            ),
            (
                &[echo, ("seed", "abc")],
                "parameter 'seed': cannot parse 'abc'",
            ),
            (
                &[echo, ("seed", "-1")],
                "parameter 'seed': cannot parse '-1'",
            ),
            (
                &[echo, ("replications", "two")],
                "parameter 'replications': cannot parse 'two'",
            ),
            (
                &[echo, ("replications", "0")],
                "parameter 'replications': 0 outside 1..=64",
            ),
            (
                &[echo, ("replications", "65")],
                "parameter 'replications': 65 outside 1..=64",
            ),
            (&[echo, ("x", "1"), ("x", "1")], "parameter 'x' given twice"),
            (
                &[echo, ("bogus", "1"), ("bogus", "2")],
                "parameter 'bogus' given twice",
            ),
            // Which of several faults is named: the first one met in
            // wire order while reading, then missing domain, replication
            // range, unknown domain, undeclared key, and spec by spec.
            (
                &[echo, ("x", "1"), ("x", "2"), ("seed", "abc")],
                "parameter 'x' given twice",
            ),
            (
                &[echo, ("seed", "abc"), ("x", "1"), ("x", "2")],
                "parameter 'seed': cannot parse 'abc'",
            ),
            (
                &[("replications", "0"), ("bogus", "1")],
                "missing required parameter 'domain'",
            ),
            (
                &[("domain", "nope"), ("replications", "0")],
                "parameter 'replications': 0 outside 1..=64",
            ),
            (
                &[("domain", "needy"), ("mode", "c"), ("bogus", "1")],
                "unknown parameter 'bogus' for domain 'needy' (have: k, mode)",
            ),
            (
                &[("domain", "needy"), ("mode", "c")],
                "missing required parameter 'k' for domain 'needy'",
            ),
        ];
        for (spec, text) in table {
            let raw = pairs(spec);
            assert_eq!(
                parse_run_query(&reg, &raw).unwrap_err(),
                *text,
                "query {spec:?}"
            );
            assert_eq!(
                validate_query(&reg, &raw).unwrap_err(),
                *text,
                "query {spec:?}"
            );
        }
    }

    #[test]
    fn borrowed_query_keys_and_owns_like_the_owned_path() {
        let reg = registry();
        let raw = pairs(&[("mode", "slow"), ("domain", "echo"), ("seed", "9")]);
        let query = validate_query(&reg, &raw).expect("valid");
        assert_eq!(query.params, vec![("mode", "slow"), ("x", "1")]);
        let owned = parse_run_query(&reg, &raw).expect("valid");
        assert_eq!(query.to_run_query(), owned);
        assert_eq!(query.cache_key(), cache_key(&owned));
    }

    #[test]
    fn rendered_bodies_are_deterministic_and_json_shaped() {
        let reg = registry();
        let q = parse_run_query(&reg, &pairs(&[("domain", "echo"), ("seed", "5")])).expect("valid");
        let tracer = atlarge_telemetry::NullTracer;
        let cell = Echo;
        let out = cell
            .run_cell(
                &q.params,
                q.seed,
                q.replications,
                &CancelToken::new(),
                &tracer,
            )
            .expect("runs");
        let key = cache_key(&q);
        let a = render_body(&q, &key, &out);
        let b = render_body(&q, &key, &out);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"domain\":\"echo\""), "{a}");
        assert!(a.contains("\"metrics\":{\"x\":{\"mean\":6"), "{a}");
        assert!(a.contains("\"notes\":{\"mode\":\"fast\"}"), "{a}");
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn rendered_bodies_escape_every_class_as_before() {
        let reg = registry();
        let raw = pairs(&[("domain", "echo"), ("seed", "5"), ("replications", "3")]);
        let mut query = parse_run_query(&reg, &raw).expect("valid");
        let mut output = Echo
            .run_cell(
                &query.params,
                query.seed,
                query.replications,
                &CancelToken::new(),
                &atlarge_telemetry::NullTracer,
            )
            .expect("runs");
        // A quote, a backslash, the three short escapes, `\u00xx` bytes,
        // and what passes through unescaped: `/`, DEL, multi-byte UTF-8.
        let every_class = "q\"b\\s/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f} \u{7f}é€😀";
        query
            .params
            .insert("label".to_string(), every_class.to_string());
        output
            .notes
            .push(("label".to_string(), every_class.to_string()));
        let key = cache_key(&query);
        // The body the char-by-char renderer produced for this input.
        let expected = concat!(
            "{\"domain\":\"echo\",\"seed\":5,\"replications\":3,",
            "\"key\":\"ak1|1|10:serve.echo|5|d0f20bcf25af8727|0|0|0000000000000000|0|0\",",
            "\"params\":{\"label\":\"q\\\"b\\\\s/\\n\\r\\t\\u0000\\u0001\\u0008\\u000c\\u001f \u{7f}é€😀\",",
            "\"mode\":\"fast\",\"x\":\"1\"},",
            "\"metrics\":{\"x\":{\"mean\":6.0,\"std_dev\":0.0,\"min\":6.0,\"max\":6.0,\"n\":3}},",
            "\"notes\":{\"mode\":\"fast\",",
            "\"label\":\"q\\\"b\\\\s/\\n\\r\\t\\u0000\\u0001\\u0008\\u000c\\u001f \u{7f}é€😀\"}}\n",
        );
        assert_eq!(render_body(&query, &key, &output), expected);
    }

    #[test]
    fn domains_directory_lists_params_and_defaults() {
        let reg = registry();
        let doc = render_domains(&reg);
        assert!(doc.contains("\"echo\""), "{doc}");
        assert!(doc.contains("\"default\":\"1\""), "{doc}");
        assert!(doc.contains("\"choices\":[\"fast\",\"slow\"]"), "{doc}");
        assert!(doc.contains("\"description\":\"test fixture\""), "{doc}");
    }
}
