//! A registry of named, string-parameterized scenarios.
//!
//! A campaign runs a typed `(config, seed) → outcome` function over a
//! declared grid; an exploration *service* needs the inverse view: look
//! a domain up by name, discover its parameters, validate an untyped
//! `key=value` query against them, and execute the cell — all without
//! compile-time knowledge of the config type. [`CellScenario`] is that
//! object-safe facade and [`Registry`] the name → scenario directory.
//!
//! Validation is canonicalizing: [`Registry::check`] fills declared
//! defaults and rejects unknown keys or out-of-range choices, so two
//! queries that *mean* the same cell normalize to the same parameter
//! pairs — the property result caches key on. Each domain's
//! [`ParamSpec`]s are read once, when it is registered, and a check
//! borrows its pairs from the query and from those stored specs, so
//! validating a repeated query copies nothing; [`Registry::validate`]
//! is the same check over an owned map.

use crate::cancel::CancelToken;
use crate::seed::derive_seed;
use atlarge_stats::descriptive::Summary;
use atlarge_telemetry::tracer::Tracer;
use std::collections::{BTreeMap, BTreeSet};

/// One declared parameter of a [`CellScenario`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpec {
    /// Parameter name as it appears in queries.
    pub name: String,
    /// One-line human description.
    pub help: String,
    /// Value assumed when the query omits the parameter; `None` makes
    /// the parameter required.
    pub default: Option<String>,
    /// Closed set of accepted values; empty means free-form (the
    /// scenario parses and range-checks it at run time).
    pub choices: Vec<String>,
}

impl ParamSpec {
    /// A required free-form parameter.
    pub fn required(name: &str, help: &str) -> Self {
        ParamSpec {
            name: name.to_string(),
            help: help.to_string(),
            default: None,
            choices: Vec::new(),
        }
    }

    /// An optional free-form parameter with a default.
    pub fn optional(name: &str, help: &str, default: &str) -> Self {
        ParamSpec {
            default: Some(default.to_string()),
            ..ParamSpec::required(name, help)
        }
    }

    /// An optional parameter restricted to `choices`, defaulting to the
    /// first choice.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty.
    pub fn choice(name: &str, help: &str, choices: &[&str]) -> Self {
        assert!(!choices.is_empty(), "a choice parameter needs choices");
        ParamSpec {
            default: Some(choices[0].to_string()),
            choices: choices.iter().map(|c| c.to_string()).collect(),
            ..ParamSpec::required(name, help)
        }
    }
}

/// What one validated cell execution produced: replication summaries
/// per metric, plus free-form notes (e.g. the finding string of a
/// table row). Everything here is deterministic in `(params, seed,
/// replications)` — no wall-clock, no environment.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutput {
    /// `(metric name, summary over replications)` in a fixed,
    /// scenario-chosen order.
    pub metrics: Vec<(String, Summary)>,
    /// `(key, value)` annotations in a fixed order.
    pub notes: Vec<(String, String)>,
}

/// An object-safe, string-parameterized view of one experiment domain.
///
/// Implementations parse the validated parameter map into the domain's
/// config, run the declared replication count through
/// [`run_replicated`] with the same run function the domain's campaign
/// calls (seeds derived exactly as a single-cell
/// [`Campaign`](crate::Campaign) would), and summarize outcomes into a
/// [`CellOutput`].
pub trait CellScenario: Send + Sync {
    /// Registry key, e.g. `"autoscaling"`.
    fn domain(&self) -> &str;

    /// One-line description for discovery endpoints.
    fn describe(&self) -> &str;

    /// Declared parameters, in documentation order.
    fn params(&self) -> Vec<ParamSpec>;

    /// Executes one cell: `params` is already validated and
    /// canonicalized (defaults filled), `seed` is the root seed,
    /// `replications >= 1`. Polls `cancel` at replication boundaries
    /// and returns `Err` describing the first problem (unparseable
    /// value, cancellation) — never a partial result.
    fn run_cell(
        &self,
        params: &BTreeMap<String, String>,
        seed: u64,
        replications: usize,
        cancel: &CancelToken,
        tracer: &dyn Tracer,
    ) -> Result<CellOutput, String>;
}

/// Runs `replications` of `run`, serially, with the same seed stream a
/// single-cell independent-mode [`Campaign`](crate::Campaign) derives
/// (`derive_seed(root, 0, rep)`), polling `cancel` before each
/// replication.
///
/// Returns `Err` when cancelled — the standard replication loop for
/// [`CellScenario`] implementations, so every domain inherits identical
/// cancellation and seeding semantics.
pub fn run_replicated<O>(
    root_seed: u64,
    replications: usize,
    cancel: &CancelToken,
    run: impl Fn(u64) -> O,
) -> Result<Vec<O>, String> {
    let mut outcomes = Vec::with_capacity(replications);
    for rep in 0..replications {
        if cancel.is_cancelled() {
            return Err("cancelled".to_string());
        }
        outcomes.push(run(derive_seed(root_seed, 0, rep as u64)));
    }
    Ok(outcomes)
}

/// Parses `params[name]` with `FromStr`, turning failures into a
/// query-error string naming the parameter. Validation guarantees
/// presence, so a missing key is an implementation bug and panics.
pub fn parse_param<T: std::str::FromStr>(
    params: &BTreeMap<String, String>,
    name: &str,
) -> Result<T, String> {
    let raw = params
        .get(name)
        .unwrap_or_else(|| panic!("validated params must contain '{name}'"));
    raw.parse::<T>()
        .map_err(|_| format!("parameter '{name}': cannot parse '{raw}'"))
}

/// One registered domain: its scenario, and the parameter specs the
/// scenario declared, read once at registration.
struct Cell {
    scenario: Box<dyn CellScenario>,
    /// Declared specs, in documentation order.
    specs: Vec<ParamSpec>,
    /// Indices into `specs`, sorted by parameter name: the canonical
    /// order of a validated query's pairs.
    by_name: Vec<usize>,
}

/// The domain-name → scenario directory an exploration service serves.
#[derive(Default)]
pub struct Registry {
    cells: BTreeMap<String, Cell>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `scenario` under its [`CellScenario::domain`] key and
    /// stores its declared [`ParamSpec`]s.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate domain name, or on a scenario declaring
    /// one parameter name twice — registries are assembled once, at
    /// startup, and a silent overwrite would hide the bug.
    pub fn register(&mut self, scenario: Box<dyn CellScenario>) -> &mut Self {
        let domain = scenario.domain().to_string();
        let specs = scenario.params();
        let mut by_name: Vec<usize> = (0..specs.len()).collect();
        by_name.sort_by(|&a, &b| specs[a].name.cmp(&specs[b].name));
        assert!(
            by_name
                .windows(2)
                .all(|w| specs[w[0]].name != specs[w[1]].name),
            "domain '{domain}' declares a parameter twice"
        );
        let cell = Cell {
            scenario,
            specs,
            by_name,
        };
        let clash = self.cells.insert(domain.clone(), cell);
        assert!(clash.is_none(), "domain '{domain}' registered twice");
        self
    }

    /// Looks a domain up by name.
    pub fn get(&self, domain: &str) -> Option<&dyn CellScenario> {
        self.cells.get(domain).map(|c| c.scenario.as_ref())
    }

    /// The parameters `domain` declared, in documentation order.
    pub fn specs(&self, domain: &str) -> Option<&[ParamSpec]> {
        self.cells.get(domain).map(|c| c.specs.as_slice())
    }

    /// Registered domain names, sorted.
    pub fn domains(&self) -> Vec<&str> {
        self.cells.keys().map(|k| k.as_str()).collect()
    }

    /// Validates and canonicalizes a raw query against `domain`'s
    /// declared parameters: unknown keys and out-of-choice values are
    /// rejected, omitted optional parameters get their defaults, and
    /// omitted required parameters are an error. The returned map is
    /// the *canonical cell identity* — byte-equal maps mean the same
    /// cell, which is what fingerprint caches rely on.
    ///
    /// An owned-map form of [`Registry::check`].
    pub fn validate(
        &self,
        domain: &str,
        raw: &BTreeMap<String, String>,
    ) -> Result<BTreeMap<String, String>, String> {
        let mut check = self.check(domain);
        for (key, value) in raw {
            check.push(key, value)?;
        }
        Ok(check
            .finish()?
            .into_iter()
            .map(|(key, value)| (key.to_string(), value.to_string()))
            .collect())
    }

    /// Starts validating a query's parameters for `domain`, with
    /// nothing copied: feed the pairs to [`ParamCheck::push`], then
    /// [`ParamCheck::finish`] returns the canonical pairs, borrowed
    /// from the query or from the stored defaults.
    pub fn check<'a>(&'a self, domain: &'a str) -> ParamCheck<'a> {
        let cell = self.cells.get(domain);
        ParamCheck {
            registry: self,
            domain,
            cell,
            given: vec![None; cell.map_or(0, |c| c.specs.len())],
            unknown: BTreeSet::new(),
        }
    }
}

/// The validation of one query's parameters against one domain's
/// declared specs, fed a pair at a time. The one validation
/// implementation: [`Registry::validate`] runs it over an owned map.
pub struct ParamCheck<'a> {
    registry: &'a Registry,
    domain: &'a str,
    /// `None` for a domain nobody registered; reported by `finish`.
    cell: Option<&'a Cell>,
    /// The value given for each declared spec, in documentation order.
    given: Vec<Option<&'a str>>,
    /// Keys no spec declares, sorted so a refusal names the first.
    unknown: BTreeSet<&'a str>,
}

impl<'a> ParamCheck<'a> {
    /// Records one `key=value` pair, in the order the query gives them.
    /// A key given twice is refused here, at its second occurrence.
    pub fn push(&mut self, key: &'a str, value: &'a str) -> Result<(), String> {
        let declared = self.cell.and_then(|cell| {
            cell.by_name
                .binary_search_by(|&i| cell.specs[i].name.as_str().cmp(key))
                .ok()
                .map(|at| cell.by_name[at])
        });
        let first = match declared {
            Some(i) => self.given[i].replace(value).is_none(),
            None => self.unknown.insert(key),
        };
        if first {
            Ok(())
        } else {
            Err(format!("parameter '{key}' given twice"))
        }
    }

    /// Checks what the pairs add up to, refusing, in this order, an
    /// unknown domain, an undeclared key (the alphabetically first),
    /// and then — spec by spec, in documentation order — a missing
    /// required parameter or a value outside the declared choices.
    /// Returns every declared parameter once, sorted by name, with
    /// defaults filled: byte-equal results mean the same cell.
    pub fn finish(mut self) -> Result<Vec<(&'a str, &'a str)>, String> {
        let domain = self.domain;
        let Some(cell) = self.cell else {
            return Err(format!(
                "unknown domain '{domain}' (have: {})",
                self.registry.domains().join(", ")
            ));
        };
        if let Some(key) = self.unknown.first() {
            let known: Vec<&str> = cell.specs.iter().map(|s| s.name.as_str()).collect();
            return Err(format!(
                "unknown parameter '{key}' for domain '{domain}' (have: {})",
                known.join(", ")
            ));
        }
        for (spec, given) in cell.specs.iter().zip(&mut self.given) {
            let value = match (*given, &spec.default) {
                (Some(v), _) => v,
                (None, Some(d)) => d.as_str(),
                (None, None) => {
                    return Err(format!(
                        "missing required parameter '{}' for domain '{domain}'",
                        spec.name
                    ))
                }
            };
            if !spec.choices.is_empty() && !spec.choices.iter().any(|c| c == value) {
                return Err(format!(
                    "parameter '{}': '{value}' is not one of {}",
                    spec.name,
                    spec.choices.join("|")
                ));
            }
            *given = Some(value);
        }
        Ok(cell
            .by_name
            .iter()
            .map(|&i| {
                let value = self.given[i].expect("every spec was filled above");
                (cell.specs[i].name.as_str(), value)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Campaign;
    use atlarge_telemetry::tracer::NullTracer;

    fn mix(config: &u64, seed: u64) -> u64 {
        crate::seed::splitmix64_mix(config ^ seed)
    }

    struct MixerCell;
    impl CellScenario for MixerCell {
        fn domain(&self) -> &str {
            "mixer"
        }
        fn describe(&self) -> &str {
            "splitmix of config and seed"
        }
        fn params(&self) -> Vec<ParamSpec> {
            vec![
                ParamSpec::required("x", "the value to mix"),
                ParamSpec::choice("mode", "mixing mode", &["plain", "twice"]),
                ParamSpec::optional("bias", "added before mixing", "0"),
            ]
        }
        fn run_cell(
            &self,
            params: &BTreeMap<String, String>,
            seed: u64,
            replications: usize,
            cancel: &CancelToken,
            _tracer: &dyn Tracer,
        ) -> Result<CellOutput, String> {
            let x: u64 = parse_param(params, "x")?;
            let bias: u64 = parse_param(params, "bias")?;
            let config = x.wrapping_add(bias);
            let outcomes = run_replicated(seed, replications, cancel, |s| mix(&config, s))?;
            let twice = params["mode"] == "twice";
            let values = outcomes.iter().map(|&o| {
                if twice {
                    (o % 97) as f64 * 2.0
                } else {
                    (o % 97) as f64
                }
            });
            Ok(CellOutput {
                metrics: vec![("mixed".to_string(), Summary::from_iter(values))],
                notes: vec![("mode".to_string(), params["mode"].clone())],
            })
        }
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register(Box::new(MixerCell));
        r
    }

    fn raw(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn validate_fills_defaults_and_canonicalizes() {
        let r = registry();
        let a = r.validate("mixer", &raw(&[("x", "5")])).unwrap();
        let b = r
            .validate(
                "mixer",
                &raw(&[("x", "5"), ("mode", "plain"), ("bias", "0")]),
            )
            .unwrap();
        assert_eq!(a, b, "defaults make the two queries the same cell");
        assert_eq!(a["mode"], "plain");
    }

    #[test]
    fn validate_rejects_bad_queries() {
        let r = registry();
        assert!(r
            .validate("nope", &raw(&[]))
            .unwrap_err()
            .contains("unknown domain"));
        assert!(r
            .validate("mixer", &raw(&[("x", "1"), ("y", "2")]))
            .unwrap_err()
            .contains("unknown parameter 'y'"));
        assert!(r
            .validate("mixer", &raw(&[]))
            .unwrap_err()
            .contains("missing required parameter 'x'"));
        assert!(r
            .validate("mixer", &raw(&[("x", "1"), ("mode", "thrice")]))
            .unwrap_err()
            .contains("not one of plain|twice"));
    }

    #[test]
    fn check_borrows_canonical_pairs_in_name_order() {
        let r = registry();
        let mut check = r.check("mixer");
        check.push("x", "5").unwrap();
        check.push("mode", "twice").unwrap();
        let pairs = check.finish().unwrap();
        assert_eq!(pairs, vec![("bias", "0"), ("mode", "twice"), ("x", "5")]);
        let owned = r
            .validate("mixer", &raw(&[("x", "5"), ("mode", "twice")]))
            .unwrap();
        let owned: Vec<(&str, &str)> = owned
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(pairs, owned, "validate is the same check over a map");
    }

    #[test]
    fn check_refuses_a_repeated_key_at_its_second_occurrence() {
        let r = registry();
        for domain in ["mixer", "nope"] {
            for key in ["x", "y"] {
                let mut check = r.check(domain);
                check.push(key, "1").unwrap();
                assert_eq!(
                    check.push(key, "2").unwrap_err(),
                    format!("parameter '{key}' given twice"),
                    "{domain}"
                );
            }
        }
        let mut check = r.check("mixer");
        for key in ["zz", "x", "aa"] {
            check.push(key, "1").unwrap();
        }
        assert_eq!(
            check.finish().unwrap_err(),
            "unknown parameter 'aa' for domain 'mixer' (have: x, mode, bias)",
            "the alphabetically first undeclared key is named"
        );
    }

    #[test]
    fn specs_are_read_once_at_registration() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl CellScenario for Counted {
            fn domain(&self) -> &str {
                "counted"
            }
            fn describe(&self) -> &str {
                "counts params() calls"
            }
            fn params(&self) -> Vec<ParamSpec> {
                CALLS.fetch_add(1, Ordering::Relaxed);
                vec![ParamSpec::optional("k", "a knob", "1")]
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
        let mut r = Registry::new();
        r.register(Box::new(Counted));
        for _ in 0..3 {
            r.validate("counted", &raw(&[("k", "2")])).unwrap();
        }
        assert_eq!(r.specs("counted").unwrap()[0].name, "k");
        assert_eq!(CALLS.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_cell_is_deterministic_and_parses_errors() {
        let r = registry();
        let params = r.validate("mixer", &raw(&[("x", "7")])).unwrap();
        let token = CancelToken::new();
        let s = r.get("mixer").unwrap();
        let a = s.run_cell(&params, 42, 5, &token, &NullTracer).unwrap();
        let b = s.run_cell(&params, 42, 5, &token, &NullTracer).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.metrics[0].1.len(), 5);

        let bad = r.validate("mixer", &raw(&[("x", "seven")])).unwrap(); // free-form passes validation...
        let err = s.run_cell(&bad, 42, 1, &token, &NullTracer).unwrap_err();
        assert!(
            err.contains("cannot parse 'seven'"),
            "...and fails in run_cell: {err}"
        );
    }

    #[test]
    fn cancelled_cell_returns_error_not_partial_output() {
        let r = registry();
        let params = r.validate("mixer", &raw(&[("x", "7")])).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = r
            .get("mixer")
            .unwrap()
            .run_cell(&params, 42, 5, &token, &NullTracer)
            .unwrap_err();
        assert_eq!(err, "cancelled");
    }

    #[test]
    fn cancel_between_replications_returns_error_not_partial_output() {
        // A hang-up lands mid-run: the token fires during the second of
        // five replications, the third never starts, and nothing of the
        // two finished runs escapes.
        let token = CancelToken::new();
        let executed = std::cell::Cell::new(0);
        let out = run_replicated(42, 5, &token, |seed| {
            executed.set(executed.get() + 1);
            if executed.get() == 2 {
                token.cancel();
            }
            seed
        });
        assert_eq!(out, Err("cancelled".to_string()));
        assert_eq!(executed.get(), 2);
    }

    #[test]
    fn run_replicated_matches_single_cell_campaign() {
        let outcomes =
            run_replicated(99, 4, &CancelToken::new(), |s| mix(&11, s)).expect("not cancelled");
        let campaign = Campaign::new("m", mix)
            .replications(4)
            .root_seed(99)
            .threads(1)
            .run(|_| 11u64);
        let campaign_outcomes: Vec<u64> =
            campaign.cells[0].runs.iter().map(|r| r.outcome).collect();
        assert_eq!(outcomes, campaign_outcomes);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut r = registry();
        r.register(Box::new(MixerCell));
    }
}
