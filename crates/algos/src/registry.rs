//! Name-based construction of every baseline in the crate.
//!
//! Experiments and the `simulate` CLI select policies with spec strings
//! instead of hand-wired `match` blocks. A spec is a registry name with
//! optional numeric parameters:
//!
//! ```text
//! lru
//! randomized
//! randomized(eta=0.25,beta=0.5)
//! randomized(beta=0.1)
//! ```
//!
//! [`PolicyRegistry`] covers the integral multi-level policies (classical
//! baselines plus the paper's randomized algorithm); [`WbPolicyRegistry`]
//! covers the native writeback baselines. Both expose their name lists so
//! callers can print what is available.

use wmlp_core::instance::MlInstance;
use wmlp_core::policy::OnlinePolicy;
use wmlp_core::writeback::{WbInstance, WbPolicy};

use crate::baselines::{Fifo, Landlord, Lru, Marking};
use crate::randomized::RandomizedMlPaging;
use crate::rounding::default_beta;
use crate::waterfill::WaterFill;
use crate::wb_baselines::{WbFifo, WbGreedyDual, WbLru};

/// A parsed policy spec: `name` or `name(key=value,...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySpec {
    /// Registry name.
    pub name: String,
    /// Numeric parameters in spec order.
    pub params: Vec<(String, f64)>,
}

impl PolicySpec {
    /// Parse a spec string.
    pub fn parse(spec: &str) -> Result<PolicySpec, String> {
        let spec = spec.trim();
        let Some(open) = spec.find('(') else {
            if spec.is_empty() {
                return Err("empty policy spec".into());
            }
            return Ok(PolicySpec {
                name: spec.to_string(),
                params: Vec::new(),
            });
        };
        let name = spec[..open].trim();
        let rest = &spec[open + 1..];
        let Some(body) = rest.strip_suffix(')') else {
            return Err(format!("unclosed `(` in policy spec `{spec}`"));
        };
        if name.is_empty() {
            return Err(format!("missing name in policy spec `{spec}`"));
        }
        let mut params = Vec::new();
        for part in body.split(',').filter(|p| !p.trim().is_empty()) {
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!("parameter `{part}` is not `key=value` in `{spec}`"));
            };
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("parameter `{part}` has a non-numeric value in `{spec}`"))?;
            params.push((key.trim().to_string(), value));
        }
        Ok(PolicySpec {
            name: name.to_string(),
            params,
        })
    }

    /// The value of parameter `key`, if given.
    pub fn param(&self, key: &str) -> Option<f64> {
        self.params.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Error unless every given parameter key is in `allowed`.
    fn check_params(&self, allowed: &[&str]) -> Result<(), String> {
        for (k, _) in &self.params {
            if !allowed.contains(&k.as_str()) {
                return Err(format!(
                    "policy `{}` does not take parameter `{k}` (allowed: {allowed:?})",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

type MlCtor = fn(&PolicySpec, &MlInstance, u64) -> Result<Box<dyn OnlinePolicy>, String>;

struct MlEntry {
    name: &'static str,
    summary: &'static str,
    params: &'static [&'static str],
    ctor: MlCtor,
}

/// Registry of integral multi-level policies, keyed by spec name.
pub struct PolicyRegistry {
    entries: Vec<MlEntry>,
}

impl PolicyRegistry {
    /// The standard registry: every integral baseline and randomized
    /// algorithm in the crate.
    pub fn standard() -> Self {
        let entries = vec![
            MlEntry {
                name: "lru",
                summary: "least-recently-used, weight-oblivious",
                params: &[],
                ctor: |_, inst, _| Ok(Box::new(Lru::new(inst))),
            },
            MlEntry {
                name: "fifo",
                summary: "first-in-first-out, weight-oblivious",
                params: &[],
                ctor: |_, inst, _| Ok(Box::new(Fifo::new(inst))),
            },
            MlEntry {
                name: "marking",
                summary: "randomized marking (Θ(log k) unweighted)",
                params: &[],
                ctor: |_, inst, seed| Ok(Box::new(Marking::new(inst, seed))),
            },
            MlEntry {
                name: "landlord",
                summary: "Landlord / GreedyDual credit eviction",
                params: &[],
                ctor: |_, inst, _| Ok(Box::new(Landlord::new(inst))),
            },
            MlEntry {
                name: "waterfill",
                summary: "deterministic O(k) water-filling (paper §4.1)",
                params: &[],
                ctor: |_, inst, _| Ok(Box::new(WaterFill::new(inst))),
            },
            MlEntry {
                name: "randomized",
                summary: "fractional + rounding, O(log²k) multi-level (paper Thm 1.2)",
                params: &["eta", "beta"],
                ctor: |spec, inst, seed| {
                    let eta = spec.param("eta").unwrap_or(1.0 / inst.k() as f64);
                    let beta = spec.param("beta").unwrap_or_else(|| default_beta(inst.k()));
                    Ok(Box::new(RandomizedMlPaging::new(inst, eta, beta, seed)))
                },
            },
        ];
        PolicyRegistry { entries }
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Registered spec shapes, in registration order: the name alone for
    /// parameterless policies, `name(p1,p2)` otherwise. This is what
    /// error messages and `--list-policies` print, so a typo'd spec
    /// shows not just what exists but how to parameterize it.
    pub fn specs(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| {
                if e.params.is_empty() {
                    e.name.to_string()
                } else {
                    format!("{}({})", e.name, e.params.join(","))
                }
            })
            .collect()
    }

    /// One `name — summary` line per policy, for CLI help.
    pub fn describe(&self) -> String {
        self.entries
            .iter()
            .map(|e| {
                if e.params.is_empty() {
                    format!("  {:<16} {}", e.name, e.summary)
                } else {
                    format!(
                        "  {:<16} {} [params: {}]",
                        e.name,
                        e.summary,
                        e.params.join(", ")
                    )
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Build the policy described by `spec` for `inst`, seeding randomized
    /// policies with `seed`.
    pub fn build(
        &self,
        spec: &str,
        inst: &MlInstance,
        seed: u64,
    ) -> Result<Box<dyn OnlinePolicy>, String> {
        let parsed = PolicySpec::parse(spec)?;
        let entry = self
            .entries
            .iter()
            .find(|e| e.name == parsed.name)
            .ok_or_else(|| {
                format!(
                    "no policy named `{}`; valid specs: {}",
                    parsed.name,
                    self.specs().join(", ")
                )
            })?;
        parsed.check_params(entry.params)?;
        (entry.ctor)(&parsed, inst, seed)
    }
}

/// The registry *is* a [`wmlp_sim::runner::PolicyFactory`], so it plugs
/// straight into a [`wmlp_sim::runner::Runner`] grid.
impl wmlp_sim::runner::PolicyFactory for PolicyRegistry {
    fn build(
        &self,
        spec: &str,
        inst: &MlInstance,
        seed: u64,
    ) -> Result<Box<dyn OnlinePolicy>, String> {
        PolicyRegistry::build(self, spec, inst, seed)
    }
}

type WbCtor = fn(&PolicySpec, &WbInstance, u64) -> Result<Box<dyn WbPolicy>, String>;

struct WbEntry {
    name: &'static str,
    summary: &'static str,
    ctor: WbCtor,
}

/// Registry of native writeback baselines ([`WbPolicy`] implementors).
pub struct WbPolicyRegistry {
    entries: Vec<WbEntry>,
}

impl WbPolicyRegistry {
    /// The standard writeback registry.
    pub fn standard() -> Self {
        let entries = vec![
            WbEntry {
                name: "wb-lru",
                summary: "writeback-oblivious LRU",
                ctor: |_, inst, _| Ok(Box::new(WbLru::new(inst.n()))),
            },
            WbEntry {
                name: "wb-fifo",
                summary: "writeback-oblivious FIFO",
                ctor: |_, inst, _| Ok(Box::new(WbFifo::new(inst.n()))),
            },
            WbEntry {
                name: "wb-greedydual",
                summary: "writeback-aware GreedyDual (dirty pages carry w1)",
                ctor: |_, inst, _| Ok(Box::new(WbGreedyDual::new(inst.costs()))),
            },
        ];
        WbPolicyRegistry { entries }
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Registered spec shapes (all parameterless today), matching
    /// [`PolicyRegistry::specs`].
    pub fn specs(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.name.to_string()).collect()
    }

    /// One `name — summary` line per policy, for CLI help.
    pub fn describe(&self) -> String {
        self.entries
            .iter()
            .map(|e| format!("  {:<16} {}", e.name, e.summary))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Build the writeback policy described by `spec`.
    pub fn build(
        &self,
        spec: &str,
        inst: &WbInstance,
        seed: u64,
    ) -> Result<Box<dyn WbPolicy>, String> {
        let parsed = PolicySpec::parse(spec)?;
        let entry = self
            .entries
            .iter()
            .find(|e| e.name == parsed.name)
            .ok_or_else(|| {
                format!(
                    "no writeback policy named `{}`; valid specs: {}",
                    parsed.name,
                    self.specs().join(", ")
                )
            })?;
        parsed.check_params(&[])?;
        (entry.ctor)(&parsed, inst, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_core::cost::CostModel;
    use wmlp_core::instance::Request;
    use wmlp_sim::engine::run_policy;

    fn inst() -> MlInstance {
        MlInstance::weighted_paging(2, vec![8, 4, 2, 1]).unwrap()
    }

    #[test]
    fn spec_parsing() {
        let s = PolicySpec::parse("randomized(eta=0.5, beta=0.25)").unwrap();
        assert_eq!(s.name, "randomized");
        assert_eq!(s.param("eta"), Some(0.5));
        assert_eq!(s.param("beta"), Some(0.25));
        assert_eq!(s.param("gamma"), None);
        assert_eq!(PolicySpec::parse("lru").unwrap().params.len(), 0);
        assert!(PolicySpec::parse("").is_err());
        assert!(PolicySpec::parse("x(beta)").is_err());
        assert!(PolicySpec::parse("x(beta=hi)").is_err());
        assert!(PolicySpec::parse("x(beta=1").is_err());
    }

    #[test]
    fn every_registered_policy_runs() {
        let inst = inst();
        let trace: Vec<Request> = (0..40).map(|i| Request::top(i % 4)).collect();
        let reg = PolicyRegistry::standard();
        for name in reg.names() {
            let mut p = reg
                .build(name, &inst, 7)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let res = run_policy(&inst, &trace, p.as_mut(), false)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                res.ledger.total(CostModel::Fetch) > 0,
                "{name} paid nothing"
            );
        }
    }

    #[test]
    fn parameters_reach_the_policy() {
        let inst = inst();
        // An explicit beta changes the rounding threshold stream; both
        // specs must at least construct and run.
        let reg = PolicyRegistry::standard();
        let trace: Vec<Request> = (0..60).map(|i| Request::top((i * 3) % 4)).collect();
        for spec in ["randomized(eta=0.9,beta=0.9)", "randomized(beta=0.05)"] {
            let mut p = reg.build(spec, &inst, 3).unwrap();
            run_policy(&inst, &trace, p.as_mut(), false).unwrap();
        }
        assert!(reg.build("lru(beta=1)", &inst, 0).is_err());
        let Err(msg) = reg.build("unknown", &inst, 0) else {
            panic!("unknown spec accepted");
        };
        // Unknown names list the full spec shapes, parameters included.
        assert!(msg.contains("valid specs"), "{msg}");
        assert!(msg.contains("randomized(eta,beta)"), "{msg}");
        assert!(msg.contains("lru"), "{msg}");
    }

    #[test]
    fn wb_registry_builds_all() {
        use wmlp_core::writeback::{run_wb_policy, WbRequest};
        let inst = WbInstance::uniform(2, 6, 10, 1).unwrap();
        let trace: Vec<WbRequest> = (0..30)
            .map(|i| {
                if i % 3 == 0 {
                    WbRequest::write(i % 6)
                } else {
                    WbRequest::read(i % 6)
                }
            })
            .collect();
        let reg = WbPolicyRegistry::standard();
        for name in reg.names() {
            let mut p = reg.build(name, &inst, 1).unwrap();
            let stats = run_wb_policy(&inst, &trace, p.as_mut());
            assert!(stats.cost > 0, "{name} paid nothing");
        }
        assert!(reg.build("wb-lru(x=1)", &inst, 0).is_err());
        assert!(reg.build("nope", &inst, 0).is_err());
    }
}
