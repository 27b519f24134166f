//! The benchmark's catalog, read from the `BENCHMARK.json` beside this
//! package, so the workloads and metrics this binary emits and the ones the
//! file promises cannot drift apart.

use lis_serve::json::{self, Value};
use std::sync::OnceLock;

/// The catalog file, compiled in.
pub const SOURCE: &str = include_str!("../../BENCHMARK.json");

/// One metric the catalog names.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher: bool,
    /// Share of the parent's median by which it may worsen (end-to-end only).
    pub bound: f64,
}

/// The parsed catalog.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names, in catalog order.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<Metric>,
    /// Metrics of a traced run.
    pub per_layer: Vec<Metric>,
}

/// The compiled-in catalog.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(SOURCE).expect("BENCHMARK.json is well-formed"))
}

fn parse(src: &str) -> Result<Spec, String> {
    let v = json::parse(src).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let arr = |k: &str| v.get(k).and_then(Value::as_arr).ok_or(format!("missing `{k}`"));
    let metrics = |k: &str| -> Result<Vec<Metric>, String> {
        arr(k)?
            .iter()
            .map(|m| {
                let s = |f: &str| {
                    m.get(f).and_then(Value::as_str).map(str::to_string).ok_or(format!("{k}.{f}"))
                };
                Ok(Metric {
                    name: s("name")?,
                    unit: s("unit")?,
                    higher: s("better")? == "higher",
                    bound: m.get("bound").and_then(num).unwrap_or(0.0),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: v.get("run_seconds").and_then(num).ok_or("missing `run_seconds`")?,
        workloads: arr("workloads")?
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
            .collect::<Option<_>>()
            .ok_or("workload without a name")?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// A JSON number as `f64`.
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(x) => Some(*x),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_parses_and_names_are_unique() {
        let s = spec();
        assert!(s.run_seconds >= 1.0);
        let mut names: Vec<&str> = s.workloads.iter().map(String::as_str).collect();
        names.extend(s.end_to_end.iter().chain(&s.per_layer).map(|m| m.name.as_str()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(s.end_to_end.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup =
            s.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s is end-to-end");
        assert!(!setup.higher && setup.unit == "s");
        assert!(
            s.end_to_end.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
