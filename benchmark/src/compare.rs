//! `benchmark compare BASE HEAD`: judges a change from two sets of runs.
//!
//! Each file holds the JSON records that `--out` appends, one per workload
//! run. For every workload and end-to-end metric the verdict follows the
//! choosing-metrics rules: the spread is the distance between the base
//! runs' quartiles; a spread wider than the bound leaves the metric
//! unresolved unless every head run beats every base run; a gain needs the
//! head to win at least nine tenths of the run pairs and to move the median
//! by more than the spread; a loss is a median worse by more than the bound.
//! Simulated results must not change at all: runs of one seed must carry
//! one `sim_digest`.

use crate::spec::{num, spec, Metric};
use crate::stats::{median, quartiles};
use lis_serve::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};

/// One untraced run as `--out` recorded it.
#[derive(Debug, Clone)]
struct Run {
    workload: String,
    seed: u64,
    digest: String,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if v.get("trace").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let str_of = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        let mut metrics = BTreeMap::new();
        if let Some(Value::Obj(ms)) = v.get("metrics") {
            for (name, m) in ms {
                if let Some(x) = m.get("value").and_then(num) {
                    metrics.insert(name.clone(), x);
                }
            }
        }
        runs.push(Run {
            workload: str_of("workload"),
            seed: v.get("seed").and_then(Value::as_u64).unwrap_or(0),
            digest: str_of("sim_digest"),
            metrics,
        });
    }
    Ok(runs)
}

/// The judgement on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The head is better, by the gain rule.
    Better,
    /// The head's median is worse than the base's by more than the bound.
    Worse,
    /// Within the bound, with a spread narrow enough to tell.
    Unchanged,
    /// The base runs spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges head runs against base runs of one metric. Runs pair up in file
/// order; ties count for neither side.
pub fn verdict(m: &Metric, base: &[f64], head: &[f64]) -> Verdict {
    let better = |h: f64, b: f64| if m.higher { h > b } else { h < b };
    let (mb, mh) = (median(base), median(head));
    let (q1, q3) = quartiles(base);
    let spread = q3 - q1;
    let all_better = head.iter().all(|&h| base.iter().all(|&b| better(h, b)));
    if spread > m.bound * mb.abs() {
        return if all_better { Verdict::Better } else { Verdict::Unresolved };
    }
    let pairs: Vec<(f64, f64)> = base.iter().copied().zip(head.iter().copied()).collect();
    let wins = pairs.iter().filter(|&&(b, h)| better(h, b)).count();
    if !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && better(mh, mb)
        && (mh - mb).abs() > spread
    {
        return Verdict::Better;
    }
    let worse_by = if m.higher { (mb - mh) / mb } else { (mh - mb) / mb };
    if worse_by > m.bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// Prints the comparison; returns the exit code (1 when any metric got
/// worse or any simulated result changed).
pub fn main(base_path: &str, head_path: &str) -> Result<u8, String> {
    let (base, head) = (load(base_path)?, load(head_path)?);
    let mut code = 0;
    println!(
        "{:<13} {:<10} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "[q1, q3]", "head", "[q1, q3]", "delta", "bound"
    );
    for w in &spec().workloads {
        let (b, h): (Vec<&Run>, Vec<&Run>) = (
            base.iter().filter(|r| &r.workload == w).collect(),
            head.iter().filter(|r| &r.workload == w).collect(),
        );
        if b.is_empty() || h.is_empty() {
            println!(
                "{w:<13} (no untraced runs on {} side)",
                if b.is_empty() { "base" } else { "head" }
            );
            continue;
        }
        for m in &spec().end_to_end {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.metrics.get(&m.name).copied()).collect()
            };
            let (bv, hv) = (values(&b), values(&h));
            let v = verdict(m, &bv, &hv);
            if v == Verdict::Worse {
                code = 1;
            }
            let (mb, mh) = (median(&bv), median(&hv));
            let ((bq1, bq3), (hq1, hq3)) = (quartiles(&bv), quartiles(&hv));
            println!(
                "{w:<13} {:<10} {mb:>12.4} [{bq1:>11.4}, {bq3:>11.4}] {mh:>12.4} [{hq1:>11.4}, {hq3:>11.4}] {:>+7.2}% {:>5.1}%  {} (n={}/{})",
                m.name,
                100.0 * (mh - mb) / mb,
                100.0 * m.bound,
                v.name(),
                bv.len(),
                hv.len()
            );
        }
        // Simulated results: one digest per seed, the same on both sides.
        let digests = |runs: &[&Run]| -> BTreeMap<u64, BTreeSet<String>> {
            let mut d: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
            for r in runs {
                d.entry(r.seed).or_default().insert(r.digest.clone());
            }
            d
        };
        let (db, dh) = (digests(&b), digests(&h));
        let mut shared = 0;
        for (seed, set) in &db {
            let other = dh.get(seed);
            if set.len() > 1 || other.is_some_and(|o| o != set || o.len() > 1) {
                println!("{w:<13} sim_digest DIFFERS on seed {seed}: base {set:?}, head {other:?}");
                code = 1;
            } else if other.is_some() {
                shared += 1;
            }
        }
        println!("{w:<13} sim_digest identical on {shared} shared seed(s)");
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> Metric {
        Metric { name: "m".into(), unit: "u".into(), higher, bound }
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let m = metric(true, 0.10);
        // Every pair won and the median moved by more than the spread.
        let up: Vec<f64> = base.iter().map(|b| b + 10.0).collect();
        assert_eq!(verdict(&m, &base, &up), Verdict::Better);
        // Same runs: unchanged.
        assert_eq!(verdict(&m, &base, &base), Verdict::Unchanged);
        // 15% lower on a higher-is-better metric with a 10% bound.
        let down: Vec<f64> = base.iter().map(|b| b * 0.85).collect();
        assert_eq!(verdict(&m, &base, &down), Verdict::Worse);
        // A lower-is-better metric reads the same runs the other way.
        assert_eq!(verdict(&metric(false, 0.10), &base, &down), Verdict::Better);
        // Base runs spread wider than the bound: unresolved unless every
        // head run beats every base run.
        let noisy = [50.0, 100.0, 150.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0, 100.0];
        assert_eq!(verdict(&m, &noisy, &noisy), Verdict::Unresolved);
        let far: Vec<f64> = noisy.iter().map(|x| x + 200.0).collect();
        assert_eq!(verdict(&m, &noisy, &far), Verdict::Better);
    }

    #[test]
    fn a_small_consistent_gain_within_the_spread_is_not_a_gain() {
        let base = [100.0, 104.0, 100.0, 104.0, 100.0, 104.0, 100.0, 104.0, 100.0, 104.0];
        let head: Vec<f64> = base.iter().map(|b| b + 1.0).collect();
        assert_eq!(verdict(&metric(true, 0.10), &base, &head), Verdict::Unchanged);
    }
}
