//! Pins every organization's timing report, not only the out-of-order one.
//!
//! `BENCH_sweep.json` pins `OooCore` across the whole matrix, but nothing
//! else pins the in-order `CoreModel` (integrated, functional-first,
//! timing-first, speculative functional-first) or the timing-directed
//! scoreboard. This test runs all six organizations on two kernels of every
//! ISA under every timing preset and compares the simulated counters with
//! the committed `golden.txt`, line for line. A change to any timing model
//! that is meant to be behavior-preserving must leave that file unchanged.
//!
//! Regenerate the file (only for an intended model change) with
//! `cargo test -p lis-timing --test golden -- --ignored`.

use lis_timing::{
    run_functional_first, run_functional_first_ooo, run_integrated,
    run_speculative_functional_first, run_timing_directed, run_timing_first, CoreConfig, OooConfig,
    TimingConfig, TimingReport,
};
use lis_workloads::{kernel, spec_of, ISAS};
use std::fmt::Write as _;

const KERNELS: [&str; 2] = ["matmul", "strrev"];

/// One line per (ISA × kernel × preset × organization).
fn render() -> String {
    let mut out = String::new();
    for isa in ISAS {
        let spec = spec_of(isa);
        for name in KERNELS {
            let image = kernel(isa, name).expect("suite kernel").assemble().expect("assembles");
            for preset in TimingConfig::PRESETS {
                let cfg = CoreConfig { timing: preset, ..CoreConfig::default() };
                let reports: [TimingReport; 6] = [
                    run_integrated(spec, &image, &cfg).unwrap(),
                    run_functional_first(spec, &image, &cfg).unwrap(),
                    run_timing_directed(spec, &image, &cfg).unwrap(),
                    run_timing_first(spec, &image, &cfg, None).unwrap(),
                    run_speculative_functional_first(spec, &image, &cfg, &[]).unwrap(),
                    run_functional_first_ooo(spec, &image, &cfg, &OooConfig::default()).unwrap(),
                ];
                for r in &reports {
                    writeln!(
                        out,
                        "{isa} {name} {} {} cycles={} insts={} icache_misses={} \
                         dcache_misses={} mispredicts={}",
                        preset.name,
                        r.organization,
                        r.cycles,
                        r.insts,
                        r.icache_misses,
                        r.dcache_misses,
                        r.mispredicts
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden.txt")
}

#[test]
fn every_organization_matches_its_golden_report() {
    let want = std::fs::read_to_string(golden_path()).expect("golden.txt is committed");
    let got = render();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "golden.txt line {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "golden.txt line count");
}

#[test]
#[ignore = "rewrites tests/golden.txt; run only for an intended model change"]
fn regenerate_golden() {
    std::fs::write(golden_path(), render()).expect("golden.txt is writable");
}
