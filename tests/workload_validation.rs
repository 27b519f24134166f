//! The full validation matrix: every kernel × every ISA × every standard
//! interface must reproduce its golden model exactly (the paper's §V-D,
//! where "no additional errors were found during the interface validation
//! runs" is the pass condition).

use lis_core::STANDARD_BUILDSETS;
use lis_runtime::Simulator;
use lis_workloads::{spec_of, suite_of, ISAS};

#[test]
fn every_kernel_on_every_interface() {
    let mut runs = 0usize;
    for isa in ISAS {
        for w in suite_of(isa) {
            let image = w.assemble().unwrap();
            let expected = w.expected_stdout();
            for bs in STANDARD_BUILDSETS {
                // The recursive kernel is the slowest; validate it on a
                // representative subset of interfaces to bound test time.
                if w.name == "fib" && !matches!(bs.name, "block-min" | "one-all" | "step-all") {
                    continue;
                }
                let mut sim = Simulator::new(spec_of(isa), bs).unwrap();
                sim.load_program(&image).unwrap();
                let summary = sim
                    .run_to_halt(100_000_000)
                    .unwrap_or_else(|e| panic!("{isa}/{}/{}: {e}", w.name, bs.name));
                assert_eq!(summary.exit_code, 0, "{isa}/{}/{}", w.name, bs.name);
                assert_eq!(
                    String::from_utf8_lossy(sim.stdout()),
                    expected,
                    "{isa}/{}/{}",
                    w.name,
                    bs.name
                );
                runs += 1;
            }
        }
    }
    // 3 ISAs x (7 kernels x 12 interfaces + fib x 3 interfaces)
    assert_eq!(runs, 3 * (7 * 12 + 3));
}
