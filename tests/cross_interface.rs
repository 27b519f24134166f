//! The toolkit's strongest invariant: for any program, every derived
//! interface produces bit-identical architectural results.
//!
//! Property-based: random programs are generated for each ISA and executed
//! under all twelve standard buildsets and both backends; final registers,
//! OS output, and instruction counts must agree exactly.

use lis_core::{ArchState, STANDARD_BUILDSETS};
use lis_runtime::{Backend, Simulator};
use lis_workloads::{gen::random_program, spec_of};
use proptest::prelude::*;

fn run(
    isa: &str,
    src: &str,
    bs: lis_core::BuildsetDef,
    backend: Backend,
) -> (ArchState, String, u64) {
    let image = match isa {
        "alpha" => lis_isa_alpha::assemble(src),
        "arm" => lis_isa_arm::assemble(src),
        _ => lis_isa_ppc::assemble(src),
    }
    .expect("generated programs assemble");
    let mut sim = Simulator::new(spec_of(isa), bs).unwrap();
    sim.set_backend(backend);
    sim.load_program(&image).unwrap();
    sim.run_to_halt(10_000_000).unwrap_or_else(|e| panic!("{isa}/{}: {e}\n{src}", bs.name));
    (sim.state.clone(), String::from_utf8_lossy(sim.stdout()).into_owned(), sim.stats.insts)
}

fn check_all_interfaces(isa: &str, seed: u64, len: usize) {
    let src = random_program(isa, seed, len);
    let reference = run(isa, &src, lis_core::ONE_ALL, Backend::Compiled);
    for bs in STANDARD_BUILDSETS {
        for backend in Backend::ALL {
            let got = run(isa, &src, bs, backend);
            assert_eq!(got.1, reference.1, "{isa}/{}/{backend:?}: stdout differs", bs.name);
            assert_eq!(got.2, reference.2, "{isa}/{}/{backend:?}: inst count differs", bs.name);
            assert!(
                got.0.regs_eq(&reference.0),
                "{isa}/{}/{backend:?}: {}\n{src}",
                bs.name,
                got.0.first_diff(&reference.0).unwrap_or_default()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn alpha_interfaces_agree(seed in 0u64..10_000, len in 20usize..120) {
        check_all_interfaces("alpha", seed, len);
    }

    #[test]
    fn arm_interfaces_agree(seed in 0u64..10_000, len in 20usize..120) {
        check_all_interfaces("arm", seed, len);
    }

    #[test]
    fn ppc_interfaces_agree(seed in 0u64..10_000, len in 20usize..120) {
        check_all_interfaces("ppc", seed, len);
    }
}
