//! The full verification matrix: every standard buildset on every backend,
//! for every ISA, in lockstep against the reference.

use crate::isolate::catch_cell;
use crate::lockstep::{job_label, lockstep_with, HarnessError, LockstepConfig, LockstepOutcome};
use lis_mem::Image;
use lis_runtime::Backend;
use lis_workloads::gen::random_program;
use lis_workloads::{spec_of, suite_of, ISAS};
use std::fmt;

/// Which workloads the matrix runs and how each lockstep is configured.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Suite kernels to run (by name); unknown names are ignored.
    pub kernels: Vec<&'static str>,
    /// Seeds for generated random programs.
    pub random_seeds: Vec<u64>,
    /// Length (static instructions) of each random program.
    pub random_len: usize,
    /// Backends to include in the matrix.
    pub backends: Vec<Backend>,
    /// Per-run lockstep settings.
    pub lockstep: LockstepConfig,
}

impl Default for VerifyConfig {
    /// A quick matrix: two short kernels plus two random programs per ISA.
    fn default() -> VerifyConfig {
        VerifyConfig {
            kernels: vec!["strrev", "hash31"],
            random_seeds: vec![0xC0FFEE, 7],
            random_len: 48,
            backends: Backend::ALL.to_vec(),
            lockstep: LockstepConfig::default(),
        }
    }
}

impl VerifyConfig {
    /// The exhaustive matrix: every suite kernel plus three random programs.
    pub fn full() -> VerifyConfig {
        VerifyConfig {
            kernels: vec!["sieve", "fib", "matmul", "hash31", "strrev", "sort", "gcd", "bitcount"],
            random_seeds: vec![1, 2, 3],
            random_len: 64,
            backends: Backend::ALL.to_vec(),
            lockstep: LockstepConfig::default(),
        }
    }
}

/// One failing cell of the matrix.
#[derive(Debug)]
pub struct VerifyFailure {
    /// `isa/buildset/backend/workload` label.
    pub job: String,
    /// What went wrong — usually a [`HarnessError::Divergence`].
    pub error: HarnessError,
}

/// The outcome of a matrix sweep.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Lockstep runs executed.
    pub jobs: usize,
    /// Total dynamic instructions compared.
    pub insts: u64,
    /// Every failing run.
    pub failures: Vec<VerifyFailure>,
}

impl VerifyReport {
    /// Whether every job passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: VerifyReport) {
        self.jobs += other.jobs;
        self.insts += other.insts;
        self.failures.extend(other.failures);
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} lockstep runs, {} instructions compared, {} failure(s)",
            self.jobs,
            self.insts,
            self.failures.len()
        )
    }
}

fn assemble(isa: &str, src: &str) -> Result<Image, lis_asm::AsmError> {
    lis_workloads::assemble_source(isa, src)
}

/// Sweeps one ISA: every standard buildset × every configured backend ×
/// every configured workload, in lockstep against the reference. Suite
/// kernels additionally have their stdout checked against the golden model.
pub fn verify_isa(isa: &str, cfg: &VerifyConfig) -> VerifyReport {
    let spec = spec_of(isa);
    let mut report = VerifyReport::default();

    // (name, image, expected stdout) — assembled once, shared by all cells.
    let mut programs: Vec<(String, Image, Option<String>)> = Vec::new();
    for w in suite_of(isa) {
        if cfg.kernels.contains(&w.name) {
            let image = w.assemble().expect("suite kernel assembles");
            programs.push((w.name.to_string(), image, Some(w.expected_stdout())));
        }
    }
    for &seed in &cfg.random_seeds {
        let src = random_program(isa, seed, cfg.random_len);
        let image = assemble(isa, &src).expect("generated program assembles");
        programs.push((format!("rand-{seed:x}"), image, None));
    }

    for (name, image, expected) in &programs {
        for bs in lis_core::STANDARD_BUILDSETS {
            for &backend in &cfg.backends {
                report.jobs += 1;
                let job = job_label(isa, &bs, backend, name);
                // One panicking cell must not take down the whole matrix —
                // report it as its own failure and keep sweeping.
                let outcome = match catch_cell(|| {
                    lockstep_with(spec, image, bs, backend, &cfg.lockstep, None)
                }) {
                    Ok(outcome) => outcome,
                    Err(msg) => {
                        report.failures.push(VerifyFailure {
                            job,
                            error: HarnessError::Unexpected(format!("cell crashed: {msg}")),
                        });
                        continue;
                    }
                };
                match outcome {
                    Ok(LockstepOutcome::Halted { exit_code, insts, stdout }) => {
                        report.insts += insts;
                        if let Some(want) = expected {
                            if stdout != want.as_bytes() {
                                report.failures.push(VerifyFailure {
                                    job,
                                    error: HarnessError::Unexpected(format!(
                                        "golden stdout mismatch: got {:?}, want {:?} (exit {exit_code})",
                                        String::from_utf8_lossy(&stdout),
                                        want
                                    )),
                                });
                            }
                        }
                    }
                    Ok(LockstepOutcome::Faulted { fault, insts }) => {
                        report.insts += insts;
                        // Random programs may legitimately fault the same way
                        // on both sides; suite kernels must not fault at all.
                        if expected.is_some() {
                            report.failures.push(VerifyFailure {
                                job,
                                error: HarnessError::Unexpected(format!(
                                    "kernel faulted after {insts} insts: {fault}"
                                )),
                            });
                        }
                    }
                    Ok(LockstepOutcome::MaxInsts { insts }) => {
                        report.insts += insts;
                        report.failures.push(VerifyFailure {
                            job,
                            error: HarnessError::Unexpected(format!(
                                "instruction budget exhausted after {insts} insts"
                            )),
                        });
                    }
                    Err(error) => report.failures.push(VerifyFailure { job, error }),
                }
            }
        }
    }
    report
}

/// Sweeps the whole matrix: all three ISAs through [`verify_isa`].
pub fn verify_all(cfg: &VerifyConfig) -> VerifyReport {
    let mut report = VerifyReport::default();
    for isa in ISAS {
        report.merge(verify_isa(isa, cfg));
    }
    report
}
