//! Minimal argument parsing (no external dependencies).

use lis_runtime::Backend;

/// Parsed command-line options shared by all subcommands.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input file path (or `-` for stdin).
    pub input: Option<String>,
    /// ISA name.
    pub isa: String,
    /// Buildset name for `run`.
    pub buildset: String,
    /// Execution backend for `run`.
    pub backend: Backend,
    /// True when `--backend` was given explicitly (`verify` restricts the
    /// matrix to that backend; by default it runs all of them).
    pub backend_explicit: bool,
    /// Per-instruction trace flag.
    pub trace: bool,
    /// Instruction-mix histogram flag.
    pub mix: bool,
    /// Instruction budget.
    pub max: u64,
    /// Timing organization, when driving a timing model (`run`); a
    /// comma-separated timing-preset list for `sweep` and `trace replay`.
    pub timing: Option<String>,
    /// Timing-component preset (predictor/replacement/prefetcher) for the
    /// `run` timing models.
    pub preset: Option<String>,
    /// Wall-clock watchdog in seconds (`run`, `chaos`).
    pub deadline: Option<u64>,
    /// First seed of a chaos campaign.
    pub chaos_seed: u64,
    /// Mean instructions between injections per chaos channel.
    pub period: u64,
    /// Number of seeded runs in a chaos campaign.
    pub runs: u32,
    /// Run the exhaustive verification matrix instead of the quick one.
    pub full: bool,
    /// Enable the page-unmap chaos channel (persistent faults).
    pub unmap: bool,
    /// Enable the translate-fault chaos channel (silent superblock
    /// poisoning; only meaningful with the compiled backend).
    pub translate: bool,
    /// Supervised chaos: shadow every run with a lockstep reference and
    /// spot-check the full architectural state.
    pub paranoid: bool,
    /// Interface units between supervised spot checks.
    pub spot_stride: u64,
    /// Recover from divergences via the backend demotion ladder instead of
    /// aborting (`chaos --paranoid`, `verify`).
    pub demote: bool,
    /// Delta-debug a found divergence down to a minimal replayable plan.
    pub minimize: bool,
    /// Replay a committed `.chaosplan` file instead of running a campaign.
    pub replay: Option<String>,
    /// Extra attempts for a panicked sweep cell (each one backend rung
    /// lower).
    pub retries: u32,
    /// Where crash snapshots are written.
    pub snapshot: String,
    /// True when `--snapshot` was given explicitly (the default is derived
    /// from the run's identity and seed instead).
    pub snapshot_explicit: bool,
    /// True when `--buildset` was given explicitly (subcommands have
    /// different defaults: `run` uses one-all, `trace record` block-all).
    pub buildset_explicit: bool,
    /// Output path for `trace record`.
    pub output: Option<String>,
    /// Worker threads for `trace replay`.
    pub shards: usize,
    /// Warm-up chunks per shard for `trace replay`.
    pub warmup: usize,
    /// Visibility projection (`min` | `decode` | `all`) for `trace replay`.
    pub project: Option<String>,
    /// Workload label written into a recorded trace header.
    pub label: Option<String>,
    /// Emit machine-readable JSON statistics instead of the human summary.
    pub stats_json: bool,
    /// Worker threads for `sweep` (0 = one per available core; an explicit
    /// `--jobs 0` is a usage error).
    pub jobs: usize,
    /// Kernel subset for `sweep` (empty = the full suite).
    pub kernels: Vec<String>,
    /// Backend set for `sweep`: one backend name, or `all`.
    pub backends: Option<Vec<Backend>>,
    /// Markdown report output path for `sweep`.
    pub report: Option<String>,
    /// Diagnostic output format for `lint` (`text` | `json` | `sarif`).
    pub format: Option<String>,
    /// Treat lint warnings as errors (exit 5).
    pub deny_warnings: bool,
    /// Print the LIS001–LIS010 pass catalog and exit (`lint`).
    pub list_passes: bool,
    /// Baseline fingerprint file for `lint`: created when absent, used to
    /// suppress known findings when present.
    pub baseline: Option<String>,
    /// Skip the analyzer pre-flight gate in `verify` / `chaos` / `sweep`.
    pub no_lint: bool,
    /// Listen address for `serve` (required unless `--bench-warm`).
    pub listen: Option<String>,
    /// Seconds a `serve` shutdown waits for in-flight work before
    /// abandoning it.
    pub drain_deadline: u64,
    /// Run the cold-vs-warm artifact-store benchmark instead of serving.
    pub bench_warm: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            input: None,
            isa: String::new(),
            buildset: "one-all".into(),
            backend: Backend::default(),
            backend_explicit: false,
            trace: false,
            mix: false,
            max: 100_000_000,
            timing: None,
            preset: None,
            deadline: None,
            chaos_seed: 1,
            period: 500,
            runs: 4,
            full: false,
            unmap: false,
            translate: false,
            paranoid: false,
            spot_stride: 64,
            demote: false,
            minimize: false,
            replay: None,
            retries: 2,
            snapshot: "lis-snapshot.txt".into(),
            snapshot_explicit: false,
            buildset_explicit: false,
            output: None,
            shards: 1,
            warmup: 4,
            project: None,
            label: None,
            stats_json: false,
            jobs: 0,
            kernels: Vec::new(),
            backends: None,
            report: None,
            format: None,
            deny_warnings: false,
            list_passes: false,
            baseline: None,
            no_lint: false,
            listen: None,
            drain_deadline: 10,
            bench_warm: false,
        }
    }
}

impl Opts {
    /// Parses `args` (everything after the subcommand).
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
            };
            match a.as_str() {
                "--isa" => o.isa = value("--isa")?,
                "--buildset" => {
                    o.buildset = value("--buildset")?;
                    o.buildset_explicit = true;
                }
                "--backend" => {
                    o.backend = value("--backend")?.parse()?;
                    o.backend_explicit = true;
                }
                "--trace" => o.trace = true,
                "--mix" => o.mix = true,
                "--max" => {
                    o.max = value("--max")?.parse().map_err(|e| format!("--max: {e}"))?;
                }
                "--timing" => o.timing = Some(value("--timing")?),
                "--preset" => {
                    let name = value("--preset")?;
                    if lis_timing::TimingConfig::named(&name).is_none() {
                        return Err(format!(
                            "unknown --preset `{name}` (valid: {})",
                            lis_timing::TimingConfig::preset_names()
                        ));
                    }
                    o.preset = Some(name);
                }
                "--deadline" => {
                    o.deadline =
                        Some(value("--deadline")?.parse().map_err(|e| format!("--deadline: {e}"))?);
                }
                "--chaos-seed" => {
                    o.chaos_seed =
                        value("--chaos-seed")?.parse().map_err(|e| format!("--chaos-seed: {e}"))?;
                }
                "--period" => {
                    o.period = value("--period")?.parse().map_err(|e| format!("--period: {e}"))?;
                    if o.period == 0 {
                        return Err("--period must be positive".into());
                    }
                }
                "--runs" => {
                    o.runs = value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?;
                }
                "--full" => o.full = true,
                "--unmap" => o.unmap = true,
                "--translate" => o.translate = true,
                "--paranoid" => o.paranoid = true,
                "--spot-stride" => {
                    o.spot_stride = value("--spot-stride")?
                        .parse()
                        .map_err(|e| format!("--spot-stride: {e}"))?;
                    if o.spot_stride == 0 {
                        return Err("--spot-stride must be positive".into());
                    }
                }
                "--demote" => o.demote = true,
                "--minimize" => o.minimize = true,
                "--replay" => o.replay = Some(value("--replay")?),
                "--retries" => {
                    o.retries =
                        value("--retries")?.parse().map_err(|e| format!("--retries: {e}"))?;
                }
                "--snapshot" => {
                    o.snapshot = value("--snapshot")?;
                    o.snapshot_explicit = true;
                }
                "-o" | "--output" => o.output = Some(value("--output")?),
                "--shards" => {
                    o.shards = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?;
                    if o.shards == 0 {
                        return Err("--shards must be positive".into());
                    }
                }
                "--warmup" => {
                    o.warmup = value("--warmup")?.parse().map_err(|e| format!("--warmup: {e}"))?;
                }
                "--jobs" => {
                    o.jobs = value("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?;
                    if o.jobs == 0 {
                        return Err(
                            "--jobs must be positive (omit the flag for one per core)".into()
                        );
                    }
                }
                "--kernels" => {
                    o.kernels = value("--kernels")?
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect();
                    if o.kernels.is_empty() {
                        return Err("--kernels needs at least one kernel name".into());
                    }
                }
                "--backends" => {
                    let set = Backend::select(&value("--backends")?)
                        .map_err(|e| format!("--backends: {e}"))?;
                    o.backends = Some(set);
                }
                "--report" => o.report = Some(value("--report")?),
                "--format" => o.format = Some(value("--format")?),
                "--deny-warnings" => o.deny_warnings = true,
                "--list-passes" => o.list_passes = true,
                "--baseline" => o.baseline = Some(value("--baseline")?),
                "--no-lint" => o.no_lint = true,
                "--listen" => o.listen = Some(value("--listen")?),
                "--drain-deadline" => {
                    o.drain_deadline = value("--drain-deadline")?
                        .parse()
                        .map_err(|e| format!("--drain-deadline: {e}"))?;
                }
                "--bench-warm" => o.bench_warm = true,
                "--project" => o.project = Some(value("--project")?),
                "--label" => o.label = Some(value("--label")?),
                "--stats-json" => o.stats_json = true,
                flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
                path => {
                    if o.input.is_some() {
                        return Err(format!("unexpected extra argument `{path}`"));
                    }
                    o.input = Some(path.to_string());
                }
            }
        }
        Ok(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        Opts::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_flags() {
        let o = parse(&["prog.s", "--isa", "arm", "--trace", "--max", "42"]).unwrap();
        assert_eq!(o.input.as_deref(), Some("prog.s"));
        assert_eq!(o.isa, "arm");
        assert!(o.trace);
        assert_eq!(o.max, 42);
        assert_eq!(o.buildset, "one-all");
        assert_eq!(o.backend, Backend::Compiled);
    }

    #[test]
    fn backend_and_timing() {
        let o =
            parse(&["--backend", "interpreted", "--timing", "sff", "--preset", "stream"]).unwrap();
        assert_eq!(o.backend, Backend::Interpreted);
        assert!(o.backend_explicit);
        assert_eq!(o.timing.as_deref(), Some("sff"));
        assert_eq!(o.preset.as_deref(), Some("stream"));
        assert_eq!(parse(&[]).unwrap().preset, None);
        assert!(parse(&["--preset"]).is_err());
        let err = parse(&["--preset", "nosuch"]).unwrap_err();
        assert!(err.contains("unknown --preset"), "{err}");
        assert!(err.contains("classic"), "{err}");
        let o = parse(&["--backend", "compiled"]).unwrap();
        assert_eq!(o.backend, Backend::Compiled);
        assert!(!parse(&[]).unwrap().backend_explicit);
    }

    #[test]
    fn errors() {
        assert!(parse(&["--backend", "jit"]).is_err());
        let err = parse(&["--backend", "cached"]).unwrap_err();
        assert!(err.contains("unknown backend `cached`"), "{err}");
        assert!(parse(&["--max", "abc"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["a.s", "b.s"]).is_err());
        assert!(parse(&["--isa"]).is_err());
        assert!(parse(&["--deadline", "soon"]).is_err());
        assert!(parse(&["--period", "0"]).is_err());
        assert!(parse(&["--chaos-seed"]).is_err());
    }

    #[test]
    fn robustness_flags() {
        let o = parse(&[
            "--deadline",
            "30",
            "--chaos-seed",
            "99",
            "--period",
            "250",
            "--runs",
            "2",
            "--full",
            "--snapshot",
            "crash.txt",
        ])
        .unwrap();
        assert_eq!(o.deadline, Some(30));
        assert_eq!(o.chaos_seed, 99);
        assert_eq!(o.period, 250);
        assert_eq!(o.runs, 2);
        assert!(o.full);
        assert!(!o.unmap);
        assert_eq!(o.snapshot, "crash.txt");
        assert!(o.snapshot_explicit);
    }

    #[test]
    fn supervised_flags() {
        let o = parse(&[
            "--translate",
            "--paranoid",
            "--spot-stride",
            "16",
            "--demote",
            "--minimize",
            "--replay",
            "repro.chaosplan",
            "--retries",
            "1",
        ])
        .unwrap();
        assert!(o.translate && o.paranoid && o.demote && o.minimize);
        assert_eq!(o.spot_stride, 16);
        assert_eq!(o.replay.as_deref(), Some("repro.chaosplan"));
        assert_eq!(o.retries, 1);

        let d = parse(&[]).unwrap();
        assert!(!d.translate && !d.paranoid && !d.demote && !d.minimize);
        assert_eq!(d.spot_stride, 64);
        assert_eq!(d.replay, None);
        assert_eq!(d.retries, 2);
        assert!(!d.snapshot_explicit, "default snapshot name is derived, not explicit");
        assert!(parse(&["--spot-stride", "0"]).is_err());
        assert!(parse(&["--retries", "x"]).is_err());
        assert!(parse(&["--replay"]).is_err());
    }

    #[test]
    fn trace_flags() {
        let o = parse(&[
            "t.lst",
            "--shards",
            "4",
            "--warmup",
            "2",
            "--project",
            "decode",
            "--label",
            "sieve",
            "--stats-json",
            "-o",
            "out.lst",
        ])
        .unwrap();
        assert_eq!(o.shards, 4);
        assert_eq!(o.warmup, 2);
        assert_eq!(o.project.as_deref(), Some("decode"));
        assert_eq!(o.label.as_deref(), Some("sieve"));
        assert!(o.stats_json);
        assert_eq!(o.output.as_deref(), Some("out.lst"));
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--shards", "x"]).is_err());
        assert!(!parse(&[]).unwrap().buildset_explicit);
        assert!(parse(&["--buildset", "block-all"]).unwrap().buildset_explicit);
    }

    #[test]
    fn sweep_flags() {
        let o = parse(&[
            "--jobs",
            "4",
            "--kernels",
            "gcd,sieve",
            "--backends",
            "all",
            "--report",
            "SWEEP.md",
        ])
        .unwrap();
        assert_eq!(o.jobs, 4);
        assert_eq!(o.kernels, vec!["gcd".to_string(), "sieve".to_string()]);
        assert_eq!(o.backends, Some(Backend::ALL.to_vec()));
        assert_eq!(o.report.as_deref(), Some("SWEEP.md"));
        let o = parse(&["--backends", "interpreted"]).unwrap();
        assert_eq!(o.backends, Some(vec![Backend::Interpreted]));
        let err = parse(&["--backends", "cached"]).unwrap_err();
        assert!(err.contains("unknown backend `cached`"), "{err}");
        assert!(parse(&["--time"]).is_err(), "wall-clock sweeps are the benchmark's job");

        // `--jobs 0` is a zero-sized pool: a usage error, like `--shards 0`,
        // not something to silently reinterpret.
        let err = parse(&["--jobs", "0"]).expect_err("zero jobs is a usage error");
        assert!(err.contains("--jobs must be positive"), "{err}");
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["--kernels", ","]).is_err(), "an all-empty list is an error");
        assert_eq!(parse(&[]).unwrap().jobs, 0, "default 0 means auto, one per core");
    }

    #[test]
    fn lint_flags() {
        let o = parse(&["--format", "sarif", "--deny-warnings"]).unwrap();
        assert_eq!(o.format.as_deref(), Some("sarif"));
        assert!(o.deny_warnings);
        assert!(!o.no_lint);
        assert!(parse(&["--no-lint"]).unwrap().no_lint);
        assert!(parse(&["--format"]).is_err());
        assert!(parse(&["--list-passes"]).unwrap().list_passes);
        let o = parse(&["--baseline", "lint.base"]).unwrap();
        assert_eq!(o.baseline.as_deref(), Some("lint.base"));
        assert!(parse(&["--baseline"]).is_err());
        let d = parse(&[]).unwrap();
        assert_eq!(d.format, None);
        assert!(!d.deny_warnings && !d.no_lint && !d.list_passes);
        assert_eq!(d.baseline, None);
    }

    #[test]
    fn serve_flags() {
        let o =
            parse(&["--listen", "127.0.0.1:4915", "--drain-deadline", "3", "--jobs", "2"]).unwrap();
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:4915"));
        assert_eq!(o.drain_deadline, 3);
        assert!(!o.bench_warm);
        assert!(parse(&["--bench-warm"]).unwrap().bench_warm);
        assert!(parse(&["--drain-deadline", "soon"]).is_err());
        assert!(parse(&["--listen"]).is_err());
        let d = parse(&[]).unwrap();
        assert_eq!(d.listen, None);
        assert_eq!(d.drain_deadline, 10);
    }

    #[test]
    fn robustness_defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.deadline, None);
        assert_eq!(o.chaos_seed, 1);
        assert_eq!(o.period, 500);
        assert!(!o.full);
        assert_eq!(o.snapshot, "lis-snapshot.txt");
    }
}
