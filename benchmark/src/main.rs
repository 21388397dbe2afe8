//! The benchmark of the heterogeneous DSM: five workloads on the sim
//! fabric, measured strictly from outside through the crates' public
//! API. `README.md` in this directory says what is measured and why.
//!
//! ```text
//! hdsm-benchmark                              every workload, both passes, one result file
//! hdsm-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                             one pass of one workload; the last line is its result
//! hdsm-benchmark --twice                      two full sets, then --compare on them
//! hdsm-benchmark --compare A.json B.json      per workload and metric, against the bounds
//! hdsm-benchmark --selfcheck                  exact counts repeat for a seed
//! hdsm-benchmark --manifest                   print BENCHMARK.json
//! ```
//! (`--workload W --rss-probe` is what a pass runs as a child to measure
//! the memory of exactly one run.)
//! `--quick` shrinks the problem for a smoke run; `--seed`, `--seconds`
//! and `--out` apply to the full run too.

mod affinity;
mod json;
mod measure;
mod micro;
mod replay;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// What every mode shares.
pub struct Mode {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

impl Mode {
    fn sizes(&self) -> &'static workloads::Sizes {
        if self.quick {
            &workloads::QUICK
        } else {
            &workloads::FULL
        }
    }
}

enum Action {
    Full,
    Pass { workload: String, trace: bool },
    RssProbe { workload: String },
    Twice,
    Compare(PathBuf, PathBuf),
    Selfcheck,
    Manifest,
}

struct Cli {
    mode: Mode,
    action: Action,
    out: Option<PathBuf>,
    detail: Option<PathBuf>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode {
            seed: spec::DEFAULT_SEED,
            seconds: spec::RUN_SECONDS as f64,
            quick: false,
        },
        action: Action::Full,
        out: None,
        detail: None,
    };
    let mut workload = None;
    let mut trace = false;
    let mut rss_probe = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                cli.mode.seed = parse_seed(v).ok_or_else(|| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.mode.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {v}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--detail" => cli.detail = Some(PathBuf::from(value()?)),
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--quick" => cli.mode.quick = true,
            "--rss-probe" => rss_probe = true,
            "--twice" => cli.action = Action::Twice,
            "--selfcheck" => cli.action = Action::Selfcheck,
            "--manifest" => cli.action = Action::Manifest,
            "--compare" => {
                let a = PathBuf::from(value()?);
                cli.action = Action::Compare(a, PathBuf::from(value()?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(workload) = workload {
        cli.action = if rss_probe {
            Action::RssProbe { workload }
        } else {
            Action::Pass { workload, trace }
        };
    }
    Ok(cli)
}

fn find_workload(name: &str) -> Result<workloads::Workload, String> {
    workloads::by_name(name)
        .ok_or_else(|| format!("no workload {name}; there are {:?}", workloads::NAMES))
}

fn pass_of<'a>(mode: &Mode, workload: &'a workloads::Workload) -> measure::Pass<'a> {
    measure::Pass {
        workload,
        sizes: mode.sizes(),
        quick: mode.quick,
        seed: mode.seed,
        seconds: mode.seconds,
    }
}

fn run(cli: &Cli) -> Result<bool, String> {
    let mode = &cli.mode;
    match &cli.action {
        Action::Manifest => {
            print!("{}", spec::manifest().to_pretty());
            Ok(true)
        }
        Action::Compare(a, b) => report::compare(a, b, false),
        Action::Selfcheck => report::selfcheck(mode.sizes(), mode.seed),
        Action::Full => {
            let out = cli.out.clone().unwrap_or_else(|| {
                let name = if mode.quick {
                    "results-quick.json"
                } else {
                    "results.json"
                };
                report::out_dir().join(name)
            });
            report::full(mode, &[&out])
        }
        Action::Twice => {
            if mode.quick {
                return Err("--twice compares full-size sets; drop --quick".to_string());
            }
            let (a, b) = (
                report::out_dir().join("set-a.json"),
                report::out_dir().join("set-b.json"),
            );
            let correct = report::full(mode, &[&a, &b])?;
            Ok(report::compare(&a, &b, true)? && correct)
        }
        Action::RssProbe { workload } => {
            let w = find_workload(workload)?;
            println!("{}", measure::rss_probe(&pass_of(mode, &w))?);
            Ok(true)
        }
        Action::Pass { workload, trace } => {
            let w = find_workload(workload)?;
            let pass = pass_of(mode, &w);
            let result = if *trace {
                let path = report::out_dir().join(format!("trace-{workload}.json"));
                measure::traced(&pass, &path)?
            } else {
                measure::untraced(&pass)?
            };
            println!(
                "{workload}, seed {}, {} pass, {} timed runs{}",
                mode.seed,
                if *trace { "traced" } else { "untraced" },
                result.reps,
                if result.pinned {
                    ", pinned to one CPU"
                } else {
                    ", NOT pinned"
                }
            );
            result.print_table();
            if let Some(detail) = &cli.detail {
                json::write_checked(detail, &result.detail())?;
            }
            println!("{}", result.result_line());
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| run(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hdsm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
