//! The full run (every workload, one child process each per pass, one
//! result file), `--compare` and `--selfcheck`.

use crate::json::{self, Value};
use crate::measure::child;
use crate::spec::{self, END_TO_END};
use crate::stats::summarize;
use crate::trace::Tracer;
use crate::workloads::{by_name, run_cluster, verify, Body, Sizes, NAMES};
use crate::{replay, Mode};
use hdsm_net::FabricMode;
use hdsm_obs::Recorder;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Where result and trace files go: the benchmark's own `out/`, from the
/// root of the repository or from the package directory.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn environment() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let load = load_average();
    if load > nproc as f64 {
        eprintln!(
            "warning: 1-minute load average {load} exceeds {nproc} CPUs; timings will be noisy"
        );
    }
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("cpu_model", Value::Str(cpu)),
        ("rustc", Value::Str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("load_average_1m_at_start", Value::Num(load)),
    ])
}

/// One child process: one pass of one workload, `seconds` long.
fn child_pass(
    name: &str,
    mode: &Mode,
    seconds: f64,
    trace: bool,
    detail: &Path,
) -> Result<Value, String> {
    let status = child(name, mode.seed, mode.quick)?
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(detail)
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{name}: pass ended with {status}"));
    }
    json::read(detail)
}

fn metric_value(pass: &Value, name: &str) -> Option<f64> {
    pass.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Is the Eq. 1 split what the workload was chosen for?
fn layer_split_notes(name: &str, wall: f64, c_share: f64, layers: &Value) -> Vec<String> {
    let term = |k: &str| metric_value(layers, k).unwrap_or(0.0);
    let (index, tag, conv) = (
        term("core.t_index_s"),
        term("core.t_tag_s"),
        term("core.t_conv_s"),
    );
    let (pack, unpack) = (term("core.t_pack_s"), term("core.t_unpack_s"));
    let share = c_share / wall;
    let verdict = |ok: bool| {
        if ok {
            "as predicted"
        } else {
            "NOT as predicted"
        }
    };
    let mut notes = Vec::new();
    if name.starts_with("jacobi") {
        let ok = [tag, pack, unpack, conv].iter().all(|t| index > *t);
        notes.push(format!(
            "t_index is the largest Eq. 1 term: {}",
            verdict(ok)
        ));
    }
    if name.starts_with("sor") {
        let ok = [index, tag, conv].iter().all(|t| pack + unpack > *t);
        notes.push(format!(
            "t_pack + t_unpack is the largest Eq. 1 term: {}",
            verdict(ok)
        ));
    }
    if name.starts_with("lock") {
        notes.push(format!(
            "c_share_s is {:.0} % of wall_s, predicted under a third: {}",
            share * 100.0,
            verdict(share < 1.0 / 3.0)
        ));
    } else if name != "jacobi_ll" {
        notes.push(format!(
            "c_share_s is {:.0} % of wall_s, predicted over half: {}",
            share * 100.0,
            verdict(share > 0.5)
        ));
    }
    notes
}

/// Untraced passes per workload and set. The sandbox has slow phases of
/// a minute or so that take a whole pass with them (two sets of the same
/// code, one 15 s pass per workload each, came out 28 % apart on
/// `jacobi_ll`), so a set is several short passes spread over the whole
/// run, and its value is their median, as the driver's is of its runs.
const ROUNDS: usize = 5;

/// One workload of one set: the end-to-end metrics over its rounds.
fn pooled_end_to_end(rounds: &[Value]) -> Result<Value, String> {
    let mut out = Vec::new();
    for m in &END_TO_END {
        let values = rounds
            .iter()
            .map(|r| metric_value(r, m.name))
            .collect::<Option<Vec<f64>>>()
            .ok_or_else(|| format!("a pass did not report {}", m.name))?;
        let s = summarize(&values);
        out.push((
            m.name,
            Value::obj([
                ("value", Value::Num(s.median)),
                ("unit", Value::str(m.unit)),
                ("q1", Value::Num(s.q1)),
                ("q3", Value::Num(s.q3)),
                ("n", Value::Num(s.n as f64)),
                (
                    "rounds",
                    Value::Arr(values.into_iter().map(Value::Num).collect()),
                ),
            ]),
        ));
    }
    Ok(Value::obj(out))
}

/// Run every workload for each of `paths`, print every metric and write
/// one result file per path. With two paths the sets' passes alternate,
/// so that a slow phase of the machine falls on both. `Ok(false)` when a
/// workload failed its checks.
pub fn full(mode: &Mode, paths: &[&Path]) -> Result<bool, String> {
    let t0 = Instant::now();
    let env = environment();
    let dir = out_dir();
    let rounds = if mode.quick { 1 } else { ROUNDS };
    let seconds = mode.seconds / rounds as f64;
    // passes[set][workload] holds one detail per round.
    let mut passes = vec![vec![Vec::new(); NAMES.len()]; paths.len()];
    for round in 0..rounds {
        for (wi, name) in NAMES.iter().enumerate() {
            for (set, of_set) in passes.iter_mut().enumerate() {
                println!("== {name}, round {round}, set {set}");
                let detail = dir.join(format!("pass-{set}-{name}-0.json"));
                of_set[wi].push(child_pass(name, mode, seconds, false, &detail)?);
            }
        }
    }
    let mut all_correct = true;
    for (set, path) in paths.iter().enumerate() {
        let mut rows = Vec::new();
        for (wi, name) in NAMES.iter().enumerate() {
            let w = by_name(name).expect("NAMES lists known workloads");
            println!("== {name}, traced, set {set}: {}", w.why);
            let detail = dir.join(format!("pass-{set}-{name}-1.json"));
            let layers = child_pass(name, mode, mode.seconds, true, &detail)?;
            let untraced = &passes[set][wi];
            let count = |k: &str| {
                untraced
                    .iter()
                    .chain([&layers])
                    .map(|v| v.get(k).and_then(Value::as_f64).unwrap_or(0.0))
                    .sum::<f64>()
            };
            let (attempted, failed) = (count("attempted"), count("failed"));
            let correct = failed == 0.0;
            all_correct &= correct;
            let end_to_end = pooled_end_to_end(untraced)?;
            let value = |k: &str| {
                end_to_end
                    .get(k)
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
            };
            let notes = layer_split_notes(name, value("wall_s"), value("c_share_s"), &layers);
            println!(
                "  fail_frac {} ({failed} of {attempted})",
                failed / attempted
            );
            for n in &notes {
                println!("  {n}");
            }
            let reps = untraced
                .iter()
                .map(|p| p.get("reps").cloned().unwrap_or(Value::Null))
                .collect();
            // A failed check suppresses the workload's numbers.
            let shown = |v: Value| if correct { v } else { Value::Obj(vec![]) };
            rows.push(Value::obj([
                ("name", Value::str(*name)),
                ("why", Value::str(w.why)),
                ("correct", Value::Bool(correct)),
                ("attempted", Value::Num(attempted)),
                ("failed", Value::Num(failed)),
                ("fail_frac", Value::Num(failed / attempted)),
                ("timed_runs_per_round", Value::Arr(reps)),
                (
                    "pinned",
                    layers.get("pinned").cloned().unwrap_or(Value::Null),
                ),
                ("end_to_end", shown(end_to_end)),
                (
                    "per_layer",
                    shown(layers.get("metrics").cloned().unwrap_or(Value::Obj(vec![]))),
                ),
                (
                    "layer_split",
                    Value::Arr(notes.into_iter().map(Value::Str).collect()),
                ),
            ]));
        }
        let result = Value::obj([
            ("schema", Value::Num(1.0)),
            ("quick", Value::Bool(mode.quick)),
            ("seed", Value::Num(mode.seed as f64)),
            ("seconds", Value::Num(mode.seconds)),
            ("rounds", Value::Num(rounds as f64)),
            ("environment", env.clone()),
            ("elapsed_s", Value::Num(t0.elapsed().as_secs_f64())),
            ("workloads", Value::Arr(rows)),
        ]);
        json::write_checked(path, &result)?;
        print_summary(&result);
        println!(
            "wrote {} after {:.0} s; traces are in {}",
            path.display(),
            t0.elapsed().as_secs_f64(),
            dir.display()
        );
    }
    Ok(all_correct)
}

/// Every end-to-end metric of a result file by name, with its unit.
fn print_summary(result: &Value) {
    for name in NAMES {
        for m in &END_TO_END {
            if let Some(c) = cell(result, name, m.name) {
                println!(
                    "{name:<10} {:<12} {:>16.6} {:<6} q1 {:.6}  q3 {:.6}  rounds {}",
                    m.name, c.value, m.unit, c.q1, c.q3, c.n
                );
            }
        }
    }
}

/// One end-to-end metric of one workload of one set: the median over
/// the set's rounds, and the quartiles of the rounds.
struct Cell {
    value: f64,
    q1: f64,
    q3: f64,
    n: f64,
}

impl Cell {
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.value.abs()
    }
}

fn cell(set: &Value, workload: &str, metric: &str) -> Option<Cell> {
    let row = set
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))?;
    let m = row.get("end_to_end")?.get(metric)?;
    let num = |k: &str| m.get(k).and_then(Value::as_f64);
    Some(Cell {
        value: num("value")?,
        q1: num("q1")?,
        q3: num("q3")?,
        n: num("n")?,
    })
}

/// Compare two result files, workload by workload and metric by metric.
/// `Ok(false)` when `b` is worse than `a` by more than a bound or, with
/// `must_agree` (two sets of the same code), differs by more either way.
pub fn compare(a_path: &Path, b_path: &Path, must_agree: bool) -> Result<bool, String> {
    let (a, b) = (json::read(a_path)?, json::read(b_path)?);
    for (set, path) in [(&a, a_path), (&b, b_path)] {
        if set.get("quick").and_then(Value::as_bool) != Some(false) {
            return Err(format!(
                "{}: not a full-size result, nothing to compare",
                path.display()
            ));
        }
    }
    let mut ok = true;
    println!(
        "{:<10} {:<12} {:>14} {:>7} {:>14} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "a iqr", "b", "b iqr", "b vs a", "bound"
    );
    for name in NAMES {
        for m in &END_TO_END {
            let (Some(ca), Some(cb)) = (cell(&a, name, m.name), cell(&b, name, m.name)) else {
                println!("{name:<10} {:<12} missing from a set", m.name);
                ok = false;
                continue;
            };
            // Positive is worse.
            let sign = if m.better == "lower" { 1.0 } else { -1.0 };
            let worse = sign * (cb.value - ca.value) / ca.value.abs();
            let verdict = if ca.spread() > m.bound || cb.spread() > m.bound {
                ok &= !must_agree;
                "unresolved"
            } else if worse > m.bound {
                ok = false;
                "REGRESSION"
            } else if worse < -m.bound {
                ok &= !must_agree;
                "improved"
            } else {
                "within bound"
            };
            println!(
                "{name:<10} {:<12} {:>14.6} {:>6.1}% {:>14.6} {:>6.1}% {:>+7.1}% {:>5.0}%  {verdict} (n {} and {})",
                m.name,
                ca.value,
                ca.spread() * 100.0,
                cb.value,
                cb.spread() * 100.0,
                worse * 100.0,
                m.bound * 100.0,
                ca.n,
                cb.n
            );
        }
    }
    Ok(ok)
}

/// The counts that must repeat exactly for a seed.
fn exact_counts(name: &str, sz: &Sizes, seed: u64) -> Result<Vec<(String, f64)>, String> {
    let w = by_name(name).expect("known workload");
    let fabric = FabricMode::Sim { seed };
    let (setup, _) = run_cluster(&w, sz, seed, fabric, Recorder::disabled(), Body::SetupOnly)?;
    let (s, g) = run_cluster(&w, sz, seed, fabric, Recorder::disabled(), Body::Kernel)?;
    if !verify(&w, sz, seed, &g).verified {
        return Err(format!("{name}: seed {seed} does not verify"));
    }
    let per_op =
        (s.net.total_messages() - setup.net.total_messages()) as f64 / w.sync_ops(sz) as f64;
    let mut counts = vec![
        ("net_msgs".to_string(), s.net.total_messages() as f64),
        ("net_bytes".to_string(), s.net.total_bytes() as f64),
        ("core.updates_sent".to_string(), s.costs.updates_sent as f64),
        ("core.msgs_per_sync_op".to_string(), per_op),
    ];
    let replayed = replay::run(&w, sz, seed, &mut Tracer::new(name))?;
    counts.extend(
        replayed
            .into_iter()
            .filter(|(k, _)| k == "memory.dirty_pages" || k == "memory.diff_runs"),
    );
    Ok(counts)
}

/// Each workload twice with one seed, where every exact count must
/// repeat, and once with the next seed, where it must still verify.
/// Also holds `BENCHMARK.json`, when it is in reach, to the spec.
pub fn selfcheck(sizes: &Sizes, seed: u64) -> Result<bool, String> {
    let mut ok = true;
    for name in NAMES {
        let first = exact_counts(name, sizes, seed)?;
        let second = exact_counts(name, sizes, seed)?;
        let other = exact_counts(name, sizes, seed + 1)?;
        for ((k, a), (_, b)) in first.iter().zip(&second) {
            if a != b {
                println!("{name}: {k} was {a}, then {b} with the same seed");
                ok = false;
            }
        }
        let show = |c: &[(String, f64)]| {
            c.iter()
                .map(|(k, v)| format!("{k} {v}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!("{name}: seed {} twice: {}", seed, show(&first));
        println!("{name}: seed {} verifies: {}", seed + 1, show(&other));
    }
    let manifest = Path::new("BENCHMARK.json");
    if manifest.exists() {
        let same = json::read(manifest)? == spec::manifest();
        println!(
            "BENCHMARK.json {}",
            if same {
                "matches the spec"
            } else {
                "DIFFERS from --manifest"
            }
        );
        ok &= same;
    }
    Ok(ok)
}
