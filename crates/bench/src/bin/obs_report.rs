//! End-to-end observability demo: run a Jacobi cluster with an enabled
//! recorder and export everything `hdsm-obs` produces, then run a SOR
//! cluster over a lossy fabric and let the critical-path analyzer name
//! the straggler.
//!
//! Writes:
//! * `results/obs_trace.json` — Chrome tracing JSON (load via
//!   `chrome://tracing` or <https://ui.perfetto.dev>); one track per rank,
//!   with flow arrows linking each send to its receive.
//! * `results/obs_snapshot.json` — the machine-readable [`hdsm_obs::ObsSnapshot`].
//! * `results/critpath.txt` — per-sync-op critical paths from the faulty
//!   SOR run (straggler rank, slowest shard, retransmits per link).
//! * `results/obs_timeseries.jsonl` — the faulty SOR run's windowed
//!   time-series, one delta frame per line.
//!
//! `--follow` tails the faulty SOR run live: each time-series frame is
//! printed as it closes, `tail -f` style. `--bundle <path>` pretty-prints
//! a flight-recorder bundle (`results/blackbox-*.json`) and exits.
//!
//! Also prints the plain-text cluster reports: the recorder's tables
//! ([`hdsm_obs::ObsSnapshot::report`]) and the fabric's traffic ledger
//! ([`hdsm_net::NetStats::report`], by kind and by destination). Critical
//! paths are computed here, by the reader ([`Recorder::critpaths`]).

use hdsm_apps::workload::paper_pairs;
use hdsm_apps::Kernel;
use hdsm_core::cluster::{ClusterBuilder, TimingConfig, TopologyConfig};
use hdsm_net::fault::FaultPlan;
use hdsm_net::stats::NetConfig;
use hdsm_obs::{chrome_trace, pretty_bundle, Recorder};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--bundle") {
        // Offline flight-recorder triage: re-indent a bundle for reading.
        let path = args.get(i + 1).expect("--bundle takes a file path");
        let raw = std::fs::read_to_string(path).expect("read bundle");
        print!("{}", pretty_bundle(&raw));
        return;
    }
    let follow = args.iter().any(|a| a == "--follow");
    let (n, sweeps, seed) = (48, 6, 0x0B5);
    let pair = &paper_pairs()[2]; // SL: the heterogeneous pair.
    let recorder = Recorder::enabled();

    let builder = ClusterBuilder::new()
        .home(pair.home.clone())
        .obs(recorder.clone())
        .worker(pair.home.clone())
        .worker(pair.remote.clone())
        .worker(pair.remote.clone());
    let (outcome, verified) = Kernel::Jacobi { sweeps }
        .run(builder, n, seed)
        .expect("jacobi cluster");
    assert!(verified, "jacobi failed to verify");

    let snapshot = outcome.obs.as_ref().expect("recorder was enabled");

    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(results).expect("create results dir");
    let trace_path = format!("{results}/obs_trace.json");
    let snap_path = format!("{results}/obs_snapshot.json");
    std::fs::write(&trace_path, chrome_trace(&recorder.events())).expect("write trace");
    std::fs::write(&snap_path, snapshot.to_json()).expect("write snapshot");

    println!("{}", snapshot.report());
    println!("{}", outcome.net_stats.report());
    println!("jacobi n={n} sweeps={sweeps} pair={} verified", pair.label);

    // ---- faulty SOR: who made each barrier slow? ----
    let (sor_n, sor_sweeps, sor_seed) = (36, 4, 0x50F);
    let plan = FaultPlan::seeded(0xBEEF).drop(0.05);
    let faulty = Recorder::enabled();
    let sor = Kernel::Sor { sweeps: sor_sweeps };
    let builder2 = ClusterBuilder::new()
        .home(pair.home.clone())
        .worker(pair.home.clone())
        .worker(pair.remote.clone())
        .topology(TopologyConfig {
            shards: 2,
            ..Default::default()
        })
        .net(NetConfig::instant().with_faults(plan))
        .timing(TimingConfig {
            retry_base: Some(Duration::from_millis(10)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .telemetry(Duration::from_millis(10), 1024)
        .obs(faulty.clone());
    let (outcome2, verified) = if follow {
        // Tail the windowed time-series while the run is still going:
        // print each frame's one-line brief as it closes.
        let rec = faulty.clone();
        let handle = std::thread::spawn(move || sor.run(builder2, sor_n, sor_seed));
        let mut last_seq = None;
        loop {
            let done = handle.is_finished();
            for f in rec.timeseries_frames() {
                if last_seq.is_none_or(|s| f.seq > s) {
                    println!("{}", f.brief());
                    last_seq = Some(f.seq);
                }
            }
            if done {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        handle
            .join()
            .expect("follow thread")
            .expect("faulty sor cluster")
    } else {
        sor.run(builder2, sor_n, sor_seed)
            .expect("faulty sor cluster")
    };
    std::fs::write(
        format!("{results}/obs_timeseries.jsonl"),
        faulty.timeseries_jsonl(),
    )
    .expect("write timeseries");
    assert!(verified, "sor failed to verify under faults");
    let snap2 = outcome2.obs.as_ref().expect("recorder was enabled");
    let critpaths = faulty.critpaths();
    assert!(
        !critpaths.is_empty(),
        "critical-path analyzer found no sync ops"
    );
    let mut critpath = String::new();
    critpath.push_str(&format!(
        "critical paths: sor n={sor_n} sweeps={sor_sweeps} shards=2, 5% drop fabric\n\n"
    ));
    for cp in &critpaths {
        critpath.push_str(&cp.describe(2));
        critpath.push('\n');
    }
    std::fs::write(format!("{results}/critpath.txt"), &critpath).expect("write critpath");
    println!("{}", snap2.report());
    println!("{}", outcome2.net_stats.report());
    print!("{critpath}");
    println!(
        "faulty sor fabric: dropped {} retransmitted {}",
        outcome2.net_stats.dropped, outcome2.net_stats.retransmitted
    );

    println!("chrome trace  -> results/obs_trace.json");
    println!("obs snapshot  -> results/obs_snapshot.json");
    println!("critical path -> results/critpath.txt");
    println!("time-series   -> results/obs_timeseries.jsonl");
}
