//! Figure 8 — "Index discovery" (`t_index`) vs matrix size.
//!
//! Measures the time to map writes to the protected global space into
//! application-level indexes — one scan of each dirty page against its
//! twin, directed by the index table, comparing at each row's element size
//! and emitting coalesced index ranges (`runs::scan_ranges`) — for the
//! matrix multiplication workload, reported per platform: the
//! Solaris curve comes from the SS pair, the Linux curve from the LL pair
//! (t_index is a property of the releasing node, paper §5: "a measure of
//! the performance of the system on which the unlock takes place").

use hdsm_apps::workload::{paper_pairs, SyncMode};
use hdsm_bench::{ms, print_header, run_matmul_min, sizes_from_args};

fn main() {
    print_header(
        "Figure 8: index discovery time t_index (matrix multiplication)",
        "Seconds per full run, by releasing platform (scaled).",
    );
    let sizes = sizes_from_args();
    let pairs = paper_pairs();
    let ll = &pairs[0];
    let ss = &pairs[1];
    println!("{:>5} {:>14} {:>14}", "size", "solaris (s)", "linux (s)");
    for &n in &sizes {
        let r_ss = run_matmul_min(n, ss, SyncMode::Barrier, 3);
        let r_ll = run_matmul_min(n, ll, SyncMode::Barrier, 3);
        println!(
            "{:>5} {:>14.6} {:>14.6}",
            n,
            ms(r_ss.scaled.t_index) / 1e3,
            ms(r_ll.scaled.t_index) / 1e3,
        );
    }
    println!();
    println!("Expected shape: both curves grow with matrix size; the Solaris");
    println!("curve sits above the Linux curve by roughly the CPU factor.");
}
