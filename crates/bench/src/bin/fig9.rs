//! Figure 9 — "Tag generation" (`t_tag`) vs matrix size.
//!
//! Measures the time to form application-level tags from the discovered
//! indexes (coalescing consecutive array elements so that "many —
//! hundreds, perhaps thousands — indexes \[distill\] into a single tag").
//! The paper notes a worst-case spike (their size 216) when a series of
//! updates builds up at the home node and ships as one large batch; the
//! batch path here is exercised by the home-side tag formation, which is
//! reported separately. On a releasing worker the coalescing happens
//! inside the write-detection scan (`t_index`, Figure 8): what its `t_tag`
//! holds is settling which ranges ship (whole-entry promotion), so the
//! worker columns stay nearly flat and the home columns carry the shape.

use hdsm_apps::workload::{paper_pairs, SyncMode};
use hdsm_bench::{ms, print_header, run_matmul_min, sizes_from_args};

fn main() {
    print_header(
        "Figure 9: tag generation time t_tag (matrix multiplication)",
        "Seconds per full run, by releasing platform (scaled), plus the\nhome-side batch tag formation.",
    );
    let sizes = sizes_from_args();
    let pairs = paper_pairs();
    let ll = &pairs[0];
    let ss = &pairs[1];
    println!(
        "{:>5} {:>14} {:>14} {:>16} {:>16}",
        "size", "solaris (s)", "linux (s)", "home-batch SS", "home-batch LL"
    );
    for &n in &sizes {
        let r_ss = run_matmul_min(n, ss, SyncMode::Barrier, 3);
        let r_ll = run_matmul_min(n, ll, SyncMode::Barrier, 3);
        let workers_ss: f64 = r_ss
            .per_worker
            .iter()
            .map(|(_, c)| c.t_tag.as_secs_f64())
            .sum();
        let workers_ll: f64 = r_ll
            .per_worker
            .iter()
            .map(|(_, c)| c.t_tag.as_secs_f64())
            .sum();
        println!(
            "{:>5} {:>14.6} {:>14.6} {:>16.6} {:>16.6}",
            n,
            workers_ss / ss.remote.cpu_factor,
            workers_ll / ll.remote.cpu_factor,
            ms(r_ss.home.1.t_tag) / 1e3,
            ms(r_ll.home.1.t_tag) / 1e3,
        );
    }
    println!();
    println!("Expected shape: t_tag stays well below t_conv; the home-side batch");
    println!("formation grows with size and dominates when updates accumulate");
    println!("between a thread's acquires (the paper's size-216 spike case).");
}
