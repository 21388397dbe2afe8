//! The paper's flagship scenario: integer matrix multiplication shared
//! through the heterogeneous DSM, with the Figure 4 global structure and
//! the §5 placement (one thread at the Solaris home, two "migrated" to
//! Linux), on the Solaris/Linux (SL) pair — plus the homogeneous pairs
//! for comparison. Prints the Eq. 1 cost breakdown per pair.
//!
//! Run with (size optional, default 99):
//! ```text
//! cargo run --release --example heterogeneous_matmul -- 99
//! ```

use hdsm::apps::workload::{paper_pairs, SyncMode};
use hdsm::apps::Kernel;
use hdsm::dsd::cluster::ClusterBuilder;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(99);
    let seed = 2006;

    println!("C = A * B with {n}x{n} int matrices, 3 threads, Figure-4 GThV\n");
    for pair in paper_pairs() {
        let builder = ClusterBuilder::new()
            .home(pair.home.clone())
            .worker(pair.home.clone())
            .worker(pair.remote.clone())
            .worker(pair.remote.clone());
        let (outcome, ok) = Kernel::Matmul(SyncMode::Barrier)
            .run(builder, n, seed)
            .expect("cluster run");
        let mut total = outcome.home_costs;
        for c in &outcome.worker_costs {
            total.merge(c);
        }
        println!(
            "pair {} ({} home, {} remote): result {}",
            pair.label,
            pair.home.name,
            pair.remote.name,
            if ok {
                "VERIFIED against serial oracle"
            } else {
                "MISMATCH"
            }
        );
        println!("  {total}");
        println!(
            "  conversions: {} scalars converted, {} byte-swapped, {} bytes memcpy'd",
            outcome.home_conv.scalars_converted
                + outcome
                    .worker_conv
                    .iter()
                    .map(|s| s.scalars_converted)
                    .sum::<u64>(),
            outcome.home_conv.scalars_swapped
                + outcome
                    .worker_conv
                    .iter()
                    .map(|s| s.scalars_swapped)
                    .sum::<u64>(),
            outcome.home_conv.memcpy_bytes
                + outcome
                    .worker_conv
                    .iter()
                    .map(|s| s.memcpy_bytes)
                    .sum::<u64>(),
        );
        println!(
            "  network: {} messages, {} bytes\n",
            outcome.net_stats.total_messages(),
            outcome.net_stats.total_bytes()
        );
    }
    println!("Note how the SL pair converts scalars while LL and SS move");
    println!("everything through the tag-gated memcpy fast path.");
}
