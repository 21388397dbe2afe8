//! Traffic statistics and the communication cost model.

use crate::fault::FaultPlan;
use crate::message::MsgKind;
use std::collections::HashMap;
use std::time::Duration;

/// Communication cost model. All costs are *accounted*, never slept: the
/// threaded fabric delivers at once, the simulated fabric turns them into
/// virtual latency.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Fixed per-message latency.
    pub latency: Duration,
    /// Link bandwidth in bytes/second; `None` = infinite.
    pub bandwidth: Option<u64>,
    /// Fixed per-message framing overhead (headers, tags) in bytes, charged
    /// against bandwidth on every send in addition to the payload.
    pub header_overhead: usize,
    /// Deterministic fault injection; `None` = a perfect fabric.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for NetConfig {
    fn default() -> Self {
        // Paper-era cluster interconnect: ~100 µs latency, 100 Mbit/s,
        // ~Ethernet+IP+TCP worth of framing per message.
        NetConfig {
            latency: Duration::from_micros(100),
            bandwidth: Some(12_500_000),
            header_overhead: 64,
            fault_plan: None,
        }
    }
}

impl NetConfig {
    /// Cost model with zero latency, zero overhead and infinite bandwidth
    /// (unit tests).
    pub fn instant() -> NetConfig {
        NetConfig {
            latency: Duration::ZERO,
            bandwidth: None,
            header_overhead: 0,
            fault_plan: None,
        }
    }

    /// Attach a fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> NetConfig {
        self.fault_plan = Some(plan);
        self
    }

    /// Modelled wire time for a message of `bytes` payload bytes (framing
    /// overhead included).
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        let on_wire = bytes + self.header_overhead;
        let bw = match self.bandwidth {
            Some(b) if b > 0 => Duration::from_secs_f64(on_wire as f64 / b as f64),
            _ => Duration::ZERO,
        };
        self.latency + bw
    }
}

/// Traffic bound for one destination endpoint — the per-shard (and
/// per-worker) attribution behind the sharded-home utilization report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DestTraffic {
    /// Messages addressed to this endpoint.
    pub msgs: u64,
    /// Payload bytes addressed to this endpoint.
    pub bytes: u64,
}

/// Per-kind traffic counters plus accumulated modelled wire time and
/// fault-injection/reliability counters. Equality is by value (map
/// ordering is irrelevant), which is what the simulation determinism
/// tests compare across same-seed runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages sent, by kind.
    pub messages: HashMap<MsgKind, u64>,
    /// Payload bytes sent, by kind.
    pub bytes: HashMap<MsgKind, u64>,
    /// Traffic by destination endpoint rank. With a sharded home this is
    /// what shows whether load actually spread across the shards.
    pub by_dest: HashMap<u32, DestTraffic>,
    /// Total modelled time on the wire.
    pub simulated_wire_time: Duration,
    /// Messages silently dropped by fault injection (incl. partitions).
    pub dropped: u64,
    /// Extra copies delivered by fault injection.
    pub duplicated: u64,
    /// Messages held back and delivered out of order.
    pub reordered: u64,
    /// Retransmissions performed by the reliability layer.
    pub retransmitted: u64,
}

impl NetStats {
    /// Record one sent message addressed to endpoint `dst`.
    pub fn record(&mut self, kind: MsgKind, dst: u32, bytes: usize, wire: Duration) {
        *self.messages.entry(kind).or_default() += 1;
        *self.bytes.entry(kind).or_default() += bytes as u64;
        let d = self.by_dest.entry(dst).or_default();
        d.msgs += 1;
        d.bytes += bytes as u64;
        self.simulated_wire_time += wire;
    }

    /// Traffic addressed to endpoint `dst` (zero when none recorded).
    pub fn dest_traffic(&self, dst: u32) -> DestTraffic {
        self.by_dest.get(&dst).copied().unwrap_or_default()
    }

    /// Total messages across kinds.
    pub fn total_messages(&self) -> u64 {
        self.messages.values().sum()
    }

    /// Total payload bytes across kinds.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.values().sum()
    }

    /// Payload bytes in update-carrying kinds (shared data on the move).
    pub fn update_bytes(&self) -> u64 {
        self.bytes
            .iter()
            .filter(|(k, _)| k.carries_updates())
            .map(|(_, b)| *b)
            .sum()
    }

    /// Payload bytes in control-only kinds.
    pub fn control_bytes(&self) -> u64 {
        self.total_bytes() - self.update_bytes()
    }

    /// Total faults injected (drops + duplicates + reorders).
    pub fn total_faults(&self) -> u64 {
        self.dropped + self.duplicated + self.reordered
    }

    /// Render a compact report table: one line per kind with traffic,
    /// then one per destination endpoint (ranks `0..S` are the home
    /// shards, so this is where an unbalanced directory shows).
    pub fn report(&self) -> String {
        let mut out = String::from("kind              msgs       bytes\n");
        for k in MsgKind::ALL {
            let m = self.messages.get(&k).copied().unwrap_or(0);
            if m == 0 {
                continue;
            }
            let b = self.bytes.get(&k).copied().unwrap_or(0);
            out.push_str(&format!("{:<16} {:>6} {:>11}\n", k.label(), m, b));
        }
        out.push_str(&format!(
            "total            {:>6} {:>11}  (modelled wire time {:?})\n",
            self.total_messages(),
            self.total_bytes(),
            self.simulated_wire_time
        ));
        let mut dests: Vec<(&u32, &DestTraffic)> = self.by_dest.iter().collect();
        dests.sort_by_key(|(dst, _)| **dst);
        out.push_str("-- traffic by destination --\ndst        msgs       bytes\n");
        for (dst, t) in dests {
            out.push_str(&format!("{:<8} {:>6} {:>11}\n", dst, t.msgs, t.bytes));
        }
        if self.total_faults() + self.retransmitted > 0 {
            out.push_str(&format!(
                "faults: dropped {} duplicated {} reordered {} retransmitted {}\n",
                self.dropped, self.duplicated, self.reordered, self.retransmitted
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_includes_latency_bandwidth_and_overhead() {
        let cfg = NetConfig {
            latency: Duration::from_micros(100),
            bandwidth: Some(1_000_000), // 1 MB/s
            header_overhead: 0,
            fault_plan: None,
        };
        let t = cfg.transfer_time(500_000);
        assert_eq!(t, Duration::from_micros(100) + Duration::from_millis(500));

        // 40-byte headers at 1 MB/s add exactly 40 µs per message.
        let with_overhead = NetConfig {
            header_overhead: 40,
            ..cfg
        };
        assert_eq!(
            with_overhead.transfer_time(500_000),
            t + Duration::from_micros(40)
        );
        // The overhead is charged even on empty payloads.
        assert_eq!(
            with_overhead.transfer_time(0),
            Duration::from_micros(100) + Duration::from_micros(40)
        );
    }

    #[test]
    fn instant_config_is_free() {
        assert_eq!(NetConfig::instant().transfer_time(1 << 30), Duration::ZERO);
    }

    #[test]
    fn default_config_charges_header_overhead() {
        let cfg = NetConfig::default();
        assert!(cfg.transfer_time(0) > cfg.latency);
    }

    #[test]
    fn stats_accumulate_per_kind() {
        let mut s = NetStats::default();
        s.record(MsgKind::LockRequest, 0, 10, Duration::from_micros(1));
        s.record(MsgKind::LockRequest, 1, 20, Duration::from_micros(1));
        s.record(MsgKind::LockGrant, 1, 1000, Duration::from_micros(5));
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_bytes(), 1030);
        assert_eq!(s.messages[&MsgKind::LockRequest], 2);
        assert_eq!(s.dest_traffic(0).msgs, 1);
        assert_eq!(s.dest_traffic(1).bytes, 1020);
        assert_eq!(s.dest_traffic(7), DestTraffic::default());
        assert_eq!(s.simulated_wire_time, Duration::from_micros(7));
        let rep = s.report();
        assert!(rep.contains("lock-req"));
        assert!(rep.contains("lock-grant"));
        assert!(!rep.contains("barrier-enter"));
        // Destinations in rank order, each with what was addressed to it.
        let dests = rep.split("-- traffic by destination --").nth(1).unwrap();
        let rows: Vec<Vec<&str>> = dests
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(rows, [["0", "1", "10"], ["1", "2", "1020"]]);
        // No fault line on a clean run.
        assert!(!rep.contains("faults:"));
        s.dropped = 2;
        s.retransmitted = 1;
        assert_eq!(s.total_faults(), 2);
        assert!(s.report().contains("dropped 2"));
    }
}
