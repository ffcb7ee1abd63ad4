//! Host-independent counts of the work each simulator layer did, read from
//! a finished machine through public accessors only. For one seed they must
//! repeat bit-for-bit: that is how "faster" is told apart from "did less".

use cni_core::machine::{Machine, RunReport};
use cni_net::fabric::FabricStats;
use cni_sim::stats::{LatencyHistogram, Merge};

/// Work counts of one run, or the sum over several runs.
#[derive(Debug, Clone, Default)]
pub struct SimCounts {
    pub cycles: u64,
    pub latency: LatencyHistogram,
    pub epochs: u64,
    pub exchanges: u64,
    pub routed_events: u64,
    pub membus_txns: u64,
    pub iobus_txns: u64,
    pub membus_busy_cycles: u64,
    pub bus_wait_cycles: u64,
    pub sent_fragments: u64,
    pub received_fragments: u64,
    pub send_full_retries: u64,
    pub fabric: FabricStats,
}

impl SimCounts {
    /// Reads the counts of `machine` after the run that produced `report`.
    pub fn read(machine: &Machine, report: &RunReport) -> Self {
        let outcome = machine
            .epoch_outcome()
            .expect("a machine that ran has an epoch outcome");
        let mut counts = SimCounts {
            cycles: report.cycles,
            latency: LatencyHistogram::merged(report.node_stats.iter().map(|s| s.request_latency)),
            epochs: outcome.epochs,
            exchanges: outcome.exchanges,
            routed_events: outcome.routed_events,
            fabric: report.fabric,
            ..SimCounts::default()
        };
        for stats in &report.node_stats {
            counts.sent_fragments += stats.sent_fragments;
            counts.received_fragments += stats.received_fragments;
            counts.send_full_retries += stats.send_full_retries;
        }
        for node in 0..machine.config().nodes {
            let mem = &machine.node(node).mem;
            let (membus, iobus) = (mem.memory_bus(), mem.io_bus());
            counts.membus_txns += membus.transactions();
            counts.iobus_txns += iobus.transactions();
            counts.membus_busy_cycles += membus.busy_cycles();
            counts.bus_wait_cycles += membus.wait_cycles() + iobus.wait_cycles();
        }
        counts
    }

    /// Adds another run's counts (campaign cells are summed).
    pub fn add(&mut self, other: &SimCounts) {
        self.cycles += other.cycles;
        self.latency.merge(&other.latency);
        self.epochs += other.epochs;
        self.exchanges += other.exchanges;
        self.routed_events += other.routed_events;
        self.membus_txns += other.membus_txns;
        self.iobus_txns += other.iobus_txns;
        self.membus_busy_cycles += other.membus_busy_cycles;
        self.bus_wait_cycles += other.bus_wait_cycles;
        self.sent_fragments += other.sent_fragments;
        self.received_fragments += other.received_fragments;
        self.send_full_retries += other.send_full_retries;
        self.fabric.merge(&other.fabric);
    }

    /// The counts that describe the simulated machine, which every shard
    /// policy must reproduce exactly. The epoch schedule's own counts (epochs,
    /// exchanges, routed events) legitimately differ between shard counts
    /// and are left out.
    pub fn simulated(&self) -> Vec<(&'static str, f64)> {
        let f = &self.fabric;
        vec![
            ("core.sim_cycles", self.cycles as f64),
            ("core.request_count", self.latency.count() as f64),
            (
                "core.request_p50_cycles",
                self.latency.quantile_permille(500) as f64,
            ),
            (
                "core.request_p99_cycles",
                self.latency.quantile_permille(990) as f64,
            ),
            ("mem.membus_txns", self.membus_txns as f64),
            ("mem.iobus_txns", self.iobus_txns as f64),
            ("mem.membus_busy_cycles", self.membus_busy_cycles as f64),
            ("mem.bus_wait_cycles", self.bus_wait_cycles as f64),
            (
                "mem.txns_per_frag",
                ratio(self.membus_txns + self.iobus_txns, self.sent_fragments),
            ),
            ("nic.sent_fragments", self.sent_fragments as f64),
            ("nic.received_fragments", self.received_fragments as f64),
            ("nic.send_full_retries", self.send_full_retries as f64),
            ("net.messages", f.messages as f64),
            ("net.wire_bytes", f.wire_bytes as f64),
            ("net.retransmits", f.retransmits as f64),
            ("net.timeouts", f.timeouts as f64),
            ("net.dup_discards", f.dup_discards as f64),
            ("net.faults_dropped", f.faults_dropped as f64),
            ("net.goodput_ratio", ratio(self.sent_fragments, f.messages)),
        ]
    }

    /// Every exact count: [`SimCounts::simulated`] plus the epoch
    /// schedule, which is exact for one seed, shard policy and core count.
    pub fn exact(&self) -> Vec<(&'static str, f64)> {
        let mut counts = self.simulated();
        counts.extend([
            ("sim.epochs", self.epochs as f64),
            ("sim.exchanges", self.exchanges as f64),
            ("sim.routed_events", self.routed_events as f64),
            (
                "sim.frags_per_epoch",
                ratio(self.sent_fragments, self.epochs),
            ),
        ]);
        counts
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The first count whose value differs between `a` and `b`, with both
/// values; counts are compared bit for bit.
pub fn first_difference(
    a: &[(&'static str, f64)],
    b: &[(&'static str, f64)],
) -> Option<(&'static str, f64, f64)> {
    a.iter()
        .zip(b)
        .find(|((na, va), (nb, vb))| na != nb || va.to_bits() != vb.to_bits())
        .map(|(&(name, va), &(_, vb))| (name, va, vb))
}
