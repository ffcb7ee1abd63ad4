//! The two machine workloads: one large simulated machine per run, run once
//! on a single shard (timed) and once under `ShardPolicy::Auto` (checked
//! against it and reported per layer).

use cni_bench::report_digest;
use cni_core::machine::{Machine, MachineConfig, RunReport, ShardPolicy};
use cni_net::faults::FaultConfig;
use cni_nic::taxonomy::NiKind;
use cni_workloads::em3d::Em3dParams;
use cni_workloads::rpc::RpcParams;
use cni_workloads::{Workload, WorkloadParams};

use crate::counts::{first_difference, SimCounts};
use crate::trace::Tracer;
use crate::{host, Rep};

/// A workload that runs one machine per shard policy.
pub struct MachineWorkload {
    name: &'static str,
    workload: Workload,
    nodes: usize,
    ni: NiKind,
    params: WorkloadParams,
    faults: FaultConfig,
    /// Requests the latency histogram must hold, for request/response
    /// workloads.
    expected_requests: Option<u64>,
}

/// One machine run.
struct Run {
    setup_s: f64,
    build_s: f64,
    new_s: f64,
    run_s: f64,
    cpu_s: f64,
    threads: usize,
    report: RunReport,
    counts: SimCounts,
}

impl MachineWorkload {
    /// `em3d-1024`: the `scaling big` inputs at 1024 nodes (32 graph nodes
    /// per machine node, degree 5, 25 iterations) on CNI512Q. Dense epochs:
    /// hundreds of fragments each.
    pub fn em3d_1024(seed: u64) -> Self {
        let nodes = 1024;
        let params = WorkloadParams {
            em3d: Em3dParams {
                graph_nodes: nodes * 32,
                degree: 5,
                iterations: 25,
                seed,
                ..Em3dParams::default()
            },
            ..WorkloadParams::tiny()
        };
        MachineWorkload {
            name: "em3d-1024",
            workload: Workload::Em3d,
            nodes,
            ni: NiKind::Cni512Q,
            params,
            faults: FaultConfig::default(),
            expected_requests: None,
        }
    }

    /// `rpc-lossy-256`: closed-loop RPC on 256 nodes (16 servers, 512
    /// requests per client) on CNI16Qm over a fabric that drops 1% and
    /// duplicates 0.25% of messages, recovered by retransmission. Sparse
    /// epochs: a handful of fragments each.
    pub fn rpc_lossy_256(seed: u64) -> Self {
        let nodes = 256;
        let servers = 16;
        let requests_per_client = 512;
        let params = WorkloadParams {
            rpc_closed: RpcParams {
                servers,
                requests_per_client,
                seed,
                ..RpcParams::closed()
            },
            ..WorkloadParams::tiny()
        };
        MachineWorkload {
            name: "rpc-lossy-256",
            workload: Workload::RpcClosed,
            nodes,
            ni: NiKind::Cni16Qm,
            params,
            faults: FaultConfig {
                seed,
                drop_ppm: 10_000,
                duplicate_ppm: 2_500,
                retransmit: true,
                ..FaultConfig::default()
            },
            expected_requests: Some(((nodes - servers) * requests_per_client) as u64),
        }
    }

    fn run(&self, tr: &mut Tracer, policy: ShardPolicy) -> Run {
        let cfg = MachineConfig::isca96(self.nodes, self.ni)
            .with_shards(policy)
            .with_faults(self.faults.clone());
        let (programs, build_s) = tr.timed("workloads.programs", |_| {
            self.workload.programs(self.nodes, &self.params)
        });
        let (mut machine, new_s) = tr.timed("core.machine_new", |_| Machine::new(cfg, programs));
        let threads = if machine.config().exec_parallel() {
            machine.shard_count()
        } else {
            1
        };
        let cpu_before = host::cpu_seconds();
        let (report, run_s) = tr.timed("core.machine_run", |_| machine.run());
        let cpu_s = host::cpu_seconds() - cpu_before;
        let (counts, _) = tr.timed("core.read_counts", |_| SimCounts::read(&machine, &report));
        Run {
            setup_s: build_s + new_s,
            build_s,
            new_s,
            run_s,
            cpu_s,
            threads,
            report,
            counts,
        }
    }

    /// One repetition: the timed 1-shard run, then the Auto run.
    ///
    /// The Auto run is not the timed region: its epoch barrier waits on the
    /// second core every epoch, and on a shared host whose second vCPU comes
    /// and goes it ran anywhere from 0.9 to 3 s (em3d-1024) and 1 to 5 s
    /// (rpc-lossy-256) for the same work, beyond any bound a change could be
    /// judged by. Its time and the speedup are reported per layer.
    pub fn rep(&self, tr: &mut Tracer) -> Rep {
        let single = self.run(tr, ShardPolicy::Single);
        let auto = self.run(tr, ShardPolicy::Auto);
        let mut rep = Rep {
            setup_s: vec![single.setup_s, auto.setup_s],
            run_s: single.run_s,
            cpu_s: single.cpu_s,
            fragments: single.counts.sent_fragments,
            cells: 1,
            layers: vec![
                ("workloads.build_s", (single.build_s + auto.build_s) / 2.0),
                ("core.machine_new_s", (single.new_s + auto.new_s) / 2.0),
                ("core.run_s", single.run_s),
                ("sim.auto_run_s", auto.run_s),
                ("sim.shard_speedup", single.run_s / auto.run_s),
                (
                    "sim.host_us_per_epoch",
                    auto.run_s * 1e6 / auto.counts.epochs.max(1) as f64,
                ),
                (
                    "sim.parallel_util",
                    auto.cpu_s / (auto.threads as f64 * auto.run_s),
                ),
            ],
            exact: auto.counts.exact(),
            ..Rep::default()
        };
        let single_failures = self.check(&single, "1-shard");
        let mut auto_failures = self.check(&auto, "Auto");
        // Invariant 3: sharding changes how the simulator schedules its own
        // work, never a simulated number.
        if report_digest(&auto.report) != report_digest(&single.report)
            || auto.report != single.report
        {
            auto_failures.push("Auto report differs from the 1-shard report".to_owned());
        }
        if let Some((name, a, s)) =
            first_difference(&auto.counts.simulated(), &single.counts.simulated())
        {
            auto_failures.push(format!("{name} is {a} under Auto but {s} on one shard"));
        }
        rep.record(self.name, single_failures);
        rep.record(self.name, auto_failures);
        rep
    }

    fn check(&self, run: &Run, policy: &str) -> Vec<String> {
        let mut failures = Vec::new();
        if !run.report.completed || run.report.aborted {
            failures.push(format!(
                "{policy} run did not complete (aborted: {}; {})",
                run.report.aborted,
                run.report.pending_summary()
            ));
        }
        if let Some(expected) = self.expected_requests {
            let count = run.counts.latency.count();
            if count != expected {
                failures.push(format!(
                    "{policy} run recorded {count} request latencies, expected {expected}"
                ));
            }
        }
        failures
    }
}
