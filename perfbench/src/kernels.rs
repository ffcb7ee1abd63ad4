//! Standalone loops over single layers' public functions, for the layers a
//! whole-machine run cannot time from outside: the event queue, the latency
//! histogram and one fragment's trip through a pair of NI device models.

use std::hint::black_box;
use std::time::Instant;

use cni_core::machine::{MachineConfig, NodeCore};
use cni_nic::{DeliverOutcome, FragRef, NiKind};
use cni_sim::event::EventQueue;
use cni_sim::rng::DetRng;
use cni_sim::stats::{LatencyHistogram, Merge};

use crate::median;

/// Timed batches per kernel; each kernel reports the median batch.
const BATCHES: usize = 5;

/// Nanoseconds per `pop_before` + `schedule` pair of the default event-queue
/// backend under a hold model (every popped event schedules one successor),
/// half the operations on a dense population of pending events and half on
/// a sparse one, advancing the horizon in epochs as the sharded machine does.
pub fn queue_ns_per_op(seed: u64) -> f64 {
    const OPS: u64 = 200_000;
    let mut rng = DetRng::new(seed);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            let ops = hold(&mut rng, 4096, OPS) + hold(&mut rng, 16, OPS);
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

fn hold(rng: &mut DetRng, population: u64, ops: u64) -> u64 {
    const EPOCH: u64 = 100;
    const SPREAD: u64 = 600;
    let mut queue = EventQueue::new();
    for event in 0..population {
        queue.schedule(rng.gen_range(SPREAD), event);
    }
    let mut horizon = EPOCH;
    let mut done = 0;
    while done < ops {
        while let Some((at, event)) = queue.pop_before(horizon) {
            queue.schedule(at + 1 + rng.gen_range(SPREAD), event);
            done += 1;
            if done == ops {
                break;
            }
        }
        horizon += EPOCH;
    }
    black_box(queue.len());
    done
}

/// Nanoseconds per `LatencyHistogram::record`, including a share of merging
/// sixteen per-node histograms into one machine total.
pub fn hist_record_ns(seed: u64) -> f64 {
    const RECORDS: usize = 1_000_000;
    let mut rng = DetRng::new(seed);
    let values: Vec<u64> = (0..RECORDS)
        .map(|_| 1 << rng.gen_range(20) | rng.gen_range(1 << 10))
        .collect();
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            let mut parts = [LatencyHistogram::new(); 16];
            for (i, &value) in values.iter().enumerate() {
                parts[i % 16].record(black_box(value));
            }
            black_box(LatencyHistogram::merged(parts));
            started.elapsed().as_nanos() as f64 / RECORDS as f64
        })
        .collect();
    median(&samples)
}

/// One NI model's fragment kernel.
pub struct FragKernel {
    /// Host nanoseconds per fragment.
    pub ns_per_frag: f64,
    /// Simulated bus transactions per fragment on both nodes (exact).
    pub txns_per_frag: f64,
}

/// Sends 64-byte fragments from node 0 to node 1 of a two-node `kind`
/// machine, one at a time, through `proc_send`, `device_take_for_injection`,
/// `device_deliver`, `proc_poll` and `proc_receive`, and checks that each
/// arrives intact.
pub fn nic_fragment(kind: NiKind) -> Result<FragKernel, String> {
    const FRAGS: u64 = 4_000;
    let cfg = MachineConfig::isca96(2, kind);
    let latency = cfg.timing.network_latency;
    let mut tx = NodeCore::new(0, &cfg);
    let mut rx = NodeCore::new(1, &cfg);
    let txns = |n: &NodeCore| n.mem.memory_bus().transactions() + n.mem.io_bus().transactions();
    let txns_before = txns(&tx) + txns(&rx);
    let mut now = 0;
    let mut token = 0;
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let started = Instant::now();
        for _ in 0..FRAGS {
            let frag = FragRef::new(token, 64);
            token += 1;
            let sent = tx.ni.proc_send(now, &mut tx.mem, frag);
            if !sent.is_accepted() {
                return Err(format!("{kind}: send queue full with nothing in flight"));
            }
            let (ready, taken) = tx
                .ni
                .device_take_for_injection(sent.done(), &mut tx.mem)
                .ok_or_else(|| format!("{kind}: an accepted fragment was not injected"))?;
            let DeliverOutcome::Accepted { done } =
                rx.ni.device_deliver(ready + latency, &mut rx.mem, taken)
            else {
                return Err(format!("{kind}: an empty receive queue refused a fragment"));
            };
            let poll = rx.ni.proc_poll(done, &mut rx.mem);
            if !poll.available {
                return Err(format!(
                    "{kind}: a delivered fragment is not visible to poll"
                ));
            }
            let received = rx
                .ni
                .proc_receive(poll.done, &mut rx.mem)
                .ok_or_else(|| format!("{kind}: a polled fragment could not be received"))?;
            if received.frag != frag {
                return Err(format!(
                    "{kind}: sent {frag:?} but received {:?}",
                    received.frag
                ));
            }
            now = received.done;
        }
        samples.push(started.elapsed().as_nanos() as f64 / FRAGS as f64);
    }
    Ok(FragKernel {
        ns_per_frag: median(&samples),
        txns_per_frag: (txns(&tx) + txns(&rx) - txns_before) as f64 / token as f64,
    })
}
