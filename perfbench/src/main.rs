//! End-to-end and per-layer benchmark of the CNI simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload em3d-1024|rpc-lossy-256|campaign-fig8 \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Repeats the workload for `--seconds` seconds (at least a few
//! repetitions), checks every output, and prints one metric per line, a
//! host record, and as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! repetitions, runs the layer kernels and reports the per-layer metrics.
//! Exits non-zero if any check failed. See `perfbench/README.md`.

mod campaign;
mod counts;
mod host;
mod kernels;
mod machine;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use cni_nic::NiKind;

use campaign::CampaignWorkload;
use counts::first_difference;
use machine::MachineWorkload;
use trace::Tracer;

/// Where runs leave their traces, records and exact-count references,
/// relative to the checkout root the benchmark runs from.
pub const OUT_DIR: &str = ".perfbench-out";

const USAGE: &str = "usage: perfbench --workload em3d-1024|rpc-lossy-256|campaign-fig8 \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("frags_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics with a fixed name: name and unit. The NI kernel
/// metrics, one per NI model, follow them.
const PER_LAYER: [(&str, &str); 49] = [
    ("workloads.build_s", "s"),
    ("workloads.self_s", "s"),
    ("core.machine_new_s", "s"),
    ("core.run_s", "s"),
    ("core.self_s", "s"),
    ("core.sim_cycles", "cycles"),
    ("core.request_count", "count"),
    ("core.request_p50_cycles", "cycles"),
    ("core.request_p99_cycles", "cycles"),
    ("sim.epochs", "count"),
    ("sim.exchanges", "count"),
    ("sim.routed_events", "count"),
    ("sim.frags_per_epoch", "frag/epoch"),
    ("sim.auto_run_s", "s"),
    ("sim.shard_speedup", "ratio"),
    ("sim.host_us_per_epoch", "us"),
    ("sim.parallel_util", "ratio"),
    ("sim.queue_ns_per_op", "ns"),
    ("sim.hist_record_ns", "ns"),
    ("sim.pool_util", "ratio"),
    ("mem.membus_txns", "count"),
    ("mem.iobus_txns", "count"),
    ("mem.membus_busy_cycles", "cycles"),
    ("mem.bus_wait_cycles", "cycles"),
    ("mem.txns_per_frag", "txn/frag"),
    ("nic.sent_fragments", "count"),
    ("nic.received_fragments", "count"),
    ("nic.send_full_retries", "count"),
    ("net.messages", "count"),
    ("net.wire_bytes", "bytes"),
    ("net.retransmits", "count"),
    ("net.timeouts", "count"),
    ("net.dup_discards", "count"),
    ("net.faults_dropped", "count"),
    ("net.goodput_ratio", "ratio"),
    ("bench.cell_ms_p50", "ms"),
    ("bench.cell_ms_p90", "ms"),
    ("bench.cell_ms_max", "ms"),
    ("bench.warm_s", "s"),
    ("bench.render_s", "s"),
    ("bench.cache_bytes", "bytes"),
    ("bench.self_s", "s"),
    ("perfbench.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.traced_reps", "count"),
    ("trace.untraced_run_s", "s"),
    ("trace.traced_run_s", "s"),
    ("trace.kernel_s", "s"),
];

/// What one repetition of a workload measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Each set-up the repetition timed, in seconds.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the timed region.
    pub run_s: f64,
    /// CPU seconds (all threads) of the timed region.
    pub cpu_s: f64,
    /// Simulated fragments sent in the timed region.
    pub fragments: u64,
    /// Simulations (campaign cells) executed in the timed region.
    pub cells: u64,
    /// Host timings of single layers.
    pub layers: Vec<(&'static str, f64)>,
    /// Host-independent counts, which must repeat exactly for a seed.
    pub exact: Vec<(&'static str, f64)>,
    /// Runs or cells checked.
    pub attempted: u64,
    /// Runs or cells that failed a check.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
}

impl Rep {
    /// Counts one checked run or cell, failed if `failures` is non-empty.
    pub fn record(&mut self, workload: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures
                .extend(failures.into_iter().map(|f| format!("{workload}: {f}")));
        }
    }
}

enum Bench {
    Machine(Box<MachineWorkload>),
    Campaign(CampaignWorkload),
}

impl Bench {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        match self {
            Bench::Machine(w) => w.rep(tr),
            Bench::Campaign(w) => w.rep(tr),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, not {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| bad("a whole number of seconds from 1 to 3600"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|err| {
        eprintln!("perfbench: {err}\n{USAGE}");
        std::process::exit(2);
    });
    let mut bench = match args.workload.as_str() {
        "em3d-1024" => Bench::Machine(Box::new(MachineWorkload::em3d_1024(args.seed))),
        "rpc-lossy-256" => Bench::Machine(Box::new(MachineWorkload::rpc_lossy_256(args.seed))),
        "campaign-fig8" => Bench::Campaign(CampaignWorkload::new(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(OUT_DIR).expect("the checkout is writable");

    // In a traced run, even repetitions run untraced and odd ones traced,
    // so the tracing overhead is measured within one process.
    let min_reps = if args.trace { 4 } else { 3 };
    let budget = Duration::from_secs(args.seconds);
    let mut plain = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let started = Instant::now();
    while reps.len() < min_reps || started.elapsed() < budget {
        let trace_this = args.trace && reps.len() % 2 == 1;
        let tr = if trace_this { &mut traced } else { &mut plain };
        tr.set_run(reps.len() as u32);
        let (rep, _) = tr.timed("perfbench.rep", |tr| bench.rep(tr));
        reps.push((trace_this, rep));
    }

    let mut attempted: u64 = reps.iter().map(|(_, r)| r.attempted).sum();
    let mut failed: u64 = reps.iter().map(|(_, r)| r.failed).sum();
    let mut failures: Vec<String> = reps.iter().flat_map(|(_, r)| r.failures.clone()).collect();
    let mut fail = |message: String| {
        failed += 1;
        failures.push(format!("{}: {message}", args.workload));
    };

    // Every exact count must repeat across repetitions and across runs of
    // the same seed on this host.
    let first = &reps[0].1.exact;
    for (index, (_, rep)) in reps.iter().enumerate().skip(1) {
        if let Some((name, now, then)) = first_difference(&rep.exact, first) {
            fail(format!(
                "exact count {name} is {now} in repetition {index} but {then} in repetition 0"
            ));
        }
    }
    let reference = Path::new(OUT_DIR).join(format!(
        "exact-{}-seed{}-cores{}.txt",
        args.workload,
        args.seed,
        host::nproc()
    ));
    let rendered: String = first.iter().map(|(n, v)| format!("{n} {v}\n")).collect();
    match std::fs::read_to_string(&reference) {
        Ok(previous) if previous != rendered => {
            let line = previous
                .lines()
                .zip(rendered.lines())
                .find(|(a, b)| a != b)
                .map_or_else(
                    || "the set of counts".to_owned(),
                    |(a, b)| format!("{a} -> {b}"),
                );
            fail(format!(
                "exact counts differ from an earlier run of this seed ({}): {line}",
                reference.display()
            ));
        }
        Ok(_) => {}
        Err(_) => write_atomically(&reference, &rendered),
    }

    let metrics = if args.trace {
        let (kernel_metrics, kernel_attempted, kernel_failures) =
            run_kernels(&mut traced, args.seed);
        attempted += kernel_attempted;
        for failure in kernel_failures {
            fail(failure);
        }
        per_layer_metrics(&reps, &traced, kernel_metrics)
    } else {
        end_to_end_metrics(&reps)
    };

    // A failure of a whole repetition is recorded once per cell; print
    // each distinct failure once.
    let mut distinct: BTreeMap<&str, usize> = BTreeMap::new();
    for failure in &failures {
        *distinct.entry(failure).or_default() += 1;
    }
    for (failure, times) in distinct {
        eprintln!("perfbench: FAILED ({times}x) {failure}");
    }
    for (name, value, unit) in &metrics {
        assert!(value.is_finite(), "metric {name} is {value}");
        println!("{:>9} {name:<32} {value:>16.6} {unit}", args.workload);
    }
    let samples = |pick: fn(&Rep) -> Vec<f64>| -> String {
        let all: Vec<String> = reps
            .iter()
            .flat_map(|(_, r)| pick(r))
            .map(|v| v.to_string())
            .collect();
        format!("[{}]", all.join(","))
    };
    let record = format!(
        r#"{{"workload":"{}","seed":{},"seconds":{},"trace":{},"nproc":{},"commit":"{}","reps":{},"process_cpu_s":{},"peak_rss_mb":{},"samples":{{"setup_s":{},"run_s":{},"cpu_s":{}}},"attempted":{},"failed":{}}}"#,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        host::git_commit(),
        reps.len(),
        host::cpu_seconds(),
        host::peak_rss_mb(),
        samples(|r| r.setup_s.clone()),
        samples(|r| vec![r.run_s]),
        samples(|r| vec![r.cpu_s]),
        attempted,
        failed,
    );
    append_line(&Path::new(OUT_DIR).join("records.jsonl"), &record);
    println!(r#"{{"record":{record}}}"#);
    if args.trace {
        let path =
            Path::new(OUT_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, traced.write_json()).expect("the trace file is writable");
        eprintln!(
            "perfbench: {} spans written to {}",
            traced.spans().len(),
            path.display()
        );
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#))
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        failed == 0,
        body.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end_metrics(reps: &[(bool, Rep)]) -> Metrics {
    let over = |f: fn(&Rep) -> f64| median(&reps.iter().map(|(_, r)| f(r)).collect::<Vec<_>>());
    let setups: Vec<f64> = reps.iter().flat_map(|(_, r)| r.setup_s.clone()).collect();
    let values = [
        median(&setups),
        over(|r| r.run_s),
        // CPU time is read in 10 ms ticks; a mean keeps the digits a median
        // of tick counts would lose.
        reps.iter().map(|(_, r)| r.cpu_s).sum::<f64>() / reps.len() as f64,
        over(|r| r.fragments as f64 / r.run_s),
        over(|r| r.cells as f64 / r.run_s),
        host::peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_owned(), value, unit))
        .collect()
}

/// Runs the layer kernels under `tr`; returns their metrics, the number of
/// kernels checked and their failures.
fn run_kernels(tr: &mut Tracer, seed: u64) -> (Vec<(String, f64)>, u64, Vec<String>) {
    tr.set_run(u32::MAX);
    let mut metrics = Vec::new();
    let mut failures = Vec::new();
    let (_, kernel_s) = tr.timed("perfbench.kernels", |tr| {
        let (queue, _) = tr.timed("sim.kernel_queue", |_| kernels::queue_ns_per_op(seed));
        let (hist, _) = tr.timed("sim.kernel_hist", |_| kernels::hist_record_ns(seed));
        metrics.push(("sim.queue_ns_per_op".to_owned(), queue));
        metrics.push(("sim.hist_record_ns".to_owned(), hist));
        for kind in NiKind::ALL {
            match tr
                .timed("nic.kernel_fragment", |_| kernels::nic_fragment(kind))
                .0
            {
                Ok(k) => {
                    metrics.push((format!("nic.frag_ns.{kind}"), k.ns_per_frag));
                    metrics.push((format!("nic.kernel_txns_per_frag.{kind}"), k.txns_per_frag));
                }
                Err(err) => failures.push(format!("fragment kernel: {err}")),
            }
        }
    });
    metrics.push(("trace.kernel_s".to_owned(), kernel_s));
    (metrics, NiKind::ALL.len() as u64, failures)
}

fn per_layer_metrics(
    reps: &[(bool, Rep)],
    traced: &Tracer,
    kernels: Vec<(String, f64)>,
) -> Metrics {
    let mut values: BTreeMap<String, f64> = kernels.into_iter().collect();
    let traced_reps: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let untraced_run: Vec<f64> = reps
        .iter()
        .filter(|(t, _)| !*t)
        .map(|(_, r)| r.run_s)
        .collect();
    let traced_run: Vec<f64> = traced_reps.iter().map(|r| r.run_s).collect();
    for (name, _) in &traced_reps[0].layers {
        let samples: Vec<f64> = traced_reps
            .iter()
            .flat_map(|r| r.layers.iter().filter(|(n, _)| n == name).map(|&(_, v)| v))
            .collect();
        values.insert((*name).to_owned(), median(&samples));
    }
    for &(name, value) in &traced_reps[0].exact {
        values.insert(name.to_owned(), value);
    }
    let count = traced_reps.len() as f64;
    for (layer, seconds) in traced.self_seconds_by_layer(|run| run != u32::MAX) {
        values.insert(format!("{layer}.self_s"), seconds / count);
    }
    values.insert("trace.spans".to_owned(), traced.spans().len() as f64);
    values.insert("trace.traced_reps".to_owned(), count);
    values.insert("trace.untraced_run_s".to_owned(), median(&untraced_run));
    values.insert("trace.traced_run_s".to_owned(), median(&traced_run));
    values.insert(
        "trace.overhead_s".to_owned(),
        median(&traced_run) - median(&untraced_run),
    );
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            (name, value, unit)
        })
        .collect()
}

/// Every per-layer metric, in output order. A workload that does not
/// exercise a layer reports 0 for it.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit))
        .collect();
    for kind in NiKind::ALL {
        names.push((format!("nic.frag_ns.{kind}"), "ns"));
        names.push((format!("nic.kernel_txns_per_frag.{kind}"), "txn/frag"));
    }
    names
}

fn write_atomically(path: &Path, text: &str) {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, path))
        .expect("the output directory is writable");
}

fn append_line(path: &Path, line: &str) {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("the records file is writable");
    writeln!(file, "{line}").expect("the records file is writable");
}
