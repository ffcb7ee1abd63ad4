//! `campaign-fig8`: the Figure 8 campaign over every registry workload at
//! the scaled tier, run cold through the campaign engine, then re-read warm
//! from the cache it just wrote, rendered, and replayed cell by cell on one
//! core as the reference.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::path::Path;

use cni_bench::campaign::figures::{fig8_campaign, render_markdown};
use cni_bench::campaign::{run_campaigns, CacheMode, ExperimentSpec, RunOptions};
use cni_bench::json::Json;
use cni_bench::report_digest;
use cni_core::machine::{Machine, MachineConfig};
use cni_sim::rng::DetRng;
use cni_workloads::{ParamsTier, Workload};

use crate::counts::SimCounts;
use crate::trace::Tracer;
use crate::{host, Rep, OUT_DIR};

const NAME: &str = "campaign-fig8";
const TIER: ParamsTier = ParamsTier::Scaled;

pub struct CampaignWorkload {
    /// The registry workloads in the seed's order: the seed permutes the
    /// order in which the cell pool claims the cells, never their results.
    order: Vec<Workload>,
    /// The committed Figure 8 section of `RESULTS.md`, if it could be read.
    expected_markdown: Result<String, String>,
    jobs: usize,
    reps: u32,
}

impl CampaignWorkload {
    pub fn new(seed: u64) -> Self {
        let mut order = Workload::ALL.to_vec();
        DetRng::new(seed).shuffle(&mut order);
        let canonical = fig8_campaign(TIER, &Workload::ALL);
        let expected_markdown = std::fs::read_to_string("RESULTS.md")
            .map_err(|err| format!("cannot read RESULTS.md: {err}"))
            .and_then(|text| {
                results_section(&text, &canonical.title)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("RESULTS.md has no section {:?}", canonical.title))
            });
        CampaignWorkload {
            order,
            expected_markdown,
            jobs: host::nproc(),
            reps: 0,
        }
    }

    pub fn rep(&mut self, tr: &mut Tracer) -> Rep {
        self.reps += 1;
        let dir = Path::new(OUT_DIR).join(format!("cache-{}-{}", std::process::id(), self.reps));
        let ((campaign, canonical), spec_s) = tr.timed("bench.setup", |_| {
            let campaign = fig8_campaign(TIER, &self.order);
            let canonical = fig8_campaign(TIER, &Workload::ALL);
            for spec in campaign.cells.iter().chain(&canonical.cells) {
                black_box(spec.digest());
            }
            (campaign, canonical)
        });
        std::fs::create_dir_all(&dir).expect("the output directory is writable");

        let cpu_before = host::cpu_seconds();
        let (cold, run_s) = tr.timed("bench.run_campaigns_cold", |_| {
            run_campaigns(
                std::slice::from_ref(&campaign),
                &RunOptions {
                    jobs: self.jobs,
                    cache: CacheMode::WriteOnly(dir.clone()),
                    ..RunOptions::default()
                },
            )
        });
        let cpu_s = host::cpu_seconds() - cpu_before;
        let cache_bytes = dir_bytes(&dir);
        let (warm, warm_s) = tr.timed("bench.run_campaigns_warm", |_| {
            run_campaigns(
                std::slice::from_ref(&canonical),
                &RunOptions {
                    jobs: self.jobs,
                    cache: CacheMode::ReadWrite(dir.clone()),
                    ..RunOptions::default()
                },
            )
        });
        let (markdown, render_s) = tr.timed("bench.render_markdown", |_| {
            render_markdown(&warm.campaigns[0])
        });
        std::fs::remove_dir_all(&dir).expect("the cache directory can be removed");

        // The cold run's unique cells, in the order the pool claimed them.
        let mut seen = BTreeSet::new();
        let cells: Vec<(u64, ExperimentSpec, &str)> = cold.campaigns[0]
            .cells
            .iter()
            .filter(|cell| seen.insert(cell.digest))
            .map(|cell| (cell.digest, cell.spec, cell.json.as_str()))
            .collect();
        let warm_json: HashMap<u64, &str> = warm.campaigns[0]
            .cells
            .iter()
            .map(|cell| (cell.digest, cell.json.as_str()))
            .collect();

        let mut rep = Rep {
            run_s,
            cpu_s,
            cells: cold.executed as u64,
            ..Rep::default()
        };
        let mut whole_run = Vec::new();
        if cold.executed != cells.len() || cold.cache_hits != 0 {
            whole_run.push(format!(
                "cold run executed {} of {} cells with {} cache hits",
                cold.executed,
                cells.len(),
                cold.cache_hits
            ));
        }
        if warm.executed != 0 {
            whole_run.push(format!("warm re-read executed {} cells", warm.executed));
        }
        match &self.expected_markdown {
            Ok(expected) if *expected == markdown => {}
            Ok(_) => whole_run.push("rendered Figure 8 differs from RESULTS.md".to_owned()),
            Err(err) => whole_run.push(err.clone()),
        }

        let mut totals = SimCounts::default();
        let (mut serial_s, mut build_s, mut new_s, mut machine_s) = (0.0, 0.0, 0.0, 0.0);
        let mut cell_ms = Vec::with_capacity(cells.len());
        for (digest, spec, json) in cells {
            let ((mut failures, counts, split), cell_s) =
                tr.timed("bench.cell", |tr| replay(tr, &spec, json));
            failures.extend(whole_run.iter().cloned());
            if warm_json.get(&digest) != Some(&json) {
                failures.push(format!(
                    "{}: warm re-read differs from the cold run",
                    spec.label()
                ));
            }
            rep.record(NAME, failures);
            totals.add(&counts);
            serial_s += cell_s;
            build_s += split.0;
            new_s += split.1;
            machine_s += split.2;
            cell_ms.push(cell_s * 1e3);
        }
        cell_ms.sort_by(f64::total_cmp);
        let quantile = |q: f64| cell_ms[((cell_ms.len() - 1) as f64 * q).round() as usize];
        let jobs = self.jobs as f64;
        // The campaign's set-up is the cell grids and cache keys plus every
        // cell's inputs and machine, as the single-thread replay times them:
        // the grids alone take microseconds, below the timer's noise.
        rep.setup_s = vec![spec_s + build_s + new_s];
        rep.fragments = totals.sent_fragments;
        rep.layers = vec![
            ("workloads.build_s", build_s),
            ("core.machine_new_s", new_s),
            ("core.run_s", machine_s),
            ("sim.shard_speedup", serial_s / run_s),
            (
                "sim.host_us_per_epoch",
                machine_s * 1e6 / totals.epochs.max(1) as f64,
            ),
            ("sim.parallel_util", cpu_s / (jobs * run_s)),
            ("sim.pool_util", serial_s / (jobs * run_s)),
            ("bench.cell_ms_p50", quantile(0.5)),
            ("bench.cell_ms_p90", quantile(0.9)),
            ("bench.cell_ms_max", quantile(1.0)),
            ("bench.warm_s", warm_s),
            ("bench.render_s", render_s),
            ("bench.cache_bytes", cache_bytes as f64),
        ];
        rep.exact = totals.exact();
        rep
    }
}

/// Re-runs one Figure 8 cell on this thread with the calls
/// `ExperimentSpec::execute` makes, and checks the result against the JSON
/// the campaign engine produced for it. Returns the failures, the cell's
/// counts and its (programs, `Machine::new`, `Machine::run`) seconds.
fn replay(
    tr: &mut Tracer,
    spec: &ExperimentSpec,
    json: &str,
) -> (Vec<String>, SimCounts, (f64, f64, f64)) {
    let ExperimentSpec::Macro {
        workload,
        ni,
        location,
        nodes,
        tier,
    } = *spec
    else {
        return (
            vec![format!("{}: not a macrobenchmark cell", spec.label())],
            SimCounts::default(),
            (0.0, 0.0, 0.0),
        );
    };
    let cfg = MachineConfig::for_bus(nodes, ni, location);
    let params = tier.params();
    let (programs, build_s) = tr.timed("workloads.programs", |_| workload.programs(nodes, &params));
    let (mut machine, new_s) = tr.timed("core.machine_new", |_| Machine::new(cfg, programs));
    let (report, run_s) = tr.timed("core.machine_run", |_| machine.run());
    let (counts, _) = tr.timed("core.read_counts", |_| SimCounts::read(&machine, &report));

    let mut failures = Vec::new();
    if !report.completed || report.aborted {
        failures.push(format!("{}: run did not complete", spec.label()));
    }
    match Json::parse(json) {
        Ok(result) => {
            let digest = format!("{:016x}", report_digest(&report));
            if result.get("cycles").and_then(Json::as_u64) != Some(report.cycles)
                || result.get("report_digest").and_then(Json::as_str) != Some(digest.as_str())
            {
                failures.push(format!(
                    "{}: the pool's result differs from the single-thread replay",
                    spec.label()
                ));
            }
        }
        Err(err) => failures.push(format!("{}: invalid result JSON: {err}", spec.label())),
    }
    (failures, counts, (build_s, new_s, run_s))
}

/// The body of the `## {title}` section of a generated `RESULTS.md`: the
/// text between the heading's blank line and the next `## ` heading.
fn results_section<'a>(text: &'a str, title: &str) -> Option<&'a str> {
    let heading = format!("## {title}\n\n");
    let body = &text[text.find(&heading)? + heading.len()..];
    Some(body.find("\n## ").map_or(body, |end| &body[..end]))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("the cache directory is readable")
        .map(|entry| {
            entry
                .and_then(|e| e.metadata())
                .expect("cache entries are readable")
                .len()
        })
        .sum()
}
