//! The four workloads and how each is measured and checked.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use punchsim_campaign::{
    CampaignReport, Json, Metrics, Outcome, RunSpec, Runner, Workload as SpecWorkload, DEFAULT_SEED,
};
use punchsim_cmp::Benchmark;
use punchsim_metrics::Phase;
use punchsim_traffic::TrafficPattern;
use punchsim_types::{Mesh, RoutingKind, SchemeKind};
use punchsim_verify::{build_network, run_verification, VerifyConfig};

use crate::drive::{drive, merged_latency, time_setup, SpecRun};
use crate::phases::PhaseTotals;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{median, positionwise_median, Tail, Tally};

/// Constructions timed per spec before the measured passes; every pass
/// adds one more sample.
const SETUP_REPS: usize = 11;
/// Scenario constructions timed for `verify_2x3`, whose set-up is short.
const VERIFY_SETUP_REPS: usize = 101;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8x8 full-system CMP under `ppf`: PARSEC blackscholes and canneal.
    FullsysParsec,
    /// 32x32 mesh under continuous uniform traffic.
    BusyMesh,
    /// 8x8 mesh at a load low enough for fast-forward to do the work.
    SparseIdle,
    /// The exhaustive model checker on a 2x3 mesh with faults.
    Verify2x3,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FullsysParsec,
        Workload::BusyMesh,
        Workload::SparseIdle,
        Workload::Verify2x3,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FullsysParsec => "fullsys_parsec",
            Workload::BusyMesh => "busy_mesh",
            Workload::SparseIdle => "sparse_idle",
            Workload::Verify2x3 => "verify_2x3",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaign specs of a tick-driven workload (empty for
    /// `verify_2x3`).
    pub fn specs(self, seed: u64) -> Vec<RunSpec> {
        match self {
            // Exactly the `ppf` rows of bench/baseline.json for these two
            // presets; canneal carries about 2.4x blackscholes' load.
            Workload::FullsysParsec => [Benchmark::Blackscholes, Benchmark::Canneal]
                .into_iter()
                .map(|benchmark| RunSpec {
                    scheme: SchemeKind::PowerPunchFull,
                    seed,
                    workload: SpecWorkload::Parsec {
                        benchmark,
                        instr_per_core: 20_000,
                        warmup_instr: 2_000,
                    },
                })
                .collect(),
            // The pool suite's spec at full length.
            Workload::BusyMesh => vec![uniform_ppf(seed, 32, 0.0005, 5_000, 40_000)],
            // The fastpath suite's `ppf` spec at full length.
            Workload::SparseIdle => vec![uniform_ppf(seed, 8, 0.00005, 1_250_000, 10_000_000)],
            Workload::Verify2x3 => Vec::new(),
        }
    }

    /// Simulated cycles per timed chunk: one pass yields at least 1000
    /// chunks (about 1750 for the two PARSEC runs, 1125 for the synthetic
    /// ones), so the p99 leaves at least ten samples beyond it.
    pub fn chunk_cycles(self) -> u64 {
        match self {
            Workload::FullsysParsec => 100,
            Workload::BusyMesh => 40,
            Workload::SparseIdle => 10_000,
            Workload::Verify2x3 => 0,
        }
    }
}

/// Uniform-random traffic under `ppf` on a `side`x`side` mesh.
fn uniform_ppf(
    seed: u64,
    side: u16,
    rate: f64,
    warmup_cycles: u64,
    measure_cycles: u64,
) -> RunSpec {
    RunSpec {
        scheme: SchemeKind::PowerPunchFull,
        seed,
        workload: SpecWorkload::Synthetic {
            pattern: TrafficPattern::UniformRandom,
            topo: Mesh::new(side, side).into(),
            routing: RoutingKind::Xy,
            rate,
            warmup_cycles,
            measure_cycles,
        },
    }
}

/// Command-line settings of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Runs `s.workload` and returns its report.
///
/// # Errors
///
/// A reference file the checks need cannot be read or parsed.
pub fn run(s: &Settings) -> Result<Report, String> {
    match s.workload {
        Workload::Verify2x3 => run_verify(s),
        w => run_ticks(w, s),
    }
}

fn repo_file(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(rel)
}

/// The `bench/baseline.json` metrics of each spec, in spec order.
fn baseline_rows(specs: &[RunSpec]) -> Result<Vec<Metrics>, String> {
    let path = repo_file("bench/baseline.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("bench/baseline.json has no runs")?;
    specs
        .iter()
        .map(|spec| {
            let id = spec.id();
            runs.iter()
                .find(|r| r.get("id").and_then(Json::as_str) == Some(id.as_str()))
                .and_then(|r| r.get("metrics"))
                .and_then(Metrics::from_json)
                .ok_or(format!("bench/baseline.json has no row {id}"))
        })
        .collect()
}

/// One pass over a workload's specs.
struct Pass {
    runs: Vec<SpecRun>,
}

impl Pass {
    fn run_s(&self) -> f64 {
        self.runs.iter().map(|r| r.run_s).sum()
    }

    fn cycles(&self) -> u64 {
        self.runs.iter().map(|r| r.cycles).sum()
    }
}

/// Shared state of the passes of one benchmark run.
struct Ticks<'a> {
    specs: &'a [RunSpec],
    chunk: u64,
    baseline: Option<Vec<Metrics>>,
    /// Metrics of each spec's first run; every later run must equal them.
    first: Vec<Option<Metrics>>,
    setup: Vec<Vec<f64>>,
    tally: Tally,
    passes: usize,
}

impl Ticks<'_> {
    fn pass(&mut self, profiled: bool) -> Pass {
        self.passes += 1;
        let mut runs = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            let op = format!(
                "{} pass {}{}",
                spec.id(),
                self.passes,
                if profiled { " (traced)" } else { "" }
            );
            let run = match drive(spec, self.chunk, profiled) {
                Ok(run) => run,
                Err(e) => {
                    self.tally.record(&op, vec![e]);
                    continue;
                }
            };
            let mut problems = run.problems.clone();
            problems.extend(self.check_metrics(i, &run.metrics));
            self.setup[i].push(run.setup_s);
            self.tally.record(&op, problems);
            runs.push(run);
        }
        Pass { runs }
    }

    /// Checks a run's metrics against the spec's first run and, at the
    /// default seed, against the checked-in baseline.
    fn check_metrics(&mut self, i: usize, m: &Metrics) -> Vec<String> {
        let mut problems = Vec::new();
        match &self.first[i] {
            None => self.first[i] = Some(m.clone()),
            Some(f) => problems.extend(mismatch("the spec's first run", f, m)),
        }
        if let Some(b) = &self.baseline {
            problems.extend(mismatch("bench/baseline.json", &b[i], m));
        }
        problems
    }

    /// Runs the specs once through the campaign runner and checks its
    /// metrics against the chunked driver's. Returns
    /// `(campaign.self_s, campaign.serialize_s)`.
    fn campaign_pass(&mut self, name: &str) -> (f64, f64) {
        let runner = Runner {
            threads: 1,
            ..Default::default()
        };
        let t = Instant::now();
        let outcomes = runner.run(self.specs);
        let wall_nanos = t.elapsed().as_nanos() as u64;
        let run_nanos: u64 = outcomes
            .iter()
            .filter_map(Outcome::record)
            .map(|r| r.wall_nanos)
            .sum();
        let self_s = wall_nanos.saturating_sub(run_nanos) as f64 * 1e-9;
        let t = Instant::now();
        let report = CampaignReport {
            name: name.to_string(),
            threads: 1,
            outcomes,
            wall_nanos,
        };
        black_box((report.to_json().render(), report.timing_json().render()));
        let serialize_s = t.elapsed().as_secs_f64();
        for (i, outcome) in report.outcomes.iter().enumerate() {
            let op = format!("campaign {}", self.specs[i].id());
            let problems = match outcome {
                Outcome::Failed(e) => vec![e.to_string()],
                Outcome::Done(rec) => self.check_metrics(i, &rec.metrics),
            };
            self.tally.record(&op, problems);
        }
        (self_s, serialize_s)
    }
}

/// A problem line when `got` differs from `want`.
fn mismatch(what: &str, want: &Metrics, got: &Metrics) -> Option<String> {
    (want != got).then(|| {
        format!(
            "metrics differ from {what}: got {} want {}",
            got.to_json().render_compact(),
            want.to_json().render_compact()
        )
    })
}

fn run_ticks(w: Workload, s: &Settings) -> Result<Report, String> {
    let specs = w.specs(s.seed);
    let default_seed = s.seed == DEFAULT_SEED;
    let mut notes = vec![format!(
        "seed {:#x}, {} spec(s): {}",
        s.seed,
        specs.len(),
        specs.iter().map(RunSpec::id).collect::<Vec<_>>().join(", ")
    )];
    let baseline = if w == Workload::FullsysParsec {
        if default_seed {
            notes.push("checks: rows equal bench/baseline.json".into());
            Some(baseline_rows(&specs)?)
        } else {
            notes.push(format!(
                "checks: baseline comparison skipped (seed is not the default {DEFAULT_SEED:#x})"
            ));
            None
        }
    } else {
        None
    };
    notes.push(
        "checks: every run completes and repeats the first run's metrics exactly \
         (traced and untraced alike)"
            .into(),
    );
    if w == Workload::FullsysParsec {
        notes.push("checks: no coherence violation; a watchdog panic counts as a failure".into());
    }
    let mut t = Ticks {
        specs: &specs,
        chunk: w.chunk_cycles(),
        baseline,
        first: vec![None; specs.len()],
        setup: specs.iter().map(|sp| time_setup(sp, SETUP_REPS)).collect(),
        tally: Tally::default(),
        passes: 0,
    };
    let budget = Duration::from_secs(s.seconds);
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    // Passes run until one more would overrun the budget (at least one).
    loop {
        let t0 = Instant::now();
        plain.push(t.pass(false));
        if s.trace {
            traced.push(t.pass(true));
        }
        if started.elapsed() + t0.elapsed() > budget {
            break;
        }
    }
    let setup_s: f64 = t.setup.iter().map(|xs| median(xs)).sum();
    if !s.trace {
        let series: Vec<Vec<f64>> = plain
            .iter()
            .filter(|p| p.runs.len() == specs.len())
            .map(|p| {
                p.runs
                    .iter()
                    .flat_map(|r| r.chunk_ms.iter().copied())
                    .collect()
            })
            .collect();
        let tail = Tail::of(&positionwise_median(&series));
        notes.push(tail_note(
            &tail,
            series.len(),
            &format!("{} simulated cycles", t.chunk),
        ));
        let pass_s: Vec<f64> = plain.iter().map(Pass::run_s).collect();
        notes.push(format!("pass run_s: {}", list(&pass_s)));
        let run_s = median(&pass_s);
        let rate = median(
            &plain
                .iter()
                .map(|p| p.cycles() as f64 / p.run_s())
                .collect::<Vec<_>>(),
        );
        if w == Workload::FullsysParsec {
            let instr = median(
                &plain
                    .iter()
                    .map(|p| p.runs.iter().map(|r| r.instructions).sum::<u64>() as f64 / p.run_s())
                    .collect::<Vec<_>>(),
            );
            notes.push(format!(
                "[host     ] sim_instr_per_s        {instr:>16.1} 1/s    simulated instructions, warm-up included, per host second"
            ));
        }
        return Ok(Report {
            workload: w.name(),
            table: END_TO_END,
            values: vec![setup_s, run_s, rate, tail.p50, tail.p99, peak_rss_mb()],
            notes,
            tally: t.tally,
        });
    }
    let (campaign_self, serialize) = t.campaign_pass(w.name());
    notes.push(format!(
        "checks: campaign::Runner (1 thread, no store) metrics equal the chunked driver's; \
         {} untraced and {} traced pass(es)",
        plain.len(),
        traced.len()
    ));
    let rows: Vec<Vec<f64>> = traced
        .iter()
        .map(|p| layer_values(w, p, campaign_self, serialize))
        .collect();
    let mut values: Vec<f64> = (0..PER_LAYER.len())
        .map(|i| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect();
    let plain_run = median(&plain.iter().map(Pass::run_s).collect::<Vec<_>>());
    let traced_run = median(&traced.iter().map(Pass::run_s).collect::<Vec<_>>());
    set(
        &mut values,
        "trace.overhead_frac",
        ratio(traced_run, plain_run) - 1.0,
    );
    notes.push(format!(
        "traced run_s {traced_run:.4} s, untraced run_s {plain_run:.4} s; warm-up is in the split"
    ));
    Ok(Report {
        workload: w.name(),
        table: PER_LAYER,
        values,
        notes,
        tally: t.tally,
    })
}

/// The per-layer values of one traced pass, in `PER_LAYER` order
/// (`trace.overhead_frac` is filled in by the caller).
fn layer_values(w: Workload, p: &Pass, campaign_self: f64, serialize: f64) -> Vec<f64> {
    let mut ph = PhaseTotals::default();
    for r in &p.runs {
        ph.add(&r.phases);
    }
    let run_s = p.run_s();
    let cycles = p.cycles() as f64;
    let ticks = ph.ticks as f64;
    let noc_other = ph.secs(&[
        Phase::DeliverFlits,
        Phase::DeliverCredits,
        Phase::Allocate,
        Phase::Eject,
        Phase::Inject,
        Phase::SoaRebuild,
        Phase::PoolWait,
    ]);
    let noc_tick = noc_other + ph.secs(&[Phase::SoaPhaseA, Phase::SoaCommit, Phase::Watchdog]);
    let power = ph.secs(&[Phase::PowerTick]);
    let host = ph.secs(&[Phase::Host]);
    let cmp = w == Workload::FullsysParsec;
    let sum = |f: &dyn Fn(&SpecRun) -> f64| p.runs.iter().map(f).sum::<f64>();
    let hist = merged_latency(&p.runs);
    let router_cycles = sum(&|r| r.net.cycles as f64 * r.net.routers as f64);
    let pairs: Vec<(&str, f64)> = vec![
        ("noc.soa_phase_a_s", ph.secs(&[Phase::SoaPhaseA])),
        ("noc.soa_commit_s", ph.secs(&[Phase::SoaCommit])),
        ("noc.other_s", noc_other),
        ("noc.watchdog_s", ph.secs(&[Phase::Watchdog])),
        ("noc.fast_forward_s", ph.secs(&[Phase::FastForward])),
        ("noc.ns_per_tick", ratio(noc_tick * 1e9, ticks)),
        ("noc.ticks", ticks),
        (
            "noc.skipped_frac",
            1.0 - ratio(ticks + sum(&|r| r.unobserved_cycles as f64), cycles),
        ),
        (
            "noc.packets_delivered",
            sum(&|r| r.metrics.delivered as f64),
        ),
        ("noc.latency_p50", hist.percentile(0.50) as f64),
        ("noc.latency_p99", hist.percentile(0.99) as f64),
        ("core.power_tick_s", power),
        ("core.ns_per_tick", ratio(power * 1e9, ticks)),
        (
            "core.wake_events",
            sum(&|r| r.net.pg.total_wake_events() as f64),
        ),
        (
            "core.wu_assertions",
            sum(&|r| r.net.pg.wu_assertions as f64),
        ),
        ("core.punch_hops", sum(&|r| r.net.pg.punch_hops as f64)),
        ("core.escalations", sum(&|r| r.net.pg.escalations as f64)),
        (
            "core.off_frac",
            ratio(sum(&|r| r.net.pg.total_off_cycles() as f64), router_cycles),
        ),
        ("cmp.self_s", if cmp { host } else { 0.0 }),
        ("cmp.instructions", sum(&|r| r.instructions as f64)),
        (
            "cmp.warmup_frac",
            if cmp {
                ratio(sum(&|r| r.warmup_s.unwrap_or(0.0)), run_s)
            } else {
                0.0
            },
        ),
        (
            "cmp.l1_miss_rate",
            ratio(sum(&|r| r.l1_miss_rate), p.runs.len() as f64),
        ),
        ("traffic.self_s", if cmp { 0.0 } else { host }),
        ("traffic.packets_sent", sum(&|r| r.packets_sent as f64)),
        ("campaign.self_s", campaign_self),
        ("campaign.serialize_s", serialize),
        ("verify.explore_s", 0.0),
        ("verify.states", 0.0),
        ("verify.edges", 0.0),
        ("verify.us_per_state", 0.0),
        ("trace.coverage", ratio(ph.total_secs(), run_s)),
        ("trace.overhead_frac", 0.0),
    ];
    ordered(pairs)
}

/// Values in `PER_LAYER` order from `(name, value)` pairs naming each
/// metric exactly once.
fn ordered(pairs: Vec<(&str, f64)>) -> Vec<f64> {
    assert_eq!(
        pairs.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );
    PER_LAYER
        .iter()
        .map(|d| {
            pairs
                .iter()
                .find(|(n, _)| *n == d.name)
                .unwrap_or_else(|| panic!("no value for {}", d.name))
                .1
        })
        .collect()
}

fn set(values: &mut [f64], name: &str, v: f64) {
    let i = PER_LAYER
        .iter()
        .position(|d| d.name == name)
        .expect("metric is in PER_LAYER");
    values[i] = v;
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn tail_note(tail: &Tail, passes: usize, chunk: &str) -> String {
    format!(
        "chunks of {chunk}: median over {passes} pass(es) at each of {} positions, \
         {} position(s) beyond p99{}",
        tail.samples,
        tail.beyond_p99,
        if tail.rule_met() {
            String::new()
        } else {
            " (fewer than 10: the p99 is the largest position or next to it)".to_string()
        }
    )
}

fn list(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The process's peak resident set (VmHWM) in MiB; 0 where `/proc` is
/// unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_verify(s: &Settings) -> Result<Report, String> {
    let cfg = VerifyConfig::mesh2x3(SchemeKind::PowerPunchFull).with_faults();
    let path = repo_file("bench/VERIFY_2x3_ppf_faulty.json");
    let expected = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut notes = vec![
        format!(
            "seed {:#x} (unused: the exploration is exhaustive), config {}",
            s.seed,
            cfg.label()
        ),
        "checks: artifact byte-equal to bench/VERIFY_2x3_ppf_faulty.json, all three properties proved"
            .into(),
    ];
    let mut tally = Tally::default();
    let mut setup_errors = Vec::new();
    let setup: Vec<f64> = (0..VERIFY_SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let net = build_network(&cfg, None);
            let dt = t.elapsed().as_secs_f64();
            if let Err(e) = &net {
                setup_errors.push(e.to_string());
            }
            drop(black_box(net));
            dt
        })
        .collect();
    tally.record("verify set-up", setup_errors);
    // (host seconds, states, edges) per exploration, split by pass kind;
    // a traced run alternates the two, which run identical calls because
    // the checker offers nothing to profile from outside.
    let mut runs: [Vec<(f64, f64, f64)>; 2] = [Vec::new(), Vec::new()];
    let budget = Duration::from_secs(s.seconds);
    let started = Instant::now();
    let mut n = 0;
    loop {
        let t0 = Instant::now();
        let kind = usize::from(s.trace && n % 2 == 1);
        n += 1;
        let op = format!("verify {} exploration {n}", cfg.label());
        let out = catch_unwind(AssertUnwindSafe(|| run_verification(&cfg)));
        let dt = t0.elapsed().as_secs_f64();
        match out {
            Ok(Ok(out)) => {
                let exp = &out.exploration;
                let mut problems = Vec::new();
                if out.report != expected {
                    problems.push("artifact differs from bench/VERIFY_2x3_ppf_faulty.json".into());
                }
                if exp.properties.len() != 3 || !exp.all_proved() {
                    problems.push("not all three properties proved".into());
                }
                tally.record(&op, problems);
                runs[kind].push((dt, exp.reachable as f64, exp.edges as f64));
            }
            Ok(Err(e)) => tally.record(&op, vec![e.to_string()]),
            Err(_) => tally.record(&op, vec!["panicked".into()]),
        }
        let enough = !s.trace || !runs[1].is_empty();
        if enough && started.elapsed() + t0.elapsed() > budget {
            break;
        }
    }
    let col = |rs: &[(f64, f64, f64)], f: &dyn Fn(&(f64, f64, f64)) -> f64| {
        median(&rs.iter().map(f).collect::<Vec<_>>())
    };
    let plain = &runs[0];
    let explore = col(plain, &|r| r.0);
    let states = col(plain, &|r| r.1);
    if !s.trace {
        let series: Vec<Vec<f64>> = plain.iter().map(|r| vec![r.0 * 1e3]).collect();
        let tail = Tail::of(&positionwise_median(&series));
        notes.push(tail_note(&tail, series.len(), "one exploration"));
        notes.push(format!(
            "exploration run_s: {}",
            list(&plain.iter().map(|r| r.0).collect::<Vec<_>>())
        ));
        notes.push(format!(
            "[host     ] states_per_s           {:>16.1} 1/s    reachable states per host second",
            ratio(states, explore)
        ));
        return Ok(Report {
            workload: Workload::Verify2x3.name(),
            table: END_TO_END,
            values: vec![
                median(&setup),
                explore,
                col(plain, &|r| ratio(r.2, r.0)),
                tail.p50,
                tail.p99,
                peak_rss_mb(),
            ],
            notes,
            tally,
        });
    }
    let traced = &runs[1];
    let traced_explore = col(traced, &|r| r.0);
    let mut pairs: Vec<(&str, f64)> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    for (name, v) in [
        ("verify.explore_s", traced_explore),
        ("verify.states", col(traced, &|r| r.1)),
        ("verify.edges", col(traced, &|r| r.2)),
        ("verify.us_per_state", ratio(traced_explore * 1e6, states)),
        // The layer is the timed call itself.
        ("trace.coverage", 1.0),
        ("trace.overhead_frac", ratio(traced_explore, explore) - 1.0),
    ] {
        if let Some(slot) = pairs.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = v;
        }
    }
    Ok(Report {
        workload: Workload::Verify2x3.name(),
        table: PER_LAYER,
        values: ordered(pairs),
        notes,
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_injected_result_mismatch_counts_toward_failed_frac() {
        let specs = [uniform_ppf(3, 4, 0.05, 200, 300)];
        let good = drive(&specs[0], 50, false).unwrap().metrics;
        let mut bad = good.clone();
        bad.delivered += 1;
        let mut t = Ticks {
            specs: &specs,
            chunk: 50,
            baseline: Some(vec![good]),
            first: vec![None],
            setup: vec![Vec::new()],
            tally: Tally::default(),
            passes: 0,
        };
        t.pass(false);
        assert_eq!((t.tally.attempted, t.tally.failed), (1, 0));
        // The same simulation checked against a wrong reference row: the
        // operation fails, but the run goes on.
        t.baseline = Some(vec![bad]);
        t.pass(true);
        t.campaign_pass("test");
        assert_eq!((t.tally.attempted, t.tally.failed), (3, 2));
        assert!((t.tally.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
        assert!(t.tally.problems[0].contains("bench/baseline.json"));
        assert!(t.tally.problems[1].starts_with("campaign "));
    }
}
