//! The chunked driver: builds a campaign spec's simulator through the
//! public constructors, advances it in fixed chunks of simulated cycles,
//! times every chunk from outside and distils the same `Metrics` the
//! campaign runner would.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use punchsim_campaign::{Metrics, RunSpec, Workload};
use punchsim_cmp::{CmpConfig, CmpReport, CmpSim};
use punchsim_metrics::LogHistogram;
use punchsim_noc::{Network, NetworkReport};
use punchsim_power::PowerModel;
use punchsim_traffic::SyntheticSim;
use punchsim_types::{SchemeKind, SimConfig};

use crate::phases::{PhaseAccumulator, PhaseTotals};

/// A simulator built from a spec, ready to run.
pub enum Sim {
    /// Full-system CMP.
    Cmp(Box<CmpSim>),
    /// Synthetic traffic harness.
    Synth(Box<SyntheticSim>),
}

/// Builds `spec`'s simulator exactly as `RunSpec::execute` does.
pub fn build(spec: &RunSpec) -> Sim {
    match &spec.workload {
        Workload::Parsec {
            benchmark,
            instr_per_core,
            warmup_instr,
        } => {
            let mut cfg = CmpConfig::new(*benchmark, spec.scheme);
            cfg.sim.seed = spec.seed;
            cfg.instr_per_core = *instr_per_core;
            cfg.warmup_instr = *warmup_instr;
            Sim::Cmp(Box::new(CmpSim::new(cfg)))
        }
        Workload::Synthetic {
            pattern,
            topo,
            routing,
            rate,
            ..
        } => {
            let mut cfg = SimConfig::with_scheme(spec.scheme);
            cfg.noc.topology = *topo;
            cfg.noc.routing = *routing;
            cfg.seed = spec.seed;
            Sim::Synth(Box::new(SyntheticSim::new(cfg, *pattern, *rate)))
        }
    }
}

/// Times `reps` constructions of `spec`'s simulator, in seconds each.
pub fn time_setup(spec: &RunSpec, reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            let sim = build(spec);
            let s = t.elapsed().as_secs_f64();
            drop(std::hint::black_box(sim));
            s
        })
        .collect()
}

/// Everything one chunked execution of a spec yields.
pub struct SpecRun {
    /// Host seconds in the public constructor.
    pub setup_s: f64,
    /// Host seconds from the first tick to the final report.
    pub run_s: f64,
    /// Simulated cycles, warm-up included.
    pub cycles: u64,
    /// Host milliseconds per full chunk.
    pub chunk_ms: Vec<f64>,
    /// The campaign metrics of the run.
    pub metrics: Metrics,
    /// The network report of the measured window.
    pub net: NetworkReport,
    /// Instructions retired (full-system only).
    pub instructions: u64,
    /// L1 miss rate (full-system only).
    pub l1_miss_rate: f64,
    /// Packets the synthetic harness injected, warm-up included.
    pub packets_sent: u64,
    /// Tick-phase totals over the whole run (zero unless profiled).
    pub phases: PhaseTotals,
    /// Cycles the profile lost to a stats reset it could not see coming.
    pub unobserved_cycles: u64,
    /// Host seconds from the first tick to the end of warm-up, when seen.
    pub warmup_s: Option<f64>,
    /// Output checks that failed inside the run itself.
    pub problems: Vec<String>,
}

/// Builds and runs `spec` in chunks of `chunk` simulated cycles, with the
/// network's phase profiler on when `profiled`. A typed error or a panic
/// (the full-system watchdog panics on a wedged protocol) comes back as
/// `Err` with its message.
pub fn drive(spec: &RunSpec, chunk: u64, profiled: bool) -> Result<SpecRun, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let sim = build(spec);
        let setup_s = t.elapsed().as_secs_f64();
        match sim {
            Sim::Cmp(mut sim) => Ok(drive_cmp(&mut sim, spec.scheme, chunk, profiled, setup_s)),
            Sim::Synth(mut sim) => drive_synth(&mut sim, spec, chunk, profiled, setup_s),
        }
    }))
    .unwrap_or_else(|payload| {
        Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into()))
    })
}

/// Per-chunk wall clock plus, when profiled, the phase accumulator.
struct ChunkClock {
    last: Instant,
    chunk_ms: Vec<f64>,
    acc: PhaseAccumulator,
}

impl ChunkClock {
    fn start() -> Self {
        ChunkClock {
            last: Instant::now(),
            chunk_ms: Vec::new(),
            acc: PhaseAccumulator::default(),
        }
    }

    /// Closes a chunk at the current instant; `full` chunks are sampled.
    fn boundary(&mut self, net: &Network, full: bool) {
        let now = Instant::now();
        if full {
            self.chunk_ms
                .push(now.duration_since(self.last).as_secs_f64() * 1e3);
        }
        self.last = now;
        self.read_profile(net);
    }

    fn read_profile(&mut self, net: &Network) {
        if let Some(p) = net.profiler() {
            self.acc.observe(p, net.cycle());
        }
    }
}

fn drive_cmp(
    sim: &mut CmpSim,
    scheme: SchemeKind,
    chunk: u64,
    profiled: bool,
    setup_s: f64,
) -> SpecRun {
    if profiled {
        sim.network_mut().enable_profiler();
    }
    let started = Instant::now();
    let mut clock = ChunkClock::start();
    // The CMP resets its stats, and with them the profile, inside `tick`
    // at the end of warm-up; a profiled run reads the profile after every
    // cycle so that the reset loses only its own cycle.
    let every = if profiled { 1 } else { chunk };
    let r = sim.run_hooked(every, &mut |net| {
        if net.cycle() % chunk == 0 {
            clock.boundary(net, true);
        } else {
            clock.read_profile(net);
        }
    });
    clock.boundary(sim.network(), false);
    let run_s = started.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    if !r.completed {
        problems.push(format!("incomplete after {} cycles", r.total_cycles));
    }
    let violations = sim.coherence_violations();
    if !violations.is_empty() {
        problems.push(format!(
            "{} coherence violation(s), first: {}",
            violations.len(),
            violations[0]
        ));
    }
    SpecRun {
        setup_s,
        run_s,
        cycles: r.total_cycles,
        chunk_ms: clock.chunk_ms,
        metrics: cmp_metrics(&r, scheme),
        instructions: r.instructions,
        l1_miss_rate: r.l1_miss_rate,
        packets_sent: 0,
        phases: clock.acc.totals(),
        unobserved_cycles: clock.acc.unobserved_cycles(),
        warmup_s: clock
            .acc
            .first_reset()
            .map(|t| t.duration_since(started).as_secs_f64()),
        net: r.net,
        problems,
    }
}

fn drive_synth(
    sim: &mut SyntheticSim,
    spec: &RunSpec,
    chunk: u64,
    profiled: bool,
    setup_s: f64,
) -> Result<SpecRun, String> {
    let Workload::Synthetic {
        warmup_cycles,
        measure_cycles,
        ..
    } = spec.workload
    else {
        unreachable!("drive_synth is only called for synthetic specs");
    };
    if profiled {
        sim.network_mut().enable_profiler();
    }
    let started = Instant::now();
    let mut clock = ChunkClock::start();
    let run_window = |sim: &mut SyntheticSim, clock: &mut ChunkClock, cycles: u64| {
        let mut left = cycles;
        while left > 0 {
            let c = chunk.min(left);
            sim.run(c).map_err(|e| e.to_string())?;
            clock.boundary(sim.network(), c == chunk);
            left -= c;
        }
        Ok::<(), String>(())
    };
    // The same warm-up, reset and measured window as `RunSpec::execute`.
    run_window(sim, &mut clock, warmup_cycles)?;
    let warmup_sent = sim.report().stats.packets_injected;
    clock.acc.seal();
    let warmup_s = started.elapsed().as_secs_f64();
    sim.network_mut().reset_stats();
    run_window(sim, &mut clock, measure_cycles)?;
    let net = sim.report();
    clock.boundary(sim.network(), false);
    let run_s = started.elapsed().as_secs_f64();
    let total = warmup_cycles + measure_cycles;
    Ok(SpecRun {
        setup_s,
        run_s,
        cycles: total,
        chunk_ms: clock.chunk_ms,
        metrics: synth_metrics(&net, spec.scheme, total),
        instructions: 0,
        l1_miss_rate: 0.0,
        packets_sent: warmup_sent + net.stats.packets_injected,
        phases: clock.acc.totals(),
        unobserved_cycles: clock.acc.unobserved_cycles(),
        warmup_s: Some(warmup_s),
        net,
        problems: Vec::new(),
    })
}

/// The campaign metrics of a full-system report (as `RunSpec::execute`).
fn cmp_metrics(r: &CmpReport, scheme: SchemeKind) -> Metrics {
    let mut m = synth_metrics(&r.net, scheme, r.total_cycles);
    m.exec_cycles = r.exec_cycles;
    m.completed = r.completed;
    m
}

/// The campaign metrics of a synthetic run's measured window.
fn synth_metrics(r: &NetworkReport, scheme: SchemeKind, total_cycles: u64) -> Metrics {
    let pm = PowerModel::for_scheme(scheme);
    let b = pm.breakdown(r);
    Metrics {
        delivered: r.stats.packets_delivered,
        injected: r.stats.packets_injected,
        exec_cycles: r.cycles,
        total_cycles,
        latency: r.avg_packet_latency(),
        latency_p50: r.latency_p50(),
        latency_p95: r.latency_p95(),
        latency_p99: r.latency_p99(),
        latency_max: r.latency_max(),
        encounters: r.avg_pg_encounters(),
        wait: r.avg_wakeup_wait(),
        escalations: r.pg.escalations,
        off_fraction: r.off_fraction(),
        dynamic_pj: b.dynamic_pj,
        static_pj: b.static_pj,
        overhead_pj: b.overhead_pj,
        baseline_static_pj: pm.baseline_static_pj(r),
        completed: true,
    }
}

/// Merges the measured-window latency histograms of several runs.
pub fn merged_latency<'a>(runs: impl IntoIterator<Item = &'a SpecRun>) -> LogHistogram {
    let mut h = LogHistogram::new();
    for r in runs {
        h.merge(&r.net.stats.latency_hist);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_campaign::Runner;
    use punchsim_cmp::Benchmark;
    use punchsim_metrics::Phase;
    use punchsim_traffic::TrafficPattern;
    use punchsim_types::{Mesh, RoutingKind};

    fn small_synth(warmup_cycles: u64, measure_cycles: u64) -> RunSpec {
        RunSpec {
            scheme: SchemeKind::PowerPunchFull,
            seed: 7,
            workload: Workload::Synthetic {
                pattern: TrafficPattern::UniformRandom,
                topo: Mesh::new(4, 4).into(),
                routing: RoutingKind::Xy,
                rate: 0.2,
                warmup_cycles,
                measure_cycles,
            },
        }
    }

    fn small_parsec() -> RunSpec {
        RunSpec {
            scheme: SchemeKind::PowerPunchFull,
            seed: 7,
            workload: Workload::Parsec {
                benchmark: Benchmark::Blackscholes,
                instr_per_core: 1_000,
                warmup_instr: 300,
            },
        }
    }

    #[test]
    fn profile_accumulates_across_the_synthetic_stats_reset() {
        let run = drive(&small_synth(600, 400), 50, true).unwrap();
        // At this load packets are always in flight, so every cycle ticks
        // and the accumulated tick count spans warm-up and measurement.
        assert_eq!(run.phases.ticks, 1_000);
        assert_eq!(run.unobserved_cycles, 0);
        assert!(run.phases.nanos(Phase::PowerTick) > 0);
        assert!(run.phases.total_secs() <= run.run_s);
        let warmup = run.warmup_s.expect("the driver resets the stats itself");
        assert!(warmup > 0.0 && warmup < run.run_s);
        assert_eq!(run.chunk_ms.len(), 20);
    }

    #[test]
    fn profile_accumulates_across_the_internal_cmp_stats_reset() {
        let chunk = 25;
        let run = drive(&small_parsec(), chunk, true).unwrap();
        assert!(run.problems.is_empty(), "{:?}", run.problems);
        // The CMP resets its stats (and so the profiler) inside `tick`
        // at the end of warm-up. The measured window alone would leave
        // out every warm-up tick; the accumulator loses only the tick of
        // the cycle that ended in the reset.
        let measured = run.metrics.exec_cycles;
        assert!(run.warmup_s.is_some(), "the reset must be detected");
        assert!(run.cycles > measured + chunk);
        assert_eq!(run.unobserved_cycles, 1);
        assert_eq!(run.phases.ticks, run.cycles - 1);
        assert!(run.phases.total_secs() <= run.run_s);
    }

    #[test]
    fn chunked_driving_matches_the_campaign_runner() {
        let specs = [small_synth(300, 500), small_parsec()];
        let runner = Runner {
            threads: 1,
            ..Default::default()
        };
        for (spec, outcome) in specs.iter().zip(runner.run(&specs)) {
            let campaign = outcome.record().expect("spec runs").metrics.clone();
            for (chunk, profiled) in [(1, false), (64, true), (u64::MAX, false)] {
                let run = drive(spec, chunk, profiled).unwrap();
                assert_eq!(run.metrics, campaign, "{} chunk {chunk}", spec.id());
            }
        }
    }

    #[test]
    fn panics_become_errors() {
        let mut spec = small_synth(10, 10);
        if let Workload::Synthetic { rate, .. } = &mut spec.workload {
            *rate = -1.0;
        }
        let err = drive(&spec, 5, false).err().expect("negative rate panics");
        assert!(err.contains("negative"), "{err}");
    }
}
