//! Determinism battery for the persistent shard worker pool.
//!
//! The pool is an *execution* detail: the fast path's sharded phase A
//! runs on long-lived parked workers, but the record-then-commit order is
//! fixed, so every observable — the bit-exact [`NetworkReport`] digest
//! (latency histogram percentiles included),
//! [`punchsim::noc::PgCounters`], per-router power states — must be
//! byte-identical to the serial reference ([`TickMode::Naive`]) across
//! shard counts, across mid-run reconfiguration (shard resizes, tick-mode
//! toggles, pool teardown/re-create), and across pool lifetimes. The
//! battery also pins the thread-accounting contract (creations bounded by
//! the shard count, never per tick) and the typed worker-panic error path
//! (a panicking shard surfaces as [`SimError::ShardPanic`], never a hang,
//! and the pool survives it).

use punchsim::prelude::*;

/// Exact digest of a report: every field of [`NetworkReport`] (f64 Debug
/// formatting round-trips, so string equality is bit equality).
fn digest(r: &NetworkReport) -> String {
    format!("{r:?}")
}

fn build(cfg: &SimConfig, rate: f64, mode: TickMode, shards: usize) -> SyntheticSim {
    let mut sim = SyntheticSim::new(cfg.clone(), TrafficPattern::UniformRandom, rate);
    let net = sim.network_mut();
    net.set_tick_mode(mode);
    net.set_shards(shards).expect("valid shard count");
    sim
}

fn assert_same_state(label: &str, at: u64, a: &SyntheticSim, b: &SyntheticSim) {
    let (an, bn) = (a.network(), b.network());
    assert_eq!(an.cycle(), bn.cycle(), "{label}: clock diverged at {at}");
    for r in 0..an.topology().nodes() {
        let node = NodeId(r as u16);
        assert_eq!(
            an.power_state(node),
            bn.power_state(node),
            "{label} cycle {at}: power state of router {r} diverged"
        );
    }
    let (ar, br) = (an.report(), bn.report());
    assert_eq!(ar.pg, br.pg, "{label} cycle {at}: PgCounters diverged");
    assert_eq!(
        digest(&ar),
        digest(&br),
        "{label} cycle {at}: NetworkReport diverged"
    );
}

/// The full matrix: the fast path at shards {1,2,4,7} on mesh, torus and
/// cmesh under both gating schemes, checkpointed against the serial
/// reference every 200 cycles.
#[test]
fn pooled_execution_is_bit_exact_across_the_matrix() {
    let substrates: [(&str, Substrate); 3] = [
        ("mesh8x8", Mesh::new(8, 8).into()),
        ("torus8x8", Substrate::Torus(Torus::new(8, 8))),
        ("cmesh4x8c2", Substrate::CMesh(CMesh::new(4, 8, 2))),
    ];
    let schemes = [SchemeKind::ConvOptPg, SchemeKind::PowerPunchFull];
    for (si, &(name, topo)) in substrates.iter().enumerate() {
        for (ki, &scheme) in schemes.iter().enumerate() {
            let mut cfg = SimConfig::with_scheme(scheme);
            cfg.noc.topology = topo;
            cfg.seed = 0xB007 + (si * 2 + ki) as u64;
            let rate = 0.02;
            let mut reference = build(&cfg, rate, TickMode::Naive, 1);
            let mut subjects: Vec<(String, SyntheticSim)> = [1, 2, 4, 7]
                .into_iter()
                .map(|shards| {
                    (
                        format!("{name}/{scheme:?} vs fast x{shards}"),
                        build(&cfg, rate, TickMode::Fast, shards),
                    )
                })
                .collect();
            let (warmup, measure, chunk) = (200u64, 600u64, 200u64);
            reference.run(warmup).unwrap();
            reference.network_mut().reset_stats();
            for (label, s) in &mut subjects {
                s.run(warmup).unwrap();
                s.network_mut().reset_stats();
                assert_same_state(label, warmup, s, &reference);
            }
            let mut at = warmup;
            for _ in 0..(measure / chunk) {
                reference.run(chunk).unwrap();
                at += chunk;
                for (label, s) in &mut subjects {
                    s.run(chunk).unwrap();
                    assert_same_state(label, at, s, &reference);
                }
            }
        }
    }
}

/// Mid-run reconfiguration: shard resizes (pool re-created at the new
/// width) and a detour through the serial reference (pool idle, SoA bit
/// index rebuilt on return) must be seamless — the run must land on the
/// same digest as a run that never reconfigured anything.
#[test]
fn midrun_resizes_and_exec_toggles_change_nothing() {
    let run = |reconfigure: bool| {
        let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
        cfg.noc.topology = Mesh::new(8, 8).into();
        cfg.seed = 0x9E512E;
        let mut sim = SyntheticSim::new(cfg, TrafficPattern::Transpose, 0.02);
        // Walk through shard widths (growing, shrinking, re-growing) and
        // drop to the reference for one leg: the 7 -> 4 resize tears the
        // pool down, and the next fast sharded tick re-creates it.
        let plan: [(usize, TickMode); 6] = [
            (1, TickMode::Fast),
            (2, TickMode::Fast),
            (7, TickMode::Fast),
            (4, TickMode::Naive),
            (4, TickMode::Fast),
            (2, TickMode::Fast),
        ];
        for &(shards, mode) in &plan {
            if reconfigure {
                let net = sim.network_mut();
                net.set_tick_mode(mode);
                net.set_shards(shards).unwrap();
            }
            sim.run(250).unwrap();
        }
        digest(&sim.report())
    };
    assert_eq!(run(false), run(true));
}

/// Thread accounting: a pooled run creates at most `shards - 1` worker
/// threads over its whole lifetime (never one per busy tick), and every
/// pooled sharded tick is counted.
#[test]
fn pooled_runs_create_at_most_shards_threads() {
    let shards = 4usize;
    let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
    cfg.noc.topology = Mesh::new(8, 8).into();
    cfg.seed = 0x1007;
    let mut sim = SyntheticSim::new(cfg, TrafficPattern::UniformRandom, 0.05);
    let net = sim.network_mut();
    net.set_tick_mode(TickMode::Fast);
    net.set_shards(shards).unwrap();
    sim.run(2_000).unwrap();
    let (spawn_count, _spawn_nanos) = sim.network().spawn_stats();
    let (pool_ticks, _pool_wait) = sim.network().pool_stats();
    assert!(
        pool_ticks > 0,
        "busy run never took the pooled sharded path"
    );
    assert!(
        spawn_count <= shards as u64,
        "pooled run created {spawn_count} threads; \
         the pool must cap creations at shards - 1 = {}",
        shards - 1
    );
    // Resetting stats at a measured-window boundary leaves an
    // already-created pool invisible: the window reports zero creations.
    sim.network_mut().reset_stats();
    sim.run(1_000).unwrap();
    let (windowed, _) = sim.network().spawn_stats();
    assert_eq!(
        windowed, 0,
        "the pool was created during warm-up; the measured window must \
         report zero thread creations"
    );
    let (windowed_ticks, _) = sim.network().pool_stats();
    assert!(windowed_ticks > 0, "pooled ticks continue after the reset");
}

/// A panicking shard worker must surface as the typed
/// [`SimError::ShardPanic`] — not deadlock the barrier, not abort the
/// process — and the pool must survive to run later ticks.
#[test]
fn worker_panic_is_a_typed_error_and_the_pool_survives() {
    let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
    cfg.noc.topology = Mesh::new(8, 8).into();
    cfg.seed = 0xDEAD;
    let mut sim = SyntheticSim::new(cfg, TrafficPattern::UniformRandom, 0.05);
    let net = sim.network_mut();
    net.set_tick_mode(TickMode::Fast);
    net.set_shards(4).unwrap();
    sim.run(100).unwrap();
    // Arm the test hook: the next pooled sharded tick runs its last
    // worker job as a deliberate panic. The worker's unwind is noisy on
    // stderr but must be *contained*.
    sim.network_mut().debug_panic_next_pooled_tick();
    let err = sim
        .run(200)
        .expect_err("the armed tick must fail, not complete");
    match err {
        SimError::ShardPanic { shard, message } => {
            assert!(shard >= 1, "shard 0 is the host thread, never a worker");
            assert!(
                message.contains("injected shard panic"),
                "panic payload must round-trip: {message}"
            );
        }
        other => panic!("expected ShardPanic, got {other:?}"),
    }
    // The barrier was fully drained: later ticks reuse the same pool and
    // dropping the simulation joins every worker without hanging.
    sim.run(200)
        .expect("the pool must survive a contained worker panic");
    let (pool_ticks, _) = sim.network().pool_stats();
    assert!(pool_ticks > 1, "post-panic ticks still run pooled");
}
