//! Differential conformance suite for the fast path against the
//! reference.
//!
//! Reference: [`TickMode::Naive`] — the object-at-a-time struct kernel
//! ticking literally every cycle on one thread. Every case runs the same
//! experiment under the reference and under [`TickMode::Fast`] (SoA word
//! sweep, quiescence fast-forward, traffic host-skip) at shard counts
//! {1, 2, 4, 7}, comparing the clock, per-router power states, PG counters
//! and the full bit-exact [`NetworkReport`] at every checkpoint. Tick mode
//! and shard count are execution details; any observable divergence is a
//! bug.

use punchsim::prelude::*;
use punchsim::traffic::InjectionConfig;

/// Exact digest of a report: every field of [`NetworkReport`] (f64 Debug
/// formatting round-trips, so string equality is bit equality).
fn digest(r: &NetworkReport) -> String {
    format!("{r:?}")
}

fn build(
    cfg: &SimConfig,
    pattern: TrafficPattern,
    inj: &InjectionConfig,
    mode: TickMode,
    shards: usize,
) -> SyntheticSim {
    let mut sim = SyntheticSim::with_injection(cfg.clone(), pattern, inj.clone());
    let net = sim.network_mut();
    net.set_tick_mode(mode);
    net.set_shards(shards).expect("valid shard count");
    sim
}

fn assert_same_state(label: &str, at: u64, a: &SyntheticSim, b: &SyntheticSim) {
    let (an, bn) = (a.network(), b.network());
    assert_eq!(an.cycle(), bn.cycle(), "{label}: clock diverged at {at}");
    assert_eq!(
        an.in_flight(),
        bn.in_flight(),
        "{label} cycle {at}: in-flight count diverged"
    );
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

/// Mixed-load mesh/torus/cmesh cases: the fast path at every shard count
/// must track the reference in lock-step, checkpoint by checkpoint.
#[test]
fn soa_kernel_is_observably_identical_to_struct_reference() {
    let substrates: [(&str, Substrate, RoutingKind); 3] = [
        ("mesh8x8", Mesh::new(8, 8).into(), RoutingKind::Xy),
        (
            "torus8x8",
            Substrate::Torus(Torus::new(8, 8)),
            RoutingKind::Xy,
        ),
        (
            "cmesh4x8c2",
            Substrate::CMesh(CMesh::new(4, 8, 2)),
            RoutingKind::Xy,
        ),
    ];
    let schemes = [
        SchemeKind::NoPg,
        SchemeKind::ConvOptPg,
        SchemeKind::PowerPunchFull,
    ];
    for (i, &(name, topo, routing)) in substrates.iter().enumerate() {
        let scheme = schemes[i % schemes.len()];
        let mut cfg = SimConfig::with_scheme(scheme);
        cfg.noc.topology = topo;
        cfg.noc.routing = routing;
        cfg.seed = 0x50A0 + i as u64;
        // Mixed load: moderate rate with bursts, so the network oscillates
        // between busy sweeps and quiescent gaps (fast-forward exercised).
        let mut inj = InjectionConfig::at_rate(0.02);
        inj.burstiness = 0.5;
        inj.slack2_cycles = 6;
        let pattern = TrafficPattern::UniformRandom;
        let mut reference = build(&cfg, pattern, &inj, TickMode::Naive, 1);
        let mut subjects: Vec<(String, SyntheticSim)> = [1, 2, 4, 7]
            .into_iter()
            .map(|shards| {
                (
                    format!("{name}/{scheme:?} vs fast x{shards}"),
                    build(&cfg, pattern, &inj, TickMode::Fast, shards),
                )
            })
            .collect();
        let (warmup, measure, chunk) = (200u64, 800u64, 100u64);
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

/// Switching tick modes mid-run must be seamless: the reference leaves
/// the bit index stale, and the next fast tick must rebuild it and
/// continue exactly where a pure fast-path run would be.
#[test]
fn kernel_switch_mid_run_rebuilds_the_bit_index_exactly() {
    let run = |switchy: bool| {
        let mut cfg = SimConfig::with_scheme(SchemeKind::PowerPunchFull);
        cfg.noc.topology = Mesh::new(8, 8).into();
        cfg.seed = 0x5111;
        let mut sim = SyntheticSim::new(cfg, TrafficPattern::Transpose, 0.02);
        sim.network_mut().set_tick_mode(TickMode::Fast);
        for phase in 0..6u64 {
            if switchy {
                let mode = if phase % 2 == 0 {
                    TickMode::Naive
                } else {
                    TickMode::Fast
                };
                sim.network_mut().set_tick_mode(mode);
            }
            sim.run(300).unwrap();
        }
        digest(&sim.report())
    };
    assert_eq!(run(false), run(true));
}

/// Shard-count validation is a typed `ConfigError`, not a panic.
#[test]
fn shard_count_validation_returns_typed_errors() {
    let cfg = SimConfig::with_scheme(SchemeKind::NoPg);
    let mut sim = SyntheticSim::new(cfg, TrafficPattern::UniformRandom, 0.0);
    let net = sim.network_mut();
    // Default 8x8 mesh: 8 router rows.
    assert!(matches!(net.set_shards(0), Err(ConfigError::ZeroShards)));
    assert!(matches!(
        net.set_shards(9),
        Err(ConfigError::ShardsExceedRows { shards: 9, rows: 8 })
    ));
    // The error carries a human-readable message for the CLI.
    let msg = ConfigError::ShardsExceedRows { shards: 9, rows: 8 }.to_string();
    assert!(msg.contains('9') && msg.contains('8'), "{msg}");
    // Valid counts stick; invalid attempts leave the old value in place.
    net.set_shards(8).unwrap();
    assert_eq!(net.shards(), 8);
    net.set_shards(10).unwrap_err();
    assert_eq!(net.shards(), 8);
    // The network still ticks normally after rejected reconfigurations.
    sim.run(100).unwrap();
}
