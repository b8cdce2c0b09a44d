//! The tick mode and sharded ticking are execution details: a full-system
//! run must produce bit-identical results on the fast path (SoA bitset
//! sweep, any shard count) and on the reference (per-router struct sweep,
//! serial). The synthetic-traffic differential suite (`tests/
//! soa_differential.rs` at the workspace root) pins this cycle-by-cycle
//! on open-loop traffic; this test pins it end to end through the MESI
//! protocol stack, where injection timing feeds back into core progress
//! and any divergence compounds into different instruction counts.

use punchsim_cmp::{Benchmark, CmpConfig, CmpSim};
use punchsim_noc::TickMode;
use punchsim_types::SchemeKind;

fn digest(benchmark: Benchmark, scheme: SchemeKind, mode: TickMode, shards: usize) -> String {
    let mut cfg = CmpConfig::new(benchmark, scheme);
    cfg.instr_per_core = 500;
    cfg.warmup_instr = 50;
    let mut sim = CmpSim::new(cfg);
    sim.network_mut().set_tick_mode(mode);
    sim.network_mut()
        .set_shards(shards)
        .expect("8 rows accommodate the test's shard counts");
    let r = sim.run();
    // The full Debug rendering covers every report field, float bits and
    // all — any divergence anywhere shows up as a string mismatch.
    format!("{r:?}")
}

#[test]
fn full_system_runs_are_identical_across_tick_modes_and_shards() {
    for (benchmark, scheme) in [
        (Benchmark::Canneal, SchemeKind::PowerPunchFull),
        (Benchmark::Blackscholes, SchemeKind::ConvOptPg),
    ] {
        let reference = digest(benchmark, scheme, TickMode::Naive, 1);
        for shards in [1, 2, 4, 7] {
            assert_eq!(
                reference,
                digest(benchmark, scheme, TickMode::Fast, shards),
                "{benchmark:?}/{scheme:?} diverged on the fast path x{shards}"
            );
        }
    }
}
