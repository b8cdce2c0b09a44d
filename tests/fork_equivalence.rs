//! Fork equivalence: a network copied with [`Network::try_clone`] evolves
//! exactly like the network it was copied from.
//!
//! The model checker explores by forking networks, so a fork that drops
//! or aliases any state (a VC ring's head, a credit, an output-VC owner,
//! a pipe entry, the power manager's gates) silently prunes or invents
//! reachable states. Each case drives one network with seeded sends,
//! forks it at random cycles, and feeds every fork the same sends for the
//! next 200 cycles. The canonical state encoding must match the original
//! on every cycle, and the full [`NetworkReport`] must match when the
//! fork retires.

use punchsim::noc::{Message, MsgClass};
use punchsim::prelude::*;

/// Cycles each fork runs beside the original.
const FORK_SPAN: u64 = 200;

fn build(scheme: &str, w: u16, h: u16) -> Network {
    let mut cfg = SimConfig::with_scheme(SchemeKind::parse(scheme).unwrap());
    cfg.noc.topology = Mesh::new(w, h).into();
    let pm = build_power_manager(&cfg).unwrap();
    Network::new(&cfg.noc, pm).unwrap()
}

/// Exact digest of a report (f64 Debug formatting round-trips, so string
/// equality is bit equality).
fn digest(r: &NetworkReport) -> String {
    format!("{r:?}")
}

fn fork_case(scheme: &str, w: u16, h: u16, seed: u64) {
    let label = format!("{scheme} {w}x{h} seed {seed:#x}");
    let nodes = u64::from(w) * u64::from(h);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut net = build(scheme, w, h);
    let vnets = u64::from(NocConfig::default().vnets);
    // Three forks at random cycles, the last one early enough to retire
    // before the run ends.
    let mut fork_at: Vec<u64> = (0..3).map(|_| rng.random_range(0..400u64)).collect();
    fork_at.sort_unstable();
    let mut forks: Vec<(Network, u64)> = Vec::new();
    let (mut sent, mut retired) = (0u64, 0usize);
    for cycle in 0..400 + FORK_SPAN {
        for &at in &fork_at {
            if at == cycle {
                let fork = net.try_clone().expect("scheme supports forking");
                forks.push((fork, cycle + FORK_SPAN));
            }
        }
        // Bursty seeded sends: idle stretches let routers sleep, bursts
        // queue multi-flit packets behind each other.
        let burst = (cycle / 50) % 2 == 0;
        if rng.random_bool_ppm(if burst { 350_000 } else { 40_000 }) {
            let src = rng.random_range(0..nodes);
            let dst = (src + 1 + rng.random_range(0..nodes - 1)) % nodes;
            let msg = Message {
                src: NodeId(src as u16),
                dst: NodeId(dst as u16),
                vnet: VnetId(rng.random_range(0..vnets) as u8),
                class: if rng.random_bool_ppm(500_000) {
                    MsgClass::Data
                } else {
                    MsgClass::Control
                },
                payload: cycle,
                gen_cycle: cycle,
            };
            let id = net.send(msg.clone()).unwrap();
            for (fork, _) in &mut forks {
                assert_eq!(fork.send(msg.clone()).unwrap(), id, "{label}");
            }
            sent += 1;
        }
        net.tick().unwrap();
        let state = net.encode_state().expect("scheme encodes its state");
        for (fork, _) in &mut forks {
            fork.tick().unwrap();
            assert_eq!(fork.cycle(), net.cycle(), "{label}");
            let fork_state = fork.encode_state().expect("scheme encodes its state");
            assert!(fork_state == state, "{label}: diverged at cycle {cycle}");
        }
        forks.retain(|(fork, end)| {
            if *end > cycle + 1 {
                return true;
            }
            assert_eq!(
                digest(&fork.report()),
                digest(&net.report()),
                "{label}: reports differ at cycle {cycle}"
            );
            retired += 1;
            false
        });
    }
    assert_eq!(retired, 3, "{label}");
    assert!(sent > 40, "{label}: only {sent} messages");
}

#[test]
fn forks_evolve_exactly_like_the_original() {
    for (w, h) in [(2, 2), (2, 3), (4, 4)] {
        for (i, scheme) in ["nopg", "conv", "ppf"].into_iter().enumerate() {
            fork_case(scheme, w, h, 0xF0_4C00 + u64::from(w * h) * 8 + i as u64);
        }
    }
}
