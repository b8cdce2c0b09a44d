//! The executable reference for the bitmask allocators: the modular-scan
//! VC and switch allocators they replaced, kept verbatim apart from the
//! method names, the dropped `buffered` counter update (that counter is
//! gone; `reference_allocate` re-derives the occupied-VC mask instead) and
//! the port-major indexing of the flat slot table.
//! The differential test in `router.rs` drives both on clones of one
//! router and asserts they never diverge.

use super::*;

impl Router {
    /// The reference allocation cycle: scans every input-VC slot with
    /// per-call request vectors, then re-derives `occ` from the VCs.
    pub(super) fn reference_allocate(
        &mut self,
        cycle: Cycle,
        down_on: &PortMap<bool>,
    ) -> AllocOutcome {
        self.reference_vc_allocate(cycle);
        let outcome = self.reference_switch_allocate(cycle, down_on);
        for p in Port::ALL {
            self.occ[p] = self.derive_occ(p);
        }
        outcome
    }

    /// VC allocation: head flits at the front of their VC request an output
    /// VC of their (vnet, class) at their look-ahead output port.
    fn reference_vc_allocate(&mut self, cycle: Cycle) {
        // Gather requests: (in_port, in_vc, out_port) for eligible unrouted heads.
        let mut requests: Vec<(Port, usize, Port)> = Vec::new();
        for in_port in Port::ALL {
            for in_vc in 0..self.layout.total() {
                let i = self.idx(in_port, in_vc);
                if !matches!(self.slots[i].route, VcRoute::Unrouted) {
                    continue;
                }
                let Some(front) = self.front(i) else { continue };
                if !front.kind.is_head() || front.latched_at >= cycle {
                    continue;
                }
                requests.push((in_port, in_vc, front.route_port));
            }
        }
        // Grant per output port, rotating priority across the global input
        // VC index so no input starves.
        for out_port in Port::ALL {
            let total = self.layout.total();
            let space = 5 * total;
            let start = self.va_rr[out_port] % space;
            let mut granted_any = false;
            for off in 0..space {
                let g = (start + off) % space;
                let (ip_idx, iv) = (g / total, g % total);
                let in_port = Port::ALL[ip_idx];
                let Some(&(rp, rv, _)) = requests
                    .iter()
                    .find(|&&(p, v, o)| p == in_port && v == iv && o == out_port)
                else {
                    continue;
                };
                let _ = (rp, rv);
                // Find a free output VC of the right vnet/class.
                let i = self.idx(in_port, iv);
                let front = self.front(i).expect("request implies a front flit");
                let cand = self.layout.candidates(front.vnet, front.class);
                let out_first = self.idx(out_port, 0);
                let free = cand.clone().find(|&ov| !self.out_vc_busy[out_first + ov]);
                let Some(out_vc) = free else { continue };
                self.out_vc_busy[out_first + out_vc] = true;
                self.slots[i].route = VcRoute::Routed {
                    out_port,
                    out_vc,
                    va_cycle: cycle,
                };
                self.activity.va_grants += 1;
                if !granted_any {
                    // Rotate past the first winner.
                    self.va_rr[out_port] = (g + 1) % space;
                    granted_any = true;
                }
            }
        }
    }

    /// Separable input-first switch allocation with speculation support.
    fn reference_switch_allocate(&mut self, cycle: Cycle, down_on: &PortMap<bool>) -> AllocOutcome {
        let mut outcome = AllocOutcome::default();
        // Phase 0: classify each VC's front flit.
        // candidate = eligible + routed + credit + downstream on.
        // pg_blocked = eligible + routed + credit, downstream off.
        #[derive(Clone, Copy)]
        struct Cand {
            in_port: Port,
            in_vc: usize,
            out_port: Port,
            speculative: bool,
        }
        let mut per_input: PortMap<Option<Cand>> = PortMap::default();
        let mut seen_blocked: Vec<PacketId> = Vec::new();
        for in_port in Port::ALL {
            let total = self.layout.total();
            let start = self.sa_in_rr[in_port] % total;
            let mut best: Option<Cand> = None;
            for off in 0..total {
                let iv = (start + off) % total;
                let i = self.idx(in_port, iv);
                let Some(front) = self.front(i) else { continue };
                if front.latched_at >= cycle {
                    continue;
                }
                let VcRoute::Routed {
                    out_port,
                    out_vc,
                    va_cycle,
                } = self.slots[i].route
                else {
                    continue;
                };
                let speculative = va_cycle == cycle;
                if speculative && self.stages != 3 {
                    continue; // 4-stage: SA starts the cycle after VA.
                }
                if self.out_credits[self.idx(out_port, out_vc)] == 0 {
                    continue; // no downstream buffer space
                }
                if !down_on[out_port] {
                    // Stalled purely by power-gating: report for the WU
                    // handshake and the Fig. 9/10 metrics (once per packet).
                    if !seen_blocked.contains(&front.packet) {
                        seen_blocked.push(front.packet);
                        outcome.pg_blocked.push(PgBlocked {
                            next_router_port: out_port,
                            packet: front.packet,
                        });
                    }
                    continue;
                }
                let cand = Cand {
                    in_port,
                    in_vc: iv,
                    out_port,
                    speculative,
                };
                match &best {
                    None => best = Some(cand),
                    // Committed flits beat speculative ones.
                    Some(b) if b.speculative && !speculative => best = Some(cand),
                    _ => {}
                }
            }
            per_input[in_port] = best;
        }
        // Phase 2: output arbitration, committed-over-speculative, then
        // round-robin over input ports.
        for out_port in Port::ALL {
            let start = self.sa_out_rr[out_port] % 5;
            let mut winner: Option<(usize, Cand)> = None;
            for off in 0..5 {
                let ip_idx = (start + off) % 5;
                let in_port = Port::ALL[ip_idx];
                let Some(c) = per_input[in_port] else {
                    continue;
                };
                if c.out_port != out_port {
                    continue;
                }
                match &winner {
                    None => winner = Some((ip_idx, c)),
                    Some((_, w)) if w.speculative && !c.speculative => {
                        winner = Some((ip_idx, c));
                    }
                    _ => {}
                }
            }
            let Some((ip_idx, c)) = winner else { continue };
            self.sa_out_rr[out_port] = (ip_idx + 1) % 5;
            // Grant: pop the flit, consume a credit, update VC state.
            let i = self.idx(c.in_port, c.in_vc);
            let VcRoute::Routed { out_vc, .. } = self.slots[i].route else {
                unreachable!("winner must be routed")
            };
            let o = self.idx(c.out_port, out_vc);
            let mut flit = self.pop(i);
            if flit.kind.is_tail() {
                self.slots[i].route = VcRoute::Unrouted;
                self.out_vc_busy[o] = false;
            }
            self.out_credits[o] -= 1;
            self.sa_in_rr[c.in_port] = (c.in_vc + 1) % self.layout.total();
            self.activity.buffer_reads += 1;
            self.activity.crossbar_traversals += 1;
            self.activity.sa_grants += 1;
            flit.vc = out_vc;
            outcome.departures.push(Departure {
                out_port: c.out_port,
                in_port: c.in_port,
                in_vc: c.in_vc,
                flit,
            });
            // The input port is consumed for this cycle; make sure no other
            // output picks the same input (each input feeds one crossbar
            // line). `per_input` already guarantees this: one candidate per
            // input port.
        }
        outcome
    }
}
