//! The wormhole virtual-channel router.
//!
//! Pipeline model (Figure 3 of the paper):
//!
//! * **3-stage** (look-ahead routing + speculative switch allocation):
//!   `BW | VA+SA | ST`, plus one link cycle — 4 cycles per hop at zero load.
//! * **4-stage** (look-ahead routing): `BW | VA | SA | ST`, plus one link
//!   cycle — 5 cycles per hop at zero load.
//!
//! A flit latched during cycle `t` (BW) becomes allocation-eligible at
//! `t + 1`. A head flit that wins VA at cycle `v` may compete in SA the same
//! cycle in 3-stage mode (speculation, at lower priority than committed
//! flits) or from `v + 1` in 4-stage mode. An SA winner traverses the
//! crossbar (ST) at `s + 1` and is latched downstream at
//! `s + 1 + link_latency + 1`.

use punchsim_types::{Cycle, NodeId, PacketId, Port, PortMap, VnetId, MAX_VCS_PER_PORT};

use crate::flit::{Flit, FlitKind, MsgClass};
use crate::vc::{VcLayout, VcRoute};

/// Per-router dynamic-activity counters consumed by the power model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterActivity {
    /// Flits latched into input buffers (BW operations).
    pub buffer_writes: u64,
    /// Flits read out of input buffers (on SA grants).
    pub buffer_reads: u64,
    /// Crossbar traversals (equals `buffer_reads`).
    pub crossbar_traversals: u64,
    /// Successful VC allocations.
    pub va_grants: u64,
    /// Switch-allocation grants.
    pub sa_grants: u64,
}

impl RouterActivity {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, o: &RouterActivity) {
        self.buffer_writes += o.buffer_writes;
        self.buffer_reads += o.buffer_reads;
        self.crossbar_traversals += o.crossbar_traversals;
        self.va_grants += o.va_grants;
        self.sa_grants += o.sa_grants;
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = RouterActivity::default();
    }
}

/// A flit leaving the router this cycle, as reported by [`Router::allocate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Departure {
    /// Output port the flit leaves through.
    pub out_port: Port,
    /// Input port it came from (for credit return).
    pub in_port: Port,
    /// Input VC it came from (for credit return).
    pub in_vc: usize,
    /// The flit itself, with `vc` already set to the downstream VC.
    pub flit: Flit,
}

/// A head-of-line flit stalled only because the downstream router is not on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PgBlocked {
    /// The sleeping/waking router that must power on.
    pub next_router_port: Port,
    /// The stalled packet (for the Figure 10 waiting-cycles metric).
    pub packet: PacketId,
}

/// What allocation produced. Caller-owned scratch: [`Router::allocate`]
/// appends to it and never clears it, so one buffer reused across routers
/// and ticks keeps the steady-state tick free of heap allocation.
#[derive(Debug, Default)]
pub struct AllocOutcome {
    /// Flits granted ST.
    pub departures: Vec<Departure>,
    /// Packets stalled by power-gating (one entry per stalled packet and
    /// router whose *only* missing resource is the downstream router).
    pub pg_blocked: Vec<PgBlocked>,
}

impl AllocOutcome {
    /// Empties both lists, keeping their capacity.
    pub fn clear(&mut self) {
        self.departures.clear();
        self.pg_blocked.clear();
    }
}

/// Iterates the set bits of a word in ascending order.
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

/// Splits `word` at bit `start` (`< 64`) into the bits `>= start` and the
/// bits below it. Visiting the first part then the second, each ascending,
/// meets the set bits in the order `(start + off) % width` does for
/// `off in 0..width`: the rotating-priority order of a modular scan.
#[inline]
fn split_at_bit(word: u64, start: usize) -> (u64, u64) {
    let low = (1u64 << start) - 1;
    (word & !low, word & low)
}

/// One input VC: a ring of `depth` flits at `flits[base..base + depth]`
/// whose front sits at `base + head`, plus the allocation state of the
/// packet at its front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    base: u32,
    head: u8,
    len: u8,
    depth: u8,
    route: VcRoute,
}

impl Slot {
    /// Slab index of the `k`-th buffered flit (`k < len`).
    #[inline]
    fn at(&self, k: u8) -> usize {
        let off = self.head as usize + k as usize;
        let depth = self.depth as usize;
        self.base as usize + if off >= depth { off - depth } else { off }
    }
}

/// What fills slab entries no flit occupies; never read as a flit.
const PLACEHOLDER: Flit = Flit {
    packet: PacketId(0),
    kind: FlitKind::HeadTail,
    vnet: VnetId(0),
    class: MsgClass::Control,
    dst: NodeId(0),
    route_port: Port::Local,
    vc: 0,
    seq: 0,
    latched_at: 0,
};

/// One mesh router: five ports of VC buffers plus separable VA/SA allocators.
///
/// Per-VC state is flat (DESIGN.md §20): `slots`, `out_credits` and
/// `out_vc_busy` are port-major arrays of `5 × total` entries (VC `v` of
/// port `p` at `p.index() * total + v`), and every input VC's buffer is a
/// ring in the one `flits` slab, so a clone is four bulk copies.
#[derive(Debug, Clone)]
pub struct Router {
    id: NodeId,
    layout: VcLayout,
    stages: u8,
    /// Input VCs, port-major.
    slots: Vec<Slot>,
    /// Ring storage of every input VC (`5 × Σdepth` flits).
    flits: Vec<Flit>,
    /// Credits toward each downstream VC, port-major by output port.
    /// `Local` is the ejection port and is initialized effectively
    /// infinite (the NI is a guaranteed sink, required for protocol-level
    /// deadlock freedom).
    out_credits: Vec<u32>,
    /// Output VCs currently owned by an in-flight packet, port-major.
    out_vc_busy: Vec<bool>,
    va_rr: PortMap<usize>,
    sa_in_rr: PortMap<usize>,
    sa_out_rr: PortMap<usize>,
    /// Occupied-VC mask per input port: bit `v` of `occ[p]` is set exactly
    /// when input VC `v` of port `p` holds a flit. `latch` sets it and the
    /// SA pop that empties a VC clears it. Both allocators visit only set
    /// bits, and `datapath_empty` is a test of five words. Derived from
    /// `slots`, so it stays out of `encode_state`.
    occ: PortMap<u64>,
    /// Activity counters for the power model.
    pub activity: RouterActivity,
}

/// Effectively-infinite ejection credit for the `Local` output port.
const EJECT_CREDITS: u32 = 1 << 30;

impl Router {
    /// Creates a router with empty buffers and full credits.
    ///
    /// `has_neighbor` marks which link directions exist (mesh edges have
    /// fewer); absent neighbours get zero credits so allocation never
    /// selects them (XY routing never requests them anyway).
    ///
    /// # Panics
    ///
    /// Panics if the layout has more than [`MAX_VCS_PER_PORT`] VCs per
    /// port, which `NocConfig::validate` rejects up front.
    pub fn new(id: NodeId, layout: VcLayout, stages: u8, has_neighbor: PortMap<bool>) -> Self {
        let total = layout.total();
        assert!(
            total <= MAX_VCS_PER_PORT,
            "{total} VCs per port exceed the occupied-VC mask ({MAX_VCS_PER_PORT})"
        );
        let mut slots = Vec::with_capacity(5 * total);
        let mut base = 0u32;
        for _ in Port::ALL {
            for v in 0..total {
                let depth = layout.depth(v) as u8;
                slots.push(Slot {
                    base,
                    head: 0,
                    len: 0,
                    depth,
                    route: VcRoute::Unrouted,
                });
                base += u32::from(depth);
            }
        }
        let mut out_credits = Vec::with_capacity(5 * total);
        for p in Port::ALL {
            out_credits.extend((0..total).map(|v| match p {
                Port::Local => EJECT_CREDITS,
                Port::Link(_) if has_neighbor[p] => layout.depth(v) as u32,
                Port::Link(_) => 0,
            }));
        }
        Router {
            id,
            layout,
            stages,
            slots,
            flits: vec![PLACEHOLDER; base as usize],
            out_credits,
            out_vc_busy: vec![false; 5 * total],
            va_rr: PortMap::default(),
            sa_in_rr: PortMap::default(),
            sa_out_rr: PortMap::default(),
            occ: PortMap::default(),
            activity: RouterActivity::default(),
        }
    }

    /// This router's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Port-major index of VC `vc` of `port` in the flat per-VC arrays.
    #[inline]
    fn idx(&self, port: Port, vc: usize) -> usize {
        port.index() * self.layout.total() + vc
    }

    /// The front flit of input VC `i` (port-major index), if any.
    #[inline]
    fn front(&self, i: usize) -> Option<&Flit> {
        let s = &self.slots[i];
        (s.len > 0).then(|| &self.flits[s.base as usize + s.head as usize])
    }

    /// Removes and returns the front flit of input VC `i`, which must hold
    /// one. The slab entry keeps a stale copy outside the ring's live span.
    #[inline]
    fn pop(&mut self, i: usize) -> Flit {
        let s = &mut self.slots[i];
        assert!(s.len > 0, "pop from an empty VC");
        let flit = self.flits[s.base as usize + s.head as usize].clone();
        s.head = if s.head + 1 == s.depth { 0 } else { s.head + 1 };
        s.len -= 1;
        flit
    }

    /// Latches `flit` into input `port` (the BW stage) during `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if the target VC is full — upstream credit accounting must
    /// make this impossible.
    pub fn latch(&mut self, port: Port, mut flit: Flit, cycle: Cycle) {
        flit.latched_at = cycle;
        self.activity.buffer_writes += 1;
        let vc = flit.vc;
        let i = self.idx(port, vc);
        let s = &mut self.slots[i];
        assert!(s.len < s.depth, "VC overflow: credit accounting violated");
        let at = s.at(s.len);
        s.len += 1;
        self.flits[at] = flit;
        self.occ[port] |= 1 << vc;
    }

    /// Returns a credit for downstream VC `vc` of output `port`.
    pub fn credit(&mut self, port: Port, vc: usize) {
        let i = self.idx(port, vc);
        self.out_credits[i] += 1;
        debug_assert!(
            port == Port::Local || self.out_credits[i] <= self.layout.depth(vc) as u32,
            "credit overflow on {port} vc{vc}"
        );
    }

    /// `true` when every input VC is empty (no flit anywhere in the
    /// datapath) — one of the conditions for power-gating the router.
    /// O(1): the network checks it for every router every busy cycle.
    pub fn datapath_empty(&self) -> bool {
        debug_assert!(self.occ_in_sync(), "occupied-VC mask out of sync");
        self.occ.iter().all(|(_, &w)| w == 0)
    }

    /// The occupied-VC word of `port`, recomputed from its slots.
    fn derive_occ(&self, port: Port) -> u64 {
        let first = self.idx(port, 0);
        self.slots[first..first + self.layout.total()]
            .iter()
            .enumerate()
            .filter(|(_, s)| s.len > 0)
            .fold(0, |w, (v, _)| w | 1 << v)
    }

    /// `true` when `occ` matches the slots it mirrors (debug check).
    fn occ_in_sync(&self) -> bool {
        Port::ALL.iter().all(|&p| self.derive_occ(p) == self.occ[p])
    }

    /// Total buffered flits (debug/occupancy metric).
    pub fn occupancy(&self) -> usize {
        self.slots.iter().map(|s| s.len as usize).sum()
    }

    /// Appends this router's canonical snapshot encoding (see
    /// [`crate::snapshot`]): input VCs (sparse — an empty, unrouted VC is a
    /// single zero byte), link-port credit *deficits* (depth minus current
    /// credits, so a fully-credited idle router encodes as zeros), output-VC
    /// ownership and the three round-robin pointers. `Local` ejection
    /// credits are excluded: they start effectively infinite and only ever
    /// decrease, which makes them a monotone counter in disguise. Activity
    /// counters are statistics and excluded per the snapshot rules.
    ///
    /// A non-empty VC encodes as its flit count, its flits front to back
    /// and the front packet's route. `va_cycle` is excluded — it only
    /// distinguishes same-cycle speculative grants, and between ticks it
    /// is always strictly below the current cycle, so it carries no
    /// information in the rebased encoding.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_bool, put_u16, put_u8};
        for s in &self.slots {
            if s.len == 0 && s.route == VcRoute::Unrouted {
                put_u8(out, 0);
                continue;
            }
            put_u8(out, 1);
            put_u8(out, s.len);
            for k in 0..s.len {
                self.flits[s.at(k)].encode_state(out);
            }
            match s.route {
                VcRoute::Unrouted => put_u8(out, 0),
                VcRoute::Routed {
                    out_port, out_vc, ..
                } => {
                    put_u8(out, 1);
                    put_u8(out, out_port.index() as u8);
                    put_u8(out, out_vc as u8);
                }
            }
        }
        let total = self.layout.total();
        // Skip the `Local` block, which comes first.
        for (i, &c) in self.out_credits.iter().enumerate().skip(total) {
            let depth = self.layout.depth(i % total) as u32;
            put_u8(out, depth.saturating_sub(c) as u8);
        }
        for &b in &self.out_vc_busy {
            put_bool(out, b);
        }
        // `va_rr` ranges over `0..5 * total`: one byte while that fits (the
        // default layout's encoding), two bytes beyond.
        let wide_va = 5 * total > 256;
        for (_, &rr) in self.va_rr.iter() {
            if wide_va {
                put_u16(out, rr as u16);
            } else {
                put_u8(out, rr as u8);
            }
        }
        for (_, &rr) in self.sa_in_rr.iter() {
            put_u8(out, rr as u8);
        }
        for (_, &rr) in self.sa_out_rr.iter() {
            put_u8(out, rr as u8);
        }
    }

    /// Runs VC allocation then switch allocation for `cycle`, appending the
    /// departures and PG-blocked packets to `out` (which it never clears).
    ///
    /// `down_on[p]` tells whether the router downstream of output `p` is
    /// fully powered on (`Local` must be `true`). Departing flits carry a
    /// recomputed look-ahead route for the next router; the network layer
    /// does that, so `route_port` on departures still refers to *this*
    /// router's output.
    pub fn allocate(&mut self, cycle: Cycle, down_on: &PortMap<bool>, out: &mut AllocOutcome) {
        debug_assert!(self.occ_in_sync(), "occupied-VC mask out of sync");
        self.vc_allocate(cycle);
        self.switch_allocate(cycle, down_on, out);
    }

    /// VC allocation: head flits at the front of their VC request an output
    /// VC of their (vnet, class) at their look-ahead output port.
    ///
    /// Each output grants over a rotating priority on the global input-VC
    /// index `in_port * total + in_vc`, starting at `va_rr`. Visiting the
    /// request bits of the start port from the start VC up, then the other
    /// ports in rotated order, then the start port's bits below the start
    /// VC, is exactly that modular scan restricted to requesters.
    fn vc_allocate(&mut self, cycle: Cycle) {
        let total = self.layout.total();
        // req[out][in]: bit v set when VC v of input `in` holds an eligible
        // unrouted head bound for `out`.
        let mut req = [[0u64; 5]; 5];
        let mut any = false;
        for in_port in Port::ALL {
            let first = in_port.index() * total;
            for iv in SetBits(self.occ[in_port]) {
                if self.slots[first + iv].route != VcRoute::Unrouted {
                    continue;
                }
                let front = self
                    .front(first + iv)
                    .expect("occupied VC has a front flit");
                if !front.kind.is_head() || front.latched_at >= cycle {
                    continue;
                }
                req[front.route_port.index()][in_port.index()] |= 1 << iv;
                any = true;
            }
        }
        if !any {
            return;
        }
        let space = 5 * total;
        for out_port in Port::ALL {
            let words = &req[out_port.index()];
            if words.iter().all(|&w| w == 0) {
                continue;
            }
            let start = self.va_rr[out_port] % space;
            let (start_port, start_vc) = (start / total, start % total);
            let (high, low) = split_at_bit(words[start_port], start_vc);
            let out_first = out_port.index() * total;
            let mut granted_any = false;
            for k in 0..=5 {
                let ip_idx = (start_port + k) % 5;
                let bits = match k {
                    0 => high,
                    5 => low,
                    _ => words[ip_idx],
                };
                for iv in SetBits(bits) {
                    let i = ip_idx * total + iv;
                    // Find a free output VC of the right vnet/class.
                    let front = self.front(i).expect("request implies a front flit");
                    let cand = self.layout.candidates(front.vnet, front.class);
                    let Some(out_vc) = cand.clone().find(|&ov| !self.out_vc_busy[out_first + ov])
                    else {
                        continue;
                    };
                    self.out_vc_busy[out_first + out_vc] = true;
                    self.slots[i].route = VcRoute::Routed {
                        out_port,
                        out_vc,
                        va_cycle: cycle,
                    };
                    self.activity.va_grants += 1;
                    if !granted_any {
                        // Rotate past the first winner.
                        self.va_rr[out_port] = (i + 1) % space;
                        granted_any = true;
                    }
                }
            }
        }
    }

    /// Separable input-first switch allocation with speculation support.
    fn switch_allocate(&mut self, cycle: Cycle, down_on: &PortMap<bool>, out: &mut AllocOutcome) {
        // Phase 0: classify each VC's front flit.
        // candidate = eligible + routed + credit + downstream on.
        // pg_blocked = eligible + routed + credit, downstream off.
        #[derive(Clone, Copy)]
        struct Cand {
            in_port: Port,
            in_vc: usize,
            out_port: Port,
            out_vc: usize,
            speculative: bool,
        }
        let mut per_input: PortMap<Option<Cand>> = PortMap::default();
        // This call's PG-blocked entries start here in `out.pg_blocked`.
        let blocked_from = out.pg_blocked.len();
        let total = self.layout.total();
        for in_port in Port::ALL {
            let first = in_port.index() * total;
            // Occupied VCs in the rotated order `(start + off) % total`.
            let start = self.sa_in_rr[in_port] % total;
            let (high, low) = split_at_bit(self.occ[in_port], start);
            let mut best: Option<Cand> = None;
            for iv in SetBits(high).chain(SetBits(low)) {
                let front = self
                    .front(first + iv)
                    .expect("occupied VC has a front flit");
                if front.latched_at >= cycle {
                    continue;
                }
                let VcRoute::Routed {
                    out_port,
                    out_vc,
                    va_cycle,
                } = self.slots[first + iv].route
                else {
                    continue;
                };
                let speculative = va_cycle == cycle;
                if speculative && self.stages != 3 {
                    continue; // 4-stage: SA starts the cycle after VA.
                }
                if self.out_credits[out_port.index() * total + out_vc] == 0 {
                    continue; // no downstream buffer space
                }
                if !down_on[out_port] {
                    // Stalled purely by power-gating: report for the WU
                    // handshake and the Fig. 9/10 metrics (once per packet).
                    if !out.pg_blocked[blocked_from..]
                        .iter()
                        .any(|b| b.packet == front.packet)
                    {
                        out.pg_blocked.push(PgBlocked {
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
                    out_vc,
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
            let i = ip_idx * total + c.in_vc;
            let o = out_port.index() * total + c.out_vc;
            let mut flit = self.pop(i);
            if self.slots[i].len == 0 {
                self.occ[c.in_port] &= !(1 << c.in_vc);
            }
            if flit.kind.is_tail() {
                self.slots[i].route = VcRoute::Unrouted;
                self.out_vc_busy[o] = false;
            }
            self.out_credits[o] -= 1;
            self.sa_in_rr[c.in_port] = (c.in_vc + 1) % total;
            self.activity.buffer_reads += 1;
            self.activity.crossbar_traversals += 1;
            self.activity.sa_grants += 1;
            flit.vc = c.out_vc;
            out.departures.push(Departure {
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
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::{Direction, NocConfig, SimRng};
    use std::collections::VecDeque;

    fn mk_router() -> Router {
        let cfg = NocConfig::default();
        Router::new(
            NodeId(0),
            VcLayout::new(&cfg),
            3,
            PortMap::from_fn(|_| true),
        )
    }

    fn flit(kind: FlitKind, seq: u16, out: Port) -> Flit {
        Flit {
            packet: PacketId(7),
            kind,
            vnet: VnetId(0),
            class: MsgClass::Data,
            dst: NodeId(9),
            route_port: out,
            vc: 0,
            seq,
            latched_at: 0,
        }
    }

    fn alloc(r: &mut Router, cycle: Cycle, down_on: &PortMap<bool>) -> AllocOutcome {
        let mut out = AllocOutcome::default();
        r.allocate(cycle, down_on, &mut out);
        out
    }

    fn all_on() -> PortMap<bool> {
        PortMap::from_fn(|_| true)
    }

    #[test]
    fn three_stage_head_departs_after_one_alloc_cycle() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        r.latch(Port::Local, flit(FlitKind::HeadTail, 0, out), 10);
        // Not eligible in the latch cycle.
        assert!(alloc(&mut r, 10, &all_on()).departures.is_empty());
        // Cycle 11: VA + speculative SA both succeed.
        let o = alloc(&mut r, 11, &all_on());
        assert_eq!(o.departures.len(), 1);
        assert_eq!(o.departures[0].out_port, out);
        assert!(r.datapath_empty());
    }

    #[test]
    fn four_stage_needs_two_alloc_cycles() {
        let cfg = NocConfig::default();
        let mut r = Router::new(
            NodeId(0),
            VcLayout::new(&cfg),
            4,
            PortMap::from_fn(|_| true),
        );
        let out = Port::Link(Direction::East);
        r.latch(Port::Local, flit(FlitKind::HeadTail, 0, out), 10);
        assert!(alloc(&mut r, 11, &all_on()).departures.is_empty()); // VA only
        let o = alloc(&mut r, 12, &all_on());
        assert_eq!(o.departures.len(), 1);
    }

    #[test]
    fn wormhole_streams_one_flit_per_cycle() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        r.latch(Port::Local, flit(FlitKind::Head, 0, out), 10);
        r.latch(Port::Local, flit(FlitKind::Body, 1, out), 11);
        r.latch(Port::Local, flit(FlitKind::Tail, 2, out), 12);
        let mut got = Vec::new();
        for c in 11..=14 {
            for d in alloc(&mut r, c, &all_on()).departures {
                got.push((c, d.flit.seq));
            }
        }
        assert_eq!(got, vec![(11, 0), (12, 1), (13, 2)]);
        assert!(r.datapath_empty());
    }

    #[test]
    fn blocked_when_downstream_off() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        r.latch(Port::Local, flit(FlitKind::HeadTail, 0, out), 10);
        let mut down = all_on();
        down[out] = false;
        let o = alloc(&mut r, 11, &down);
        assert!(o.departures.is_empty());
        assert_eq!(o.pg_blocked.len(), 1);
        assert_eq!(o.pg_blocked[0].next_router_port, out);
        // Downstream wakes: flit proceeds.
        let o = alloc(&mut r, 12, &all_on());
        assert_eq!(o.departures.len(), 1);
    }

    #[test]
    fn credits_bound_departures() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        // Data VC 0 downstream has depth 3; stream a 5-flit packet without
        // returning credits: only 3 flits may leave. Latch one flit per
        // cycle (as a link would deliver them), interleaved with allocation
        // so the local 3-deep buffer never overflows.
        let kinds = [
            FlitKind::Head,
            FlitKind::Body,
            FlitKind::Body,
            FlitKind::Body,
            FlitKind::Tail,
        ];
        let mut next = 0usize;
        let mut sent = 0;
        for c in 10..30 {
            if next < kinds.len() && r.occupancy() < 3 {
                r.latch(Port::Local, flit(kinds[next], next as u16, out), c);
                next += 1;
            }
            sent += alloc(&mut r, c, &all_on()).departures.len();
        }
        assert_eq!(sent, 3);
        // Return one credit; one more flit flows.
        r.credit(out, 0);
        for c in 30..33 {
            sent += alloc(&mut r, c, &all_on()).departures.len();
        }
        assert_eq!(sent, 4);
    }

    #[test]
    fn two_inputs_share_one_output_fairly() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        // Two single-flit packets from different inputs, same output.
        let mut f1 = flit(FlitKind::HeadTail, 0, out);
        f1.packet = PacketId(1);
        let mut f2 = flit(FlitKind::HeadTail, 0, out);
        f2.packet = PacketId(2);
        f2.vc = 1;
        r.latch(Port::Local, f1, 10);
        r.latch(Port::Link(Direction::West), f2, 10);
        let o1 = alloc(&mut r, 11, &all_on());
        assert_eq!(o1.departures.len(), 1);
        let o2 = alloc(&mut r, 12, &all_on());
        assert_eq!(o2.departures.len(), 1);
        let a = o1.departures[0].flit.packet;
        let b = o2.departures[0].flit.packet;
        assert_ne!(a, b);
    }

    #[test]
    fn distinct_outputs_depart_same_cycle() {
        let mut r = mk_router();
        let mut f1 = flit(FlitKind::HeadTail, 0, Port::Link(Direction::East));
        f1.packet = PacketId(1);
        let mut f2 = flit(FlitKind::HeadTail, 0, Port::Link(Direction::South));
        f2.packet = PacketId(2);
        r.latch(Port::Link(Direction::West), f1, 10);
        r.latch(Port::Link(Direction::North), f2, 10);
        let o = alloc(&mut r, 11, &all_on());
        assert_eq!(o.departures.len(), 2);
    }

    #[test]
    fn control_flits_use_control_vc() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        let mut f = flit(FlitKind::HeadTail, 0, out);
        f.class = MsgClass::Control;
        f.vc = 2; // control VC of vnet 0
        r.latch(Port::Local, f, 10);
        let o = alloc(&mut r, 11, &all_on());
        assert_eq!(o.departures.len(), 1);
        // Granted downstream VC must be the control VC (index 2).
        assert_eq!(o.departures[0].flit.vc, 2);
    }

    #[test]
    fn vc_allocation_exclusive_until_tail() {
        let mut r = mk_router();
        let out = Port::Link(Direction::East);
        // Packet A (multi-flit, in VC0) claims downstream VC 0 and stalls
        // after head (no more flits yet). Packet B in VC1 must get VC 1.
        let mut head_a = flit(FlitKind::Head, 0, out);
        head_a.packet = PacketId(1);
        head_a.vc = 0;
        let mut head_b = flit(FlitKind::Head, 0, out);
        head_b.packet = PacketId(2);
        head_b.vc = 1;
        r.latch(Port::Local, head_a, 10);
        r.latch(Port::Local, head_b, 10);
        let mut out_vcs = Vec::new();
        for c in 11..14 {
            for d in alloc(&mut r, c, &all_on()).departures {
                out_vcs.push(d.flit.vc);
            }
        }
        out_vcs.sort_unstable();
        assert_eq!(out_vcs, vec![0, 1]);
    }

    /// The packet an input VC of the differential test is receiving.
    #[derive(Clone, Copy)]
    struct Stream {
        packet: PacketId,
        route_port: Port,
        seq: u16,
        len: u16,
    }

    /// Drives the bitmask allocator and the reference modular-scan
    /// allocator (`reference.rs`) on clones of one router, fed the same
    /// seeded stream of latches, credit returns and downstream power
    /// states. Every cycle both must report the same departures and PG
    /// blocks, and end with the same activity counters, snapshot encoding
    /// (which covers all three round-robin pointers) and router state.
    fn differential(layout: (u8, u8, u8), stages: u8, seed: u64, cycles: u64) {
        let (vnets, data, ctrl) = layout;
        let cfg = NocConfig {
            vnets,
            data_vcs_per_vnet: data,
            ctrl_vcs_per_vnet: ctrl,
            router_stages: stages,
            ..NocConfig::default()
        };
        cfg.validate().unwrap();
        let layout = VcLayout::new(&cfg);
        let total = layout.total();
        let mut rng = SimRng::seed_from_u64(seed);
        let has_neighbor = PortMap::from_fn(|p| p == Port::Local || rng.random_bool_ppm(800_000));
        let outputs: Vec<Port> = Port::ALL.into_iter().filter(|&p| has_neighbor[p]).collect();
        let mut fast = Router::new(NodeId(0), layout, stages, has_neighbor);
        let mut refr = fast.clone();
        let mut streams: PortMap<Vec<Option<Stream>>> = PortMap::from_fn(|_| vec![None; total]);
        // Link credits consumed by departures and not yet returned.
        let mut owed: PortMap<Vec<u32>> = PortMap::from_fn(|_| vec![0; total]);
        let mut down_on = PortMap::from_fn(|_| true);
        let mut out = AllocOutcome::default();
        let (mut fast_bytes, mut ref_bytes) = (Vec::new(), Vec::new());
        let (mut departed, mut blocked) = (0u64, 0u64);
        for cycle in 1..=cycles {
            // Downstream routers sleep and wake now and then, so PG stalls
            // last several cycles.
            for p in Port::ALL {
                if p != Port::Local && rng.random_bool_ppm(100_000) {
                    down_on[p] = !down_on[p];
                }
            }
            // BW: at most one flit per input port, into a VC with room.
            for p in Port::ALL {
                if !rng.random_bool_ppm(700_000) {
                    continue;
                }
                let v = rng.random_range(0..total);
                let slot = fast.slots[fast.idx(p, v)];
                if slot.len == slot.depth {
                    continue;
                }
                let s = streams[p][v].get_or_insert_with(|| Stream {
                    // A small id space makes two VCs occasionally front the
                    // same packet id, which exercises the PG-block dedup.
                    packet: PacketId(rng.random_range(0..24u64)),
                    route_port: outputs[rng.random_range(0..outputs.len())],
                    seq: 0,
                    len: match layout.class(v) {
                        MsgClass::Control => 1,
                        MsgClass::Data => rng.random_range(1..6u16),
                    },
                });
                let kind = match (s.seq, s.len) {
                    (_, 1) => FlitKind::HeadTail,
                    (0, _) => FlitKind::Head,
                    (q, l) if q + 1 == l => FlitKind::Tail,
                    _ => FlitKind::Body,
                };
                let f = Flit {
                    packet: s.packet,
                    kind,
                    vnet: layout.vnet(v),
                    class: layout.class(v),
                    dst: NodeId(9),
                    route_port: s.route_port,
                    vc: v,
                    seq: s.seq,
                    latched_at: 0,
                };
                s.seq += 1;
                if s.seq == s.len {
                    streams[p][v] = None;
                }
                fast.latch(p, f.clone(), cycle);
                refr.latch(p, f, cycle);
            }
            for p in outputs.iter().copied().filter(|&p| p != Port::Local) {
                for v in 0..total {
                    if owed[p][v] > 0 && rng.random_bool_ppm(300_000) {
                        owed[p][v] -= 1;
                        fast.credit(p, v);
                        refr.credit(p, v);
                    }
                }
            }
            out.clear();
            fast.allocate(cycle, &down_on, &mut out);
            let reference = refr.reference_allocate(cycle, &down_on);
            assert_eq!(out.departures, reference.departures, "cycle {cycle}");
            assert_eq!(out.pg_blocked, reference.pg_blocked, "cycle {cycle}");
            assert_eq!(fast.activity, refr.activity, "cycle {cycle}");
            fast_bytes.clear();
            ref_bytes.clear();
            fast.encode_state(&mut fast_bytes);
            refr.encode_state(&mut ref_bytes);
            assert_eq!(fast_bytes, ref_bytes, "cycle {cycle}");
            // What the encoding leaves out: VA cycles, ejection credits and
            // the occupied-VC mask.
            assert_eq!(fast.slots, refr.slots, "cycle {cycle}");
            assert_eq!(fast.out_credits, refr.out_credits, "cycle {cycle}");
            assert_eq!(fast.occ, refr.occ, "cycle {cycle}");
            for d in &out.departures {
                if d.out_port != Port::Local {
                    owed[d.out_port][d.flit.vc] += 1;
                }
            }
            departed += out.departures.len() as u64;
            blocked += out.pg_blocked.len() as u64;
        }
        // The stream must actually load both allocators.
        assert!(departed > cycles / 4, "{layout:?}: {departed} departures");
        assert!(blocked > 0, "{layout:?}: no PG blocks");
    }

    #[test]
    fn bitmask_allocator_matches_reference() {
        // Default 3 x (2 + 1), 1 vnet x 1 VC, 4 x (3 + 1), and 4 x (15 + 1)
        // = 64 VCs per port, the mask's bound (its va_rr needs two bytes).
        for layout in [(3, 2, 1), (1, 1, 0), (4, 3, 1), (4, 15, 1)] {
            for stages in [3, 4] {
                for seed in 0..3 {
                    differential(layout, stages, 0x5eed_0000 + seed, 1500);
                }
            }
        }
    }

    /// Streams packets through a single VC of `depth` flits, latching a
    /// random number of flits each cycle (up to the free space) and
    /// withholding credits now and then so the ring both fills and drains.
    /// Its head wraps at every fill level; departures must leave in latch
    /// order and the slot must mirror a `VecDeque` model every cycle.
    fn ring_wraparound(depth: u8, seed: u64) {
        let cfg = NocConfig {
            vnets: 1,
            data_vcs_per_vnet: 1,
            ctrl_vcs_per_vnet: 0,
            data_vc_depth: depth,
            ..NocConfig::default()
        };
        cfg.validate().unwrap();
        let mut r = Router::new(
            NodeId(0),
            VcLayout::new(&cfg),
            3,
            PortMap::from_fn(|_| true),
        );
        let out = Port::Link(Direction::East);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut model: VecDeque<(PacketId, u16)> = VecDeque::new();
        // The packet being latched: (id, next seq, length).
        let mut cur = (PacketId(0), 0u16, 1u16);
        let (mut owed, mut departed, mut wraps) = (0u32, 0usize, 0usize);
        for cycle in 1..=600 {
            let free = usize::from(depth) - model.len();
            for _ in 0..rng.random_range(0..free + 1) {
                let (packet, seq, len) = cur;
                let kind = match (seq, len) {
                    (_, 1) => FlitKind::HeadTail,
                    (0, _) => FlitKind::Head,
                    (q, l) if q + 1 == l => FlitKind::Tail,
                    _ => FlitKind::Body,
                };
                let mut f = flit(kind, seq, out);
                f.packet = packet;
                r.latch(Port::Local, f, cycle);
                model.push_back((packet, seq));
                cur = if seq + 1 == len {
                    let len = rng.random_range(1..2 * u16::from(depth) + 2);
                    (PacketId(packet.0 + 1), 0, len)
                } else {
                    (packet, seq + 1, len)
                };
            }
            if rng.random_bool_ppm(600_000) {
                for _ in 0..std::mem::take(&mut owed) {
                    r.credit(out, 0);
                }
            }
            let head_before = r.slots[0].head;
            for d in alloc(&mut r, cycle, &all_on()).departures {
                assert_eq!(model.pop_front(), Some((d.flit.packet, d.flit.seq)));
                owed += 1;
                departed += 1;
            }
            if r.slots[0].head < head_before {
                wraps += 1;
            }
            assert_eq!(r.occupancy(), model.len(), "cycle {cycle}");
            assert_eq!(r.datapath_empty(), model.is_empty(), "cycle {cycle}");
            let front = r.front(0).map(|f| (f.packet, f.seq));
            assert_eq!(front, model.front().copied(), "cycle {cycle}");
        }
        assert!(departed > 120, "depth {depth}: {departed} departures");
        if depth > 1 {
            assert!(wraps > 20, "depth {depth}: head wrapped {wraps} times");
        }
    }

    #[test]
    fn vc_ring_wraps_in_fifo_order() {
        for depth in [1, 3, 15] {
            for seed in 0..3 {
                ring_wraparound(depth, 0x21a6_0000 + seed);
            }
        }
    }

    #[test]
    #[should_panic(expected = "VC overflow: credit accounting violated")]
    fn latching_into_a_full_vc_panics() {
        let mut r = mk_router();
        let mut f = flit(FlitKind::HeadTail, 0, Port::Local);
        f.class = MsgClass::Control;
        f.vc = 2; // the 1-flit control VC of vnet 0
        r.latch(Port::Local, f.clone(), 10);
        r.latch(Port::Local, f, 10);
    }

    #[test]
    fn va_pointer_encoding_is_lossless_at_the_bound() {
        let cfg = NocConfig {
            vnets: 4,
            data_vcs_per_vnet: 15,
            ctrl_vcs_per_vnet: 1,
            ..NocConfig::default()
        };
        let r = Router::new(
            NodeId(0),
            VcLayout::new(&cfg),
            3,
            PortMap::from_fn(|_| true),
        );
        let mut a = r.clone();
        let mut b = r;
        // 300 and 44 are equal modulo 256.
        a.va_rr[Port::Link(Direction::East)] = 300;
        b.va_rr[Port::Link(Direction::East)] = 44;
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        a.encode_state(&mut ea);
        b.encode_state(&mut eb);
        assert_ne!(ea, eb);
    }
}
