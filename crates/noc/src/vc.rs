//! Virtual-channel layout and per-VC allocation state. The buffers
//! themselves live in the router's flat slot table and flit slab
//! (`router.rs`, DESIGN.md §20).

use punchsim_types::{NocConfig, Port, VnetId};

use crate::flit::MsgClass;

/// Layout of the VCs of one input port: for each virtual network, first the
/// data VCs, then the control VCs (§2.1: two 3-flit data VCs and one 1-flit
/// control VC per vnet by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcLayout {
    vnets: u8,
    data_per_vnet: u8,
    data_depth: u8,
    ctrl_per_vnet: u8,
    ctrl_depth: u8,
}

impl VcLayout {
    /// Derives the layout from a network configuration.
    pub fn new(cfg: &NocConfig) -> Self {
        VcLayout {
            vnets: cfg.vnets,
            data_per_vnet: cfg.data_vcs_per_vnet,
            data_depth: cfg.data_vc_depth,
            ctrl_per_vnet: cfg.ctrl_vcs_per_vnet,
            ctrl_depth: cfg.ctrl_vc_depth,
        }
    }

    /// VCs per vnet (data + control).
    #[inline]
    pub fn per_vnet(self) -> usize {
        self.data_per_vnet as usize + self.ctrl_per_vnet as usize
    }

    /// Total VCs in the port.
    #[inline]
    pub fn total(self) -> usize {
        self.vnets as usize * self.per_vnet()
    }

    /// Buffer depth (flits) of VC `idx`.
    pub fn depth(self, idx: usize) -> usize {
        let within = idx % self.per_vnet();
        if within < self.data_per_vnet as usize {
            self.data_depth as usize
        } else {
            self.ctrl_depth as usize
        }
    }

    /// The vnet VC `idx` belongs to.
    pub fn vnet(self, idx: usize) -> VnetId {
        VnetId((idx / self.per_vnet()) as u8)
    }

    /// The message class VC `idx` serves.
    pub fn class(self, idx: usize) -> MsgClass {
        let within = idx % self.per_vnet();
        if within < self.data_per_vnet as usize {
            MsgClass::Data
        } else {
            MsgClass::Control
        }
    }

    /// Indices of the VCs serving `(vnet, class)`, in ascending order.
    pub fn candidates(self, vnet: VnetId, class: MsgClass) -> std::ops::Range<usize> {
        let base = vnet.index() * self.per_vnet();
        match class {
            MsgClass::Data => base..base + self.data_per_vnet as usize,
            MsgClass::Control => base + self.data_per_vnet as usize..base + self.per_vnet(),
        }
    }
}

/// State of the packet currently at the front of a VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcRoute {
    /// No packet, or the head flit has not been granted an output VC yet.
    Unrouted,
    /// The head won VC allocation in the given cycle for `(out_port, out_vc)`;
    /// in 4-stage mode switch allocation may only start the following cycle.
    Routed {
        /// Output port the packet is traversing toward.
        out_port: Port,
        /// Downstream VC index granted by VA.
        out_vc: usize,
        /// Cycle VA was won (for the VA->SA pipeline bubble in 4-stage mode).
        va_cycle: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::NocConfig;

    fn layout() -> VcLayout {
        VcLayout::new(&NocConfig::default())
    }

    #[test]
    fn default_layout_matches_table2() {
        let l = layout();
        assert_eq!(l.total(), 9); // 3 vnets x (2 data + 1 ctrl)
        assert_eq!(l.per_vnet(), 3);
        // VC 0,1 are vnet0 data; VC 2 is vnet0 control.
        assert_eq!(l.class(0), MsgClass::Data);
        assert_eq!(l.class(1), MsgClass::Data);
        assert_eq!(l.class(2), MsgClass::Control);
        assert_eq!(l.depth(0), 3);
        assert_eq!(l.depth(2), 1);
        assert_eq!(l.vnet(5), VnetId(1));
        assert_eq!(l.vnet(8), VnetId(2));
    }

    #[test]
    fn candidate_ranges() {
        let l = layout();
        assert_eq!(l.candidates(VnetId(0), MsgClass::Data), 0..2);
        assert_eq!(l.candidates(VnetId(0), MsgClass::Control), 2..3);
        assert_eq!(l.candidates(VnetId(2), MsgClass::Data), 6..8);
        assert_eq!(l.candidates(VnetId(2), MsgClass::Control), 8..9);
    }
}
