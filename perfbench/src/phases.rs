//! Whole-run accumulation of the network's tick-phase profiler.
//!
//! `Network::reset_stats` also resets the profiler, so a profile read
//! once at the end of a run covers only the measured window. The
//! benchmark reads the profiler at every chunk boundary instead and folds
//! each profiler epoch into a running total whenever it sees the profile
//! restart, which keeps warm-up in the per-layer split. What the old epoch
//! charged between the last reading and the reset is lost, so a caller
//! that cannot seal the epoch itself reads every cycle: the loss is then
//! the one cycle whose tick ended in the reset.

use std::time::Instant;

use punchsim_metrics::{Phase, PhaseProfiler};

const PHASES: usize = Phase::ALL.len();

/// Per-phase nanoseconds plus the number of per-cycle network ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    nanos: [u64; PHASES],
    /// Per-cycle ticks: every tick charges exactly one `power_tick` interval,
    /// while a fast-forward jump charges none.
    pub ticks: u64,
}

impl PhaseTotals {
    /// The current readings of `p`.
    pub fn of(p: &PhaseProfiler) -> Self {
        let mut t = PhaseTotals {
            ticks: p.mark_count(Phase::PowerTick),
            ..PhaseTotals::default()
        };
        for (slot, phase) in t.nanos.iter_mut().zip(Phase::ALL) {
            *slot = p.nanos(phase);
        }
        t
    }

    /// Nanoseconds charged to `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        Phase::ALL
            .iter()
            .position(|&q| q == phase)
            .map_or(0, |i| self.nanos[i])
    }

    /// Seconds charged to the given phases together.
    pub fn secs(&self, phases: &[Phase]) -> f64 {
        phases.iter().map(|&p| self.nanos(p)).sum::<u64>() as f64 * 1e-9
    }

    /// Seconds charged to all phases: the profiled share of the run.
    pub fn total_secs(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Adds `other` phase by phase.
    pub fn add(&mut self, other: &PhaseTotals) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos) {
            *a += b;
        }
        self.ticks += other.ticks;
    }
}

/// Running phase totals across profiler resets.
#[derive(Debug, Default)]
pub struct PhaseAccumulator {
    /// Epochs already closed by a reset.
    sealed: PhaseTotals,
    /// The latest reading of the open epoch.
    current: PhaseTotals,
    /// Simulated cycle of the latest reading.
    cycle: u64,
    /// Cycles between a reading and the reset detected at the next one:
    /// their phases were charged to an epoch that was reset unread.
    unobserved_cycles: u64,
    /// When the first epoch closed: the end of warm-up.
    first_reset: Option<Instant>,
}

impl PhaseAccumulator {
    /// Takes a reading at simulated `cycle`. A tick count or total below
    /// the previous reading means the profiler restarted since then (a
    /// stats reset inside the simulator), so the previous reading closes
    /// its epoch and the cycles in between count as unobserved.
    pub fn observe(&mut self, p: &PhaseProfiler, cycle: u64) {
        let cur = PhaseTotals::of(p);
        if cur.ticks < self.current.ticks || cur.total_secs() < self.current.total_secs() {
            self.seal();
            self.unobserved_cycles += cycle - self.cycle;
        }
        self.current = cur;
        self.cycle = cycle;
    }

    /// Closes the open epoch at its latest reading. Call it right after a
    /// final [`PhaseAccumulator::observe`] and before resetting the stats
    /// yourself; nothing is lost then.
    pub fn seal(&mut self) {
        self.sealed.add(&self.current);
        self.current = PhaseTotals::default();
        self.first_reset.get_or_insert_with(Instant::now);
    }

    /// Totals over every epoch so far.
    pub fn totals(&self) -> PhaseTotals {
        let mut t = self.sealed;
        t.add(&self.current);
        t
    }

    /// Cycles whose phases were lost to a reset between two readings.
    pub fn unobserved_cycles(&self) -> u64 {
        self.unobserved_cycles
    }

    /// When the first epoch was closed, if one was.
    pub fn first_reset(&self) -> Option<Instant> {
        self.first_reset
    }
}
