//! Metric definitions and the printed report.
//!
//! The two tables below are the benchmark's metric contract; a test
//! checks them against `BENCHMARK.json`.

use crate::stats::Tally;

/// What a number measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What the simulator costs on the machine running it.
    Host,
    /// What the modelled chip does.
    Simulated,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Simulated => "simulated",
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Host or simulated.
    pub kind: Kind,
    /// What it means and, for a per-layer metric, which end-to-end metric
    /// it should move on which workload.
    pub note: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    kind: Kind,
    note: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        kind,
        note,
    }
}

use Kind::{Host, Simulated};

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower", Host, "public constructors, summed over the workload's specs; median of repeated set-ups"),
    def("run_s", "s", "lower", Host, "first tick to final report, warm-up included (verify: the run_verification call); median pass"),
    def("sim_cycles_per_s", "1/s", "higher", Host, "simulated cycles, warm-up included, per host second (verify: one network tick per explored edge)"),
    def("chunk_ms_p50", "ms", "lower", Host, "per fixed chunk of simulated cycles, median across passes at each position, then over positions (verify: per exploration)"),
    def("chunk_ms_p99", "ms", "lower", Host, "nearest-rank p99 of the same chunks; the report prints the sample count and how many lie beyond"),
    def("peak_rss_mb", "MB", "lower", Host, "the process's VmHWM"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[Def] = &[
    def("noc.soa_phase_a_s", "s", "lower", Host, "moves run_s on fullsys_parsec and busy_mesh; barely sparse_idle"),
    def("noc.soa_commit_s", "s", "lower", Host, "moves run_s on fullsys_parsec and busy_mesh; barely sparse_idle"),
    def("noc.other_s", "s", "lower", Host, "remaining tick phases (deliver, eject, inject, rebuild, pool wait); completes the split"),
    def("noc.watchdog_s", "s", "lower", Host, "moves run_s on every tick-driven workload"),
    def("noc.fast_forward_s", "s", "lower", Host, "moves sim_cycles_per_s on sparse_idle only"),
    def("noc.ns_per_tick", "ns", "lower", Host, "network tick phases per ticked cycle; moves run_s on fullsys_parsec and busy_mesh"),
    def("noc.ticks", "count", "lower", Simulated, "cycles ticked one by one (the CMP reset cycle is unobserved); moves sim_cycles_per_s on sparse_idle only"),
    def("noc.skipped_frac", "frac", "higher", Simulated, "simulated cycles not ticked over all; moves sim_cycles_per_s on sparse_idle only"),
    def("noc.packets_delivered", "count", "higher", Simulated, "measured window; reported only"),
    def("noc.latency_p50", "cycles", "lower", Simulated, "measured window; reported only"),
    def("noc.latency_p99", "cycles", "lower", Simulated, "measured window; reported only"),
    def("core.power_tick_s", "s", "lower", Host, "moves run_s on busy_mesh most, then sparse_idle, fullsys_parsec least"),
    def("core.ns_per_tick", "ns", "lower", Host, "power manager per ticked cycle; moves run_s on busy_mesh most"),
    def("core.wake_events", "count", "lower", Simulated, "measured window; repeats exactly"),
    def("core.wu_assertions", "count", "lower", Simulated, "measured window; repeats exactly"),
    def("core.punch_hops", "count", "lower", Simulated, "measured window; repeats exactly"),
    def("core.escalations", "count", "lower", Simulated, "forced wakes (the retry count); repeats exactly"),
    def("core.off_frac", "frac", "higher", Simulated, "router-cycles powered off, measured window; repeats exactly"),
    def("cmp.self_s", "s", "lower", Host, "CMP work between network ticks; moves sim_instr_per_s on fullsys_parsec only"),
    def("cmp.instructions", "count", "higher", Simulated, "retired, warm-up included; fullsys_parsec only"),
    def("cmp.warmup_frac", "frac", "lower", Host, "share of run_s spent before the stats reset; fullsys_parsec only"),
    def("cmp.l1_miss_rate", "frac", "lower", Simulated, "mean over the workload's specs; fullsys_parsec only"),
    def("traffic.self_s", "s", "lower", Host, "harness work between network ticks; moves run_s on busy_mesh and sparse_idle"),
    def("traffic.packets_sent", "count", "higher", Simulated, "injected, warm-up included; moves run_s on busy_mesh and sparse_idle"),
    def("campaign.self_s", "s", "lower", Host, "Runner::run wall minus its runs' walls; near zero, shows work moved into the runner"),
    def("campaign.serialize_s", "s", "lower", Host, "building and rendering the CampaignReport; near zero, shows work moved into reporting"),
    def("verify.explore_s", "s", "lower", Host, "the run_verification call; moves states_per_s on verify_2x3"),
    def("verify.states", "count", "lower", Simulated, "reachable states; moves states_per_s on verify_2x3"),
    def("verify.edges", "count", "lower", Simulated, "explored transitions; moves states_per_s on verify_2x3"),
    def("verify.us_per_state", "us", "lower", Host, "moves states_per_s on verify_2x3"),
    def("trace.coverage", "frac", "higher", Host, "layer times summed over the traced run_s"),
    def("trace.overhead_frac", "frac", "lower", Host, "traced run_s over untraced run_s, minus 1"),
];

/// A finished run: values for one of the two tables plus the tally.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// The table the values belong to.
    pub table: &'static [Def],
    /// One value per entry of `table`, in order.
    pub values: Vec<f64>,
    /// Further labelled lines for the human-readable part.
    pub notes: Vec<String>,
    /// Operations attempted and failed.
    pub tally: Tally,
}

impl Report {
    /// The human-readable lines, then the result object as the last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "punchsim benchmark, workload {}\n\
             model: unvalidated (the repository holds no hardware reference), so no error figure is given\n",
            self.workload
        ));
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        for (d, v) in self.table.iter().zip(&self.values) {
            out.push_str(&format!(
                "  [{:<9}] {:<22} {:>16} {:<6} ({} is better) {}\n",
                d.kind.label(),
                d.name,
                fmt_value(*v),
                d.unit,
                d.better,
                d.note
            ));
        }
        out.push_str(&format!(
            "  [host     ] failed_frac            {:>16}        {} of {} operations failed\n",
            fmt_value(self.tally.failed_frac()),
            self.tally.failed,
            self.tally.attempted
        ));
        for p in &self.tally.problems {
            out.push_str(&format!("  FAILED {p}\n"));
        }
        out.push_str(&self.result_json());
        out.push('\n');
        out
    }

    /// The one-line result object.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .table
            .iter()
            .zip(&self.values)
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(*v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Every digit of `v` (shortest round-trip form); non-finite values,
/// which no metric should produce, render as 0 to keep the object valid.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_campaign::Json;

    /// The tables above and `BENCHMARK.json` at the repository root must
    /// name the same metrics with the same units and directions.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, d) in listed.iter().zip(table) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or("");
                assert_eq!(field("name"), d.name, "{key}");
                assert_eq!(field("unit"), d.unit, "{}", d.name);
                assert_eq!(field("better"), d.better, "{}", d.name);
            }
        }
    }

    #[test]
    fn result_object_is_one_line_with_every_metric() {
        let r = Report {
            workload: "w",
            table: END_TO_END,
            values: vec![0.5, 1.25, 3.0, 1e-7, 2.0, 7.0],
            notes: vec![],
            tally: Tally {
                attempted: 3,
                failed: 1,
                problems: vec!["x".into()],
            },
        };
        let line = r.result_json();
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(3));
        let m = v.get("metrics").expect("metrics");
        for d in END_TO_END {
            assert!(m.get(d.name).is_some(), "{}", d.name);
        }
        assert!(r.render().ends_with(&format!("{line}\n")));
    }
}
