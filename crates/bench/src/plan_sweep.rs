//! Capacity-planner benchmark: recorded-trace replay throughput and the
//! estimator's speedup over exact simulation, plus the regression gate
//! CI runs against the committed baseline (`results/BENCH_plan.json`).
//!
//! The `plan_sweep` binary records one overloaded serving day as a
//! compact trace (the same admission-control shape as `faas_ingest`),
//! then times the two engines `analyze plan` composes:
//!
//! * **replay** — the recorded offered sequence replayed through the
//!   full front door ([`nimblock_plan::estimator::exact_outcome`] on
//!   the baseline scenario), reported as records replayed per second of
//!   wall-clock;
//! * **estimate** — the analytical estimator sweeping `boards=1..32`,
//!   reported as record-scenarios evaluated per second (each scenario
//!   re-walks every record).
//!
//! The headline number is `estimator_speedup`: how many times faster
//! the estimator walks one record than exact simulation does — the
//! ratio that makes wide what-if sweeps affordable (DESIGN.md §18).
//! Before timing anything the harness verifies the planner is
//! deterministic (two full `plan()` passes over the same trace render
//! byte-identically), then writes the numbers as seed-stamped JSON.
//!
//! The gate half ([`gate_compare`]) mirrors `faas_ingest`: a pure
//! function over two decoded [`BenchReport`]s keyed by stage name, so
//! `scripts/bench_gate.sh` never parses JSON in shell.

use std::time::Instant;

use nimblock_faas::{FrontDoor, FrontDoorConfig, FunctionRegistry, TenantPolicy};
use nimblock_obs::record::TraceReader;
use nimblock_plan::estimator::exact_outcome;
use nimblock_plan::{expand_scenarios, plan, render_plan, Calibration, DecodedTrace, Estimator,
    PlanFormat, PlanOptions, Scenario, SweepAxis};
use nimblock_ser::impl_json_struct;
use nimblock_sim::SimDuration;
use nimblock_workload::ArrivalProcess;

/// One timed stage: `replay` (exact simulation) or `estimate` (the
/// analytical model).
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Stage name: `replay` or `estimate`.
    pub stage: String,
    /// Best-of-repeats wall-clock for the stage, seconds.
    pub wall_secs: f64,
    /// Records walked per second of wall-clock (for `estimate`, each
    /// record counts once per swept scenario).
    pub records_per_sec: f64,
}
impl_json_struct!(Measurement {
    stage,
    wall_secs,
    records_per_sec
});

/// The seed-stamped benchmark report (`results/BENCH_plan.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Always `"plan_sweep"`.
    pub experiment: String,
    /// RNG seed of the recorded serving day.
    pub seed: u64,
    /// Invocations recorded in the measured trace.
    pub invocations: u64,
    /// Scenarios the estimate stage sweeps.
    pub scenarios: u64,
    /// Estimator records/sec divided by replay records/sec.
    pub estimator_speedup: f64,
    /// Whether two full `plan()` passes rendered byte-identically.
    pub deterministic: bool,
    /// One row per timed stage.
    pub measurements: Vec<Measurement>,
}
impl_json_struct!(BenchReport {
    experiment,
    seed,
    invocations,
    scenarios,
    estimator_speedup,
    deterministic,
    measurements
});

/// Parameters for one benchmark run.
#[derive(Debug, Clone)]
pub struct PlanBenchConfig {
    /// Invocations recorded in the measured trace.
    pub invocations: u64,
    /// Passes per timed stage; the minimum wall-clock is kept.
    pub repeats: usize,
    /// RNG seed of the recorded serving day.
    pub seed: u64,
}

impl Default for PlanBenchConfig {
    fn default() -> Self {
        PlanBenchConfig { invocations: 200_000, repeats: 3, seed: crate::BASE_SEED }
    }
}

/// The sweep the estimate stage times — the acceptance-criteria sweep.
const ESTIMATE_SWEEP: &str = "boards=1..32";

/// Exact replays per timed repeat. One replay of a shed-heavy trace
/// takes tens of milliseconds — too short to gate at a 15% tolerance —
/// so each timed region replays the trace this many times and reports
/// the aggregate records/sec.
const REPLAY_PASSES: usize = 8;

/// The recorded workload: the same deliberately overloaded stream as
/// `faas_ingest`, so calibration sees admits, sheds, and rejections.
fn door_config(seed: u64, invocations: u64) -> FrontDoorConfig {
    let mut config = FrontDoorConfig::new(seed);
    config.invocations = invocations;
    config.process = ArrivalProcess::parse("bursty:2000").expect("bench process parses");
    config.shed_horizon = SimDuration::from_millis(200);
    config.tenant_policy = TenantPolicy { rate_per_sec: 300.0, burst: 32, quota: 64 };
    config
}

/// Records the measured serving day as a compact trace.
fn recorded_trace(config: &PlanBenchConfig, invocations: u64) -> Vec<u8> {
    let door =
        FrontDoor::new(FunctionRegistry::benchmark_suite(), door_config(config.seed, invocations));
    let (_report, trace) = door.run_recorded(1.0);
    trace
}

/// Renders a full planner pass for the determinism fingerprint.
fn fingerprint(trace: &[u8]) -> String {
    let options = PlanOptions {
        sweeps: vec!["boards=1..4".to_owned()],
        slo_target: 0.95,
        replays: 1,
    };
    let report = plan(trace, &options).expect("bench trace plans");
    render_plan(&report, PlanFormat::Json)
}

/// Runs the full measurement: determinism verification first (two
/// planner passes over a truncated trace must render byte-identically),
/// then the timed replay and estimate stages over the full trace.
///
/// # Panics
///
/// Panics if the planner is non-deterministic, the trace fails to
/// parse, or a replay diverges from the recorded report — correctness
/// bugs must never be recorded as a baseline.
pub fn measure(config: &PlanBenchConfig) -> BenchReport {
    let check_trace = recorded_trace(config, config.invocations.min(20_000));
    assert_eq!(
        fingerprint(&check_trace),
        fingerprint(&check_trace),
        "two planner passes over the same trace diverged"
    );

    let trace = recorded_trace(config, config.invocations);
    let registry = FunctionRegistry::benchmark_suite();
    let reader = TraceReader::parse(&trace).expect("bench trace parses");
    let header = reader.header().clone();
    let decoded = DecodedTrace::decode(&reader).expect("bench records decode");
    let baseline = Scenario::baseline(&header);
    let axis = SweepAxis::parse(ESTIMATE_SWEEP).expect("bench sweep parses");
    let scenarios = expand_scenarios(&baseline, &[axis]).expect("bench sweep expands");

    // Replay stage: exact simulation of the baseline scenario.
    let mut replay_wall = f64::INFINITY;
    for _ in 0..config.repeats.max(1) {
        let start = Instant::now();
        for _ in 0..REPLAY_PASSES {
            let outcome =
                exact_outcome(&header, &registry, &decoded.offered, &baseline)
                    .expect("baseline replays");
            assert_eq!(outcome.offered, config.invocations, "replay must walk every record");
        }
        replay_wall = replay_wall.min(start.elapsed().as_secs_f64());
    }

    // Estimate stage: the analytical model over the full sweep.
    let calibration =
        Calibration::from_trace(&header, &decoded, &registry).expect("bench trace calibrates");
    let estimator = Estimator::new(&header, &registry, &calibration);
    let mut estimate_wall = f64::INFINITY;
    for _ in 0..config.repeats.max(1) {
        let start = Instant::now();
        for scenario in &scenarios {
            let outcome = estimator.predict(scenario, &decoded.offered);
            assert_eq!(outcome.offered, config.invocations, "estimate must walk every record");
        }
        estimate_wall = estimate_wall.min(start.elapsed().as_secs_f64());
    }

    let replay_rps = config.invocations as f64 * REPLAY_PASSES as f64 / replay_wall;
    let estimate_rps = config.invocations as f64 * scenarios.len() as f64 / estimate_wall;
    BenchReport {
        experiment: "plan_sweep".to_owned(),
        seed: config.seed,
        invocations: config.invocations,
        scenarios: scenarios.len() as u64,
        estimator_speedup: estimate_rps / replay_rps,
        deterministic: true,
        measurements: vec![
            Measurement {
                stage: "replay".to_owned(),
                wall_secs: replay_wall,
                records_per_sec: replay_rps,
            },
            Measurement {
                stage: "estimate".to_owned(),
                wall_secs: estimate_wall,
                records_per_sec: estimate_rps,
            },
        ],
    }
}

// ---------------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------------

/// One row of the gate's delta table.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Stage of the compared row.
    pub stage: String,
    /// Baseline records/sec.
    pub baseline_rps: f64,
    /// Freshly measured records/sec (`None` if the stage vanished).
    pub fresh_rps: Option<f64>,
    /// Relative change, percent (+ is faster).
    pub delta_pct: f64,
    /// Whether this row is within tolerance.
    pub pass: bool,
}

/// The gate verdict: per-stage deltas plus the overall pass flag.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// One entry per baseline stage.
    pub rows: Vec<GateRow>,
    /// True iff every row passed and the fresh run was deterministic.
    pub pass: bool,
}

/// Compares a fresh measurement against the committed baseline, keyed
/// by stage name. A row passes when
/// `fresh_rps >= (1 - tolerance) * baseline_rps`; a baseline stage
/// missing from the fresh report fails; a non-deterministic fresh
/// report fails regardless of timing.
pub fn gate_compare(baseline: &BenchReport, fresh: &BenchReport, tolerance: f64) -> GateOutcome {
    let mut rows = Vec::with_capacity(baseline.measurements.len());
    let mut pass = fresh.deterministic;
    for base in &baseline.measurements {
        let matched = fresh.measurements.iter().find(|m| m.stage == base.stage);
        let row = match matched {
            Some(m) => {
                let delta_pct = (m.records_per_sec / base.records_per_sec - 1.0) * 100.0;
                let ok = m.records_per_sec >= (1.0 - tolerance) * base.records_per_sec;
                GateRow {
                    stage: base.stage.clone(),
                    baseline_rps: base.records_per_sec,
                    fresh_rps: Some(m.records_per_sec),
                    delta_pct,
                    pass: ok,
                }
            }
            None => GateRow {
                stage: base.stage.clone(),
                baseline_rps: base.records_per_sec,
                fresh_rps: None,
                delta_pct: -100.0,
                pass: false,
            },
        };
        pass &= row.pass;
        rows.push(row);
    }
    GateOutcome { rows, pass }
}

/// Renders the gate's delta table as fixed-width text.
pub fn render_gate_table(outcome: &GateOutcome, tolerance: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>9} {:>14} {:>14} {:>9}  verdict (tolerance {:.0}%)\n",
        "stage",
        "base rec/s",
        "fresh rec/s",
        "delta",
        tolerance * 100.0
    ));
    for row in &outcome.rows {
        let fresh = row
            .fresh_rps
            .map_or_else(|| "missing".to_owned(), |rps| format!("{rps:.1}"));
        out.push_str(&format!(
            "{:>9} {:>14.1} {:>14} {:>+8.1}%  {}\n",
            row.stage,
            row.baseline_rps,
            fresh,
            row.delta_pct,
            if row.pass { "ok" } else { "REGRESSION" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            experiment: "plan_sweep".to_owned(),
            seed: 1,
            invocations: 1000,
            scenarios: 32,
            estimator_speedup: 10.0,
            deterministic: true,
            measurements: rows
                .iter()
                .map(|&(stage, rps)| Measurement {
                    stage: stage.to_owned(),
                    wall_secs: 1.0,
                    records_per_sec: rps,
                })
                .collect(),
        }
    }

    #[test]
    fn bench_report_roundtrips_through_json() {
        let original = report(&[("replay", 100.0), ("estimate", 1000.0)]);
        let text = nimblock_ser::to_string_pretty(&original);
        let parsed: BenchReport = nimblock_ser::from_str(&text).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn gate_passes_within_tolerance_and_on_improvement() {
        let baseline = report(&[("replay", 100.0), ("estimate", 100.0)]);
        let fresh = report(&[("replay", 90.0), ("estimate", 250.0)]);
        let outcome = gate_compare(&baseline, &fresh, 0.15);
        assert!(outcome.pass, "{outcome:?}");
        assert!(outcome.rows[1].delta_pct > 100.0);
    }

    #[test]
    fn gate_fails_on_regression_missing_stage_or_nondeterminism() {
        let baseline = report(&[("replay", 100.0), ("estimate", 100.0)]);
        let outcome = gate_compare(&baseline, &report(&[("replay", 80.0), ("estimate", 100.0)]), 0.15);
        assert!(!outcome.pass);
        assert!(!outcome.rows[0].pass);

        let outcome = gate_compare(&baseline, &report(&[("replay", 100.0)]), 0.15);
        assert!(!outcome.pass);
        assert_eq!(outcome.rows[1].fresh_rps, None);

        let mut fresh = report(&[("replay", 100.0), ("estimate", 100.0)]);
        fresh.deterministic = false;
        assert!(!gate_compare(&baseline, &fresh, 0.15).pass);
    }

    #[test]
    fn render_gate_table_marks_regressions() {
        let baseline = report(&[("replay", 100.0)]);
        let fresh = report(&[("replay", 50.0)]);
        let outcome = gate_compare(&baseline, &fresh, 0.15);
        let table = render_gate_table(&outcome, 0.15);
        assert!(table.contains("REGRESSION"), "{table}");
        assert!(table.contains("tolerance 15%"), "{table}");
    }

    #[test]
    fn measure_times_both_stages_and_stays_deterministic() {
        let config = PlanBenchConfig { invocations: 2_000, repeats: 1, seed: crate::BASE_SEED };
        let report = measure(&config);
        assert!(report.deterministic);
        assert_eq!(report.measurements.len(), 2);
        assert_eq!(report.invocations, 2_000);
        assert_eq!(report.scenarios, 32);
        assert!(report.estimator_speedup > 1.0, "the estimator must beat exact simulation");
        assert!(report.measurements.iter().all(|m| m.records_per_sec > 0.0));
    }
}
