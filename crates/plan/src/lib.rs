//! # nimblock-plan — trace-driven capacity planning
//!
//! Answers "what do I buy for Black Friday" from one recorded day of
//! traffic (ROADMAP item 5, DESIGN.md §18). The input is a compact
//! serving trace recorded by the front door
//! (`nimblock_obs::record`, written by `faas --record-out`); the output
//! is a what-if sweep over counterfactual fleets — ±boards, ±slots,
//! different CAP (reconfiguration) latency, different routing policy —
//! with per-class predicted SLO attainment, shed, and board-seconds cost
//! per scenario.
//!
//! Two engines, the same split as the berkeley-emulation-engine layout
//! (slow exact simulator vs fast planning estimator), one level up from
//! the `nimblock-ilp` exact/heuristic split:
//!
//! - **Exact replay** — the recorded offered sequence re-served through
//!   the real front door ([`nimblock_faas::FrontDoor::replay`]). On the
//!   unmodified configuration this reproduces the recorded run's report
//!   *byte-for-byte* (checked against the report embedded in the trace
//!   footer); on a counterfactual configuration it is ground truth, but
//!   pays the full dispatcher + digest cost.
//! - **Analytical estimator** ([`estimator`]) — a single-pass fluid
//!   approximation: the fleet collapses to one earliest-free-slot pool,
//!   bitstream warmth becomes a calibrated per-function probability
//!   (error-diffused, so runs are deterministic), and the real admission
//!   and shed guards run unchanged against the approximated queue wait.
//!   Calibration (warm rate, queue-wait scale) comes from the recorded
//!   attribution components, so the estimator is anchored to the
//!   recorded day, not to a priori service-time models.
//!
//! Every [`PlanReport`] carries its own measured error bound: a sampled
//! subset of scenarios is replayed exactly and the worst estimator
//! attainment error (percentage points) across those samples is
//! reported next to every prediction.
//!
//! The trace is decoded once into the front door's offered form; the
//! replays and predictions then run as independent jobs, one worker per
//! CPU, merged by index, so the report is the same for every thread
//! count (DESIGN.md §18.5).
//!
//! # Example
//!
//! ```
//! use nimblock_faas::{FrontDoor, FrontDoorConfig, FunctionRegistry};
//! use nimblock_plan::{plan, PlanOptions};
//!
//! let mut config = FrontDoorConfig::new(7);
//! config.invocations = 2_000;
//! let door = FrontDoor::new(FunctionRegistry::benchmark_suite(), config);
//! let (_report, trace) = door.run_recorded(1.0);
//! let mut options = PlanOptions::default();
//! options.sweeps = vec!["boards=2..6".to_owned()];
//! let report = plan(&trace, &options).unwrap();
//! assert_eq!(report.scenarios.len(), 5);
//! assert_eq!(report.replay_check, "byte-identical");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimator;
pub mod report;
pub mod sweep;

use nimblock_cluster::pool;
use nimblock_faas::{verify_trace_functions, FrontDoorConfig, FrontDoorReport, FunctionRegistry};
use nimblock_obs::record::{TraceReader, KIND_ENGINE, KIND_SERVING};

pub use estimator::{Calibration, DecodedTrace, Estimator};
pub use report::{render_plan, Outcome, PlanFormat, PlanReport, ScenarioRow};
pub use sweep::{expand_scenarios, Scenario, SweepAxis};

use estimator::{exact_report, outcome_from_report};

/// Planner knobs, all optional.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Sweep axis specs (`boards=1..32`, `slots=2..4`,
    /// `reconfig-ms=40,80,160`, `policy=cache-aware,round-robin`),
    /// combined as a cross product. Empty = `boards=1..8`.
    pub sweeps: Vec<String>,
    /// Offered-attainment target the recommendation must meet.
    pub slo_target: f64,
    /// Maximum scenarios validated by exact replay (the baseline
    /// byte-identity check runs regardless).
    pub replays: usize,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { sweeps: Vec::new(), slo_target: 0.95, replays: 5 }
    }
}

/// Evenly spread `count` sample indices over `0..n`, endpoints first.
fn replay_indices(n: usize, count: usize) -> Vec<usize> {
    if n == 0 || count == 0 {
        return Vec::new();
    }
    if n <= count {
        return (0..n).collect();
    }
    let mut picks = Vec::with_capacity(count);
    for i in 0..count {
        // i/(count-1) of the way through the sweep, rounded to a slot.
        let index = if count == 1 { 0 } else { i * (n - 1) / (count - 1) };
        if !picks.contains(&index) {
            picks.push(index);
        }
    }
    picks
}

/// One unit of the planner's parallel work.
enum Job {
    /// Replay the recorded day exactly on a scenario's fleet.
    Replay(Scenario),
    /// Predict a scenario with the analytical estimator.
    Predict(Scenario),
}

/// A finished [`Job`].
enum Done {
    Replay(FrontDoorReport),
    Predict(Outcome),
}

/// Runs the capacity planner over the raw bytes of a recorded serving
/// trace: calibrates the estimator, sweeps the requested scenarios,
/// validates a sampled subset by exact replay, and checks that replaying
/// the *unmodified* configuration reproduces the recorded report
/// byte-for-byte.
pub fn plan(trace: &[u8], options: &PlanOptions) -> Result<PlanReport, String> {
    let reader = TraceReader::parse(trace)?;
    let header = reader.header();
    match header.kind {
        KIND_SERVING => {}
        KIND_ENGINE => {
            return Err(
                "this is an engine stimulus trace; capacity planning needs a serving trace \
                 (record one with `faas --record-out`)"
                    .to_owned(),
            )
        }
        other => return Err(format!("unknown trace kind {other}")),
    }
    if !(options.slo_target.is_finite() && (0.0..=1.0).contains(&options.slo_target)) {
        return Err(format!("--slo must be a fraction in 0..=1, got {}", options.slo_target));
    }
    let registry = FunctionRegistry::benchmark_suite();
    verify_trace_functions(&registry, header)?;
    let baseline_config = FrontDoorConfig::from_trace_header(header)?;
    let baseline = Scenario::baseline(header);
    let sweeps = if options.sweeps.is_empty() {
        vec!["boards=1..8".to_owned()]
    } else {
        options.sweeps.clone()
    };
    let axes = sweeps
        .iter()
        .map(|spec| SweepAxis::parse(spec))
        .collect::<Result<Vec<_>, _>>()?;
    let scenarios = expand_scenarios(&baseline, &axes)?;

    // Decode once, validating every record; every prediction and replay
    // below walks this slice.
    let decoded = DecodedTrace::decode(&reader)?;
    let calibration = Calibration::from_trace(header, &decoded, &registry)?;
    let estimator = Estimator::new(header, &registry, &calibration);

    // The distinct scenarios replayed exactly: the unmodified baseline,
    // whose report is checked byte-for-byte against the one embedded at
    // record time, and the sampled scenarios that give ground truth and
    // the measured error bound. A sampled scenario equal to the baseline
    // reuses the baseline's replay.
    let picks = replay_indices(scenarios.len(), options.replays);
    let embedded = reader.report_json();
    let mut replayed: Vec<Scenario> = Vec::with_capacity(picks.len() + 1);
    if embedded.is_some() {
        replayed.push(baseline);
    }
    for &index in &picks {
        if !replayed.contains(&scenarios[index]) {
            replayed.push(scenarios[index]);
        }
    }

    // Every replay and prediction is independent: run them one worker
    // per CPU and merge by job index, so the report is the same for
    // every thread count.
    let jobs: Vec<_> = replayed
        .iter()
        .map(|&scenario| Job::Replay(scenario))
        .chain(scenarios.iter().map(|&scenario| Job::Predict(scenario)))
        .map(|job| {
            let (registry, estimator, offered) = (&registry, &estimator, &decoded.offered);
            move || match job {
                Job::Replay(scenario) => Done::Replay(exact_report(
                    &baseline_config,
                    header.load_factor,
                    registry,
                    offered,
                    &scenario,
                )),
                Job::Predict(scenario) => Done::Predict(estimator.predict(&scenario, offered)),
            }
        })
        .collect();
    // `reports[k]` is `replayed[k]`'s; `predictions[i]` is `scenarios[i]`'s.
    let mut reports = Vec::with_capacity(replayed.len());
    let mut predictions = Vec::with_capacity(scenarios.len());
    for done in pool::run_indexed(pool::resolve_threads(0), jobs) {
        match done {
            Done::Replay(report) => reports.push(report),
            Done::Predict(outcome) => predictions.push(outcome),
        }
    }

    // With an embedded report, the baseline was replayed first.
    let replay_check = match embedded {
        None => "report-missing".to_owned(),
        Some(embedded) if nimblock_ser::to_string_pretty(&reports[0]) == embedded => {
            "byte-identical".to_owned()
        }
        Some(_) => "MISMATCH".to_owned(),
    };

    let mut rows: Vec<ScenarioRow> = scenarios
        .iter()
        .zip(predictions)
        .map(|(scenario, predicted)| ScenarioRow {
            boards: scenario.boards,
            slots: scenario.slots,
            policy: scenario.policy.name().to_owned(),
            reconfig_ms: scenario.reconfig.as_micros() as f64 / 1_000.0,
            predicted,
            exact: None,
            error_pp: None,
        })
        .collect();

    let mut error_bound_pp = 0.0f64;
    for &index in &picks {
        let scenario = &scenarios[index];
        let replay = replayed
            .iter()
            .position(|replayed| replayed == scenario)
            .expect("every sampled scenario is replayed");
        let exact = outcome_from_report(&reports[replay], scenario.boards);
        let row = &mut rows[index];
        let mut worst = (row.predicted.offered_attainment - exact.offered_attainment).abs();
        for (predicted, exact_class) in row
            .predicted
            .class_attainment
            .iter()
            .zip(&exact.class_attainment)
        {
            worst = worst.max((predicted - exact_class).abs());
        }
        // Round *up* to two decimals: the published bound must never
        // understate the raw error it was measured from.
        let error_pp = (worst * 100.0 * 100.0).ceil() / 100.0;
        error_bound_pp = error_bound_pp.max(error_pp);
        row.exact = Some(exact);
        row.error_pp = Some(error_pp);
    }

    // Cheapest scenario whose *prediction* meets the target.
    let recommendation = rows
        .iter()
        .filter(|row| row.predicted.offered_attainment >= options.slo_target)
        .min_by(|a, b| {
            (a.predicted.board_seconds, a.boards, a.slots)
                .partial_cmp(&(b.predicted.board_seconds, b.boards, b.slots))
                .expect("board-seconds are finite")
        })
        .map(|row| {
            format!(
                "{} board(s) x {} slot(s), {} routing, {:.1} ms reconfig ({:.1} board-s)",
                row.boards,
                row.slots,
                row.policy,
                row.reconfig_ms,
                row.predicted.board_seconds,
            )
        });

    Ok(PlanReport {
        seed: header.seed,
        records: reader.summary().records,
        process: header.process.clone(),
        load_factor: header.load_factor,
        functions: header.functions.len() as u64,
        tenants: header.tenants,
        baseline_boards: baseline.boards,
        baseline_slots: baseline.slots,
        baseline_policy: baseline.policy.name().to_owned(),
        baseline_reconfig_ms: baseline.reconfig.as_micros() as f64 / 1_000.0,
        slo_target: options.slo_target,
        warm_rate: calibration.warm_rate,
        queue_scale: calibration.queue_scale,
        replay_check,
        sampled_replays: picks.len() as u64,
        error_bound_pp,
        recommendation,
        scenarios: rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimblock_cluster::DispatchPolicy;
    use nimblock_faas::{FrontDoor, TenantPolicy};
    use nimblock_obs::record::{put_varint, TraceRecord, TraceWriter};
    use nimblock_sim::SimDuration;
    use nimblock_workload::ArrivalProcess;

    fn recorded_trace(seed: u64, invocations: u64) -> Vec<u8> {
        let mut config = FrontDoorConfig::new(seed);
        config.invocations = invocations;
        config.process = ArrivalProcess::parse("bursty:2000").expect("parses");
        config.shed_horizon = SimDuration::from_millis(200);
        config.tenant_policy = TenantPolicy { rate_per_sec: 300.0, burst: 32, quota: 64 };
        let door = FrontDoor::new(FunctionRegistry::benchmark_suite(), config);
        door.run_recorded(1.0).1
    }

    #[test]
    fn plan_sweeps_and_validates_the_baseline() {
        let trace = recorded_trace(11, 3_000);
        let mut options = PlanOptions::default();
        options.sweeps = vec!["boards=2..6".to_owned()];
        let report = plan(&trace, &options).expect("plans");
        assert_eq!(report.scenarios.len(), 5);
        assert_eq!(report.replay_check, "byte-identical");
        assert_eq!(report.sampled_replays, 5, "5 scenarios, 5 replay slots: all sampled");
        for row in &report.scenarios {
            let exact = row.exact.as_ref().expect("all sampled");
            assert_eq!(exact.offered, row.predicted.offered, "same traffic");
            let error = row.error_pp.expect("sampled rows carry an error");
            assert!(
                error <= report.error_bound_pp + 1e-9,
                "row error {error} exceeds the bound {}",
                report.error_bound_pp
            );
        }
        // The acceptance property: every estimator prediction sits within
        // the report's own measured error bound of its exact replay.
        let bound = report.error_bound_pp / 100.0 + 1e-12;
        for row in &report.scenarios {
            if let Some(exact) = &row.exact {
                assert!(
                    (row.predicted.offered_attainment - exact.offered_attainment).abs() <= bound
                );
            }
        }
    }

    #[test]
    fn more_boards_predict_no_worse_attainment() {
        let trace = recorded_trace(13, 3_000);
        let mut options = PlanOptions::default();
        options.sweeps = vec!["boards=1..12".to_owned()];
        options.replays = 3;
        let report = plan(&trace, &options).expect("plans");
        assert_eq!(report.scenarios.len(), 12);
        assert_eq!(report.sampled_replays, 3);
        let first = &report.scenarios[0].predicted;
        let last = &report.scenarios[11].predicted;
        assert!(
            last.offered_attainment >= first.offered_attainment,
            "12 boards ({}) must not predict worse than 1 ({})",
            last.offered_attainment,
            first.offered_attainment
        );
        assert!(last.board_seconds > first.board_seconds, "capacity costs board-seconds");
    }

    #[test]
    fn engine_traces_are_rejected_with_guidance() {
        let mut header = nimblock_obs::record::TraceHeader::serving(1);
        header.kind = nimblock_obs::record::KIND_ENGINE;
        let bytes = nimblock_obs::TraceWriter::new(&header).finish(None);
        let error = plan(&bytes, &PlanOptions::default()).expect_err("engine traces don't plan");
        assert!(error.contains("serving trace"), "{error}");
    }

    #[test]
    fn garbage_bytes_are_rejected() {
        assert!(plan(b"not a trace", &PlanOptions::default()).is_err());
    }

    #[test]
    fn replay_indices_cover_endpoints() {
        assert_eq!(replay_indices(32, 5), vec![0, 7, 15, 23, 31]);
        assert_eq!(replay_indices(3, 5), vec![0, 1, 2]);
        assert_eq!(replay_indices(10, 1), vec![0]);
        assert!(replay_indices(0, 5).is_empty());
        assert_eq!(replay_indices(2, 2), vec![0, 1]);
    }

    /// The sampled rows' exact outcomes, each re-derived by its own
    /// replay, next to what the planner reported.
    fn exact_rows(trace: &[u8], report: &PlanReport) -> Vec<(Outcome, Outcome)> {
        let reader = TraceReader::parse(trace).expect("parses");
        let decoded = DecodedTrace::decode(&reader).expect("decodes");
        let registry = FunctionRegistry::benchmark_suite();
        report
            .scenarios
            .iter()
            .filter_map(|row| {
                let scenario = Scenario {
                    boards: row.boards,
                    slots: row.slots,
                    reconfig: SimDuration::from_micros((row.reconfig_ms * 1_000.0) as u64),
                    policy: DispatchPolicy::parse(&row.policy).expect("policy parses"),
                };
                let exact = estimator::exact_outcome(
                    reader.header(),
                    &registry,
                    &decoded.offered,
                    &scenario,
                )
                .expect("replays");
                row.exact.clone().map(|reported| (reported, exact))
            })
            .collect()
    }

    #[test]
    fn a_sampled_baseline_reuses_the_baseline_replay() {
        let trace = recorded_trace(19, 2_000);
        let options =
            PlanOptions { sweeps: vec!["boards=1..8".to_owned()], ..PlanOptions::default() };
        let report = plan(&trace, &options).expect("plans");
        assert_eq!(report.replay_check, "byte-identical");
        // boards=1..8 samples indices 0, 1, 3, 5, 7: index 3 is the
        // recorded 4-board fleet, whose exact row is the baseline replay.
        let baseline = &report.scenarios[3];
        assert_eq!(baseline.boards, report.baseline_boards);
        assert!(baseline.exact.is_some(), "the sampled baseline has an exact outcome");
        let rows = exact_rows(&trace, &report);
        assert_eq!(rows.len(), 5);
        for (reported, exact) in rows {
            assert_eq!(reported, exact);
        }
    }

    #[test]
    fn a_sweep_without_the_baseline_still_checks_it() {
        let trace = recorded_trace(23, 2_000);
        let options =
            PlanOptions { sweeps: vec!["boards=5..8".to_owned()], ..PlanOptions::default() };
        let report = plan(&trace, &options).expect("plans");
        assert_eq!(report.baseline_boards, 4);
        assert!(report.scenarios.iter().all(|row| row.boards != report.baseline_boards));
        assert_eq!(report.replay_check, "byte-identical");
        assert_eq!(report.sampled_replays, 4);
        let rows = exact_rows(&trace, &report);
        assert_eq!(rows.len(), 4, "every sampled row has an exact outcome");
        for (reported, exact) in rows {
            assert_eq!(reported, exact);
        }
    }

    /// A well-formed trace of the benchmark door (4 tenants, 6 functions,
    /// up to 4 batch items) holding one valid record and then `record`.
    fn trace_with(record: TraceRecord) -> Vec<u8> {
        let door = FrontDoor::new(FunctionRegistry::benchmark_suite(), FrontDoorConfig::new(3));
        let mut writer = TraceWriter::new(&door.trace_header(1.0));
        writer.push(&TraceRecord { arrival_micros: 10, items: 1, ..TraceRecord::default() });
        writer.push(&TraceRecord { arrival_micros: 20, ..record });
        writer.finish(None)
    }

    #[test]
    fn records_outside_the_header_tables_are_errors_not_panics() {
        let cases = [
            (
                TraceRecord { tenant: 4, items: 1, ..TraceRecord::default() },
                "record 1 references tenant 4 outside the 4-tenant table",
            ),
            (
                TraceRecord { items: 0, ..TraceRecord::default() },
                "record 1 has 0 batch item(s), outside 1..=4",
            ),
            (
                TraceRecord { items: 5, ..TraceRecord::default() },
                "record 1 has 5 batch item(s), outside 1..=4",
            ),
            (
                TraceRecord { function: 6, items: 1, ..TraceRecord::default() },
                "record references function 6 outside the 6-entry table",
            ),
        ];
        for (record, message) in cases {
            let error = plan(&trace_with(record), &PlanOptions::default())
                .expect_err("the record is outside the header's tables");
            assert_eq!(error, message);
        }
        let valid = TraceRecord { tenant: 3, items: 4, function: 5, ..TraceRecord::default() };
        assert!(plan(&trace_with(valid), &PlanOptions::default()).is_ok());

        // Wider than any `u32` field: decoding must refuse, not wrap the
        // value round into a valid tenant or function.
        let cases = [
            (TraceRecord { tenant: u32::MAX, items: 1, ..TraceRecord::default() }, (1 << 32) + 1),
            (TraceRecord { function: u32::MAX, items: 1, ..TraceRecord::default() }, 1 << 32),
        ];
        for (record, wide) in cases {
            let error = plan(&widened(trace_with(record), wide), &PlanOptions::default())
                .expect_err("the field overflows u32");
            assert!(
                error.starts_with("trace records: record ")
                    && error.contains(&format!(" {wide} overflows u32 at byte ")),
                "{error}"
            );
        }
    }

    /// `trace` with its one `u32::MAX` varint widened to `wide` (which
    /// must also encode in five bytes, so no offset moves) and the FNV-1a
    /// trailer checksum resealed: bytes no `TraceWriter` emits, as a
    /// corrupt or hand-made trace may carry them.
    fn widened(mut trace: Vec<u8>, wide: u64) -> Vec<u8> {
        let (mut sentinel, mut patch) = (Vec::new(), Vec::new());
        put_varint(&mut sentinel, u64::from(u32::MAX));
        put_varint(&mut patch, wide);
        assert_eq!(patch.len(), sentinel.len());
        let hits: Vec<_> = (0..=trace.len() - sentinel.len())
            .filter(|&at| trace[at..].starts_with(&sentinel))
            .collect();
        assert_eq!(hits.len(), 1, "the sentinel must be unambiguous");
        trace[hits[0]..hits[0] + patch.len()].copy_from_slice(&patch);
        let body = trace.len() - 8;
        let checksum = trace[..body].iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        trace[body..].copy_from_slice(&checksum.to_le_bytes());
        trace
    }

    #[test]
    fn reports_round_trip_json() {
        let trace = recorded_trace(17, 1_000);
        let mut options = PlanOptions::default();
        options.sweeps = vec!["boards=3..5".to_owned(), "reconfig-ms=40,80".to_owned()];
        let report = plan(&trace, &options).expect("plans");
        assert_eq!(report.scenarios.len(), 6);
        let json = nimblock_ser::to_string_pretty(&report);
        let back: PlanReport = nimblock_ser::from_str(&json).expect("round-trips");
        assert_eq!(back, report);
    }
}
