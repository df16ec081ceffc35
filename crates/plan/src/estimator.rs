//! The analytical capacity estimator and its exact-replay ground truth.
//!
//! The estimator is a single-pass fluid approximation of the front-door
//! pipeline (DESIGN.md §18). Three simplifications buy the speed:
//!
//! 1. **Pooled fleet** — the per-board earliest-free-slot servers
//!    collapse into one pool of `boards × slots` slot-free times (a
//!    binary heap), erasing the dispatcher's per-board routing state.
//! 2. **Calibrated warmth** — the bitstream cache becomes a per-function
//!    warm *probability*, realized by deterministic error diffusion so
//!    the same trace always predicts the same outcome. The probability
//!    is the recorded warm rate, rescaled by a structural cache-coverage
//!    model when the counterfactual fleet or policy changes.
//! 3. **Scaled queue wait** — the pooled queue wait is multiplied by a
//!    scale factor calibrated so the baseline scenario's mean matches
//!    the recorded mean queue wait.
//!
//! Everything else is the real thing: the same [`TenantRegistry`]
//! admission control, the same class-weighted backlog and deadline shed
//! guards, the same per-class deadline model. [`exact_outcome`] replays
//! the recorded offered sequence through the full front door instead and
//! is what the planner samples to measure the estimator's error bound.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use nimblock_app::AppSpec;
use nimblock_cluster::{DispatchPolicy, BITSTREAM_CACHE_SLOTS};
use nimblock_faas::{
    AdmissionVerdict, FrontDoor, FrontDoorConfig, FrontDoorReport, FunctionRegistry,
    OfferedInvocation, SloClass, TenantPolicy, TenantRegistry,
};
use nimblock_obs::record::{TraceHeader, TraceReader};
use nimblock_sim::{SimDuration, SimTime};

use crate::report::Outcome;
use crate::sweep::Scenario;

/// A recorded serving day decoded once, in one pass, into the front
/// door's own offered form — 32 bytes an invocation, the sequence every
/// prediction and exact replay walks — with the attribution totals that
/// [`Calibration`] reads folded in along the way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecodedTrace {
    /// The offered sequence, in record order.
    pub offered: Vec<OfferedInvocation>,
    /// Records that reached the router (admitted or shed).
    pub routed: u64,
    /// Routed records the router found warm.
    pub warm: u64,
    /// Summed recorded queue wait of the routed records, microseconds.
    pub queue_wait_micros: u64,
}

impl DecodedTrace {
    /// Decodes and validates every record of `reader`'s trace. A record
    /// naming a function or tenant outside the header's tables, or batch
    /// items outside `1..=max_items`, is an error naming the record: the
    /// front door could not have offered it, and replaying it would
    /// index past the tenant table or build an empty application.
    pub fn decode(reader: &TraceReader<'_>) -> Result<DecodedTrace, String> {
        let header = reader.header();
        let mut decoded = DecodedTrace {
            offered: Vec::with_capacity(reader.record_capacity()),
            ..DecodedTrace::default()
        };
        for (index, record) in reader.records().enumerate() {
            let record = record.map_err(|e| format!("trace records: {e}"))?;
            if record.function as usize >= header.functions.len() {
                return Err(format!(
                    "record references function {} outside the {}-entry table",
                    record.function,
                    header.functions.len()
                ));
            }
            if u64::from(record.tenant) >= header.tenants {
                return Err(format!(
                    "record {index} references tenant {} outside the {}-tenant table",
                    record.tenant, header.tenants
                ));
            }
            if record.items == 0 || u64::from(record.items) > header.max_items {
                return Err(format!(
                    "record {index} has {} batch item(s), outside 1..={}",
                    record.items, header.max_items
                ));
            }
            if record.verdict.routed() {
                decoded.routed += 1;
                decoded.warm += u64::from(record.warm);
                decoded.queue_wait_micros =
                    decoded.queue_wait_micros.saturating_add(record.queue_wait_micros);
            }
            decoded.offered.push(OfferedInvocation {
                at: SimTime::from_micros(record.arrival_micros),
                function: record.function as usize,
                items: record.items,
                tenant: record.tenant as usize,
            });
        }
        Ok(decoded)
    }
}

/// The fraction of functions a fleet's bitstream caches can keep warm,
/// as a structural model: cache-aware routing concentrates each function
/// on the boards that already hold it, so coverage scales with the fleet
/// (`min(1, cache_slots × boards / functions)`); oblivious policies
/// spread every function over every board, so only the per-board cache
/// helps (`min(1, cache_slots / functions)`).
fn structural_warm(policy: DispatchPolicy, boards: u64, functions: usize) -> f64 {
    let cache = BITSTREAM_CACHE_SLOTS as f64;
    let functions = functions.max(1) as f64;
    match policy {
        DispatchPolicy::CacheAware => (cache * boards as f64 / functions).min(1.0),
        _ => (cache / functions).min(1.0),
    }
}

/// Estimator calibration extracted from a recorded trace's attribution
/// components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Warm-hit rate over the recorded routed (admitted + shed)
    /// invocations — anchors the warmth model to the recorded day.
    pub warm_rate: f64,
    /// Recorded mean queue wait divided by the pooled model's raw mean
    /// on the baseline scenario, clamped to `[0.25, 4]` — corrects the
    /// pooled fleet's optimistic queueing.
    pub queue_scale: f64,
}

impl Calibration {
    /// Calibrates against a trace recorded under `header`, decoded into
    /// `decoded`.
    pub fn from_trace(
        header: &TraceHeader,
        decoded: &DecodedTrace,
        registry: &FunctionRegistry,
    ) -> Result<Calibration, String> {
        let DecodedTrace { offered, routed, warm, queue_wait_micros } = decoded;
        let baseline = Scenario::baseline(header);
        let warm_rate = if *routed == 0 {
            structural_warm(baseline.policy, baseline.boards, header.functions.len())
        } else {
            *warm as f64 / *routed as f64
        };
        let unit = Calibration { warm_rate, queue_scale: 1.0 };
        let probe = Estimator::new(header, registry, &unit);
        let (_, raw_mean) = probe.simulate(&baseline, offered);
        let recorded_mean =
            if *routed == 0 { 0.0 } else { *queue_wait_micros as f64 / *routed as f64 };
        let queue_scale = if raw_mean > 0.0 && recorded_mean > 0.0 {
            (recorded_mean / raw_mean).clamp(0.25, 4.0)
        } else {
            1.0
        };
        Ok(Calibration { warm_rate, queue_scale })
    }
}

/// Per-function state the estimator prices invocations with.
struct FunctionProfile {
    app: Arc<AppSpec>,
    class: usize,
    weight: u64,
    deadline_factor: f64,
}

/// The single-pass analytical estimator. Construct once per trace; each
/// [`Estimator::predict`] call prices one counterfactual scenario.
pub struct Estimator {
    functions: Vec<FunctionProfile>,
    tenants: usize,
    tenant_policy: TenantPolicy,
    shed_horizon: SimDuration,
    max_items: u32,
    warm_rate: f64,
    queue_scale: f64,
    baseline_structural: f64,
}

impl Estimator {
    /// Builds an estimator for the fleet and function table described by
    /// `header`, priced with `registry`'s applications and calibrated by
    /// `calibration`.
    ///
    /// # Panics
    ///
    /// Panics if a header function is not deployed in `registry` — run
    /// [`nimblock_faas::verify_trace_functions`] first.
    pub fn new(
        header: &TraceHeader,
        registry: &FunctionRegistry,
        calibration: &Calibration,
    ) -> Estimator {
        let baseline = Scenario::baseline(header);
        let functions = header
            .functions
            .iter()
            .map(|function| {
                let app = registry
                    .app(&function.name)
                    .expect("verify_trace_functions checked the table");
                let slo = registry.slo(&function.name).expect("app() implies deployment");
                FunctionProfile {
                    app,
                    class: class_index(slo),
                    weight: u64::from(slo.priority().weight()),
                    deadline_factor: slo.deadline_factor(),
                }
            })
            .collect();
        Estimator {
            functions,
            tenants: header.tenants as usize,
            tenant_policy: TenantPolicy {
                rate_per_sec: header.tenant_rate_per_sec,
                burst: header.tenant_burst,
                quota: header.tenant_quota,
            },
            shed_horizon: SimDuration::from_micros(header.shed_horizon_micros),
            max_items: header.max_items.max(1) as u32,
            warm_rate: calibration.warm_rate,
            queue_scale: calibration.queue_scale,
            baseline_structural: structural_warm(
                baseline.policy,
                baseline.boards,
                header.functions.len(),
            ),
        }
    }

    /// Predicts the outcome of serving the `offered` sequence on
    /// `scenario`'s fleet.
    pub fn predict(&self, scenario: &Scenario, offered: &[OfferedInvocation]) -> Outcome {
        self.simulate(scenario, offered).0
    }

    /// The pass behind [`Estimator::predict`]; also returns the *raw*
    /// (unscaled) mean pooled queue wait in micros, which is what
    /// [`Calibration::from_trace`] anchors `queue_scale` against.
    fn simulate(&self, scenario: &Scenario, offered_seq: &[OfferedInvocation]) -> (Outcome, f64) {
        let classes = SloClass::ALL.len();
        // Per-function latency tables for this scenario's CAP latency:
        // warm work (no reconfiguration) and cold work, per batch size.
        let items_range = self.max_items as usize;
        let mut warm_work = vec![0u64; self.functions.len() * items_range];
        let mut cold_work = vec![0u64; self.functions.len() * items_range];
        for (f, profile) in self.functions.iter().enumerate() {
            for i in 0..items_range {
                let items = (i + 1) as u32;
                warm_work[f * items_range + i] =
                    profile.app.single_slot_latency(items, SimDuration::ZERO).as_micros();
                cold_work[f * items_range + i] =
                    profile.app.single_slot_latency(items, scenario.reconfig).as_micros();
            }
        }
        let p_warm = if self.baseline_structural > 0.0 {
            (self.warm_rate * structural_warm(scenario.policy, scenario.boards, self.functions.len())
                / self.baseline_structural)
                .clamp(0.0, 1.0)
        } else {
            self.warm_rate.clamp(0.0, 1.0)
        };
        let mut warm_credit = vec![0.0f64; self.functions.len()];

        let slots = (scenario.boards * scenario.slots) as usize;
        let mut slot_free: BinaryHeap<Reverse<u64>> = (0..slots).map(|_| Reverse(0u64)).collect();
        let mut tenants = TenantRegistry::new(self.tenants, self.tenant_policy);
        let horizon_base = self.shed_horizon;

        let mut offered = 0u64;
        let mut rejected = 0u64;
        let mut shed = 0u64;
        let mut admitted = 0u64;
        let mut within = 0u64;
        let mut class_admitted = vec![0u64; classes];
        let mut class_within = vec![0u64; classes];
        let mut virtual_end = 0u64;
        let mut routed = 0u64;
        let mut raw_wait_sum = 0u64;

        for invocation in offered_seq {
            let now = invocation.at.as_micros();
            virtual_end = virtual_end.max(now);
            offered += 1;
            match tenants.judge(invocation.tenant, invocation.at) {
                AdmissionVerdict::RejectRate | AdmissionVerdict::RejectQuota => {
                    rejected += 1;
                    continue;
                }
                AdmissionVerdict::Admit => {}
            }
            let profile = &self.functions[invocation.function];
            let item_slot = (invocation.items.clamp(1, self.max_items) - 1) as usize;
            let index = invocation.function * items_range + item_slot;
            warm_credit[invocation.function] += p_warm;
            let warm = warm_credit[invocation.function] >= 1.0;
            if warm {
                warm_credit[invocation.function] -= 1.0;
            }
            let work = if warm { warm_work[index] } else { cold_work[index] };
            let cold = cold_work[index];
            let Reverse(free) = *slot_free.peek().expect("fleets have at least one slot");
            let raw_wait = free.saturating_sub(now);
            routed += 1;
            raw_wait_sum += raw_wait;
            let queue_wait = (raw_wait as f64 * self.queue_scale) as u64;
            let deadline = SimDuration::from_secs_f64(
                profile.deadline_factor * SimDuration::from_micros(cold).as_secs_f64(),
            )
            .as_micros();
            let horizon = horizon_base.saturating_mul(profile.weight).as_micros();
            if queue_wait > horizon || queue_wait + work > deadline {
                shed += 1;
                continue;
            }
            tenants.record_admission(
                invocation.tenant,
                SimTime::from_micros(now + queue_wait + work),
            );
            let Reverse(free) = slot_free.pop().expect("fleets have at least one slot");
            let start = free.max(now);
            let finish = start + work;
            slot_free.push(Reverse(finish));
            virtual_end = virtual_end.max(finish);
            admitted += 1;
            class_admitted[profile.class] += 1;
            if finish - now <= deadline {
                within += 1;
                class_within[profile.class] += 1;
            }
        }

        let virtual_secs = virtual_end as f64 / 1_000_000.0;
        let outcome = Outcome {
            offered,
            admitted,
            shed,
            rejected,
            attainment: ratio(within, admitted),
            offered_attainment: ratio(within, offered),
            class_attainment: (0..classes)
                .map(|c| ratio(class_within[c], class_admitted[c]))
                .collect(),
            goodput_per_sec: if virtual_secs > 0.0 { within as f64 / virtual_secs } else { 0.0 },
            board_seconds: scenario.boards as f64 * virtual_secs,
        };
        let raw_mean = if routed == 0 { 0.0 } else { raw_wait_sum as f64 / routed as f64 };
        (outcome, raw_mean)
    }
}

/// The full front-door report of replaying the `offered` sequence,
/// recorded under `recorded` at `load_factor`, on `scenario`'s fleet,
/// policy, and reconfiguration latency. The door serves on one thread:
/// planner replays run inside the planner's own worker pool, so pools
/// never nest (the report is byte-identical for every thread count).
pub(crate) fn exact_report(
    recorded: &FrontDoorConfig,
    load_factor: f64,
    registry: &FunctionRegistry,
    offered: &[OfferedInvocation],
    scenario: &Scenario,
) -> FrontDoorReport {
    let config = FrontDoorConfig {
        boards: scenario.boards as usize,
        slots_per_board: scenario.slots as usize,
        reconfig: scenario.reconfig,
        policy: scenario.policy,
        threads: 1,
        ..*recorded
    };
    FrontDoor::new(registry.clone(), config).replay(load_factor, offered.iter().copied())
}

/// Ground truth for one scenario: the recorded offered sequence replayed
/// through the full front door on the counterfactual fleet.
pub fn exact_outcome(
    header: &TraceHeader,
    registry: &FunctionRegistry,
    offered: &[OfferedInvocation],
    scenario: &Scenario,
) -> Result<Outcome, String> {
    let recorded = FrontDoorConfig::from_trace_header(header)?;
    let report = exact_report(&recorded, header.load_factor, registry, offered, scenario);
    Ok(outcome_from_report(&report, scenario.boards))
}

/// Collapses a full front-door report into the planner's outcome row.
pub(crate) fn outcome_from_report(report: &FrontDoorReport, boards: u64) -> Outcome {
    Outcome {
        offered: report.counters.offered,
        admitted: report.counters.admitted,
        shed: report.counters.shed(),
        rejected: report.counters.rejected(),
        attainment: report.attainment,
        offered_attainment: report.offered_attainment,
        class_attainment: report
            .classes
            .iter()
            .map(|class| ratio(class.within_slo, class.admitted))
            .collect(),
        goodput_per_sec: report.goodput_per_sec,
        board_seconds: boards as f64 * report.virtual_secs,
    }
}

/// `within / total`, defined as perfect when nothing was counted.
fn ratio(within: u64, total: u64) -> f64 {
    if total == 0 {
        1.0
    } else {
        within as f64 / total as f64
    }
}

/// Index of a class in [`SloClass::ALL`] order.
fn class_index(class: SloClass) -> usize {
    match class {
        SloClass::Latency => 0,
        SloClass::Standard => 1,
        SloClass::Batch => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimblock_faas::verify_trace_functions;
    use nimblock_workload::ArrivalProcess;

    fn recorded(seed: u64) -> Vec<u8> {
        let mut config = FrontDoorConfig::new(seed);
        config.invocations = 2_500;
        config.process = ArrivalProcess::parse("bursty:2000").expect("parses");
        config.shed_horizon = SimDuration::from_millis(200);
        config.tenant_policy = TenantPolicy { rate_per_sec: 300.0, burst: 32, quota: 64 };
        FrontDoor::new(FunctionRegistry::benchmark_suite(), config).run_recorded(1.0).1
    }

    fn decoded(trace: &[u8]) -> (TraceHeader, DecodedTrace) {
        let reader = TraceReader::parse(trace).expect("parses");
        let decoded = DecodedTrace::decode(&reader).expect("decodes");
        (reader.header().clone(), decoded)
    }

    #[test]
    fn calibration_reads_the_recorded_components() {
        let trace = recorded(7);
        let (header, decoded) = decoded(&trace);
        let registry = FunctionRegistry::benchmark_suite();
        verify_trace_functions(&registry, &header).expect("matches");
        let calibration = Calibration::from_trace(&header, &decoded, &registry).expect("calibrates");
        assert!((0.0..=1.0).contains(&calibration.warm_rate), "{}", calibration.warm_rate);
        assert!(
            (0.25..=4.0).contains(&calibration.queue_scale),
            "{}",
            calibration.queue_scale
        );
    }

    #[test]
    fn estimator_tracks_the_exact_replay_on_the_baseline() {
        let trace = recorded(11);
        let (header, decoded) = decoded(&trace);
        let registry = FunctionRegistry::benchmark_suite();
        let calibration = Calibration::from_trace(&header, &decoded, &registry).expect("calibrates");
        let estimator = Estimator::new(&header, &registry, &calibration);
        let baseline = Scenario::baseline(&header);
        let predicted = estimator.predict(&baseline, &decoded.offered);
        let exact = exact_outcome(&header, &registry, &decoded.offered, &baseline).expect("replays");
        assert_eq!(predicted.offered, exact.offered);
        let error = (predicted.offered_attainment - exact.offered_attainment).abs();
        assert!(
            error < 0.15,
            "baseline estimate must track the replay: {} vs {} (|err| {error})",
            predicted.offered_attainment,
            exact.offered_attainment
        );
    }

    #[test]
    fn predictions_are_deterministic() {
        let trace = recorded(13);
        let (header, decoded) = decoded(&trace);
        let registry = FunctionRegistry::benchmark_suite();
        let calibration = Calibration::from_trace(&header, &decoded, &registry).expect("calibrates");
        let estimator = Estimator::new(&header, &registry, &calibration);
        let scenario = Scenario { boards: 9, ..Scenario::baseline(&header) };
        let a = estimator.predict(&scenario, &decoded.offered);
        let b = estimator.predict(&scenario, &decoded.offered);
        assert_eq!(nimblock_ser::to_string_pretty(&a), nimblock_ser::to_string_pretty(&b));
    }

    #[test]
    fn warmth_model_rewards_cache_aware_fleets() {
        assert!(structural_warm(DispatchPolicy::CacheAware, 4, 6) > structural_warm(DispatchPolicy::RoundRobin, 4, 6));
        assert_eq!(structural_warm(DispatchPolicy::CacheAware, 64, 6), 1.0);
        assert!(structural_warm(DispatchPolicy::RoundRobin, 64, 6) < 1.0);
    }
}
