//! `board-congested`: one ZCU106 board (10 slots) running the Nimblock
//! scheduler on the paper's stress scenario at 800 applications, with no
//! observers attached. The scheduler and the event loop do all the work.
//!
//! Also home of the traced single-board pass that `fleet-observed` runs
//! once per board.

use nimblock_core::{HvEvent, Hypervisor, NimblockScheduler, Scheduler, Testbed};
use nimblock_fpga::{Device, DeviceConfig};
use nimblock_metrics::Report;
use nimblock_sim::{Handler, SimDuration, SimTime, Simulation};
use nimblock_workload::{generate, ArrivalEvent, EventSequence, Scenario};

use crate::probe::{HandleProbe, SchedProbe, TimedHandler, TimedScheduler};
use crate::stats::{self, self_time};
use crate::{median_setup, ns_p50_p99, repeat_for, set_responses, timed, Args, Checks, Metrics};

/// Applications in the stimulus (ROADMAP item 1's congested target).
pub const APPS: usize = 800;

/// The testbeds' livelock horizon.
const HORIZON: SimTime = SimTime::from_secs(10_000_000);

/// The stimulus: the paper's stress scenario.
pub fn stimulus(seed: u64) -> EventSequence {
    generate(seed, APPS, Scenario::Stress)
}

/// A ZCU106 hypervisor over `stimulus`, built the way the testbeds build
/// one (400 ms scheduling interval, no sinks).
pub fn hypervisor<S: Scheduler>(scheduler: S, stimulus: Vec<ArrivalEvent>) -> Hypervisor<S> {
    let tick = SimDuration::from_millis(nimblock_fpga::zcu106::SCHEDULING_INTERVAL_MILLIS);
    Hypervisor::new(Device::new(DeviceConfig::zcu106()), scheduler, stimulus)
        .with_tick_interval(tick)
}

/// A simulation of `handler` seeded with one arrival per instant and the
/// first scheduling tick, as the testbeds seed theirs.
pub fn simulation<H: Handler<HvEvent>>(handler: H, arrivals: &[SimTime]) -> Simulation<HvEvent, H> {
    let tick = SimDuration::from_millis(nimblock_fpga::zcu106::SCHEDULING_INTERVAL_MILLIS);
    let mut sim = Simulation::new(handler);
    for (index, at) in arrivals.iter().enumerate() {
        sim.queue_mut().push(*at, HvEvent::Arrival(index));
    }
    if !arrivals.is_empty() {
        sim.queue_mut().push(SimTime::ZERO + tick, HvEvent::Tick);
    }
    sim
}

/// Task items in a stimulus: each application's batch items times its
/// tasks — the work the board executes, whatever the schedule.
pub fn task_items(events: &EventSequence) -> u64 {
    events
        .iter()
        .map(|e| u64::from(e.batch_size()) * e.app().graph().task_ids().count() as u64)
        .sum()
}

fn arrivals(stimulus: &[ArrivalEvent]) -> Vec<SimTime> {
    stimulus.iter().map(ArrivalEvent::arrival).collect()
}

/// Host time and counts of traced board passes, summed over boards.
#[derive(Debug, Default)]
pub struct BoardLayers {
    /// Host seconds inside `Simulation::run_until`.
    pub run_s: f64,
    /// What the hypervisor's `handle` took.
    pub handle: HandleProbe,
    /// What the scheduler's hooks took.
    pub sched: SchedProbe,
    /// Simulation events processed.
    pub events: u64,
    /// Highest event-queue depth of any board.
    pub depth_max: usize,
    /// Candidates the policy scanned (the `sched_candidates` instrument).
    pub candidates: u64,
}

impl BoardLayers {
    /// Adds another board's layers to these.
    pub fn absorb(&mut self, other: BoardLayers) {
        self.run_s += other.run_s;
        self.handle.handle_s += other.handle.handle_s;
        self.handle.handle_ns.extend(other.handle.handle_ns);
        self.handle.ticks += other.handle.ticks;
        self.sched.absorb(other.sched);
        self.events += other.events;
        self.depth_max = self.depth_max.max(other.depth_max);
        self.candidates += other.candidates;
    }

    /// Publishes the `sim`, `hv` and `sched` layer metrics; `untraced_s`
    /// is the host time of the matching untraced pass.
    pub fn publish(self, metrics: &mut Metrics, untraced_s: f64) {
        let events = self.events as f64;
        metrics.set("sim.events", events);
        metrics.set("sim.tick_events", self.handle.ticks as f64);
        metrics.set("sim.tick_share", self.handle.ticks as f64 / events);
        metrics.set(
            "sim.queue_s",
            self_time(self.run_s, &[self.handle.handle_s]),
        );
        metrics.set("sim.queue_depth_max", self.depth_max as f64);
        metrics.set("sim.ns_per_event", untraced_s * 1e9 / events);
        metrics.set(
            "hv.handle_s",
            self_time(
                self.handle.handle_s,
                &[self.sched.decide_s, self.sched.hooks_s],
            ),
        );
        let (p50, p99) = ns_p50_p99(self.handle.handle_ns);
        metrics.set("hv.handle_ns_p50", p50);
        metrics.set("hv.handle_ns_p99", p99);
        metrics.set("sched.decide_s", self.sched.decide_s);
        metrics.set("sched.decisions", self.sched.decisions as f64);
        metrics.set("sched.directives", self.sched.directives as f64);
        metrics.set(
            "sched.directive_ratio",
            self.sched.directives as f64 / (self.sched.decisions.max(1)) as f64,
        );
        let (p50, p99) = ns_p50_p99(self.sched.decide_ns);
        metrics.set("sched.decide_ns_p50", p50);
        metrics.set("sched.decide_ns_p99", p99);
        metrics.set("sched.candidates_scanned", self.candidates as f64);
        metrics.set("sched.hooks_s", self.sched.hooks_s);
    }
}

/// Runs one board with every layer trait wrapped in a timer. Returns the
/// report (board-local event indices) and the layer timings, or `None`
/// if the board hit the livelock horizon.
pub fn traced_board(stimulus: Vec<ArrivalEvent>) -> Option<(Report, BoardLayers)> {
    let registry = nimblock_obs::Registry::new();
    let mut scheduler = TimedScheduler::new(NimblockScheduler::default());
    scheduler.attach_metrics(&registry);
    let arrivals = arrivals(&stimulus);
    let mut sim = simulation(
        TimedHandler::new(hypervisor(scheduler, stimulus)),
        &arrivals,
    );
    let (_, run_s) = timed(|| sim.run_until(HORIZON));
    if !sim.handler().inner().finished() {
        return None;
    }
    let finished_at = sim.now();
    let events = sim.steps();
    let depth_max = sim.max_queue_depth();
    let (hypervisor, handle) = sim.into_handler().into_parts();
    let sched = hypervisor.scheduler().probe().clone();
    let candidates = registry
        .histogram(
            "sched_candidates",
            "Candidate-pool size per scheduling decision",
        )
        .sum();
    let layers = BoardLayers {
        run_s,
        handle,
        sched,
        events,
        depth_max,
        candidates,
    };
    Some((hypervisor.into_report(finished_at), layers))
}

fn untraced_pass(events: &EventSequence) -> Report {
    Testbed::new(NimblockScheduler::default()).run(events)
}

fn response_micros(report: &Report) -> Vec<u64> {
    report
        .records()
        .iter()
        .map(|r| r.response_time().as_micros())
        .collect()
}

/// Runs the workload; returns the number of measured passes.
pub fn run(args: &Args, metrics: &mut Metrics, checks: &mut Checks) -> usize {
    let ((events, sim), setup_s) = median_setup(|| {
        let events = stimulus(args.seed);
        let sim = simulation(
            hypervisor(NimblockScheduler::default(), events.events().to_vec()),
            &arrivals(events.events()),
        );
        (events, sim)
    });
    drop(sim);
    if args.trace {
        let (_, generate_s) = median_setup(|| stimulus(args.seed));
        metrics.set("workload.generate_s", generate_s);
        let (untraced, untraced_s) = timed(|| untraced_pass(&events));
        let (traced, traced_s) = timed(|| traced_board(events.events().to_vec()));
        checks.check(traced.is_some(), "traced board retires every application");
        let Some((report, layers)) = traced else {
            return 1;
        };
        checks.check(
            report.records().len() == APPS,
            "traced pass retires every application",
        );
        checks.check(
            nimblock_ser::to_string(&report) == nimblock_ser::to_string(&untraced),
            "traced report is byte-identical to the untraced report",
        );
        set_responses(metrics, checks, response_micros(&untraced));
        layers.publish(metrics, untraced_s);
        metrics.set("bench.untraced_pass_s", untraced_s);
        metrics.set("bench.trace_overhead_s", traced_s - untraced_s);
        return 1;
    }

    metrics.set("setup_s", setup_s);
    let items = task_items(&events) as f64;
    let passes = repeat_for(args.seconds, || timed(|| untraced_pass(&events)));
    let first = nimblock_ser::to_string(&passes[0].0);
    let mut rates = Vec::with_capacity(passes.len());
    for (report, secs) in &passes {
        checks.check(report.records().len() == APPS, "every application retires");
        checks.check(
            nimblock_ser::to_string(report) == first,
            "every pass reports byte-identically",
        );
        rates.push(items / secs);
    }
    metrics.set("throughput_per_s", stats::median(&rates));
    passes.len()
}
