//! Board-selection strategies and the deterministic dispatcher.
//!
//! Dispatch decisions are made by a [`Dispatcher`] that maintains its
//! **own** load model of every board — a single-server backlog estimate fed
//! only by the arrival stream — instead of peeking into live hypervisor
//! state. Two consequences:
//!
//! 1. **Realism.** A front-end load balancer does not have oracle access to
//!    each board's scheduler internals; it estimates backlog from what it
//!    has dispatched, exactly as modelled here.
//! 2. **Parallelism with a determinism guarantee.** Because the assignment
//!    of every arrival is a pure function of the arrival sequence (and the
//!    policy), the per-board simulations are independent once assignment is
//!    done, so boards can run on worker threads and still merge to a result
//!    byte-identical to the sequential path (see `ClusterTestbed`).
//!
//! The round-robin cursor is explicit [`Dispatcher`] state and advances at
//! **dispatch-decision time** — never at board-completion time — so the
//! assignment order is identical no matter how board executions interleave.

use std::collections::VecDeque;

use nimblock_ser::impl_json_enum_units;

use nimblock_sim::{SimDuration, SimTime};
use nimblock_workload::{ArrivalEvent, EventSequence};

/// How the cluster assigns an arriving application to a board.
///
/// All policies work off the dispatcher's deterministic load model (see the
/// module docs); none inspects live board state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchPolicy {
    /// Cycle through the boards regardless of load.
    RoundRobin,
    /// The board estimated to host the fewest live applications.
    FewestApps,
    /// The board with the least estimated outstanding compute
    /// (single-server backlog of everything dispatched to it so far).
    LeastOutstanding,
    /// The board minimizing the estimated completion of this arrival,
    /// where the estimate prices bitstream-cache warmth: a board that
    /// recently hosted the same application skips the reconfiguration
    /// cost (see [`BITSTREAM_CACHE_SLOTS`]). Warm boards therefore win
    /// until their backlog exceeds a cold board's by more than the
    /// reconfiguration saving.
    CacheAware,
}

impl_json_enum_units!(DispatchPolicy { RoundRobin, FewestApps, LeastOutstanding, CacheAware });

impl DispatchPolicy {
    /// All strategies, for sweeps.
    pub const ALL: [DispatchPolicy; 4] = [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::FewestApps,
        DispatchPolicy::LeastOutstanding,
        DispatchPolicy::CacheAware,
    ];

    /// Returns the strategy's display name.
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::FewestApps => "fewest-apps",
            DispatchPolicy::LeastOutstanding => "least-outstanding",
            DispatchPolicy::CacheAware => "cache-aware",
        }
    }

    /// Parses a display name (as printed by [`DispatchPolicy::name`]), plus
    /// the short alias `rr`.
    pub fn parse(value: &str) -> Option<DispatchPolicy> {
        Some(match value {
            "rr" | "round-robin" => DispatchPolicy::RoundRobin,
            "fewest-apps" => DispatchPolicy::FewestApps,
            "least-outstanding" => DispatchPolicy::LeastOutstanding,
            "cache-aware" => DispatchPolicy::CacheAware,
            _ => return None,
        })
    }
}

/// Bitstreams the dispatcher's cache model remembers per board. Matches
/// the device model's slot count order of magnitude: a board can keep a
/// handful of partial bitstreams staged without reconfiguring.
pub const BITSTREAM_CACHE_SLOTS: usize = 4;

/// The dispatcher's estimate of one board's backlog: a single-server queue
/// fed by everything assigned to the board so far.
#[derive(Debug, Clone, Default)]
struct BoardLoad {
    /// When the board's backlog, served one application at a time, drains.
    busy_until: SimTime,
    /// Estimated completion time of each still-outstanding application,
    /// oldest first. Each new finish is `max(busy_until, now) + work`,
    /// never earlier than the previous one (`busy_until`), so the queue
    /// stays sorted and pruning only ever pops from the front.
    finishes: VecDeque<SimTime>,
    /// Most-recently-dispatched application names, newest first, bounded
    /// by [`BITSTREAM_CACHE_SLOTS`] — the dispatcher's bitstream-cache
    /// model. Like the backlog, this is the dispatcher's *own* estimate
    /// fed only by its assignments, never live board state.
    recent_apps: Vec<String>,
}

impl BoardLoad {
    /// Applications estimated still live at the instant of the last
    /// [`BoardLoad::prune`].
    fn live_apps(&self) -> usize {
        self.finishes.len()
    }

    /// Estimated outstanding compute at `now`.
    fn outstanding(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Drops completed entries (estimates, so this is pure bookkeeping).
    /// `finishes` is sorted, so the completed ones are a prefix.
    fn prune(&mut self, now: SimTime) {
        while self.finishes.front().is_some_and(|&finish| finish <= now) {
            self.finishes.pop_front();
        }
    }

    /// Accounts a newly assigned application of estimated cost `work`
    /// arriving at `now`.
    fn assign(&mut self, now: SimTime, work: SimDuration) {
        let start = self.busy_until.max(now);
        let finish = start + work;
        self.busy_until = finish;
        // Holds the board's estimated live applications: the front door's
        // shedding bounds it; cluster runs, which never shed, grow it
        // amortized with the backlog. nimblock: allow(hot-path-no-alloc)
        self.finishes.push_back(finish);
    }

    /// `true` iff `app_name` is staged in the board's bitstream-cache
    /// model.
    fn is_warm(&self, app_name: &str) -> bool {
        self.recent_apps.iter().any(|name| name == app_name)
    }

    /// Touches `app_name` in the cache model: moves it to the front,
    /// evicting the least-recently-used entry past the slot bound. The
    /// list is rotated in place and an evicted name's buffer is reused,
    /// so only the first [`BITSTREAM_CACHE_SLOTS`] fills allocate.
    fn touch(&mut self, app_name: &str) {
        let hit = self.recent_apps.iter().position(|name| name == app_name);
        let end = match hit {
            Some(pos) => pos,
            None if self.recent_apps.len() < BITSTREAM_CACHE_SLOTS => {
                // First fill of a cache slot. nimblock: allow(hot-path-no-alloc)
                self.recent_apps.push(app_name.to_owned());
                self.recent_apps.len() - 1
            }
            None => {
                let last = self.recent_apps.len() - 1;
                let evicted = &mut self.recent_apps[last];
                evicted.clear();
                evicted.push_str(app_name);
                last
            }
        };
        self.recent_apps[..=end].rotate_right(1);
    }
}

/// One dispatch decision: where an arrival goes and what the dispatcher's
/// load model predicts for it. Produced by [`Dispatcher::decide`]; feed it
/// back to [`Dispatcher::commit`] to account the work (the serving front
/// door sheds between the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchDecision {
    /// Chosen board index.
    pub board: usize,
    /// Whether the board's bitstream-cache model had the application
    /// staged (reconfiguration skipped in the cost estimate under
    /// [`DispatchPolicy::CacheAware`]).
    pub warm: bool,
    /// Estimated wait before the board reaches this arrival: the board's
    /// outstanding backlog at arrival time.
    pub queue_wait: SimDuration,
    /// Estimated service cost of the arrival on the chosen board (priced
    /// warm or cold).
    pub work: SimDuration,
}

/// Assigns arrivals to boards deterministically.
///
/// Feed events in arrival order (an [`EventSequence`] is already sorted);
/// the decision for each event depends only on the events seen before it.
///
/// # Example
///
/// ```
/// use nimblock_cluster::{Dispatcher, DispatchPolicy};
/// use nimblock_sim::SimDuration;
/// use nimblock_workload::{generate, Scenario};
///
/// let events = generate(1, 6, Scenario::Standard);
/// let plan = Dispatcher::plan(
///     DispatchPolicy::RoundRobin,
///     3,
///     SimDuration::from_millis(80),
///     &events,
/// );
/// assert_eq!(plan, vec![0, 1, 2, 0, 1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Dispatcher {
    policy: DispatchPolicy,
    /// Nominal per-task reconfiguration latency used in the cost estimate.
    reconfig: SimDuration,
    /// Explicit round-robin state, advanced at dispatch-decision time only.
    cursor: usize,
    boards: Vec<BoardLoad>,
}

impl Dispatcher {
    /// Creates a dispatcher over `boards` boards.
    ///
    /// `reconfig` is the nominal reconfiguration latency of the boards'
    /// device model; it prices each task of an arriving application into
    /// the backlog estimate via `AppSpec::single_slot_latency`.
    ///
    /// # Panics
    ///
    /// Panics if `boards` is zero.
    pub fn new(policy: DispatchPolicy, boards: usize, reconfig: SimDuration) -> Self {
        assert!(boards > 0, "a cluster needs at least one board");
        Dispatcher {
            policy,
            reconfig,
            cursor: 0,
            boards: vec![BoardLoad::default(); boards],
        }
    }

    /// Returns the policy this dispatcher applies.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Returns the current round-robin cursor (the number of dispatch
    /// decisions taken so far under [`DispatchPolicy::RoundRobin`]).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Decides the board for `event` and updates the load model.
    ///
    /// The round-robin cursor advances here — at decision time — so the
    /// assignment sequence is a pure function of the arrival order and can
    /// never be perturbed by board completion order (the historical bug was
    /// threading scheduler progress back into the cursor).
    pub fn assign(&mut self, event: &ArrivalEvent) -> usize {
        let decision = self.decide(event);
        self.commit(event, &decision);
        decision.board
    }

    /// Decides the board for `event` without accounting its work: prunes
    /// the load model, advances the round-robin cursor (a shed still
    /// consumes a decision), and returns the model's predictions. Pair
    /// with [`Dispatcher::commit`]; [`Dispatcher::assign`] does both.
    pub fn decide(&mut self, event: &ArrivalEvent) -> DispatchDecision {
        let now = event.arrival();
        for board in &mut self.boards {
            board.prune(now);
        }
        let app_name = event.app().name();
        // The arrival's service cost, priced once per decision rather than
        // once per board: cold (every task reconfigures) and warm (no
        // reconfiguration). Only the cache-aware policy prices warmth —
        // the three original policies keep their historical cost model,
        // so for them a warm board is priced cold and their plans stay
        // byte-identical.
        let cold = event.app().single_slot_latency(event.batch_size(), self.reconfig);
        let warm_work = if self.policy == DispatchPolicy::CacheAware {
            event.app().single_slot_latency(event.batch_size(), SimDuration::ZERO)
        } else {
            cold
        };
        let board = match self.policy {
            DispatchPolicy::RoundRobin => {
                let board = self.cursor % self.boards.len();
                self.cursor += 1;
                board
            }
            DispatchPolicy::FewestApps => self
                .boards
                .iter()
                .enumerate()
                .min_by_key(|(i, b)| (b.live_apps(), *i))
                .map(|(i, _)| i)
                .expect("cluster has at least one board"),
            DispatchPolicy::LeastOutstanding => self
                .boards
                .iter()
                .enumerate()
                .min_by_key(|(i, b)| (b.outstanding(now), *i))
                .map(|(i, _)| i)
                .expect("cluster has at least one board"),
            DispatchPolicy::CacheAware => self
                .boards
                .iter()
                .enumerate()
                .min_by_key(|(i, b)| {
                    // Estimated completion of this arrival on board `b`:
                    // backlog plus service priced by cache warmth.
                    let work = if b.is_warm(app_name) { warm_work } else { cold };
                    (b.outstanding(now) + work, *i)
                })
                .map(|(i, _)| i)
                .expect("cluster has at least one board"),
        };
        let warm = self.boards[board].is_warm(app_name);
        let work = if warm { warm_work } else { cold };
        DispatchDecision { board, warm, queue_wait: self.boards[board].outstanding(now), work }
    }

    /// Accounts a decided arrival into the load model: adds the priced
    /// work to the board's backlog and stages the application in the
    /// board's bitstream-cache model.
    pub fn commit(&mut self, event: &ArrivalEvent, decision: &DispatchDecision) {
        self.boards[decision.board].assign(event.arrival(), decision.work);
        self.boards[decision.board].touch(event.app().name());
    }

    /// The dispatcher's backlog estimate for `board` at `now` — what the
    /// front door uses to price admission. Boards are indexed `0..boards`.
    pub fn outstanding(&self, board: usize, now: SimTime) -> SimDuration {
        self.boards[board].outstanding(now)
    }

    /// `true` iff the dispatcher's cache model has `app_name` staged on
    /// `board`.
    pub fn is_warm(&self, board: usize, app_name: &str) -> bool {
        self.boards[board].is_warm(app_name)
    }

    /// Number of boards the dispatcher balances over.
    pub fn board_count(&self) -> usize {
        self.boards.len()
    }

    /// Plans a whole sequence: one board index per event, in event order.
    pub fn plan(
        policy: DispatchPolicy,
        boards: usize,
        reconfig: SimDuration,
        events: &EventSequence,
    ) -> Vec<usize> {
        let mut dispatcher = Dispatcher::new(policy, boards, reconfig);
        events.iter().map(|e| dispatcher.assign(e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimblock_app::{benchmarks, Priority};
    use nimblock_workload::generate;
    use nimblock_workload::Scenario;

    const RECONFIG: SimDuration = SimDuration::from_millis(80);

    #[test]
    fn parse_round_trips_every_name() {
        for policy in DispatchPolicy::ALL {
            assert_eq!(DispatchPolicy::parse(policy.name()), Some(policy));
        }
        assert_eq!(DispatchPolicy::parse("rr"), Some(DispatchPolicy::RoundRobin));
        assert_eq!(DispatchPolicy::parse("hashring"), None);
    }

    /// The satellite regression test: the round-robin cursor advances at
    /// dispatch-decision time, so assignment order is pinned to arrival
    /// order — including simultaneous arrivals — regardless of how long
    /// each application runs on its board.
    #[test]
    fn round_robin_assignment_order_is_pinned() {
        let mut events = Vec::new();
        // Wildly uneven costs and two simultaneous arrivals: completion
        // order would scramble any cursor keyed to board progress.
        for (i, (app, batch)) in [
            (benchmarks::digit_recognition(), 10u32),
            (benchmarks::lenet(), 1),
            (benchmarks::lenet(), 1),
            (benchmarks::rendering_3d(), 2),
            (benchmarks::digit_recognition(), 5),
            (benchmarks::lenet(), 3),
            (benchmarks::lenet(), 1),
        ]
        .into_iter()
        .enumerate()
        {
            // Events 1 and 2 arrive at the same instant.
            let at = SimTime::from_millis(if i == 2 { 100 } else { i as u64 * 100 });
            events.push(ArrivalEvent::new(app, batch, Priority::Medium, at));
        }
        let events = EventSequence::new(events);
        let plan = Dispatcher::plan(DispatchPolicy::RoundRobin, 3, RECONFIG, &events);
        assert_eq!(plan, vec![0, 1, 2, 0, 1, 2, 0]);
        // And the cursor itself counted every decision.
        let mut dispatcher = Dispatcher::new(DispatchPolicy::RoundRobin, 3, RECONFIG);
        for event in &events {
            dispatcher.assign(event);
        }
        assert_eq!(dispatcher.cursor(), 7);
    }

    #[test]
    fn least_outstanding_spreads_a_heavy_head() {
        let events = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::digit_recognition(), 10, Priority::Low, SimTime::ZERO),
            ArrivalEvent::new(benchmarks::lenet(), 2, Priority::High, SimTime::from_millis(100)),
            ArrivalEvent::new(benchmarks::lenet(), 2, Priority::High, SimTime::from_millis(200)),
        ]);
        let plan = Dispatcher::plan(DispatchPolicy::LeastOutstanding, 2, RECONFIG, &events);
        assert_eq!(plan[0], 0);
        assert_ne!(plan[1], 0, "the loaded board must be avoided");
        assert_ne!(plan[2], 0, "the loaded board must still be avoided");
    }

    #[test]
    fn fewest_apps_counts_live_estimates_only() {
        let mut dispatcher = Dispatcher::new(DispatchPolicy::FewestApps, 2, RECONFIG);
        // Two tiny apps land on boards 0 and 1.
        let tiny = |at| ArrivalEvent::new(benchmarks::lenet(), 1, Priority::Low, at);
        assert_eq!(dispatcher.assign(&tiny(SimTime::ZERO)), 0);
        assert_eq!(dispatcher.assign(&tiny(SimTime::ZERO)), 1);
        // Long after both estimates drained, the model is empty again, so
        // the lowest index wins once more.
        assert_eq!(dispatcher.assign(&tiny(SimTime::from_secs(10_000))), 0);
    }

    #[test]
    fn planning_is_deterministic() {
        let events = generate(17, 24, Scenario::Stress);
        for policy in DispatchPolicy::ALL {
            let a = Dispatcher::plan(policy, 4, RECONFIG, &events);
            let b = Dispatcher::plan(policy, 4, RECONFIG, &events);
            assert_eq!(a, b, "{}", policy.name());
            assert!(a.iter().all(|&board| board < 4));
        }
    }

    #[test]
    #[should_panic(expected = "at least one board")]
    fn zero_boards_is_rejected() {
        let _ = Dispatcher::new(DispatchPolicy::RoundRobin, 0, RECONFIG);
    }

    #[test]
    fn cache_aware_sticks_to_the_warm_board() {
        let mut dispatcher = Dispatcher::new(DispatchPolicy::CacheAware, 3, RECONFIG);
        let lenet = |at| ArrivalEvent::new(benchmarks::lenet(), 1, Priority::Medium, at);
        // First arrival: all cold, lowest index wins.
        let first = dispatcher.decide(&lenet(SimTime::ZERO));
        assert_eq!(first.board, 0);
        assert!(!first.warm);
        dispatcher.commit(&lenet(SimTime::ZERO), &first);
        // Second arrival of the same app after board 0's backlog drains:
        // the bitstream stays staged, so the warm price wins the decision.
        let second = dispatcher.decide(&lenet(SimTime::from_secs(10)));
        assert_eq!(second.board, 0);
        assert!(second.warm, "repeat arrival should hit the bitstream cache");
        assert!(
            second.work < first.work,
            "warm service must be priced below cold ({:?} vs {:?})",
            second.work,
            first.work
        );
    }

    #[test]
    fn cache_aware_spills_when_the_warm_board_backlogs() {
        let mut dispatcher = Dispatcher::new(DispatchPolicy::CacheAware, 2, RECONFIG);
        // Load board 0 far beyond the reconfig saving with a huge batch.
        let heavy = ArrivalEvent::new(
            benchmarks::digit_recognition(),
            30,
            Priority::Low,
            SimTime::ZERO,
        );
        assert_eq!(dispatcher.assign(&heavy), 0);
        // The same app arrives again: board 0 is warm but drowning, so the
        // cold board's full price still beats warm-behind-backlog.
        let again = ArrivalEvent::new(
            benchmarks::digit_recognition(),
            1,
            Priority::Low,
            SimTime::from_millis(1),
        );
        let decision = dispatcher.decide(&again);
        assert_eq!(decision.board, 1, "backlog must outweigh warmth");
        assert!(!decision.warm);
    }

    #[test]
    fn cache_model_is_bounded() {
        let mut board = BoardLoad::default();
        for i in 0..100 {
            board.touch(&format!("app-{i}"));
        }
        assert_eq!(board.recent_apps.len(), BITSTREAM_CACHE_SLOTS);
        assert!(board.is_warm("app-99"));
        assert!(!board.is_warm("app-0"));
    }

    #[test]
    fn original_policies_ignore_warmth_in_pricing() {
        // Same stimulus through the pre-existing policies must produce the
        // same plans whether or not the cache model exists: their decision
        // keys never read it, and their pricing always includes reconfig.
        let events = generate(23, 40, Scenario::Stress);
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::FewestApps,
            DispatchPolicy::LeastOutstanding,
        ] {
            let mut dispatcher = Dispatcher::new(policy, 3, RECONFIG);
            for event in &events {
                let decision = dispatcher.decide(event);
                assert_eq!(
                    decision.work,
                    event.app().single_slot_latency(event.batch_size(), RECONFIG),
                    "{} must always price the full reconfig",
                    policy.name()
                );
                dispatcher.commit(event, &decision);
            }
        }
    }

    #[test]
    fn decide_then_commit_equals_assign() {
        let events = generate(31, 30, Scenario::Stress);
        for policy in DispatchPolicy::ALL {
            let mut split = Dispatcher::new(policy, 4, RECONFIG);
            let mut fused = Dispatcher::new(policy, 4, RECONFIG);
            for event in &events {
                let decision = split.decide(event);
                split.commit(event, &decision);
                assert_eq!(decision.board, fused.assign(event), "{}", policy.name());
            }
        }
    }
}
