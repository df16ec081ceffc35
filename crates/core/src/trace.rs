//! Schedule traces: a per-slot record of everything the hypervisor did.
//!
//! Traces serve three purposes: debugging a policy (render a Gantt chart of
//! the schedule), validating hardware constraints after the fact (the
//! configuration port never overlaps itself; a slot never runs two things
//! at once), and feeding external analysis (serialize and post-process).

use std::collections::HashMap;

use nimblock_obs::{render_gantt, ChromeTrace, GanttRow};
use nimblock_ser::{impl_json_enum_structs, impl_json_struct, Json};

use nimblock_app::{Priority, TaskId};
use nimblock_fpga::SlotId;
use nimblock_sim::SimTime;

use crate::AppId;

/// One traced occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An application entered the pending queue.
    Arrival {
        /// The admitted application.
        app: AppId,
        /// Benchmark name.
        name: String,
        /// Batch size (items each task must process). Recorded so trace
        /// analysis can audit work conservation without the stimulus file.
        batch: u32,
        /// Priority level, for auditing preemption ordering.
        priority: Priority,
        /// Admission time.
        at: SimTime,
    },
    /// The configuration port started streaming a bitstream into a slot.
    Reconfig {
        /// Destination slot.
        slot: SlotId,
        /// Application whose task is being configured.
        app: AppId,
        /// The task being configured.
        task: TaskId,
        /// Stream start.
        at: SimTime,
        /// Stream completion.
        until: SimTime,
    },
    /// A task processed one batch item on a slot.
    Item {
        /// The slot it ran on.
        slot: SlotId,
        /// Owning application.
        app: AppId,
        /// The task.
        task: TaskId,
        /// Zero-based index of the batch item.
        item: u32,
        /// Item start.
        at: SimTime,
        /// Item completion.
        until: SimTime,
    },
    /// A task was batch-preempted off its slot.
    Preempt {
        /// The surrendered slot.
        slot: SlotId,
        /// The preempted application.
        app: AppId,
        /// The preempted task.
        task: TaskId,
        /// Preemption time.
        at: SimTime,
    },
    /// An application retired.
    Retire {
        /// The retired application.
        app: AppId,
        /// Retirement time.
        at: SimTime,
    },
}

impl_json_enum_structs!(TraceEvent {
    Arrival { app, name, batch, priority, at },
    Reconfig { slot, app, task, at, until },
    Item { slot, app, task, item, at, until },
    Preempt { slot, app, task, at },
    Retire { app, at },
});

impl TraceEvent {
    /// Returns the time the event occurred (its start, for spans).
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::Arrival { at, .. }
            | TraceEvent::Reconfig { at, .. }
            | TraceEvent::Item { at, .. }
            | TraceEvent::Preempt { at, .. }
            | TraceEvent::Retire { at, .. } => *at,
        }
    }
}

/// The full schedule record of one testbed run.
///
/// Carries the device's slot count, recorded at testbed level when tracing
/// is enabled, so analysis ([`Trace::validate`],
/// [`Trace::slot_utilization`], [`Trace::gantt`], [`Trace::to_chrome`])
/// needs no out-of-band configuration — callers used to pass a slot count
/// themselves, which silently truncated or padded results when wrong.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    slot_count: usize,
}

impl_json_struct!(Trace { events, slot_count });

impl Trace {
    /// Creates an empty trace with no declared slots (the slot count is
    /// then inferred from the highest slot any event names).
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace for a device with `slot_count` slots.
    pub fn with_slots(slot_count: usize) -> Self {
        Trace { events: Vec::new(), slot_count }
    }

    /// Appends one event. The hypervisor records real runs itself; this is
    /// public so tests and external tooling can build fixture traces (e.g.
    /// adversarial schedules for the invariant verifier) by hand.
    pub fn record(&mut self, event: TraceEvent) {
        // The trace is the run's primary artifact: recorded only when a run
        // opts in (`run_traced`/`--trace-out`), and attribution, invariant
        // verification, and the exporters all need it complete, not sampled.
        // nimblock: allow(no-unbounded-span-buffer, hot-path-no-alloc)
        self.events.push(event);
    }

    /// The number of slots this trace describes: the device's slot count
    /// when recorded through the hypervisor, never less than the highest
    /// slot an event names (so hand-built traces still analyse correctly).
    pub fn slots(&self) -> usize {
        let named = self
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Reconfig { slot, .. }
                | TraceEvent::Item { slot, .. }
                | TraceEvent::Preempt { slot, .. } => Some(slot.index() + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        self.slot_count.max(named)
    }

    /// The end of the trace: the latest span end or event time.
    pub fn end(&self) -> SimTime {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Reconfig { until, .. } | TraceEvent::Item { until, .. } => *until,
                other => other.at(),
            })
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Returns every traced event in emission order (non-decreasing time).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Returns the number of traced events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Returns the busy spans `(start, end)` of one slot, in time order:
    /// reconfigurations and item executions.
    pub fn slot_spans(&self, slot: SlotId) -> Vec<(SimTime, SimTime)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Reconfig { slot: s, at, until, .. }
                | TraceEvent::Item { slot: s, at, until, .. }
                    if *s == slot =>
                {
                    Some((*at, *until))
                }
                _ => None,
            })
            .collect()
    }

    /// Returns the spans during which the configuration port was streaming.
    pub fn cap_spans(&self) -> Vec<(SimTime, SimTime)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Reconfig { at, until, .. } => Some((*at, *until)),
                _ => None,
            })
            .collect()
    }

    /// Checks the hardware constraints the schedule must respect.
    ///
    /// A compatibility shim over [`crate::invariants::verify_hardware`]:
    /// only the physical-resource rules (configuration-port exclusivity,
    /// slot double-booking), joined into one string. Prefer
    /// [`Trace::verify`] — it checks the full invariant set and returns
    /// *all* violations as structured data.
    ///
    /// # Errors
    ///
    /// Returns the descriptions of every hardware violation found,
    /// `; `-joined: overlapping reconfigurations on the configuration
    /// port, or overlapping busy spans on any slot.
    pub fn validate(&self) -> Result<(), String> {
        let violations = crate::invariants::verify_hardware(self);
        if violations.is_empty() {
            return Ok(());
        }
        Err(violations
            .iter()
            .map(|v| v.message.clone())
            .collect::<Vec<_>>()
            .join("; "))
    }

    /// Verifies the full schedule-invariant set against this trace (see
    /// [`crate::invariants`]), returning every violation found.
    pub fn verify(
        &self,
        config: &crate::invariants::InvariantConfig,
    ) -> crate::invariants::InvariantReport {
        crate::invariants::verify_trace(self, config)
    }

    /// Returns each slot's busy fraction (reconfiguration + execution time
    /// over the trace's duration), one entry per device slot
    /// ([`Trace::slots`]). The paper motivates fine-grained sharing with
    /// resource efficiency; this is the number that quantifies it.
    pub fn slot_utilization(&self) -> Vec<f64> {
        let total = self.end().as_micros().max(1) as f64;
        (0..self.slots())
            .map(|i| {
                let busy: u64 = self
                    .slot_spans(SlotId::new(i as u32))
                    .iter()
                    .map(|&(a, b)| b.as_micros() - a.as_micros())
                    .sum();
                busy as f64 / total
            })
            .collect()
    }

    /// Renders a textual Gantt chart of the schedule via
    /// `nimblock_obs::render_gantt`: one row per slot plus a `CAP` row for
    /// the configuration port, `width` character columns spanning the trace
    /// duration. `#` marks reconfiguration, letters mark executing
    /// applications (a = app 0, b = app 1, …), `.` marks idle.
    pub fn gantt(&self, width: usize) -> String {
        let end = self.end();
        let total = end.as_micros();
        let mut rows: Vec<GanttRow> = (0..self.slots())
            .map(|i| {
                let mut row = GanttRow::new(format!("slot#{i}"));
                // Idle background, overwritten by busy spans.
                row.span(0, total, '.');
                row
            })
            .collect();
        let mut cap = GanttRow::new("CAP");
        cap.span(0, total, '.');
        for event in &self.events {
            match event {
                TraceEvent::Reconfig { slot, at, until, .. } => {
                    rows[slot.index()].span(at.as_micros(), until.as_micros(), '#');
                    cap.span(at.as_micros(), until.as_micros(), 'R');
                }
                TraceEvent::Item { slot, app, at, until, .. } => {
                    let letter = (b'a' + (app.raw() % 26) as u8) as char;
                    rows[slot.index()].span(at.as_micros(), until.as_micros(), letter);
                }
                _ => {}
            }
        }
        rows.push(cap);
        render_gantt(&rows, width, total, &end.to_string())
    }

    /// Exports the schedule as Chrome trace-event JSON, loadable in
    /// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`: one
    /// track per slot (task items and per-slot reconfiguration spans,
    /// preemption markers) plus a `CAP` track showing configuration-port
    /// occupancy and an `apps` track with arrival/retire markers. Flow
    /// (`ph:"s"`/`ph:"f"`) arrows tie each CAP reconfiguration to the
    /// first task item it enables — the causal edges of the critical
    /// path. Two `ph:"C"` counter lanes — waiting apps and slot
    /// utilization, one sample per tumbling window of the derived
    /// monitor series (see [`crate::monitor`]) — render the load shape
    /// next to the slot tracks. All timestamps are simulated
    /// microseconds.
    pub fn to_chrome(&self) -> String {
        let slots = self.slots() as u64;
        let cap_tid = slots;
        let apps_tid = slots + 1;
        let queue_tid = slots + 2;
        let util_tid = slots + 3;
        let mut chrome = ChromeTrace::new();
        for i in 0..slots {
            chrome.thread_name(i, &format!("slot#{i}"));
        }
        chrome.thread_name(cap_tid, "CAP");
        chrome.thread_name(apps_tid, "apps");
        // Coarsen the counter-lane window so long traces stay renderable:
        // at most ~128 samples per lane, never finer than the default
        // window, always a whole multiple of it (keeps timestamps tidy).
        let base = nimblock_obs::MonitorConfig::default().window_micros;
        let span = self.end().as_micros();
        let lane_window = span.div_ceil(128).div_ceil(base).max(1) * base;
        // The lanes read only the windows; skip the flight recorder.
        let monitor = crate::monitor::derive_monitor(
            self,
            nimblock_obs::MonitorConfig {
                ring_capacity: 0,
                ..nimblock_obs::MonitorConfig::with_window_micros(lane_window)
            },
        );
        if !monitor.windows().is_empty() {
            chrome.thread_name(queue_tid, "waiting apps");
            chrome.thread_name(util_tid, "slot utilization");
            let window = monitor.config().window_micros;
            for (index, snapshot) in monitor.windows().iter().enumerate() {
                let ts = index as u64 * window;
                chrome.counter(
                    "waiting apps",
                    "monitor",
                    queue_tid,
                    ts,
                    &[("apps", snapshot.queue_depth_peak)],
                );
                chrome.counter(
                    "slot utilization",
                    "monitor",
                    util_tid,
                    ts,
                    &[("permille", snapshot.utilization_permille(monitor.slots(), window))],
                );
            }
        }
        // Every item each (app, task) ran, as (slot, start) in trace
        // order: a reconfiguration's flow target is the first entry
        // starting at or after its stream completes, found without
        // rescanning the whole trace.
        let mut items: HashMap<(AppId, TaskId), Vec<(SlotId, SimTime)>> = HashMap::new();
        for event in &self.events {
            if let TraceEvent::Item { slot, app, task, at, .. } = event {
                items.entry((*app, *task)).or_default().push((*slot, *at));
            }
        }
        let mut flow_id = 0u64;
        for event in &self.events {
            match event {
                TraceEvent::Arrival { app, name, at, .. } => {
                    chrome.instant(
                        format!("arrival {name} ({app})"),
                        "lifecycle",
                        apps_tid,
                        at.as_micros(),
                    );
                }
                TraceEvent::Retire { app, at } => {
                    chrome.instant(
                        format!("retire {app}"),
                        "lifecycle",
                        apps_tid,
                        at.as_micros(),
                    );
                }
                TraceEvent::Reconfig { slot, app, task, at, until } => {
                    let dur = until.saturating_since(*at).as_micros();
                    chrome.complete_with_args(
                        format!("pr {app} {task}"),
                        "reconfig",
                        slot.index() as u64,
                        at.as_micros(),
                        dur,
                        vec![("slot".to_owned(), Json::Str(slot.to_string()))],
                    );
                    chrome.complete(
                        format!("{slot} ← {app} {task}"),
                        "reconfig",
                        cap_tid,
                        at.as_micros(),
                        dur,
                    );
                    // Flow arrow: this reconfiguration *enables* the first
                    // item the configured task runs at or after stream
                    // completion — the reconfig→task-start causal edge of
                    // the app's critical path.
                    let enabled = items
                        .get(&(*app, *task))
                        .and_then(|runs| runs.iter().find(|(_, item_at)| item_at >= until));
                    if let Some(&(item_slot, item_at)) = enabled {
                        flow_id += 1;
                        let name = format!("pr {app} {task} enables");
                        // Tail inside the CAP slice (slices are clamped to
                        // at least 1 µs wide, so until-1 is in range).
                        chrome.flow_start(
                            &name,
                            "flow",
                            cap_tid,
                            until.as_micros().saturating_sub(1).max(at.as_micros()),
                            flow_id,
                        );
                        chrome.flow_finish(
                            name,
                            "flow",
                            item_slot.index() as u64,
                            item_at.as_micros(),
                            flow_id,
                        );
                    }
                }
                TraceEvent::Item { slot, app, task, item, at, until } => {
                    chrome.complete_with_args(
                        format!("{app} {task}"),
                        "run",
                        slot.index() as u64,
                        at.as_micros(),
                        until.saturating_since(*at).as_micros(),
                        vec![("item".to_owned(), Json::U64(u64::from(*item)))],
                    );
                }
                TraceEvent::Preempt { slot, app, task, at } => {
                    chrome.instant(
                        format!("preempt {app} {task}"),
                        "preempt",
                        slot.index() as u64,
                        at.as_micros(),
                    );
                }
            }
        }
        chrome.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_event(slot: u32, app: u64, from_ms: u64, to_ms: u64) -> TraceEvent {
        TraceEvent::Item {
            slot: SlotId::new(slot),
            app: AppId::new(app),
            task: TaskId::new(0),
            item: 0,
            at: SimTime::from_millis(from_ms),
            until: SimTime::from_millis(to_ms),
        }
    }

    fn reconfig_event(slot: u32, from_ms: u64, to_ms: u64) -> TraceEvent {
        TraceEvent::Reconfig {
            slot: SlotId::new(slot),
            app: AppId::new(0),
            task: TaskId::new(0),
            at: SimTime::from_millis(from_ms),
            until: SimTime::from_millis(to_ms),
        }
    }

    #[test]
    fn validate_accepts_a_clean_schedule() {
        let mut trace = Trace::new();
        trace.record(reconfig_event(0, 0, 80));
        trace.record(span_event(0, 0, 80, 130));
        trace.record(reconfig_event(1, 80, 160));
        trace.record(span_event(1, 1, 160, 200));
        assert_eq!(trace.slots(), 2, "slot count inferred from events");
        assert_eq!(trace.validate(), Ok(()));
    }

    #[test]
    fn declared_slot_count_beats_inference() {
        let mut trace = Trace::with_slots(4);
        trace.record(span_event(0, 0, 0, 10));
        assert_eq!(trace.slots(), 4);
        // But a trace can never under-report a slot its events name.
        let mut trace = Trace::with_slots(1);
        trace.record(span_event(5, 0, 0, 10));
        assert_eq!(trace.slots(), 6);
    }

    #[test]
    fn validate_rejects_cap_overlap() {
        let mut trace = Trace::new();
        trace.record(reconfig_event(0, 0, 80));
        trace.record(reconfig_event(1, 40, 120));
        let err = trace.validate().unwrap_err();
        assert!(err.contains("configuration port overlap"), "{err}");
    }

    #[test]
    fn validate_rejects_slot_overlap() {
        let mut trace = Trace::new();
        trace.record(span_event(0, 0, 0, 100));
        trace.record(span_event(0, 1, 50, 150));
        let err = trace.validate().unwrap_err();
        assert!(err.contains("slot#0 overlap"), "{err}");
    }

    #[test]
    fn slot_spans_filter_by_slot() {
        let mut trace = Trace::new();
        trace.record(span_event(0, 0, 0, 10));
        trace.record(span_event(1, 0, 5, 15));
        trace.record(reconfig_event(0, 20, 100));
        assert_eq!(trace.slot_spans(SlotId::new(0)).len(), 2);
        assert_eq!(trace.slot_spans(SlotId::new(1)).len(), 1);
        assert_eq!(trace.cap_spans().len(), 1);
    }

    #[test]
    fn gantt_renders_rows_and_marks() {
        let mut trace = Trace::new();
        trace.record(reconfig_event(0, 0, 500));
        trace.record(span_event(0, 0, 500, 1_000));
        trace.record(span_event(1, 1, 0, 1_000));
        let chart = trace.gantt(20);
        // Two slot rows, the CAP row, and the axis.
        assert_eq!(chart.lines().count(), 4);
        assert!(chart.contains("slot#0"), "{chart}");
        assert!(chart.contains("CAP"), "{chart}");
        assert!(chart.contains('#'), "reconfiguration mark missing:\n{chart}");
        assert!(chart.contains('R'), "CAP busy mark missing:\n{chart}");
        assert!(chart.contains('a'), "app 0 mark missing:\n{chart}");
        assert!(chart.contains('b'), "app 1 mark missing:\n{chart}");
    }

    #[test]
    fn empty_trace_is_valid_and_renders() {
        let trace = Trace::with_slots(2);
        assert!(trace.is_empty());
        assert_eq!(trace.validate(), Ok(()));
        // Two slot rows, the CAP row, and the axis.
        assert_eq!(trace.gantt(10).lines().count(), 4);
    }

    #[test]
    fn slot_utilization_measures_busy_fractions() {
        let mut trace = Trace::with_slots(3);
        trace.record(reconfig_event(0, 0, 250));
        trace.record(span_event(0, 0, 250, 1_000));
        trace.record(span_event(1, 1, 0, 500));
        let util = trace.slot_utilization();
        assert_eq!(util.len(), 3, "one entry per device slot");
        assert!((util[0] - 1.0).abs() < 1e-9);
        assert!((util[1] - 0.5).abs() < 1e-9);
        assert_eq!(util[2], 0.0);
    }

    #[test]
    fn chrome_export_is_valid_and_has_all_tracks() {
        let mut trace = Trace::with_slots(2);
        trace.record(TraceEvent::Arrival {
            app: AppId::new(0),
            name: "lenet".into(),
            batch: 1,
            priority: Priority::Medium,
            at: SimTime::ZERO,
        });
        trace.record(reconfig_event(0, 0, 80));
        trace.record(span_event(0, 0, 80, 130));
        trace.record(TraceEvent::Preempt {
            slot: SlotId::new(0),
            app: AppId::new(0),
            task: TaskId::new(0),
            at: SimTime::from_millis(130),
        });
        trace.record(TraceEvent::Retire { app: AppId::new(0), at: SimTime::from_millis(130) });
        let json = trace.to_chrome();
        // 4 events render 6 trace events (reconfig spans both its slot and
        // the CAP track) + 2 flow events + 8 metadata (name + sort index
        // for 4 tracks).
        nimblock_obs::validate_chrome_trace(&json).unwrap();
        assert!(json.contains("\"slot#0\""), "{json}");
        assert!(json.contains("\"CAP\""), "{json}");
        assert!(json.contains("\"apps\""), "{json}");
        assert!(json.contains("preempt app#0 task#0"), "{json}");
    }

    #[test]
    fn chrome_export_ties_reconfig_to_enabled_task_with_flow_events() {
        let mut trace = Trace::with_slots(2);
        trace.record(reconfig_event(0, 0, 80));
        trace.record(span_event(0, 0, 80, 130));
        let json = trace.to_chrome();
        nimblock_obs::validate_chrome_trace(&json).unwrap();
        assert!(json.contains("\"ph\": \"s\""), "flow start missing: {json}");
        assert!(json.contains("\"ph\": \"f\""), "flow finish missing: {json}");
        assert!(json.contains("pr app#0 task#0 enables"), "{json}");
        assert!(json.contains("\"bp\": \"e\""), "{json}");
        // A reconfiguration that never enables an item emits no flow.
        let mut lone = Trace::with_slots(1);
        lone.record(reconfig_event(0, 0, 80));
        let json = lone.to_chrome();
        assert!(!json.contains("\"ph\": \"s\""), "{json}");
    }

    #[test]
    fn chrome_export_includes_counter_lanes() {
        let mut trace = Trace::with_slots(2);
        trace.record(reconfig_event(0, 0, 80));
        trace.record(span_event(0, 0, 80, 130));
        let json = trace.to_chrome();
        nimblock_obs::validate_chrome_trace(&json).unwrap();
        assert!(json.contains("\"ph\": \"C\""), "{json}");
        assert!(json.contains("\"slot utilization\""), "{json}");
        assert!(json.contains("\"waiting apps\""), "{json}");
        assert!(json.contains("\"permille\""), "{json}");
        // An empty trace derives no windows and draws no lanes.
        assert!(!Trace::with_slots(2).to_chrome().contains("\"ph\": \"C\""));
    }

    #[test]
    fn event_at_returns_start_times() {
        assert_eq!(
            span_event(0, 0, 7, 9).at(),
            SimTime::from_millis(7)
        );
        let retire = TraceEvent::Retire {
            app: AppId::new(3),
            at: SimTime::from_millis(11),
        };
        assert_eq!(retire.at(), SimTime::from_millis(11));
    }
}
