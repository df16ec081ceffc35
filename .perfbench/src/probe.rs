//! Timing wrappers around the layer traits. Each wrapper forwards every
//! call unchanged and records the host time the call took, so a traced
//! pass schedules exactly what an untraced pass schedules.

use std::time::Instant;

use nimblock_core::{AppId, HvEvent, Reconfig, SchedView, Scheduler};
use nimblock_sim::{EventQueue, Handler, SimTime};

/// What a [`TimedScheduler`] saw: decision time and counts, plus the
/// arrival/retire hooks.
#[derive(Debug, Default, Clone)]
pub struct SchedProbe {
    /// Host seconds inside `next_reconfig`.
    pub decide_s: f64,
    /// Host seconds inside `on_arrival` and `on_retire`.
    pub hooks_s: f64,
    /// Calls to `next_reconfig`.
    pub decisions: u64,
    /// Calls that returned a directive.
    pub directives: u64,
    /// Host nanoseconds of every `next_reconfig` call.
    pub decide_ns: Vec<u64>,
}

impl SchedProbe {
    /// Adds another probe's totals and samples to this one.
    pub fn absorb(&mut self, other: SchedProbe) {
        self.decide_s += other.decide_s;
        self.hooks_s += other.hooks_s;
        self.decisions += other.decisions;
        self.directives += other.directives;
        self.decide_ns.extend(other.decide_ns);
    }
}

/// A [`Scheduler`] that times every call into the policy it wraps.
#[derive(Debug)]
pub struct TimedScheduler<S> {
    inner: S,
    probe: SchedProbe,
}

impl<S> TimedScheduler<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedScheduler {
            inner,
            probe: SchedProbe::default(),
        }
    }

    /// The timings gathered so far.
    pub fn probe(&self) -> &SchedProbe {
        &self.probe
    }
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn pipelining(&self) -> bool {
        self.inner.pipelining()
    }

    fn on_arrival(&mut self, view: &SchedView<'_>, app: AppId) {
        let start = Instant::now();
        self.inner.on_arrival(view, app);
        self.probe.hooks_s += start.elapsed().as_secs_f64();
    }

    fn on_retire(&mut self, view: &SchedView<'_>, app: AppId) {
        let start = Instant::now();
        self.inner.on_retire(view, app);
        self.probe.hooks_s += start.elapsed().as_secs_f64();
    }

    fn next_reconfig(&mut self, view: &SchedView<'_>) -> Option<Reconfig> {
        let start = Instant::now();
        let directive = self.inner.next_reconfig(view);
        let ns = nanos_since(start);
        self.probe.decide_s += ns as f64 * 1e-9;
        self.probe.decisions += 1;
        self.probe.directives += u64::from(directive.is_some());
        self.probe.decide_ns.push(ns);
        directive
    }

    fn attach_metrics(&mut self, registry: &nimblock_obs::Registry) {
        self.inner.attach_metrics(registry);
    }
}

/// What a [`TimedHandler`] saw: time inside `handle` and the tick count.
#[derive(Debug, Default, Clone)]
pub struct HandleProbe {
    /// Host seconds inside `handle`, scheduler calls included.
    pub handle_s: f64,
    /// Host nanoseconds of every `handle` call.
    pub handle_ns: Vec<u64>,
    /// Periodic scheduling ticks handled.
    pub ticks: u64,
}

/// A simulation [`Handler`] that times every event it forwards.
#[derive(Debug)]
pub struct TimedHandler<H> {
    inner: H,
    probe: HandleProbe,
}

impl<H> TimedHandler<H> {
    /// Wraps `inner`.
    pub fn new(inner: H) -> Self {
        TimedHandler {
            inner,
            probe: HandleProbe::default(),
        }
    }

    /// The wrapped handler.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Unwraps into the handler and the timings.
    pub fn into_parts(self) -> (H, HandleProbe) {
        (self.inner, self.probe)
    }
}

impl<H: Handler<HvEvent>> Handler<HvEvent> for TimedHandler<H> {
    fn handle(&mut self, now: SimTime, event: HvEvent, queue: &mut EventQueue<HvEvent>) {
        self.probe.ticks += u64::from(matches!(event, HvEvent::Tick));
        let start = Instant::now();
        self.inner.handle(now, event, queue);
        let ns = nanos_since(start);
        self.probe.handle_s += ns as f64 * 1e-9;
        self.probe.handle_ns.push(ns);
    }
}
