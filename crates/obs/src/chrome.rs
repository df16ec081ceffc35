//! Chrome trace-event JSON builder.
//!
//! Produces the "JSON Array Format with metadata" flavour of the Trace
//! Event Format — the object with a `traceEvents` array — which loads
//! directly in Perfetto (<https://ui.perfetto.dev>) and the legacy
//! `chrome://tracing` viewer.
//!
//! Only the event phases the schedule export needs are modelled:
//!
//! - `ph:"X"` *complete* events (a named span with `ts` + `dur`),
//! - `ph:"i"` *instant* events (a point marker),
//! - `ph:"M"` *metadata* events (used for `thread_name`, so slot tracks
//!   render as `slot#0`, `slot#1`, … and the reconfiguration port as
//!   `CAP`),
//! - `ph:"s"` / `ph:"f"` *flow* events (an arrow between two slices on
//!   different tracks — used to tie each CAP reconfiguration to the
//!   task execution it enables; the finish end binds to the enclosing
//!   slice via `bp:"e"`),
//! - `ph:"C"` *counter* events (a sampled numeric series — Perfetto
//!   renders each as a stepped area chart; used for the per-window
//!   queue-depth and slot-utilization lanes next to the slot tracks).
//!
//! All timestamps and durations are microseconds, matching the format's
//! native unit and the simulator's `SimTime` resolution, so conversion
//! is lossless.

use std::fmt::Write as _;

use nimblock_ser::{write_string, Json};

/// One trace event, pre-sorted into the builder's emission order.
#[derive(Debug, Clone)]
struct Event {
    name: String,
    cat: &'static str,
    phase: char,
    tid: u64,
    ts: u64,
    dur: Option<u64>,
    /// Flow id tying a `ph:"s"` start to its `ph:"f"` finish.
    id: Option<u64>,
    args: Vec<(String, Json)>,
}

impl Event {
    /// Appends the event as one element of the pretty-printed
    /// `traceEvents` array: the exact layout `Json::to_pretty` gives the
    /// equivalent object at that depth, written without building it.
    fn write(&self, out: &mut String) {
        const FIELD: &str = ",\n      ";
        out.push_str("    {\n      \"name\": ");
        write_string(out, &self.name);
        out.push_str(FIELD);
        out.push_str("\"cat\": ");
        write_string(out, self.cat);
        let _ = write!(
            out,
            "{FIELD}\"ph\": \"{}\"{FIELD}\"pid\": 1{FIELD}\"tid\": {}{FIELD}\"ts\": {}",
            self.phase, self.tid, self.ts
        );
        if let Some(dur) = self.dur {
            let _ = write!(out, "{FIELD}\"dur\": {dur}");
        }
        if let Some(id) = self.id {
            let _ = write!(out, "{FIELD}\"id\": {id}");
        }
        if self.phase == 'i' {
            // Instant scope: thread-scoped, so the marker renders on its
            // own track instead of a full-height line.
            let _ = write!(out, "{FIELD}\"s\": \"t\"");
        }
        if self.phase == 'f' {
            // Bind the arrow head to the slice *enclosing* the finish
            // timestamp (the enabled task's slice), not the next slice.
            let _ = write!(out, "{FIELD}\"bp\": \"e\"");
        }
        if !self.args.is_empty() {
            out.push_str(FIELD);
            out.push_str("\"args\": {");
            for (i, (key, value)) in self.args.iter().enumerate() {
                out.push_str(if i == 0 { "\n        " } else { ",\n        " });
                write_string(out, key);
                out.push_str(": ");
                value.write_pretty(out, 4);
            }
            out.push_str("\n      }");
        }
        out.push_str("\n    }");
    }

    /// Same-timestamp ordering rank: slices and markers first, then flow
    /// starts (which bind to the slice already emitted), then flow
    /// finishes. Keeps the export deterministic and viewers happy.
    fn phase_rank(&self) -> u8 {
        match self.phase {
            's' => 1,
            'f' => 2,
            _ => 0,
        }
    }
}

/// Builder for a Chrome trace-event file.
///
/// ```
/// use nimblock_obs::ChromeTrace;
/// let mut t = ChromeTrace::new();
/// t.thread_name(0, "slot#0");
/// t.complete("app#1", "run", 0, 1_000, 5_000);
/// t.instant("preempt app#1", "preempt", 0, 6_000);
/// let json = t.render();
/// assert!(json.contains("\"traceEvents\""));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    metadata: Vec<Event>,
    events: Vec<Event>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Names track `tid` (a `ph:"M"` `thread_name` metadata event).
    /// Also sets `thread_sort_index` so viewers keep tracks in `tid`
    /// order rather than first-event order.
    pub fn thread_name(&mut self, tid: u64, name: &str) {
        self.metadata.push(Event {
            name: "thread_name".into(),
            cat: "__metadata",
            phase: 'M',
            tid,
            ts: 0,
            dur: None,
            id: None,
            args: vec![("name".into(), Json::Str(name.into()))],
        });
        self.metadata.push(Event {
            name: "thread_sort_index".into(),
            cat: "__metadata",
            phase: 'M',
            tid,
            ts: 0,
            dur: None,
            id: None,
            args: vec![("sort_index".into(), Json::U64(tid))],
        });
    }

    /// Adds a complete (`ph:"X"`) span on track `tid`, `[ts_us, ts_us+dur_us)`.
    pub fn complete(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
    ) {
        self.complete_with_args(name, cat, tid, ts_us, dur_us, Vec::new());
    }

    /// [`ChromeTrace::complete`] with extra `args` key/value detail shown
    /// in the viewer's selection panel.
    pub fn complete_with_args(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
        args: Vec<(String, Json)>,
    ) {
        // The Chrome trace buffer is the artifact of an opt-in tracing
        // run; exporters need it complete, and growth is amortized.
        // nimblock: allow(hot-path-no-alloc)
        self.events.push(Event {
            name: name.into(),
            cat,
            phase: 'X',
            tid,
            ts: ts_us,
            // chrome://tracing drops zero-duration complete events;
            // clamp to 1 µs so instantaneous spans stay visible.
            dur: Some(dur_us.max(1)),
            id: None,
            args,
        });
    }

    /// Adds a thread-scoped instant (`ph:"i"`) marker on track `tid`.
    pub fn instant(&mut self, name: impl Into<String>, cat: &'static str, tid: u64, ts_us: u64) {
        self.events.push(Event {
            name: name.into(),
            cat,
            phase: 'i',
            tid,
            ts: ts_us,
            dur: None,
            id: None,
            args: Vec::new(),
        });
    }

    /// Starts a flow (`ph:"s"`) with identifier `id` on track `tid`. The
    /// arrow tail binds to the slice enclosing `ts_us` on that track.
    pub fn flow_start(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        tid: u64,
        ts_us: u64,
        id: u64,
    ) {
        self.events.push(Event {
            name: name.into(),
            cat,
            phase: 's',
            tid,
            ts: ts_us,
            dur: None,
            id: Some(id),
            args: Vec::new(),
        });
    }

    /// Finishes flow `id` (`ph:"f"`, `bp:"e"`) on track `tid`: the arrow
    /// head binds to the slice enclosing `ts_us`.
    pub fn flow_finish(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        tid: u64,
        ts_us: u64,
        id: u64,
    ) {
        self.events.push(Event {
            name: name.into(),
            cat,
            phase: 'f',
            tid,
            ts: ts_us,
            dur: None,
            id: Some(id),
            args: Vec::new(),
        });
    }

    /// Samples counter series `name` at `ts_us` (`ph:"C"`). Each key in
    /// `series` becomes one stacked series of the counter track; viewers
    /// step-interpolate between samples, so emit one sample per tumbling
    /// window to draw the windowed time-series as lanes.
    pub fn counter(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        tid: u64,
        ts_us: u64,
        series: &[(&str, u64)],
    ) {
        self.events.push(Event {
            name: name.into(),
            cat,
            phase: 'C',
            tid,
            ts: ts_us,
            dur: None,
            id: None,
            args: series.iter().map(|&(k, v)| (k.to_owned(), Json::U64(v))).collect(),
        });
    }

    /// Number of non-metadata events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no non-metadata events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the pretty-printed trace file contents: an object with the
    /// `traceEvents` array and `displayTimeUnit`, in the layout
    /// `nimblock_ser::to_string_pretty` uses. Each event is written
    /// straight into one pre-sized buffer, so the cost is the sort plus
    /// one linear pass.
    pub fn render(&self) -> String {
        // Metadata first, then events sorted (ts, phase rank, tid) so
        // output is deterministic, viewers never see out-of-order
        // timestamps, and a flow start follows the slice it binds to.
        let mut sorted: Vec<&Event> = self.events.iter().collect();
        sorted.sort_by_key(|e| (e.ts, e.phase_rank(), e.tid));
        let count = self.metadata.len() + sorted.len();
        // Schedule exports average ~190 bytes per event (mostly run
        // slices with their `args`), so one reservation usually suffices.
        let mut out = String::with_capacity(64 + count * 192);
        out.push_str("{\n  \"traceEvents\": [");
        for (i, event) in self.metadata.iter().chain(sorted).enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            event.write(&mut out);
        }
        if count > 0 {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"displayTimeUnit\": \"ms\"\n}");
        out
    }
}

/// Structural validation for a rendered Chrome trace: parses the JSON,
/// checks the `traceEvents` envelope, and verifies every event carries
/// the mandatory `name`/`ph`/`pid`/`tid`/`ts` fields (plus `dur` for
/// `ph:"X"`). Returns the number of events on success.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let json = nimblock_ser::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let Json::Object(fields) = &json else {
        return Err("top level is not an object".into());
    };
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents key")?;
    let Json::Array(events) = events else {
        return Err("traceEvents is not an array".into());
    };
    for (i, ev) in events.iter().enumerate() {
        let Json::Object(f) = ev else {
            return Err(format!("event {i} is not an object"));
        };
        let get = |key: &str| f.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        for key in ["name", "ph", "pid", "tid", "ts"] {
            if get(key).is_none() {
                return Err(format!("event {i} missing {key:?}"));
            }
        }
        let Some(Json::Str(ph)) = get("ph") else {
            return Err(format!("event {i}: ph is not a string"));
        };
        match ph.as_str() {
            "X" => {
                if get("dur").is_none() {
                    return Err(format!("event {i}: complete event missing dur"));
                }
            }
            "s" | "f" => {
                if get("id").is_none() {
                    return Err(format!("event {i}: flow event missing id"));
                }
            }
            "C" => {
                if get("args").is_none() {
                    return Err(format!("event {i}: counter event missing args"));
                }
            }
            "i" | "M" => {}
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_emits_valid_trace() {
        let mut t = ChromeTrace::new();
        t.thread_name(0, "slot#0");
        t.thread_name(100, "CAP");
        t.complete("app#1", "run", 0, 1_000, 5_000);
        t.complete_with_args(
            "reconfig slot#0 -> app#1",
            "reconfig",
            100,
            0,
            1_000,
            vec![("slot".into(), Json::Str("slot#0".into()))],
        );
        t.instant("preempt app#1", "preempt", 0, 6_000);
        assert_eq!(t.len(), 3);
        let text = t.render();
        // 3 events + 4 metadata (name + sort_index per track).
        assert_eq!(validate_chrome_trace(&text).unwrap(), 7);
        assert!(text.contains("\"displayTimeUnit\": \"ms\""));
        assert!(text.contains("\"slot#0\""));
        assert!(text.contains("\"CAP\""));
    }

    #[test]
    fn events_are_sorted_by_timestamp() {
        let mut t = ChromeTrace::new();
        t.complete("late", "run", 0, 9_000, 100);
        t.complete("early", "run", 0, 1_000, 100);
        let text = t.render();
        let late = text.find("\"late\"").unwrap();
        let early = text.find("\"early\"").unwrap();
        assert!(early < late, "events must be emitted in ts order");
    }

    #[test]
    fn zero_duration_spans_are_clamped_visible() {
        let mut t = ChromeTrace::new();
        t.complete("blink", "run", 0, 0, 0);
        assert!(t.render().contains("\"dur\": 1"));
    }

    #[test]
    fn flow_events_render_with_id_and_binding_point() {
        let mut t = ChromeTrace::new();
        t.complete("pr app#0 task#0", "reconfig", 2, 0, 80_000);
        t.complete("app#0 task#0", "run", 0, 80_000, 50_000);
        t.flow_start("enables", "flow", 2, 79_999, 7);
        t.flow_finish("enables", "flow", 0, 80_000, 7);
        let text = t.render();
        assert!(text.contains("\"ph\": \"s\""), "{text}");
        assert!(text.contains("\"ph\": \"f\""), "{text}");
        assert!(text.contains("\"id\": 7"), "{text}");
        assert!(text.contains("\"bp\": \"e\""), "{text}");
        assert_eq!(validate_chrome_trace(&text).unwrap(), 4);
        // At the shared timestamp the slice precedes the flow finish.
        let slice = text.find("\"cat\": \"run\"").unwrap();
        let finish = text.find("\"ph\": \"f\"").unwrap();
        assert!(slice < finish, "{text}");
    }

    #[test]
    fn counter_events_render_and_validate() {
        let mut t = ChromeTrace::new();
        t.thread_name(5, "queue depth");
        t.counter("queue depth", "monitor", 5, 0, &[("tasks", 3)]);
        t.counter("queue depth", "monitor", 5, 10_000, &[("tasks", 0)]);
        t.counter("utilization", "monitor", 6, 0, &[("permille", 875)]);
        let text = t.render();
        assert!(text.contains("\"ph\": \"C\""), "{text}");
        assert!(text.contains("\"tasks\": 3"), "{text}");
        // 3 counters + 2 metadata events.
        assert_eq!(validate_chrome_trace(&text).unwrap(), 5);
    }

    #[test]
    fn validator_requires_counter_args() {
        let bad = r#"{"traceEvents":[{"name":"q","cat":"c","ph":"C","pid":1,"tid":0,"ts":0}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("args"));
    }

    #[test]
    fn validator_requires_flow_id() {
        let bad = r#"{"traceEvents":[{"name":"x","cat":"c","ph":"s","pid":1,"tid":0,"ts":0}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("id"));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        // Complete event without dur.
        let bad = r#"{"traceEvents":[{"name":"x","cat":"c","ph":"X","pid":1,"tid":0,"ts":0}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("dur"));
    }
}
