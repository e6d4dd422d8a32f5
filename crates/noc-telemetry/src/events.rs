//! A bounded, drainable sink of structured JSON trace events.
//!
//! Engines [`emit`] coarse-grained events (one per solve, batch or run —
//! never per cycle) as `(key, value)` field lists; each event is rendered
//! to a single-line JSON object at emission time and buffered globally.
//! Consumers [`drain`] the buffer and attach the lines to their own output
//! (e.g. the `events` array of `SERVE_metrics.json`).
//!
//! The sink is capped at [`MAX_EVENTS`] buffered events; beyond that,
//! emissions are counted in the `telemetry.events.dropped` counter and
//! discarded, so a forgotten drain can never exhaust memory.

use std::fmt::Write as _;
use std::sync::Mutex;

use crate::counter::Counter;

/// Maximum buffered events before new emissions are dropped (and counted).
pub const MAX_EVENTS: usize = 65_536;

/// Emissions discarded because the sink was full.
pub static DROPPED: Counter = Counter::new("telemetry.events.dropped");

static SINK: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// One field value of a structured event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer field.
    U64(u64),
    /// A float field (rendered with up to 3 decimal places).
    F64(f64),
    /// A string field (JSON-escaped on render).
    Str(String),
    /// A boolean field.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

/// Emits one structured event into the global sink; a no-op unless
/// [`crate::enabled`].
///
/// The rendered line is `{"event": <name>, <fields...>}`. Field order is
/// preserved. Events are for *coarse* milestones (a batch served, a solve
/// finished, a cap tripped) — per-cycle or per-flit emission belongs in
/// counters instead.
pub fn emit(name: &'static str, fields: &[(&'static str, Value)]) {
    if !crate::enabled() {
        return;
    }
    let mut line = String::with_capacity(32 + fields.len() * 16);
    line.push_str("{\"event\": ");
    push_json_str(&mut line, name);
    for (key, value) in fields {
        line.push_str(", ");
        push_json_str(&mut line, key);
        line.push_str(": ");
        match value {
            Value::U64(v) => {
                let _ = write!(line, "{v}");
            }
            Value::F64(v) => {
                let _ = write!(line, "{v:.3}");
            }
            Value::Str(s) => push_json_str(&mut line, s),
            Value::Bool(b) => {
                let _ = write!(line, "{b}");
            }
        }
    }
    line.push('}');
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if sink.len() >= MAX_EVENTS {
        drop(sink);
        DROPPED.incr();
        return;
    }
    sink.push(line);
}

/// Removes and returns every buffered event line, oldest first.
pub fn drain() -> Vec<String> {
    std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Number of currently buffered events.
pub fn len() -> usize {
    SINK.lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Number of emissions discarded because the sink was full — the value of
/// the `telemetry.events.dropped` counter, which (like every touched
/// counter) also appears in [`crate::snapshot`]. A nonzero value means the
/// consumer is not draining often enough for the event volume.
pub fn dropped() -> u64 {
    DROPPED.get()
}

/// Appends `s` to `out` as a JSON string: quoted, with `"`, `\` and
/// control characters escaped. The one JSON string escaper of the
/// workspace's hand-written JSON writers.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn emit_renders_json_and_drains_in_order() {
        let _gate = crate::test_gate();
        crate::set_enabled(true);
        let _ = drain();
        emit(
            "test.event",
            &[
                ("n", Value::from(3u64)),
                ("label", Value::from("a \"quoted\" name")),
                ("ok", Value::from(true)),
            ],
        );
        emit("test.second", &[]);
        assert_eq!(len(), 2);
        let lines = drain();
        assert_eq!(
            lines[0],
            "{\"event\": \"test.event\", \"n\": 3, \
             \"label\": \"a \\\"quoted\\\" name\", \"ok\": true}"
        );
        assert_eq!(lines[1], "{\"event\": \"test.second\"}");
        assert!(drain().is_empty());
        crate::set_enabled(false);
        emit("test.ignored", &[]);
        assert_eq!(len(), 0, "disabled emission must not buffer");
    }

    #[test]
    fn overflow_is_dropped_counted_and_snapshot_visible() {
        let _gate = crate::test_gate();
        crate::set_enabled(true);
        let _ = drain();
        let dropped_before = dropped();
        for _ in 0..MAX_EVENTS {
            emit("test.fill", &[]);
        }
        assert_eq!(len(), MAX_EVENTS, "sink fills to its cap");
        emit("test.overflow", &[("n", Value::from(1u64))]);
        emit("test.overflow", &[("n", Value::from(2u64))]);
        assert_eq!(len(), MAX_EVENTS, "overflow does not buffer");
        assert_eq!(dropped() - dropped_before, 2, "each overflow is counted");
        // The drop counter is an ordinary self-registering metric, so a
        // snapshot taken after an overflow surfaces it by name.
        let snap = crate::snapshot();
        assert!(
            snap.to_inline_json()
                .contains("\"telemetry.events.dropped\""),
            "snapshot must surface the dropped-events counter"
        );
        let _ = drain();
        assert_eq!(len(), 0);
        crate::set_enabled(false);
    }
}
