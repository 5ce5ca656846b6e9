//! Chrome-trace-event / Perfetto JSON export.
//!
//! The exported object is `{"traceEvents": [...]}` in the [trace-event
//! format] Perfetto's UI (ui.perfetto.dev) loads directly: each shard is
//! rendered as a thread of one process, transactions become async spans
//! (`ph: "b"` / `ph: "e"`, keyed by transaction id), message sends and
//! deliveries become thread-scoped instants, and epoch/checker progress
//! becomes counter tracks.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write as _;

use crate::event::{ObsEvent, ShardEvent};

/// Escapes a string for inclusion inside a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an event stream as Chrome-trace-event JSON.
///
/// `process_name` labels the single process (pid 0) all shards hang off;
/// each distinct `shard` becomes a named thread (tid = shard).  Timestamps
/// are the events' `at` stamps divided by `ts_divisor` and reported in the
/// format's microsecond unit — pass `1` for the simulators' stamps (1
/// virtual tick renders as 1 µs).
pub fn perfetto_json(events: &[ShardEvent], process_name: &str, ts_divisor: u64) -> String {
    let div = ts_divisor.max(1);
    // Rows are written straight into the one output buffer (≈ 155 bytes
    // per event on a sharded run), every row but the first behind a `",\n"`.
    let mut out = String::with_capacity(events.len() * 160 + 256);
    let _ = write!(
        out,
        "{{\"traceEvents\": [\n  {{\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", \
         \"args\": {{\"name\": \"{}\"}}}}",
        escape(process_name)
    );
    macro_rules! row {
        ($($fmt:tt)*) => {{
            out.push_str(",\n  ");
            let _ = write!(out, $($fmt)*);
        }};
    }
    let mut shards: Vec<u32> = events.iter().map(|e| e.shard).collect();
    shards.sort_unstable();
    shards.dedup();
    for shard in &shards {
        row!(
            "{{\"ph\": \"M\", \"pid\": 0, \"tid\": {shard}, \"name\": \"thread_name\", \
             \"args\": {{\"name\": \"shard {shard}\"}}}}"
        );
    }
    for se in events {
        let tid = se.shard;
        let ts = se.event.at() / div;
        match se.event {
            ObsEvent::InvocationDispatched { tx, client, .. } => row!(
                "{{\"ph\": \"b\", \"cat\": \"tx\", \"id\": {id}, \"pid\": 0, \"tid\": {tid}, \
                 \"ts\": {ts}, \"name\": \"tx{id}\", \"args\": {{\"client\": {client}}}}}",
                id = tx.0,
                client = client.0,
            ),
            ObsEvent::TxCommitted { tx, invoked_at, .. } => row!(
                "{{\"ph\": \"e\", \"cat\": \"tx\", \"id\": {id}, \"pid\": 0, \"tid\": {tid}, \
                 \"ts\": {ts}, \"name\": \"tx{id}\", \"args\": {{\"latency\": {lat}}}}}",
                id = tx.0,
                lat = se.event.at().saturating_sub(invoked_at) / div,
            ),
            ObsEvent::MessageSent { msg, kind, queue_depth, cross_shard, .. } => row!(
                "{{\"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": {tid}, \"ts\": {ts}, \
                 \"name\": \"send {kind:?}\", \"args\": {{\"msg\": {msg}, \
                 \"queue_depth\": {queue_depth}, \"cross_shard\": {cross_shard}}}}}"
            ),
            ObsEvent::MessageDelivered { msg, kind, queue_depth, .. } => row!(
                "{{\"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": {tid}, \"ts\": {ts}, \
                 \"name\": \"recv {kind:?}\", \"args\": {{\"msg\": {msg}, \
                 \"queue_depth\": {queue_depth}}}}}"
            ),
            ObsEvent::EpochBarrierCrossed { epoch, watermark, steps, .. } => {
                row!(
                    "{{\"ph\": \"C\", \"pid\": 0, \"tid\": {tid}, \"ts\": {ts}, \
                     \"name\": \"epoch steps (shard {tid})\", \"args\": {{\"steps\": {steps}}}}}"
                );
                row!(
                    "{{\"ph\": \"C\", \"pid\": 0, \"tid\": {tid}, \"ts\": {ts}, \
                     \"name\": \"watermark (shard {tid})\", \
                     \"args\": {{\"watermark\": {watermark}, \"epoch\": {epoch}}}}}"
                );
            }
            ObsEvent::MessageDropped { msg, src, dst, .. } => row!(
                "{{\"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": {tid}, \"ts\": {ts}, \
                 \"name\": \"fault drop\", \"args\": {{\"msg\": {msg}, \
                 \"src\": \"{src}\", \"dst\": \"{dst}\"}}}}"
            ),
            ObsEvent::MessageDuplicated { original, duplicate, src, dst, .. } => row!(
                "{{\"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": {tid}, \"ts\": {ts}, \
                 \"name\": \"fault dup\", \"args\": {{\"original\": {original}, \
                 \"duplicate\": {duplicate}, \"src\": \"{src}\", \"dst\": \"{dst}\"}}}}"
            ),
            ObsEvent::ServerCrashed { server, .. } => row!(
                "{{\"ph\": \"i\", \"s\": \"g\", \"pid\": 0, \"tid\": {tid}, \"ts\": {ts}, \
                 \"name\": \"server {id} crashed\", \"args\": {{\"server\": {id}}}}}",
                id = server.0,
            ),
            ObsEvent::ServerRecovered { server, .. } => row!(
                "{{\"ph\": \"i\", \"s\": \"g\", \"pid\": 0, \"tid\": {tid}, \"ts\": {ts}, \
                 \"name\": \"server {id} recovered\", \"args\": {{\"server\": {id}}}}}",
                id = server.0,
            ),
            ObsEvent::PartitionStarted { partition, .. } => row!(
                "{{\"ph\": \"i\", \"s\": \"g\", \"pid\": 0, \"tid\": {tid}, \"ts\": {ts}, \
                 \"name\": \"partition {partition} started\", \
                 \"args\": {{\"partition\": {partition}}}}}"
            ),
            ObsEvent::PartitionHealed { partition, .. } => row!(
                "{{\"ph\": \"i\", \"s\": \"g\", \"pid\": 0, \"tid\": {tid}, \"ts\": {ts}, \
                 \"name\": \"partition {partition} healed\", \
                 \"args\": {{\"partition\": {partition}}}}}"
            ),
            ObsEvent::CheckerRetired { certified, live_window, frontier, retirement_lag, .. } => row!(
                "{{\"ph\": \"C\", \"pid\": 0, \"tid\": {tid}, \"ts\": {ts}, \
                 \"name\": \"checker\", \"args\": {{\"certified\": {certified}, \
                 \"live_window\": {live_window}, \"frontier\": {frontier}, \
                 \"retirement_lag\": {retirement_lag}}}}}"
            ),
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use snow_core::{ClientId, TxId};

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn exported_trace_parses_and_pairs_spans() {
        let events = vec![
            ShardEvent {
                shard: 1,
                event: ObsEvent::InvocationDispatched { at: 3, tx: TxId(7), client: ClientId(2) },
            },
            ShardEvent {
                shard: 1,
                event: ObsEvent::TxCommitted { at: 11, tx: TxId(7), client: ClientId(2), invoked_at: 3 },
            },
            ShardEvent {
                shard: 0,
                event: ObsEvent::EpochBarrierCrossed { at: 12, epoch: 1, watermark: 20, steps: 0 },
            },
        ];
        let text = perfetto_json(&events, "sim", 1);
        // Byte for byte: rows separated by ",\n", none after the last.
        assert_eq!(
            text,
            r#"{"traceEvents": [
  {"ph": "M", "pid": 0, "name": "process_name", "args": {"name": "sim"}},
  {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name", "args": {"name": "shard 0"}},
  {"ph": "M", "pid": 0, "tid": 1, "name": "thread_name", "args": {"name": "shard 1"}},
  {"ph": "b", "cat": "tx", "id": 7, "pid": 0, "tid": 1, "ts": 3, "name": "tx7", "args": {"client": 2}},
  {"ph": "e", "cat": "tx", "id": 7, "pid": 0, "tid": 1, "ts": 11, "name": "tx7", "args": {"latency": 8}},
  {"ph": "C", "pid": 0, "tid": 0, "ts": 12, "name": "epoch steps (shard 0)", "args": {"steps": 0}},
  {"ph": "C", "pid": 0, "tid": 0, "ts": 12, "name": "watermark (shard 0)", "args": {"watermark": 20, "epoch": 1}}
]}
"#
        );
        let doc = Json::parse(&text).expect("valid JSON");
        let rows = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        // 1 process meta + 2 thread metas + b + e + 2 counters.
        assert_eq!(rows.len(), 7);
        let phases: Vec<&str> =
            rows.iter().filter_map(|r| r.get("ph").and_then(Json::as_str)).collect();
        assert_eq!(phases, ["M", "M", "M", "b", "e", "C", "C"]);
        for row in rows {
            if row.get("ts").is_some() {
                assert!(row.get("ts").and_then(Json::as_num).is_some());
                assert!(row.get("pid").and_then(Json::as_num).is_some());
            }
        }
    }
}
