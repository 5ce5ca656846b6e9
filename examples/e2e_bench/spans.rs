//! In-memory span recorder for the traced rep.  The harness wraps every
//! call into a layer in `enter`/`exit`; spans nest by call order, carry the
//! driver round they belong to, and are written out as Chrome-trace JSON
//! (load in `chrome://tracing` or <https://ui.perfetto.dev>) when the
//! benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    round: u32,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// The driver round (closed loop) or completion wave (open loop) that
    /// spans entered from now on belong to.
    pub round: u32,
}

/// Self time and call count of one span name.
#[derive(Clone, Copy, Default)]
pub struct SelfTime {
    pub ns: u64,
    pub count: u64,
}

impl Recorder {
    /// `capacity` spans are preallocated so recording does not allocate
    /// inside the measured loop.
    pub fn new(capacity: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            round: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round: self.round,
        });
        id
    }

    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close in LIFO order");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// A leaf span around `f`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time per span name: a span's duration minus the part its child
    /// spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.ns += (s.end_ns - s.start_ns).saturating_sub(child);
            e.count += 1;
        }
        out
    }

    /// Chrome-trace JSON: one complete (`"ph": "X"`) event per span, in
    /// microseconds, with the span's index, parent index and round in
    /// `args`.
    pub fn chrome_trace_json(&self, process_name: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        let _ = write!(
            out,
            "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n{{\"name\": \"process_name\", \
             \"ph\": \"M\", \"pid\": 1, \"args\": {{\"name\": \"{process_name}\"}}}}"
        );
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {}, \"round\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                },
                s.round,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
