//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into the workspace crates (one span per
//! call site, not per operation), are kept in memory, and are written out
//! as JSON lines when the run ends. A disabled recorder does nothing, so
//! the untraced runs that produce the end-to-end figures pay no cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layers a span can be charged to (the workspace crates plus the
/// benchmark itself), each with the metric that reports its self time.
pub const LAYERS: [(&str, &str); 8] = [
    ("bench", "bench.self_s"),
    ("ycsb", "ycsb.self_s"),
    ("core", "core.self_s"),
    ("simnet", "simnet.self_s"),
    ("store", "store.self_s"),
    ("erasure", "erasure.self_s"),
    ("gf", "gf.self_s"),
    ("tracebus", "tracebus.self_s"),
];

#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder with an explicit parent stack.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it becomes the parent of spans opened before its
    /// matching [`Spans::exit`].
    pub fn enter(&mut self, layer: &'static str, name: &'static str) {
        if !self.on {
            return;
        }
        debug_assert!(
            LAYERS.iter().any(|(l, _)| *l == layer),
            "unknown layer {layer}"
        );
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn wrap<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(layer, name);
        let r = f();
        self.exit();
        r
    }

    /// Per-layer self time in seconds: each span's duration minus the part
    /// its children cover (children never overlap on one thread).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        assert!(self.open.is_empty(), "spans still open");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&(l, _)| (l, 0.0)).collect();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.get_mut(s.layer).expect("known layer") += own as f64 * 1e-9;
        }
        out
    }

    /// One JSON object per span: id, parent, layer, name, start and end
    /// in nanoseconds since the recorder was created.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        s.enter("core", "outer");
        s.wrap("simnet", "inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        s.exit();
        let own = s.self_seconds();
        assert!(own["simnet"] >= 0.019, "{own:?}");
        assert!(own["core"] < own["simnet"], "{own:?}");
        assert_eq!(s.to_jsonl().lines().count(), 2);
        assert!(s.to_jsonl().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        s.wrap("core", "x", || ());
        assert!(s.to_jsonl().is_empty());
        assert_eq!(s.self_seconds()["core"], 0.0);
    }
}
