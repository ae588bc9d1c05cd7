//! Spans the benchmark records around each call into the program.
//!
//! Every timed call goes through [`SpanLog::enter`], which always measures
//! the call's wall time and, in a traced run, also keeps the span (name,
//! lane, start, end, parent) in memory. The spans are written out as a
//! Chrome trace when the run ends. The program itself is not instrumented
//! beyond what `Builder::with_tracing` already records.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    lane: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder (a no-op store when tracing is off).
#[derive(Debug)]
pub struct SpanLog {
    record: bool,
    origin: Instant,
    lane: RefCell<&'static str>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// An open span; [`SpanGuard::done`] closes it and returns its wall time.
#[must_use]
pub struct SpanGuard<'a> {
    log: &'a SpanLog,
    start: Instant,
    index: Option<usize>,
}

impl SpanLog {
    /// A recorder; spans are kept only when `record` is set.
    pub fn new(record: bool) -> SpanLog {
        SpanLog {
            record,
            origin: Instant::now(),
            lane: RefCell::new("setup"),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Tags the spans opened from now on with `lane`.
    pub fn set_lane(&self, lane: &'static str) {
        *self.lane.borrow_mut() = lane;
    }

    /// Opens a span named after the called function.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let start = Instant::now();
        let index = self.record.then(|| {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name,
                lane: *self.lane.borrow(),
                parent: open.last().copied(),
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: 0,
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        });
        SpanGuard {
            log: self,
            start,
            index,
        }
    }

    /// Self time per `lane/name`, in ms: each span's duration minus the
    /// part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<String, (usize, f64)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (usize, f64)> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let entry = out.entry(format!("{}/{}", s.lane, s.name)).or_default();
            entry.0 += 1;
            entry.1 += (s.end_ns - s.start_ns - child) as f64 / 1e6;
        }
        out
    }

    /// Prints the self time per lane and call.
    pub fn print_self_times(&self) {
        println!("self time by lane/call (traced run):");
        for (name, (count, total_ms)) in self.self_times() {
            println!("  {name:<36} {count:>6} call(s) {total_ms:>12.3} ms");
        }
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            );
        }
        out.push_str("]}");
        std::fs::write(path, out)
    }
}

impl SpanGuard<'_> {
    /// Closes the span; returns its wall time in nanoseconds.
    pub fn done(self) -> u64 {
        self.close()
    }

    fn close(&self) -> u64 {
        let end = Instant::now();
        if let Some(index) = self.index {
            let mut spans = self.log.spans.borrow_mut();
            if spans[index].end_ns == 0 {
                spans[index].end_ns = end.duration_since(self.log.origin).as_nanos() as u64;
                self.log.open.borrow_mut().retain(|&i| i != index);
            }
        }
        end.duration_since(self.start).as_nanos() as u64
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let log = SpanLog::new(true);
        log.set_lane("a");
        let outer = log.enter("outer");
        let inner = log.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner_ns = inner.done();
        let outer_ns = outer.done();
        let times = log.self_times();
        assert_eq!(times["a/inner"].0, 1);
        assert!(outer_ns >= inner_ns);
        let outer_self = times["a/outer"].1;
        assert!(outer_self < (outer_ns - inner_ns) as f64 / 1e6 + 1.0);
    }

    #[test]
    fn untraced_log_keeps_no_spans() {
        let log = SpanLog::new(false);
        let ns = log.enter("x").done();
        assert!(ns < 1_000_000_000);
        assert!(log.self_times().is_empty());
    }
}
