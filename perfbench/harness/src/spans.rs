//! Host-time spans recorded by the benchmark around its calls into the
//! library: name, start, end, parent span and op id, kept in memory and
//! written out when the run ends.

use std::time::Instant;

/// One closed span; times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle returned by [`Spans::begin`]; pass it back to [`Spans::end`].
#[must_use]
pub struct Open(Option<usize>);

/// An in-memory span recorder. A disabled recorder records nothing, so
/// the untraced runs execute the same code with no bookkeeping.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(id), "spans close innermost-first");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a leaf span.
    pub fn leaf<R>(&mut self, name: &str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op);
        let r = f();
        self.end(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                // Children of one parent run one after another on this
                // thread, so their intervals do not overlap.
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9)
            .collect()
    }

    /// Chrome-trace JSON in the line-per-event layout that
    /// `zynq_sim::check_chrome_json` validates: complete (`X`) events in
    /// host microseconds on one track, ordered by start.
    pub fn to_chrome_json(&self, process: &str) -> String {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| (self.spans[i].start_ns, i));
        let mut lines = vec![format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{{\"name\":\"{process}\"}}}}"
        )];
        for i in order {
            let s = &self.spans[i];
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            lines.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            lines.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_export_validates() {
        let mut spans = Spans::new(true);
        let outer = spans.begin("outer", 0);
        spans.leaf("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.end(outer);
        let all = spans.spans();
        assert_eq!(all[1].parent, Some(0));
        let own = spans.self_seconds();
        assert!((own[0] - (all[0].seconds() - all[1].seconds())).abs() < 1e-9);
        assert_eq!(own[1], all[1].seconds());
        let json = spans.to_chrome_json("host");
        assert_eq!(zynq_sim::check_chrome_json(&json), Ok(3));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        let open = spans.begin("x", 0);
        spans.end(open);
        assert!(spans.spans().is_empty());
    }
}
