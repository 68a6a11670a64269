//! In-memory span records for the traced run.
//!
//! Spans are taken from the benchmark's own code, around its calls into
//! each crate's public functions; the program's own `ev-trace`
//! instrumentation stays off. Records are kept in memory, stamped with
//! [`ev_trace::now_ns`], and written out once the run ends.

use std::io::Write;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name, e.g. `flate.inflate` or `ide.handle`.
    pub name: &'static str,
    /// Operation class of the request it belongs to
    /// (`open`, `nav`, `view`, `script`, `miss`).
    pub class: &'static str,
    /// Index of the operation in the run's sequence.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds on the `ev_trace` clock.
    pub start: u64,
    /// End, nanoseconds on the `ev_trace` clock.
    pub end: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span records of one run, with the stack of open spans.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, class: &'static str, request: u64) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            class,
            request,
            parent: self.open.last().copied(),
            start: ev_trace::now_ns(),
            end: 0,
        });
        self.open.push(index);
        index
    }

    /// Closes span `index`, which must be the innermost open one.
    pub fn end(&mut self, index: usize) {
        self.spans[index].end = ev_trace::now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans must close innermost first");
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        class: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let index = self.begin(name, class, request);
        let out = f();
        self.end(index);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the part its child
    /// spans cover (children never overlap: one client thread).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration());
            }
        }
        own
    }

    /// Medians of self times, in milliseconds, of the spans named
    /// `name` whose class is one of `classes`, with the sample count.
    pub fn median_self_ms(&self, name: &str, classes: &[&str]) -> (f64, usize) {
        let own = self.self_times();
        let mut picked: Vec<u64> = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name && classes.contains(&s.class))
            .map(|(_, &ns)| ns)
            .collect();
        (crate::stats::median(&mut picked) / 1e6, picked.len())
    }

    /// Writes the records as tab-separated lines:
    /// `index name class request parent start_ns end_ns self_ns`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "index\tname\tclass\trequest\tparent\tstart_ns\tend_ns\tself_ns"
        )?;
        for ((i, s), own) in self.spans.iter().enumerate().zip(self.self_times()) {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{own}",
                s.name, s.class, s.request, s.start, s.end
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::default();
        let outer = rec.begin("outer", "open", 0);
        rec.time("inner", "open", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(outer);
        let own = rec.self_times();
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(own[1], rec.spans()[1].duration());
        assert_eq!(
            own[0],
            rec.spans()[0].duration() - rec.spans()[1].duration()
        );
    }
}
