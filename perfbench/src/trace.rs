//! In-memory span recorder for the traced mode.
//!
//! Spans are opened and closed around calls the benchmark makes into the
//! public functions of each layer. Nesting is tracked with a stack, so each
//! span knows its self time (its wall time minus its children's). Nothing
//! is written while the workload runs; [`Tracer::write_tsv`] dumps the
//! spans afterwards and [`Tracer::summary`] folds them per name.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name (a public function, or a layer kind for layer replays).
    pub name: &'static str,
    /// Sequence number, in opening order.
    pub id: u32,
    /// `id` of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Wall time, nanoseconds.
    pub dur_ns: u64,
    /// Wall time of directly nested spans, nanoseconds.
    pub child_ns: u64,
    /// Batch rows the call worked on (0 when not applicable).
    pub rows: u32,
}

impl Span {
    /// Wall time not covered by nested spans.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Summed wall time, nanoseconds.
    pub dur_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed rows.
    pub rows: u64,
}

impl Totals {
    /// Mean wall time per span in milliseconds (0 without spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.dur_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last; their `dur_ns` is still zero.
    open: Vec<(Instant, Span)>,
    next_id: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose origin is now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
            next_id: 0,
        }
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, rows: usize) {
        let now = Instant::now();
        let span = Span {
            name,
            id: self.next_id,
            parent: self.open.last().map(|(_, p)| p.id),
            start_ns: now.duration_since(self.origin).as_nanos() as u64,
            dur_ns: 0,
            child_ns: 0,
            rows: rows as u32,
        };
        self.next_id += 1;
        self.open.push((now, span));
    }

    /// Closes the innermost open span and returns its wall time in ns.
    ///
    /// # Panics
    ///
    /// Panics when no span is open: begin/end pairing is a benchmark bug.
    pub fn end(&mut self) -> u64 {
        let (start, mut span) = self.open.pop().expect("end without begin");
        span.dur_ns = start.elapsed().as_nanos() as u64;
        if let Some((_, parent)) = self.open.last_mut() {
            parent.child_ns += span.dur_ns;
        }
        self.spans.push(span);
        span.dur_ns
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.dur_ns += s.dur_ns;
            t.self_ns += s.self_ns();
            t.rows += s.rows as u64;
        }
        out
    }

    /// Totals of one span name (zero when it never ran).
    pub fn totals(&self, name: &str) -> Totals {
        self.summary().get(name).copied().unwrap_or_default()
    }

    /// Writes every span as a tab-separated line:
    /// `id parent name start_ns dur_ns self_ns rows` (parent `-` at the top).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tdur_ns\tself_ns\trows")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.name,
                s.start_ns,
                s.dur_ns,
                s.self_ns(),
                s.rows
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        let mut t = Tracer::new();
        t.begin("outer", 0);
        t.begin("inner", 2);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = t.end();
        let outer = t.end();
        let s = t.summary();
        assert_eq!(s["inner"].count, 1);
        assert_eq!(s["inner"].rows, 2);
        assert_eq!(s["outer"].self_ns, outer - inner);
        assert!(outer >= inner);
        let (inner_span, outer_span) = (t.spans()[0], t.spans()[1]);
        assert_eq!(inner_span.parent, Some(outer_span.id));
        assert_eq!(outer_span.parent, None);
    }
}
