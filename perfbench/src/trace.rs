//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! each layer's public functions. Each span has a name, a start and an
//! end (nanoseconds since the tracer started), its parent span, and the
//! identifier of the cell or job it belongs to. Spans stay in memory
//! until the run ends, when [`Tracer::write_jsonl`] writes them out.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The cell or job this span belongs to (shared by its children).
    pub root: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Every span's duration in nanoseconds, in recording order.
    pub durations_ns: Vec<f64>,
    /// Summed durations.
    pub total_ns: f64,
    /// Summed self time: each span's duration minus the part its
    /// direct children cover.
    pub self_ns: f64,
}

impl Layer {
    pub fn count(&self) -> usize {
        self.durations_ns.len()
    }

    /// Mean duration in nanoseconds (0 without samples).
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.total_ns, self.count() as f64)
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    root: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            root: 0,
        }
    }

    /// Attribute the spans that follow to cell or job `id`.
    pub fn set_root(&mut self, id: u64) {
        self.root = id;
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            root: self.root,
            parent: self.open.last().copied(),
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx`, which must be the innermost open span.
    pub fn end(&mut self, idx: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(idx), "spans must nest");
        self.spans[idx].end_ns = now;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    /// Totals and self times per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let l = out.entry(s.name).or_default();
            let ns = s.ns() as f64;
            l.durations_ns.push(ns);
            l.total_ns += ns;
            l.self_ns += s.ns().saturating_sub(children) as f64;
        }
        out
    }

    /// Write the spans of a run of `workload` at `seed` under the
    /// benchmark's `out/` directory and say where.
    pub fn write_out(&self, workload: &str, seed: u64) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{workload}-seed{seed}.jsonl"));
        match self.write_jsonl(&path) {
            Ok(()) => println!("  {} spans written to {}", self.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"root\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.root, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        t.set_root(7);
        let outer = t.begin("cell");
        let inner = t.begin("run");
        t.span("sim.run", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(inner);
        t.end(outer);
        let layers = t.layers();
        let (cell, run, sim) = (&layers["cell"], &layers["run"], &layers["sim.run"]);
        assert_eq!((cell.count(), run.count(), sim.count()), (1, 1, 1));
        assert!(sim.total_ns >= 2e6);
        assert_eq!(sim.self_ns, sim.total_ns);
        assert_eq!(run.self_ns, run.total_ns - sim.total_ns);
        assert_eq!(cell.self_ns, cell.total_ns - run.total_ns);
        assert!(t.spans.iter().all(|s| s.root == 7));
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn crossing_spans_are_rejected() {
        let mut t = Tracer::new();
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
