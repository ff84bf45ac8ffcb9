//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span has a name, start, end, parent and run id. Spans stay in memory
//! while the run is timed and are written out once it ends; a stage's
//! self time is its duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub run: u32,
}

pub struct Tracer {
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    /// Index of the innermost open span.
    open: u32,
}

impl Tracer {
    pub fn new(run: u32) -> Self {
        Tracer {
            epoch: Instant::now(),
            run,
            spans: Vec::with_capacity(1 << 16),
            open: NO_PARENT,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open,
            run: self.run,
        });
        self.open = id;
        id
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        self.open = span.parent;
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Self time and call count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child);
            e.1 += 1;
        }
        out
    }

    /// The spans as tab-separated lines: run, id, parent, name, start, end.
    pub fn dump(&self) -> String {
        let mut out = String::from("run\tid\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.run, s.name, s.start_ns, s.end_ns
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
        let mut t = Tracer::new(1);
        let root = t.open("root");
        t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let st = t.self_times();
        let (root_self, _) = st["root"];
        let (child_self, n) = st["child"];
        assert_eq!(n, 1);
        assert!(child_self >= 2_000_000);
        assert!(root_self < child_self);
        let dump = t.dump();
        let rows: Vec<&str> = dump.lines().collect();
        assert_eq!(rows.len(), 3);
        assert!(rows[2].starts_with("1\t1\t0\tchild\t"));
    }
}
