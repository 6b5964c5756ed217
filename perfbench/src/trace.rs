//! The benchmark's own span recorder, used only by traced runs.
//!
//! A span is recorded around a call into one of the program's public functions: its name,
//! start, end, parent and a group id that every span of one iteration, epoch or multiget
//! shares. Each thread records into its own [`Trace`] (no locks on the measured path); the
//! traces are merged when the run ends and analysed in memory: self time is a span's
//! duration minus the part of it its children cover. A store keeps at most
//! [`KEPT_PER_THREAD`] spans; later spans are still timed, and are summed by name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans a thread's store keeps in full, so a long traced serving window stays in bounded
/// memory.
const KEPT_PER_THREAD: usize = 250_000;

/// One finished span. Times are nanoseconds since the run's common origin.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span store with a stack of open spans (the parent of a new span is the
/// innermost open one).
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    next_id: u64,
    stack: Vec<u64>,
    spans: Vec<SpanRecord>,
    /// Spans past the cap, by name: count and total ns.
    unkept: BTreeMap<&'static str, (u64, u64)>,
}

impl Trace {
    /// A trace whose ids start at `thread << 40`, so traces of different threads merge
    /// without clashes.
    pub fn new(origin: Instant, thread: u64) -> Self {
        Trace {
            origin,
            next_id: thread << 40,
            stack: Vec::new(),
            spans: Vec::new(),
            unkept: BTreeMap::new(),
        }
    }

    /// A trace for another thread of the same run.
    pub fn fork(&self, thread: u64) -> Self {
        Trace::new(self.origin, thread)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` in `group`.
    pub fn span<T>(&mut self, name: &'static str, group: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_ns = self.now_ns();
        let result = f(self);
        let end_ns = self.now_ns();
        self.stack.pop();
        if self.spans.len() >= KEPT_PER_THREAD {
            let entry = self.unkept.entry(name).or_default();
            entry.0 += 1;
            entry.1 += end_ns - start_ns;
            return result;
        }
        self.spans.push(SpanRecord {
            id,
            parent,
            group,
            name,
            start_ns,
            end_ns,
        });
        result
    }

    /// Runs `f` inside a span when `traced`, plainly otherwise (untraced runs record none).
    pub fn span_if<T>(
        &mut self,
        traced: bool,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if traced {
            self.span(name, group, f)
        } else {
            f(self)
        }
    }

    /// Moves every span of `other` into this trace.
    pub fn absorb(&mut self, other: Trace) {
        self.spans.extend(other.spans);
        for (name, (count, total)) in other.unkept {
            let entry = self.unkept.entry(name).or_default();
            entry.0 += count;
            entry.1 += total;
        }
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Total ms of every span named `name`, kept or not.
    pub fn total_ms(&self, name: &str) -> f64 {
        let unkept = self.unkept.get(name).map_or(0, |&(_, total)| total);
        self.durations_ms(name).iter().sum::<f64>() + unkept as f64 / 1e6
    }

    /// Self time of every span in ns, by id.
    fn self_times(&self) -> BTreeMap<u64, u64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let covered = children
                    .get(&s.id)
                    .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
                (s.id, s.duration_ns() - covered)
            })
            .collect()
    }

    /// The share of the total duration of spans named `name` that their child spans cover.
    pub fn coverage(&self, name: &str) -> f64 {
        let self_ns = self.self_times();
        let (mut total, mut own) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            total += s.duration_ns();
            own += self_ns[&s.id];
        }
        if total == 0 {
            0.0
        } else {
            (total - own) as f64 / total as f64
        }
    }

    /// The span tree aggregated by path (`root/child/...`): count, total ms and self ms,
    /// one line per path in path order.
    pub fn tree_summary(&self) -> String {
        let by_id: BTreeMap<u64, &SpanRecord> = self.spans.iter().map(|s| (s.id, s)).collect();
        let self_ns = self.self_times();
        let mut paths: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let mut names = vec![s.name];
            let mut parent = s.parent;
            while let Some(p) = parent.and_then(|id| by_id.get(&id)) {
                names.push(p.name);
                parent = p.parent;
            }
            names.reverse();
            let entry = paths.entry(names.join("/")).or_default();
            entry.0 += 1;
            entry.1 += s.duration_ns();
            entry.2 += self_ns[&s.id];
        }
        let mut out = String::new();
        for (name, (count, total)) in &self.unkept {
            let _ = writeln!(
                out,
                "span {name:<72} count {count:>8}  total_ms {:>12.3}  (past the kept spans)",
                *total as f64 / 1e6
            );
        }
        for (path, (count, total, own)) in paths {
            let _ = writeln!(
                out,
                "span {path:<72} count {count:>8}  total_ms {:>12.3}  self_ms {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        out
    }

    /// Writes at most `limit` spans as JSON lines (`id`, `parent`, `group`, `name`,
    /// `start_ns`, `end_ns`), in start order.
    pub fn write_jsonl(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        let mut spans: Vec<&SpanRecord> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::new();
        for s in spans.into_iter().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.group, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 25), 20);
        assert_eq!(covered_ns(&[], 0, 25), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut trace = Trace::new(Instant::now(), 0);
        trace.span("root", 0, |t| {
            t.span("child", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let coverage = trace.coverage("root");
        assert!(coverage > 0.9 && coverage <= 1.0, "coverage {coverage}");
        assert!(trace.tree_summary().contains("root/child"));
    }
}
