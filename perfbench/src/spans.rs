//! In-memory span recorder for the traced replay.
//!
//! The benchmark wraps each public call it makes into a layer in one span:
//! name, start, end, parent and job id. Spans stay in memory while the
//! replay runs and are written out once, at the end. A span's self time is
//! its duration minus the time its child spans cover; calls are sequential,
//! so children never overlap.

use crate::stats::median;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `place.step`.
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    /// Seconds since the recorder was created (equal to `start_s` while open).
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The job the call belongs to.
    pub job: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans; see the module docs.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }
}

impl Spans {
    /// Tags the spans opened from now on with job `id`.
    pub fn set_job(&mut self, id: u64) {
        self.job = id;
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(self.spans.len() - 1);
        let out = f(self);
        let idx = self.open.pop().unwrap_or_default();
        self.spans[idx].end_s = self.now();
        out
    }

    /// Every recorded span.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Median duration of the spans called `name` (`NaN` if none).
    pub fn median_s(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    /// Summed self time of the spans called `name`.
    pub fn self_total_s(&self, name: &str) -> f64 {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_s();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.dur_s() - c)
            .sum()
    }

    /// All spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_s, s.end_s, s.job
            );
        }
        out
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: std::time::Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn self_time_excludes_children() {
        let ms = std::time::Duration::from_millis(1);
        let mut s = Spans::default();
        s.set_job(7);
        s.span("outer", |s| {
            spin(2 * ms);
            s.span("inner", |_| spin(3 * ms));
            s.span("inner", |_| spin(3 * ms));
        });
        assert_eq!(s.count("inner"), 2);
        let outer = s.durations("outer")[0];
        let inner: f64 = s.durations("inner").iter().sum();
        assert!((s.self_total_s("outer") - (outer - inner)).abs() < 1e-12);
        assert!(s.self_total_s("outer") >= 0.002);
        assert_eq!(s.self_total_s("inner"), inner);
        let spans = s.all();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|sp| sp.job == 7 && sp.end_s >= sp.start_s));
        assert_eq!(s.to_jsonl().lines().count(), 3);
    }
}
