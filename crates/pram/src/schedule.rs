//! Brent-scheduled timelines: executing a recorded phase log on `p`
//! virtual processors.
//!
//! [`Timeline::schedule`] assigns every layer of every phase its start
//! and end step under the exact layer-by-layer Brent schedule (all `w`
//! operations of a layer are spread over `ceil(w / p)` steps). The result
//! supports utilisation queries and an ASCII Gantt rendering used by the
//! E9 experiment discussion.

use serde::{Deserialize, Serialize};

use crate::machine::Pram;

/// One scheduled phase on the timeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduledPhase {
    /// Phase label.
    pub name: String,
    /// First time step (inclusive).
    pub start: u64,
    /// One past the last time step.
    pub end: u64,
    /// Total operations executed in the phase.
    pub work: u64,
}

/// A full schedule of a machine's phase log on `p` processors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Timeline {
    /// Processor count the timeline was scheduled for.
    pub processors: u64,
    /// The phases, in execution order.
    pub phases: Vec<ScheduledPhase>,
    /// Total steps.
    pub makespan: u64,
    /// Total operations.
    pub total_work: u64,
}

impl Timeline {
    /// Schedule `pram`'s phase log on `p` processors (exact Brent, layer
    /// by layer).
    pub fn schedule(pram: &Pram, p: u64) -> Timeline {
        assert!(p >= 1);
        let mut t = 0u64;
        let mut phases = Vec::with_capacity(pram.phases().len());
        let mut total_work = 0u64;
        for ph in pram.phases() {
            let start = t;
            for &layer in &ph.layers {
                t += layer.div_ceil(p);
            }
            phases.push(ScheduledPhase {
                name: ph.name.clone(),
                start,
                end: t,
                work: ph.work,
            });
            total_work += ph.work;
        }
        Timeline {
            processors: p,
            phases,
            makespan: t,
            total_work,
        }
    }

    /// Average processor utilisation over the makespan: `W / (p * T)`.
    pub fn utilisation(&self) -> f64 {
        if self.makespan == 0 {
            return 1.0;
        }
        self.total_work as f64 / (self.processors as f64 * self.makespan as f64)
    }

    /// Aggregate scheduled spans by phase-name prefix (before `'/'`).
    pub fn spans_by_operation(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        for ph in &self.phases {
            let key = ph.name.split('/').next().unwrap_or(&ph.name).to_string();
            let dur = ph.end - ph.start;
            match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, d)) => *d += dur,
                None => out.push((key, dur)),
            }
        }
        out
    }

    /// Render an ASCII Gantt chart (one row per operation group),
    /// `width` characters across the makespan.
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.max(10);
        let groups = self.spans_by_operation();
        let mut rows: Vec<(String, Vec<bool>)> = groups
            .iter()
            .map(|(k, _)| (k.clone(), vec![false; width]))
            .collect();
        let scale = |step: u64| -> usize {
            if self.makespan == 0 {
                0
            } else {
                ((step as u128 * width as u128) / self.makespan.max(1) as u128) as usize
            }
        };
        for ph in &self.phases {
            let key = ph.name.split('/').next().unwrap_or(&ph.name);
            if let Some((_, cells)) = rows.iter_mut().find(|(k, _)| k == key) {
                let a = scale(ph.start);
                let b = scale(ph.end).min(width.saturating_sub(1));
                for cell in cells.iter_mut().take(b + 1).skip(a) {
                    *cell = true;
                }
            }
        }
        let label_w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, cells) in rows {
            out.push_str(&format!("{k:>label_w$} |"));
            for c in cells {
                out.push(if c { '#' } else { ' ' });
            }
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "{:>label_w$}  0 .. {} steps on p = {} ({} ops, {:.1}% utilised)\n",
            "",
            self.makespan,
            self.processors,
            self.total_work,
            100.0 * self.utilisation()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pram() -> Pram {
        let mut pram = Pram::new("t");
        pram.map_phase("a/x", 100);
        pram.reduce_phase("b/y", 10, 16);
        pram.map_phase("a/z", 50);
        pram
    }

    #[test]
    fn makespan_matches_brent_time() {
        let pram = sample_pram();
        for p in [1u64, 3, 16, 1000] {
            let tl = Timeline::schedule(&pram, p);
            assert_eq!(tl.makespan, pram.brent_time(p), "p={p}");
            assert_eq!(tl.total_work, pram.metrics().work);
        }
    }

    #[test]
    fn phases_are_contiguous_and_ordered() {
        let tl = Timeline::schedule(&sample_pram(), 4);
        let mut prev_end = 0;
        for ph in &tl.phases {
            assert_eq!(ph.start, prev_end);
            assert!(ph.end >= ph.start);
            prev_end = ph.end;
        }
        assert_eq!(prev_end, tl.makespan);
    }

    #[test]
    fn utilisation_is_one_on_single_processor() {
        let tl = Timeline::schedule(&sample_pram(), 1);
        assert!((tl.utilisation() - 1.0).abs() < 1e-12);
        // More processors -> lower or equal utilisation.
        let tl16 = Timeline::schedule(&sample_pram(), 16);
        assert!(tl16.utilisation() <= 1.0 + 1e-12);
    }

    #[test]
    fn spans_group_by_prefix() {
        let tl = Timeline::schedule(&sample_pram(), 2);
        let spans = tl.spans_by_operation();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].0, "a");
        assert_eq!(spans[1].0, "b");
        let total: u64 = spans.iter().map(|(_, d)| d).sum();
        assert_eq!(total, tl.makespan);
    }

    #[test]
    fn gantt_renders_all_groups() {
        let tl = Timeline::schedule(&sample_pram(), 2);
        let g = tl.render_gantt(40);
        assert!(g.contains("a |") || g.contains("a|") || g.contains('a'));
        assert!(g.contains('#'));
        assert!(g.contains("steps on p = 2"));
    }

    #[test]
    fn empty_machine_timeline() {
        let pram = Pram::new("empty");
        let tl = Timeline::schedule(&pram, 8);
        assert_eq!(tl.makespan, 0);
        assert!((tl.utilisation() - 1.0).abs() < 1e-12);
    }
}
