//! Text-table, CSV and JSON rendering for figure reproductions, plus the
//! end-of-run cache/job summary.

use crate::runner::SweepCounters;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Render the result-store and orchestrator counters the way the CLI
/// prints them after a run.
pub fn render_store_summary(c: &SweepCounters) -> String {
    let mut out = String::new();
    match &c.store {
        Some(s) => {
            let lookups = s.hits + s.misses;
            let warm = if lookups > 0 {
                100.0 * s.hits as f64 / lookups as f64
            } else {
                0.0
            };
            writeln!(
                out,
                "store: {} hits / {} misses ({warm:.1}% warm), {} records written, {} quarantined",
                s.hits, s.misses, s.puts, s.quarantined
            )
            .unwrap();
        }
        None => writeln!(out, "store: disabled").unwrap(),
    }
    writeln!(
        out,
        "jobs:  {} simulated, {} failed",
        c.orch.completed, c.orch.failures
    )
    .unwrap();
    if c.exec.executed > 0 {
        writeln!(
            out,
            "exec:  {} workers, {} jobs executed",
            c.exec.workers, c.exec.executed
        )
        .unwrap();
    }
    // Only a `--batch` sweep shares streams, so per-config summaries are
    // unchanged byte-for-byte.
    if let Some(s) = &c.streams {
        writeln!(
            out,
            "streams: {} decoded, at most {} held at once",
            s.decoded, s.peak_held
        )
        .unwrap();
    }
    // Likewise only a sampled sweep captures checkpoints.
    if let Some(n) = c.captures {
        writeln!(out, "checkpoints: {n} captured").unwrap();
    }
    out
}

/// A rendered figure: column headers plus labeled rows of values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    pub title: String,
    pub row_label: String,
    pub columns: Vec<String>,
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    pub fn new(title: &str, row_label: &str, columns: Vec<String>) -> Self {
        Table {
            title: title.to_string(),
            row_label: row_label.to_string(),
            columns,
            rows: Vec::new(),
        }
    }

    pub fn push(&mut self, label: &str, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.to_string(), values));
    }

    /// Append a row of per-column arithmetic means of the existing rows.
    pub fn push_average(&mut self, label: &str) {
        if self.rows.is_empty() {
            return;
        }
        let n = self.rows.len() as f64;
        let means: Vec<f64> = (0..self.columns.len())
            .map(|c| self.rows.iter().map(|(_, v)| v[c]).sum::<f64>() / n)
            .collect();
        self.push(label, means);
    }

    /// Column values for a named column.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let i = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|(_, v)| v[i]).collect())
    }

    /// Value at (row label, column name).
    pub fn value(&self, row: &str, col: &str) -> Option<f64> {
        let ci = self.columns.iter().position(|c| c == col)?;
        self.rows.iter().find(|(l, _)| l == row).map(|(_, v)| v[ci])
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(self.row_label.len()))
            .max()
            .unwrap_or(8)
            .max(4);
        let col_w = self
            .columns
            .iter()
            .map(|c| c.len().max(7))
            .collect::<Vec<_>>();
        writeln!(out, "## {}", self.title).unwrap();
        write!(out, "{:<label_w$}", self.row_label).unwrap();
        for (c, w) in self.columns.iter().zip(&col_w) {
            write!(out, "  {c:>w$}").unwrap();
        }
        out.push('\n');
        write!(out, "{:-<label_w$}", "").unwrap();
        for w in &col_w {
            write!(out, "  {:->w$}", "").unwrap();
        }
        out.push('\n');
        for (label, vals) in &self.rows {
            write!(out, "{label:<label_w$}").unwrap();
            for (v, w) in vals.iter().zip(&col_w) {
                write!(out, "  {v:>w$.3}").unwrap();
            }
            out.push('\n');
        }
        out
    }

    /// Render one column as a horizontal ASCII bar chart (the closest a
    /// terminal gets to the paper's figures).
    pub fn render_bars(&self, column: &str) -> String {
        let mut out = String::new();
        let Some(values) = self.column(column) else {
            return format!("(no column named {column})\n");
        };
        let max = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .max()
            .unwrap_or(8)
            .max(4);
        writeln!(out, "## {} — {}", self.title, column).unwrap();
        const WIDTH: usize = 48;
        for ((label, _), v) in self.rows.iter().zip(&values) {
            let filled = ((v / max) * WIDTH as f64).round() as usize;
            writeln!(
                out,
                "{label:<label_w$}  {:<WIDTH$}  {v:.3}",
                "█".repeat(filled.min(WIDTH))
            )
            .unwrap();
        }
        out
    }

    /// Render every column as bars, one block per column.
    pub fn render_all_bars(&self) -> String {
        self.columns
            .iter()
            .map(|c| self.render_bars(c))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Serialize as pretty JSON (machine-readable artifact export).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("table serializes")
    }

    /// Parse a table back from JSON.
    pub fn from_json(s: &str) -> Result<Table, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Diff against another table (same shape): returns rows of relative
    /// deviations `(b - a) / a`, plus a list of cells whose |deviation|
    /// exceeds `tolerance`. Used by `csmt-experiments compare` to detect
    /// drift between two recorded artifact runs.
    pub fn diff(&self, other: &Table, tolerance: f64) -> (Table, Vec<String>) {
        let mut out = Table::new(
            &format!("diff: {} vs {}", self.title, other.title),
            &self.row_label,
            self.columns.clone(),
        );
        let mut violations = Vec::new();
        for (label, vals) in &self.rows {
            let Some(brow) = other.rows.iter().find(|(l, _)| l == label) else {
                violations.push(format!("row '{label}' missing from second table"));
                continue;
            };
            let devs: Vec<f64> = vals
                .iter()
                .zip(&brow.1)
                .map(|(a, b)| if a.abs() < 1e-12 { 0.0 } else { (b - a) / a })
                .collect();
            for ((c, d), (a, b)) in self.columns.iter().zip(&devs).zip(vals.iter().zip(&brow.1)) {
                if d.abs() > tolerance {
                    violations.push(format!(
                        "{label}/{c}: {a:.4} -> {b:.4} ({:+.1}%)",
                        d * 100.0
                    ));
                }
            }
            out.push(label, devs);
        }
        (out, violations)
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        write!(out, "{}", self.row_label).unwrap();
        for c in &self.columns {
            write!(out, ",{c}").unwrap();
        }
        out.push('\n');
        for (label, vals) in &self.rows {
            write!(out, "{label}").unwrap();
            for v in vals {
                write!(out, ",{v:.6}").unwrap();
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig X", "category", vec!["A".into(), "B".into()]);
        t.push("one", vec![1.0, 2.0]);
        t.push("two", vec![3.0, 4.0]);
        t
    }

    #[test]
    fn averages_are_columnwise() {
        let mut t = sample();
        t.push_average("AVG");
        assert_eq!(t.value("AVG", "A"), Some(2.0));
        assert_eq!(t.value("AVG", "B"), Some(3.0));
    }

    #[test]
    fn lookup_by_names() {
        let t = sample();
        assert_eq!(t.value("two", "B"), Some(4.0));
        assert_eq!(t.value("two", "C"), None);
        assert_eq!(t.column("A"), Some(vec![1.0, 3.0]));
    }

    #[test]
    fn render_contains_everything() {
        let s = sample().render();
        assert!(s.contains("Fig X"));
        assert!(s.contains("one"));
        assert!(s.contains("4.000"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "category,A,B");
        assert!(lines[2].starts_with("two,3.0"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = sample();
        t.push("bad", vec![1.0]);
    }

    #[test]
    fn bars_scale_to_maximum() {
        let t = sample();
        let bars = t.render_bars("B");
        // The 4.0 row must have a strictly longer bar than the 2.0 row.
        let lines: Vec<&str> = bars.lines().collect();
        let count = |l: &str| l.matches('█').count();
        assert!(count(lines[2]) > count(lines[1]), "{bars}");
        assert!(count(lines[2]) <= 48);
        // Unknown column degrades gracefully.
        assert!(t.render_bars("nope").contains("no column"));
    }

    #[test]
    fn all_bars_covers_every_column() {
        let t = sample();
        let all = t.render_all_bars();
        assert!(all.contains("— A"));
        assert!(all.contains("— B"));
    }

    #[test]
    fn diff_flags_only_real_drift() {
        let a = sample();
        let mut b = sample();
        b.rows[1].1[1] = 4.5; // +12.5% drift on two/B
        let (d, violations) = a.diff(&b, 0.05);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("two/B"));
        assert!((d.value("two", "B").unwrap() - 0.125).abs() < 1e-9);
        assert_eq!(d.value("one", "A"), Some(0.0));
        // Missing rows are reported, not panicked on.
        let empty = Table::new("x", "category", vec!["A".into(), "B".into()]);
        let (_, v2) = a.diff(&empty, 0.05);
        assert_eq!(v2.len(), 2);
    }

    #[test]
    fn json_round_trips() {
        let t = sample();
        let back = Table::from_json(&t.to_json()).unwrap();
        assert_eq!(back.title, t.title);
        assert_eq!(back.columns, t.columns);
        assert_eq!(back.rows, t.rows);
    }
}
