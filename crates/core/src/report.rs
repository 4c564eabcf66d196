//! Experiment reporting: plain-text tables plus the structured metrics
//! reports emitted by the evaluation layer ([`EvalReport`]) and their
//! table/JSON renderings.

use std::fmt;
use sushi_sim::{BatchReport, HotCellEntry, Json};

/// A simple fixed-width text table.
///
/// # Examples
///
/// ```
/// use sushi_core::TextTable;
///
/// let t = TextTable::new(&["chip", "GSOPS"])
///     .row(&["SUSHI", "1355"])
///     .row(&["TrueNorth", "58"]);
/// let s = t.to_string();
/// assert!(s.contains("SUSHI"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(mut self, cells: &[&str]) -> Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|s| (*s).to_owned()).collect());
        self
    }

    /// Appends a row of owned strings (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row_owned(mut self, cells: Vec<String>) -> Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, "| {cell:<w$} ")?;
            }
            writeln!(f, "|")
        };
        render(f, &self.headers)?;
        for (i, w) in widths.iter().enumerate() {
            write!(f, "|{}", "-".repeat(w + 2))?;
            if i + 1 == widths.len() {
                writeln!(f, "|")?;
            }
        }
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

/// Metrics for one behavioural-evaluation worker (one range of the chunk
/// plan).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalWorkerMetrics {
    /// Worker index (chunk order).
    pub worker: usize,
    /// Samples this worker inferred.
    pub samples: usize,
    /// Busy wall time, seconds.
    pub wall_s: f64,
    /// Samples per wall second.
    pub samples_per_s: f64,
}

impl EvalWorkerMetrics {
    /// JSON form of the metrics.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("worker", Json::UInt(self.worker as u64)),
            ("samples", Json::UInt(self.samples as u64)),
            ("wall_s", Json::Num(self.wall_s)),
            ("samples_per_s", Json::Num(self.samples_per_s)),
        ])
    }
}

/// The metrics report of one [`SushiChip::evaluate`](crate::SushiChip::evaluate)
/// call, collected when [`EvalOptions::report`](sushi_sim::EvalOptions) is
/// on: end-to-end and per-worker inference throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Samples evaluated.
    pub samples: usize,
    /// End-to-end wall time, seconds.
    pub wall_s: f64,
    /// Samples per wall second.
    pub samples_per_s: f64,
    /// Mean worker busy time over the slowest worker's busy time.
    pub utilization: f64,
    /// Per-worker breakdown, chunk order.
    pub workers: Vec<EvalWorkerMetrics>,
}

impl EvalReport {
    /// JSON form of the report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("samples", Json::UInt(self.samples as u64)),
            ("wall_s", Json::Num(self.wall_s)),
            ("samples_per_s", Json::Num(self.samples_per_s)),
            ("utilization", Json::Num(self.utilization)),
            (
                "workers",
                Json::Arr(
                    self.workers
                        .iter()
                        .map(EvalWorkerMetrics::to_json)
                        .collect(),
                ),
            ),
        ])
    }
}

/// Renders a hot-cell top-N as a text table (label, kind, deliveries,
/// emissions, energy).
pub fn hot_cell_table(hot: &[HotCellEntry]) -> TextTable {
    let mut t = TextTable::new(&["cell", "kind", "deliveries", "emissions", "energy_pj"]);
    for h in hot {
        t = t.row_owned(vec![
            h.label.clone(),
            h.kind.to_string(),
            h.deliveries.to_string(),
            h.emissions.to_string(),
            format!("{:.4}", h.energy_pj),
        ]);
    }
    t
}

/// Renders a [`BatchReport`]'s per-worker metrics as a text table.
pub fn batch_worker_table(report: &BatchReport) -> TextTable {
    let mut t = TextTable::new(&["worker", "items", "events", "violations", "items/s"]);
    for w in &report.workers {
        t = t.row_owned(vec![
            w.worker.to_string(),
            w.items.to_string(),
            w.events_delivered.to_string(),
            w.violations.to_string(),
            format!("{:.1}", w.items_per_s),
        ]);
    }
    t
}

/// Renders an [`EvalReport`]'s per-worker metrics as a text table.
pub fn eval_worker_table(report: &EvalReport) -> TextTable {
    let mut t = TextTable::new(&["worker", "samples", "samples/s"]);
    for w in &report.workers {
        t = t.row_owned(vec![
            w.worker.to_string(),
            w.samples.to_string(),
            format!("{:.1}", w.samples_per_s),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let t = TextTable::new(&["a", "long header"]).row(&["xxxxxxx", "1"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // All lines equally wide.
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[1].starts_with("|-"));
    }

    #[test]
    fn row_owned_works() {
        let t = TextTable::new(&["x"]).row_owned(vec!["42".to_owned()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_panics() {
        let _ = TextTable::new(&["a", "b"]).row(&["only one"]);
    }

    #[test]
    fn eval_report_serializes_and_renders() {
        let report = EvalReport {
            samples: 12,
            wall_s: 0.5,
            samples_per_s: 24.0,
            utilization: 0.9,
            workers: vec![EvalWorkerMetrics {
                worker: 0,
                samples: 12,
                wall_s: 0.5,
                samples_per_s: 24.0,
            }],
        };
        let parsed = Json::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(parsed.get("samples").unwrap().as_u64(), Some(12));
        assert_eq!(parsed.get("workers").unwrap().as_arr().unwrap().len(), 1);
        let table = eval_worker_table(&report).to_string();
        assert!(table.contains("samples/s"), "{table}");
    }
}
