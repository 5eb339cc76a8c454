//! Lightweight experiment tables: accumulate rows, print aligned text /
//! markdown, export JSON.

use serde_json::Value;
use std::fmt::Write as _;

/// A table of experiment results with a fixed column set.
///
/// JSON export goes through [`tables_to_json`] explicitly; the offline
/// `serde` stand-in cannot derive working serialisation.
#[derive(Debug, Clone)]
pub struct ExperimentTable {
    /// Table title (experiment identifier, e.g. "E1 / Theorem 2 size").
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows; each row has exactly one value per column.
    pub rows: Vec<Vec<Value>>,
}

impl ExperimentTable {
    /// Creates an empty table with the given title and columns.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        ExperimentTable {
            title: title.into(),
            columns: columns.iter().map(|c| (*c).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the number of values differs from the number of columns.
    pub fn push_row(&mut self, values: Vec<Value>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row has {} values but the table has {} columns",
            values.len(),
            self.columns.len()
        );
        self.rows.push(values);
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(format_value).collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }

    /// The table as a JSON value tree.
    pub(crate) fn to_value(&self) -> Value {
        Value::Object(vec![
            ("title".to_string(), Value::from(self.title.clone())),
            (
                "columns".to_string(),
                Value::Array(
                    self.columns
                        .iter()
                        .map(|c| Value::from(c.clone()))
                        .collect(),
                ),
            ),
            (
                "rows".to_string(),
                Value::Array(
                    self.rows
                        .iter()
                        .map(|row| Value::Array(row.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

fn format_value(value: &Value) -> String {
    match value {
        Value::Number(n) => {
            if let Some(f) = n.as_f64() {
                if n.is_f64() {
                    format!("{f:.3}")
                } else {
                    n.to_string()
                }
            } else {
                n.to_string()
            }
        }
        Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Combines several tables into one pretty-printed JSON document
/// (an array of table objects), the format of the committed
/// `BENCH_*.json` result files.
pub fn tables_to_json(tables: &[&ExperimentTable]) -> String {
    let doc = Value::Array(tables.iter().map(|t| t.to_value()).collect());
    serde_json::to_string_pretty(&doc).expect("experiment tables are always serialisable")
}

/// Convenience macro-free helpers for building JSON cell values.
pub fn cell_u64(value: u64) -> Value {
    Value::from(value)
}

/// A floating-point cell.
pub fn cell_f64(value: f64) -> Value {
    Value::from(value)
}

/// A string cell.
pub fn cell_str(value: impl Into<String>) -> Value {
    Value::from(value.into())
}

/// Fits the exponent `b` of a power law `y = a·x^b` by least squares in
/// log–log space. Returns `None` if fewer than two valid points are given.
pub fn fit_power_law_exponent(points: &[(f64, f64)]) -> Option<f64> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let n = logs.len() as f64;
    let sum_x: f64 = logs.iter().map(|(x, _)| x).sum();
    let sum_y: f64 = logs.iter().map(|(_, y)| y).sum();
    let sum_xy: f64 = logs.iter().map(|(x, y)| x * y).sum();
    let sum_xx: f64 = logs.iter().map(|(x, _)| x * x).sum();
    let denom = n * sum_xx - sum_x * sum_x;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sum_xy - sum_x * sum_y) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_has_header_separator_and_rows() {
        let mut table = ExperimentTable::new("E1", &["n", "edges"]);
        table.push_row(vec![cell_u64(128), cell_u64(400)]);
        table.push_row(vec![cell_u64(256), cell_f64(812.5)]);
        let md = table.to_markdown();
        assert!(md.contains("### E1"));
        assert!(md.contains("| n | edges |"));
        assert!(md.contains("| 128 | 400 |"));
        assert!(md.contains("812.500"));
        assert_eq!(md.lines().count(), 5);
        assert!(tables_to_json(&[&table]).contains("\"title\""));
    }

    #[test]
    #[should_panic(expected = "row has 1 values")]
    fn mismatched_row_width_panics() {
        let mut table = ExperimentTable::new("bad", &["a", "b"]);
        table.push_row(vec![cell_u64(1)]);
    }

    #[test]
    fn power_law_fit_recovers_exponent() {
        let points: Vec<(f64, f64)> = (1..=8)
            .map(|i| (f64::from(i) * 100.0, 3.0 * (f64::from(i) * 100.0).powf(1.4)))
            .collect();
        let exponent = fit_power_law_exponent(&points).unwrap();
        assert!((exponent - 1.4).abs() < 1e-9);
        assert!(fit_power_law_exponent(&[(1.0, 2.0)]).is_none());
        assert!(fit_power_law_exponent(&[]).is_none());
    }
}
