//! Structured experiment output: rows of named columns, rendered as an
//! aligned text table and serializable to JSON.

use crate::json;
use crate::json::{Map, Value};

/// The result of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id (e.g. "fig11").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Ordered column names.
    pub columns: Vec<String>,
    /// Data rows (each a JSON object keyed by column name).
    pub rows: Vec<Map>,
    /// Free-form observations (shape checks, paper comparison notes).
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// An empty report with the given id/title and columns.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row from `(column, value)` pairs; columns not in the
    /// header are appended to it.
    pub fn push_row(&mut self, pairs: &[(&str, Value)]) {
        let mut row = Map::new();
        for (k, v) in pairs {
            if !self.columns.iter().any(|c| c == k) {
                self.columns.push(k.to_string());
            }
            row.insert(k.to_string(), v.clone());
        }
        self.rows.push(row);
    }

    /// Appends a row from owned `(column, value)` pairs — for columns
    /// whose labels are built at runtime (rate grids and the like).
    /// `push_row` needs `&'static str` keys; routing a formatted label
    /// through `Box::leak` to satisfy that lifetime leaks one allocation
    /// per row for the rest of the process, which adds up over a long
    /// `all` run.
    pub fn push_row_owned(&mut self, pairs: Vec<(String, Value)>) {
        let mut row = Map::new();
        for (k, v) in pairs {
            if !self.columns.contains(&k) {
                self.columns.push(k.clone());
            }
            row.insert(k, v);
        }
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders an aligned text table with the notes below.
    pub fn render_text(&self) -> String {
        let fmt_val = |v: &Value| -> String {
            match (v, v.as_f64()) {
                (Value::String(s), _) => s.clone(),
                (_, Some(f)) if f.fract() == 0.0 && f.abs() < 1e15 => format!("{f}"),
                (_, Some(f)) => format!("{f:.4}"),
                (other, None) => other.to_string(),
            }
        };
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                self.columns
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let s = row.get(c).map(&fmt_val).unwrap_or_default();
                        widths[i] = widths[i].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        for row in rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, s)| format!("{:>w$}", s, w = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Checks the report for unusable output: no rows, an empty row
    /// object, or any null cell. `round4(f64::NAN)` / infinities
    /// serialize as `Value::Null`, so this also catches NaN results.
    pub fn validate(&self) -> Result<(), String> {
        if self.rows.is_empty() {
            return Err(format!("{}: report has no rows", self.id));
        }
        for (i, row) in self.rows.iter().enumerate() {
            if row.is_empty() {
                return Err(format!("{}: row {i} is empty", self.id));
            }
            for (k, v) in row {
                if v.is_null() {
                    return Err(format!(
                        "{}: row {i} column {k:?} is null (NaN/inf?)",
                        self.id
                    ));
                }
            }
        }
        Ok(())
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        json::to_string_pretty(&json!({
            "id": self.id.as_str(),
            "title": self.title.as_str(),
            "columns": self.columns.clone(),
            "rows": self.rows.clone(),
            "notes": self.notes.clone(),
        }))
    }
}

/// Series marker letter for index `i` (A..Z, wrapping).
fn series_marker(i: usize) -> char {
    // i % 26 < 26, so the cast is exact.
    #[allow(clippy::cast_possible_truncation)]
    let off = (i % 26) as u8;
    char::from(b'A' + off)
}

impl ExperimentReport {
    /// Renders a quick ASCII line chart of `y_cols` against `x_col`
    /// (one letter-coded series per column), for terminal inspection of
    /// sweep shapes without leaving the harness.
    pub fn render_ascii_chart(&self, x_col: &str, y_cols: &[&str]) -> String {
        const HEIGHT: usize = 16;
        let xs: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                r.get(x_col)
                    .map(|v| match v {
                        Value::String(s) => s.clone(),
                        other => other.to_string(),
                    })
                    .unwrap_or_default()
            })
            .collect();
        let series: Vec<(char, Vec<Option<f64>>)> = y_cols
            .iter()
            .enumerate()
            .map(|(i, col)| {
                let marker = series_marker(i);
                let ys = self
                    .rows
                    .iter()
                    .map(|r| r.get(*col).and_then(|v| v.as_f64()))
                    .collect();
                (marker, ys)
            })
            .collect();
        let all: Vec<f64> = series
            .iter()
            .flat_map(|(_, ys)| ys.iter().flatten().copied())
            .collect();
        if all.is_empty() || self.rows.is_empty() {
            return String::from("(no numeric data to chart)\n");
        }
        let max = all.iter().cloned().fold(f64::MIN, f64::max);
        let min = 0f64.min(all.iter().cloned().fold(f64::MAX, f64::min));
        let span = (max - min).max(1e-12);
        let cols = self.rows.len();
        let mut grid = vec![vec![' '; cols]; HEIGHT];
        for (marker, ys) in &series {
            for (x, y) in ys.iter().enumerate() {
                if let Some(y) = y {
                    // y ≥ min, so the rounded offset is nonnegative; the
                    // `.min` on the next line clamps any overshoot.
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let row = ((y - min) / span * (HEIGHT - 1) as f64).round() as usize;
                    let row = HEIGHT - 1 - row.min(HEIGHT - 1);
                    grid[row][x] = if grid[row][x] == ' ' { *marker } else { '*' };
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{} — {} vs {} (top {:.3}, bottom {:.3})\n",
            self.id,
            y_cols.join(","),
            x_col,
            max,
            min
        ));
        for row in grid {
            out.push_str("  |");
            out.extend(row);
            out.push('\n');
        }
        out.push_str("  +");
        out.push_str(&"-".repeat(cols));
        out.push('\n');
        out.push_str(&format!("   x: {}\n", xs.join(" ")));
        for (i, col) in y_cols.iter().enumerate() {
            let marker = series_marker(i);
            out.push_str(&format!("   {marker} = {col}\n"));
        }
        out
    }
}

/// Rounds to 4 decimal places for stable, readable output.
pub fn round4(x: f64) -> Value {
    json!(rounded4(x))
}

/// `x` rounded to 4 decimal places, the number [`round4`] prints; notes
/// computed from it agree with the rows they sit under.
pub fn rounded4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Column-wise [`mean`] of equal-width rows: entry `j` is the mean of
/// every row's entry `j` (0 when there are no rows).
pub fn mean_columns<const N: usize>(rows: &[[f64; N]]) -> [f64; N] {
    std::array::from_fn(|j| mean(&rows.iter().map(|r| r[j]).collect::<Vec<_>>()))
}

/// Median of a slice (mean of middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let mut v = xs.to_vec();
    // Metric samples are finite, so `total_cmp` sorts them exactly as
    // `partial_cmp` did; it additionally gives NaN a defined order
    // instead of a panic.
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering() {
        let mut r = ExperimentReport::new("t", "demo", &["a", "b"]);
        r.push_row(&[("a", json!(1)), ("b", json!("x"))]);
        r.push_row(&[("a", json!(2.5)), ("b", json!("yy")), ("c", json!(3))]);
        r.note("hello");
        let text = r.render_text();
        assert!(text.contains("demo"));
        assert!(text.contains("2.5000"));
        assert!(text.contains("note: hello"));
        assert_eq!(r.columns, vec!["a", "b", "c"]);
        let want = "{\n  \"columns\": [\n    \"a\",\n    \"b\",\n    \"c\"\n  ],\n  \
            \"id\": \"t\",\n  \"notes\": [\n    \"hello\"\n  ],\n  \"rows\": [\n    \
            {\n      \"a\": 1,\n      \"b\": \"x\"\n    },\n    {\n      \"a\": 2.5,\n      \
            \"b\": \"yy\",\n      \"c\": 3\n    }\n  ],\n  \"title\": \"demo\"\n}";
        assert_eq!(r.to_json(), want);
    }

    #[test]
    fn owned_rows_match_borrowed_rows() {
        let mut borrowed = ExperimentReport::new("t", "demo", &["a"]);
        borrowed.push_row(&[("a", json!(1)), ("dyn_col", json!(2.5))]);
        let mut owned = ExperimentReport::new("t", "demo", &["a"]);
        owned.push_row_owned(vec![
            ("a".to_string(), json!(1)),
            ("dyn_col".to_string(), json!(2.5)),
        ]);
        assert_eq!(borrowed.columns, owned.columns);
        assert_eq!(borrowed.rows, owned.rows);
        assert_eq!(borrowed.to_json(), owned.to_json());
    }

    #[test]
    fn ascii_chart_renders_series() {
        let mut r = ExperimentReport::new("c", "chart", &["x", "y1", "y2"]);
        for i in 0..8 {
            r.push_row(&[
                ("x", json!(i)),
                ("y1", json!(i as f64)),
                ("y2", json!((8 - i) as f64)),
            ]);
        }
        let chart = r.render_ascii_chart("x", &["y1", "y2"]);
        assert!(chart.contains("A = y1"));
        assert!(chart.contains("B = y2"));
        assert!(chart.contains('A') && chart.contains('B'));
        // Crossing point marked with '*'.
        assert!(chart.contains('*'), "{chart}");
        // Empty report degrades gracefully.
        let empty = ExperimentReport::new("e", "empty", &["x"]);
        assert!(empty
            .render_ascii_chart("x", &["y"])
            .contains("no numeric data"));
    }

    #[test]
    fn validate_flags_bad_reports() {
        let empty = ExperimentReport::new("e", "empty", &["x"]);
        assert!(empty.validate().is_err());
        let mut ok = ExperimentReport::new("ok", "fine", &["x"]);
        ok.push_row(&[("x", json!(1.0))]);
        assert!(ok.validate().is_ok());
        let mut nan = ExperimentReport::new("n", "nan", &["x"]);
        nan.push_row(&[("x", round4(f64::NAN))]);
        assert!(nan.validate().is_err());
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean_columns(&[[1.0, 4.0], [2.0, 6.0]]), [1.5, 5.0]);
        assert_eq!(mean_columns::<3>(&[]), [0.0; 3]);
        assert_eq!(round4(0.123456), json!(0.1235));
    }
}
