//! Plain-text/CSV reporting for the experiment binary.

use std::fmt::Write as _;

/// A simple rectangular results table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (figure id).
    pub(crate) title: String,
    /// Column headers.
    pub(crate) headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-text lines printed after the table (Figure 1's crossover).
    pub(crate) notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders as aligned plain text.
    pub(crate) fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:<width$}  ", c, width = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// The table's block of the experiment output: text or CSV, a blank
    /// line, then the notes one per line.
    pub fn render(&self, csv: bool) -> String {
        let mut out = if csv { self.to_csv() } else { self.to_text() };
        out.push('\n');
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        out
    }

    /// Renders as CSV.
    pub(crate) fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Formats seconds with sensible precision.
pub fn secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats dollars.
pub fn usd(v: f64) -> String {
    format!("{v:.4}")
}

/// Mean and sample standard deviation.
pub(crate) fn mean_sd(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "no samples");
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_text_and_csv() {
        let mut t = Table::new("Fig X", &["a", "b"]);
        t.push(vec!["1".into(), "two, quoted".into()]);
        let text = t.to_text();
        assert!(text.contains("Fig X") && text.contains("two, quoted"));
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("\"two, quoted\""));
        t.notes.push("a note".into());
        assert_eq!(t.render(false), format!("{text}\na note\n"));
        assert_eq!(t.render(true), format!("{csv}\na note\n"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_row_panics() {
        Table::new("t", &["a", "b"]).push(vec!["only one".into()]);
    }

    #[test]
    fn stats_helpers() {
        let (m, sd) = mean_sd(&[2.0, 4.0, 6.0]);
        assert_eq!(m, 4.0);
        assert!((sd - 2.0).abs() < 1e-12);
        let (m1, sd1) = mean_sd(&[5.0]);
        assert_eq!((m1, sd1), (5.0, 0.0));
        assert_eq!(secs(123.4), "123");
        assert_eq!(secs(12.34), "12.3");
        assert_eq!(secs(1.234), "1.23");
    }
}
