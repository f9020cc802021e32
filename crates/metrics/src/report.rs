//! Plain-text table rendering for the bench harness.
//!
//! Every evaluation table prints the rows/series the paper reports; this
//! module keeps the formatting consistent and aligned.

use std::fmt;

/// A titled, column-aligned text table.
///
/// ```
/// use harmonia_metrics::Table;
/// let mut t = Table::new("Demo", &["name", "value"]);
/// t.row(["a", "1"]);
/// t.row(["long-name", "2"]);
/// let s = t.to_string();
/// assert!(s.contains("Demo"));
/// assert!(s.contains("long-name"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows are
    /// truncated to the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// Formats a float with sensible precision for table cells.
pub fn fmt_f64(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Formats a percentage cell.
pub fn fmt_pct(v: f64) -> String {
    format!("{v:.2}%")
}

/// Formats an `N.Nx` multiplier cell.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_pads_to_widest_cell() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(["xxxx", "1"]);
        t.row(["y", "22"]);
        let out = t.to_string();
        let lines: Vec<&str> = out.lines().collect();
        // Header 'a' padded to 4 chars before 'b' column.
        assert!(lines[1].starts_with("a     b"));
        assert!(lines[3].starts_with("xxxx  1"));
    }

    #[test]
    fn short_rows_padded_long_rows_truncated() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(["only-one"]);
        t.row(["1", "2", "3"]);
        assert_eq!(t.len(), 2);
        let out = t.to_string();
        assert!(!out.contains('3'));
    }

    #[test]
    fn helpers() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_pct(12.3456), "12.35%");
        assert_eq!(fmt_x(19.84), "19.8x");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new("Empty", &["x"]);
        assert!(t.is_empty());
        assert!(t.to_string().contains("Empty"));
    }
}
