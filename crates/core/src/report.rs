//! Plain-text tables and CSV emission for the experiment harness.

use std::fmt;

/// A simple column-aligned text table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn push_row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Serialises as CSV (RFC-4180-style quoting for cells containing
    /// commas or quotes).
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let mut write_row = |row: &[String]| {
            let line: Vec<String> = row.iter().map(|c| cell(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.headers);
        for row in &self.rows {
            write_row(row);
        }
        out
    }

    /// Serialises as a JSON array of objects, one per row, keyed by the
    /// column headers. Keys keep header order, cells stay strings, and
    /// output is byte-deterministic — the golden-figure snapshot tests
    /// compare this form verbatim.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (r, row) in self.rows.iter().enumerate() {
            out.push_str("  {");
            for (i, (h, cell)) in self.headers.iter().zip(row).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                lowvolt_obs::push_json_str(&mut out, h);
                out.push_str(": ");
                lowvolt_obs::push_json_str(&mut out, cell);
            }
            out.push('}');
            if r + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out.push('\n');
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            for (i, cell) in row.iter().enumerate() {
                if i + 1 == cols {
                    writeln!(f, "{cell:>w$}", w = widths[i])?;
                } else {
                    write!(f, "{cell:>w$}  ", w = widths[i])?;
                }
            }
            Ok(())
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float in engineering-friendly short form.
#[must_use]
pub fn fmt_sig(value: f64, digits: usize) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    let magnitude = value.abs().log10().floor() as i32;
    if (-3..6).contains(&magnitude) {
        let decimals = (digits as i32 - 1 - magnitude).max(0) as usize;
        format!("{value:.decimals$}")
    } else {
        format!("{value:.prec$e}", prec = digits.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(["name", "value"]);
        t.push_row(["adder", "1.5"]);
        t.push_row(["multiplier", "23.25"]);
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        assert!(lines[3].contains("multiplier"));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn csv_quotes_when_needed() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["plain", "has,comma"]);
        t.push_row(["has\"quote", "x"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
        assert!(csv.starts_with("a,b\n"));
    }

    #[test]
    fn json_rows_are_keyed_by_headers() {
        let mut t = Table::new(["name", "value"]);
        t.push_row(["adder", "1.5"]);
        t.push_row(["with \"quote\"", "a\nb"]);
        let json = t.to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("{\"name\": \"adder\", \"value\": \"1.5\"}"));
        assert!(json.contains("\\\"quote\\\""));
        assert!(json.contains("a\\nb"));
        // Empty tables are a valid, empty array.
        assert_eq!(Table::new(["a"]).to_json(), "[\n]\n");
    }

    #[test]
    fn sig_formatting() {
        assert_eq!(fmt_sig(0.0, 3), "0");
        assert_eq!(fmt_sig(1.234, 3), "1.23");
        assert_eq!(fmt_sig(123.4, 3), "123");
        assert_eq!(fmt_sig(0.00123, 3), "0.00123");
        assert!(fmt_sig(1.23e-9, 3).contains('e'));
        assert!(fmt_sig(1.23e9, 3).contains('e'));
    }
}
