//! Plain-text table rendering for the benchmark binaries that regenerate
//! the paper's tables and figures.

/// A simple monospace table with a header row.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers; the first column is
    /// left-aligned, the rest right-aligned (the common numeric layout).
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; missing cells render empty, extra cells are dropped.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Table {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Render to a string with a separator under the header.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}", w = widths[i]));
                } else {
                    line.push_str(&format!("  {cell:>w$}", w = widths[i]));
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a fraction as a signed percentage with one decimal, e.g. `+12.3%`.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Format a `(lo, hi)` fraction interval as a percentage range.
pub fn pct_ci(ci: (f64, f64)) -> String {
    format!("[{:+.1}%, {:+.1}%]", ci.0 * 100.0, ci.1 * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut t = Table::new(vec!["metric", "effect"]);
        t.row(vec!["throughput", "+12.0%"]);
        t.row(vec!["rtt", "-24.0%"]);
        let s = t.render();
        assert!(s.contains("metric"));
        assert!(s.contains("throughput"));
        assert!(s.lines().count() == 4);
        // Numeric column right-aligned: both values end at same column.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn pads_missing_cells() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        let s = t.render();
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.123), "+12.3%");
        assert_eq!(pct(-0.05), "-5.0%");
        assert_eq!(pct_ci((-0.01, 0.02)), "[-1.0%, +2.0%]");
    }
}
