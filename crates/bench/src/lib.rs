//! # `mmt-bench` — the table/figure regeneration harness
//!
//! The `tables` binary (`cargo run -p mmt-bench --release --bin tables`)
//! re-runs every experiment in DESIGN.md's per-experiment index and prints
//! the rows/series the paper's evaluation reports. Host-time measurement
//! is not here: the repo benchmark lives in `benchmark/`.
//!
//! This library hosts the small shared pieces: an aligned-text table
//! printer and JSON result records (serialized with `mmt-telemetry`'s
//! dependency-free JSON writer) for EXPERIMENTS.md bookkeeping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mmt_telemetry::json::{self, JsonObject};
use std::io::Write;
use std::path::Path;

/// A rendered table: title, column headers, and stringified rows.
#[derive(Debug, Clone)]
pub struct TextTable {
    /// Table title (e.g. "E1 — flow-completion time").
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells (same arity as `columns`).
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> TextTable {
        TextTable {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n## {}\n\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.columns));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Render as a JSON object (`title`, `columns`, `rows`).
    pub fn to_json(&self) -> String {
        let quote = |s: &str| format!("\"{}\"", json::escape(s));
        let columns = json::array(self.columns.iter().map(|c| quote(c)).collect::<Vec<_>>());
        let rows = json::array(
            self.rows
                .iter()
                .map(|row| json::array(row.iter().map(|c| quote(c)).collect::<Vec<_>>()))
                .collect::<Vec<_>>(),
        );
        JsonObject::new()
            .str("title", &self.title)
            .raw("columns", &columns)
            .raw("rows", &rows)
            .finish()
    }

    /// Also persist as JSON under `dir/<slug>.json` (slug from the title).
    pub fn write_json(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let slug: String = self
            .title
            .chars()
            .map(|c| {
                if c.is_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>()
            .join("_");
        let path = dir.join(format!("{slug}.json"));
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", self.to_json())?;
        Ok(())
    }
}

/// Format a gigabit rate with 2 decimals.
pub fn gbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e9)
}

/// Format a ratio as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        // Leading blank line, title, blank, header, rule, rows.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1], "## demo");
        assert!(lines[3].starts_with("name     "), "{:?}", lines[3]);
        assert!(lines[5].starts_with("a        "), "{:?}", lines[5]);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = TextTable::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_rendering() {
        let mut t = TextTable::new("t\"x", &["a"]);
        t.row(vec!["1".into()]);
        assert_eq!(
            t.to_json(),
            "{\"title\":\"t\\\"x\",\"columns\":[\"a\"],\"rows\":[[\"1\"]]}"
        );
    }

    #[test]
    fn json_slug_and_write() {
        let dir = std::env::temp_dir().join("mmt_bench_test_json");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = TextTable::new("E1 — flow-completion time", &["x"]);
        t.row(vec!["1".into()]);
        t.write_json(&dir).unwrap();
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        let name = entries[0].as_ref().unwrap().file_name();
        assert!(name.to_string_lossy().starts_with("e1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn formatters() {
        assert_eq!(gbps(5.4e9), "5.40");
        assert_eq!(pct(0.123), "12.30%");
    }
}
