//! `papi-bench` — the figure-regeneration harness.
//!
//! Each `fig*` binary in `src/bin/` regenerates one figure of the paper
//! (run e.g. `cargo run -p papi-bench --bin fig08_end_to_end --release`).
//! This library holds the shared table-formatting and sweep plumbing.

#![warn(missing_docs)]

use papi_core::experiments::EndToEndRow;
use papi_types::geometric_mean;
use std::collections::BTreeMap;

/// Prints a Markdown-style table.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let body: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("| {} |", body.join(" | "));
    };
    fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        fmt_row(row);
    }
}

/// Formats a float with 3 significant decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Per-design geometric-mean speedup and energy efficiency over a set of
/// end-to-end rows (how the paper reports its headline numbers).
pub fn summarize_by_design(rows: &[EndToEndRow]) -> Vec<(String, f64, f64)> {
    let mut by_design: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for row in rows {
        let entry = by_design.entry(row.design.clone()).or_default();
        entry.0.push(row.speedup);
        entry.1.push(row.energy_efficiency);
    }
    by_design
        .into_iter()
        .map(|(design, (speedups, effs))| {
            (
                design,
                geometric_mean(&speedups).unwrap_or(0.0),
                geometric_mean(&effs).unwrap_or(0.0),
            )
        })
        .collect()
}

/// Prints the per-design summary block used by the fig8/fig9 binaries.
pub fn print_design_summary(title: &str, rows: &[EndToEndRow]) {
    println!("\n== {title}: geometric-mean over all configurations ==");
    let summary = summarize_by_design(rows);
    let table: Vec<Vec<String>> = summary
        .iter()
        .map(|(design, speedup, eff)| vec![design.clone(), f2(*speedup), f2(*eff)])
        .collect();
    print_table(&["design", "speedup (×)", "energy eff. (×)"], &table);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(design: &str, speedup: f64, eff: f64) -> EndToEndRow {
        EndToEndRow {
            model: "m".into(),
            dataset: "d".into(),
            speculation: 1,
            batch: 4,
            design: design.into(),
            speedup,
            energy_efficiency: eff,
            latency_s: 1.0,
            energy_j: 1.0,
        }
    }

    #[test]
    fn summary_geomeans_per_design() {
        let rows = vec![
            row("PAPI", 2.0, 4.0),
            row("PAPI", 8.0, 1.0),
            row("base", 1.0, 1.0),
        ];
        let summary = summarize_by_design(&rows);
        let papi = summary.iter().find(|(d, ..)| d == "PAPI").unwrap();
        assert!((papi.1 - 4.0).abs() < 1e-12);
        assert!((papi.2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.23456), "1.23");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        print_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
