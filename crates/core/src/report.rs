//! Plain-text table and CSV rendering for the experiment binaries.

/// Builds an aligned plain-text table from a header and rows.
///
/// # Panics
///
/// Panics when a row's width differs from the header's.
pub fn text_table(header: &[&str], rows: &[Vec<String>]) -> String {
    for r in rows {
        assert_eq!(r.len(), header.len(), "row width mismatch");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r, &widths));
        out.push('\n');
    }
    out
}

/// Builds a CSV string (RFC-4180-style quoting for cells containing
/// commas, quotes or newlines).
pub fn csv(header: &[&str], rows: &[Vec<String>]) -> String {
    fn escape(cell: &str) -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(&header.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for r in rows {
        out.push_str(&r.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Formats a fraction as a percentage with one decimal, `"12.3%"`.
pub fn pct(x: f64) -> String {
    if x.is_nan() {
        return "n/a".to_string();
    }
    format!("{:.1}%", 100.0 * x)
}

/// Formats a float with the given number of decimals, mapping NaN to "n/a".
pub fn num(x: f64, decimals: usize) -> String {
    if x.is_nan() {
        return "n/a".to_string();
    }
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = text_table(
            &["k", "accuracy"],
            &[vec!["1".into(), "0.30".into()], vec!["10".into(), "0.95".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('k') && lines[0].contains("accuracy"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right-aligned columns: equal line lengths.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_table_panics() {
        let _ = text_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn csv_escapes_special_cells() {
        let s = csv(&["name", "value"], &[vec!["a,b".into(), "say \"hi\"".into()]]);
        assert_eq!(s, "name,value\n\"a,b\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn pct_and_num_formatting() {
        assert_eq!(pct(0.723), "72.3%");
        assert_eq!(pct(f64::NAN), "n/a");
        assert_eq!(num(3.14499, 2), "3.14");
        assert_eq!(num(f64::NAN, 1), "n/a");
    }
}
