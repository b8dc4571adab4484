//! Markdown table and CSV rendering for the experiment binaries.

/// Builds a markdown (GitHub pipe) table from a header and rows, each
/// column padded to its widest cell so the source reads aligned too.
///
/// # Panics
///
/// Panics when a row's width differs from the header's.
pub fn text_table(header: &[&str], rows: &[Vec<String>]) -> String {
    for r in rows {
        assert_eq!(r.len(), header.len(), "row width mismatch");
    }
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    let mut widths = vec![0; header.len()];
    for r in std::iter::once(&head).chain(rows) {
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let line = |cells: &[String]| -> String {
        let cells: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect();
        format!("| {} |\n", cells.join(" | "))
    };
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
    let mut out = line(&head);
    out.push_str(&format!("|{}|\n", rule.join("|")));
    for r in rows {
        out.push_str(&line(r));
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
    fn table_is_markdown_with_padded_columns() {
        let t = text_table(
            &["k", "accuracy"],
            &[vec!["1".into(), "0.30".into()], vec!["10".into(), "95.0%".into()]],
        );
        assert_eq!(
            t,
            "| k  | accuracy |\n|----|----------|\n| 1  | 0.30     |\n| 10 | 95.0%    |\n"
        );
    }

    #[test]
    fn columns_pad_by_characters_not_bytes() {
        let t = text_table(&["shift°"], &[vec!["+1".into()]]);
        assert_eq!(t, "| shift° |\n|--------|\n| +1     |\n");
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
