//! Criterion benches live in `benches/`; the library hosts the tiny JSON
//! reader the standalone campaign benchmark's self-tests use to read its
//! result line back (the workspace vendors no JSON crate).

/// Extracts the number at `path` (a chain of object keys, outermost first)
/// from a JSON document, e.g. `json_number(src, &["identified",
/// "serial_slots_per_sec"])`. Each key is located inside the object the
/// previous key opened — sibling objects are excluded by brace matching —
/// so a key name repeated across sections (both `oracle` and `identified`
/// report `serial_slots_per_sec`) resolves to the right one. Returns
/// `None` when a key is absent or the value is not a number. String
/// escapes are not understood; this targets the benchmark's own emitted
/// shape, not arbitrary JSON.
pub fn json_number(src: &str, path: &[&str]) -> Option<f64> {
    let mut scope = src;
    let (last, parents) = path.split_last()?;
    for key in parents {
        scope = object_body(scope, key)?;
    }
    let needle = format!("\"{last}\"");
    let after_key = &scope[scope.find(&needle)? + needle.len()..];
    let after_colon = after_key.trim_start().strip_prefix(':')?.trim_start();
    let end = after_colon
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(after_colon.len());
    after_colon[..end].parse().ok()
}

/// The body of the `{ ... }` object that `key`'s value opens, exclusive of
/// the braces; `None` if the key is missing or not followed by an object.
fn object_body<'s>(src: &'s str, key: &str) -> Option<&'s str> {
    let needle = format!("\"{key}\"");
    let after_key = &src[src.find(&needle)? + needle.len()..];
    let after_colon = after_key.trim_start().strip_prefix(':')?.trim_start();
    let body = after_colon.strip_prefix('{')?;
    let mut depth = 1usize;
    for (i, c) in body.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&body[..i]);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "host_threads": 4,
  "oracle": {
    "serial_slots_per_sec": 2283.999,
    "speedup": 1.25
  },
  "identified": {
    "serial_slots_per_sec": 209.239,
    "speedup": 0.936
  }
}
"#;

    #[test]
    fn top_level_and_nested_numbers_parse() {
        assert_eq!(json_number(DOC, &["host_threads"]), Some(4.0));
        assert_eq!(json_number(DOC, &["oracle", "serial_slots_per_sec"]), Some(2283.999));
        assert_eq!(json_number(DOC, &["oracle", "speedup"]), Some(1.25));
    }

    #[test]
    fn repeated_key_names_resolve_by_section() {
        assert_eq!(json_number(DOC, &["identified", "serial_slots_per_sec"]), Some(209.239));
        assert_eq!(json_number(DOC, &["identified", "speedup"]), Some(0.936));
    }

    #[test]
    fn missing_paths_are_none() {
        assert_eq!(json_number(DOC, &["dtw", "ratio"]), None);
        assert_eq!(json_number(DOC, &["identified", "absent"]), None);
        assert_eq!(json_number(DOC, &[]), None);
        assert_eq!(json_number("not json at all", &["x"]), None);
    }

    #[test]
    fn three_level_paths_resolve_inside_the_scaling_section() {
        let doc = r#"{
  "terminal_scaling": {
    "t4": { "slots": 48, "indexed_slot_terminals_per_sec": 9000.0 },
    "t256": { "slots": 16, "indexed_slot_terminals_per_sec": 120000.5 }
  }
}"#;
        assert_eq!(
            json_number(doc, &["terminal_scaling", "t256", "indexed_slot_terminals_per_sec"]),
            Some(120000.5)
        );
        assert_eq!(json_number(doc, &["terminal_scaling", "t4", "slots"]), Some(48.0));
        assert_eq!(json_number(doc, &["terminal_scaling", "t64", "slots"]), None);
    }

    #[test]
    fn scientific_and_signed_numbers_parse() {
        let doc = r#"{"a": -1.5e-3, "b": 2E6}"#;
        assert_eq!(json_number(doc, &["a"]), Some(-0.0015));
        assert_eq!(json_number(doc, &["b"]), Some(2_000_000.0));
    }

    #[test]
    fn non_numeric_values_are_none() {
        let doc = r#"{"a": "text", "b": null}"#;
        assert_eq!(json_number(doc, &["a"]), None);
        assert_eq!(json_number(doc, &["b"]), None);
    }
}
