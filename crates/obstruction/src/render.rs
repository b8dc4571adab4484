//! Rendering obstruction maps for human inspection (Figure 3).

use crate::map::{ObstructionMap, MAP_SIZE};

/// Renders the map as a binary PGM (P2, ASCII) image string — loadable by
/// any image viewer, used by the Figure 3 experiment binary to emit the
/// slot maps, their XOR, and the 2-day saturated map.
pub fn to_pgm(map: &ObstructionMap) -> String {
    let mut out = String::with_capacity(MAP_SIZE * MAP_SIZE * 2 + 32);
    out.push_str("P2\n");
    out.push_str(&format!("{MAP_SIZE} {MAP_SIZE}\n1\n"));
    for y in 0..MAP_SIZE {
        for x in 0..MAP_SIZE {
            out.push(if map.get(x, y) { '1' } else { '0' });
            out.push(if x + 1 == MAP_SIZE { '\n' } else { ' ' });
        }
    }
    out
}

/// Renders a down-sampled ASCII view (each character covers a 3×3 pixel
/// block) for terminal output: `#` where any pixel in the block is set,
/// `·` for blank sky inside the plot, space outside.
pub fn to_ascii(map: &ObstructionMap) -> String {
    const BLOCK: usize = 3;
    let cells = MAP_SIZE.div_ceil(BLOCK);
    let mut out = String::with_capacity(cells * (cells + 1));
    for cy in 0..cells {
        for cx in 0..cells {
            let mut any_set = false;
            let mut any_inside = false;
            for dy in 0..BLOCK {
                for dx in 0..BLOCK {
                    let (x, y) = (cx * BLOCK + dx, cy * BLOCK + dy);
                    if x >= MAP_SIZE || y >= MAP_SIZE {
                        continue;
                    }
                    if ObstructionMap::pixel_to_polar(x, y).is_some() {
                        any_inside = true;
                    }
                    if map.get(x, y) {
                        any_set = true;
                    }
                }
            }
            out.push(if any_set {
                '#'
            } else if any_inside {
                '\u{b7}' // '·'
            } else {
                ' '
            });
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paint::paint;

    #[test]
    fn pgm_header_is_valid() {
        let pgm = to_pgm(&ObstructionMap::new());
        let mut lines = pgm.lines();
        assert_eq!(lines.next(), Some("P2"));
        assert_eq!(lines.next(), Some("123 123"));
        assert_eq!(lines.next(), Some("1"));
    }

    #[test]
    fn ascii_marks_trail_and_plot() {
        let mut m = ObstructionMap::new();
        paint(&mut m, &[(30.0, 0.0), (88.0, 0.0)]);
        let art = to_ascii(&m);
        assert!(art.contains('#'), "trail must appear");
        assert!(art.contains('\u{b7}'), "plot interior must appear");
        assert!(art.starts_with(' '), "corners are outside the plot");
        // 41 cells per row plus newline.
        assert_eq!(art.lines().next().unwrap().chars().count(), 41);
    }
}
