//! Terminal CDF plots.
//!
//! The paper's figures are almost all CDFs; with `--plot` the `repro`
//! binary renders them directly in the terminal so the shapes can be
//! eyeballed without an external plotting step. Rendering is plain
//! ASCII-art on a fixed character grid — deterministic and testable.

use oc_stats::Ecdf;

/// Width of the plot area in characters.
const WIDTH: usize = 64;
/// Height of the plot area in rows.
const HEIGHT: usize = 16;
/// Glyphs assigned to series, in order.
const GLYPHS: [char; 8] = ['*', 'o', '+', 'x', '#', '@', '%', '&'];

/// Renders the CDFs of the named series onto one grid.
///
/// The x-axis spans the pooled min..max of all series; the y-axis is the
/// cumulative probability 0..1. Later series overdraw earlier ones where
/// they collide. Returns an empty string if no series has samples.
pub fn render_cdfs(series: &[(String, Vec<f64>)]) -> String {
    let populated: Vec<(&str, Ecdf)> = series
        .iter()
        .filter_map(|(name, xs)| Ecdf::new(xs.clone()).ok().map(|e| (name.as_str(), e)))
        .collect();
    if populated.is_empty() {
        return String::new();
    }
    let lo = populated
        .iter()
        .map(|(_, e)| e.min())
        .fold(f64::INFINITY, f64::min);
    let hi = populated
        .iter()
        .map(|(_, e)| e.max())
        .fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };

    let mut grid = vec![[' '; WIDTH]; HEIGHT];
    for (idx, (_, e)) in populated.iter().enumerate() {
        let glyph = GLYPHS[idx % GLYPHS.len()];
        for col in 0..WIDTH {
            let x = lo + span * col as f64 / (WIDTH - 1) as f64;
            let p = e.prob_le(x);
            // Row 0 is the top (p = 1).
            let row = ((1.0 - p) * (HEIGHT - 1) as f64).round() as usize;
            grid[row.min(HEIGHT - 1)][col] = glyph;
        }
    }

    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let p = 1.0 - r as f64 / (HEIGHT - 1) as f64;
        out.push_str(&format!("{p:4.2} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("     +{}\n", "-".repeat(WIDTH)));
    out.push_str(&format!(
        "      {:<w$.4}{:>w2$.4}\n",
        lo,
        hi,
        w = WIDTH / 2,
        w2 = WIDTH / 2
    ));
    for (idx, (name, _)) in populated.iter().enumerate() {
        out.push_str(&format!("      {} {}\n", GLYPHS[idx % GLYPHS.len()], name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_a_grid_with_legend() {
        let s = vec![
            ("uniform".to_string(), (0..100).map(|i| i as f64).collect()),
            ("point".to_string(), vec![50.0; 10]),
        ];
        let out = render_cdfs(&s);
        let lines: Vec<&str> = out.lines().collect();
        // HEIGHT rows + axis + labels + 2 legend lines.
        assert_eq!(lines.len(), HEIGHT + 2 + 2);
        assert!(lines[0].starts_with("1.00 |"));
        assert!(out.contains("* uniform"));
        assert!(out.contains("o point"));
        // The point-mass series jumps from bottom to top around x = 50.
        assert!(out.contains('o'));
    }

    #[test]
    fn empty_series_render_nothing() {
        assert!(render_cdfs(&[]).is_empty());
        assert!(render_cdfs(&[("e".to_string(), vec![])]).is_empty());
    }

    #[test]
    fn monotone_coverage() {
        // A single uniform series must paint every column exactly once.
        let s = vec![("u".to_string(), (0..1000).map(|i| i as f64).collect())];
        let out = render_cdfs(&s);
        for line in out.lines().take(HEIGHT) {
            let body = &line[6..];
            assert_eq!(body.chars().count(), WIDTH);
        }
        let stars: usize = out
            .lines()
            .take(HEIGHT)
            .map(|l| l.matches('*').count())
            .sum();
        assert_eq!(stars, WIDTH, "each column painted once");
    }

    #[test]
    fn deterministic() {
        let s = vec![("d".to_string(), vec![1.0, 5.0, 2.0, 8.0, 3.0])];
        assert_eq!(render_cdfs(&s), render_cdfs(&s));
    }
}
