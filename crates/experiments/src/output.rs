//! What an experiment returns ([`Report`]) and how it is rendered: aligned
//! text tables, `[claim]` lines, terminal CDF plots, CSV files and `claims.md`.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;

/// A named sample vector: one row of a CDF panel, one series of its CSV.
pub type Series = (String, Vec<f64>);

/// Whether a claim's measured value bears out the paper's, as the figure
/// judges it from a stated predicate: an ordering, a sign or a band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The predicate holds.
    Holds,
    /// The predicate fails.
    Fails,
    /// The run cannot settle the claim.
    Unresolved,
}

impl From<bool> for Verdict {
    fn from(holds: bool) -> Verdict {
        if holds {
            Self::Holds
        } else {
            Self::Fails
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Holds => "✅",
            Verdict::Fails => "❌",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// A paper-vs-measured claim and its verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// What is compared.
    pub what: String,
    /// The measured value, as printed.
    pub measured: String,
    /// The paper's reported value or shape.
    pub paper: String,
    /// Whether the measured value bears the paper's out.
    pub verdict: Verdict,
}

impl std::fmt::Display for Claim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (w, m, p, v) = (&self.what, &self.measured, &self.paper, self.verdict);
        write!(f, "  [claim] {w}: measured {m} (paper: {p}) {v}")
    }
}

/// One block of an experiment's printed output.
#[derive(Debug)]
enum Block {
    /// Rendered text: a heading, a free line or a plain table.
    Text(String),
    /// A CDF panel: its title (printed unless empty), the header of its
    /// series column, one quantile row per series, and the CSV file the
    /// series are also written to, if any.
    Cdf(String, String, Vec<Series>, Option<String>),
    Claim(Claim),
}

/// A CSV file that is not a panel's.
#[derive(Debug)]
enum Csv {
    /// Rendered rows.
    Text(String),
    /// Series written as long-format CDF samples.
    Cdf(Vec<Series>),
}

/// Everything one experiment produced: the blocks it prints, in order, and
/// the CSV files it wants written.
#[derive(Debug, Default)]
pub struct Report {
    blocks: Vec<Block>,
    csvs: Vec<(String, Csv)>,
}

impl Report {
    /// Appends a heading or free line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.blocks.push(Block::Text(text.into() + "\n"));
    }

    /// Appends a CDF panel.
    pub fn cdf(&mut self, title: &str, label: &str, series: Vec<Series>) {
        let (title, label) = (title.into(), label.into());
        self.blocks.push(Block::Cdf(title, label, series, None));
    }

    /// Appends a CDF panel whose series are also written to `file`.
    pub fn cdf_csv(&mut self, file: &str, title: &str, label: &str, series: Vec<Series>) {
        let (title, label) = (title.into(), label.into());
        self.blocks
            .push(Block::Cdf(title, label, series, Some(file.into())));
    }

    /// Writes `series` to `file` as long-format CDF samples.
    pub fn csv_cdf(&mut self, file: &str, series: Vec<Series>) {
        self.csvs.push((file.into(), Csv::Cdf(series)));
    }

    /// Writes a header row and one row per record to `file`.
    pub fn csv(&mut self, file: &str, header: &[&str], rows: Vec<Vec<String>>) {
        let mut text = header.join(",") + "\n";
        for row in rows {
            text = text + &row.join(",") + "\n";
        }
        self.csvs.push((file.into(), Csv::Text(text)));
    }

    /// Appends a plain table: a header and one row per record.
    pub fn table(&mut self, header: &[&str], rows: Vec<Vec<String>>) {
        self.blocks.push(Block::Text(table(header, rows)));
    }

    /// Appends a claim with its verdict.
    pub fn claim(
        &mut self,
        what: impl Into<String>,
        measured: impl std::fmt::Display,
        paper: &str,
        verdict: impl Into<Verdict>,
    ) {
        self.blocks.push(Block::Claim(Claim {
            what: what.into(),
            measured: measured.to_string(),
            paper: paper.into(),
            verdict: verdict.into(),
        }));
    }

    /// The claims, in order.
    pub fn claims(&self) -> impl Iterator<Item = &Claim> {
        self.blocks.iter().filter_map(|b| match b {
            Block::Claim(c) => Some(c),
            _ => None,
        })
    }

    /// Renders the blocks in order; with `plot`, each CDF panel is followed
    /// by its terminal plot.
    pub fn render(&self, plot: bool) -> String {
        let mut out = String::new();
        for block in &self.blocks {
            match block {
                Block::Text(text) => out += text,
                Block::Claim(c) => out += &format!("{c}\n"),
                Block::Cdf(title, label, series, _) => {
                    if !title.is_empty() {
                        out = out + title + "\n";
                    }
                    let mut header = vec![label.as_str()];
                    header.extend(["p5", "p25", "p50", "p75", "p90", "p95", "p99"]);
                    let rows = series.iter().map(|(name, v)| cdf_row(name, v));
                    out += &table(&header, rows.collect());
                    let rendered = if plot {
                        crate::plot::render_cdfs(series)
                    } else {
                        String::new()
                    };
                    if !rendered.is_empty() {
                        let name = if title.is_empty() { label } else { title };
                        let _ = write!(out, "\n  [plot] {name}\n{rendered}");
                    }
                }
            }
        }
        out
    }

    /// Writes every CSV file under `dir`, the panels' first.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn write_csvs(&self, dir: &Path) -> std::io::Result<()> {
        for block in &self.blocks {
            if let Block::Cdf(_, _, series, Some(file)) = block {
                write_cdf(dir, file, series)?;
            }
        }
        for (file, csv) in &self.csvs {
            match csv {
                Csv::Text(text) => {
                    std::fs::create_dir_all(dir)?;
                    std::fs::write(dir.join(file), text)?;
                }
                Csv::Cdf(series) => write_cdf(dir, file, series)?,
            }
        }
        Ok(())
    }
}

/// Writes `series` to `dir/file` as long-format CDF samples
/// (`series,x,cdf`), so external tools can re-plot the figure.
fn write_cdf(dir: &Path, file: &str, series: &[Series]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut out = BufWriter::new(File::create(dir.join(file))?);
    writeln!(out, "series,x,cdf")?;
    for (name, samples) in series {
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = sorted.len() as f64;
        for (i, x) in sorted.iter().enumerate() {
            writeln!(out, "{name},{x},{}", (i + 1) as f64 / n)?;
        }
    }
    out.flush()
}

/// Renders an aligned text table mirroring the paper's rows: right-aligned
/// columns (widths in terminal columns), the header above a rule.
fn table(header: &[&str], rows: Vec<Vec<String>>) -> String {
    let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let mut widths: Vec<usize> = header.iter().map(|h| width(h)).collect();
    for row in &rows {
        let (n, m) = (row.len(), widths.len());
        assert_eq!(n, m, "row width {n} != header width {m}");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(width(cell));
        }
    }
    let mut out = String::new();
    for (i, cells) in std::iter::once(&header).chain(&rows).enumerate() {
        for (j, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            let gap = if j > 0 { "  " } else { "" };
            let _ = write!(out, "{gap}{:>pad$}{cell}", "", pad = w - width(cell));
        }
        out.push('\n');
        if i == 0 {
            let total = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out += &"-".repeat(total);
            out.push('\n');
        }
    }
    out
}

/// Terminal columns `s` takes: the verdict glyphs ✅ and ❌ are two wide.
fn width(s: &str) -> usize {
    s.chars().count() + s.matches(['✅', '❌']).count()
}

/// Writes `claims.md` under [`Opts::results`](crate::common::Opts): one row
/// per `(experiment id, claim)` of the run, with its scale and seed.
pub fn write_claims(claims: &[(&str, Claim)], opts: &crate::common::Opts) -> std::io::Result<()> {
    let scale = format!("{:?}", opts.scale);
    let seed = opts.seed.map_or("preset".into(), |s| s.to_string());
    let rows = claims.iter().map(|(id, c)| {
        let verdict = c.verdict.to_string();
        let row: [&str; 7] = [id, &c.what, &c.measured, &c.paper, &verdict, &scale, &seed];
        row.map(String::from).to_vec()
    });
    let header = [
        "id", "claim", "measured", "paper", "verdict", "scale", "seed",
    ];
    let table = table(&header, rows.collect());
    let md = format!("# Claims of `repro`, with their verdicts\n\n```text\n{table}```\n");
    std::fs::create_dir_all(&opts.results)?;
    std::fs::write(opts.results.join("claims.md"), md)
}

/// Formats a float with 4 significant decimals for table cells.
pub fn f(x: f64) -> String {
    format!("{x:.4}")
}

/// Quantile row of a CDF table: `[name, q5, q25, q50, q75, q90, q95, q99]`,
/// dashes for an empty series.
fn cdf_row(name: &str, samples: &[f64]) -> Vec<String> {
    let mut row = vec![name.to_string()];
    for p in [5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0] {
        row.push(match samples {
            [] => "-".into(),
            _ => f(oc_stats::percentile_slice(samples, p).expect("non-empty samples")),
        });
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let rows = vec![
            vec!["a".into(), "1.0".into()],
            vec!["longer".into(), "2".into()],
        ];
        assert_eq!(
            table(&["name", "value"], rows),
            "  name  value\n-------------\n     a    1.0\nlonger      2\n"
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        table(&["a", "b"], vec![vec!["x".into()]]);
    }

    #[test]
    fn cdf_row_quantiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let row = cdf_row("s", &samples);
        assert_eq!(row.len(), 8);
        assert_eq!(row[0], "s");
        // Median of 1..=100 is 50.5.
        assert_eq!(row[3], "50.5000");
        assert_eq!(cdf_row("e", &[])[1..], ["-"; 7]);
    }

    /// Adding a claim is one entry in the report, and it renders as
    /// `  [claim] <what>: measured <m> (paper: <p>) <verdict>`, each verdict
    /// distinctly. The run's `claims.md` has one row per claim, with its
    /// experiment id, verdict, scale and seed.
    #[test]
    fn claims_render_as_claim_lines() {
        let mut r = Report::default();
        r.line("(a) heading");
        r.claim("median ratio", format!("{:.2}", 1.4444), "≈1.5", true);
        r.claim(format!("cell {}", "c"), 7, "> 95%", false);
        r.claim("A/B", "+1%", "exp higher", Verdict::Unresolved);
        assert_eq!(
            r.render(false),
            "(a) heading\n  [claim] median ratio: measured 1.44 (paper: ≈1.5) ✅\n  \
             [claim] cell c: measured 7 (paper: > 95%) ❌\n  \
             [claim] A/B: measured +1% (paper: exp higher) unresolved\n"
        );
        let whats: Vec<&str> = r.claims().map(|c| c.what.as_str()).collect();
        assert_eq!(whats, ["median ratio", "cell c", "A/B"]);

        let dir = std::env::temp_dir().join(format!("oc-claims-test-{}", std::process::id()));
        let opts = crate::common::Opts {
            scale: crate::common::Scale::Full,
            seed: Some(7),
            results: dir.clone(),
            ..Default::default()
        };
        let claims: Vec<_> = r.claims().map(|c| ("fig1", c.clone())).collect();
        write_claims(&claims, &opts).unwrap();
        let md = std::fs::read_to_string(dir.join("claims.md")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let rows: Vec<Vec<&str>> = md
            .lines()
            .filter(|l| l.trim_start().starts_with("fig1 "))
            .map(|l| {
                l.split("  ")
                    .map(str::trim)
                    .filter(|c| !c.is_empty())
                    .collect()
            })
            .collect();
        assert_eq!(rows.len(), 3, "{md}");
        assert_eq!(
            rows[0],
            ["fig1", "median ratio", "1.44", "≈1.5", "✅", "Full", "7"]
        );
        assert_eq!(rows[1][4..], ["❌", "Full", "7"]);
        assert_eq!(rows[2][4..], ["unresolved", "Full", "7"]);
        let header = md
            .lines()
            .find(|l| l.trim_start().starts_with("id "))
            .unwrap();
        let columns: Vec<&str> = header.split_whitespace().collect();
        assert_eq!(
            columns,
            ["id", "claim", "measured", "paper", "verdict", "scale", "seed"]
        );
    }

    /// A CDF panel prints its title and quantile table; only with `plot`
    /// is it followed by its terminal plot.
    #[test]
    fn cdf_panels_plot_only_when_asked() {
        let mut r = Report::default();
        r.cdf("(a) rates", "cell", vec![("a".into(), vec![1.0, 2.0, 3.0])]);
        let plain = r.render(false);
        assert!(plain.starts_with("(a) rates\n"), "{plain}");
        assert_eq!(plain.lines().count(), 4);
        let plotted = r.render(true);
        assert!(plotted.starts_with(&plain), "{plotted}");
        assert!(plotted.contains("\n  [plot] (a) rates\n"), "{plotted}");
    }

    #[test]
    fn csvs_are_written_under_the_results_dir() {
        let dir = std::env::temp_dir().join(format!("oc-experiments-test-{}", std::process::id()));
        let mut r = Report::default();
        r.cdf_csv("cdf.csv", "", "s", vec![("s".into(), vec![3.0, 1.0, 2.0])]);
        r.csv("t.csv", &["a", "b"], vec![vec!["1".into(), "2".into()]]);
        r.write_csvs(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        let text = std::fs::read_to_string(dir.join("cdf.csv")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("s,1,"));
        assert!(lines[3].starts_with("s,3,1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
