//! Running committed scenario documents and their one-field variants as
//! arms of one experiment, the way `topfull run` and `topfull compare`
//! run them, and judging what the experiment claims: shared by the paper
//! figures (`tests/paper.rs`) and the extension experiments
//! (`tests/extensions.rs`).
//!
//! An experiment is a [`Figure`]: its arms, and a judge that prints the
//! arms' numbers and returns one [`Verdict`] per relation. Its tier-1
//! test ([`Figure::tier1`]) runs the arms at their documents' seeds,
//! asserts every relation, and holds each printed block to its copy in
//! EXPERIMENTS.md. Each binary's `#[ignore]`d `seeds` test ([`sweep`])
//! judges every figure again at each document's seed + k, k = 0…7:
//!
//! ```text
//! cargo test --release --test paper --test extensions -- --ignored seeds --nocapture
//! ```

use std::time::Instant;
use topfull_suite::cluster::runner::RunPlan;
use topfull_suite::simnet::stats;
use topfull_suite::topfull_cli::schema::Scenario;
use topfull_suite::topfull_cli::{parse_scenario, run_scenario, ScenarioOutcome};

/// `scenarios/<name>.json`, parsed.
pub fn doc(name: &str) -> Scenario {
    let path = format!("{}/scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_scenario(&json).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `sc` with one edit applied (the way `topfull compare` derives its
/// controller variants).
pub fn variant(sc: &Scenario, edit: impl FnOnce(&mut Scenario)) -> Scenario {
    let mut v = sc.clone();
    edit(&mut v);
    v
}

/// Steady goodput of one API.
pub fn api_goodput(o: &ScenarioOutcome, api: &str) -> f64 {
    let found = o.goodput_per_api.iter().find(|(n, _)| n == api);
    found.unwrap_or_else(|| panic!("no API '{api}'")).1
}

/// Mean total goodput over the inclusive window `[from, to]` seconds,
/// as `RunResult::mean_total_goodput` takes it.
pub fn window_mean(o: &ScenarioOutcome, from: f64, to: f64) -> f64 {
    let inside = o.timeline.iter().filter(|(t, _)| (from..=to).contains(t));
    stats::mean(&inside.map(|(_, g)| *g).collect::<Vec<f64>>())
}

/// A figure's outcomes by the keys its arms were built from, in arm
/// order.
pub struct Arms<'a, K> {
    keys: &'a [K],
    outcomes: &'a [ScenarioOutcome],
}

impl<'a, K: PartialEq + std::fmt::Debug> Arms<'a, K> {
    pub fn new(keys: &'a [K], outcomes: &'a [ScenarioOutcome]) -> Self {
        assert_eq!(keys.len(), outcomes.len(), "one outcome per arm");
        Arms { keys, outcomes }
    }

    /// The outcome of the arm `key` names.
    pub fn of(&self, key: K) -> &'a ScenarioOutcome {
        let i = self.keys.iter().position(|k| *k == key);
        &self.outcomes[i.unwrap_or_else(|| panic!("no arm {key:?}"))]
    }
}

/// One relation judged on one run of a figure's arms.
pub struct Verdict {
    /// The relation, the same at every seed: a row of the sweep.
    pub relation: String,
    pub holds: bool,
    /// What the relation compares, a ratio or a value, or why it could
    /// not compare.
    pub margin: String,
    /// Tier-1's failure message; `None` for a relation that is printed,
    /// not asserted (one of EXPERIMENTS' Known gaps).
    pub failure: Option<String>,
}

impl Verdict {
    /// A relation tier-1 asserts.
    pub fn claim(
        relation: impl Into<String>,
        holds: bool,
        margin: impl Into<String>,
        failure: impl Into<String>,
    ) -> Self {
        Verdict {
            relation: relation.into(),
            holds,
            margin: margin.into(),
            failure: Some(failure.into()),
        }
    }
}

/// `a / b` as a margin.
pub fn ratio(a: f64, b: f64) -> String {
    format!("{:.2}x", a / b)
}

/// Text that `write!` and `writeln!` append to without a `Result`.
#[derive(Default)]
pub struct Text(pub String);

impl Text {
    pub fn write_fmt(&mut self, args: std::fmt::Arguments) {
        std::fmt::Write::write_fmt(&mut self.0, args).expect("a String takes any text");
    }
}

/// What a judge prints, cut into blocks.
#[derive(Default)]
pub struct Printed {
    blocks: Vec<(Option<&'static str>, Text)>,
}

impl Printed {
    /// Open a block; one with an `id` is held to EXPERIMENTS.md's `text`
    /// block marked `<!-- checked: <id> … -->`.
    pub fn block(&mut self, id: Option<&'static str>) -> &mut Text {
        self.blocks.push((id, Text::default()));
        &mut self.blocks.last_mut().expect("a block was just opened").1
    }
}

/// One experiment: its arms at their documents' seeds, and a judge that
/// prints the arms' outcomes (in arm order) and judges each relation
/// the experiment claims.
pub struct Figure {
    pub arms: fn() -> Vec<Scenario>,
    pub judge: fn(&[ScenarioOutcome], &mut Printed) -> Vec<Verdict>,
}

impl Figure {
    /// The tier-1 test: run the arms, print what the judge prints,
    /// assert every claimed relation, then hold each named block to
    /// EXPERIMENTS.md.
    pub fn tier1(&self) {
        let outcomes = run(std::slice::from_ref(self), 0).remove(0);
        let mut printed = Printed::default();
        let verdicts = (self.judge)(&outcomes, &mut printed);
        for (_, text) in &printed.blocks {
            print!("{}", text.0);
        }
        for v in &verdicts {
            if let Some(failure) = &v.failure {
                assert!(v.holds, "{failure}");
            }
        }
        for (id, text) in &printed.blocks {
            if let Some(id) = id {
                check_block(id, &text.0);
            }
        }
    }
}

/// Every arm of `figures` at its document's seed + `k`, in one run plan
/// over the worker pool: each figure's outcomes, in arm order.
fn run(figures: &[Figure], k: u64) -> Vec<Vec<ScenarioOutcome>> {
    let mut plan = RunPlan::new();
    let mut counts = Vec::new();
    for figure in figures {
        let arms = (figure.arms)();
        counts.push(arms.len());
        for mut sc in arms {
            sc.seed += k;
            plan.submit(move || run_scenario(&sc).unwrap_or_else(|e| panic!("{}: {e}", sc.name)));
        }
    }
    let mut outcomes = plan.run().into_iter();
    let per_figure = counts.iter().map(|&n| outcomes.by_ref().take(n).collect());
    per_figure.collect()
}

/// The seeds a sweep judges each relation at: seed + 0 … seed + 7.
const SWEPT: u64 = 8;

/// The seed sweep: every figure at its documents' seeds + k for each k,
/// one run plan per k whose outcomes are dropped once judged. Prints the
/// table, the wall time and the peak memory, and fails only on an
/// asserted relation that fails at k = 0, as tier-1 does.
pub fn sweep(figures: &[Figure]) {
    let start = Instant::now();
    let grid: Vec<Vec<Verdict>> = (0..SWEPT)
        .map(|k| {
            let outcomes = run(figures, k);
            let judged = figures.iter().zip(&outcomes);
            let verdicts = judged.flat_map(|(f, o)| (f.judge)(o, &mut Printed::default()));
            let verdicts = verdicts.collect();
            eprintln!(
                "seed + {k} judged at {:.1} s",
                start.elapsed().as_secs_f64()
            );
            verdicts
        })
        .collect();
    print!("{}", table(&grid));
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    println!(
        "{} seeds in {:.1} s, peak memory (VmHWM) {}",
        grid.len(),
        start.elapsed().as_secs_f64(),
        hwm.map_or("unknown", str::trim)
    );
    let failing = failing_at_k0(&grid);
    assert!(failing.is_empty(), "tier-1 relations fail: {failing:?}");
}

/// The sweep's table: a row per relation, a column per k, `ok` where the
/// relation holds and its margin where it fails, then the seeds it
/// holds at; a relation that is printed, not asserted, is starred.
/// `grid[k]` holds every relation's verdict at seed + k.
pub fn table(grid: &[Vec<Verdict>]) -> String {
    let Some(first) = grid.first() else {
        return String::new();
    };
    let cell = |k: usize, r: usize| {
        let v = &grid[k][r];
        assert_eq!(v.relation, first[r].relation, "relation {r} at k = {k}");
        if v.holds {
            "ok".to_string()
        } else {
            v.margin.clone()
        }
    };
    let header = "relation, at seed + k";
    let name_w = first
        .iter()
        .map(|v| v.relation.chars().count())
        .fold(header.len(), usize::max);
    let col_w: Vec<usize> = (0..grid.len())
        .map(|k| {
            (0..first.len())
                .map(|r| cell(k, r).chars().count())
                .fold(3, usize::max)
        })
        .collect();
    let mut out = Text(format!("{header:<name_w$}"));
    for (k, w) in col_w.iter().enumerate() {
        write!(out, " {:>w$}", format!("+{k}"));
    }
    writeln!(out, "  holds");
    for (r, v) in first.iter().enumerate() {
        write!(out, "{:<name_w$}", v.relation);
        for (k, w) in col_w.iter().enumerate() {
            write!(out, " {:>w$}", cell(k, r));
        }
        let held = (0..grid.len()).filter(|&k| grid[k][r].holds).count();
        let star = if v.failure.is_some() { "" } else { " *" };
        writeln!(out, "  {held}/{}{star}", grid.len());
    }
    if first.iter().any(|v| v.failure.is_none()) {
        writeln!(
            out,
            "* printed, not asserted: one of EXPERIMENTS.md's Known gaps"
        );
    }
    out.0
}

/// The asserted relations that fail at k = 0, the documents' own seeds:
/// the only cells the sweep fails on, so it cannot disagree with tier-1.
pub fn failing_at_k0(grid: &[Vec<Verdict>]) -> Vec<&str> {
    let at_k0 = grid.first().into_iter().flatten();
    let failing = at_k0.filter(|v| v.failure.is_some() && !v.holds);
    failing.map(|v| v.relation.as_str()).collect()
}

/// EXPERIMENTS.md.
pub fn experiments() -> String {
    let path = format!("{}/EXPERIMENTS.md", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The `text` block of `md` right after its line that starts with
/// `marker`.
pub fn block_after(md: &str, marker: &str) -> Option<String> {
    let mut lines = md.lines().skip_while(|l| !l.starts_with(marker)).skip(1);
    if lines.next()? != "```text" {
        return None;
    }
    let mut block = Text::default();
    for line in lines.take_while(|l| *l != "```") {
        writeln!(block, "{line}");
    }
    Some(block.0)
}

/// The lines where `want` and `got` differ, numbered, `-` for `want`'s
/// and `+` for `got`'s; `None` when they are equal.
pub fn line_diff(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let mut diff = Text::default();
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if w != g {
            writeln!(diff, "line {}:", i + 1);
            if let Some(w) = w {
                writeln!(diff, "- {w}");
            }
            if let Some(g) = g {
                writeln!(diff, "+ {g}");
            }
        }
    }
    if diff.0.is_empty() {
        writeln!(diff, "only the final newline differs");
    }
    Some(diff.0)
}

/// Hold `text` to EXPERIMENTS.md's `text` block marked
/// `<!-- checked: <id> … -->`, failing with a line diff.
pub fn check_block(id: &str, text: &str) {
    let marker = format!("<!-- checked: {id} ");
    let block = block_after(&experiments(), &marker);
    let block =
        block.unwrap_or_else(|| panic!("EXPERIMENTS.md has no text block after `{marker}`"));
    if let Some(diff) = line_diff(&block, text) {
        panic!("EXPERIMENTS.md's `{id}` block is not what the run printed (- EXPERIMENTS.md, + the run):\n{diff}");
    }
}
