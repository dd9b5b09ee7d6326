//! Uniform experiment reporting: "paper vs measured" rows and notes,
//! printed and dumped as JSON under `artifacts/results/`.

use crate::artifacts_dir;
use serde::Serialize;

/// A titled experiment report accumulating rows and notes.
#[derive(Debug, Default, Serialize)]
pub struct Report {
    pub id: String,
    pub title: String,
    /// `(label, paper_value, measured_value, unit)` comparison rows.
    pub comparisons: Vec<(String, String, String, String)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(id: &str, title: &str) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            ..Report::default()
        }
    }

    /// Add a paper-vs-measured comparison row.
    pub fn compare(
        &mut self,
        label: impl Into<String>,
        paper: impl std::fmt::Display,
        measured: impl std::fmt::Display,
        unit: impl Into<String>,
    ) {
        self.comparisons.push((
            label.into(),
            paper.to_string(),
            measured.to_string(),
            unit.into(),
        ));
    }

    /// Add a free-form note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Print to stdout and persist JSON under `artifacts/results/`.
    pub fn finish(&self) {
        println!("\n=== {} — {} ===", self.id, self.title);
        if !self.comparisons.is_empty() {
            println!("{:<44} {:>16} {:>16}  unit", "metric", "paper", "measured");
            for (label, paper, measured, unit) in &self.comparisons {
                println!("{label:<44} {paper:>16} {measured:>16}  {unit}");
            }
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        let dir = artifacts_dir().join("results");
        std::fs::create_dir_all(&dir).expect("mkdir results");
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, serde_json::to_string_pretty(self).expect("json"))
            .expect("write results");
        println!("(saved {})", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_and_serializes() {
        let mut r = Report::new("test_report", "unit test");
        r.compare("metric", "1x", "2x", "");
        r.note("a note");
        assert_eq!(r.comparisons.len(), 1);
        let json = serde_json::to_string(&r).expect("serializable");
        assert!(json.contains("test_report"));
        assert!(json.contains("a note"));
    }
}
