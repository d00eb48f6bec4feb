//! The tabular result type shared by all experiments.

use lbc_model::json::{FromJson, Json, JsonError, ToJson};

/// The result of one experiment: a labelled table plus free-form notes.
///
/// Rendering is deliberately plain text so that `cargo bench`/examples can
/// print exactly the rows `lbc experiments` prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentResult {
    /// Experiment identifier ("E1" … "E8").
    pub id: String,
    /// Human-readable title referencing the paper artifact.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
    /// Free-form observations (e.g. which side "wins" and by how much).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Creates an empty result with the given identity.
    #[must_use]
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        ExperimentResult {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|h| (*h).to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row length must match header length"
        );
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the result as an aligned plain-text table.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, cell) in cells.iter().enumerate() {
                line.push_str(&format!(" {:width$} |", cell, width = widths[i]));
            }
            line
        };
        let mut out = String::new();
        out.push_str(&format!("{}: {}\n", self.id, self.title));
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        let mut separator = String::from("|");
        for width in &widths {
            separator.push_str(&format!("{}|", "-".repeat(width + 2)));
        }
        out.push_str(&separator);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

impl ToJson for ExperimentResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("id", self.id.to_json()),
            ("title", self.title.to_json()),
            ("headers", self.headers.to_json()),
            (
                "rows",
                Json::Arr(self.rows.iter().map(ToJson::to_json).collect()),
            ),
            ("notes", self.notes.to_json()),
        ])
    }
}

impl FromJson for ExperimentResult {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let field = |key: &str| {
            value.get(key).ok_or_else(|| JsonError {
                message: format!("experiment result missing '{key}'"),
            })
        };
        Ok(ExperimentResult {
            id: String::from_json(field("id")?)?,
            title: String::from_json(field("title")?)?,
            headers: Vec::<String>::from_json(field("headers")?)?,
            rows: field("rows")?
                .as_array()
                .ok_or_else(|| JsonError {
                    message: "'rows' must be an array".to_string(),
                })?
                .iter()
                .map(Vec::<String>::from_json)
                .collect::<Result<_, _>>()?,
            notes: Vec::<String>::from_json(field("notes")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_render() {
        let mut result = ExperimentResult::new("E0", "smoke", &["graph", "f", "ok"]);
        result.push_row(["C5", "1", "yes"]);
        result.push_row(["K5", "2", "yes"]);
        result.push_note("all correct");
        let text = result.render_table();
        assert!(text.contains("E0: smoke"));
        assert!(text.contains("| C5"));
        assert!(text.contains("note: all correct"));
        assert_eq!(result.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row length must match")]
    fn mismatched_rows_are_rejected() {
        let mut result = ExperimentResult::new("E0", "smoke", &["a", "b"]);
        result.push_row(["only-one"]);
    }

    #[test]
    fn json_roundtrip() {
        let mut result = ExperimentResult::new("E1", "roundtrip", &["x"]);
        result.push_row(["1"]);
        result.push_note("note");
        let json = result.to_json().to_string();
        let back = ExperimentResult::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, result);
    }
}
