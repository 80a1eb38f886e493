//! Repro witnesses: a failing case serialized to a JSON file that
//! `lowdeg-conformance replay` re-executes.
//!
//! A witness is fully self-contained — the (already shrunk) structure is
//! embedded in the serialized text format of `lowdeg_storage`, the query
//! as parser source text — plus provenance (spec, seed, oracle row and
//! check name) so a human can regenerate the unshrunk original. Replay
//! re-runs the recorded row of [`ORACLES`](crate::oracle::ORACLES).

use crate::differential::Disagreement;
use crate::json::Json;
use crate::oracle::{self, Findings, Verdict};
use crate::structgen::StructSpec;
use lowdeg_logic::parse_query;
use lowdeg_storage::{parse_structure, Structure};
use std::path::{Path, PathBuf};

/// A serialized failing case.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The oracle row that recorded it (e.g. `differential`).
    pub row: String,
    /// Name of the check that disagreed (e.g. `engine-count`).
    pub check: String,
    /// Evidence captured at failure time.
    pub detail: String,
    /// The case seed within the run.
    pub seed: u64,
    /// Query source text (parser syntax).
    pub query_src: String,
    /// Shrunk structure, serialized text format.
    pub structure_text: String,
    /// Provenance: the generating spec, when known.
    pub spec: Option<StructSpec>,
}

impl Witness {
    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("format", Json::Str("lowdeg-conformance-witness/2".into())),
            ("row", Json::Str(self.row.clone())),
            ("check", Json::Str(self.check.clone())),
            ("detail", Json::Str(self.detail.clone())),
            // u64 seeds exceed f64's 2^53 integer range: keep them textual
            ("seed", Json::Str(self.seed.to_string())),
            ("query", Json::Str(self.query_src.clone())),
            ("structure", Json::Str(self.structure_text.clone())),
            (
                "spec",
                self.spec
                    .as_ref()
                    .map(StructSpec::to_json)
                    .unwrap_or(Json::Null),
            ),
        ])
    }

    /// Parse back from JSON.
    pub fn from_json(v: &Json) -> Result<Witness, String> {
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("witness needs a string `{k}`"))
        };
        let spec = match v.get("spec") {
            None | Some(Json::Null) => None,
            Some(j) => Some(StructSpec::from_json(j)?),
        };
        Ok(Witness {
            row: field("row")?,
            check: field("check")?,
            detail: field("detail")?,
            seed: v
                .get("seed")
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or("witness needs a numeric string `seed`")?,
            query_src: field("query")?,
            structure_text: field("structure")?,
            spec,
        })
    }

    /// Write to `dir` with a deterministic, collision-free name.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("witness-{}-{}.json", self.seed, slug(&self.check)));
        std::fs::write(&path, self.to_json().pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Read from a file.
    pub fn load(path: &Path) -> Result<Witness, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Witness::from_json(&Json::parse(&text)?)
    }

    /// Materialize the stored structure.
    pub fn structure(&self) -> Result<Structure, String> {
        parse_structure(&self.structure_text).map_err(|e| e.to_string())
    }
}

fn slug(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Outcome of a witness replay.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The oracle row that ran: the one the witness records.
    pub row: &'static str,
    /// Whether that row compared anything on the stored pair.
    pub verdict: Verdict,
    /// The disagreements observed when re-running the row on the stored
    /// pair with the honest engine (no mutation).
    pub disagreements: Vec<Disagreement>,
    /// Whether the originally recorded check is among them.
    pub reproduces: bool,
}

/// Re-run the witness's oracle row on the stored pair (honest engine — a
/// witness recorded under `--inject-bug` will *not* reproduce here; that
/// is the point of the flag). A witness naming no row of the table is an
/// error.
pub fn replay(w: &Witness) -> Result<ReplayOutcome, String> {
    let row = oracle::by_name(&w.row)
        .ok_or_else(|| format!("witness names unknown oracle row `{}`", w.row))?;
    let s = w.structure()?;
    let q = parse_query(s.signature(), &w.query_src).map_err(|e| e.to_string())?;
    // shrunk queries may have lost their positive guards, so the padding
    // oracle only applies when the recorded failure was a padding failure
    let case = oracle::Case {
        padding: w.check.starts_with("padding"),
        ..oracle::Case::new(&s, &q, w.seed)
    };
    let mut found = Findings::default();
    let verdict = row.run(&case, &mut found);
    let reproduces = found.bad.iter().any(|d| d.check == w.check);
    Ok(ReplayOutcome {
        row: row.name,
        verdict,
        disagreements: found.bad,
        reproduces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ORACLES;
    use crate::structgen::StructSpec;
    use lowdeg_gen::DegreeClass;
    use lowdeg_storage::write_structure;

    fn sample() -> Witness {
        let spec = StructSpec::Colored {
            n: 8,
            degree: DegreeClass::Bounded(3),
        };
        let s = spec.generate(5);
        Witness {
            row: "differential".into(),
            check: "engine-count".into(),
            detail: "demo".into(),
            // deliberately above 2^53: seeds must survive JSON exactly
            seed: u64::MAX - 12345,
            query_src: "B(x) & R(y) & !E(x, y)".into(),
            structure_text: write_structure(&s),
            spec: Some(spec),
        }
    }

    #[test]
    fn witness_roundtrips_through_json_and_disk() {
        let w = sample();
        let back = Witness::from_json(&w.to_json()).unwrap();
        assert_eq!(back.seed, w.seed);
        assert_eq!(back.row, w.row);
        assert_eq!(back.check, w.check);
        assert_eq!(back.query_src, w.query_src);
        assert_eq!(back.structure_text, w.structure_text);
        assert_eq!(back.spec, w.spec);

        let dir = std::env::temp_dir().join(format!("lowdeg-wit-{}", std::process::id()));
        let path = w.save(&dir).unwrap();
        let loaded = Witness::load(&path).unwrap();
        assert_eq!(loaded.structure_text, w.structure_text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_of_a_healthy_pair_finds_nothing() {
        let w = sample();
        let out = replay(&w).unwrap();
        assert!(out.disagreements.is_empty(), "{:?}", out.disagreements);
        assert!(!out.reproduces);
    }

    #[test]
    fn replay_runs_the_recorded_row() {
        // a two-clause query, so every row (clausecheck included) has
        // something to compare
        let mut w = sample();
        w.query_src = "(B(x) & R(y) & !E(x, y)) | (R(x) & G(y) & !E(x, y))".into();
        for o in ORACLES {
            w.row = o.name.into();
            w.check = format!("{}-count", o.name);
            let out = replay(&w).unwrap();
            assert_eq!(out.row, o.name);
            assert_eq!(out.verdict, Verdict::Checked, "{}", o.name);
            assert!(out.disagreements.is_empty(), "{:?}", out.disagreements);
            assert!(!out.reproduces);
        }
    }

    #[test]
    fn replay_of_an_unknown_row_is_an_error() {
        let mut w = sample();
        w.row = "no-such-row".into();
        w.check = "no-such-row-count".into();
        let err = replay(&w).unwrap_err();
        assert!(err.contains("no-such-row"), "{err}");
        // a witness without a row does not load at all
        let mut json = w.to_json();
        if let Json::Obj(fields) = &mut json {
            fields.remove("row");
        }
        assert!(Witness::from_json(&json).is_err());
    }
}
