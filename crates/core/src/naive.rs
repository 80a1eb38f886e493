//! Naive baselines — the algorithms the paper's machinery is measured
//! against, plus a delay recorder used by the experiments.
//!
//! * [`MaterializingEnumerator`] — compute the whole answer set up front
//!   (`n^k` preprocessing), then iterate: the "trivial constant delay"
//!   strawman with non-linear preprocessing and `O(n^k)` memory.
//! * [`GenerateAndTest`] — constant preprocessing, then generate candidate
//!   tuples in lexicographic order and emit the ones that satisfy the
//!   query: the naive algorithm of Example 2.3 whose *delay* degrades with
//!   the number of consecutive false hits.
//! * [`DelayRecorder`] — wall-clock inter-output delays (max / mean / p99)
//!   for the E4/E5/E10 experiments.

use lowdeg_logic::eval::Assignment;
use lowdeg_logic::{eval, Query};
use lowdeg_storage::{Node, Structure};
use std::time::{Duration, Instant};

/// Materialize-then-iterate baseline.
pub struct MaterializingEnumerator {
    answers: Vec<Vec<Node>>,
}

impl MaterializingEnumerator {
    /// Runs the full `n^k` evaluation up front.
    pub fn build(structure: &Structure, query: &Query) -> Self {
        MaterializingEnumerator {
            answers: lowdeg_logic::eval::answers_naive(structure, query),
        }
    }

    /// Iterate the materialized answers.
    pub fn iter(&self) -> impl Iterator<Item = &[Node]> + '_ {
        self.answers.iter().map(|t| t.as_slice())
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// Whether there are no answers.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }
}

/// Generate-and-test baseline: lexicographic candidate generation with a
/// per-candidate membership test; no preprocessing, unbounded delay.
pub struct GenerateAndTest<'a> {
    structure: &'a Structure,
    query: &'a Query,
    counter: Vec<usize>,
    exhausted: bool,
    asg: Assignment,
}

impl<'a> GenerateAndTest<'a> {
    /// Constant-time setup.
    pub fn new(structure: &'a Structure, query: &'a Query) -> Self {
        GenerateAndTest {
            structure,
            query,
            counter: vec![0; query.arity()],
            exhausted: query.arity() == 0,
            asg: Assignment::with_capacity(query.vars.len()),
        }
    }
}

impl Iterator for GenerateAndTest<'_> {
    type Item = Vec<Node>;

    fn next(&mut self) -> Option<Vec<Node>> {
        let n = self.structure.cardinality();
        let k = self.query.arity();
        while !self.exhausted {
            let tuple: Vec<Node> = self.counter.iter().map(|&i| Node(i as u32)).collect();
            // advance the odometer before potentially returning
            let mut pos = k;
            loop {
                if pos == 0 {
                    self.exhausted = true;
                    break;
                }
                pos -= 1;
                self.counter[pos] += 1;
                if self.counter[pos] < n {
                    break;
                }
                self.counter[pos] = 0;
            }
            for (&v, &a) in self.query.free.iter().zip(&tuple) {
                self.asg.bind(v, a);
            }
            if eval::eval(self.structure, &self.query.formula, &mut self.asg) {
                return Some(tuple);
            }
        }
        None
    }
}

/// Records inter-output delays of an enumeration run.
#[derive(Debug, Default, Clone)]
pub struct DelayRecorder {
    delays: Vec<Duration>,
    last: Option<Instant>,
}

impl DelayRecorder {
    /// Fresh recorder; call [`DelayRecorder::start`] right before pulling
    /// the first item.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the beginning of the enumeration phase.
    pub fn start(&mut self) {
        self.last = Some(Instant::now());
    }

    /// Record one output.
    pub fn tick(&mut self) {
        let now = Instant::now();
        if let Some(prev) = self.last.replace(now) {
            self.delays.push(now - prev);
        }
    }

    /// Number of recorded delays.
    pub fn len(&self) -> usize {
        self.delays.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.delays.is_empty()
    }

    /// Maximum observed delay.
    pub fn max(&self) -> Duration {
        self.delays.iter().copied().max().unwrap_or_default()
    }

    /// Mean delay.
    pub fn mean(&self) -> Duration {
        if self.delays.is_empty() {
            return Duration::default();
        }
        let total: Duration = self.delays.iter().sum();
        total / self.delays.len() as u32
    }

    /// The `q`-quantile delay (e.g. `0.99`).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.delays.is_empty() {
            return Duration::default();
        }
        let mut sorted = self.delays.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }

    /// Run a full enumeration, recording every output; returns the items.
    pub fn record<I: Iterator>(iter: I) -> (Vec<I::Item>, Self) {
        let mut rec = Self::new();
        rec.start();
        let mut out = Vec::new();
        for item in iter {
            rec.tick();
            out.push(item);
        }
        (out, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdeg_gen::{ColoredGraphSpec, DegreeClass};
    use lowdeg_logic::parse_query;

    #[test]
    fn generate_and_test_matches_materialized() {
        let s = ColoredGraphSpec::balanced(20, DegreeClass::Bounded(3)).generate(1);
        let q = parse_query(s.signature(), "B(x) & R(y) & !E(x, y)").unwrap();
        let gt: Vec<Vec<Node>> = GenerateAndTest::new(&s, &q).collect();
        let mat = MaterializingEnumerator::build(&s, &q);
        let mat_vec: Vec<Vec<Node>> = mat.iter().map(|t| t.to_vec()).collect();
        assert_eq!(gt, mat_vec);
        assert_eq!(mat.len(), gt.len());
    }

    #[test]
    fn generate_and_test_lexicographic_no_dups() {
        let s = ColoredGraphSpec::balanced(15, DegreeClass::Bounded(3)).generate(2);
        let q = parse_query(s.signature(), "exists z. E(x, z) & E(z, y)").unwrap();
        let got: Vec<Vec<Node>> = GenerateAndTest::new(&s, &q).collect();
        let mut sorted = got.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(got, sorted);
    }

    #[test]
    fn delay_recorder_statistics() {
        let (items, rec) = DelayRecorder::record([1, 2, 3, 4].into_iter());
        assert_eq!(items, vec![1, 2, 3, 4]);
        assert_eq!(rec.len(), 4);
        assert!(rec.max() >= rec.mean());
        assert!(rec.quantile(1.0) >= rec.quantile(0.5));
    }

    #[test]
    fn empty_recorder() {
        let rec = DelayRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.max(), Duration::default());
        assert_eq!(rec.mean(), Duration::default());
    }
}
