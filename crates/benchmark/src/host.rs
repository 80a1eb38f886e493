//! The host's speed while a run measures, from a fixed reference task
//! timed between requests.
//!
//! The benchmark runs on shared virtual machines whose speed drifts with
//! what other tenants do. On a 2-vCPU VM, ten runs of one commit read
//! median `batch-plan` requests of 285 to 476 ms within half an hour, with
//! the same work in every run; an integer loop kept its speed while
//! memory-bound loops slowed by up to half. The reference task is code of
//! this crate alone and allocates nothing once set up, so neither the
//! engine's code nor the state its requests leave the allocator in moves
//! it. Each timed request and set-up repetition is divided by the host
//! factor in force when it ran: the task's latest reading over its
//! nominal time. In two sets of ten runs per workload this cut the spread
//! of the median request from 9-25% to 3-9%.
//!
//! One timing of the task is noisy: back to back on a quiet host,
//! consecutive timings differed by 4% at the median and by 26% or more
//! one time in ten, while the median over a second drifted between 4.0
//! and 6.5 ms within half a minute. So a reading is the median of three
//! back-to-back timings: one preempted timing does not set the factor of
//! the requests up to the next reading, and the drift still shows.

use crate::rng::Rng;
use crate::stats::median;
use std::collections::HashMap;
use std::time::Instant;

/// Words of the task's buffer (4 MiB, past a core's L2 cache, as the
/// engine's working sets are).
const WORDS: usize = 1 << 19;
/// Words the task sorts.
const SORTED: usize = 1 << 15;
/// Random updates into the buffer.
const UPDATES: usize = 1 << 16;
/// Keys the task puts in a hash table and looks up again.
const KEYS: usize = 1 << 15;
/// Steps of the task's walk along a random cycle through the buffer.
const CHASE: usize = 1 << 13;
/// Steps of the task's integer loop.
const STEPS: u64 = 500_000;
/// The task's time on a quiet host (a 2-vCPU Intel Xeon VM), in seconds:
/// the speed the reported times are scaled to.
const NOMINAL: f64 = 0.00456;
/// Timings per reading.
const REPEATS: usize = 3;
/// The task is read before a request once this many seconds have passed
/// since it was last read: often enough to follow the host's drift over
/// seconds, and rarely enough that reading it adds about 4% to a run's
/// wall time (it is kept out of the timed phase).
const GAP: f64 = 0.5;

/// The reference task and its timings over a run.
#[derive(Default)]
pub struct HostProbe {
    /// Made at the first reading, after the warm-up's peak-RSS readings.
    memory: Option<Memory>,
    last: Option<Instant>,
    factors: Vec<f64>,
}

/// The task's memory, reused by every timing, so that no timing
/// allocates: the task's time then does not depend on the state the
/// engine's requests left the allocator in.
struct Memory {
    buf: Vec<u64>,
    table: HashMap<u64, u64>,
    /// A single cycle through every index of `buf`.
    cycle: Vec<u32>,
}

impl HostProbe {
    /// Before a request: read the reference task if it is due. The caller
    /// keeps the time this takes out of the timed phase.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed().as_secs_f64() < GAP) {
            return;
        }
        let memory = self.memory.get_or_insert_with(|| {
            let mut m = Memory::new();
            // touched untimed, so no timing pays page faults
            std::hint::black_box(task(&mut m));
            m
        });
        let times: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(task(memory));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        self.factors
            .push(median(&times).expect("REPEATS > 0") / NOMINAL);
        self.last = Some(Instant::now());
    }

    /// The host factor in force: the task's latest reading over its
    /// nominal time, above 1 on a host slower than nominal; 1 before it
    /// was first read.
    pub fn factor(&self) -> f64 {
        self.factors.last().copied().unwrap_or(1.0)
    }

    /// Every factor measured, in order.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }
}

impl Memory {
    fn new() -> Self {
        // Sattolo's shuffle: a random permutation that is one cycle
        let mut cycle: Vec<u32> = (0..WORDS as u32).collect();
        let mut rng = Rng::new(0x5eed, 2);
        for i in (1..cycle.len()).rev() {
            cycle.swap(i, rng.below(i));
        }
        Memory {
            buf: vec![0; WORDS],
            table: HashMap::with_capacity(KEYS),
            cycle,
        }
    }
}

/// One line on the host factors of a run, for the report's notes.
pub fn describe(factors: &[f64]) -> String {
    let lo = factors.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = factors.iter().copied().fold(0.0, f64::max);
    format!(
        "host factor: median {} of {} readings ({} to {})",
        crate::report::fmt(median(factors).unwrap_or(1.0)),
        factors.len(),
        crate::report::fmt(lo),
        crate::report::fmt(hi),
    )
}

/// The reference task: a sequential fill, a sort, random updates, a hash
/// table, a pointer walk and an integer loop, the kinds of work the
/// engine's builds do, in proportions no workload is tuned to.
fn task(m: &mut Memory) -> u64 {
    let mut rng = Rng::new(0x5eed, 1);
    let buf = &mut m.buf;
    for w in buf.iter_mut() {
        *w = rng.next_u64();
    }
    buf[..SORTED].sort_unstable();
    let n = buf.len();
    for _ in 0..UPDATES {
        let i = rng.below(n);
        buf[i] = buf[i].rotate_left(7) ^ buf[i / 2];
    }
    let mut acc = 0u64;
    // cleared, not dropped: it keeps its capacity, so inserting allocates
    // nothing
    m.table.clear();
    for k in 0..KEYS {
        m.table.insert(buf[(k * 61) % n], k as u64);
    }
    for k in 0..KEYS {
        acc = acc.wrapping_add(m.table.get(&buf[(k * 67) % n]).copied().unwrap_or(0));
    }
    let mut p = 0;
    for _ in 0..CHASE {
        p = m.cycle[p] as usize;
        acc ^= buf[p];
    }
    let mut x = 1u64;
    for i in 0..STEPS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    acc ^ x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_walks_one_cycle_and_allocates_nothing_once_set_up() {
        let mut m = Memory::new();
        let mut p = 0;
        for step in 1..=WORDS {
            p = m.cycle[p] as usize;
            assert_eq!(p == 0, step == WORDS, "one cycle through every index");
        }
        task(&mut m);
        let capacity = m.table.capacity();
        task(&mut m);
        assert_eq!(m.table.capacity(), capacity);
    }

    #[test]
    fn readings_are_spaced() {
        let mut probe = HostProbe::default();
        assert_eq!(probe.factor(), 1.0);
        probe.tick();
        probe.tick();
        assert_eq!(probe.factors().len(), 1, "the second tick is not due");
        assert!(probe.factor() > 0.0);
    }
}
