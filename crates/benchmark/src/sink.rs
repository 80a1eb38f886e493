//! The writer the CLI workloads hand to `lowdeg_cli::run`.

use std::io::Write;
use std::time::{Duration, Instant};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Fold `bytes` into an FNV-1a hash.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Counts lines, hashes every byte in order and stamps the first complete
/// line; keeps a bounded prefix of the output for verification.
pub struct Sink {
    started: Instant,
    first_line: Option<Duration>,
    lines: u64,
    hash: u64,
    keep: Vec<u8>,
    keep_limit: usize,
}

impl Sink {
    /// A sink whose first-line stamp is measured from `started`, keeping
    /// at most `keep_limit` bytes of output.
    pub fn new(started: Instant, keep_limit: usize) -> Self {
        Sink {
            started,
            first_line: None,
            lines: 0,
            hash: FNV_OFFSET,
            keep: Vec::new(),
            keep_limit,
        }
    }

    /// Time from the request start to the first complete output line.
    pub fn first_line(&self) -> Option<Duration> {
        self.first_line
    }

    /// Complete lines written.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// FNV-1a hash of every byte written, in order.
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// The kept output prefix.
    pub fn kept(&self) -> &[u8] {
        &self.keep
    }
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let newlines = buf.iter().filter(|&&b| b == b'\n').count() as u64;
        if newlines > 0 && self.first_line.is_none() {
            self.first_line = Some(self.started.elapsed());
        }
        self.lines += newlines;
        self.hash = fnv1a(self.hash, buf);
        let room = self.keep_limit.saturating_sub(self.keep.len());
        self.keep.extend_from_slice(&buf[..room.min(buf.len())]);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A digest-only sink for rows the benchmark formats itself.
pub fn digest_of(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_lines_hashes_and_keeps_a_prefix() {
        let mut s = Sink::new(Instant::now(), 4);
        assert!(s.first_line().is_none());
        write!(s, "ab").unwrap();
        assert!(s.first_line().is_none());
        writeln!(s, "c").unwrap();
        writeln!(s, "d").unwrap();
        assert!(s.first_line().is_some());
        assert_eq!(s.lines(), 2);
        assert_eq!(s.kept(), b"abc\n");
        assert_eq!(s.digest(), digest_of(b"abc\nd\n"));
    }
}
