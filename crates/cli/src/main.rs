//! `lowdeg` — command-line front end for the engine.
//!
//! ```text
//! lowdeg stats        <db>                        database statistics
//! lowdeg check        <db> '<sentence>'           model checking      (Thm 2.4)
//! lowdeg count        <db> '<query>'              answer counting     (Thm 2.5)
//! lowdeg test         <db> '<query>' <node>...    membership test     (Thm 2.6)
//! lowdeg enumerate    <db> '<query>' [limit]      enumeration         (Thm 2.7)
//! lowdeg generate     <n> <degree> <seed> [path]  write a random colored graph
//! lowdeg import-edges <edge-list> [path]          convert a SNAP-style edge list
//! ```
//!
//! Databases use the plain-text format of `lowdeg-storage` (see the README
//! quickstart). Optional flags: `--eps <x>` (default 0.25).

use std::io::{BufWriter, IsTerminal, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    // a terminal sees each row as it is written; a pipe or a file gets
    // block-buffered output rather than one write call per row
    let result = if stdout.is_terminal() {
        lowdeg_cli::run(&args, &mut stdout.lock())
    } else {
        let mut out = BufWriter::new(stdout.lock());
        lowdeg_cli::run(&args, &mut out).and_then(|()| out.flush().map_err(|e| e.to_string()))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
