//! The command line of the five science binaries (`faults`, `scale`,
//! `mobility`, `replicate` and `check`): `--out PATH` and `--jobs N`,
//! nothing else.
//!
//! A bad argument prints usage and exits 2. [`Cli::parse`] then opens
//! `--out` for writing, without truncating it, before any simulation runs,
//! so an unwritable path exits 1 at once. [`Cli::write`] truncates and
//! fills the file at the end, so a run that fails leaves an existing
//! file's bytes as they were.

use std::fmt::Display;
use std::fs::OpenOptions;

use macaw_core::Executor;

use crate::parse_jobs_arg;

/// The parsed command line of a science binary.
pub struct Cli {
    /// `--jobs N` workers, or one per core.
    pub executor: Executor,
    /// `--out PATH`, checked writable.
    out: String,
}

impl Cli {
    /// Parse the process arguments of the binary `name`, whose committed
    /// file `default_out` is the default `--out`.
    pub fn parse(name: &str, default_out: &str) -> Cli {
        let mut out = default_out.to_string();
        let mut jobs = None;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .unwrap_or_else(|| usage(name, &format!("{flag} takes a value")))
            };
            match flag.as_str() {
                "--out" => out = value(),
                "--jobs" => {
                    jobs = Some(parse_jobs_arg(&value()).unwrap_or_else(|e| usage(name, &e)))
                }
                other => usage(name, &format!("unknown argument {other}")),
            }
        }
        let open = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&out);
        if let Err(e) = open {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
        Cli {
            executor: jobs.map(Executor::new).unwrap_or_else(Executor::per_core),
            out,
        }
    }

    /// Replace the `--out` file's bytes with `json`; exits 1 if the write
    /// fails.
    pub fn write(&self, json: &str) {
        if let Err(e) = std::fs::write(&self.out, json) {
            eprintln!("cannot write {}: {e}", self.out);
            std::process::exit(1);
        }
        println!("wrote {}", self.out);
    }
}

fn usage(name: &str, msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: {name} [--out PATH] [--jobs N]");
    std::process::exit(2);
}

/// Report a failed simulation and exit 1.
pub fn die(e: &dyn Display) -> ! {
    eprintln!("simulation failed: {e}");
    std::process::exit(1);
}
