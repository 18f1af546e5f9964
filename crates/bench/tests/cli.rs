//! The science binaries' shared command line (`macaw_bench::cli`): a bad
//! argument exits 2 and an unwritable `--out` exits 1, both before any
//! simulation runs, so neither prints anything on stdout.

use std::process::{Command, Output};

/// The five science binaries, fastest first.
const BINARIES: [(&str, &str); 5] = [
    ("faults", env!("CARGO_BIN_EXE_faults")),
    ("scale", env!("CARGO_BIN_EXE_scale")),
    ("mobility", env!("CARGO_BIN_EXE_mobility")),
    ("replicate", env!("CARGO_BIN_EXE_replicate")),
    ("check", env!("CARGO_BIN_EXE_check")),
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("the binary starts")
}

#[test]
fn an_unwritable_out_exits_1_before_any_simulation() {
    // A path below a regular file can never be created.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/BENCH.json");
    for (name, exe) in BINARIES {
        let o = run(exe, &["--out", out, "--jobs", "1"]);
        assert_eq!(o.status.code(), Some(1), "{name}: {o:?}");
        assert!(o.stdout.is_empty(), "{name} ran before failing: {o:?}");
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert!(stderr.contains("cannot write"), "{name}: {stderr}");
    }
}

#[test]
fn a_bad_argument_exits_2() {
    let bad: [&[&str]; 4] = [&["--seed", "3"], &["--jobs", "0"], &["--out"], &["--quick"]];
    for (name, exe) in BINARIES {
        for args in bad {
            let o = run(exe, args);
            assert_eq!(o.status.code(), Some(2), "{name} {args:?}: {o:?}");
            assert!(o.stdout.is_empty(), "{name} {args:?}: {o:?}");
            let stderr = String::from_utf8_lossy(&o.stderr);
            assert!(stderr.contains("usage:"), "{name} {args:?}: {stderr}");
        }
    }
}
