//! The `experiments` binary's argument handling.

use std::process::Command;

/// The scale comes from `RIPQ_SCALE` alone and at most one subcommand is
/// accepted, so a stray argument (say, `--paper` in front of a figure)
/// exits 2 before running anything instead of silently running another
/// scale or figure.
#[test]
fn anything_but_one_subcommand_is_a_usage_error() {
    for args in [&["table2", "extra"][..], &["--paper", "fig9"], &["--paper"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
        assert!(err.contains("usage: experiments"), "{args:?}: {err}");
    }
}
