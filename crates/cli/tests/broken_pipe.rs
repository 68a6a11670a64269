//! The `easyview` binary behaves like a Unix filter when its reader
//! goes away: `easyview table big.pb.gz | head -1` ends cleanly instead
//! of panicking on the broken pipe.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_clean_exit() {
    let bytes = ev_gen::synthetic::pprof_with_size(256 << 10, 7);
    let dir = std::env::temp_dir().join(format!("ev-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("big.pb.gz");
    std::fs::write(&path, &bytes).unwrap();
    let path = path.to_string_lossy().into_owned();

    // The table must outgrow any pipe buffer, or the whole write lands
    // before the reader hangs up and the test proves nothing.
    let argv = ["table", path.as_str(), "--depth", "64"];
    let full =
        ev_cli::run(ev_cli::parse_args(&argv.map(str::to_owned)).expect("parse")).expect("run");
    assert!(full.len() > 1 << 20, "table is only {} bytes", full.len());

    let mut child = Command::new(env!("CARGO_BIN_EXE_easyview"))
        .args(argv)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn easyview");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(!first.is_empty(), "no first line");
    // The reader is dropped here, closing the pipe mid-write.
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
