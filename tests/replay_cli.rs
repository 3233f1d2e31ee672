//! `safemem-run --replay` under hostile trace files: a trace whose malloc
//! is larger than the heap, or whose access span reaches far outside its
//! buffer, is refused with an error naming the line, under every tool,
//! instead of crashing the replay.

use std::process::Command;

#[test]
fn hostile_traces_are_refused_with_the_line_named() {
    let dir = std::env::temp_dir().join(format!("safemem-replay-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, text, line) in [
        ("wrapping-size", "M 18446744073709551615 0x1\n", "line 1"),
        ("huge-size", "M 100000000000 0x1\n", "line 1"),
        ("far-read", "M 64 0x1\nR 0 4294967295 8\n", "line 2"),
    ] {
        let path = dir.join(format!("{name}.trace"));
        std::fs::write(&path, text).expect("write trace");
        for tool in ["safemem", "purify", "none"] {
            let out = Command::new(env!("CARGO_BIN_EXE_safemem-run"))
                .arg("--replay")
                .arg(&path)
                .args(["--tool", tool])
                .output()
                .expect("the run binary starts");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} under {tool}: {stderr}");
            assert!(stderr.contains(line), "{name} under {tool}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
