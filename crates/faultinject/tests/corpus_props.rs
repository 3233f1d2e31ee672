//! The trace-corpus loader under hostile files: `TraceCorpus::load` reads
//! arbitrary bytes and mutated real snapshots from disk without panicking,
//! and every error it returns names the file.
//!
//! A mutated snapshot is a rendered `tar` trace cut at any offset or at the
//! end of any header line, with bytes flipped, its final newline dropped,
//! or its line endings turned into CRLF. About half then get their checksum header recomputed, so the
//! header checks pass and the trace-body parser sees the damage.

use proptest::prelude::*;
use safemem_faultinject::{
    corpus_checksum, record_trace, CampaignSpec, CorpusMode, TraceCorpus, TraceKey, CORPUS_MAGIC,
};
use std::sync::OnceLock;

/// A small real snapshot, recorded once per test process, and the key it
/// was rendered under.
fn snapshot() -> &'static (TraceKey, String) {
    static SNAPSHOT: OnceLock<(TraceKey, String)> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let mut spec = CampaignSpec::harsh("tar", 0);
        spec.requests = Some(6);
        let trace = record_trace(&spec).expect("tar records");
        let key = TraceKey::of(&spec);
        let rendered = TraceCorpus::render(&key, &trace);
        (key, rendered)
    })
}

#[derive(Debug, Clone)]
enum Mutation {
    /// Cut at any byte offset.
    Truncate(usize),
    /// Cut just before the k-th newline, leaving that line last and
    /// unterminated (k < 16 reaches every header line and the separator).
    CutLine(usize),
    Flip(usize, u8),
    DropFinalNewline,
    Crlf,
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<usize>().prop_map(Mutation::Truncate),
        (0usize..16).prop_map(Mutation::CutLine),
        (any::<usize>(), any::<u8>()).prop_map(|(at, mask)| Mutation::Flip(at, mask.max(1))),
        Just(Mutation::DropFinalNewline),
        Just(Mutation::Crlf),
    ]
}

fn apply(bytes: &mut Vec<u8>, mutation: &Mutation) {
    match *mutation {
        Mutation::Truncate(at) => bytes.truncate(at % (bytes.len() + 1)),
        Mutation::CutLine(k) => {
            if let Some((at, _)) = bytes
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b == b'\n')
                .nth(k)
            {
                bytes.truncate(at);
            }
        }
        Mutation::Flip(at, mask) => {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
        }
        Mutation::DropFinalNewline => {
            if bytes.last() == Some(&b'\n') {
                bytes.pop();
            }
        }
        Mutation::Crlf => {
            *bytes = String::from_utf8_lossy(bytes)
                .replace('\n', "\r\n")
                .into_bytes();
        }
    }
}

/// Rewrites the first `checksum` header line to match the text after the
/// first `---` line, so a damaged body gets past the checksum check.
fn rechecksum(bytes: &[u8]) -> Vec<u8> {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return bytes.to_vec();
    };
    let mut header_end = 0;
    let mut body_start = None;
    for raw in text.split_inclusive('\n') {
        header_end += raw.len();
        if raw.trim_end_matches(['\r', '\n']) == "---" {
            body_start = Some(header_end);
            break;
        }
    }
    let Some(body_start) = body_start else {
        return bytes.to_vec();
    };
    let sum = format!("checksum {:016x}", corpus_checksum(&text[body_start..]));
    let mut out = String::with_capacity(text.len());
    let mut replaced = false;
    for raw in text[..body_start].split_inclusive('\n') {
        if !replaced && raw.starts_with("checksum ") {
            out.push_str(&sum);
            out.push_str(&raw[raw.trim_end_matches(['\r', '\n']).len()..]);
            replaced = true;
        } else {
            out.push_str(raw);
        }
    }
    out.push_str(&text[body_start..]);
    out.into_bytes()
}

/// Writes `bytes` as the snapshot for `key` into a fresh corpus directory
/// named after `test`, loads it back, and removes the directory. Returns
/// an error if the load fails without naming the file.
fn load_names_the_file(test: &str, key: &TraceKey, bytes: &[u8]) -> Result<bool, String> {
    let dir = std::env::temp_dir().join(format!(
        "safemem-corpus-props-{test}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let corpus = TraceCorpus::open(&dir, CorpusMode::ReplayFrom).map_err(|e| e.to_string())?;
    let path = corpus.path_for(key);
    std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
    let loaded = corpus.load(key);
    let _ = std::fs::remove_dir_all(&dir);
    match loaded {
        Ok(trace) => Ok(trace.is_some()),
        Err(e) if e.to_string().contains(&path.display().to_string()) => Ok(false),
        Err(e) => Err(format!("error does not name {}: {e}", path.display())),
    }
}

#[test]
fn the_unmutated_snapshot_loads() {
    let (key, rendered) = snapshot();
    assert_eq!(
        load_names_the_file("clean", key, rendered.as_bytes()),
        Ok(true)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, bare or behind the right magic line.
    #[test]
    fn prop_arbitrary_bytes_never_panic_the_loader(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        magic in any::<bool>(),
    ) {
        let content = if magic {
            [format!("{CORPUS_MAGIC}\n").into_bytes(), bytes].concat()
        } else {
            bytes
        };
        let outcome = load_names_the_file("bytes", &snapshot().0, &content);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }

    /// Mutations of a real snapshot, about half with the checksum
    /// recomputed.
    #[test]
    fn prop_mutated_snapshots_never_panic_the_loader(
        mutations in proptest::collection::vec(mutation(), 1..4),
        recompute in any::<bool>(),
    ) {
        let (key, rendered) = snapshot();
        let mut bytes = rendered.clone().into_bytes();
        for m in &mutations {
            apply(&mut bytes, m);
        }
        if recompute {
            bytes = rechecksum(&bytes);
        }
        let outcome = load_names_the_file("mutated", key, &bytes);
        prop_assert!(outcome.is_ok(), "{:?} {:?}", mutations, outcome);
    }
}
