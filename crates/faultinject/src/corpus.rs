//! Versioned on-disk trace corpus.
//!
//! Recording a workload trace is pure but not free; a campaign matrix that
//! runs in CI (or is re-run many times while iterating on a detector) pays
//! the recording cost on every invocation even though the recorded op
//! streams never change. The corpus makes that cost a one-time expense: a
//! directory holding one file per unique [`TraceKey`], each a versioned,
//! checksummed snapshot of the trace text the recorder produced. Later runs
//! load the snapshot instead of re-recording, and the replay pipeline is
//! bit-for-bit oblivious to where the trace came from — the golden
//! scorecards are byte-identical either way (pinned by the corpus
//! round-trip test and the CI corpus leg).
//!
//! # File format (version 1)
//!
//! A corpus file is plain text: a header, a `---` separator, then the trace
//! in [`Trace::to_text`] form.
//!
//! ```text
//! safemem-trace v1
//! workload ypserv1
//! workload_seed 0
//! requests -
//! phys_bytes 16777216
//! swap_policy pin
//! scrub_interval_cycles 2000000
//! ecc_mode correct-and-scrub
//! ops 1234
//! checksum 3f2a9c01d4e5b687
//! ---
//! M 64 0x1 0x2
//! ...
//! ```
//!
//! The header pins every [`TraceKey`] field, the op count, and an FNV-1a
//! checksum of the trace text, so a loaded file is validated against the
//! exact key the runner would have recorded under — a stale or foreign file
//! fails loudly (naming the file and the expected version or field) instead
//! of silently perturbing the scorecard.
//!
//! # Version policy
//!
//! The magic line carries the format version. Readers accept exactly the
//! versions they know (`v1` today); any other version — older or newer — is
//! a [`CorpusError::Version`] naming the file and the expected version, and
//! the fix is to re-record (`--corpus-mode record`). The trace text itself
//! is the compatibility boundary: a change to the op grammar requires a new
//! corpus version.

use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use safemem_ecc::EccMode;
use safemem_os::SwapPolicy;
use safemem_workloads::Trace;

use crate::runner::TraceKey;

/// The magic + version line every corpus file must start with.
pub const CORPUS_MAGIC: &str = "safemem-trace v1";

/// How a campaign run uses a trace corpus directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorpusMode {
    /// Load traces that are present and valid; record and store the rest.
    #[default]
    Auto,
    /// Record every trace fresh and (re)write its corpus file. Never reads.
    Record,
    /// Only load. A missing or invalid file is an error, never a silent
    /// re-record — this is the CI replay leg's mode.
    ReplayFrom,
}

impl CorpusMode {
    /// Parses the `--corpus-mode` flag value.
    ///
    /// # Errors
    ///
    /// Returns the list of accepted values for anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(CorpusMode::Auto),
            "record" => Ok(CorpusMode::Record),
            "replay-from" => Ok(CorpusMode::ReplayFrom),
            other => Err(format!(
                "unknown corpus mode {other:?} (expected auto, record, or replay-from)"
            )),
        }
    }
}

/// Why a corpus file could not be used. Every variant names the offending
/// file so the error is actionable without re-running under a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// The file is missing but the mode required it.
    Missing {
        /// The corpus file that should have held the trace.
        path: PathBuf,
    },
    /// The file could not be read or written.
    Io {
        /// The corpus file involved.
        path: PathBuf,
        /// The underlying I/O error, stringified.
        error: String,
    },
    /// The magic/version line is wrong — foreign file or other format
    /// version.
    Version {
        /// The offending file.
        path: PathBuf,
        /// Its actual first line.
        found: String,
    },
    /// The header disagrees with the [`TraceKey`] the runner needs.
    KeyMismatch {
        /// The offending file.
        path: PathBuf,
        /// Header field that disagrees.
        field: &'static str,
        /// Value the key requires.
        expected: String,
        /// Value the file holds.
        found: String,
    },
    /// The body fails its checksum or does not parse as a trace.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What exactly failed.
        detail: String,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Missing { path } => write!(
                f,
                "trace corpus: {} is missing (record it with --corpus-mode record or auto)",
                path.display()
            ),
            CorpusError::Io { path, error } => {
                write!(f, "trace corpus: {}: {error}", path.display())
            }
            CorpusError::Version { path, found } => write!(
                f,
                "trace corpus: {} has version line {found:?}, expected {CORPUS_MAGIC:?} \
                 (re-record with --corpus-mode record)",
                path.display()
            ),
            CorpusError::KeyMismatch {
                path,
                field,
                expected,
                found,
            } => write!(
                f,
                "trace corpus: {} was recorded for {field} {found}, this run needs {expected}",
                path.display()
            ),
            CorpusError::Corrupt { path, detail } => {
                write!(f, "trace corpus: {} is corrupt: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// FNV-1a 64-bit over the trace text — stable, dependency-free, and spelled
/// out here so the file format is self-describing.
#[must_use]
pub fn corpus_checksum(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in text.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn swap_policy_token(policy: SwapPolicy) -> &'static str {
    match policy {
        SwapPolicy::PinWatchedPages => "pin",
        SwapPolicy::SwapAware => "swap-aware",
    }
}

fn ecc_mode_token(mode: EccMode) -> &'static str {
    match mode {
        EccMode::Disabled => "disabled",
        EccMode::CheckOnly => "check-only",
        EccMode::CorrectError => "correct-error",
        EccMode::CorrectAndScrub => "correct-and-scrub",
    }
}

fn opt_token(value: Option<u64>) -> String {
    value.map_or_else(|| "-".into(), |v| v.to_string())
}

/// A directory of versioned trace snapshots, one file per [`TraceKey`].
#[derive(Debug, Clone)]
pub struct TraceCorpus {
    dir: PathBuf,
    mode: CorpusMode,
}

impl TraceCorpus {
    /// Opens (and for writable modes, creates) the corpus directory.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] if the directory cannot be created
    /// (record/auto) or does not exist (replay-from).
    pub fn open(dir: impl Into<PathBuf>, mode: CorpusMode) -> Result<Self, CorpusError> {
        let dir = dir.into();
        match mode {
            CorpusMode::ReplayFrom => {
                if !dir.is_dir() {
                    return Err(CorpusError::Io {
                        path: dir,
                        error: "not a directory (nothing recorded here yet?)".into(),
                    });
                }
            }
            CorpusMode::Auto | CorpusMode::Record => {
                std::fs::create_dir_all(&dir).map_err(|e| CorpusError::Io {
                    path: dir.clone(),
                    error: e.to_string(),
                })?;
            }
        }
        Ok(TraceCorpus { dir, mode })
    }

    /// The configured mode.
    #[must_use]
    pub fn mode(&self) -> CorpusMode {
        self.mode
    }

    /// The corpus file a key maps to. Deterministic in the key alone, so
    /// every run (and every machine) agrees on the layout.
    #[must_use]
    pub fn path_for(&self, key: &TraceKey) -> PathBuf {
        let name = format!(
            "{}_s{}_r{}_p{}_{}_i{}_{}.trace",
            key.workload,
            key.workload_seed,
            opt_token(key.requests),
            key.phys_bytes,
            swap_policy_token(key.swap_policy),
            opt_token(key.scrub_interval_cycles),
            ecc_mode_token(key.ecc_mode),
        );
        self.dir.join(name)
    }

    /// Serialises a trace under its key into the version-1 file format.
    #[must_use]
    pub fn render(key: &TraceKey, trace: &Trace) -> String {
        let body = trace.to_text();
        let mut out = String::with_capacity(body.len() + 256);
        let _ = writeln!(out, "{CORPUS_MAGIC}");
        let _ = writeln!(out, "workload {}", key.workload);
        let _ = writeln!(out, "workload_seed {}", key.workload_seed);
        let _ = writeln!(out, "requests {}", opt_token(key.requests));
        let _ = writeln!(out, "phys_bytes {}", key.phys_bytes);
        let _ = writeln!(out, "swap_policy {}", swap_policy_token(key.swap_policy));
        let _ = writeln!(
            out,
            "scrub_interval_cycles {}",
            opt_token(key.scrub_interval_cycles)
        );
        let _ = writeln!(out, "ecc_mode {}", ecc_mode_token(key.ecc_mode));
        let _ = writeln!(out, "ops {}", trace.len());
        let _ = writeln!(out, "checksum {:016x}", corpus_checksum(&body));
        let _ = writeln!(out, "---");
        out.push_str(&body);
        out
    }

    /// Writes (or overwrites) the snapshot for `key`.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] if the file cannot be written.
    pub fn store(&self, key: &TraceKey, trace: &Trace) -> Result<(), CorpusError> {
        let path = self.path_for(key);
        std::fs::write(&path, Self::render(key, trace)).map_err(|e| CorpusError::Io {
            path: path.clone(),
            error: e.to_string(),
        })
    }

    /// Loads and validates the snapshot for `key`.
    ///
    /// Under [`CorpusMode::Auto`], a *missing* file returns `Ok(None)` (the
    /// caller records and stores); every other defect is still a hard error
    /// — auto mode heals absence, not corruption. Under
    /// [`CorpusMode::ReplayFrom`], absence is an error too. Under
    /// [`CorpusMode::Record`], nothing is ever read and this returns
    /// `Ok(None)`.
    ///
    /// # Errors
    ///
    /// See [`CorpusError`]; every variant names the offending file.
    pub fn load(&self, key: &TraceKey) -> Result<Option<Trace>, CorpusError> {
        if self.mode == CorpusMode::Record {
            return Ok(None);
        }
        let path = self.path_for(key);
        let content = match std::fs::read_to_string(&path) {
            Ok(content) => content,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return if self.mode == CorpusMode::ReplayFrom {
                    Err(CorpusError::Missing { path })
                } else {
                    Ok(None)
                };
            }
            Err(e) => {
                return Err(CorpusError::Io {
                    path,
                    error: e.to_string(),
                })
            }
        };
        Self::parse(&path, key, &content).map(Some)
    }

    /// Parses and validates one corpus file against the key it must serve.
    fn parse(path: &Path, key: &TraceKey, content: &str) -> Result<Trace, CorpusError> {
        // Each header line (without its `\n` or `\r\n`) with the byte offset
        // just past it, so the body starts exactly where the separator line
        // really ends — also when it is the file's last line.
        let mut end = 0;
        let mut lines = content.split_inclusive('\n').map(|raw| {
            end += raw.len();
            let line = raw
                .strip_suffix('\n')
                .map_or(raw, |l| l.strip_suffix('\r').unwrap_or(l));
            (line, end)
        });
        let magic = lines.next().map_or("", |(line, _)| line);
        if magic != CORPUS_MAGIC {
            return Err(CorpusError::Version {
                path: path.to_path_buf(),
                found: magic.to_string(),
            });
        }
        let mut ops: Option<u64> = None;
        let mut checksum: Option<u64> = None;
        let mut body_start = None;
        for (line, end) in lines {
            if line == "---" {
                body_start = Some(end);
                break;
            }
            let (field, value) = line.split_once(' ').ok_or_else(|| CorpusError::Corrupt {
                path: path.to_path_buf(),
                detail: format!("malformed header line {line:?}"),
            })?;
            let expect = |expected: String| -> Result<(), CorpusError> {
                if value == expected {
                    Ok(())
                } else {
                    Err(CorpusError::KeyMismatch {
                        path: path.to_path_buf(),
                        field: match field {
                            "workload" => "workload",
                            "workload_seed" => "workload_seed",
                            "requests" => "requests",
                            "phys_bytes" => "phys_bytes",
                            "swap_policy" => "swap_policy",
                            "scrub_interval_cycles" => "scrub_interval_cycles",
                            "ecc_mode" => "ecc_mode",
                            _ => "header field",
                        },
                        expected,
                        found: value.to_string(),
                    })
                }
            };
            match field {
                "workload" => expect(key.workload.clone())?,
                "workload_seed" => expect(key.workload_seed.to_string())?,
                "requests" => expect(opt_token(key.requests))?,
                "phys_bytes" => expect(key.phys_bytes.to_string())?,
                "swap_policy" => expect(swap_policy_token(key.swap_policy).into())?,
                "scrub_interval_cycles" => expect(opt_token(key.scrub_interval_cycles))?,
                "ecc_mode" => expect(ecc_mode_token(key.ecc_mode).into())?,
                "ops" => {
                    ops = Some(value.parse().map_err(|_| CorpusError::Corrupt {
                        path: path.to_path_buf(),
                        detail: format!("unparsable ops count {value:?}"),
                    })?);
                }
                "checksum" => {
                    checksum =
                        Some(
                            u64::from_str_radix(value, 16).map_err(|_| CorpusError::Corrupt {
                                path: path.to_path_buf(),
                                detail: format!("unparsable checksum {value:?}"),
                            })?,
                        );
                }
                other => {
                    return Err(CorpusError::Corrupt {
                        path: path.to_path_buf(),
                        detail: format!("unknown header field {other:?}"),
                    });
                }
            }
        }
        let Some(body_start) = body_start else {
            return Err(CorpusError::Corrupt {
                path: path.to_path_buf(),
                detail: "missing --- separator".into(),
            });
        };
        let body = &content[body_start..];
        let expected_sum = checksum.ok_or_else(|| CorpusError::Corrupt {
            path: path.to_path_buf(),
            detail: "missing checksum header".into(),
        })?;
        let actual_sum = corpus_checksum(body);
        if actual_sum != expected_sum {
            return Err(CorpusError::Corrupt {
                path: path.to_path_buf(),
                detail: format!(
                    "checksum mismatch (header {expected_sum:016x}, body {actual_sum:016x})"
                ),
            });
        }
        let trace = Trace::from_text(body).map_err(|e| CorpusError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("trace body does not parse: {e}"),
        })?;
        if let Some(expected_ops) = ops {
            if trace.len() as u64 != expected_ops {
                return Err(CorpusError::Corrupt {
                    path: path.to_path_buf(),
                    detail: format!("ops header says {expected_ops}, body holds {}", trace.len()),
                });
            }
        }
        Ok(trace)
    }
}

/// Obtains the recorded-trace bundle for a spec: from the corpus when one
/// is configured and holds a valid snapshot, freshly recorded otherwise.
/// Returns the bundle and whether it was recorded fresh (telemetry only —
/// the bundle itself is byte-identical either way, because the corpus
/// stores the exact text [`Trace::to_text`] produces).
///
/// # Errors
///
/// Recording errors, plus every [`CorpusError`] (stringified into
/// [`CampaignError`]) a configured corpus can raise.
pub fn obtain_campaign_trace(
    spec: &crate::spec::CampaignSpec,
    corpus: Option<&TraceCorpus>,
) -> Result<(crate::oracle::RecordedTrace, bool), crate::oracle::CampaignError> {
    use crate::oracle::{record_trace, CampaignError, RecordedTrace};
    let Some(corpus) = corpus else {
        return crate::oracle::record_campaign_trace(spec).map(|t| (t, true));
    };
    let key = TraceKey::of(spec);
    match corpus.load(&key) {
        Ok(Some(trace)) => Ok((RecordedTrace::new(&trace), false)),
        Ok(None) => {
            let trace = record_trace(spec)?;
            corpus
                .store(&key, &trace)
                .map_err(|e| CampaignError(e.to_string()))?;
            Ok((RecordedTrace::new(&trace), true))
        }
        Err(e) => Err(CampaignError(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn key() -> TraceKey {
        let mut spec = CampaignSpec::harsh("tar", 0);
        spec.requests = Some(24);
        TraceKey::of(&spec)
    }

    fn trace() -> Trace {
        let mut spec = CampaignSpec::harsh("tar", 0);
        spec.requests = Some(24);
        crate::oracle::record_trace(&spec).expect("record")
    }

    #[test]
    fn round_trips_a_recorded_trace() {
        let dir = std::env::temp_dir().join("safemem-corpus-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = TraceCorpus::open(&dir, CorpusMode::Auto).expect("open");
        let key = key();
        assert_eq!(corpus.load(&key).expect("auto miss is ok"), None);
        let trace = trace();
        corpus.store(&key, &trace).expect("store");
        let loaded = corpus.load(&key).expect("load").expect("present");
        assert_eq!(loaded, trace);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_version_names_file_and_expected_version() {
        let key = key();
        let path = Path::new("corpus/x.trace");
        let err = TraceCorpus::parse(path, &key, "safemem-trace v0\n---\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("corpus/x.trace"), "{msg}");
        assert!(msg.contains("safemem-trace v1"), "{msg}");
        assert!(msg.contains("safemem-trace v0"), "{msg}");
    }

    #[test]
    fn key_mismatch_names_field_and_both_values() {
        let key = key();
        let mut other = key.clone();
        other.workload = "gzip".into();
        let rendered = TraceCorpus::render(&other, &Trace::new());
        let err = TraceCorpus::parse(Path::new("c/y.trace"), &key, &rendered).unwrap_err();
        match &err {
            CorpusError::KeyMismatch {
                field,
                expected,
                found,
                ..
            } => {
                assert_eq!(*field, "workload");
                assert_eq!(expected, "tar");
                assert_eq!(found, "gzip");
            }
            other => panic!("expected KeyMismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("c/y.trace"), "{err}");
    }

    #[test]
    fn corrupted_body_fails_the_checksum() {
        let key = key();
        let trace = trace();
        let mut rendered = TraceCorpus::render(&key, &trace);
        let flip = rendered.rfind('M').expect("trace has a malloc op");
        rendered.replace_range(flip..=flip, "F");
        let err = TraceCorpus::parse(Path::new("c/z.trace"), &key, &rendered).unwrap_err();
        assert!(
            matches!(err, CorpusError::Corrupt { .. }),
            "expected Corrupt, got {err:?}"
        );
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn checksum_valid_body_that_does_not_parse_is_corrupt() {
        // Header and checksum intact; the body names an id that does not fit
        // u32 or that no earlier `M` line bound, or allocates more than the
        // heap holds.
        let key = key();
        for (body, line) in [
            ("M 8\nF 4294967296\n", "line 2"),
            ("R 7 0 8\n", "line 1"),
            ("M 100000000000\n", "line 1"),
        ] {
            let empty_sum = format!("{:016x}", corpus_checksum(""));
            let rendered = TraceCorpus::render(&key, &Trace::new())
                .replace(&empty_sum, &format!("{:016x}", corpus_checksum(body)))
                + body;
            let err = TraceCorpus::parse(Path::new("c/bad-body.trace"), &key, &rendered)
                .expect_err("an unparsable body must not load");
            assert!(matches!(err, CorpusError::Corrupt { .. }), "{err:?}");
            let msg = err.to_string();
            assert!(
                msg.contains("c/bad-body.trace") && msg.contains(line),
                "{msg}"
            );
        }
    }

    #[test]
    fn a_separator_on_the_last_line_is_an_error_not_a_panic() {
        let key = key();
        let path = Path::new("c/short.trace");
        for content in [
            "safemem-trace v1\nchecksum 0\n---",
            "safemem-trace v1\r\nchecksum 0\r\n---",
            "safemem-trace v1\r\nchecksum 0\r\n---\r\né",
        ] {
            let err = TraceCorpus::parse(path, &key, content).unwrap_err();
            assert!(err.to_string().contains("checksum mismatch"), "{err}");
            assert!(err.to_string().contains("c/short.trace"), "{err}");
        }
        let empty = format!(
            "safemem-trace v1\nchecksum {:016x}\n---",
            corpus_checksum("")
        );
        let trace = TraceCorpus::parse(path, &key, &empty).expect("an empty body is a trace");
        assert_eq!(trace.len(), 0);
    }

    #[test]
    fn replay_from_requires_the_file() {
        let dir = std::env::temp_dir().join("safemem-corpus-replay-missing");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let corpus = TraceCorpus::open(&dir, CorpusMode::ReplayFrom).expect("open");
        let err = corpus.load(&key()).unwrap_err();
        assert!(matches!(err, CorpusError::Missing { .. }), "{err:?}");
        assert!(err.to_string().contains(".trace"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
