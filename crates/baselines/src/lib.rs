//! Baseline tools the SafeMem paper compares against.
//!
//! * [`Purify`] — a model of the commercial Purify checker (paper §5):
//!   2-bits-per-byte shadow state, per-access checking, mark-and-sweep leak
//!   scans. The overhead comparison of Table 3.
//! * [`PageGuard`] — an Electric-Fence-style `mprotect` guard tool: the
//!   page-protection space baseline of Table 4 and the syscall baseline of
//!   Table 2.
//! * [`Memcheck`] — a Valgrind/Memcheck-class interpreter-based checker
//!   (§7.1 cites Valgrind as the other common dynamic tool): quarantined
//!   frees, redzones, interpretation-level slowdown.
//!
//! All three implement [`MemTool`](safemem_core::MemTool), so the workloads
//! of `safemem-workloads` run unchanged under every tool. Purify and
//! Memcheck share one conservative mark (the private `mark` module) for
//! their leak scans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mark;
pub mod memcheck;
pub mod pageguard;
pub mod purify;

pub use memcheck::{Memcheck, MemcheckConfig};
pub use pageguard::PageGuard;
pub use purify::{Purify, PurifyConfig};
